//! Regenerates the fig4_design_space experiment (see DESIGN.md experiment
//! index). `--jobs N` evaluates the cascode surface on the supervised
//! worker pool; the output is identical for every job count.
fn main() {
    let jobs = ctsdac_bench::jobs_from_args(std::env::args().skip(1));
    print!("{}", ctsdac_bench::fig4_design_space_jobs(jobs));
}
