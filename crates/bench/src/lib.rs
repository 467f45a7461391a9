//! Experiment harness: one function per figure of the DATE 2003 paper.
//!
//! Each experiment returns the report the paper's figure is checked
//! against and writes the raw series as CSV under `experiments/`.
//! [`EXPERIMENTS`] maps each DESIGN.md experiment ID to its function; the
//! `experiments` binary runs any of them (`experiments all` produces
//! EXPERIMENTS.md). The crate's other binaries are the gated kernel
//! benches `mc_bench` and `sweep_bench` and the `fault_smoke` CI drill.

use std::fmt::Write as _;
use std::path::PathBuf;

use ctsdac_circuit::cell::CellTopology;
use ctsdac_circuit::poles::PoleModel;
use ctsdac_core::cascode::CascodeSpace;
use ctsdac_core::explore::{DesignSpace, Objective};
use ctsdac_core::report::{ComparisonReport, SizingTable};
use ctsdac_core::saturation::SaturationCondition;
use ctsdac_core::segmentation::segmentation_sweep;
use ctsdac_core::sizing::build_cascoded_cell;
use ctsdac_core::DacSpec;
use ctsdac_dac::architecture::SegmentedDac;
use ctsdac_dac::errors::CellErrors;
use ctsdac_dac::jitter::{jitter_snr_measured_db, jitter_snr_theory_db};
use ctsdac_dac::sine::SineTest;
use ctsdac_dac::transient::{TransientConfig, TransientSim};
use ctsdac_dac::yield_engine::{YieldEngine, YieldLimits};
use ctsdac_layout::centroid::array_errors_with_split;
use ctsdac_layout::gradient::GradientModel;
use ctsdac_layout::grid::ArrayGrid;
use ctsdac_layout::inl::unary_inl_max;
use ctsdac_layout::lefdef::{write_def, write_lef, CellGeometry};
use ctsdac_layout::schemes::{canonical_gradients, Scheme};
use ctsdac_layout::Floorplan;
use ctsdac_runtime::{run_chunks, ExecPolicy, McPlan, PoolConfig};
use ctsdac_stats::sample::seeded_rng;

/// One experiment of the DESIGN.md index: its ID and the function that
/// runs it. The argument is the worker count (`--jobs`); only FIG4-CAS
/// and SAT-YIELD use it, and their output is identical for every count.
pub type Experiment = (&'static str, fn(usize) -> String);

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("FIG3-SAT", |_| fig3_saturation()),
    ("FIG3-POLE", |_| fig3_poles()),
    ("FIG4-CAS", fig4_design_space_jobs),
    ("AREA-CMP", |_| area_comparison()),
    ("FIG6-SETTLE", |_| fig6_transient()),
    ("FIG8-SFDR", |_| fig8_spectrum()),
    ("EQ1-YIELD", |_| inl_yield()),
    ("FIG5-LAYOUT", |_| switching_schemes()),
    ("SEG-SWEEP", |_| segmentation()),
    ("SFDR-BW", |_| sfdr_bandwidth()),
    ("LATCH-XING", |_| latch_crossing()),
    ("IMD3", |_| two_tone_imd()),
    ("DECODER", |_| decoder_cost()),
    ("SAT-YIELD", saturation_yield_jobs),
    ("CAL-EXT", |_| calibration_tradeoff()),
    ("SENS", |_| sensitivity()),
    ("PARETO", |_| pareto()),
    ("GLITCH-SEG", |_| glitch_segmentation()),
    ("JITTER-EXT", |_| jitter_sweep()),
];

/// Output directory for CSV series (`experiments/` at the workspace root).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    std::fs::create_dir_all(&dir).expect("create experiments directory");
    dir
}

fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = out_dir().join(name);
    let mut content = String::from(header);
    content.push('\n');
    for row in rows {
        content.push_str(row);
        content.push('\n');
    }
    std::fs::write(&path, content).expect("write CSV");
}

/// FIG3-SAT — the saturation constraint curves of Fig. 3 (upper):
/// maximum admissible `V_OD,SW` vs `V_OD,CS` under the exact (eq. 4),
/// legacy 0.5 V margin, and statistical (eq. 9) conditions.
pub fn fig3_saturation() -> String {
    let spec = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== FIG3-SAT: saturation constraint curves ==").expect("write");
    writeln!(report, "{spec}").expect("write");
    writeln!(
        report,
        "V_out,min = {:.3} V, S = {:.3}",
        spec.env.v_out_min(),
        SaturationCondition::s_factor(&spec)
    )
    .expect("write");
    writeln!(
        report,
        "{:>8} {:>12} {:>12} {:>12}  (max V_OD,SW [V])",
        "V_OD,CS", "exact", "margin0.5", "statistical"
    )
    .expect("write");
    let mut rows = Vec::new();
    let conds = [
        SaturationCondition::Exact,
        SaturationCondition::legacy(),
        SaturationCondition::Statistical,
    ];
    for i in 1..=40 {
        let vov_cs = 0.05 * i as f64;
        if vov_cs >= spec.env.v_out_min() {
            break;
        }
        let vals: Vec<Option<f64>> = conds.iter().map(|c| c.max_vov_sw(&spec, vov_cs)).collect();
        let fmt = |v: &Option<f64>| match v {
            Some(x) => format!("{x:>12.4}"),
            None => format!("{:>12}", "-"),
        };
        writeln!(
            report,
            "{vov_cs:>8.2} {} {} {}",
            fmt(&vals[0]),
            fmt(&vals[1]),
            fmt(&vals[2])
        )
        .expect("write");
        rows.push(format!(
            "{vov_cs},{},{},{}",
            vals[0].map_or(String::new(), |v| v.to_string()),
            vals[1].map_or(String::new(), |v| v.to_string()),
            vals[2].map_or(String::new(), |v| v.to_string()),
        ));
    }
    write_csv(
        "fig3_saturation.csv",
        "vov_cs,exact_max_sw,legacy_max_sw,statistical_max_sw",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: statistical curve sits between exact and the 0.5 V margin, \
         recovering most of the arbitrary margin."
    )
    .expect("write");
    report
}

/// FIG3-POLE — the min(p1, p2) map of Fig. 3 (lower) over the statistically
/// constrained plane, plus the max-speed and min-area optimum points.
pub fn fig3_poles() -> String {
    let spec = DacSpec::paper_12bit();
    let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(28);
    let mut report = String::new();
    writeln!(report, "== FIG3-POLE: pole-frequency map and optima ==").expect("write");
    let mut rows = Vec::new();
    for p in space.sweep() {
        rows.push(format!(
            "{},{},{},{},{},{}",
            p.vov_cs, p.vov_sw, p.feasible as u8, p.min_pole_hz, p.total_area, p.settling_s
        ));
    }
    write_csv(
        "fig3_poles.csv",
        "vov_cs,vov_sw,feasible,min_pole_hz,total_area_m2,settling_s",
        &rows,
    );
    let fast = space
        .optimize(Objective::MaxSpeed)
        .expect("feasible region");
    let small = space.optimize(Objective::MinArea).expect("feasible region");
    writeln!(report, "max-speed point : {fast}").expect("write");
    writeln!(
        report,
        "  sizing: {}",
        SizingTable::for_simple(&spec, fast.vov_cs, fast.vov_sw)
    )
    .expect("write");
    writeln!(report, "min-area  point : {small}").expect("write");
    writeln!(
        report,
        "  sizing: {}",
        SizingTable::for_simple(&spec, small.vov_cs, small.vov_sw)
    )
    .expect("write");
    writeln!(
        report,
        "Expected shape: speed optimum in the interior/edge of the admissible \
         region; area optimum hugging the constraint at large overdrives."
    )
    .expect("write");
    report
}

/// FIG4-CAS — the cascoded design-space limit surface of Fig. 4 and the
/// admissible volume under each condition. The surface is evaluated on
/// the supervised worker pool, one chunk per `(condition, grid row)`
/// pair; it is a pure function of the chunk index, so the output is
/// identical for every `jobs` value.
pub fn fig4_design_space_jobs(jobs: usize) -> String {
    const GRID: usize = 14;
    let spec = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== FIG4-CAS: cascoded design space ==").expect("write");
    let conditions = [
        ("exact", SaturationCondition::Exact),
        ("legacy", SaturationCondition::legacy()),
        ("statistical", SaturationCondition::Statistical),
    ];
    let total = (conditions.len() * GRID) as u64;
    let run = run_chunks(
        &PoolConfig::with_jobs(jobs),
        total,
        std::collections::BTreeMap::new(),
        |ctx| {
            let (cond_idx, row) = (ctx.chunk as usize / GRID, ctx.chunk as usize % GRID);
            let (name, cond) = conditions[cond_idx];
            let space = CascodeSpace::new(&spec, cond).with_grid(GRID);
            Ok(space
                .surface_row(row)
                .into_iter()
                .map(|p| {
                    format!(
                        "{name},{},{},{}",
                        p.vov_sw,
                        p.vov_cas,
                        p.max_vov_cs.map_or(String::new(), |v| v.to_string())
                    )
                })
                .collect::<Vec<_>>())
        },
        |_, _| Ok(()),
    )
    .expect("pure surface evaluation cannot exhaust retries");
    let rows: Vec<String> = run.results.into_iter().flatten().collect();
    let mut volumes = Vec::new();
    for (name, cond) in conditions {
        let space = CascodeSpace::new(&spec, cond).with_grid(GRID);
        let vol = space.admissible_volume();
        volumes.push((name, vol));
        writeln!(report, "{name:>12}: admissible volume = {vol:.4} V^3").expect("write");
    }
    write_csv(
        "fig4_design_space.csv",
        "condition,vov_sw,vov_cas,max_vov_cs",
        &rows,
    );
    let legacy = volumes[1].1;
    let stat = volumes[2].1;
    writeln!(
        report,
        "volume recovered by the statistical condition vs 0.5 V margin: {:+.1} %",
        (stat / legacy - 1.0) * 100.0
    )
    .expect("write");
    report
}

/// AREA-CMP — the §5 area-saving claim, for both topologies, plus the
/// σ-combination ablation.
pub fn area_comparison() -> String {
    let spec = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== AREA-CMP: statistical vs 0.5 V margin ==").expect("write");
    let simple = ComparisonReport::compute(&spec, CellTopology::Simple, 40)
        .expect("paper design space is feasible");
    writeln!(report, "{simple}").expect("write");
    let cascoded = ComparisonReport::compute(&spec, CellTopology::Cascoded, 12)
        .expect("paper design space is feasible");
    writeln!(report, "{cascoded}").expect("write");
    // Ablation: sigma-combination rule.
    use ctsdac_core::saturation::SigmaCombine;
    let m_max = SaturationCondition::Statistical.margin_simple_with(
        &spec,
        simple.statistical_overdrives.0,
        simple.statistical_overdrives.2,
        SigmaCombine::Max,
    );
    let m_rss = SaturationCondition::Statistical.margin_simple_with(
        &spec,
        simple.statistical_overdrives.0,
        simple.statistical_overdrives.2,
        SigmaCombine::Rss,
    );
    writeln!(
        report,
        "ablation sigma-combine at the simple optimum: max = {:.1} mV, rss = {:.1} mV",
        m_max * 1e3,
        m_rss * 1e3
    )
    .expect("write");
    write_csv(
        "area_comparison.csv",
        "topology,legacy_area_m2,statistical_area_m2,saving_frac",
        &[
            format!(
                "simple,{},{},{}",
                simple.legacy_area,
                simple.statistical_area,
                simple.area_saving_fraction()
            ),
            format!(
                "cascoded,{},{},{}",
                cascoded.legacy_area,
                cascoded.statistical_area,
                cascoded.area_saving_fraction()
            ),
        ],
    );
    report
}

/// The sized cascoded design the dynamic experiments run on: the max-speed
/// cascoded point of the statistical space (the paper's final design is a
/// cascoded cell sized for 400 MS/s operation).
pub fn paper_design() -> (DacSpec, ctsdac_circuit::cell::SizedCell) {
    let spec = DacSpec::paper_12bit();
    let point = CascodeSpace::new(&spec, SaturationCondition::Statistical)
        .with_grid(10)
        .max_speed_point()
        .expect("feasible cascoded design");
    let cell = build_cascoded_cell(
        &spec,
        point.vov_cs,
        point.vov_cas,
        point.vov_sw,
        spec.unary_weight(),
    );
    (spec, cell)
}

/// FIG6-SETTLE — full-scale settling transient (Fig. 6): waveform CSV,
/// settling time, maximum update rate.
pub fn fig6_transient() -> String {
    let (spec, cell) = paper_design();
    let poles = PoleModel::new(spec.cells_at_output())
        .poles(&cell, &spec.env)
        .expect("paper design is feasible");
    let config = TransientConfig::from_poles(400e6, &poles).with_oversample(32);
    let dac = SegmentedDac::new(&spec);
    let errors = CellErrors::ideal(&dac);
    let sim = TransientSim::new(&dac, &errors, config);
    let mut rng = seeded_rng(6);
    let (wave, t_settle) = sim.full_scale_settling(&mut rng);
    let dt = config.period() / config.oversample as f64;
    let rows: Vec<String> = wave
        .iter()
        .enumerate()
        .map(|(i, &y)| format!("{},{}", (i + 1) as f64 * dt, y))
        .collect();
    write_csv("fig6_transient.csv", "t_s,output_lsb", &rows);
    let mut report = String::new();
    writeln!(report, "== FIG6-SETTLE: full-scale settling ==").expect("write");
    writeln!(report, "design cell: {cell}").expect("write");
    writeln!(report, "poles: {poles}").expect("write");
    writeln!(
        report,
        "settling time to +-0.5 LSB: {:.3} ns (paper: ~2.5 ns)",
        t_settle * 1e9
    )
    .expect("write");
    writeln!(
        report,
        "max update rate at this settling: {:.0} MS/s (paper: 400 MS/s)",
        1e-6 / t_settle
    )
    .expect("write");
    report
}

/// FIG8-SFDR — the 53 MHz @ 300 MS/s spectrum of Fig. 8, with random
/// mismatch at the sizing budget plus dynamic effects.
pub fn fig8_spectrum() -> String {
    let (spec, cell) = paper_design();
    let poles = PoleModel::new(spec.cells_at_output())
        .poles(&cell, &spec.env)
        .expect("paper design is feasible");
    let config = TransientConfig::from_poles(300e6, &poles)
        .with_binary_skew(30e-12)
        .with_feedthrough(0.05);
    let dac = SegmentedDac::new(&spec);
    let mut rng = seeded_rng(8);
    let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
    let test = SineTest::paper_fig8();

    let static_spec = test.run_static(&dac, &errors, config.fs);
    let mut rng2 = seeded_rng(88);
    let dynamic_spec = test.run_dense(&dac, &errors, config, &mut rng2);
    let mut rng3 = seeded_rng(88);
    let diff_spec = test.run_dense_differential(&dac, &errors, config, &mut rng3);
    let in_band = config.fs / 2.0;

    let rows: Vec<String> = dynamic_spec
        .power()
        .iter()
        .enumerate()
        .take_while(|&(k, _)| dynamic_spec.bin_frequency(k) <= in_band)
        .map(|(k, &p)| {
            format!(
                "{},{},{}",
                dynamic_spec.bin_frequency(k),
                10.0 * (p / dynamic_spec.fundamental_power()).log10(),
                p
            )
        })
        .collect();
    write_csv("fig8_spectrum.csv", "freq_hz,dbc,power", &rows);

    let mut report = String::new();
    writeln!(report, "== FIG8-SFDR: 53 MHz @ 300 MS/s spectrum ==").expect("write");
    writeln!(
        report,
        "mismatch sigma(I)/I = {:.4} %",
        spec.sigma_unit_spec() * 100.0
    )
    .expect("write");
    writeln!(
        report,
        "static  (mismatch only)           : SFDR = {:.1} dB, SNR = {:.1} dB, ENOB = {:.2}",
        static_spec.sfdr_db(),
        static_spec.snr_db(),
        static_spec.enob()
    )
    .expect("write");
    writeln!(
        report,
        "dynamic single-ended (dense DFT)  : SFDR = {:.1} dB in [0, {:.0} MHz]",
        dynamic_spec.sfdr_in_band_db(in_band),
        in_band / 1e6
    )
    .expect("write");
    writeln!(
        report,
        "dynamic differential (paper Fig.8): SFDR = {:.1} dB in [0, {:.0} MHz]",
        diff_spec.sfdr_in_band_db(in_band),
        in_band / 1e6
    )
    .expect("write");
    writeln!(
        report,
        "paper reports SFDR ~ tens of dB at this frequency (OCR shows \"40dB\"; \
         the mismatch-limited bound for this sigma is ~75-85 dB at low frequency)."
    )
    .expect("write");
    report
}

/// EQ1-YIELD — Monte-Carlo INL yield across σ for several resolutions,
/// validating eq. (1), on the lane yield engine.
pub fn inl_yield() -> String {
    let base = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== EQ1-YIELD: Monte-Carlo validation of eq. (1) ==").expect("write");
    let mut rows = Vec::new();
    for n in [8u32, 10, 12] {
        let spec = DacSpec::new(n, 4.min(n), 0.997, base.env, base.tech);
        let dac = SegmentedDac::new(&spec);
        let sigma_spec = spec.sigma_unit_spec();
        writeln!(
            report,
            "n = {n:2}: sigma_spec = {:.4} %  (C = {:.3})",
            sigma_spec * 100.0,
            spec.yield_constant()
        )
        .expect("write");
        for factor in [0.5, 1.0, 1.5, 2.0] {
            let sigma = sigma_spec * factor;
            let trials = if n <= 10 { 600 } else { 300 };
            let mut rng = seeded_rng(1000 + n as u64 * 10 + (factor * 10.0) as u64);
            let y = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb())
                .and_then(|mut engine| engine.run_lanes::<8, _>(trials, &mut rng))
                .expect("finite sigma and non-zero trials")
                .inl;
            writeln!(report, "    sigma = {factor:.1} x spec: yield = {y}").expect("write");
            rows.push(format!("{n},{sigma},{factor},{},{}", y.estimate(), trials));
        }
    }
    write_csv(
        "inl_yield.csv",
        "n_bits,sigma_unit,sigma_over_spec,mc_yield,trials",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: yield >= target (99.7 %) at 1.0x spec (the eq. (1) \
         bound is conservative), collapsing as sigma grows."
    )
    .expect("write");
    report
}

/// FIG5-LAYOUT — switching-scheme comparison under gradients, double
/// centroid ablation, and LEF/DEF emission.
pub fn switching_schemes() -> String {
    let grid = ArrayGrid::new(16, 16);
    let n_sources = 255;
    let mut report = String::new();
    writeln!(
        report,
        "== FIG5-LAYOUT: switching schemes under gradients =="
    )
    .expect("write");
    let gradients = canonical_gradients();
    writeln!(
        report,
        "{:<24} {}",
        "scheme",
        gradients
            .iter()
            .enumerate()
            .map(|(i, _)| format!("{:>10}", format!("grad{i}")))
            .collect::<String>()
    )
    .expect("write");
    let mut rows = Vec::new();
    for scheme in Scheme::ALL {
        let order = scheme.order(&grid, n_sources, 7);
        let mut line = format!("{:<24}", scheme.to_string());
        let mut csv = scheme.to_string();
        for g in &gradients {
            let inl = unary_inl_max(&order, &g.sample_grid(&grid)).unwrap_or(f64::NAN);
            line.push_str(&format!("{:>10.4}", inl));
            csv.push_str(&format!(",{inl}"));
        }
        writeln!(report, "{line}").expect("write");
        rows.push(csv);
    }
    write_csv(
        "switching_schemes.csv",
        "scheme,lin0,lin90,lin45,quad_centered,quad_offset",
        &rows,
    );

    // Converter-level INL yield with gradient + random mismatch combined,
    // per scheme (the end-to-end payoff of the switching sequence).
    let spec = DacSpec::paper_12bit();
    // A 0.3 % residual gradient (the double-centroid splitting absorbs most
    // of the raw 1 % die gradient) — at 12 bits even this sinks the naive
    // sequences while the optimised one keeps the INL budget.
    writeln!(
        report,
        "\nconverter INL<0.5 LSB yield (0.3% combined gradient + spec mismatch, 60 trials):"
    )
    .expect("write");
    let gradient = GradientModel::combined(0.003, 0.6, 0.003, (0.3, -0.2));
    for scheme in [
        Scheme::Sequential,
        Scheme::CentroSymmetric,
        Scheme::GradientOptimized,
    ] {
        let floorplan = Floorplan::paper_fig5(spec.unary_source_count(), 4, scheme, 7);
        let (bin_err, unary_err) = floorplan.systematic_errors(&gradient, 16.0);
        let dac = SegmentedDac::new(&spec);
        let mut rel = bin_err;
        rel.extend(unary_err);
        let systematic = CellErrors::from_rel(&dac, rel);
        let mut rng = seeded_rng(303);
        let trials = 60;
        let mut passes = 0;
        for _ in 0..trials {
            let combined =
                systematic.add(&CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng));
            let tf = ctsdac_dac::static_metrics::TransferFunction::compute_fast(&dac, &combined);
            if tf.inl_max_abs() < 0.5 {
                passes += 1;
            }
        }
        writeln!(report, "  {:<24} {passes}/{trials}", scheme.to_string()).expect("write");
    }

    // Double-centroid ablation: residual error spread with/without split.
    let positions: Vec<(f64, f64)> = (0..grid.n_sites()).map(|i| grid.coords(i)).collect();
    writeln!(report, "\ndouble-centroid ablation (max |residual error|):").expect("write");
    let mut dc_rows = Vec::new();
    for (name, g) in [
        ("linear 1%", GradientModel::linear(0.01, 0.6)),
        (
            "quad 1% off-centre",
            GradientModel::quadratic(0.01, (0.4, -0.3)),
        ),
    ] {
        let (split, unsplit) = array_errors_with_split(&g, &positions, 0.02);
        let max = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        writeln!(
            report,
            "  {name:<20}: unsplit = {:.5}, 16-subunit split = {:.7}",
            max(&unsplit),
            max(&split)
        )
        .expect("write");
        dc_rows.push(format!("{name},{},{}", max(&unsplit), max(&split)));
    }
    write_csv(
        "double_centroid.csv",
        "gradient,max_err_unsplit,max_err_split",
        &dc_rows,
    );

    // Emit the physical views.
    let floorplan = Floorplan::paper_fig5(n_sources, 4, Scheme::GradientOptimized, 7);
    let lef = write_lef("CSCELL", CellGeometry::default());
    let def = write_def("DAC12_CSARRAY", &floorplan, CellGeometry::default());
    std::fs::write(out_dir().join("cs_array.lef"), &lef).expect("write LEF");
    std::fs::write(out_dir().join("cs_array.def"), &def).expect("write DEF");
    writeln!(
        report,
        "\nemitted {} bytes LEF and {} bytes DEF to experiments/",
        lef.len(),
        def.len()
    )
    .expect("write");
    report
}

/// SEG-SWEEP — the §1 segmentation trade-off.
pub fn segmentation() -> String {
    let spec = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== SEG-SWEEP: segmentation trade-off ==").expect("write");
    let mut rows = Vec::new();
    for p in segmentation_sweep(&spec, 0.5, 0.6) {
        writeln!(report, "{p}").expect("write");
        rows.push(format!(
            "{},{},{},{},{}",
            p.binary_bits,
            p.analog_area,
            p.digital_area,
            p.glitch_rel,
            p.normalized_cost(spec.n_bits, 4.0)
        ));
    }
    write_csv(
        "segmentation.csv",
        "binary_bits,analog_area_m2,digital_area_m2,glitch_rel,cost",
        &rows,
    );
    let best = ctsdac_core::segmentation::optimal_segmentation(&spec, 0.5, 0.6);
    writeln!(
        report,
        "optimum at b = {} (paper picked b = 4, m = 8)",
        best.binary_bits
    )
    .expect("write");
    report
}

/// SFDR-BW — SFDR vs signal frequency from the frequency-dependent output
/// impedance (the van den Bosch \[8] analysis behind the topology choice).
pub fn sfdr_bandwidth() -> String {
    use ctsdac_circuit::distortion::sfdr_vs_frequency;
    use ctsdac_core::sizing::{build_cascoded_cell, build_simple_cell};
    let spec = DacSpec::paper_12bit();
    let simple = build_simple_cell(&spec, 0.5, 0.6, spec.unary_weight());
    let cascoded = build_cascoded_cell(&spec, 0.5, 0.3, 0.6, spec.unary_weight());
    let freqs: Vec<f64> = (0..=24).map(|i| 10f64.powf(4.0 + i as f64 * 0.2)).collect();
    let s_pts = sfdr_vs_frequency(&simple, &spec.env, spec.unary_weight(), spec.n_bits, &freqs)
        .expect("paper design is feasible");
    let c_pts = sfdr_vs_frequency(
        &cascoded,
        &spec.env,
        spec.unary_weight(),
        spec.n_bits,
        &freqs,
    )
    .expect("paper design is feasible");
    let mut report = String::new();
    writeln!(report, "== SFDR-BW: impedance-limited SFDR vs frequency ==").expect("write");
    writeln!(
        report,
        "{:>12} {:>10} {:>10} {:>10} {:>10}  (differential / single-ended, dB)",
        "f [Hz]", "simple_d", "casc_d", "simple_se", "casc_se"
    )
    .expect("write");
    let mut rows = Vec::new();
    for (s, c) in s_pts.iter().zip(&c_pts) {
        writeln!(
            report,
            "{:>12.3e} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            s.f_hz, s.sfdr_diff_db, c.sfdr_diff_db, s.sfdr_se_db, c.sfdr_se_db
        )
        .expect("write");
        rows.push(format!(
            "{},{},{},{},{}",
            s.f_hz, s.sfdr_diff_db, c.sfdr_diff_db, s.sfdr_se_db, c.sfdr_se_db
        ));
    }
    write_csv(
        "sfdr_bandwidth.csv",
        "f_hz,simple_diff_db,cascoded_diff_db,simple_se_db,cascoded_se_db",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: cascode dominates at DC/low frequency; both collapse \
         with the internal-node capacitance (-40 dB/dec differential), which is \
         why measured SFDR at 53 MHz sits far below the mismatch-limited value."
    )
    .expect("write");
    report
}

/// SAT-YIELD — Monte-Carlo validation of the statistical saturation
/// condition (eq. (8)/(9)). The past-the-line runs execute on the
/// supervised worker pool; every run is a function of its `McPlan`
/// alone, so the numbers are identical for every `jobs` value.
pub fn saturation_yield_jobs(jobs: usize) -> String {
    use ctsdac_core::validate::{
        saturation_yield_supervised, yield_on_constraint, MC_CHUNK_TRIALS,
    };
    let spec = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== SAT-YIELD: MC validation of eq. (9) ==").expect("write");
    let mut rows = Vec::new();
    // On the constraint line at several CS overdrives, inline.
    for vov_cs in [0.5, 0.8, 1.2] {
        let plan = McPlan::new(900 + (vov_cs * 10.0) as u64, 4000, MC_CHUNK_TRIALS)
            .expect("non-zero trials");
        if let Some(r) = yield_on_constraint(&spec, vov_cs, &plan) {
            writeln!(report, "on eq.(9) line at Vov_CS = {vov_cs:.1}: {r}").expect("write");
            rows.push(format!(
                "on_line,{vov_cs},{},{}",
                r.mc.estimate(),
                r.predicted
            ));
        }
    }
    // Past the line: yield collapse, on the supervised pool.
    let cond = SaturationCondition::Statistical;
    let vov_cs = 0.8;
    let limit = cond.max_vov_sw(&spec, vov_cs).expect("feasible");
    for frac in [0.3, 0.6, 0.9] {
        let vov_sw = limit + frac * (spec.env.v_out_min() - vov_cs - limit);
        let seed = 950 + (frac * 10.0) as u64;
        let plan = McPlan::new(seed, 4000, 500).expect("non-zero trials");
        let policy = ExecPolicy::with_jobs(jobs);
        let r = saturation_yield_supervised(&spec, vov_cs, vov_sw, &plan, &policy)
            .expect("nominally feasible past-the-line point")
            .value;
        writeln!(report, "beyond the line (Vov_SW = {vov_sw:.3}): {r}").expect("write");
        rows.push(format!(
            "beyond,{vov_sw},{},{}",
            r.mc.estimate(),
            r.predicted
        ));
    }
    write_csv(
        "saturation_yield.csv",
        "where,vov,mc_yield,predicted",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: >= 99.7 % on the constraint line, collapsing beyond \
         it; the Gaussian prediction tracks the MC estimate."
    )
    .expect("write");
    report
}

/// CAL-EXT — calibration extension: area vs trim trade-off.
pub fn calibration_tradeoff() -> String {
    use ctsdac_dac::calibration::{calibrate, residual_sigma_prediction, CalibrationConfig};
    use ctsdac_dac::static_metrics::TransferFunction;
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let mut report = String::new();
    writeln!(report, "== CAL-EXT: intrinsic accuracy vs calibration ==").expect("write");
    let mut rows = Vec::new();
    for oversize in [1.0, 2.0, 4.0, 8.0] {
        let sigma = spec.sigma_unit_spec() * oversize;
        let config = CalibrationConfig::new(6, 4.0 * sigma, sigma / 50.0);
        let mut rng = seeded_rng(777 + oversize as u64);
        let trials = 40;
        let mut pass_raw = 0;
        let mut pass_cal = 0;
        for _ in 0..trials {
            let raw = CellErrors::random(&dac, sigma, &mut rng);
            if TransferFunction::compute_fast(&dac, &raw).inl_max_abs() < 0.5 {
                pass_raw += 1;
            }
            let fixed = calibrate(&dac, &raw, &config, &mut rng);
            if TransferFunction::compute_fast(&dac, &fixed).inl_max_abs() < 0.5 {
                pass_cal += 1;
            }
        }
        writeln!(
            report,
            "sigma = {oversize:.0}x spec (area /{:.0}): raw yield {pass_raw}/{trials}, \
             calibrated {pass_cal}/{trials} (residual sigma {:.4} %)",
            oversize * oversize,
            residual_sigma_prediction(&config) * 100.0
        )
        .expect("write");
        rows.push(format!(
            "{oversize},{},{}",
            pass_raw as f64 / trials as f64,
            pass_cal as f64 / trials as f64
        ));
    }
    write_csv(
        "calibration.csv",
        "sigma_over_spec,raw_yield,calibrated_yield",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: intrinsic yield collapses as the array shrinks \
         (sigma grows); the 6-bit trim restores it — the area-vs-calibration \
         trade the self-calibrated-DAC literature exploits."
    )
    .expect("write");
    report
}

/// LATCH-XING — crossing-point design study of the latch/driver (§2).
pub fn latch_crossing() -> String {
    use ctsdac_core::sizing::build_simple_cell;
    use ctsdac_dac::latch::crossing_sweep;
    let spec = DacSpec::paper_12bit();
    let cell = build_simple_cell(&spec, 0.5, 0.4, spec.unary_weight());
    let opt =
        ctsdac_circuit::bias::OptimumBias::of(&cell, &spec.env).expect("paper design is feasible");
    let v_low = opt.v_node_b * 0.5;
    let v_high = opt.v_gate_sw;
    let sweep = crossing_sweep(&cell, &spec.env, v_low, v_high, 100e-12, 21)
        .expect("paper design is feasible");
    let mut report = String::new();
    writeln!(report, "== LATCH-XING: switch-drive crossing point ==").expect("write");
    writeln!(
        report,
        "driver {v_low:.2}-{v_high:.2} V, tr = 100 ps; total glitch charge vs crossing:"
    )
    .expect("write");
    let mut rows = Vec::new();
    for &(x, q) in &sweep {
        writeln!(report, "  crossing {:>5.2}: {:.3e} C", x, q).expect("write");
        rows.push(format!("{x},{q}"));
    }
    write_csv("latch_crossing.csv", "crossing,glitch_charge_c", &rows);
    let best = sweep
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    writeln!(
        report,
        "optimum crossing = {:.2} (interior, as §2 prescribes: low starves the \
         cell, high smears the switching instant)",
        best.0
    )
    .expect("write");
    report
}

/// IMD3 — two-tone intermodulation vs mismatch level.
pub fn two_tone_imd() -> String {
    use ctsdac_dac::sine::TwoToneTest;
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let test = TwoToneTest::new(4096, 50e6, 55e6, 0.45);
    let mut report = String::new();
    writeln!(report, "== IMD3: two-tone intermodulation vs mismatch ==").expect("write");
    let mut rows = Vec::new();
    for factor in [0.0, 1.0, 4.0, 16.0] {
        let sigma = spec.sigma_unit_spec() * factor;
        // Average the random-mismatch metrics over several seeds — a single
        // realisation's IMD3 bins are one sample of a random spectrum.
        let seeds: &[u64] = if factor == 0.0 {
            &[0]
        } else {
            &[1, 2, 3, 4, 5]
        };
        let mut imd_sum = 0.0;
        let mut spur_sum = 0.0;
        for &s in seeds {
            let mut rng = seeded_rng(600 + factor as u64 * 10 + s);
            let errors = if sigma > 0.0 {
                CellErrors::random(&dac, sigma, &mut rng)
            } else {
                CellErrors::ideal(&dac)
            };
            let (spectrum, imd) = test.run_static(&dac, &errors, 300e6);
            imd_sum += imd;
            // Worst spur anywhere except the two carriers.
            let (k1, k2) = test.coherent_bins(300e6);
            let p_carrier = spectrum.power()[k1].max(spectrum.power()[k2]);
            let worst = spectrum
                .power()
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(k, _)| k != k1 && k != k2)
                .map(|(_, &p)| p)
                .fold(0.0f64, f64::max);
            spur_sum += 10.0 * (worst / p_carrier).log10();
        }
        let imd = imd_sum / seeds.len() as f64;
        let spur = spur_sum / seeds.len() as f64;
        writeln!(
            report,
            "sigma = {factor:>4.0} x spec: mean IMD3 = {imd:>7.1} dBc, mean worst spur = {spur:>7.1} dBc"
        )
        .expect("write");
        rows.push(format!("{factor},{imd},{spur}"));
    }
    write_csv(
        "two_tone_imd.csv",
        "sigma_over_spec,imd3_dbc,worst_spur_dbc",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: quantisation-limited floor for the ideal converter; \
         the worst spur rises steadily with mismatch (mismatch spreads error \
         across the band rather than concentrating it at the IMD3 bins)."
    )
    .expect("write");
    report
}

/// DECODER — gate-level decoder cost vs width (supports the §1 segmentation
/// argument with measured gate counts instead of a calibrated constant).
pub fn decoder_cost() -> String {
    use ctsdac_dac::decoder::{flat_thermometer, row_column};
    let mut report = String::new();
    writeln!(report, "== DECODER: gate-level thermometer decoder cost ==").expect("write");
    writeln!(
        report,
        "{:>4} {:>12} {:>10} {:>12} {:>10}",
        "m", "flat gates", "flat depth", "rc gates", "rc depth"
    )
    .expect("write");
    let mut rows = Vec::new();
    for m in 2..=8u32 {
        let flat = flat_thermometer(m);
        let rc = row_column(m / 2, m - m / 2);
        writeln!(
            report,
            "{m:>4} {:>12} {:>10} {:>12} {:>10}",
            flat.gate_count(),
            flat.depth(),
            rc.gate_count(),
            rc.depth()
        )
        .expect("write");
        rows.push(format!(
            "{m},{},{},{},{}",
            flat.gate_count(),
            flat.depth(),
            rc.gate_count(),
            rc.depth()
        ));
    }
    write_csv(
        "decoder_cost.csv",
        "m,flat_gates,flat_depth,rc_gates,rc_depth",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: gate count ~doubles per added bit (the decoder-area \
         term of the segmentation trade-off); the 2-D decoder wins above m ~ 4."
    )
    .expect("write");
    report
}

/// GLITCH-SEG — worst carry glitch energy vs binary bits, measured with
/// the transient simulator (the §1 claim "glitch energy is determined by
/// the number of binary bits b").
pub fn glitch_segmentation() -> String {
    use ctsdac_dac::glitch::worst_carry_glitch;
    let base = DacSpec::paper_12bit();
    let poles = ctsdac_circuit::poles::TwoPoles {
        p1_hz: 968e6,
        p2_hz: 921e6,
    };
    let config = TransientConfig::from_poles(400e6, &poles)
        .with_oversample(64)
        .with_binary_skew(200e-12);
    let mut report = String::new();
    writeln!(
        report,
        "== GLITCH-SEG: carry glitch energy vs binary bits =="
    )
    .expect("write");
    writeln!(
        report,
        "{:>4} {:>16} {:>12}",
        "b", "energy [LSB^2*s]", "vs b-1"
    )
    .expect("write");
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for b in 2..=6u32 {
        let spec = DacSpec::new(12, b, 0.997, base.env, base.tech);
        let dac = SegmentedDac::new(&spec);
        let errors = CellErrors::ideal(&dac);
        let mut rng = seeded_rng(500 + b as u64);
        let (_, energy) = worst_carry_glitch(&dac, &errors, config, &mut rng);
        let ratio = prev.map_or(String::from("-"), |p| format!("{:.2}x", energy / p));
        writeln!(report, "{b:>4} {energy:>16.3e} {ratio:>12}").expect("write");
        rows.push(format!("{b},{energy}"));
        prev = Some(energy);
    }
    write_csv(
        "glitch_segmentation.csv",
        "binary_bits,energy_lsb2_s",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: the transient code error at the carry is ~2^b LSB \
         for a fixed skew, so the *energy* grows ~4x per added binary bit — \
         the quantitative form of the paper's glitch argument for unary-heavy \
         segmentation."
    )
    .expect("write");
    report
}

/// PARETO — the admissible area–speed front (the menu Fig. 3 implies).
pub fn pareto() -> String {
    let spec = DacSpec::paper_12bit();
    let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(28);
    let front = space.pareto_front();
    let mut report = String::new();
    writeln!(
        report,
        "== PARETO: area-speed front of the admissible region =="
    )
    .expect("write");
    writeln!(
        report,
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "Vov_CS", "Vov_SW", "area [kum2]", "f_min [MHz]", "ts [ns]"
    )
    .expect("write");
    let mut rows = Vec::new();
    for p in &front {
        writeln!(
            report,
            "{:>10.3} {:>10.3} {:>12.1} {:>12.1} {:>10.2}",
            p.vov_cs,
            p.vov_sw,
            p.total_area * 1e12 / 1e3,
            p.min_pole_hz / 1e6,
            p.settling_s * 1e9
        )
        .expect("write");
        rows.push(format!(
            "{},{},{},{},{}",
            p.vov_cs, p.vov_sw, p.total_area, p.min_pole_hz, p.settling_s
        ));
    }
    write_csv(
        "pareto.csv",
        "vov_cs,vov_sw,total_area_m2,min_pole_hz,settling_s",
        &rows,
    );
    writeln!(
        report,
        "{} non-dominated points; the 400 MS/s design needs ts <= 2.5 ns, \
         which prunes the small-area end of the menu.",
        front.len()
    )
    .expect("write");
    report
}

/// SENS — technology-sensitivity sweep: when does the statistical
/// condition pay off?
pub fn sensitivity() -> String {
    use ctsdac_core::sensitivity::{sweep_a_vt, sweep_sigma_rl, sweep_yield};
    let base = DacSpec::paper_12bit();
    let mut report = String::new();
    writeln!(report, "== SENS: sensitivity of the area saving ==").expect("write");
    let mut rows = Vec::new();
    writeln!(report, "A_VT sweep (mV.um):").expect("write");
    for p in sweep_a_vt(&base, &[5e-9, 9.5e-9, 20e-9, 30e-9], 14) {
        writeln!(
            report,
            "  A_VT = {:>5.1}: margin(0.5/0.6) = {:>4.0} mV, saving = {:>5.1} %",
            p.value * 1e9,
            p.margin * 1e3,
            p.saving * 100.0
        )
        .expect("write");
        rows.push(format!("a_vt,{},{},{}", p.value, p.margin, p.saving));
    }
    writeln!(report, "load tolerance sweep:").expect("write");
    for p in sweep_sigma_rl(&base, &[0.0, 0.01, 0.03, 0.05], 14) {
        writeln!(
            report,
            "  sigma_RL = {:>4.1} %: margin = {:>4.0} mV, saving = {:>5.1} %",
            p.value * 100.0,
            p.margin * 1e3,
            p.saving * 100.0
        )
        .expect("write");
        rows.push(format!("sigma_rl,{},{},{}", p.value, p.margin, p.saving));
    }
    writeln!(report, "yield-target sweep:").expect("write");
    for p in sweep_yield(&base, &[0.90, 0.997, 0.9999], 14) {
        writeln!(
            report,
            "  yield = {:>7.4}: margin = {:>4.0} mV, saving = {:>5.1} %",
            p.value,
            p.margin * 1e3,
            p.saving * 100.0
        )
        .expect("write");
        rows.push(format!("yield,{},{},{}", p.value, p.margin, p.saving));
    }
    write_csv("sensitivity.csv", "sweep,value,margin_v,saving_frac", &rows);
    writeln!(
        report,
        "Finding: the saving *grows* with A_VT — in poorly matched technologies \
         the CS area is most sensitive to the admissible overdrive, so removing \
         the arbitrary margin pays off more."
    )
    .expect("write");
    report
}

/// JITTER-EXT — SNR vs clock jitter (ref. \[6] extension).
pub fn jitter_sweep() -> String {
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let poles = ctsdac_circuit::poles::TwoPoles {
        p1_hz: 2e9,
        p2_hz: 6e9,
    };
    let config = TransientConfig::from_poles(300e6, &poles);
    let test = SineTest::new(2048, 53e6, 0.98);
    let (_, f0) = test.coherent(config.fs);
    let mut report = String::new();
    writeln!(report, "== JITTER-EXT: SNR vs clock jitter ==").expect("write");
    writeln!(
        report,
        "{:>12} {:>12} {:>12}",
        "jitter [ps]", "theory [dB]", "measured [dB]"
    )
    .expect("write");
    let mut rows = Vec::new();
    for &ps in &[0.1, 0.3, 1.0, 3.0, 10.0, 30.0] {
        let sigma_t = ps * 1e-12;
        let theory = jitter_snr_theory_db(f0, sigma_t);
        let mut rng = seeded_rng(42 + ps as u64);
        let measured = jitter_snr_measured_db(&dac, &test, config, sigma_t, &mut rng);
        writeln!(report, "{ps:>12.1} {theory:>12.1} {measured:>12.1}").expect("write");
        rows.push(format!("{sigma_t},{theory},{measured}"));
    }
    write_csv(
        "jitter_sweep.csv",
        "sigma_t_s,snr_theory_db,snr_measured_db",
        &rows,
    );
    writeln!(
        report,
        "Expected shape: measured saturates at the quantisation floor (~74 dB) \
         for small jitter and follows the -20 dB/decade theory once jitter dominates."
    )
    .expect("write");
    report
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn experiment_ids_are_unique_and_indexed_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(other, _)| other != id),
                "duplicate experiment ID {id}"
            );
            assert!(
                design.contains(&format!("\n| {id} |")),
                "{id} has no row in DESIGN.md's experiment index"
            );
        }
    }
}
