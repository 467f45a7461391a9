//! Command-line contract of the `experiments` runner.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_2_and_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("FIG99-NOPE")
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'FIG99-NOPE'"),
        "{stderr}"
    );
    for (id, _) in ctsdac_bench::EXPERIMENTS {
        assert!(stderr.contains(id), "{id} missing from: {stderr}");
    }
}

#[test]
fn missing_ids_and_bad_jobs_exit_2() {
    for args in [&[][..], &["--jobs", "0", "all"][..], &["--jobs"][..]] {
        let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments")
            .status;
        assert_eq!(status.code(), Some(2), "args {args:?}");
    }
}
