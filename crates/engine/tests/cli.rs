//! The engine CLI turns arguments it cannot run into a one-line usage
//! error and exit code 2, never a panic.

use std::process::Command;

/// Runs the engine on `args` and requires exit 2 with one stderr line
/// and no panic.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_unroller-engine"))
        .args(args)
        .output()
        .expect("spawn unroller-engine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn zero_flows_is_a_usage_error_not_a_panic() {
    for args in [
        &["--flows", "0"][..],
        &["--flows", "0", "--churn", "rate=400,seed=7,links=3"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn topologies_too_small_to_run_are_usage_errors_not_panics() {
    for args in [
        // No link avoids the destination, so no loop can be injected.
        &["--topology", "grid:1x1"][..],
        &["--topology", "grid:1x2"],
        &["--topology", "random:2"],
        // Generated traffic needs two endpoints.
        &["--topology", "grid:1x1", "--no-loop"],
        // Churn needs a third node to reroute through.
        &["--topology", "grid:1x2", "--churn", "rate=5"],
        &["--topology", "random:2", "--churn", "rate=5"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn fault_sweep_rows_keep_every_accounting_identity() {
    let out = format!("{}/fault_sweep.json", env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_unroller-engine"))
        .args([
            "--shards",
            "2",
            "--policy",
            "block",
            "--packets",
            "20000",
            "--faults",
            "seed=11,panic=0.0005,bitflip=0.002,evdrop=0.05,evdup=0.05",
            "--fault-sweep",
            "0,1",
            "--out",
            &out,
        ])
        .output()
        .expect("spawn unroller-engine");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    let sweep = std::fs::read_to_string(&out).expect("the sweep wrote its JSON");
    // Each row ends with its `report` object, so the text after each
    // `"report": {` opens one row's report.
    let reports: Vec<&str> = sweep.split("\"report\": {").skip(1).collect();
    assert_eq!(reports.len(), 2, "one report per multiplier");
    for (row, report) in reports.iter().enumerate() {
        for identity in ["accounted", "events_accounted", "outcomes_accounted"] {
            assert!(
                report.contains(&format!("\"{identity}\": true")),
                "row {row}: {identity} missing or false"
            );
        }
    }
    assert!(!sweep.contains("accounted\": false"), "{sweep}");
}
