//! The engine CLI, run as built: arguments it cannot run are a one-line
//! usage error and exit code 2, never a panic, and what it writes keeps
//! the report's identities and rows.

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
    // The second sweep runs the verdict memo too: every row's
    // divergence is gated, and its counters printed, at its multiplier.
    for memo in [false, true] {
        let out = format!("{}/fault_sweep_{memo}.json", env!("CARGO_TARGET_TMPDIR"));
        let mut args = vec![
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
        ];
        if memo {
            args.push("--memo");
        }
        let run = Command::new(env!("CARGO_BIN_EXE_unroller-engine"))
            .args(&args)
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
            if memo {
                assert!(
                    report.contains("\"divergence\": 0"),
                    "row {row}: memo diverged or missing"
                );
            }
        }
        assert!(!sweep.contains("accounted\": false"), "{sweep}");
        let memo_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("memo:")).collect();
        let expected: &[&str] = if memo {
            &[" at multiplier 0", " at multiplier 1"]
        } else {
            &[]
        };
        assert_eq!(memo_lines.len(), expected.len(), "{stderr}");
        for (line, context) in memo_lines.iter().zip(expected) {
            assert!(line.ends_with(context), "{line}");
        }
    }
}

/// The array `key` holds in compactly rendered JSON, brackets included.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let open = json.find(&format!("\"{key}\":[")).expect(key) + key.len() + 3;
    let mut depth = 0;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unclosed {key} array in {json}");
}

#[test]
fn live_snapshots_print_the_report_rows() {
    let out = format!("{}/live_snapshots.json", env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_unroller-engine"))
        .args([
            "--policy",
            "block",
            "--packets",
            "20000",
            "--snapshot-ms",
            "1",
            "--out",
            &out,
        ])
        .output()
        .expect("spawn unroller-engine");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    let live: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    let last = live.last().expect("at least one live snapshot line");
    for line in &live {
        for key in ["\"wall_ns\":", "\"rings\":[", "\"shard_metrics\":["] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }
    // The report is the pretty rendering of the same rows: without its
    // whitespace it reads as a live line does.
    let report: String = std::fs::read_to_string(&out)
        .expect("the run wrote its report")
        .split_whitespace()
        .collect();
    let packets = |rows: &str| -> Vec<u64> {
        rows.split("{\"packets\":")
            .skip(1)
            .map(|row| {
                row[..row.find(',').expect("more keys")]
                    .parse()
                    .expect("a count")
            })
            .collect()
    };
    let shards = packets(array(&report, "shard_metrics"));
    assert_eq!(shards.iter().sum::<u64>(), 20_000, "{report}");
    assert_eq!(packets(array(last, "shard_metrics")), shards);
    for key in ["shard_metrics", "rings"] {
        assert_eq!(array(last, key), array(&report, key), "{key}");
    }
}
