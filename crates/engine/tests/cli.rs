//! The engine CLI turns arguments it cannot run into a one-line usage
//! error and exit code 2, never a panic.

use std::process::Command;

#[test]
fn zero_flows_is_a_usage_error_not_a_panic() {
    for args in [
        &["--flows", "0"][..],
        &["--flows", "0", "--churn", "rate=400,seed=7,links=3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_unroller-engine"))
            .args(args)
            .output()
            .expect("spawn unroller-engine");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
