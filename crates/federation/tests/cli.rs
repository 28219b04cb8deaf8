//! The federation CLI turns a scenario it cannot run into a one-line
//! error and exit code 2, never a panic.

use std::process::Command;

#[test]
fn unrunnable_scenarios_exit_2_without_panicking() {
    // The default topology, fat-tree:4, has 20 nodes.
    for args in [
        &["--domains", "0"][..],
        &["--domains", "1"],
        &["--domains", "99"],
        &["--topology", "ring:2"],
        &["--flows", "0"],
        &["--shards", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_unroller-federation"))
            .args(args)
            .output()
            .expect("spawn unroller-federation");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
