//! The `pivot-relay` binary's command line: a flag it cannot use ends in
//! the usage line and exit status 2, never a panic.

use std::process::Command;

#[test]
fn bad_flags_print_usage_and_exit_2() {
    for bad in [
        &["--upstream", "127.0.0.1:9", "--procid", "abc"][..],
        &["--upstream", "127.0.0.1:9", "--flush-ms", "x"],
        &["--upstream", "not-an-address"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pivot-relay"))
            .args(bad)
            .output()
            .expect("pivot-relay runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }
}
