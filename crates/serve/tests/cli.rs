//! The `skyline-serve` command line: an out-of-range flag value ends the
//! process with a usage error on stderr, not a panic.

use std::process::Command;

#[test]
fn zero_cache_capacity_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_skyline-serve"))
        .args(["--cache-capacity", "0"])
        .output()
        .expect("skyline-serve starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        stderr.contains("--cache-capacity must be at least 1"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
