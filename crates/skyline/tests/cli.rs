//! The `skyline` command line: a failure ends the process with status 1
//! and the error's message on stderr, not its debug form.

use std::process::{Command, Output};

fn skyline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skyline"))
        .args(args)
        .output()
        .expect("skyline starts")
}

#[test]
fn an_unknown_component_is_reported_by_its_message() {
    let out = skyline(&[
        "--airframe",
        "AscTec Pelican",
        "--sensor",
        "RGB-D 60FPS",
        "--compute",
        "Nope",
        "--algorithm",
        "DroNet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "skyline: component error: unknown compute platform: \"Nope\"\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn a_bad_flag_value_is_reported_by_its_message() {
    let out = skyline(&["--dse", "--dse-top", "banana"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr, "skyline: bad --dse-top count \"banana\"\n");
}
