//! The harness flags fail loudly at the binary boundary: a `--json`
//! with no FILE after it is an error, not a run that quietly writes no
//! JSON, and a misspelt flag is a usage error, not a run with defaults.

use std::process::Command;

#[test]
fn a_dangling_json_flag_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_params"))
        .args(["--test-scale", "--json"])
        .output()
        .expect("spawn table1_params");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "table1_params accepted a dangling --json:\n{stderr}"
    );
    assert!(
        stderr.contains("--json needs a FILE argument"),
        "stderr does not name --json:\n{stderr}"
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_params"))
        .arg("--tset-scale")
        .output()
        .expect("spawn table1_params");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "a usage error runs nothing");
    assert_eq!(stderr.lines().count(), 1, "one usage line:\n{stderr}");
    assert!(
        stderr.contains("`--tset-scale`") && stderr.contains("usage: table1_params"),
        "stderr names the argument and the usage:\n{stderr}"
    );
}
