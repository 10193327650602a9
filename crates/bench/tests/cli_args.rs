//! The harness flags fail loudly at the binary boundary: a `--json`
//! with no FILE after it is an error, not a run that quietly writes no
//! JSON.

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
