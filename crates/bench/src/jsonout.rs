//! Machine-readable figure output: the figure binaries accept
//! `--json FILE` and, when given, write their data points as a JSON
//! document alongside the human-readable table on stdout — so plots
//! and regression checks consume structured data instead of scraping
//! text.

use std::fs;
use std::path::Path;

use serde::Serialize;

/// Parses the common harness flag `--json FILE`: the path the binary
/// should write its machine-readable data points to, if any.
/// `run_all_experiments.sh` passes `--json FILE` to every experiment,
/// so binaries with no JSON form call this too, for its check alone.
///
/// # Panics
///
/// Panics when `--json` is the last argument or is followed by an
/// empty one, rather than silently writing no JSON.
pub fn json_out_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args
                .next()
                .unwrap_or_else(|| panic!("--json needs a FILE argument"));
            assert!(
                !path.trim().is_empty(),
                "--json needs a non-empty FILE argument"
            );
            return Some(path);
        }
    }
    None
}

/// Serializes `value` as pretty-printed JSON into `path`, creating
/// parent directories as needed.
///
/// # Panics
///
/// Panics when the file cannot be written — in the harness a missing
/// output directory is an operator error worth stopping for.
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    let text = serde_json::to_string_pretty(value).expect("figure data serializes infallibly");
    fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Point {
        name: String,
        value: f64,
    }

    #[test]
    fn write_json_creates_parents_and_roundtrips() {
        let dir = std::env::temp_dir().join("tia-bench-jsonout-test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        let path_text = path.to_str().expect("utf-8 temp path");
        write_json(
            path_text,
            &vec![Point {
                name: "cpi".to_string(),
                value: 1.5,
            }],
        );
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&path).expect("written")).expect("valid");
        let first = &doc.as_array().expect("array")[0];
        assert_eq!(
            first.get("name").and_then(|v| v.as_str()),
            Some("cpi"),
            "field survives the roundtrip"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
