//! The suite workloads run exactly the experiments of
//! `run_all_experiments.sh`: its `BINS`, then `dse_export` and
//! `dump_workload_asm`.

use tia_benchmark::suite::EXPERIMENTS;

#[test]
fn experiment_list_matches_run_all_experiments() {
    let script = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../run_all_experiments.sh"
    ))
    .expect("run_all_experiments.sh is readable");
    let bins = script
        .split_once("BINS=(")
        .and_then(|(_, rest)| rest.split_once(')'))
        .expect("the script defines BINS=( ... )")
        .0;
    let mut expected: Vec<&str> = bins.split_whitespace().collect();
    // `names+=("$bin")` records BINS; the literal append adds the rest.
    for appended in script.split("names+=(").skip(1) {
        let (names, _) = appended.split_once(')').expect("a closed append");
        if !names.contains('$') {
            expected.extend(names.split_whitespace());
        }
    }

    let ours: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(ours, expected);
}
