//! Regenerates the **§1 pipelining tradeoff** illustration: "once a
//! pipeline has reduced the critical path of a circuit, additional
//! opportunity to trade energy and delay appears. One could maintain
//! nominal supply voltage and increase clock frequency, maintain the
//! original clock frequency and reduce supply voltage, or apply some
//! combination in the middle."
//!
//! Starting from the single-cycle TDX at its maximum nominal-voltage
//! frequency, this harness shows where pipelining's headroom can be
//! spent on the paper's best balanced pipeline (T|DX +P+Q).

use tia_bench::{activity_of, scale_from_args, suite_keys, RunStore, Table};
use tia_core::{Pipeline, UarchConfig};
use tia_energy::dse::evaluate;
use tia_energy::max_frequency_mhz;
use tia_energy::tech::VtClass;
use tia_workloads::ALL_WORKLOADS;

fn main() {
    let scale = scale_from_args();
    let vt = VtClass::Standard;

    let baseline_config = UarchConfig::base(Pipeline::TDX);
    let config = UarchConfig::with_pq(Pipeline::T_DX);
    let store = RunStore::from_args(scale);
    let runs = store.runs(&suite_keys(&[baseline_config, config]));
    store.report();
    let (baseline_runs, runs) = runs.split_at(ALL_WORKLOADS.len());
    let (baseline_activity, activity) = (activity_of(baseline_runs), activity_of(runs));

    let f_tdx = (max_frequency_mhz(&baseline_config, 1.0, vt) / 10.0).floor() * 10.0;
    let baseline = evaluate(&baseline_config, vt, 1.0, f_tdx, baseline_activity)
        .expect("baseline closes at its own fmax");

    let f_max = (max_frequency_mhz(&config, 1.0, vt) / 10.0).floor() * 10.0;

    let mut t = Table::new(&[
        "mode",
        "design",
        "Vdd",
        "MHz",
        "ns/inst",
        "pJ/inst",
        "delay vs TDX",
        "energy vs TDX",
    ]);
    let mut row = |mode: &str, design: &UarchConfig, vdd: f64, f: f64, a| {
        if let Some(p) = evaluate(design, vt, vdd, f, a) {
            t.row_owned(vec![
                mode.to_string(),
                design.to_string(),
                format!("{vdd:.2}"),
                format!("{f:.0}"),
                format!("{:.2}", p.ns_per_inst),
                format!("{:.2}", p.pj_per_inst),
                format!(
                    "{:+.0}%",
                    100.0 * (p.ns_per_inst / baseline.ns_per_inst - 1.0)
                ),
                format!(
                    "{:+.0}%",
                    100.0 * (p.pj_per_inst / baseline.pj_per_inst - 1.0)
                ),
            ]);
        }
    };

    row(
        "single-cycle reference",
        &baseline_config,
        1.0,
        f_tdx,
        baseline_activity,
    );
    // Mode 1: keep nominal VDD, raise the clock to the new limit.
    row("iso-VDD, max frequency", &config, 1.0, f_max, activity);
    // Mode 2: keep the single-cycle frequency, drop the voltage as far
    // as timing still closes.
    let mut vdd = 1.0;
    while vdd > 0.55 && max_frequency_mhz(&config, vdd - 0.05, vt) >= f_tdx {
        vdd -= 0.05;
    }
    row("iso-frequency, min VDD", &config, vdd, f_tdx, activity);
    // Mode 3: the middle — split the headroom.
    let f_mid = (f_tdx + f_max) / 2.0;
    let mut vdd_mid = 1.0;
    while vdd_mid > 0.55 && max_frequency_mhz(&config, vdd_mid - 0.05, vt) >= f_mid {
        vdd_mid -= 0.05;
    }
    row("combined", &config, vdd_mid, f_mid, activity);

    println!("§1 tradeoff modes: spending the pipeline's timing headroom.\n");
    print!("{}", t.render());
    println!();
    println!("(all SVT; the single-cycle reference runs at its own nominal-voltage");
    println!(" frequency limit. Pipelining buys either throughput at iso-VDD or");
    println!(" energy at iso-frequency — the §1 framing that motivates the paper's");
    println!(" joint microarchitecture x voltage design-space exploration.)");
}
