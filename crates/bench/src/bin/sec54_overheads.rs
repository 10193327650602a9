//! Regenerates the **§5.4 overhead analysis**: area, power and timing
//! costs of the two optimizations on the deepest pipeline
//! (T|D|X1|X2 at 500 MHz / 1.0 V), against the WaveScalar-style
//! output-queue padding alternative.

use tia_bench::{json_out_from_args, Table};
use tia_core::{Pipeline, UarchConfig};
use tia_energy::area_power::{
    base_area_um2, dynamic_energy_per_cycle_pj, reject_buffer_cost, DEEP_BASE_AREA_UM2,
    DEEP_BASE_POWER_MW,
};
use tia_energy::critical_path::critical_path_fo4;
use tia_energy::tech::{fo4_delay_ps, VtClass};

fn power_at_500mhz(config: &UarchConfig) -> f64 {
    dynamic_energy_per_cycle_pj(config) * 500.0 / 1e3 + 0.1
}

fn main() {
    json_out_from_args();
    let deep = Pipeline::T_D_X1_X2;
    let configs = [
        ("baseline", UarchConfig::base(deep)),
        ("+P", UarchConfig::with_p(deep)),
        ("+Q", UarchConfig::with_q(deep)),
        ("+P+Q", UarchConfig::with_pq(deep)),
    ];
    let base_area = base_area_um2(&configs[0].1);
    let base_power = power_at_500mhz(&configs[0].1);
    let base_fo4 = critical_path_fo4(&configs[0].1);

    println!("§5.4 overheads on T|D|X1|X2 at 500 MHz / 1.0 V / SVT.\n");
    let mut t = Table::new(&[
        "configuration",
        "area µm²",
        "Δ area",
        "power mW",
        "Δ power",
        "critical path FO4",
        "max MHz",
    ]);
    for (name, config) in configs {
        let area = base_area_um2(&config);
        let power = power_at_500mhz(&config);
        let fo4 = critical_path_fo4(&config);
        let fmax = 1e6 / (fo4 * fo4_delay_ps(1.0, VtClass::Standard));
        t.row_owned(vec![
            name.to_string(),
            format!("{area:.1}"),
            format!("{:+.1}%", 100.0 * (area / base_area - 1.0)),
            format!("{power:.3}"),
            format!("{:+.1}%", 100.0 * (power / base_power - 1.0)),
            format!("{fo4:.1}"),
            format!("{fmax:.0}"),
        ]);
    }
    let (pad_area, pad_power_factor) = reject_buffer_cost();
    t.row_owned(vec![
        "output-queue padding".to_string(),
        format!("{pad_area:.1}"),
        format!("{:+.1}%", 100.0 * (pad_area / DEEP_BASE_AREA_UM2 - 1.0)),
        format!("{:.3}", DEEP_BASE_POWER_MW * pad_power_factor),
        format!("{:+.1}%", 100.0 * (pad_power_factor - 1.0)),
        format!("{base_fo4:.1}"),
        "-".to_string(),
    ]);
    print!("{}", t.render());
    println!();
    println!("paper anchors: baseline 63,991.4 µm² / 2.852 mW; +P 64,278.4 µm² (+0.5%) /");
    println!("3.048 mW (+7%); +Q 64,131.8 µm² / no measurable power change; both");
    println!("64,895.4 µm² (+1.4%) / 3.077 mW (+8%); padding 72,439.4 µm² (+13%) /");
    println!("3.194 mW (+12%). Timing: 53.6 FO4 (1184 MHz) -> 64.3 FO4 with speculation.");
    println!("Each pipeline register adds 0.301 mW at 500 MHz / 1.0 V.");
}
