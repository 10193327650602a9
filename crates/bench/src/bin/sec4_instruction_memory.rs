//! Regenerates the **§4 instruction-storage study**: register, latch
//! and mixed register/latch-SRAM instruction memories.

use tia_bench::{Args, Table};
use tia_energy::area_power::{Component, InstMemMedium, TDX_AREA_UM2, TDX_POWER_MW};

fn main() {
    Args::from_env(&[]);
    let base_area = TDX_AREA_UM2 * Component::InstructionMemory.area_fraction();
    let base_power = TDX_POWER_MW * Component::InstructionMemory.power_fraction();

    let mut t = Table::new(&[
        "medium",
        "area µm²",
        "vs register",
        "power mW",
        "vs register",
        "trigger delay",
    ]);
    for (name, medium) in [
        ("clock-gated registers", InstMemMedium::Register),
        ("latches", InstMemMedium::Latch),
        ("mixed reg/latch-SRAM", InstMemMedium::MixedSram),
    ] {
        let (a, p, d) = medium.factors();
        t.row_owned(vec![
            name.to_string(),
            format!("{:.0}", base_area * a),
            format!("{:+.0}%", 100.0 * (a - 1.0)),
            format!("{:.3}", base_power * p),
            format!("{:+.0}%", 100.0 * (p - 1.0)),
            format!("{:.2}x", d),
        ]);
    }
    println!("§4: instruction storage media for the 16-entry combinational");
    println!("instruction memory (25% of PE area, 41% of PE power in the");
    println!("register-based single-cycle baseline).\n");
    print!("{}", t.render());
    println!();
    println!("paper: mixed storage saves 16% area / 24% power vs register-only and");
    println!("9% / 19% vs latch-only (CACTI-based); latches alone save >30% area and");
    println!("75% power but 'increased the critical path of the trigger resolver and");
    println!("the rate of failure in gate-level post-synthesis validation', so the");
    println!("paper (and this model) keeps clock-gated registers for all pipelines.");
}
