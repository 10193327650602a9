//! Regenerates the **§3 characterization grid**: the maximum closing
//! frequency of every pipeline at every (library, voltage) pair — the
//! table the paper's standard-cell characterization sweep implies
//! ("characterized ... at 0.6V, 0.7V, 0.8V, 0.9V, and 1.0V, and target
//! frequencies of 100MHz to 1.5GHz"; LVT/HVT at 0.4–1.0 V with
//! near-threshold refinement).

use tia_bench::{Args, Table};
use tia_core::{Pipeline, UarchConfig};
use tia_energy::critical_path::{critical_path_fo4, max_frequency_mhz};
use tia_energy::tech::VtClass;

fn main() {
    Args::from_env(&[]);
    for vt in VtClass::ALL {
        println!(
            "{} library (Vth = {:.2} V): maximum closing frequency in MHz",
            vt,
            vt.threshold()
        );
        let voltages = vt.characterized_voltages();
        let mut header: Vec<String> = vec!["pipeline".into(), "FO4 (+P)".into()];
        header.extend(voltages.iter().map(|v| format!("{v:.1} V")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for pipeline in Pipeline::ALL {
            let base = UarchConfig::base(pipeline);
            let spec = UarchConfig::with_p(pipeline);
            let mut cells = vec![
                pipeline.to_string(),
                format!(
                    "{:.1} ({:.1})",
                    critical_path_fo4(&base),
                    critical_path_fo4(&spec)
                ),
            ];
            for &vdd in voltages {
                cells.push(format!("{:.0}", max_frequency_mhz(&base, vdd, vt)));
            }
            t.row_owned(cells);
        }
        print!("{}", t.render());
        println!();
    }
    println!("(paper anchors: T|D|X1|X2 at SVT 1.0 V closes at 1184 MHz with a");
    println!(" 53.6 FO4 trigger stage, 64.3 FO4 with speculation; 'the trigger");
    println!(" stage largely sets the pipeline balance ... in the 50-60 FO4 range';");
    println!(" subthreshold high-VT designs close in the 10-100 MHz band.)");
}
