//! Regenerates **Table 2**: instruction fields and their widths under
//! the default parameter assignment.

use tia_bench::{Args, Table};
use tia_isa::Params;

fn main() {
    Args::from_env(&[]);
    let params = Params::default();
    let layout = params.layout();
    let mut t = Table::new(&["Field", "Description", "Width", "Offset"]);
    for f in layout.fields() {
        t.row_owned(vec![
            f.name.to_string(),
            f.description.to_string(),
            f.width.to_string(),
            f.offset.to_string(),
        ]);
    }
    println!("Table 2: instruction fields for the ISA encoding.\n");
    print!("{}", t.render());
    println!();
    println!(
        "Total encoded width: {} bits (paper: 106); host-padded: {} bits (paper: 128).",
        layout.total_bits(),
        layout.padded_bits()
    );
}
