//! Regenerates **Table 1**: architectural and microarchitectural
//! parameters.

use tia_bench::{json_out_from_args, Table};
use tia_isa::{Params, NUM_DSTS, NUM_OPS, NUM_SRCS};

fn main() {
    json_out_from_args();
    let p = Params::default();
    let mut t = Table::new(&["Parameter", "Description", "Value"]);
    t.row_owned(vec![
        "NRegs".into(),
        "Number of registers".into(),
        p.num_regs.to_string(),
    ]);
    t.row_owned(vec![
        "NIQueues".into(),
        "Number of input queues".into(),
        p.num_input_queues.to_string(),
    ]);
    t.row_owned(vec![
        "NOQueues".into(),
        "Number of output queues".into(),
        p.num_output_queues.to_string(),
    ]);
    t.row_owned(vec![
        "MaxCheck".into(),
        "Max queues checked per trigger".into(),
        p.max_check.to_string(),
    ]);
    t.row_owned(vec![
        "MaxDeq".into(),
        "Max dequeues allowed / ins".into(),
        p.max_deq.to_string(),
    ]);
    t.row_owned(vec![
        "NPreds".into(),
        "Number of predicates".into(),
        p.num_preds.to_string(),
    ]);
    t.row_owned(vec![
        "Word".into(),
        "Word width".into(),
        p.word_width.to_string(),
    ]);
    t.row_owned(vec![
        "TagWidth".into(),
        "Queue tag width".into(),
        p.tag_width.to_string(),
    ]);
    t.row_owned(vec![
        "NIns".into(),
        "Number of instructions per PE".into(),
        p.num_instructions.to_string(),
    ]);
    t.row_owned(vec![
        "NOps*".into(),
        "Number of operations".into(),
        NUM_OPS.to_string(),
    ]);
    t.row_owned(vec![
        "NSrcs*".into(),
        "Number of source operands / ins".into(),
        NUM_SRCS.to_string(),
    ]);
    t.row_owned(vec![
        "NDsts*".into(),
        "Number of destinations / ins".into(),
        NUM_DSTS.to_string(),
    ]);
    println!("Table 1: architectural and microarchitectural parameters.");
    println!("(Starred entries are fixed by the ISA rather than the parameter file.)");
    println!("Note: the paper's table lists MaxCheck = 4, but its Table 2 widths and");
    println!("106-bit total require MaxCheck = 2, matching the prose; we use 2.\n");
    print!("{}", t.render());
}
