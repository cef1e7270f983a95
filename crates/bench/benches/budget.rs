//! Re-derives the paper's **Section 4 microsecond budget** for a null RPC
//! and a null group send directly from a virtual-time trace: run one traced
//! operation on each stack, window the trace on the caller's span, and sum
//! every charged nanosecond by cost-model term.
//!
//! Cross-check against `cargo bench -p bench --bench ablation`, which
//! obtains the same budget indirectly by zeroing cost terms.
//!
//! Run with `cargo bench -p bench --bench budget`.

use amoeba::CostModel;
use bench::{
    budget_total, derive_budget, format_budget, group_span, group_trace, rpc_span, rpc_trace,
    RpcTraceRun, Which,
};
use desim::SimTime;

fn print_budget(op: &str, label: &str, run: &RpcTraceRun, (from, to): (SimTime, SimTime)) {
    let lines = derive_budget(&run.events, from, to);
    println!("{op} budget, {label} stack (from trace):");
    print!("{}", format_budget(&lines, run.latency));
    println!(
        "  latency {:.1} us, accounted {:.1} us\n",
        run.latency.as_micros_f64(),
        budget_total(&lines).as_micros_f64()
    );
}

fn main() {
    let cost = CostModel::default();
    for (label, which) in [("kernel-space", Which::Kernel), ("user-space", Which::User)] {
        let run = rpc_trace(0, which, &cost, 1);
        let span = rpc_span(&run.events).expect("span present");
        print_budget("null RPC", label, &run, span);
        let run = group_trace(0, which, &cost, 1);
        let span = group_span(&run.events).expect("span present");
        print_budget("null group send", label, &run, span);
    }
    println!(
        "(The kernel stack accounts for >100% of the span: the 3-way\n\
         protocol's explicit acknowledgement and the server re-arming\n\
         get_request overlap the client's return, so their charges fall\n\
         inside the window but off the critical path. The user-space group\n\
         send also counts the sequencer's thread dispatch twice, as\n\
         group/sequencer_dispatch and as sched/switch.)\n"
    );
    println!(
        "(paper, Section 4.2: the user-space null RPC pays ~290 us over the\n\
         kernel-space one — context switches ~140, window traps + crossings\n\
         ~50, double fragmentation ~40, untuned user FLIP interface ~54.)"
    );
}
