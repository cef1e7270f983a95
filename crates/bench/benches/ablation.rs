//! Reproduces the paper's **Section 4.2/4.3 overhead accounting** by
//! ablation: each cost-model term is zeroed in turn and the change in
//! null-RPC and null-group latency is reported, next to the microsecond
//! budget the paper attributes to that mechanism.
//!
//! Run with `cargo bench -p bench --bench ablation`.

use amoeba::CostModel;
use bench::{group_latency, rpc_latency};
use desim::SimDuration;
use panda::world::Stack;

struct Term {
    name: &'static str,
    paper_rpc_us: Option<f64>,
    paper_group_us: Option<f64>,
    zero: fn(&mut CostModel),
}

fn main() {
    let base = CostModel::default();
    let terms: Vec<Term> = vec![
        Term {
            name: "context switches",
            paper_rpc_us: Some(140.0),
            paper_group_us: Some(110.0),
            zero: |c| {
                c.context_switch = SimDuration::ZERO;
                c.sequencer_thread_switch = SimDuration::ZERO;
                c.sequencer_thread_switch_dedicated = SimDuration::ZERO;
            },
        },
        Term {
            name: "window traps + crossings",
            paper_rpc_us: Some(50.0),
            paper_group_us: Some(50.0),
            zero: |c| {
                c.window_trap = SimDuration::ZERO;
                c.syscall_enter = SimDuration::ZERO;
            },
        },
        Term {
            name: "double fragmentation",
            paper_rpc_us: Some(40.0),
            paper_group_us: Some(20.0),
            zero: |c| c.fragmentation_layer = SimDuration::ZERO,
        },
        Term {
            name: "untuned user FLIP iface",
            paper_rpc_us: Some(54.0),
            paper_group_us: Some(30.0),
            zero: |c| c.flip_user_interface = SimDuration::ZERO,
        },
        Term {
            name: "user/kernel copies",
            paper_rpc_us: None,
            paper_group_us: Some(30.0),
            zero: |c| c.copy_byte = SimDuration::ZERO,
        },
    ];

    let rpc_user0 = rpc_latency(0, Stack::User, &base);
    let rpc_kernel0 = rpc_latency(0, Stack::Kernel, &base);
    let grp_user0 = group_latency(0, Stack::User, &base);
    let grp_kernel0 = group_latency(0, Stack::Kernel, &base);
    println!("Ablation of the user-space overhead (null messages)\n");
    println!(
        "baseline gaps: RPC {:+.0} us (paper +290), group {:+.0} us (paper +230)\n",
        (rpc_user0 - rpc_kernel0).as_micros_f64(),
        (grp_user0 - grp_kernel0).as_micros_f64()
    );
    println!(
        "{:<26} {:>14} {:>10} {:>14} {:>10}",
        "term zeroed", "ΔRPC us", "paper", "Δgroup us", "paper"
    );
    for t in terms {
        let mut c = base.clone();
        (t.zero)(&mut c);
        let rpc = rpc_latency(0, Stack::User, &c);
        let grp = group_latency(0, Stack::User, &c);
        let d_rpc = (rpc_user0.as_micros_f64() - rpc.as_micros_f64()).round();
        let d_grp = (grp_user0.as_micros_f64() - grp.as_micros_f64()).round();
        println!(
            "{:<26} {:>14} {:>10} {:>14} {:>10}",
            t.name,
            format!("{d_rpc:+.0}"),
            t.paper_rpc_us
                .map(|v| format!("~{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            format!("{d_grp:+.0}"),
            t.paper_group_us
                .map(|v| format!("~{v:.0}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\n(Δ = latency reduction when the mechanism is free; the paper's budget\n\
         counts only the user-kernel difference, so signs and magnitudes are\n\
         indicative, not identities.)"
    );
}
