//! The LEQ effect in isolation: a broadcast-heavy workload overloads the
//! user-space sequencer's machine, because that machine handles every
//! ordering request *and* runs an application worker *and* pays the
//! interrupt-to-thread dispatch per message. Dedicating one machine to the
//! sequencer (the paper's `User-space-dedicated`) buys the performance back
//! at scale.
//!
//! Run with `cargo run --release --example sequencer_overload`.

use std::sync::Arc;

use bytes::Bytes;
use orca_panda::prelude::*;

fn run(stack: Stack, workers: u32) -> f64 {
    let label = match stack {
        Stack::Kernel => "kernel-space",
        Stack::User => "user-space",
        Stack::UserDedicated => "user-space-dedicated",
    };
    let mut sim = Simulation::new(9);
    let n = stack.n_machines(workers);
    let World {
        net: _net,
        machines,
    } = world::boot(&mut sim, &TopologySpec::flat(n, n), CostModel::default());
    let nodes = world::build_stack(&mut sim, &machines, stack, &PandaConfig::default());
    for n in &nodes {
        n.set_group_handler(Arc::new(|_, _| {}));
        n.set_rpc_handler(Arc::new(|_, _, _, _| {}));
    }
    // Every worker interleaves compute with ordered broadcasts — the LEQ
    // iteration pattern.
    let rounds = 40u32;
    for n in nodes.iter() {
        let n = Arc::clone(n);
        let proc = n.machine().proc();
        sim.spawn(proc, &format!("worker{}", n.node()), move |ctx| {
            for _ in 0..rounds {
                ctx.compute(us(300));
                n.group_send(ctx, Bytes::from(vec![0u8; 256]))
                    .expect("broadcast");
            }
        });
    }
    sim.run().expect("run");
    let ms = sim.now().as_millis_f64();
    println!("  {label:<22} {workers:>2} workers: {ms:9.1} ms");
    ms
}

fn main() {
    println!("Broadcast-heavy workload (the LEQ pattern):\n");
    for workers in [4u32, 8, 16] {
        let kernel = run(Stack::Kernel, workers);
        let user = run(Stack::User, workers);
        let dedicated = run(Stack::UserDedicated, workers);
        println!(
            "   -> user-space overhead {:+5.1}% vs kernel; dedicating the sequencer recovers {:+5.1}%\n",
            (user / kernel - 1.0) * 100.0,
            (1.0 - dedicated / user) * 100.0,
        );
    }
}
