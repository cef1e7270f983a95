//! Quickstart: boot a two-machine Amoeba pool, run an RPC and a totally
//! ordered broadcast on *both* protocol implementations, and print the
//! virtual-time latencies the simulation measures.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use bytes::Bytes;
use orca_panda::prelude::*;

fn demo(stack: Stack) {
    let label = match stack {
        Stack::Kernel => "kernel-space",
        _ => "user-space",
    };
    let mut sim = Simulation::new(7);
    let World {
        net: _net,
        machines,
    } = world::boot(&mut sim, &TopologySpec::flat(2, 2), CostModel::default());

    let nodes = world::build_stack(&mut sim, &machines, stack, &PandaConfig::default());

    // Node 1 serves an uppercase service, replying from within the upcall.
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
        let up: Vec<u8> = req.iter().map(|b| b.to_ascii_uppercase()).collect();
        replier.reply(ctx, ticket, Bytes::from(up));
    }));
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    for n in &nodes {
        n.set_group_handler(Arc::new(|_ctx, d| {
            let _ = d; // deliveries observed here, in total order
        }));
    }

    let client = Arc::clone(&nodes[0]);
    let proc = machines[0].proc();
    let done = sim.spawn(proc, "client", move |ctx| {
        // Warm the route, then time one RPC and one broadcast.
        client
            .rpc(ctx, 1, Bytes::from_static(b"warmup"))
            .expect("rpc");
        let t0 = ctx.now();
        let reply = client
            .rpc(ctx, 1, Bytes::from_static(b"hello amoeba"))
            .expect("rpc");
        let rpc_time = ctx.now() - t0;
        assert_eq!(&reply[..], b"HELLO AMOEBA");
        let t0 = ctx.now();
        client
            .group_send(ctx, Bytes::from_static(b"ordered!"))
            .expect("broadcast");
        let grp_time = ctx.now() - t0;
        println!("  {label:<13} RPC {rpc_time}   totally-ordered broadcast {grp_time}");
    });
    sim.run_until_finished(&done).expect("run");
}

fn main() {
    println!("Two machines, 10 Mbit/s Ethernet, both Panda implementations:\n");
    demo(Stack::Kernel);
    demo(Stack::User);
    println!("\n(kernel-space is faster at the primitive level — Table 1 of the paper;");
    println!(" run the benches to see where user space wins back at application level.)");
}
