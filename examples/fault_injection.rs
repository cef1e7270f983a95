//! Fault injection: FLIP is unreliable by contract, so both protocol stacks
//! carry their own recovery (request retransmission with duplicate
//! suppression; sequencer history with gap repair). This example drops a
//! configurable fraction of frames at receivers and shows that RPC stays
//! exactly-once and group delivery stays gap-free and totally ordered.
//!
//! Run with `cargo run --release --example fault_injection [loss-percent]`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use orca_panda::prelude::*;

fn run(stack: Stack, loss: f64) {
    let label = match stack {
        Stack::Kernel => "kernel-space",
        _ => "user-space",
    };
    let mut sim = Simulation::new(0xfa_17);
    let World { net, machines } =
        world::boot(&mut sim, &TopologySpec::flat(3, 3), CostModel::default());
    net.faults().lock().rx_loss_prob = loss;
    let nodes = world::build_stack(&mut sim, &machines, stack, &PandaConfig::default());

    // RPC server with an execution counter (exactly-once check).
    let executions = Arc::new(AtomicU64::new(0));
    let deliveries = Arc::new(AtomicU64::new(0));
    let exec2 = Arc::clone(&executions);
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        exec2.fetch_add(1, Ordering::SeqCst);
        replier.reply(ctx, t, req);
    }));
    for n in &nodes {
        let deliveries = Arc::clone(&deliveries);
        n.set_group_handler(Arc::new(move |_ctx, _d| {
            deliveries.fetch_add(1, Ordering::SeqCst);
        }));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    nodes[2].set_rpc_handler(Arc::new(|_, _, _, _| {}));

    let rpcs = 40u64;
    let broadcasts = 30u64;
    let client = Arc::clone(&nodes[0]);
    sim.spawn(machines[0].proc(), "rpc-client", move |ctx| {
        for i in 0..rpcs {
            let body = Bytes::from(i.to_be_bytes().to_vec());
            let reply = client
                .rpc(ctx, 1, body.clone())
                .expect("rpc recovers from loss");
            assert_eq!(reply, body, "reply payload intact");
        }
    });
    let caster = Arc::clone(&nodes[2]);
    sim.spawn(machines[2].proc(), "broadcaster", move |ctx| {
        for _ in 0..broadcasts {
            caster
                .group_send(ctx, Bytes::from(vec![9u8; 600]))
                .expect("broadcast recovers");
        }
    });
    sim.run().expect("run");
    let drops = net.total_stats().rx_drops;
    println!(
        "  {label:<13} {rpcs} RPCs executed exactly once ({}), {} ordered deliveries (expected {}), {} frames dropped",
        executions.load(Ordering::SeqCst),
        deliveries.load(Ordering::SeqCst),
        broadcasts * 3,
        drops
    );
    assert_eq!(executions.load(Ordering::SeqCst), rpcs);
    assert_eq!(deliveries.load(Ordering::SeqCst), broadcasts * 3);
}

fn main() {
    let loss: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6.0);
    println!("Receiver-side frame loss {loss}% on every machine:\n");
    run(Stack::Kernel, loss / 100.0);
    run(Stack::User, loss / 100.0);
    println!("\nBoth stacks recover: at-most-once RPC + gap-free total order.");
}
