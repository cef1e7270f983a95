//! The paper's sharpest application-level effect, isolated: a guarded
//! `BufGet` on a remote bounded buffer blocks until the owner fills it.
//! The Orca runtime parks the request as a **continuation**; when the owner
//! puts, the putting thread executes the blocked operation and replies.
//!
//! With the user-space implementation that reply is transmitted directly
//! from the putting thread. The kernel-space implementation must signal the
//! original `get_request` server thread (Amoeba demands `put_reply` from the
//! same thread), costing an extra context switch per blocked operation —
//! visible below in both the runtime and the context-switch counts.
//!
//! Run with `cargo run --release --example guarded_objects`.

use std::sync::Arc;

use orca::BufferHandle;
use orca_panda::prelude::*;

fn run(stack: Stack) -> (f64, u64) {
    let label = match stack {
        Stack::Kernel => "kernel-space",
        _ => "user-space",
    };
    let mut sim = Simulation::new(3);
    let World {
        net: _net,
        machines,
    } = world::boot(&mut sim, &TopologySpec::flat(2, 2), CostModel::default());
    let nodes = world::build_stack(&mut sim, &machines, stack, &PandaConfig::default());
    let world = OrcaWorld::build(&nodes);
    // The buffer lives on node 1 (the producer); node 0 does remote
    // guarded gets that block until the producer puts.
    let buf_id = ObjId(1);
    world.create_owned(buf_id, 1, || orca::BoundedBuffer::new(2));
    let rounds = 200u32;

    let rts0 = world.rts(0);
    let consumer = sim.spawn(machines[0].proc(), "consumer", move |ctx| {
        let buf = BufferHandle::new(Arc::clone(&rts0), buf_id);
        for _ in 0..rounds {
            let item = buf.get(ctx).expect("guarded get");
            assert_eq!(item.len(), 64);
        }
    });
    let rts1 = world.rts(1);
    sim.spawn(machines[1].proc(), "producer", move |ctx| {
        let buf = BufferHandle::new(Arc::clone(&rts1), buf_id);
        for _ in 0..rounds {
            // Simulate per-item work so the consumer's get usually blocks.
            ctx.compute(us(500));
            buf.put(ctx, &[7u8; 64]).expect("put");
        }
    });
    sim.run_until_finished(&consumer).expect("run");
    let elapsed = sim.now().as_millis_f64();
    let switches: u64 = sim.report().procs.iter().map(|p| p.switches).sum();
    println!(
        "  {label:<13} {rounds} blocked gets in {elapsed:8.1} ms, {switches:5} context switches"
    );
    (elapsed, switches)
}

fn main() {
    println!("Remote guarded BufGet resumed by the owner's BufPut:\n");
    let (t_kernel, sw_kernel) = run(Stack::Kernel);
    let (t_user, sw_user) = run(Stack::User);
    println!("\nkernel-space: {t_kernel:.1} ms / {sw_kernel} switches;  user-space: {t_user:.1} ms / {sw_user} switches");
    println!("The kernel path must route each deferred reply back through the parked");
    println!("get_request daemon (signal + context switch); the user path replies");
    println!("directly from the mutating thread but pays its heavier send path.");
    println!("This tension decides Region Labeling's and SOR's Table 3 rows.");
}
