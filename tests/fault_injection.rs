//! Fault-path coverage: sweeps receiver-side loss, wire-level loss, and
//! forced targeted drops on both stacks (ISSUE 2 extends the original
//! rx-loss-only sweep).
//!
//! FLIP is unreliable by contract, so each protocol stack carries its own
//! recovery: request retransmission with duplicate suppression for RPC,
//! sequencer history with gap repair for the group protocol. Under loss the
//! test asserts the end-to-end guarantees — every RPC executes exactly
//! once, and group delivery is gap-free, totally ordered, and identical at
//! every member — and uses the trace counters to check the *mechanism*:
//! lost frames surface as retransmissions or retransmission requests, and
//! re-sent requests that did reach the server are suppressed as duplicates,
//! never re-executed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use chaos::testutil::{boot_machines, build_stack, Stack};
use desim::trace::Layer;
use ethernet::FaultState;
use orca_panda::prelude::*;

struct FaultRun {
    executions: u64,
    /// Per-member sequence of delivered group payload tags, in order.
    deliveries: Vec<Vec<u64>>,
    rx_drops: u64,
    wire_drops: u64,
    rpc_retransmits: u64,
    rpc_dup_suppressed: u64,
    group_recoveries: u64,
}

const RPCS: u64 = 30;
const BROADCASTS: u64 = 25;

fn run(kernel_space: bool, inject: impl FnOnce(&mut FaultState)) -> FaultRun {
    let mut sim = Simulation::new(0xfa_17);
    sim.enable_tracing_with_capacity(1 << 20);
    let world = boot_machines(&mut sim, 3);
    inject(&mut world.net.faults().lock());
    let stack = if kernel_space {
        Stack::Kernel
    } else {
        Stack::User
    };
    let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());

    let executions = Arc::new(AtomicU64::new(0));
    let exec2 = Arc::clone(&executions);
    let replier = Arc::clone(&nodes[1]);
    nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
        exec2.fetch_add(1, Ordering::SeqCst);
        replier.reply(ctx, t, req);
    }));
    let deliveries: Arc<Vec<Mutex<Vec<u64>>>> =
        Arc::new((0..3).map(|_| Mutex::new(Vec::new())).collect());
    for (i, n) in nodes.iter().enumerate() {
        let deliveries = Arc::clone(&deliveries);
        n.set_group_handler(Arc::new(move |_ctx, d| {
            let tag = u64::from_be_bytes(d.payload[..8].try_into().expect("tagged payload"));
            deliveries[i].lock().unwrap().push(tag);
        }));
    }
    nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
    nodes[2].set_rpc_handler(Arc::new(|_, _, _, _| {}));

    let client = Arc::clone(&nodes[0]);
    sim.spawn(world.machines[0].proc(), "rpc-client", move |ctx| {
        for i in 0..RPCS {
            let body = Bytes::from(i.to_be_bytes().to_vec());
            let reply = client
                .rpc(ctx, 1, body.clone())
                .expect("rpc recovers from loss");
            assert_eq!(reply, body, "reply payload intact");
        }
    });
    let caster = Arc::clone(&nodes[2]);
    sim.spawn(world.machines[2].proc(), "broadcaster", move |ctx| {
        for i in 0..BROADCASTS {
            let mut payload = vec![9u8; 600];
            payload[..8].copy_from_slice(&i.to_be_bytes());
            caster
                .group_send(ctx, Bytes::from(payload))
                .expect("broadcast recovers");
        }
    });
    sim.run().expect("run");

    let counter = |layer: Layer, name: &str| -> u64 {
        sim.trace_counters()
            .iter()
            .filter(|c| c.layer == layer && c.name == name)
            .map(|c| c.count)
            .sum()
    };
    let stats = world.net.total_stats();
    FaultRun {
        executions: executions.load(Ordering::SeqCst),
        deliveries: deliveries
            .iter()
            .map(|m| m.lock().unwrap().clone())
            .collect(),
        rx_drops: stats.rx_drops,
        wire_drops: stats.wire_drops,
        rpc_retransmits: counter(Layer::Rpc, "retransmit"),
        rpc_dup_suppressed: counter(Layer::Rpc, "dup_suppressed"),
        group_recoveries: counter(Layer::Group, "retransmit")
            + counter(Layer::Group, "retrans_req_tx")
            + counter(Layer::Group, "retrans_req_rx")
            + counter(Layer::Group, "resync"),
    }
}

/// The end-to-end guarantees every faulted run must uphold.
fn assert_guarantees(r: &FaultRun, label: &str) {
    // At-most-once (here: exactly-once, since every call eventually
    // succeeded): retransmitted requests never re-execute the handler.
    assert_eq!(
        r.executions, RPCS,
        "{label}: every RPC must execute exactly once"
    );
    // Gap-free total order: all three members deliver the full tag sequence
    // in submission order, with no gap, duplicate, or reordering.
    let expected: Vec<u64> = (0..BROADCASTS).collect();
    for (i, got) in r.deliveries.iter().enumerate() {
        assert_eq!(got, &expected, "{label}: member {i} delivery order broken");
    }
}

fn check_rx_loss(kernel_space: bool, loss_pct: u32) {
    let label = if kernel_space {
        "kernel-space"
    } else {
        "user-space"
    };
    let r = run(kernel_space, |f| {
        f.rx_loss_prob = f64::from(loss_pct) / 100.0;
    });
    assert_guarantees(&r, &format!("{label} @ rx {loss_pct}%"));

    if loss_pct == 0 {
        assert_eq!(r.rx_drops, 0, "{label}: no drops without injected loss");
        assert_eq!(
            r.rpc_retransmits + r.rpc_dup_suppressed + r.group_recoveries,
            0,
            "{label}: recovery machinery must stay idle on a clean network"
        );
    } else {
        // The sweep rates are high enough that this seed always drops
        // frames; recovery must have engaged for the run to have passed the
        // assertions above.
        assert!(
            r.rx_drops > 0,
            "{label} @ {loss_pct}%: faults were injected"
        );
        assert!(
            r.rpc_retransmits + r.group_recoveries > 0,
            "{label} @ {loss_pct}%: {} drops but no recovery traffic",
            r.rx_drops
        );
    }
}

fn check_wire_loss(kernel_space: bool, loss_pct: u32) -> FaultRun {
    let label = if kernel_space {
        "kernel-space"
    } else {
        "user-space"
    };
    let r = run(kernel_space, |f| {
        f.wire_loss_prob = f64::from(loss_pct) / 100.0;
    });
    assert_guarantees(&r, &format!("{label} @ wire {loss_pct}%"));
    // Wire loss kills the frame for every receiver at once; it must show up
    // in the wire-drop counter, never the per-receiver one.
    assert!(
        r.wire_drops > 0,
        "{label} @ wire {loss_pct}%: faults were injected"
    );
    assert_eq!(r.rx_drops, 0, "{label}: wire loss is not a receiver drop");
    r
}

/// A single low-rate run can happen to drop only frames whose loss is
/// harmless (an ack, a status note), so the mechanism check — recovery
/// traffic actually flowed — is asserted over the whole sweep, while the
/// end-to-end guarantees hold at every rate individually.
fn wire_loss_sweep(kernel_space: bool) {
    let recovery: u64 = [4, 8, 12]
        .into_iter()
        .map(|pct| {
            let r = check_wire_loss(kernel_space, pct);
            r.rpc_retransmits + r.group_recoveries
        })
        .sum();
    assert!(
        recovery > 0,
        "wire-loss sweep never engaged recovery machinery"
    );
}

#[test]
fn kernel_stack_recovers_across_rx_loss_sweep() {
    for loss_pct in [0, 3, 6, 10] {
        check_rx_loss(true, loss_pct);
    }
}

#[test]
fn user_stack_recovers_across_rx_loss_sweep() {
    for loss_pct in [0, 3, 6, 10] {
        check_rx_loss(false, loss_pct);
    }
}

#[test]
fn kernel_stack_recovers_across_wire_loss_sweep() {
    wire_loss_sweep(true);
}

#[test]
fn user_stack_recovers_across_wire_loss_sweep() {
    wire_loss_sweep(false);
}

/// Forcing the loss of *specific* frames (instead of a coin per delivery)
/// exercises recovery deterministically: the first transmissions are
/// dropped on the wire unconditionally, the retransmissions get through,
/// and any retransmission that races a delayed reply is suppressed.
#[test]
fn forced_drops_recover_deterministically() {
    for kernel_space in [true, false] {
        let label = if kernel_space {
            "kernel-space"
        } else {
            "user-space"
        };
        let r = run(kernel_space, |f| f.force_drop_next = 4);
        assert_guarantees(&r, &format!("{label} force_drop_next=4"));
        assert_eq!(
            r.wire_drops, 4,
            "{label}: exactly the forced frames are dropped"
        );
        assert!(
            r.rpc_retransmits + r.group_recoveries > 0,
            "{label}: forced drops must engage recovery"
        );
    }
}

#[test]
fn duplicate_requests_are_suppressed_not_reexecuted() {
    for kernel_space in [true, false] {
        let r = run(kernel_space, |f| f.rx_loss_prob = 0.08);
        assert_eq!(r.executions, RPCS);
        assert!(
            r.rpc_retransmits > 0,
            "8% loss over {RPCS} calls must retransmit at least once"
        );
    }
}
