//! Trace-invariant property tests (ISSUE 1, satellite 3).
//!
//! Structural invariants every trace must satisfy, regardless of workload,
//! stack, message size, or injected faults:
//!
//! - **Monotone clocks**: per processor, event timestamps never decrease in
//!   emission order (the virtual clock cannot run backwards).
//! - **Balanced spans**: a `Phase::End` always closes an open `Phase::Begin`
//!   of the same name on the same thread; only a trailing in-flight wire
//!   span may remain open when the measured workload finishes first.
//! - **Frame conservation**: every transmitted frame is accounted for —
//!   `tx = on-wire + wire-dropped`, and the trace counters reconcile exactly
//!   with the independently maintained `SegmentStats` and
//!   `Machine::dropped_messages` bookkeeping.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use chaos::testutil::{boot_machines, build_stack, Stack};
use desim::trace::{Layer, Phase, TraceEvent};
use orca_panda::prelude::*;
use proptest::prelude::*;

use apps::paper::{group_trace, rpc_trace};

fn assert_monotone_per_proc(events: &[TraceEvent]) {
    let mut last: HashMap<desim::ProcId, SimTime> = HashMap::new();
    for e in events {
        let prev = last.entry(e.proc).or_insert(e.time);
        assert!(
            e.time >= *prev,
            "clock ran backwards on {}: {} after {}",
            e.proc,
            e.time.as_nanos(),
            prev.as_nanos()
        );
        *prev = e.time;
    }
}

fn assert_balanced_spans(events: &[TraceEvent]) {
    // Depth per (thread, layer, name); an End may never outrun its Begin.
    let mut depth: HashMap<(desim::ThreadId, Layer, &str), i64> = HashMap::new();
    for e in events {
        let d = depth.entry((e.thread, e.layer, e.name)).or_insert(0);
        match e.phase {
            Phase::Begin => *d += 1,
            Phase::End => {
                *d -= 1;
                assert!(
                    *d >= 0,
                    "unbalanced span: End without Begin for {}/{} on {}",
                    e.layer,
                    e.name,
                    e.thread
                );
            }
            Phase::Instant => {}
        }
    }
    // The workload thread finishing ends the run; a frame it fired and
    // forgot (the kernel RPC's trailing ack) may leave its wire span open.
    for ((_, layer, name), d) in depth {
        let open_ok = layer == Layer::Net && name == "wire";
        assert!(
            d == 0 || (open_ok && d == 1),
            "span {layer}/{name} left open {d} time(s) at end of run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn protocol_traces_satisfy_clock_and_span_invariants(
        size in 0usize..2048,
        kernel in any::<bool>(),
        group in any::<bool>(),
    ) {
        let cost = CostModel::default();
        let stack = if kernel { Stack::Kernel } else { Stack::User };
        let run = if group {
            group_trace(size, stack, &cost, 1)
        } else {
            rpc_trace(size, stack, &cost, 1)
        };
        prop_assert!(!run.events.is_empty());
        assert_monotone_per_proc(&run.events);
        assert_balanced_spans(&run.events);
    }
}

/// Sums a trace counter over all processors.
fn counter(sim: &Simulation, layer: Layer, name: &str) -> u64 {
    sim.trace_counters()
        .iter()
        .filter(|c| c.layer == layer && c.name == name)
        .map(|c| c.count)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn frames_are_conserved_under_receiver_loss(
        loss_pct in 0u32..12,
        kernel in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut sim = Simulation::new(seed);
        sim.enable_tracing_with_capacity(1 << 20);
        let stack = if kernel { Stack::Kernel } else { Stack::User };
        let world = boot_machines(&mut sim, 3);
        world.net.faults().lock().rx_loss_prob = f64::from(loss_pct) / 100.0;
        let nodes = build_stack(&mut sim, &world.machines, stack, &PandaConfig::default());
        let (net, machines) = (world.net, world.machines);
        let replier = Arc::clone(&nodes[1]);
        nodes[1].set_rpc_handler(Arc::new(move |ctx, _f, req, t| {
            replier.reply(ctx, t, req);
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        nodes[0].set_rpc_handler(Arc::new(|_, _, _, _| {}));
        nodes[2].set_rpc_handler(Arc::new(|_, _, _, _| {}));
        let client = Arc::clone(&nodes[0]);
        sim.spawn(machines[0].proc(), "rpc-client", move |ctx| {
            for _ in 0..6 {
                client.rpc(ctx, 1, Bytes::from(vec![7u8; 200])).expect("rpc recovers");
            }
        });
        let caster = Arc::clone(&nodes[2]);
        sim.spawn(machines[2].proc(), "broadcaster", move |ctx| {
            for _ in 0..5 {
                caster.group_send(ctx, Bytes::from(vec![9u8; 600])).expect("bcast recovers");
            }
        });
        sim.run().expect("run completes");

        let stats = net.total_stats();
        let tx = counter(&sim, Layer::Net, "tx");
        let on_wire = counter(&sim, Layer::Net, "frame");
        let wire_drops = counter(&sim, Layer::Net, "wire_drop");
        let rx = counter(&sim, Layer::Net, "rx");
        let rx_drops = counter(&sim, Layer::Net, "rx_drop");

        // Conservation at the wire: everything a NIC queued either occupied
        // the medium or was dropped by an injected wire fault.
        prop_assert_eq!(tx, on_wire + wire_drops, "tx = on-wire + wire-dropped");
        // Trace counters reconcile with the segments' own bookkeeping.
        prop_assert_eq!(on_wire, stats.frames);
        prop_assert_eq!(wire_drops, stats.wire_drops);
        prop_assert_eq!(rx_drops, stats.rx_drops);
        prop_assert!(rx > 0, "some frames must be delivered");
        // ... and with each machine's count of sink-less deliveries.
        let no_sink: u64 = counter(&sim, Layer::Flip, "no_sink_drop");
        let dropped: u64 = machines.iter().map(|m| m.dropped_messages()).sum();
        prop_assert_eq!(no_sink, dropped);
        // Nothing in this workload is lost above the network: with loss
        // injected, drops show up; without, none do.
        if loss_pct == 0 {
            prop_assert_eq!(rx_drops + wire_drops, 0);
        }
    }
}
