//! Golden-trace regression tests (ISSUE 1, satellite 2).
//!
//! A deterministic simulator makes traces a testing surface: the exact
//! sequence of protocol events for a fixed workload is part of the stack's
//! observable behaviour. These tests pin (a) full-trace determinism — two
//! runs of the same seed render bit-identical event streams — and (b) the
//! exact protocol-level event sequence of the measured operation: a null
//! RPC and a 1 KB group broadcast, on both stacks.
//!
//! When a deliberate protocol change shifts a golden sequence, regenerate
//! it with `TRACE_GOLDEN_DUMP=1 cargo test --test trace_golden -- --nocapture`.

use amoeba::CostModel;
use apps::paper::{group_trace, rpc_trace, RpcTraceRun};
use desim::trace::{Layer, Phase, TraceEvent};
use panda::world::Stack;

/// The emission-order slice of the **last** `span_name` span: from its
/// `Begin` event through its matching `End` on the same thread. Slicing by
/// event index (not timestamp) keeps same-timestamp stragglers of the
/// previous iteration out of the golden.
fn span_slice<'a>(events: &'a [TraceEvent], span_name: &str) -> &'a [TraceEvent] {
    let ei = events
        .iter()
        .rposition(|e| e.phase == Phase::End && e.name == span_name)
        .expect("span end");
    let bi = events[..ei]
        .iter()
        .rposition(|e| {
            e.phase == Phase::Begin && e.name == span_name && e.thread == events[ei].thread
        })
        .expect("span begin");
    &events[bi..=ei]
}

/// The protocol-level skeleton of a trace slice: every non-cost event from
/// the FLIP layer upward, as `layer/name.phase`, in emission order. Cost
/// events (those carrying an `ns` argument) and the scheduler/wire layers
/// are excluded so the golden pins protocol *behaviour*, not the cost model.
fn protocol_sequence(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.layer,
                Layer::Flip | Layer::Rpc | Layer::Group | Layer::Orca
            ) && e.args.get("ns").is_none()
        })
        .map(|e| {
            let ph = match e.phase {
                Phase::Instant => "i",
                Phase::Begin => "B",
                Phase::End => "E",
            };
            format!("{}/{}.{}", e.layer, e.name, ph)
        })
        .collect()
}

fn assert_golden(run: &RpcTraceRun, span_name: &str, expected: &[&str], label: &str) {
    let seq = protocol_sequence(span_slice(&run.events, span_name));
    if std::env::var_os("TRACE_GOLDEN_DUMP").is_some() {
        println!("--- {label} ---");
        for s in &seq {
            println!("    \"{s}\",");
        }
        return;
    }
    assert_eq!(
        seq, expected,
        "{label}: protocol event sequence diverged from the golden trace"
    );
}

fn renders(run: &RpcTraceRun) -> Vec<String> {
    run.events.iter().map(TraceEvent::render).collect()
}

#[test]
fn null_rpc_traces_are_deterministic_and_match_golden() {
    let cost = CostModel::default();
    for (stack, span_name, label, expected) in [
        (
            Stack::Kernel,
            "trans",
            "null RPC, kernel-space",
            KERNEL_NULL_RPC.as_slice(),
        ),
        (
            Stack::User,
            "call",
            "null RPC, user-space",
            USER_NULL_RPC.as_slice(),
        ),
    ] {
        let a = rpc_trace(0, stack, &cost, 1);
        let b = rpc_trace(0, stack, &cost, 1);
        assert_eq!(
            renders(&a),
            renders(&b),
            "{label}: two runs of the same seed must render identical traces"
        );
        assert_golden(&a, span_name, expected, label);
    }
}

#[test]
fn group_1kb_traces_are_deterministic_and_match_golden() {
    let cost = CostModel::default();
    for (stack, label, expected) in [
        (
            Stack::Kernel,
            "1 KB group, kernel-space",
            KERNEL_1KB_GROUP.as_slice(),
        ),
        (
            Stack::User,
            "1 KB group, user-space",
            USER_1KB_GROUP.as_slice(),
        ),
    ] {
        let a = group_trace(1024, stack, &cost, 1);
        let b = group_trace(1024, stack, &cost, 1);
        assert_eq!(
            renders(&a),
            renders(&b),
            "{label}: two runs of the same seed must render identical traces"
        );
        assert_golden(&a, "grp_send", expected, label);
    }
}

/// Amoeba's 3-way null RPC: request out (the leading FLIP triplet is the
/// *previous* call's acknowledgement reaching the server while the client
/// is still in its pre-send compute), server reply, explicit client ack.
const KERNEL_NULL_RPC: [&str; 16] = [
    "rpc/trans.B",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "rpc/request_tx.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "rpc/request_rx.i",
    "rpc/reply_tx.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "rpc/reply_rx.i",
    "rpc/ack_tx.i",
    "rpc/trans.E",
];

/// Panda's 2-way null RPC: no acknowledgement frame (the next request
/// acknowledges), but each arrival crosses the system layer's receive daemon (`sys_upcall`).
const USER_NULL_RPC: [&str; 14] = [
    "rpc/call.B",
    "rpc/request_tx.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "rpc/sys_upcall.i",
    "rpc/request_rx.i",
    "rpc/reply_tx.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "rpc/sys_upcall.i",
    "rpc/reply_rx.i",
    "rpc/call.E",
];

/// Kernel sequencer (PB method): point-to-point to the sequencer, which
/// assigns the sequence number, delivers locally, and broadcasts back.
const KERNEL_1KB_GROUP: [&str; 11] = [
    "group/grp_send.B",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "group/seq_assign.i",
    "group/deliver.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "group/deliver.i",
    "group/grp_send.E",
];

/// User-space sequencer: same protocol shape plus a system-layer upcall at
/// every arrival (the sequencer runs in a user thread).
const USER_1KB_GROUP: [&str; 14] = [
    "group/grp_send.B",
    "flip/msg_send.i",
    "flip/fragment.i",
    "flip/reassembled.i",
    "group/sys_upcall.i",
    "group/seq_assign.i",
    "flip/msg_send.i",
    "flip/fragment.i",
    "group/sys_upcall.i",
    "group/deliver.i",
    "flip/reassembled.i",
    "group/sys_upcall.i",
    "group/deliver.i",
    "group/grp_send.E",
];
