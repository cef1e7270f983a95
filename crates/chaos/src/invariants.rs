//! The protocol invariants one chaos run must uphold.
//!
//! Every check operates on [`RunArtifacts`] — the observable residue of a
//! completed run — and produces human-readable violation strings instead of
//! panicking, so a sweep can keep going and report everything it found.

use std::collections::HashMap;

use desim::trace::{CounterSnapshot, Layer, TraceEvent};
use desim::{ProcId, SimDuration, SimError, SimReport};
use ethernet::SegmentStats;

/// How one RPC call ended, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcOutcome {
    /// Reply received and it matched the request echo.
    Ok = 0,
    /// Reply received but its payload was wrong.
    CorruptReply = 1,
    /// The call exhausted its retry budget.
    Failed = 2,
}

/// The observable residue of one chaos run.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Per-call-id handler execution counts at the server.
    pub executions: HashMap<u64, u64>,
    /// Per-call outcome at the client, in call order.
    pub rpc_outcomes: Vec<RpcOutcome>,
    /// Descriptions of failed sends (RPC and broadcast).
    pub send_failures: Vec<String>,
    /// Per-member delivered group tags, in delivery order.
    pub deliveries: Vec<Vec<u64>>,
    /// Aggregate trace counters.
    pub counters: Vec<CounterSnapshot>,
    /// Ring-buffer snapshot of trace events (most recent window).
    pub events: Vec<TraceEvent>,
    /// Network counters summed over all segments.
    pub stats: SegmentStats,
    /// Reorder hold-backs never released (still in flight at the end).
    pub held_pending: u64,
    /// Partitions still active at the end (plan cleanup check).
    pub partitions_left: usize,
    /// Machines still down at the end (plan cleanup check).
    pub downs_left: usize,
    /// RPCs the workload issued.
    pub expected_rpcs: u64,
    /// Broadcasts sender 0 issued.
    pub expected_sender0: u64,
    /// Broadcasts sender 2 issued.
    pub expected_sender2: u64,
    /// True if the plan injected nothing (zero-fault discipline check).
    pub plan_is_null: bool,
    /// Virtual-time budget for the run.
    pub max_virtual: SimDuration,
    /// What the simulation driver reported.
    pub sim_result: Result<SimReport, SimError>,
}

fn counter(counters: &[CounterSnapshot], layer: Layer, name: &str) -> u64 {
    counters
        .iter()
        .filter(|c| c.layer == layer && c.name == name)
        .map(|c| c.count)
        .sum()
}

/// Recovery traffic in the trace counters: retransmissions, retransmission
/// requests and duplicate suppressions.
pub(crate) fn recovery_traffic(counters: &[CounterSnapshot]) -> u64 {
    [
        (Layer::Rpc, "retransmit"),
        (Layer::Rpc, "dup_suppressed"),
        (Layer::Group, "retransmit"),
        (Layer::Group, "retrans_req_tx"),
        (Layer::Group, "retrans_req_rx"),
    ]
    .into_iter()
    .map(|(layer, name)| counter(counters, layer, name))
    .sum()
}

/// The first event that runs its processor's clock backwards, rendered as
/// a violation. A world has a handful of processors, so the last time per
/// processor lives in a short list scanned linearly.
fn clock_violation(events: &[TraceEvent]) -> Option<String> {
    let mut last: Vec<(ProcId, u64)> = Vec::new();
    for e in events {
        let t = e.time.duration_since(desim::SimTime::ZERO).as_nanos();
        match last.iter_mut().find(|(p, _)| *p == e.proc) {
            Some((_, prev)) if t < *prev => {
                return Some(format!(
                    "clock ran backwards on {}: {} -> {} ns at {}/{}",
                    e.proc, prev, t, e.layer, e.name
                ));
            }
            Some((_, prev)) => *prev = t,
            None => last.push((e.proc, t)),
        }
    }
    None
}

/// Runs every invariant check; returns the violations found (empty = pass).
pub fn check(art: &RunArtifacts) -> Vec<String> {
    let mut v = Vec::new();

    // 0. The run itself must complete: a deadlock or an exhausted event
    //    budget is a hang, the most basic liveness violation.
    match &art.sim_result {
        Ok(report) => {
            let end = report.final_time.duration_since(desim::SimTime::ZERO);
            if end > art.max_virtual {
                v.push(format!(
                    "virtual-time budget exceeded: finished at {:.2} ms > {:.2} ms \
                     (recovery failed to converge)",
                    end.as_millis_f64(),
                    art.max_virtual.as_millis_f64()
                ));
            }
        }
        Err(e) => v.push(format!("run did not complete: {e}")),
    }

    // 1. Every send must eventually succeed: fault windows all heal inside
    //    the run, and retry budgets outlast them, so giving up means the
    //    recovery machinery is broken (or the budgets are miscalibrated —
    //    either way a human should look).
    for f in &art.send_failures {
        v.push(format!("send gave up: {f}"));
    }
    for (i, o) in art.rpc_outcomes.iter().enumerate() {
        if *o == RpcOutcome::CorruptReply {
            v.push(format!("rpc {i}: reply did not match the request echo"));
        }
    }
    if art.rpc_outcomes.len() as u64 != art.expected_rpcs {
        v.push(format!(
            "client issued {} of {} RPCs (workload thread died early)",
            art.rpc_outcomes.len(),
            art.expected_rpcs
        ));
    }

    // 2. Exactly-once execution: at-most-once always (duplicate requests
    //    are suppressed, never re-executed), and every call that returned
    //    Ok executed at least (hence exactly) once.
    for (id, count) in &art.executions {
        if *count > 1 {
            v.push(format!(
                "rpc {id} executed {count} times (duplicate suppression failed)"
            ));
        }
    }
    for id in 0..art.expected_rpcs {
        let executed = art.executions.get(&id).copied().unwrap_or(0);
        let ok = art
            .rpc_outcomes
            .get(id as usize)
            .is_some_and(|o| *o == RpcOutcome::Ok);
        if ok && executed == 0 {
            v.push(format!("rpc {id} returned Ok but never executed"));
        }
    }

    // 3. Gap-free identical total order at every member. Each member must
    //    hold the complete, identical sequence (the sequencer's laggard
    //    resync closes tail gaps), and each sender's messages must appear
    //    in submission order with no gap or duplicate.
    for (i, got) in art.deliveries.iter().enumerate() {
        if i > 0 && got != &art.deliveries[0] {
            v.push(format!(
                "member {i} delivery order differs from member 0 \
                 ({} vs {} deliveries)",
                got.len(),
                art.deliveries[0].len()
            ));
        }
        for (sender, expected_n) in [(0u64, art.expected_sender0), (2, art.expected_sender2)] {
            let seq: Vec<u64> = got
                .iter()
                .filter(|t| *t >> 32 == sender)
                .map(|t| *t & 0xffff_ffff)
                .collect();
            let want: Vec<u64> = (0..expected_n).collect();
            if seq != want {
                v.push(format!(
                    "member {i}: sender {sender} subsequence {:?}.. is not 0..{expected_n} \
                     (gap, duplicate, or reorder in the total order)",
                    &seq[..seq.len().min(8)]
                ));
            }
        }
    }

    // 4. Per-processor clock monotonicity over the trace window: the ring
    //    buffer holds events in emission order, and emission order must
    //    never run backwards on any one processor.
    if let Some(backwards) = clock_violation(&art.events) {
        v.push(backwards);
    }

    // 5. Frame conservation: every transmitted frame is accounted for —
    //    carried, dropped on the wire, or swallowed by a crashed sender's
    //    NIC — and the trace counters agree with the independently
    //    maintained network stats.
    let tx = counter(&art.counters, Layer::Net, "tx");
    let frames = counter(&art.counters, Layer::Net, "frame");
    let wire_drops = counter(&art.counters, Layer::Net, "wire_drop");
    let down_drops = counter(&art.counters, Layer::Net, "down_drop");
    if tx != frames + wire_drops + down_drops {
        v.push(format!(
            "frame conservation broken: tx {tx} != carried {frames} + wire-dropped \
             {wire_drops} + down-dropped {down_drops}"
        ));
    }
    for (name, traced, stat) in [
        ("frame", frames, art.stats.frames),
        ("wire_drop", wire_drops, art.stats.wire_drops),
        (
            "rx_drop",
            counter(&art.counters, Layer::Net, "rx_drop"),
            art.stats.rx_drops,
        ),
        ("down_drop", down_drops, art.stats.down_tx_drops),
        (
            "link_drop",
            counter(&art.counters, Layer::Net, "link_drop"),
            art.stats.link_drops,
        ),
        (
            "rx_dup",
            counter(&art.counters, Layer::Net, "rx_dup"),
            art.stats.dup_deliveries,
        ),
        (
            "rx_held",
            counter(&art.counters, Layer::Net, "rx_held"),
            art.stats.held_deliveries,
        ),
    ] {
        if traced != stat {
            v.push(format!(
                "trace counter {name} ({traced}) disagrees with network stats ({stat})"
            ));
        }
    }
    let held = counter(&art.counters, Layer::Net, "rx_held");
    let released = counter(&art.counters, Layer::Net, "rx_release");
    if released + art.held_pending > held {
        v.push(format!(
            "held-delivery conservation broken: released {released} + pending {} > held {held}",
            art.held_pending
        ));
    }

    // 6. Plan cleanup: every timed window must have closed before the end.
    if art.partitions_left > 0 || art.downs_left > 0 {
        v.push(format!(
            "plan left faults active at the end: {} partitions, {} machines down",
            art.partitions_left, art.downs_left
        ));
    }

    // 7. Zero-fault discipline: a null plan must leave the network spotless
    //    and the recovery machinery untouched.
    if art.plan_is_null {
        let drops = art.stats.wire_drops
            + art.stats.rx_drops
            + art.stats.down_tx_drops
            + art.stats.link_drops
            + art.stats.dup_deliveries
            + art.stats.held_deliveries;
        if drops > 0 {
            v.push(format!(
                "null plan but the network injected faults ({drops})"
            ));
        }
        let recovery = recovery_traffic(&art.counters);
        if recovery > 0 {
            v.push(format!(
                "null plan but recovery machinery engaged ({recovery} events)"
            ));
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::{ArgVec, Phase};
    use desim::{SimTime, Simulation, ThreadId};

    /// Artifacts of a run that passes every check but the clock check,
    /// carrying `events` (built by `trace`) as its trace window.
    fn artifacts(trace: impl FnOnce([ProcId; 3], ThreadId) -> Vec<TraceEvent>) -> RunArtifacts {
        let mut sim = Simulation::new(1);
        let procs = ["m0", "m1", "m2"].map(|name| sim.add_processor(name));
        let thread = sim.spawn(procs[0], "t", |_| {}).id();
        let sim_result = sim.run();
        RunArtifacts {
            executions: HashMap::new(),
            rpc_outcomes: Vec::new(),
            send_failures: Vec::new(),
            deliveries: Vec::new(),
            counters: Vec::new(),
            events: trace(procs, thread),
            stats: SegmentStats::default(),
            held_pending: 0,
            partitions_left: 0,
            downs_left: 0,
            expected_rpcs: 0,
            expected_sender0: 0,
            expected_sender2: 0,
            plan_is_null: false,
            max_virtual: SimDuration::from_millis(1),
            sim_result,
        }
    }

    /// `(processor index, ns)` pairs as events in that emission order.
    fn events(procs: [ProcId; 3], thread: ThreadId, at: &[(usize, u64)]) -> Vec<TraceEvent> {
        at.iter()
            .map(|&(p, ns)| TraceEvent {
                time: SimTime::ZERO + SimDuration::from_nanos(ns),
                proc: procs[p],
                thread,
                layer: Layer::Rpc,
                phase: Phase::Instant,
                name: "tx",
                args: ArgVec::from_slice(&[]),
            })
            .collect()
    }

    /// Each processor's clock is monotone, the interleaving is not.
    const INTERLEAVED: [(usize, u64); 7] = [
        (0, 100),
        (1, 50),
        (2, 10),
        (0, 100),
        (1, 60),
        (2, 200),
        (0, 150),
    ];

    #[test]
    fn interleaved_monotone_processors_pass() {
        let art = artifacts(|procs, thread| events(procs, thread, &INTERLEAVED));
        assert_eq!(check(&art), Vec::<String>::new());
    }

    #[test]
    fn one_backwards_event_is_one_violation() {
        let art = artifacts(|procs, thread| {
            let mut at = INTERLEAVED.to_vec();
            at.extend([(1, 40), (2, 300), (1, 70)]);
            events(procs, thread, &at)
        });
        assert_eq!(
            check(&art),
            ["clock ran backwards on p1: 60 -> 40 ns at rpc/tx"]
        );
    }
}
