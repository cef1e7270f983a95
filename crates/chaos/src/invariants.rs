//! The protocol invariants one chaos run must uphold.
//!
//! Every check operates on [`RunArtifacts`] — the observable residue of a
//! completed run — and produces human-readable violation strings instead of
//! panicking, so a sweep can keep going and report everything it found.

use std::collections::HashMap;

use desim::trace::{ClockViolation, CounterSnapshot, Layer, TraceEvent};
use desim::{SimDuration, SimError, SimReport};
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
    /// Ring-buffer snapshot of trace events (most recent window). Filled
    /// only when the run asked for a ring (`CHAOS_DUMP`); empty otherwise.
    /// No check reads it.
    pub events: Vec<TraceEvent>,
    /// The first traced event that ran its processor's clock backwards.
    pub clock_violation: Option<ClockViolation>,
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

    // 4. Per-processor clock monotonicity over every traced event: the
    //    tracer checks each event against its processor's last instant as
    //    it records it, and emission order must never run backwards on any
    //    one processor.
    if let Some(c) = art.clock_violation {
        v.push(format!(
            "clock ran backwards on {}: {} -> {} ns at {}/{}",
            c.proc,
            c.prev.as_nanos(),
            c.at.as_nanos(),
            c.layer,
            c.name
        ));
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
    //    and the recovery machinery untouched, the sequencer's resync rounds
    //    included (they are not part of `recovery_traffic`, whose meaning
    //    the benchmark freezes).
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
        let resyncs = counter(&art.counters, Layer::Group, "resync");
        if resyncs > 0 {
            v.push(format!(
                "null plan but the sequencer resynced ({resyncs} rounds)"
            ));
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{ProcId, SimTime, Simulation};

    /// Artifacts of a run on processors `m0..m2` that passes every check.
    fn artifacts() -> (RunArtifacts, [ProcId; 3]) {
        let mut sim = Simulation::new(1);
        let procs = ["m0", "m1", "m2"].map(|name| sim.add_processor(name));
        sim.spawn(procs[0], "t", |_| {});
        let sim_result = sim.run();
        let art = RunArtifacts {
            executions: HashMap::new(),
            rpc_outcomes: Vec::new(),
            send_failures: Vec::new(),
            deliveries: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            clock_violation: None,
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
        };
        (art, procs)
    }

    #[test]
    fn a_resync_round_on_a_null_plan_is_a_violation() {
        let (mut art, on) = artifacts();
        art.plan_is_null = true;
        assert_eq!(check(&art), Vec::<String>::new());
        let resync = |proc| CounterSnapshot {
            proc,
            layer: Layer::Group,
            name: "resync",
            count: 1,
            total: 0,
        };
        art.counters = vec![resync(on[0]), resync(on[1])];
        assert_eq!(
            check(&art),
            ["null plan but the sequencer resynced (2 rounds)"]
        );
    }

    #[test]
    fn one_backwards_event_is_one_violation() {
        let (mut art, on) = artifacts();
        art.clock_violation = Some(ClockViolation {
            proc: on[1],
            prev: SimTime::from_nanos(60),
            at: SimTime::from_nanos(40),
            layer: Layer::Rpc,
            name: "tx",
        });
        assert_eq!(
            check(&art),
            ["clock ran backwards on p1: 60 -> 40 ns at rpc/tx"]
        );
    }
}
