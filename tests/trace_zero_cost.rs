//! Acceptance tests for the tracing subsystem (ISSUE 1):
//!
//! - tracing is **zero-cost in virtual time** — enabling it changes no
//!   measured latency by a single nanosecond, and the Table 1 numbers with
//!   tracing off are bit-identical to the values recorded in EXPERIMENTS.md
//!   before the tracing layer existed;
//! - the chrome://tracing export is valid JSON carrying events from at
//!   least four layers of the stack;
//! - the trace-derived Section 4 budget agrees with the `ablation` bench's
//!   independent cost-zeroing measurement within 5%.

use amoeba::CostModel;
use apps::paper::{
    budget_total, derive_budget, group_latency, group_span, group_trace, group_world, rpc_latency,
    rpc_span, rpc_trace, rpc_world, RpcTraceRun, TABLE1_ITERS,
};
use desim::{SimDuration, SimTime, Simulation};
use panda::world::Stack;

/// The Table 1 RPC and group worlds, traced and untraced, measure the same
/// virtual time to the nanosecond.
#[test]
fn tracing_is_zero_cost_in_virtual_time() {
    let cost = CostModel::default();
    for stack in [Stack::Kernel, Stack::User] {
        for size in [0usize, 1024, 4096] {
            let rpc = |trace| rpc_world(size, stack, &cost, trace, TABLE1_ITERS, 43).0;
            assert_eq!(
                rpc(false),
                rpc(true),
                "rpc {stack:?} @ {size}: tracing must not move the virtual clock"
            );
        }
        for size in [0usize, 1024] {
            let group = |trace| group_world(size, stack, &cost, trace, TABLE1_ITERS).0;
            assert_eq!(
                group(false),
                group(true),
                "group {stack:?} @ {size}: tracing must not move the virtual clock"
            );
        }
    }
}

/// The Table 1 spot values recorded in EXPERIMENTS.md were measured before
/// the tracing layer was woven through the stack; reproducing them at the
/// documented precision pins "bit-identical with tracing off" against the
/// pre-change outputs.
#[test]
fn table1_spot_values_match_pre_tracing_documented_outputs() {
    let cost = CostModel::default();
    let ms2 = |d: SimDuration| (d.as_millis_f64() * 100.0).round() / 100.0;
    assert_eq!(ms2(rpc_latency(0, Stack::User, &cost)), 1.49);
    assert_eq!(ms2(rpc_latency(0, Stack::Kernel, &cost)), 1.26);
    assert_eq!(ms2(group_latency(0, Stack::User, &cost)), 1.60);
    assert_eq!(ms2(group_latency(0, Stack::Kernel, &cost)), 1.27);
    assert_eq!(ms2(rpc_latency(1024, Stack::User, &cost)), 2.42);
    assert_eq!(ms2(rpc_latency(1024, Stack::Kernel, &cost)), 2.18);
}

#[test]
fn disabling_tracing_discards_state_and_restores_silence() {
    let mut sim = Simulation::new(7);
    sim.enable_tracing();
    sim.disable_tracing();
    assert!(sim.trace_events().is_empty());
    assert!(sim.trace_counters().is_empty());
    assert_eq!(sim.trace_dropped(), 0);
}

#[test]
fn chrome_trace_export_is_valid_json_with_four_layers() {
    let run = rpc_trace(0, Stack::Kernel, &CostModel::default(), 1);
    json::validate(&run.chrome_json).expect("chrome trace must be valid JSON");
    for layer in ["sched", "net", "flip", "rpc"] {
        assert!(
            run.chrome_json.contains(&format!("\"cat\":\"{layer}\"")),
            "chrome trace must contain {layer}-layer events"
        );
    }
    // Spans arrive as paired Begin/End, instants carry a scope.
    assert!(run.chrome_json.contains("\"ph\":\"B\""));
    assert!(run.chrome_json.contains("\"ph\":\"E\""));
    assert!(run.chrome_json.contains("\"ph\":\"i\""));
}

fn pct_diff(a: f64, b: f64) -> f64 {
    100.0 * (a - b).abs() / b.abs().max(1e-9)
}

/// The tentpole cross-check: the budget summed from one traced null RPC
/// must agree with the `ablation` bench's methodology — re-running the
/// un-traced latency bench with one cost term zeroed and measuring the
/// drop — within 5%, term by term, on the user-space stack (whose critical
/// path has no concurrent off-path traffic, so the window sum is exact).
#[test]
fn trace_budget_agrees_with_ablation_within_5_percent() {
    let base = CostModel::default();
    let run = rpc_trace(0, Stack::User, &base, 1);
    let (from, to) = rpc_span(&run.events).expect("span");
    let lines = derive_budget(&run.events, from, to);
    let term = |name: &str| -> f64 {
        lines
            .iter()
            .filter(|l| l.name == name)
            .map(|l| l.total.as_micros_f64())
            .sum()
    };

    // The whole budget accounts for the whole measured latency.
    let accounted = budget_total(&lines).as_micros_f64();
    let measured = run.latency.as_micros_f64();
    assert!(
        pct_diff(accounted, measured) <= 5.0,
        "budget accounts {accounted:.1} us of a {measured:.1} us span"
    );

    // Term by term against the ablation deltas.
    let base_lat = rpc_latency(0, Stack::User, &base).as_micros_f64();
    let delta = |zero: &dyn Fn(&mut CostModel)| -> f64 {
        let mut c = base.clone();
        zero(&mut c);
        base_lat - rpc_latency(0, Stack::User, &c).as_micros_f64()
    };

    let checks: [(&str, f64, f64); 4] = [
        (
            "context switches",
            term("switch"),
            delta(&|c| {
                c.context_switch = SimDuration::ZERO;
                c.sequencer_thread_switch = SimDuration::ZERO;
                c.sequencer_thread_switch_dedicated = SimDuration::ZERO;
            }),
        ),
        (
            "window traps + crossings",
            term("syscall") + term("window_trap"),
            delta(&|c| {
                c.window_trap = SimDuration::ZERO;
                c.syscall_enter = SimDuration::ZERO;
            }),
        ),
        (
            "double fragmentation",
            term("fragmentation_layer"),
            delta(&|c| c.fragmentation_layer = SimDuration::ZERO),
        ),
        (
            "untuned user FLIP iface",
            term("flip_user_interface"),
            delta(&|c| c.flip_user_interface = SimDuration::ZERO),
        ),
    ];
    for (name, traced_us, ablated_us) in checks {
        assert!(
            pct_diff(traced_us, ablated_us) <= 5.0,
            "{name}: trace-derived {traced_us:.1} us vs ablation {ablated_us:.1} us"
        );
    }
}

/// Asserts a traced run's span length and its budget over `span` as exact
/// `(layer, term, count, total ns)` lines, in `derive_budget` order.
fn check(
    what: &str,
    run: RpcTraceRun,
    span: (SimTime, SimTime),
    latency_ns: u64,
    want: &[(&str, &str, u64, u64)],
) {
    assert_eq!(run.latency.as_nanos(), latency_ns, "{what}: span");
    let got: Vec<_> = derive_budget(&run.events, span.0, span.1)
        .into_iter()
        .map(|l| (l.layer.to_string(), l.name, l.count, l.total.as_nanos()))
        .collect();
    let want: Vec<_> = want
        .iter()
        .map(|&(layer, name, n, ns)| (layer.to_string(), name, n, ns))
        .collect();
    assert_eq!(got, want, "{what}: budget lines");
}

/// The Section 4 budgets of one null RPC and one null group send on each
/// stack, pinned line by line. Every cost instant inside the measured span
/// counts, so a change to where any cost is charged or attributed moves a
/// line here.
#[test]
fn section4_budgets_are_pinned() {
    let cost = CostModel::default();
    let run = rpc_trace(0, Stack::Kernel, &cost, 1);
    let span = rpc_span(&run.events).expect("span");
    // 1437.2 of 1258.0 us: the ack and the server re-arming overlap the span.
    check(
        "kernel null RPC",
        run,
        span,
        1_258_000,
        &[
            ("rpc", "protocol_layer", 4, 440_000),
            ("net", "wire", 3, 324_800),
            ("flip", "kernel_packet_recv", 3, 195_000),
            ("rpc", "kernel_packet_send", 2, 110_000),
            ("rpc", "syscall", 3, 96_000),
            ("flip", "interrupt", 3, 75_000),
            ("sched", "switch", 1, 70_000),
            ("flip", "kernel_packet_send", 1, 55_000),
            ("rpc", "window_trap", 2, 36_000),
            ("rpc", "user_deliver", 1, 35_000),
            ("rpc", "copy", 2, 400),
        ],
    );
    let run = rpc_trace(0, Stack::User, &cost, 1);
    let span = rpc_span(&run.events).expect("span");
    check(
        "user null RPC",
        run,
        span,
        1_494_000,
        &[
            ("rpc", "protocol_layer", 4, 440_000),
            ("net", "wire", 2, 227_200),
            ("flip", "syscall", 4, 224_000),
            ("sched", "switch", 2, 140_000),
            ("flip", "kernel_packet_recv", 2, 130_000),
            ("flip", "kernel_packet_send", 2, 110_000),
            ("flip", "user_deliver", 2, 70_000),
            ("flip", "flip_user_interface", 2, 50_000),
            ("flip", "interrupt", 2, 50_000),
            ("flip", "fragmentation_layer", 2, 40_000),
            ("flip", "copy", 4, 12_800),
        ],
    );
    let run = group_trace(0, Stack::Kernel, &cost, 1);
    let span = group_span(&run.events).expect("span");
    check(
        "kernel null group send",
        run,
        span,
        1_272_000,
        &[
            ("group", "protocol_layer", 4, 440_000),
            ("sched", "switch", 4, 280_000),
            ("net", "wire", 2, 208_000),
            ("flip", "kernel_packet_recv", 2, 130_000),
            ("group", "kernel_packet_send", 2, 110_000),
            ("group", "syscall", 3, 78_000),
            ("group", "user_deliver", 2, 70_000),
            ("group", "window_trap", 3, 54_000),
            ("flip", "interrupt", 2, 50_000),
        ],
    );
    let run = group_trace(0, Stack::User, &cost, 1);
    let span = group_span(&run.events).expect("span");
    check(
        "user null group send",
        run,
        span,
        1_524_800,
        &[
            ("group", "protocol_layer", 4, 440_000),
            ("sched", "switch", 4, 320_000),
            ("flip", "syscall", 5, 280_000),
            ("net", "wire", 2, 188_800),
            ("flip", "kernel_packet_recv", 2, 130_000),
            ("flip", "kernel_packet_send", 2, 110_000),
            ("flip", "user_deliver", 3, 105_000),
            ("group", "syscall", 2, 94_000),
            ("flip", "flip_user_interface", 2, 50_000),
            ("flip", "interrupt", 2, 50_000),
            ("flip", "fragmentation_layer", 1, 20_000),
            ("flip", "copy", 5, 10_000),
        ],
    );
}

/// A minimal JSON validator — the build is offline and carries no JSON
/// dependency, and the exporter emits its output by hand, so the syntax is
/// checked from first principles.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i == b.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {i}"))
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => composite(b, i, b'}', true),
            Some(b'[') => composite(b, i, b']', false),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at byte {i}")),
        }
    }

    fn composite(b: &[u8], i: &mut usize, close: u8, object: bool) -> Result<(), String> {
        *i += 1; // opening bracket
        skip_ws(b, i);
        if b.get(*i) == Some(&close) {
            *i += 1;
            return Ok(());
        }
        loop {
            if object {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
            }
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(c) if *c == close => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or close, got {other:?} at byte {i}")),
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => *i += 2,
                0x00..=0x1f => return Err(format!("raw control byte in string at {i}")),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            if !b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("bad fraction at byte {i}"));
            }
            while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
                *i += 1;
            }
        }
        if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
                *i += 1;
            }
            if !b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("bad exponent at byte {i}"));
            }
            while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
                *i += 1;
            }
        }
        if *i == start {
            return Err(format!("expected number at byte {i}"));
        }
        Ok(())
    }

    fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }
}
