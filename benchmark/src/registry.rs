//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer metric names. `BENCHMARK.json`
//! at the repository root is rendered from here (`benchmark manifest`) and a
//! unit test keeps the two identical.

use crate::spans::json_escape;
use crate::stats::Better::{self, Higher, Lower};

pub const DEFAULT_SEED: u64 = 1995;
/// Never used while the harness was calibrated; claims must hold on it too.
pub const HOLDOUT_SEED: u64 = 2718;
pub const RUN_SECONDS: u64 = 8;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "sched_micro",
        why: "desim only, no network: hand-off, timer wake, 10k-deep wheel, thread lifecycle; the bypass workload for every protocol-layer change",
    },
    WorkloadDef {
        name: "proto_pair",
        why: "the paper's Tables 1-2 worlds on both stacks, closed loop: null and 4 KB cells are per-packet bound, 8000 B streams are fragmentation and copy bound",
    },
    WorkloadDef {
        name: "orca_group",
        why: "ASP-32 and LEQ-8 at paper scale on both stacks: Orca RTS over totally ordered broadcast and multicast fan-out; holds the largest known fidelity gaps",
    },
    WorkloadDef {
        name: "orca_rpc",
        why: "RL-32 and SOR-32 at paper scale on both stacks: the same Orca and switch layers driven by unicast RPC and continuations, zero broadcasts",
    },
    WorkloadDef {
        name: "fleet_kernel",
        why: "1024-machine think-time client fleet on the kernel stack over 8 lanes: window engine, deep timer wheel, switch tree, topology builder; boot is real set-up work",
    },
    WorkloadDef {
        name: "fleet_user",
        why: "the same fleet on the user stack: about 7x the events per op and half the events per window, so window overhead dominates",
    },
    WorkloadDef {
        name: "chaos_sweep",
        why: "1500 seeded fault plans on each stack as chaos-explore runs them: thousands of tiny worlds, so build, teardown, fault paths and retransmit timers dominate",
    },
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics carry none.
    pub bound: Option<f64>,
    /// Deterministic per seed (a virtual time or a count the program makes):
    /// two runs of one seed must report bit-equal values.
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
        exact: name.starts_with("virt_"),
    }
}

/// Metrics a user of the system sees, defined and non-zero on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        // Host times drift by 10-25 % over minutes on the shared sandbox the
        // bounds were measured on (README): a bound below the spread would
        // resolve nothing.
        e2e("wall_s", "s", Lower, 0.25),
        e2e("cpu_s", "s", Lower, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("peak_rss_mb", "MiB", Lower, 0.10),
        // Between seeds the fleets' op counts differ by about 2 %.
        e2e("virt_time_s", "virt_s", Lower, 0.08),
    ]
}

/// The cost-model terms of one null RPC, as the trace names them.
pub const BUDGET_TERMS: [&str; 12] = [
    "protocol_layer",
    "wire",
    "syscall",
    "switch",
    "interrupt",
    "kernel_packet_send",
    "kernel_packet_recv",
    "user_deliver",
    "window_trap",
    "flip_user_interface",
    "fragmentation_layer",
    "copy",
];

/// The `orca_*` cells, in run order (`orca_group` then `orca_rpc`).
pub const APP_CELLS: [&str; 8] = [
    "asp-32k", "asp-32u", "leq-8k", "leq-8u", "rl-32k", "rl-32u", "sor-32k", "sor-32u",
];

/// Metrics of single layers; reported by the traced run, zero where a
/// workload does not reach the layer.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = Vec::new();
    // Host-clock units; everything else is a virtual time or a count the
    // simulated program makes, hence exact. The named exceptions are counts
    // or shares that depend on the host.
    const HOST_UNITS: [&str; 5] = ["s", "ms", "us", "ns", "x"];
    const HOST_NAMES: [&str; 5] = [
        "desim.trace.overhead_pct",
        "desim.shard.host_cores",
        "apps.fleet.bytes_per_machine",
        "orca.host_us_per_remote_op",
        "attrib.residual_pct",
    ];
    let mut add = |name: String, unit: &'static str, better: Better| {
        let exact = !HOST_UNITS.contains(&unit) && !HOST_NAMES.contains(&name.as_str());
        out.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
            exact,
        })
    };
    // The four end-to-end metrics of the issue that exist on some workloads
    // only: the contract wants every end-to-end metric on every workload, so
    // they are reported here, unbounded.
    add("virt_paper_err_pct".into(), "%", Lower);
    add("virt_p50_us".into(), "virt_us", Lower);
    add("virt_p99_us".into(), "virt_us", Lower);
    add("virt_ops_per_s".into(), "1/virt_s", Higher);

    add("desim.events".into(), "count", Lower);
    for name in [
        "ns_per_event",
        "handoff_ns",
        "timer_wake_ns",
        "wheel_ns_10k",
        "thread_lifecycle_ns",
    ] {
        add(format!("desim.{name}"), "ns", Lower);
    }
    for name in [
        "peak_depth",
        "near_pushes",
        "wheel_pushes",
        "overflow_pushes",
        "cascades",
    ] {
        add(format!("desim.queue.{name}"), "count", Lower);
    }
    add("desim.window.windows".into(), "count", Lower);
    add("desim.window.events_per_window".into(), "count", Higher);
    add("desim.window.flushes".into(), "count", Lower);
    add("desim.window.flushes_elided".into(), "count", Higher);
    add("desim.window.lanes_skipped".into(), "count", Higher);
    add("desim.window.overhead_ns_per_event".into(), "ns", Lower);
    add("desim.shard.speedup_2r".into(), "x", Higher);
    add("desim.shard.host_cores".into(), "count", Higher);
    add("desim.trace.overhead_pct".into(), "%", Lower);
    add("desim.trace.dropped".into(), "count", Lower);

    add("ethernet.frames".into(), "count", Lower);
    add("ethernet.wire_bytes".into(), "bytes", Lower);
    add("ethernet.host_ns_per_frame".into(), "ns", Lower);
    add("ethernet.drops".into(), "count", Lower);
    add("ethernet.seg_util_pct".into(), "%", Lower);
    for name in [
        "unicast_ns_per_frame",
        "switch_ns_per_frame",
        "fanout_ns_per_delivery",
    ] {
        add(format!("ethernet.{name}"), "ns", Lower);
    }

    add("flip.msgs_sent".into(), "count", Lower);
    add("flip.packets_sent".into(), "count", Lower);
    add("flip.frags_per_msg".into(), "ratio", Lower);
    add("flip.locates_sent".into(), "count", Lower);
    add("flip.reassembly_drops".into(), "count", Lower);
    for name in ["header_codec_ns", "msg_1frag_ns", "msg_6frag_ns"] {
        add(format!("flip.{name}"), "ns", Lower);
    }

    for stack in ["amoeba", "panda"] {
        for proto in ["rpc", "group"] {
            for cell in ["null", "4k", "stream"] {
                add(format!("{stack}.{proto}.host_us_{cell}"), "us", Lower);
            }
        }
    }
    for stack in ["amoeba", "panda"] {
        for name in ["rpc_null_us", "rpc_4k_us", "group_null_us", "group_4k_us"] {
            add(format!("virt.{stack}.{name}"), "virt_us", Lower);
        }
        for name in ["rpc_kbs", "group_kbs"] {
            add(format!("virt.{stack}.{name}"), "KB/virt_s", Higher);
        }
    }
    for stack in ["kernel", "user"] {
        for term in BUDGET_TERMS {
            add(format!("virt.budget.{stack}.{term}_us"), "virt_us", Lower);
        }
    }

    for name in [
        "ops_local",
        "rpcs",
        "broadcasts",
        "continuations_queued",
        "continuations_resumed",
    ] {
        add(format!("orca.{name}"), "count", Lower);
    }
    add("orca.host_us_per_remote_op".into(), "us", Lower);
    add("orca.wire_codec_ns".into(), "ns", Lower);

    add("apps.compute_s".into(), "s", Lower);
    for cell in APP_CELLS {
        add(format!("apps.cell.{cell}.wall_s"), "s", Lower);
        add(format!("apps.cell.{cell}.virt_s"), "virt_s", Lower);
    }
    add("apps.fleet.boot_us_per_machine".into(), "us", Lower);
    add("apps.fleet.bytes_per_machine".into(), "bytes", Lower);
    add("apps.fleet.ops".into(), "count", Higher);
    add("apps.fleet.timeouts".into(), "count", Lower);
    add("apps.fleet.group_sends".into(), "count", Higher);
    add("apps.fleet.events_per_op".into(), "count", Lower);

    add("chaos.runs".into(), "count", Higher);
    add("chaos.violations".into(), "count", Lower);
    add("chaos.recovery_traffic".into(), "count", Lower);
    add("chaos.events_per_run".into(), "count", Lower);
    add("chaos.run_ms_p50".into(), "ms", Lower);
    add("chaos.run_ms_p99".into(), "ms", Lower);
    add("chaos.kernel_wall_s".into(), "s", Lower);
    add("chaos.user_wall_s".into(), "s", Lower);

    add("attrib.residual_pct".into(), "%", Lower);
    out
}

fn json_strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"command\": {},\n", json_strings(&COMMAND)));
    s.push_str(&format!("  \"paths\": {},\n", json_strings(&PATHS)));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json_escape(w.why)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let e2e: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        layers.join(",\n")
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(layers.len(), 128, "the per-layer cap is 128");
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(layers.iter()) {
            assert!(name_ok(&m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_owned()), "{} used twice", w.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_rendered_from_the_registry() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
        );
    }
}
