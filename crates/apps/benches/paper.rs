//! Regenerates the paper's Tables 1–3 and its Section 4 accounting as six
//! markdown blocks (`table1`, `table2`, `budget`, `ablation`, `sensitivity`
//! and `table3`), prints them, and rewrites each in EXPERIMENTS.md between
//! its `<!-- paper:NAME -->` and `<!-- /paper:NAME -->` markers.
//!
//! Run with `cargo bench -p apps --bench paper`. Pass `-- --jobs N` to run the
//! independent simulations on N worker threads (default: one per core);
//! every block is identical for any job count, so
//! `git diff --exit-code -- EXPERIMENTS.md` afterwards checks that the
//! recorded numbers are current.

use std::fmt::Write;

use amoeba::CostModel;
use apps::paper::{
    self, budget_total, derive_budget, group_latency, group_span, group_trace, paper_table3,
    rpc_latency, rpc_span, rpc_trace, run_app, Mechanism, RpcTraceRun, Scale, PAPER_SECTION4,
    PAPER_SECTION4_GAP_US, PAPER_TABLE1, PAPER_TABLE2, TABLE3_APPS,
};
use apps::{AppReport, ProtoImpl};
use desim::par::par_map;
use desim::{SimDuration, SimTime};
use panda::world::Stack;

fn main() {
    let jobs = paper::jobs_from_args(std::env::args().skip(1));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let mut emit = |name: &str, body: String| {
        println!("<!-- paper:{name} -->\n{body}");
        doc = paper::splice(&doc, name, &body);
    };
    let cost = CostModel::default();
    emit("table1", table1(&cost, jobs));
    emit("table2", table2(&cost, jobs));
    emit("budget", budget(&cost));
    emit("ablation", ablation(&cost, jobs));
    emit("sensitivity", sensitivity(&cost, jobs));
    emit("table3", table3(jobs));
    std::fs::write(path, doc).expect("write EXPERIMENTS.md");
}

fn table1(cost: &CostModel, jobs: usize) -> String {
    let rows = paper::table1(cost, jobs);
    let mut s = String::from(
        "| size | unicast | multicast | RPC user | RPC kernel | group user | group kernel |\n\
         |------|---------|-----------|----------|------------|------------|--------------|\n",
    );
    for (r, p) in rows.iter().zip(&PAPER_TABLE1) {
        let cells = [
            (r.unicast_user_ms, p.unicast_user_ms),
            (r.multicast_user_ms, p.multicast_user_ms),
            (r.rpc_user_ms, p.rpc_user_ms),
            (r.rpc_kernel_ms, p.rpc_kernel_ms),
            (r.group_user_ms, p.group_user_ms),
            (r.group_kernel_ms, p.group_kernel_ms),
        ];
        let _ = write!(s, "| {} KB |", r.size / 1024);
        for (sim, paper) in cells {
            let _ = write!(s, " {sim:.2} ({paper:.2}) |");
        }
        s.push('\n');
    }
    let (r0, p0) = (&rows[0], &PAPER_TABLE1[0]);
    let (paper_rpc, paper_group) = PAPER_SECTION4_GAP_US;
    let _ = write!(
        s,
        "\n- null-RPC gap (user − kernel): {:+.2} ms (paper {:+.2} ms)\n\
         - null-group gap (user − kernel): {:+.2} ms (paper {:+.2} ms)\n\
         - multicast / unicast at 0 KB: {:.2} / {:.2} ms (paper {:.2} / {:.2} ms)\n",
        r0.rpc_user_ms - r0.rpc_kernel_ms,
        paper_rpc / 1000.0,
        r0.group_user_ms - r0.group_kernel_ms,
        paper_group / 1000.0,
        r0.multicast_user_ms,
        r0.unicast_user_ms,
        p0.multicast_user_ms,
        p0.unicast_user_ms,
    );
    s
}

fn table2(cost: &CostModel, jobs: usize) -> String {
    let (t, p) = (paper::table2(cost, jobs), PAPER_TABLE2);
    let mut s = String::from("| | simulated | paper |\n|---|---|---|\n");
    for (label, sim, paper) in [
        ("RPC, user-space", t.rpc_user_kbs, p.rpc_user_kbs),
        ("RPC, kernel-space", t.rpc_kernel_kbs, p.rpc_kernel_kbs),
        ("group, user-space", t.group_user_kbs, p.group_user_kbs),
        (
            "group, kernel-space",
            t.group_kernel_kbs,
            p.group_kernel_kbs,
        ),
    ] {
        let _ = writeln!(s, "| {label} | {sim:.0} | {paper:.0} |");
    }
    let _ = write!(
        s,
        "\n- RPC kernel / user: {:.2} (paper {:.2})\n\
         - group user / kernel: {:.2} (paper {:.2})\n",
        t.rpc_kernel_kbs / t.rpc_user_kbs,
        p.rpc_kernel_kbs / p.rpc_user_kbs,
        t.group_user_kbs / t.group_kernel_kbs,
        p.group_user_kbs / p.group_kernel_kbs,
    );
    s
}

fn budget(cost: &CostModel) -> String {
    let mut s = String::new();
    for stack in [Stack::Kernel, Stack::User] {
        let run = rpc_trace(0, stack, cost, 1);
        let span = rpc_span(&run.events).expect("span present");
        budget_table(&mut s, "Null RPC", stack, &run, span, |m| m.rpc_us);
        let run = group_trace(0, stack, cost, 1);
        let span = group_span(&run.events).expect("span present");
        budget_table(&mut s, "Null group send", stack, &run, span, |m| m.group_us);
    }
    s
}

/// One budget table. A user-stack table names, per term, the Section 4
/// mechanism it charges and the paper's figure for it (user − kernel).
fn budget_table(
    s: &mut String,
    op: &str,
    stack: Stack,
    run: &RpcTraceRun,
    (from, to): (SimTime, SimTime),
    paper: fn(&Mechanism) -> Option<f64>,
) {
    let lines = derive_budget(&run.events, from, to);
    let (span, total) = (
        run.latency.as_micros_f64(),
        budget_total(&lines).as_micros_f64(),
    );
    let user = stack == Stack::User;
    let _ = write!(
        s,
        "{}**{op}, {}-space stack**: span {span:.1} µs, accounted {total:.1} µs ({:.1}%).\n\n\
         | layer | term | count | µs |{}\n|---|---|---:|---:|{}\n",
        if s.is_empty() { "" } else { "\n" },
        stack.name(),
        100.0 * total / span,
        if user {
            " paper §4.2 (user − kernel) |"
        } else {
            ""
        },
        if user { "---|" } else { "" },
    );
    for l in &lines {
        let _ = write!(
            s,
            "| {} | {} | {} | {:.1} |",
            l.layer,
            l.name,
            l.count,
            l.total.as_micros_f64()
        );
        if user {
            let mechanism = PAPER_SECTION4
                .iter()
                .find(|m| m.terms.contains(&l.name))
                .and_then(|m| paper(m).map(|us| format!(" {} ~{us:.0}", m.name)));
            let _ = write!(s, "{} |", mechanism.unwrap_or_default());
        }
        s.push('\n');
    }
}

fn approx(us: Option<f64>) -> String {
    us.map_or_else(|| "-".into(), |v| format!("~{v:.0}"))
}

/// Null-message latencies (µs) under each cost model:
/// `[RPC user, RPC kernel, group user, group kernel]`.
fn nulls(costs: &[CostModel], jobs: usize) -> Vec<[f64; 4]> {
    let cells = par_map(jobs, costs.len() * 4, |i| {
        let (cost, stack) = (&costs[i / 4], [Stack::User, Stack::Kernel][i % 2]);
        let d = if i % 4 < 2 {
            rpc_latency(0, stack, cost)
        } else {
            group_latency(0, stack, cost)
        };
        d.as_micros_f64()
    });
    cells.chunks(4).map(|c| [c[0], c[1], c[2], c[3]]).collect()
}

fn ablation(base: &CostModel, jobs: usize) -> String {
    let mut costs = vec![base.clone(), CostModel::free()];
    costs.extend(PAPER_SECTION4.iter().map(|m| {
        let mut c = base.clone();
        (m.zero)(&mut c);
        c
    }));
    let n = nulls(&costs, jobs);
    let ([rpc_u, rpc_k, grp_u, grp_k], free) = (n[0], n[1]);
    let (paper_rpc, paper_group) = PAPER_SECTION4_GAP_US;
    let mut s = format!(
        "Baseline gaps (user − kernel, null messages): RPC {:+.0} µs (paper {paper_rpc:+.0}), \
         group {:+.0} µs (paper {paper_group:+.0}).\n\n\
         | mechanism zeroed | ΔRPC µs | paper | Δgroup µs | paper |\n\
         |---|---:|---:|---:|---:|\n",
        rpc_u - rpc_k,
        grp_u - grp_k,
    );
    for (m, z) in PAPER_SECTION4.iter().zip(&n[2..]) {
        let _ = writeln!(
            s,
            "| {} | {:+.0} | {} | {:+.0} | {} |",
            m.name,
            rpc_u - z[0],
            approx(m.rpc_us),
            grp_u - z[2],
            approx(m.group_us),
        );
    }
    let _ = writeln!(
        s,
        "\nEvery mechanism cost zeroed (`CostModel::free()`): null RPC user {:.0} µs, \
         kernel {:.0} µs, kernel − user {:+.0} µs.",
        free[0],
        free[1],
        free[1] - free[0],
    );
    s
}

fn sensitivity(base: &CostModel, jobs: usize) -> String {
    type Field = fn(&mut CostModel) -> &mut SimDuration;
    let sweeps: [(&str, Field); 2] = [
        ("context switch", |c| &mut c.context_switch),
        ("register-window trap", |c| &mut c.window_trap),
    ];
    // Each field at 0, ½, 1, 2 and 4 times its default; nothing else moves.
    const HALVES: [u64; 5] = [0, 1, 2, 4, 8];
    let swept = |field: Field, h: u64| {
        let mut c = base.clone();
        let f = field(&mut c);
        *f = SimDuration::from_nanos(f.as_nanos() * h / 2);
        c
    };
    let costs: Vec<CostModel> = sweeps
        .iter()
        .flat_map(|&(_, field)| HALVES.map(|h| swept(field, h)))
        .collect();
    let n = nulls(&costs, jobs);
    let mut s = String::new();
    for (k, &(name, field)) in sweeps.iter().enumerate() {
        let _ = write!(
            s,
            "{}| {name} µs | RPC user ms | RPC kernel ms | gap µs |\n|---:|---:|---:|---:|\n",
            if k == 0 { "" } else { "\n" }
        );
        for (j, h) in HALVES.into_iter().enumerate() {
            let i = k * HALVES.len() + j;
            let [user, kernel, _, _] = n[i];
            let _ = writeln!(
                s,
                "| {:.0}{} | {:.2} | {:.2} | {:.0} |",
                field(&mut costs[i].clone()).as_micros_f64(),
                if h == 2 { " (default)" } else { "" },
                user / 1000.0,
                kernel / 1000.0,
                user - kernel,
            );
        }
    }
    s
}

const NODE_COUNTS: [u32; 4] = [1, 8, 16, 32];

fn impls_for(app: &str) -> &'static [ProtoImpl] {
    if app == "leq" {
        &[
            ProtoImpl::KernelSpace,
            ProtoImpl::UserSpace,
            ProtoImpl::UserSpaceDedicated,
        ]
    } else {
        &[ProtoImpl::KernelSpace, ProtoImpl::UserSpace]
    }
}

fn table3(jobs: usize) -> String {
    // Every (app, implementation, nodes) run is an independent simulation:
    // fan them all out at once, then render in table order.
    let combos: Vec<(&str, ProtoImpl, u32)> = TABLE3_APPS
        .iter()
        .flat_map(|&app| {
            impls_for(app)
                .iter()
                .flat_map(move |&imp| NODE_COUNTS.iter().map(move |&nodes| (app, imp, nodes)))
        })
        .collect();
    let reports: Vec<AppReport> = par_map(jobs, combos.len(), |i| {
        let (app, imp, nodes) = combos[i];
        run_app(app, imp, nodes, Scale::Paper)
    });
    let secs = |app: &str, imp: ProtoImpl, nodes: u32| {
        let i = combos
            .iter()
            .position(|&c| c == (app, imp, nodes))
            .expect("cell ran");
        reports[i].elapsed.as_secs_f64()
    };
    let mut s = String::from(
        "| app | implementation | 1 | 8 | 16 | 32 | speedup |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let mut errors = Vec::new();
    for app in TABLE3_APPS {
        let sums: Vec<i64> = (combos.iter().zip(&reports))
            .filter(|((a, _, _), _)| *a == app)
            .map(|(_, r)| r.checksum)
            .collect();
        assert!(
            sums.iter().all(|c| *c == sums[0]),
            "{app}: all implementations and node counts must agree on the result"
        );
        for &imp in impls_for(app) {
            let _ = write!(s, "| {app} | {imp} |");
            let mut best = f64::INFINITY;
            for nodes in NODE_COUNTS {
                let (sim, paper) = (secs(app, imp, nodes), paper_cell(app, imp, nodes));
                best = best.min(sim);
                if nodes > 1 {
                    errors.push((sim - paper).abs() / paper);
                }
                let _ = write!(s, " {sim:.1} ({paper:.0}) |");
            }
            let _ = writeln!(s, " {:.1}× |", secs(app, imp, 1) / best);
        }
    }
    let _ = write!(
        s,
        "\nMean |sim − paper| / paper over the {} multi-node cells: {:.1}%.\n\n\
         | app | user / kernel at 32, sim | paper |\n|---|---:|---:|\n",
        errors.len(),
        100.0 * errors.iter().sum::<f64>() / errors.len() as f64,
    );
    let ratio = |f: &dyn Fn(&str, ProtoImpl, u32) -> f64, app| {
        f(app, ProtoImpl::UserSpace, 32) / f(app, ProtoImpl::KernelSpace, 32)
    };
    for app in TABLE3_APPS {
        let _ = writeln!(
            s,
            "| {app} | {:.2} | {:.2} |",
            ratio(&secs, app),
            ratio(&paper_cell, app)
        );
    }
    s
}

fn paper_cell(app: &str, imp: ProtoImpl, nodes: u32) -> f64 {
    paper_table3(app, imp, nodes).expect("the paper has every Table 3 cell")
}
