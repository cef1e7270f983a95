//! `chaos-explore` — the seed-sweeping chaos explorer.
//!
//! Sweep mode (default): run randomized fault plans for many seeds on both
//! Panda stacks, checking protocol invariants after every run. Exit code 1
//! if any seed fails or any determinism spot-check diverges.
//!
//! Single-seed mode (`--seed N`): run one seed twice, print the fault plan,
//! outcome, violations, and both trace hashes.
//!
//! ```text
//! chaos-explore [--seeds N] [--seed-start N] [--seed N] [--jobs N]
//!               [--stack kernel|user|user-dedicated|both] [--shards N|auto]
//!               [--rpcs N] [--broadcasts N] [--max-virtual-ms N]
//!               [--verify-every N] [--no-minimize] [--verbose]
//! ```
//!
//! `--jobs N` runs the sweep on N worker threads (`0` = one per core);
//! results are reduced in seed order, so output, exit code, and every trace
//! hash are identical for any job count.
//!
//! `--shards N` sets the windowed-driver runner-thread count every
//! simulation in the sweep uses (`auto` or `0` = one per core). Chaos
//! topologies are single-lane today, so any shard count executes the same
//! schedule — the flag exists to prove exactly that: trace hashes are
//! shard-count independent.

use std::process::ExitCode;

use chaos::explore::{explore, repro_command, ExploreOptions};
use chaos::{run_chaos, ChaosConfig, Stack};
use desim::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos-explore [--seeds N] [--seed-start N] [--seed N] [--jobs N]\n\
         \u{20}                    [--stack kernel|user|user-dedicated|both] [--shards N|auto]\n\
         \u{20}                    [--rpcs N] [--broadcasts N] [--max-virtual-ms N]\n\
         \u{20}                    [--verify-every N] [--no-minimize] [--verbose]"
    );
    std::process::exit(2);
}

fn parse_u64(v: Option<String>) -> u64 {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => n,
        None => usage(),
    }
}

fn main() -> ExitCode {
    let mut opts = ExploreOptions::default();
    let mut single_seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => opts.seeds = parse_u64(args.next()),
            "--seed-start" => opts.seed_start = parse_u64(args.next()),
            "--seed" => single_seed = Some(parse_u64(args.next())),
            "--stack" => {
                opts.stacks = match args.next().as_deref() {
                    Some("kernel") => vec![Stack::Kernel],
                    Some("user") => vec![Stack::User],
                    Some("user-dedicated") => vec![Stack::UserDedicated],
                    Some("both") => vec![Stack::Kernel, Stack::User],
                    _ => usage(),
                }
            }
            "--rpcs" => opts.rpcs = parse_u64(args.next()),
            "--broadcasts" => opts.broadcasts = parse_u64(args.next()),
            "--max-virtual-ms" => {
                opts.max_virtual = SimDuration::from_millis(parse_u64(args.next()))
            }
            "--jobs" => opts.jobs = parse_u64(args.next()) as usize,
            "--shards" => match args.next().as_deref() {
                Some("auto") => desim::set_shards_override(Some(0)),
                Some(s) => match s.parse::<usize>() {
                    Ok(n) => desim::set_shards_override(Some(n)),
                    Err(_) => usage(),
                },
                None => usage(),
            },
            "--verify-every" => opts.verify_every = parse_u64(args.next()),
            "--no-minimize" => opts.minimize = false,
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if let Some(seed) = single_seed {
        let mut failed = false;
        for &stack in &opts.stacks {
            let cfg =
                ChaosConfig::for_seed(stack, seed, opts.rpcs, opts.broadcasts, opts.max_virtual);
            println!("stack {}, seed {seed}, fault plan:", stack.name());
            print!("{}", cfg.plan);
            let a = run_chaos(&cfg);
            let b = run_chaos(&cfg);
            println!(
                "  outcome: {:.2} ms, {} events, rpc {}/{} ok, broadcasts {} ok, \
                 recovery traffic {}",
                a.final_time_ns as f64 / 1e6,
                a.events,
                a.rpc_ok,
                cfg.rpcs,
                a.bcast_ok,
                a.recovery_traffic
            );
            println!(
                "  trace hash: {:016x} (re-run: {:016x})",
                a.trace_hash, b.trace_hash
            );
            if a.trace_hash != b.trace_hash {
                println!("  NONDETERMINISTIC");
                failed = true;
            }
            if a.violations.is_empty() {
                println!("  invariants: all hold");
            } else {
                failed = true;
                println!("  violations:");
                for v in &a.violations {
                    println!("    - {v}");
                }
                println!("  repro: {}", repro_command(&cfg));
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let wall_start = std::time::Instant::now();
    let summary = explore(&opts);
    let wall = wall_start.elapsed();
    println!(
        "chaos-explore: {} runs, {} failures, {} nondeterministic, \
         {} null plans, recovery traffic {}, aggregate {:016x}",
        summary.runs,
        summary.failures.len(),
        summary.nondeterministic.len(),
        summary.null_plans,
        summary.recovery_traffic,
        summary.aggregate_hash()
    );
    // Peak resident set next to the throughput: every world is dropped
    // when its run ends, so a long sweep must show this flat.
    let peak_rss = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            Some(format!(", peak RSS {}", line["VmHWM:".len()..].trim()))
        })
        .unwrap_or_default();
    println!(
        "chaos-explore: {} jobs, {:.2}s wall, {:.1} seeds/sec{peak_rss}",
        desim::par::effective_jobs(opts.jobs),
        wall.as_secs_f64(),
        summary.runs as f64 / wall.as_secs_f64().max(1e-9)
    );
    if summary.failures.is_empty() && summary.nondeterministic.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
