//! Self-benchmark of the simulator: wall-clock ns/event on the scheduler
//! hot paths measured per execution backend (fibers and os-threads), plus
//! serial-vs-parallel chaos-sweep throughput with a bit-identical-results
//! check. Writes `BENCH_selfperf.json` at the repository root (override
//! with `SELFPERF_OUT=<path>`).
//!
//! Run with `cargo bench -p bench --bench selfperf`. Pass `-- --quick` (or
//! set `SELFPERF_QUICK=1`) for the reduced CI workload. With
//! `SELFPERF_GATE=1` the run fails on any hot-path regression of more than
//! 10% over its backend's recorded baseline, on a serial/parallel
//! determinism mismatch, or when dropped worlds stay resident.

use std::process::ExitCode;

use bench::selfperf::{
    self, memory_baselines_for, GATE_REGRESSION_FACTOR, MEMORY_GATE_FACTOR,
    RETAINED_GATE_KIB_PER_WORLD,
};

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("SELFPERF_OUT") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_selfperf.json")
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("SELFPERF_QUICK").as_deref() == Ok("1");
    let gate = std::env::var("SELFPERF_GATE").as_deref() == Ok("1");

    let report = selfperf::run(quick);
    println!(
        "selfperf ({}; {} host cores)",
        if quick { "quick" } else { "full" },
        report.host_cores
    );
    for per_backend in &report.hot_paths {
        println!("\n  backend: {}", per_backend.backend);
        for (name, hot, baseline) in per_backend.named() {
            println!(
                "    {name:<10} {:>9} events  {:>8.0} ns/event  {:>10.0} events/s  \
                 (baseline {:.0} ns/event, {:.2}x)",
                hot.events,
                hot.ns_per_event(),
                hot.events_per_sec(),
                baseline,
                baseline / hot.ns_per_event()
            );
        }
    }
    println!(
        "\n  sweep serial    {:>4} runs in {:>7.2}s  ({:.1} runs/s, jobs=1)",
        report.serial.runs,
        report.serial.wall_ns as f64 / 1e9,
        report.serial.runs_per_sec()
    );
    println!(
        "  sweep parallel  {:>4} runs in {:>7.2}s  ({:.1} runs/s, jobs={})",
        report.parallel.runs,
        report.parallel.wall_ns as f64 / 1e9,
        report.parallel.runs_per_sec(),
        report.parallel.jobs
    );
    println!(
        "  speedup {:.2}x, deterministic: {}",
        report.sweep_speedup(),
        report.deterministic()
    );
    let sc = &report.shard_scaling;
    println!(
        "  shard scaling   {:>8.0} ns/event on 1 runner, {:>8.0} ns/event on {} \
         ({:.2}x, same events: {}{})",
        sc.serial.ns_per_event(),
        sc.parallel.ns_per_event(),
        sc.runners,
        sc.speedup(),
        sc.deterministic(),
        if sc.degenerate() {
            ", degenerate: auto resolved to 1 runner on this host"
        } else {
            ""
        }
    );
    let mem = &report.memory;
    let mb = memory_baselines_for(mem.backend);
    if mem.available {
        println!("\n  memory ({} boot footprint)", mem.backend);
        for (w, baseline) in [
            (&mem.small, mb.small_bytes_per_machine),
            (&mem.large, mb.large_bytes_per_machine),
        ] {
            println!(
                "    {:>5} machines  {:>8} KiB resident  {:>8.0} bytes/machine  \
                 (baseline {:.0}, peak RSS {} KiB)",
                w.machines,
                w.rss_delta_kb,
                w.bytes_per_machine(),
                baseline,
                w.vm_hwm_kb
            );
        }
        println!(
            "    dropped worlds   {:>8.3} KiB retained per world  (gate {:.1})",
            report.retained_kib_per_world, RETAINED_GATE_KIB_PER_WORLD
        );
    } else {
        println!("\n  memory: /proc/self/status unavailable, block skipped");
    }

    let path = out_path();
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("selfperf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if gate {
        let mut failed = false;
        if !report.deterministic() {
            eprintln!("selfperf GATE: serial and parallel sweeps diverged");
            failed = true;
        }
        for per_backend in &report.hot_paths {
            for (name, hot, baseline) in per_backend.named() {
                if hot.ns_per_event() > baseline * GATE_REGRESSION_FACTOR {
                    eprintln!(
                        "selfperf GATE: [{}] {name} at {:.0} ns/event, more than \
                         {:.0}% over the {baseline:.0} ns/event baseline",
                        per_backend.backend,
                        hot.ns_per_event(),
                        (GATE_REGRESSION_FACTOR - 1.0) * 100.0
                    );
                    failed = true;
                }
            }
        }
        if mem.available {
            for (name, w, baseline) in [
                ("small", &mem.small, mb.small_bytes_per_machine),
                ("large", &mem.large, mb.large_bytes_per_machine),
            ] {
                if w.bytes_per_machine() > baseline * MEMORY_GATE_FACTOR {
                    eprintln!(
                        "selfperf GATE: [{}] memory/{name} at {:.0} bytes/machine, \
                         more than {:.0}% over the {baseline:.0} baseline",
                        mem.backend,
                        w.bytes_per_machine(),
                        (MEMORY_GATE_FACTOR - 1.0) * 100.0
                    );
                    failed = true;
                }
            }
            if report.retained_kib_per_world > RETAINED_GATE_KIB_PER_WORLD {
                eprintln!(
                    "selfperf GATE: [{}] dropped worlds retain {:.3} KiB each, more \
                     than {RETAINED_GATE_KIB_PER_WORLD:.1}: a world is not being freed",
                    mem.backend, report.retained_kib_per_world
                );
                failed = true;
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("selfperf GATE: ok");
    }
    ExitCode::SUCCESS
}
