//! The repo's benchmark: one command that runs seven workloads, prints every
//! end-to-end and per-layer metric by name with its unit, and checks outputs.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark selfcheck [--seed N] [--seconds S]
//! benchmark spread [--workload W] [--seed N] [--seconds S]
//! benchmark manifest
//! ```
//!
//! `run --workload W` measures one workload, every rep in a process of its
//! own (`benchmark rep`, see `harness`), and ends with the one-line JSON
//! result the driver reads. Without `--workload` it runs every workload,
//! untraced and traced. It claims no gain; it is the ruler.

mod attrib;
mod harness;
mod host;
mod probes;
mod registry;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use harness::{Metrics, Reading, Rep, RepKind, RunOpts};
use registry::{MetricDef, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use spans::Spans;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \u{20}      benchmark selfcheck [--seed N] [--seconds S]\n\
         \u{20}      benchmark spread [--workload W] [--seed N] [--seconds S]\n\
         \u{20}      benchmark manifest\n\
         \u{20}      benchmark rep <workload> <seed> <plain|traced>   (internal: one rep process)\n\
         workloads: {}\n\
         default seed {DEFAULT_SEED}, hold-out seed {}",
        WORKLOADS.map(|w| w.name).join(" "),
        registry::HOLDOUT_SEED
    );
    ExitCode::from(2)
}

fn known_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

struct Cli {
    workload: Option<String>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workload: None,
        opts: RunOpts {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = it.next()?;
                if !known_workload(w) {
                    eprintln!("unknown workload {w}");
                    return None;
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.opts.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cli.opts.seconds = it.next()?.parse().ok().filter(|s: &f64| s.is_finite())?
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            _ => return None,
        }
    }
    Some(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "manifest" if rest.is_empty() => {
            print!("{}", registry::manifest_json());
            ExitCode::SUCCESS
        }
        "run" => match parse(rest) {
            Some(Cli {
                workload: Some(w),
                opts,
            }) => run_one(&w, &opts),
            Some(Cli {
                workload: None,
                opts,
            }) => run_all(&opts),
            None => usage(),
        },
        "rep" => match rest {
            [workload, seed, kind] => match (seed.parse(), RepKind::parse(kind)) {
                (Ok(seed), Some(kind)) if known_workload(workload) => {
                    rep_process(workload, seed, kind)
                }
                _ => usage(),
            },
            _ => usage(),
        },
        "spread" => match parse(rest) {
            Some(Cli { workload, opts }) if !opts.trace => spread(workload.as_deref(), &opts, 10),
            _ => usage(),
        },
        "selfcheck" => match parse(rest) {
            Some(Cli {
                workload: None,
                opts,
            }) if !opts.trace => selfcheck(&opts),
            _ => usage(),
        },
        _ => usage(),
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

fn fmt_reading(r: &Reading) -> String {
    format!("min {:.6} max {:.6} n={}", r.min, r.max, r.n)
}

/// One metric line. The value carries all its digits (`{}` of an `f64` reads
/// back to the same bits): `selfcheck` and `spread` parse these lines.
fn print_metric(kind: &str, def: &MetricDef, value: f64, note: &str) {
    println!(
        "{kind:<5} {:<40} {value:>22} {:<10} {note}",
        def.name, def.unit
    );
}

/// `benchmark rep <workload> <seed> <plain|traced>`: one rep process. Reads
/// the layer probes' unit costs (`name value` lines, none in an untraced
/// pass) from standard input and prints the rep as `Rep::to_lines`.
fn rep_process(workload: &str, seed: u64, kind: RepKind) -> ExitCode {
    host::pin_host_shape();
    let units: Metrics = std::io::read_to_string(std::io::stdin())
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
        .collect();
    let mut spans = Spans::new(kind == RepKind::Traced);
    let mut rep = workloads::rep(workload, seed, kind, &units, &mut spans);
    rep.spans = spans.spans().to_vec();
    print!("{}", rep.to_lines());
    ExitCode::SUCCESS
}

fn spawn_rep(workload: &str, seed: u64, kind: RepKind, units: &Metrics) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let mut child = Command::new(exe)
        .args(["rep", workload, &seed.to_string(), kind.as_str()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the rep process: {e}"))?;
    let unit_lines: String = units.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    // Dropping the handle closes the pipe, which ends the child's read.
    let sent = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(unit_lines.as_bytes());
    let output = child
        .wait_with_output()
        .map_err(|e| format!("waiting for the rep process: {e}"))?;
    sent.map_err(|e| format!("sending unit costs to the rep process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the rep process ended with {}", output.status));
    }
    Rep::from_lines(&String::from_utf8_lossy(&output.stdout))
        .ok_or_else(|| "the rep process printed no readable result".to_owned())
}

/// Rep processes are started while the run has measured for less than
/// `--seconds`, but never after this much host time: the driver gives a run
/// 180 s.
const RUN_HARD_CAP_S: f64 = 120.0;

/// Spawns rep processes until their timed sections add up to `--seconds`
/// (and the minimum count is reached); a traced pass alternates plain and
/// traced reps, so both kinds see the same machine state.
fn collect_reps(
    workload: &str,
    opts: &RunOpts,
    units: &Metrics,
    spans: &mut Spans,
) -> Result<Vec<Rep>, String> {
    let started = std::time::Instant::now();
    let min_reps = if opts.trace {
        harness::TRACED_PASS_REPS
    } else {
        harness::MIN_REPS
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    while reps.len() < min_reps
        || (spent < opts.seconds && started.elapsed().as_secs_f64() < RUN_HARD_CAP_S)
    {
        let kind = if opts.trace && reps.len() % 2 == 1 {
            RepKind::Traced
        } else {
            RepKind::Plain
        };
        spans.set_rep(reps.len() as u32 + 1);
        let rep = spans.scope(&format!("rep process ({})", kind.as_str()), |s| {
            let rep = spawn_rep(workload, opts.seed, kind, units)?;
            s.adopt(&rep.spans);
            Ok::<Rep, String>(rep)
        })?;
        spent += rep.wall_s;
        reps.push(rep);
    }
    Ok(reps)
}

fn run_one(workload: &str, opts: &RunOpts) -> ExitCode {
    let unset = host::pin_host_shape();
    println!(
        "# benchmark workload={workload} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# host {}", host::describe_shape(&unset));

    // Traced pass: the layer probes run first, here in the parent, so that
    // every rep process can build its attribution on the same unit costs.
    let mut spans = Spans::new(opts.trace);
    let units = if opts.trace {
        spans.scope("probes", |s| probes::suite(opts.seed, s))
    } else {
        Metrics::new()
    };
    let reps = match collect_reps(workload, opts, &units, &mut spans) {
        Ok(reps) => reps,
        Err(e) => {
            println!("FAIL  {e}");
            return ExitCode::FAILURE;
        }
    };
    let measured = harness::reduce(&reps);

    // Per-layer values: the probes' unit costs, overridden by what the
    // workload's own reps report under the same name.
    let layer_defs = registry::per_layer();
    let mut layer = units;
    for (k, v) in measured.exact.iter().chain(measured.timed.iter()) {
        if k != "virt_time_s" {
            layer.insert(k.clone(), *v);
        }
    }
    let stray: Vec<&String> = layer
        .keys()
        .filter(|k| !layer_defs.iter().any(|d| &d.name == *k))
        .collect();
    assert!(
        stray.is_empty(),
        "metrics missing from the registry: {stray:?}"
    );
    if let Some(traced) = &measured.traced_wall_s {
        let base = measured.wall_s.median;
        layer.insert(
            "desim.trace.overhead_pct".into(),
            100.0 * (traced.median - base) / base,
        );
    }

    let e2e_defs = registry::end_to_end();
    let mut e2e = Metrics::new();
    e2e.insert("wall_s".into(), measured.wall_s.median);
    e2e.insert("cpu_s".into(), measured.cpu_s.median);
    e2e.insert("setup_s".into(), measured.setup_s.median);
    e2e.insert("peak_rss_mb".into(), measured.peak_rss_mb.median);
    e2e.insert(
        "virt_time_s".into(),
        measured.exact.get("virt_time_s").copied().unwrap_or(0.0),
    );

    let mut failures = measured.failures.clone();
    let mut failed = measured.failed;
    for (k, v) in e2e.iter().chain(layer.iter()) {
        if !v.is_finite() {
            failed += 1;
            failures.push(format!("{k} is not a finite number"));
        }
    }
    for d in &e2e_defs {
        if e2e[&d.name] <= 0.0 {
            failed += 1;
            failures.push(format!("end-to-end metric {} is not positive", d.name));
        }
    }

    let walls: Vec<String> = measured
        .rep_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    println!(
        "# reps untraced={} (one process each, reduced warm-up first) wall_s per rep [{}] spread (max-min)/median={:.2}%",
        measured.wall_s.n,
        walls.join(" "),
        100.0 * (measured.wall_s.max - measured.wall_s.min) / measured.wall_s.median
    );
    for d in &e2e_defs {
        let note = match d.name.as_str() {
            "wall_s" => fmt_reading(&measured.wall_s),
            "cpu_s" => fmt_reading(&measured.cpu_s),
            "setup_s" => fmt_reading(&measured.setup_s),
            "peak_rss_mb" => fmt_reading(&measured.peak_rss_mb),
            "virt_time_s" => "exact, equal on every rep".to_owned(),
            _ => String::new(),
        };
        print_metric("e2e", d, e2e[&d.name], &note);
    }
    for d in &layer_defs {
        // The untraced pass prints the per-layer values its reps produce
        // anyway; the traced pass prints all of them, zero where the
        // workload does not reach the layer.
        match layer.get(&d.name) {
            Some(v) => print_metric("layer", d, *v, ""),
            None if opts.trace => print_metric("layer", d, 0.0, "not reached by this workload"),
            None => {}
        }
    }
    if opts.trace {
        match write_trace(workload, &spans) {
            Ok(path) => println!("# trace {} spans -> {path}", spans.spans().len()),
            Err(e) => {
                failed += 1;
                failures.push(format!("writing the chrome trace failed: {e}"));
            }
        }
    }
    println!(
        "ops   ops_attempted={} ops_failed={}",
        measured.attempted, failed
    );
    for f in &failures {
        println!("FAIL  {f}");
    }

    let correct = failed == 0;
    let (defs, values) = if opts.trace {
        (&layer_defs, &layer)
    } else {
        (&e2e_defs, &e2e)
    };
    println!(
        "{}",
        result_json(correct, measured.attempted, failed, defs, values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Metrics,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(values.get(&d.name).copied().unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn write_trace(workload: &str, spans: &Spans) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, spans.chrome_json(workload))?;
    Ok(path.display().to_string())
}

// ---------------------------------------------------------------------------
// Every workload: run, selfcheck, spread
// ---------------------------------------------------------------------------

/// What the parent reads back from the metric lines a `run --workload` child
/// prints (values are printed with all their digits, so exact ones survive).
struct ChildRun {
    ok: bool,
    metrics: Metrics,
}

fn run_child(workload: &str, opts: &RunOpts, trace: bool, echo: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn the workload's child process");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Metrics::new();
    let mut out = std::io::stdout().lock();
    for line in text.lines() {
        let mut f = line.split_ascii_whitespace();
        if let (Some("e2e" | "layer"), Some(name), Some(value)) = (f.next(), f.next(), f.next()) {
            if let Ok(v) = value.parse() {
                metrics.insert(name.to_owned(), v);
            }
        }
        // The JSON line is for the driver; the parent prints the rest.
        if echo && !line.starts_with('{') {
            let _ = writeln!(out, "{line}");
        }
    }
    ChildRun {
        ok: output.status.success(),
        metrics,
    }
}

/// Runs every workload untraced then traced; returns the merged metrics per
/// workload and whether every check passed.
fn run_suite(opts: &RunOpts) -> (Vec<(&'static str, Metrics)>, bool) {
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let plain = run_child(w.name, opts, false, true);
        let traced = run_child(w.name, opts, true, true);
        ok &= plain.ok && traced.ok;
        // End-to-end numbers come from the untraced pass only.
        let mut merged = traced.metrics;
        merged.extend(plain.metrics);
        all.push((w.name, merged));
        println!();
    }
    (all, ok)
}

fn verdict(ok: bool, good: &str, bad: &str) -> ExitCode {
    println!("# benchmark: {}", if ok { good } else { bad });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(opts: &RunOpts) -> ExitCode {
    let (_, ok) = run_suite(opts);
    verdict(ok, "all checks passed", "CHECKS FAILED")
}

/// Runs the full benchmark twice and prints, per workload and metric, whether
/// the two sets agree: end-to-end host metrics within their bound either way
/// round, every virtual-time metric and exact count bit-equal. Host-time
/// per-layer readings carry no bound and are not compared.
fn selfcheck(opts: &RunOpts) -> ExitCode {
    let (first, ok1) = run_suite(opts);
    let (second, ok2) = run_suite(opts);
    let mut defs = registry::end_to_end();
    defs.extend(registry::per_layer());
    let mut agree = ok1 && ok2;
    println!(
        "{:<13} {:<40} {:>22} {:>22} {:>7}  verdict",
        "workload", "metric", "first", "second", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(second.iter()) {
        for (metric, va) in a {
            let vb = b.get(metric).copied().unwrap_or(f64::NAN);
            let (bound, pass) = match defs.iter().find(|d| &d.name == metric) {
                Some(d) if d.exact => (0.0, va.to_bits() == vb.to_bits()),
                Some(MetricDef {
                    bound: Some(bound),
                    better,
                    ..
                }) => {
                    let pass = stats::within_bound(*va, vb, *better, *bound)
                        && stats::within_bound(vb, *va, *better, *bound);
                    (*bound, pass)
                }
                _ => continue,
            };
            agree &= pass;
            println!(
                "{name:<13} {metric:<40} {va:>22} {vb:>22} {:>6.1}%  {}",
                100.0 * bound,
                if pass { "ok" } else { "DISAGREE" }
            );
        }
    }
    verdict(
        agree,
        "the two sets agree within every bound",
        "THE TWO SETS DISAGREE",
    )
}

/// The acceptance procedure for the benchmark itself: runs each workload
/// `runs` times, each time with another seed, and prints for every
/// end-to-end metric the distance between the quartiles of its values as a
/// share of their median, next to the metric's bound. A steady benchmark
/// keeps every spread below a third of the bound.
fn spread(only: Option<&str>, opts: &RunOpts, runs: u64) -> ExitCode {
    let e2e = registry::end_to_end();
    let mut ok = true;
    println!(
        "{:<13} {:<12} {:>14} {:>9} {:>7}  verdict (over {runs} seeds from {})",
        "workload", "metric", "median", "spread", "bound", opts.seed
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); e2e.len()];
        for i in 0..runs {
            let seeded = RunOpts {
                seed: opts.seed + i,
                ..*opts
            };
            let child = run_child(w.name, &seeded, false, false);
            ok &= child.ok;
            for (d, vals) in e2e.iter().zip(values.iter_mut()) {
                vals.extend(child.metrics.get(&d.name));
            }
        }
        for (d, vals) in e2e.iter().zip(&values) {
            if vals.len() < 2 {
                ok = false;
                println!("{:<13} {:<12} too few readings", w.name, d.name);
                continue;
            }
            let bound = d.bound.expect("end-to-end bound");
            let spread = stats::quartile_spread(vals);
            let constant = vals.iter().all(|v| v.to_bits() == vals[0].to_bits());
            // The set-up time's spread is exempt from the bound.
            let within = spread <= bound || d.name == "setup_s";
            ok &= within && !constant;
            println!(
                "{:<13} {:<12} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                w.name,
                d.name,
                stats::median(vals),
                100.0 * spread,
                100.0 * bound,
                if constant {
                    "CONSTANT: reads the same on every run"
                } else if spread <= bound / 3.0 {
                    "steady"
                } else if within {
                    "within the bound, above a third of it"
                } else {
                    "WIDER THAN THE BOUND"
                }
            );
        }
    }
    verdict(ok, "every spread is within its bound", "UNSTEADY OR FAILED")
}
