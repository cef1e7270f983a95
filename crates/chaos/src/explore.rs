//! The seed sweep: run many fault plans, report failures with a one-line
//! repro command and a minimized plan, and spot-check determinism by
//! re-running a sample of seeds.
//!
//! Independent seeds are embarrassingly parallel, so the sweep fans runs
//! out over a [`desim::par`] worker pool (`jobs` workers) and then reduces
//! strictly in seed order: the printed report, the pass counts, and every
//! per-seed trace hash are byte-identical to a serial (`jobs = 1`) run —
//! parallelism buys wall-clock time, never different results.

use desim::par::par_map;
use desim::SimDuration;

use crate::engine::{run_chaos, ChaosConfig, ChaosOutcome, Fnv};
use crate::plan::FaultPlan;
use crate::testutil::Stack;

/// What to sweep.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stacks to run every seed on.
    pub stacks: Vec<Stack>,
    /// Number of seeds per stack.
    pub seeds: u64,
    /// First seed (sweep covers `seed_start..seed_start + seeds`).
    pub seed_start: u64,
    /// RPCs per run.
    pub rpcs: u64,
    /// Broadcasts per run.
    pub broadcasts: u64,
    /// Virtual-time budget per run.
    pub max_virtual: SimDuration,
    /// Every Nth seed is run twice and the two trace hashes compared
    /// (0 disables the determinism spot-check).
    pub verify_every: u64,
    /// Attempt greedy plan minimization for failing seeds.
    pub minimize: bool,
    /// Print per-run progress lines.
    pub verbose: bool,
    /// Worker threads for the sweep and for minimizer candidate re-runs
    /// (`0` = auto-detect, `1` = serial). Results are reduced in seed order,
    /// so any value produces identical output.
    pub jobs: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            stacks: vec![Stack::Kernel, Stack::User],
            seeds: 1000,
            seed_start: 0,
            rpcs: 10,
            broadcasts: 8,
            max_virtual: SimDuration::from_millis(500),
            verify_every: 50,
            minimize: true,
            verbose: false,
            jobs: 1,
        }
    }
}

/// One failing seed, with everything needed to reproduce and understand it.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The failing configuration.
    pub config: ChaosConfig,
    /// The violations observed.
    pub violations: Vec<String>,
    /// The minimized plan (equal to the original if minimization is off or
    /// nothing could be removed).
    pub minimized: FaultPlan,
}

/// Sweep totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreSummary {
    /// Runs completed (excluding determinism re-runs).
    pub runs: u64,
    /// Sum of recovery-traffic counters across runs (sanity signal that
    /// faults actually bit).
    pub recovery_traffic: u64,
    /// Runs whose plan was null (nothing injected).
    pub null_plans: u64,
    /// Failing seeds.
    pub failures: Vec<FailureReport>,
    /// Seeds whose determinism spot-check found diverging trace hashes.
    pub nondeterministic: Vec<(Stack, u64)>,
    /// Per-run trace hash for every `(stack, seed)` of the sweep, in sweep
    /// order. Lets callers assert that two sweeps (e.g. serial vs parallel)
    /// produced bit-identical runs.
    pub seed_hashes: Vec<(Stack, u64, u64)>,
}

impl ExploreSummary {
    /// FNV-1a over every per-run trace hash (little-endian bytes) in sweep
    /// order: one number that two sweeps share only if every run matched.
    pub fn aggregate_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for &(_, _, hash) in &self.seed_hashes {
            h.u64(hash);
        }
        h.0
    }
}

/// The one-line command that reproduces a single run.
pub fn repro_command(cfg: &ChaosConfig) -> String {
    format!(
        "cargo run --release -p chaos --bin chaos-explore -- --stack {} --seed {} \
         --rpcs {} --broadcasts {} --max-virtual-ms {}",
        cfg.stack.name(),
        cfg.seed,
        cfg.rpcs,
        cfg.broadcasts,
        cfg.max_virtual.as_millis_f64().round() as u64
    )
}

/// Greedily minimizes a failing plan serially; see [`minimize_jobs`].
pub fn minimize(cfg: &ChaosConfig) -> FaultPlan {
    minimize_jobs(cfg, 1)
}

/// Greedily minimizes a failing plan: repeatedly adopt the *first*
/// single-step simplification (in [`FaultPlan::simplifications`] order)
/// that still fails, until none does.
///
/// With `jobs > 1` every candidate of a round is re-run in parallel and the
/// first failing one (in candidate order) is adopted — the same plan the
/// serial early-exit loop adopts, so the result is independent of `jobs`.
pub fn minimize_jobs(cfg: &ChaosConfig, jobs: usize) -> FaultPlan {
    let jobs = desim::par::effective_jobs(jobs);
    let mut best = cfg.plan.clone();
    loop {
        let candidates = best.simplifications();
        let adopted = if jobs > 1 {
            let still_fails = par_map(jobs, candidates.len(), |i| {
                let mut c = cfg.clone();
                c.plan = candidates[i].1.clone();
                !run_chaos(&c).violations.is_empty()
            });
            candidates
                .into_iter()
                .zip(still_fails)
                .find(|(_, fails)| *fails)
                .map(|((_desc, plan), _)| plan)
        } else {
            candidates.into_iter().find_map(|(_desc, candidate)| {
                let mut c = cfg.clone();
                c.plan = candidate.clone();
                if !run_chaos(&c).violations.is_empty() {
                    Some(candidate)
                } else {
                    None
                }
            })
        };
        match adopted {
            Some(plan) => best = plan,
            None => return best,
        }
    }
}

fn run_one(opts: &ExploreOptions, stack: Stack, seed: u64) -> (ChaosConfig, ChaosOutcome) {
    let cfg = ChaosConfig::for_seed(stack, seed, opts.rpcs, opts.broadcasts, opts.max_virtual);
    let outcome = run_chaos(&cfg);
    (cfg, outcome)
}

/// Runs the sweep, printing progress and failures to stdout.
///
/// With `opts.jobs > 1` the runs execute on a worker pool; the reduction
/// below is strictly in seed order, so stdout and the returned summary are
/// byte-identical for every job count.
pub fn explore(opts: &ExploreOptions) -> ExploreSummary {
    let mut summary = ExploreSummary::default();
    for &stack in &opts.stacks {
        println!(
            "chaos-explore: stack {}, seeds {}..{}",
            stack.name(),
            opts.seed_start,
            opts.seed_start + opts.seeds
        );
        // Fan out: every seed's run (plus its determinism re-run, when
        // sampled) is independent.
        let results: Vec<(ChaosConfig, ChaosOutcome, Option<ChaosOutcome>)> =
            par_map(opts.jobs, opts.seeds as usize, |i| {
                let seed = opts.seed_start + i as u64;
                let (cfg, outcome) = run_one(opts, stack, seed);
                let recheck =
                    if opts.verify_every > 0 && (i as u64).is_multiple_of(opts.verify_every) {
                        Some(run_one(opts, stack, seed).1)
                    } else {
                        None
                    };
                (cfg, outcome, recheck)
            });
        // Reduce in seed order.
        let mut pass = 0u64;
        for (cfg, outcome, recheck) in results {
            let seed = cfg.seed;
            summary.runs += 1;
            summary.recovery_traffic += outcome.recovery_traffic;
            summary.seed_hashes.push((stack, seed, outcome.trace_hash));
            if cfg.plan.is_null() {
                summary.null_plans += 1;
            }
            if opts.verbose {
                println!(
                    "  seed {seed}: hash {:016x}, {:.2} ms, {} events, \
                     rpc {}/{}, recovery {}",
                    outcome.trace_hash,
                    outcome.final_time_ns as f64 / 1e6,
                    outcome.events,
                    outcome.rpc_ok,
                    cfg.rpcs,
                    outcome.recovery_traffic
                );
            }
            if outcome.violations.is_empty() {
                pass += 1;
            } else {
                println!(
                    "  seed {seed} FAILED ({} violations):",
                    outcome.violations.len()
                );
                for v in &outcome.violations {
                    println!("    - {v}");
                }
                println!("    repro: {}", repro_command(&cfg));
                let minimized = if opts.minimize {
                    let m = minimize_jobs(&cfg, opts.jobs);
                    println!("    minimized fault plan:");
                    print!("{m}");
                    m
                } else {
                    cfg.plan.clone()
                };
                summary.failures.push(FailureReport {
                    config: cfg,
                    violations: outcome.violations.clone(),
                    minimized,
                });
            }
            if let Some(again) = recheck {
                if again.trace_hash != outcome.trace_hash {
                    println!(
                        "  seed {seed} NONDETERMINISTIC: {:016x} vs {:016x}",
                        outcome.trace_hash, again.trace_hash
                    );
                    summary.nondeterministic.push((stack, seed));
                }
            }
        }
        println!(
            "  {} passed / {} seeds ({} failures)",
            pass,
            opts.seeds,
            opts.seeds - pass
        );
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::{explore, ExploreOptions};

    #[test]
    fn aggregate_hash_is_independent_of_jobs() {
        let sweep = |jobs| {
            explore(&ExploreOptions {
                seeds: 3,
                verify_every: 0,
                minimize: false,
                jobs,
                ..Default::default()
            })
            .aggregate_hash()
        };
        assert_eq!(sweep(1), sweep(4));
    }
}
