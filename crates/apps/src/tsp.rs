//! The Travelling Salesman Problem: replicated-bound branch-and-bound with a
//! central job queue (the paper's coarse-grained workhorse).
//!
//! Structure from Section 5: the frequently-read shortest-path bound is a
//! replicated object (reads are local; improvements broadcast), and workers
//! fetch jobs — depth-3 tour prefixes — from a central queue object. With 15
//! cities and a fixed first city that is exactly 14·13·12 = **2184 jobs**,
//! the number the paper reports. Superlinear speedups can occur because
//! parallel workers find good bounds early and change the pruning behaviour.

use bytes::Bytes;
use desim::{Ctx, SimDuration};
use orca::{IntHandle, ObjId, QueueHandle};

use crate::harness::{build_cluster, report, run_workers, seeded_rng, AppReport, RunConfig};

/// TSP workload parameters.
#[derive(Debug, Clone)]
pub struct TspParams {
    /// Number of cities (city 0 is the fixed start).
    pub cities: usize,
    /// Tour-prefix depth used to generate jobs.
    pub job_depth: usize,
    /// Seed for the city layout.
    pub instance_seed: u64,
    /// Virtual CPU time charged per search-tree expansion.
    pub expansion_cost: SimDuration,
    /// Expansions between bound refreshes (local replicated reads).
    pub bound_check_interval: u64,
}

impl TspParams {
    /// The paper-scale instance: 15 cities, depth-3 prefixes = 2184 jobs,
    /// calibrated so one node runs for roughly the 790 virtual seconds of
    /// Table 3.
    pub fn paper() -> Self {
        TspParams {
            cities: 15,
            job_depth: 3,
            instance_seed: 0xa,
            expansion_cost: SimDuration::from_micros(333),
            bound_check_interval: 64,
        }
    }

    /// A small instance for fast tests.
    pub fn small() -> Self {
        TspParams {
            cities: 10,
            job_depth: 2,
            instance_seed: 0x7597,
            expansion_cost: SimDuration::from_micros(200),
            bound_check_interval: 32,
        }
    }
}

/// A TSP instance: symmetric distance matrix over clustered random cities.
#[derive(Debug, Clone)]
pub struct Instance {
    n: usize,
    dist: Vec<i64>,
    min_edge: Vec<i64>,
}

impl Instance {
    /// Generates a deterministic clustered instance.
    pub fn generate(seed: u64, n: usize) -> Instance {
        let mut next = seeded_rng(seed);
        // Cities on a jittered ring: realistic enough, and branch-and-bound
        // prunes it well (a fully random or clustered layout blows the tree
        // up by orders of magnitude, which only changes the constant the
        // per-expansion cost is calibrated against).
        let pts: Vec<(i64, i64)> = (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                let jitter_x = (next() % 440) as i64 - 220;
                let jitter_y = (next() % 440) as i64 - 220;
                (
                    (500.0 + 420.0 * angle.cos()) as i64 + jitter_x,
                    (500.0 + 420.0 * angle.sin()) as i64 + jitter_y,
                )
            })
            .collect();
        let mut dist = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                let dx = (pts[i].0 - pts[j].0) as f64;
                let dy = (pts[i].1 - pts[j].1) as f64;
                dist[i * n + j] = (dx * dx + dy * dy).sqrt().round() as i64;
            }
        }
        let min_edge = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * n + j])
                    .min()
                    .expect("n >= 2")
            })
            .collect();
        Instance { n, dist, min_edge }
    }

    /// Distance between cities `i` and `j`.
    pub fn d(&self, i: usize, j: usize) -> i64 {
        self.dist[i * self.n + j]
    }

    /// A greedy nearest-neighbour tour length (the initial global bound).
    fn nearest_neighbour_bound(&self) -> i64 {
        let mut visited = 1u64;
        let mut at = 0usize;
        let mut len = 0i64;
        for _ in 1..self.n {
            let next = (0..self.n)
                .filter(|&j| visited & (1 << j) == 0)
                .min_by_key(|&j| self.d(at, j))
                .expect("unvisited city exists");
            len += self.d(at, next);
            visited |= 1 << next;
            at = next;
        }
        len + self.d(at, 0)
    }

    /// Admissible lower bound for completing a partial tour: the sum of the
    /// cheapest edges out of every unvisited city.
    fn completion_bound(&self, visited: u64) -> i64 {
        (0..self.n)
            .filter(|&j| visited & (1 << j) == 0)
            .map(|j| self.min_edge[j])
            .sum()
    }
}

/// Exact sequential solver (reference for correctness tests).
pub fn solve_sequential(inst: &Instance) -> i64 {
    let mut best = inst.nearest_neighbour_bound();
    let mut expansions = 0u64;
    dfs(inst, 0, 1, 0, &mut best, &mut expansions, &mut |_| {});
    best
}

/// Depth-first branch and bound from (`at`, `visited`, `len`).
/// `on_expand` fires per tree node so callers can charge virtual CPU.
fn dfs(
    inst: &Instance,
    at: usize,
    visited: u64,
    len: i64,
    best: &mut i64,
    expansions: &mut u64,
    on_expand: &mut impl FnMut(u64),
) {
    *expansions += 1;
    on_expand(*expansions);
    if visited.count_ones() as usize == inst.n {
        let tour = len + inst.d(at, 0);
        if tour < *best {
            *best = tour;
        }
        return;
    }
    if len + inst.completion_bound(visited) >= *best {
        return;
    }
    // Nearest-first child order: finds good tours early.
    let mut children: Vec<usize> = (0..inst.n).filter(|&j| visited & (1 << j) == 0).collect();
    children.sort_by_key(|&j| inst.d(at, j));
    for j in children {
        let l = len + inst.d(at, j);
        if l + inst.completion_bound(visited | (1 << j)) < *best {
            dfs(inst, j, visited | (1 << j), l, best, expansions, on_expand);
        }
    }
}

/// Generates all depth-`depth` tour prefixes (the job list).
fn generate_jobs(n: usize, depth: usize) -> Vec<Vec<u8>> {
    let mut jobs = Vec::new();
    let mut prefix = Vec::new();
    gen_rec(n, depth, 1u64, 0, &mut prefix, &mut jobs);
    jobs
}

fn gen_rec(
    n: usize,
    depth: usize,
    visited: u64,
    _at: usize,
    prefix: &mut Vec<u8>,
    out: &mut Vec<Vec<u8>>,
) {
    if prefix.len() == depth {
        out.push(prefix.clone());
        return;
    }
    for j in 1..n {
        if visited & (1 << j) == 0 {
            prefix.push(j as u8);
            gen_rec(n, depth, visited | (1 << j), j, prefix, out);
            prefix.pop();
        }
    }
}

const BOUND_OBJ: ObjId = ObjId(1);
const QUEUE_OBJ: ObjId = ObjId(2);
const BARRIER_OBJ: ObjId = ObjId(3);

/// Runs TSP on the given cluster configuration; returns the run report.
/// The checksum is the optimal tour length (identical across protocol
/// implementations and node counts).
pub fn run(cfg: &RunConfig, params: &TspParams) -> AppReport {
    let inst = Instance::generate(params.instance_seed, params.cities);
    let initial_bound = inst.nearest_neighbour_bound();
    let mut cluster = build_cluster(cfg);
    cluster
        .world
        .create_replicated(BOUND_OBJ, move || orca::SharedInt::new(initial_bound));
    cluster
        .world
        .create_owned(QUEUE_OBJ, 0, orca::JobQueue::new);
    let n_nodes = cluster.world.nodes();
    cluster
        .world
        .create_replicated(BARRIER_OBJ, move || orca::Barrier::new(n_nodes));
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let bound = IntHandle::new(std::sync::Arc::clone(&rts), BOUND_OBJ);
        let queue = QueueHandle::new(std::sync::Arc::clone(&rts), QUEUE_OBJ);
        if node == 0 {
            // The master enumerates the 2184 depth-3 prefixes as jobs,
            // most-promising first (smallest optimistic completion): good
            // tours surface early and the global bound prunes the rest —
            // the dynamic search-order effect behind the paper's
            // superlinear TSP speedups.
            let mut jobs = generate_jobs(inst.n, params.job_depth);
            jobs.sort_by_key(|job| {
                let (visited, at, len) = decode_job(&inst, &Bytes::from(job.clone()));
                len + inst.completion_bound(visited) + inst.d(at, 0)
            });
            for job in jobs {
                queue.add(ctx, &job).expect("add job");
            }
            queue.close(ctx).expect("close queue");
        }
        let _ = worker_loop(ctx, &inst, &params, &bound, &queue);
        // Synchronize so every node's final read sees all bound updates.
        orca::BarrierHandle::new(std::sync::Arc::clone(&rts), BARRIER_OBJ)
            .sync(ctx)
            .expect("final barrier");
        bound.read(ctx).expect("agreed optimum")
    });
    let checksum = results[0];
    for (node, r) in results.iter().enumerate() {
        assert_eq!(*r, checksum, "node {node} disagrees on the optimum");
    }
    report("tsp", cfg, &cluster, elapsed, checksum)
}

fn worker_loop(
    ctx: &Ctx,
    inst: &Instance,
    params: &TspParams,
    bound: &IntHandle,
    queue: &QueueHandle,
) -> i64 {
    let mut cached_bound;
    while let Some(job) = queue.get(ctx).expect("job fetch") {
        let (visited, at, len) = decode_job(inst, &job);
        // Prune whole jobs against the freshest bound.
        cached_bound = bound.read(ctx).expect("bound read");
        if len + inst.completion_bound(visited) >= cached_bound {
            continue;
        }
        let mut local_best = cached_bound;
        let mut expansions = 0u64;
        let mut pending = 0u64;
        {
            let interval = params.bound_check_interval;
            let mut on_expand = |_e: u64| {
                pending += 1;
                if pending >= interval {
                    ctx.compute(params.expansion_cost * pending);
                    pending = 0;
                }
            };
            dfs(
                inst,
                at,
                visited,
                len,
                &mut local_best,
                &mut expansions,
                &mut on_expand,
            );
        }
        if pending > 0 {
            ctx.compute(params.expansion_cost * pending);
        }
        if local_best < cached_bound {
            // Publish the improvement (totally ordered broadcast).
            bound.min_update(ctx, local_best).expect("bound update");
        }
    }
    bound.read(ctx).expect("final bound")
}

fn decode_job(inst: &Instance, job: &Bytes) -> (u64, usize, i64) {
    let mut visited = 1u64;
    let mut at = 0usize;
    let mut len = 0i64;
    for &c in job.iter() {
        let c = c as usize;
        len += inst.d(at, c);
        visited |= 1 << c;
        at = c;
    }
    (visited, at, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_count_matches_paper() {
        // 15 cities, depth 3: 14 * 13 * 12 = 2184 jobs (Section 5).
        assert_eq!(generate_jobs(15, 3).len(), 2184);
        assert_eq!(generate_jobs(10, 2).len(), 72);
    }

    #[test]
    fn nn_bound_is_a_valid_tour() {
        let inst = Instance::generate(1, 8);
        let nn = inst.nearest_neighbour_bound();
        let opt = solve_sequential(&inst);
        assert!(
            opt <= nn,
            "optimum {opt} cannot exceed the greedy bound {nn}"
        );
        assert!(opt > 0);
    }

    #[test]
    fn completion_bound_is_admissible() {
        let inst = Instance::generate(2, 7);
        let opt = solve_sequential(&inst);
        // Bound from the start state must not exceed the optimum.
        assert!(inst.completion_bound(1) <= opt);
    }

    #[test]
    fn sequential_solver_deterministic() {
        let inst = Instance::generate(42, 9);
        assert_eq!(solve_sequential(&inst), solve_sequential(&inst));
    }
}
