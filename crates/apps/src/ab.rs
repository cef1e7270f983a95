//! Parallel Alpha-Beta game-tree search.
//!
//! Root children are distributed through a central job queue; the best score
//! found so far is a replicated object used as the shared alpha bound.
//! The paper's observation reproduces structurally: parallel workers search
//! sibling subtrees with stale bounds, so the total node count grows with
//! the processor count ("efficient pruning in parallel α-β search is a known
//! hard problem") and speedups stay poor.

use desim::SimDuration;
use orca::{IntHandle, ObjId, QueueHandle};

use crate::harness::{build_cluster, report, run_workers, AppReport, RunConfig};

/// Alpha-Beta workload parameters.
#[derive(Debug, Clone)]
pub struct AbParams {
    /// Branching factor at the root (== number of jobs).
    pub root_branching: u32,
    /// Branching factor below the root.
    pub branching: u32,
    /// Total tree depth (root at depth 0, leaves at `depth`).
    pub depth: u32,
    /// Seed mixed into leaf evaluations.
    pub instance_seed: u64,
    /// Virtual CPU time charged per visited tree node.
    pub visit_cost: SimDuration,
}

impl AbParams {
    /// Paper-scale tree, calibrated to roughly 565 virtual seconds on one
    /// node (Table 3).
    pub fn paper() -> Self {
        AbParams {
            root_branching: 64,
            branching: 8,
            depth: 7,
            instance_seed: 0xab5,
            visit_cost: SimDuration::from_micros(787),
        }
    }

    /// A small tree for fast tests.
    pub fn small() -> Self {
        AbParams {
            root_branching: 8,
            branching: 4,
            depth: 4,
            instance_seed: 0xab5,
            visit_cost: SimDuration::from_micros(50),
        }
    }
}

const SCORE_INF: i64 = 1 << 40;

/// Deterministic leaf value from the path signature.
fn leaf_value(seed: u64, sig: u64) -> i64 {
    let mut x = sig ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x % 2001) as i64 - 1000
}

/// Fail-soft negamax with alpha-beta pruning. `sig` identifies the node
/// path; `on_visit` fires per node for CPU accounting.
fn negamax(
    p: &AbParams,
    sig: u64,
    depth: u32,
    mut alpha: i64,
    beta: i64,
    on_visit: &mut impl FnMut(),
) -> i64 {
    on_visit();
    if depth == p.depth {
        return leaf_value(p.instance_seed, sig);
    }
    let mut best = -SCORE_INF;
    for child in 0..p.branching {
        let child_sig = sig.wrapping_mul(131).wrapping_add(u64::from(child) + 1);
        let v = -negamax(p, child_sig, depth + 1, -beta, -alpha, on_visit);
        if v > best {
            best = v;
        }
        if best > alpha {
            alpha = best;
        }
        if alpha >= beta {
            break;
        }
    }
    best
}

/// Sequential reference: full alpha-beta from the root.
pub fn solve_sequential(p: &AbParams) -> (i64, u64) {
    let mut visits = 0u64;
    let mut best = -SCORE_INF;
    for root_child in 0..p.root_branching {
        let sig = u64::from(root_child) + 1;
        let v = -negamax(p, sig, 1, -SCORE_INF, -best, &mut || visits += 1);
        if v > best {
            best = v;
        }
    }
    (best, visits)
}

const BEST_OBJ: ObjId = ObjId(1);
const QUEUE_OBJ: ObjId = ObjId(2);
const BARRIER_OBJ: ObjId = ObjId(3);

/// Runs parallel Alpha-Beta; the checksum is the root minimax value.
pub fn run(cfg: &RunConfig, params: &AbParams) -> AppReport {
    let mut cluster = build_cluster(cfg);
    // The replicated "best score so far". Stored negated so that the shared
    // object's min-update implements a max-update.
    cluster
        .world
        .create_replicated(BEST_OBJ, || orca::SharedInt::new(SCORE_INF));
    cluster
        .world
        .create_owned(QUEUE_OBJ, 0, orca::JobQueue::new);
    let n_nodes = cluster.world.nodes();
    cluster
        .world
        .create_replicated(BARRIER_OBJ, move || orca::Barrier::new(n_nodes));
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let best_neg = IntHandle::new(std::sync::Arc::clone(&rts), BEST_OBJ);
        let queue = QueueHandle::new(std::sync::Arc::clone(&rts), QUEUE_OBJ);
        if node == 0 {
            for child in 0..params.root_branching {
                queue.add(ctx, &child.to_be_bytes()).expect("add job");
            }
            queue.close(ctx).expect("close");
        }
        while let Some(job) = queue.get(ctx).expect("job") {
            let child = u32::from_be_bytes(job[..4].try_into().expect("4 bytes"));
            let sig = u64::from(child) + 1;
            // The freshest global bound serves as this subtree's alpha.
            let alpha = -best_neg.read(ctx).expect("bound");
            let mut pending = 0u64;
            let v = -negamax(&params, sig, 1, -SCORE_INF, -alpha, &mut || {
                pending += 1;
                if pending >= 64 {
                    ctx.compute(params.visit_cost * pending);
                    pending = 0;
                }
            });
            if pending > 0 {
                ctx.compute(params.visit_cost * pending);
            }
            if v > alpha {
                best_neg.min_update(ctx, -v).expect("bound update");
            }
        }
        // Barrier: its totally ordered arrive-broadcasts are delivered after
        // every earlier bound update, so the final read is globally agreed.
        orca::BarrierHandle::new(std::sync::Arc::clone(&rts), BARRIER_OBJ)
            .sync(ctx)
            .expect("final barrier");
        -best_neg.read(ctx).expect("final")
    });
    let checksum = results[0];
    for r in &results {
        assert_eq!(*r, checksum, "nodes agree on the minimax value");
    }
    report("ab", cfg, &cluster, elapsed, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_values_deterministic_and_bounded() {
        for sig in 0..100u64 {
            let v = leaf_value(7, sig);
            assert_eq!(v, leaf_value(7, sig));
            assert!((-1000..=1000).contains(&v));
        }
    }

    #[test]
    fn alpha_beta_equals_plain_minimax_on_small_tree() {
        let p = AbParams {
            root_branching: 3,
            branching: 3,
            depth: 3,
            instance_seed: 9,
            visit_cost: SimDuration::ZERO,
        };
        fn minimax(p: &AbParams, sig: u64, depth: u32) -> i64 {
            if depth == p.depth {
                return leaf_value(p.instance_seed, sig);
            }
            (0..p.branching)
                .map(|c| {
                    -minimax(
                        p,
                        sig.wrapping_mul(131).wrapping_add(u64::from(c) + 1),
                        depth + 1,
                    )
                })
                .max()
                .expect("children")
        }
        let brute: i64 = (0..p.root_branching)
            .map(|c| -minimax(&p, u64::from(c) + 1, 1))
            .max()
            .expect("roots");
        let (ab, _) = solve_sequential(&p);
        assert_eq!(ab, brute);
    }

    #[test]
    fn pruning_reduces_visits() {
        let p = AbParams::small();
        let (_, visits) = solve_sequential(&p);
        let full = u64::from(p.root_branching)
            * ((u64::from(p.branching).pow(p.depth) - 1) / (u64::from(p.branching) - 1));
        assert!(
            visits < full,
            "alpha-beta must visit fewer than {full} nodes, saw {visits}"
        );
    }
}
