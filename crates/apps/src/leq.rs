//! Linear Equation Solver: Jacobi iteration with one totally ordered
//! broadcast per node per iteration.
//!
//! The paper's group-communication stress test. Every iteration each node
//! broadcasts its slice of the solution vector and reads everyone else's
//! (local guarded reads of a replicated board). On 32 processors the
//! user-space sequencer machine melts down — it handles every broadcast
//! request, runs its own worker, and pays the interrupt-to-thread dispatch
//! per message — which is exactly why the paper dedicates a machine to the
//! sequencer (`User-space-dedicated`): on 16 processors 15 workers then beat
//! the 16-worker shared configuration (94s vs 112s). Note also that
//! execution time *rises* from 16 to 32 processors: twice the messages at
//! half the size (Section 5).

use desim::SimDuration;
use orca::{BoardHandle, ObjId};

use crate::harness::{build_cluster, report, run_workers, AppReport, RunConfig};

/// LEQ workload parameters.
#[derive(Debug, Clone)]
pub struct LeqParams {
    /// Number of unknowns.
    pub unknowns: usize,
    /// Jacobi iterations (fixed; deterministic across node counts).
    pub iterations: u32,
    /// Seed for the diagonally dominant system.
    pub instance_seed: u64,
    /// Virtual CPU time charged per multiply-accumulate.
    pub mac_cost: SimDuration,
}

impl LeqParams {
    /// Paper-scale: calibrated to roughly 520 virtual seconds on one node.
    pub fn paper() -> Self {
        LeqParams {
            unknowns: 1024,
            iterations: 600,
            instance_seed: 0x1e9,
            mac_cost: SimDuration::from_nanos(830),
        }
    }

    /// A small system for fast tests.
    pub fn small() -> Self {
        LeqParams {
            unknowns: 64,
            iterations: 10,
            instance_seed: 0x1e9,
            mac_cost: SimDuration::from_micros(1),
        }
    }
}

/// The dense, diagonally dominant system `A x = b`, derived from the seed
/// (8 MB at paper scale: generated once per run and shared by the workers).
#[derive(Debug)]
pub struct System {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl System {
    /// Generates the system deterministically.
    pub fn generate(seed: u64, n: usize) -> System {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next() - 0.5;
                    a[i * n + j] = v;
                    row_sum += v.abs();
                }
            }
            a[i * n + i] = row_sum + 1.0 + next(); // strict diagonal dominance
            b[i] = next() * 10.0;
        }
        System { n, a, b }
    }

    /// One Jacobi update of unknown `i` given the current full vector.
    fn update(&self, i: usize, x: &[f64]) -> f64 {
        let mut sigma = 0.0;
        for j in 0..self.n {
            if j != i {
                sigma += self.a[i * self.n + j] * x[j];
            }
        }
        (self.b[i] - sigma) / self.a[i * self.n + i]
    }
}

/// Sequential reference; returns the solution checksum.
pub fn solve_sequential(params: &LeqParams) -> i64 {
    let sys = System::generate(params.instance_seed, params.unknowns);
    let mut x = vec![0.0; params.unknowns];
    for _ in 0..params.iterations {
        let x_new: Vec<f64> = (0..params.unknowns).map(|i| sys.update(i, &x)).collect();
        x = x_new;
    }
    checksum(&x)
}

/// Bit-exact checksum of the solution vector.
pub fn checksum(x: &[f64]) -> i64 {
    let mut h = 7i64;
    for &v in x {
        h = h.wrapping_mul(1_000_003).wrapping_add(v.to_bits() as i64);
    }
    h
}

fn slice_of(node: u32, nodes: u32, n: usize) -> std::ops::Range<usize> {
    let per = n / nodes as usize;
    let extra = n % nodes as usize;
    let start = node as usize * per + (node as usize).min(extra);
    let len = per + usize::from((node as usize) < extra);
    start..start + len
}

const BOARD_OBJ: ObjId = ObjId(1);

/// Runs LEQ; checksum is the bit-exact solution hash.
pub fn run(cfg: &RunConfig, params: &LeqParams) -> AppReport {
    let sys = std::sync::Arc::new(System::generate(params.instance_seed, params.unknowns));
    let mut cluster = build_cluster(cfg);
    cluster
        .world
        .create_replicated(BOARD_OBJ, orca::IterBoard::new);
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let board = BoardHandle::new(std::sync::Arc::clone(&rts), BOARD_OBJ);
        let nodes = rts.nodes();
        let mut x = vec![0.0f64; params.unknowns];
        let my = slice_of(node, nodes, params.unknowns);
        for iter in 0..params.iterations {
            // Compute my slice from the current full vector.
            let slice: Vec<f64> = my.clone().map(|i| sys.update(i, &x)).collect();
            ctx.compute_sliced(
                params.mac_cost * (slice.len() as u64 * params.unknowns as u64),
                crate::harness::CPU_QUANTUM,
            );
            // Broadcast it (one group message per node per iteration).
            let mut buf = Vec::with_capacity(slice.len() * 8);
            for &v in &slice {
                buf.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            board
                .publish(ctx, u64::from(iter), node, &buf)
                .expect("publish slice");
            // Assemble the next full vector from everyone's broadcast
            // (local guarded reads).
            for peer in 0..nodes {
                let bytes = board.get(ctx, u64::from(iter), peer).expect("slice");
                let range = slice_of(peer, nodes, params.unknowns);
                for (k, c) in bytes.chunks_exact(8).enumerate() {
                    x[range.start + k] =
                        f64::from_bits(u64::from_be_bytes(c.try_into().expect("8 bytes")));
                }
            }
        }
        checksum(&x)
    });
    let checksum = results[0];
    for r in &results {
        assert_eq!(*r, checksum, "all nodes assemble the same solution");
    }
    report("leq", cfg, &cluster, elapsed, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_converges_on_dominant_system() {
        let p = LeqParams::small();
        let sys = System::generate(p.instance_seed, p.unknowns);
        let mut x = vec![0.0; p.unknowns];
        for _ in 0..200 {
            let xn: Vec<f64> = (0..p.unknowns).map(|i| sys.update(i, &x)).collect();
            x = xn;
        }
        // Residual check: A x ~= b.
        for i in 0..p.unknowns {
            let mut ax = 0.0;
            for j in 0..p.unknowns {
                ax += sys.a[i * p.unknowns + j] * x[j];
            }
            assert!((ax - sys.b[i]).abs() < 1e-6, "row {i} residual too big");
        }
    }

    #[test]
    fn slice_partition_covers_everything() {
        for nodes in [1u32, 5, 16, 32] {
            let n = 130;
            let mut covered = vec![false; n];
            for node in 0..nodes {
                for i in slice_of(node, nodes, n) {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c));
        }
    }

    #[test]
    fn sequential_deterministic() {
        let p = LeqParams::small();
        assert_eq!(solve_sequential(&p), solve_sequential(&p));
    }
}
