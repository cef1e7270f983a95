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

use std::ops::Range;

use desim::SimDuration;
use orca::{BoardHandle, ObjId};

use crate::harness::{
    block_of, build_cluster, report, run_workers, seeded_rng, AppReport, RunConfig,
};

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
        let mut rng = seeded_rng(seed);
        let mut next = move || (rng() % 1000) as f64 / 1000.0;
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

    /// One Jacobi update of every unknown in `rows` given the current full
    /// vector `x`, written to `out` (one value per row).
    ///
    /// Row `i` computes `(b[i] - σ) / a[i][i]`, where `σ` sums `a[i][j] *
    /// x[j]` over `j != i` in ascending `j` from `0.0`. Rows go through in
    /// blocks of [`ROW_BLOCK`] that share each load of `x[j]` and keep one
    /// accumulator per row, so the block runs at multiply-add throughput
    /// rather than add latency while every row's sequence of roundings —
    /// and so every result bit — is that of the one-row formula. (No
    /// `mul_add` and no split accumulators: either would change bits.)
    fn update_rows(&self, rows: Range<usize>, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x holds every unknown");
        assert_eq!(out.len(), rows.len(), "one output per row");
        let mut blocks = out.chunks_exact_mut(ROW_BLOCK);
        let mut i = rows.start;
        for block in &mut blocks {
            self.update_block::<ROW_BLOCK>(i, x, block.try_into().expect("a full block"));
            i += ROW_BLOCK;
        }
        for (k, out) in blocks.into_remainder().iter_mut().enumerate() {
            self.update_block(i + k, x, std::array::from_mut(out));
        }
    }

    /// Rows `i0..i0 + R`: the columns left of the block's diagonal, the
    /// block's own `R` columns (where each row skips its diagonal), then
    /// the columns right of it — ascending `j` in every row.
    fn update_block<const R: usize>(&self, i0: usize, x: &[f64], out: &mut [f64; R]) {
        let n = self.n;
        let a: [&[f64]; R] = std::array::from_fn(|r| &self.a[(i0 + r) * n..][..n]);
        let mut sigma = [0.0f64; R];
        let mac = |cols: Range<usize>, sigma: &mut [f64; R]| {
            let a: [&[f64]; R] = std::array::from_fn(|r| &a[r][cols.clone()]);
            for (j, &xj) in x[cols.clone()].iter().enumerate() {
                for (s, row) in sigma.iter_mut().zip(&a) {
                    *s += row[j] * xj;
                }
            }
        };
        mac(0..i0, &mut sigma);
        for j in i0..i0 + R {
            for (r, (s, row)) in sigma.iter_mut().zip(&a).enumerate() {
                if j != i0 + r {
                    *s += row[j] * x[j];
                }
            }
        }
        mac(i0 + R..n, &mut sigma);
        for (r, (o, s)) in out.iter_mut().zip(sigma).enumerate() {
            *o = (self.b[i0 + r] - s) / a[r][i0 + r];
        }
    }
}

/// Rows per block in [`System::update_rows`]. From 4 rows on, the
/// paper-scale solve is bound by streaming the 8 MB matrix: 4, 8 and 16 rows
/// measure within ~10% of each other.
const ROW_BLOCK: usize = 4;

/// Sequential reference; returns the solution checksum.
pub fn solve_sequential(params: &LeqParams) -> i64 {
    let n = params.unknowns;
    let sys = System::generate(params.instance_seed, n);
    let mut x = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    for _ in 0..params.iterations {
        sys.update_rows(0..n, &x, &mut x_new);
        std::mem::swap(&mut x, &mut x_new);
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
        let my = block_of(node, nodes, params.unknowns);
        let mut slice = vec![0.0f64; my.len()];
        for iter in 0..params.iterations {
            // Compute my slice from the current full vector.
            sys.update_rows(my.clone(), &x, &mut slice);
            ctx.compute(params.mac_cost * (slice.len() as u64 * params.unknowns as u64));
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
                let range = block_of(peer, nodes, params.unknowns);
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

    /// The one-row Jacobi formula, one dependent add per column: the oracle
    /// `update_rows` must match bit for bit.
    fn update_oracle(sys: &System, i: usize, x: &[f64]) -> f64 {
        let mut sigma = 0.0;
        for j in 0..sys.n {
            if j != i {
                sigma += sys.a[i * sys.n + j] * x[j];
            }
        }
        (sys.b[i] - sigma) / sys.a[i * sys.n + i]
    }

    #[test]
    fn update_rows_is_bit_identical_to_the_one_row_formula() {
        for n in [1usize, 3, 4, 5, 9, 17, 131] {
            let sys = System::generate(0x1e9 + n as u64, n);
            // Every range shape: from and to block edges and off them, one
            // row, a tail shorter than a block, the whole system.
            let mut ranges = Vec::new();
            ranges.push(0..n);
            for start in [0, 1, 2, 3, 5, n / 2] {
                for len in [1, 3, 4, 5, 7, 8, 13] {
                    if start + len <= n {
                        ranges.push(start..start + len);
                    }
                }
            }
            for rows in ranges {
                // A non-zero start, so a diagonal term that is not skipped
                // shows in the first iteration too; then three chained steps.
                let mut x: Vec<f64> = (0..n).map(|j| 1.0 + j as f64 * 0.37).collect();
                for step in 0..3 {
                    let mut got = vec![0.0; rows.len()];
                    sys.update_rows(rows.clone(), &x, &mut got);
                    for (k, i) in rows.clone().enumerate() {
                        let want = update_oracle(&sys, i, &x);
                        assert_eq!(
                            got[k].to_bits(),
                            want.to_bits(),
                            "n {n} rows {rows:?} step {step} row {i}: {} vs {want}",
                            got[k]
                        );
                    }
                    for (k, i) in rows.clone().enumerate() {
                        x[i] = got[k];
                    }
                }
            }
        }
    }

    #[test]
    fn jacobi_converges_on_dominant_system() {
        let p = LeqParams::small();
        let n = p.unknowns;
        let sys = System::generate(p.instance_seed, n);
        let mut x = vec![0.0; n];
        let mut xn = vec![0.0; n];
        for _ in 0..200 {
            sys.update_rows(0..n, &x, &mut xn);
            std::mem::swap(&mut x, &mut xn);
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
    fn sequential_deterministic() {
        let p = LeqParams::small();
        assert_eq!(solve_sequential(&p), solve_sequential(&p));
    }
}
