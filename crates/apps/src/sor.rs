//! Successive Overrelaxation: red-black relaxation of a Laplace grid, row
//! strips per processor, boundary rows exchanged through shared buffer
//! objects after every half-sweep.
//!
//! Like Region Labeling this is the paper's fine-grained regime: two remote
//! guarded buffer operations per neighbour per iteration, performance
//! flattening beyond 16 processors as the Ethernet saturates, and the
//! user-space implementation pulling ahead because blocked `BufGet`s do not
//! cost it an extra context switch (Table 3: 13s vs 11s at 32 nodes).

use bytes::Bytes;
use desim::SimDuration;
use orca::{BufferHandle, ObjId};

use crate::harness::{block_of, build_cluster, report, run_workers, AppReport, RunConfig};

/// SOR workload parameters.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Grid side.
    pub size: usize,
    /// Full red+black iterations.
    pub iterations: u32,
    /// Overrelaxation factor (in fixed-point thousandths).
    pub omega_milli: u32,
    /// Virtual CPU time charged per cell update.
    pub cell_cost: SimDuration,
}

impl SorParams {
    /// Paper-scale: calibrated to roughly 118 virtual seconds on one node.
    pub fn paper() -> Self {
        SorParams {
            size: 512,
            iterations: 100,
            omega_milli: 1400,
            cell_cost: SimDuration::from_nanos(4530),
        }
    }

    /// A small grid for fast tests.
    pub fn small() -> Self {
        SorParams {
            size: 24,
            iterations: 8,
            omega_milli: 1400,
            cell_cost: SimDuration::from_micros(10),
        }
    }
}

type Grid = Vec<Vec<f64>>;

/// Fixed boundary conditions: hot top edge, cold elsewhere.
fn initial_grid(size: usize) -> Grid {
    initial_rows(size, 0..size)
}

/// Rows `rows` of [`initial_grid`] (a worker builds only its strip).
fn initial_rows(size: usize, rows: std::ops::Range<usize>) -> Grid {
    rows.map(|y| vec![if y == 0 { 100.0 } else { 0.0 }; size])
        .collect()
}

/// Relaxes all cells of `parity` in the strip (Jacobi within the colour:
/// red cells read only black neighbours and vice versa, so the update order
/// does not matter and parallel equals sequential bit-for-bit).
/// `offset` is the strip's global row offset (parity is global).
#[allow(clippy::too_many_arguments)]
fn half_sweep(
    grid: &mut Grid,
    offset: usize,
    size: usize,
    parity: usize,
    omega: f64,
    above: Option<&[f64]>,
    below: Option<&[f64]>,
) -> u64 {
    let h = grid.len();
    let mut updates = 0u64;
    for y in 0..h {
        let gy = y + offset;
        if gy == 0 || gy == size - 1 {
            continue; // fixed boundary rows
        }
        for x in 1..size - 1 {
            if (gy + x) % 2 != parity {
                continue;
            }
            let up = if y > 0 {
                grid[y - 1][x]
            } else {
                above.expect("interior strip has an upper neighbour")[x]
            };
            let down = if y + 1 < h {
                grid[y + 1][x]
            } else {
                below.expect("interior strip has a lower neighbour")[x]
            };
            let left = grid[y][x - 1];
            let right = grid[y][x + 1];
            let old = grid[y][x];
            grid[y][x] = old + omega * ((up + down + left + right) / 4.0 - old);
            updates += 1;
        }
    }
    updates
}

/// Sequential reference; returns the grid checksum.
pub fn solve_sequential(params: &SorParams) -> i64 {
    let mut grid = initial_grid(params.size);
    let omega = f64::from(params.omega_milli) / 1000.0;
    for _ in 0..params.iterations {
        for parity in [0, 1] {
            half_sweep(&mut grid, 0, params.size, parity, omega, None, None);
        }
    }
    checksum(&grid)
}

/// Partition-independent checksum (XOR of per-row bit-exact hashes).
pub fn checksum(grid: &Grid) -> i64 {
    grid.iter()
        .map(|row| {
            let mut h = 23i64;
            for &v in row {
                h = h.wrapping_mul(1_000_003).wrapping_add(v.to_bits() as i64);
            }
            h
        })
        .fold(0i64, |a, h| a ^ h)
}

fn encode_row(row: &[f64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(row.len() * 8);
    for &x in row {
        v.extend_from_slice(&x.to_bits().to_be_bytes());
    }
    v
}

fn decode_row(b: &Bytes) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_be_bytes(c.try_into().expect("8 bytes"))))
        .collect()
}

fn buf_down(i: u32) -> ObjId {
    ObjId(100 + i * 2)
}

fn buf_up(i: u32) -> ObjId {
    ObjId(101 + i * 2)
}

/// Runs SOR; checksum is the bit-exact final-grid hash (identical across
/// implementations and node counts).
pub fn run(cfg: &RunConfig, params: &SorParams) -> AppReport {
    let mut cluster = build_cluster(cfg);
    // With more processors than grid rows (small test grids only) the
    // trailing nodes would get empty strips; they sit the computation out
    // and the exchange chain links the active prefix.
    let active = cluster.world.nodes().min(params.size as u32);
    for i in 0..active.saturating_sub(1) {
        cluster
            .world
            .create_owned(buf_down(i), i, || orca::BoundedBuffer::new(2));
        cluster
            .world
            .create_owned(buf_up(i), i + 1, || orca::BoundedBuffer::new(2));
    }
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let active = rts.nodes().min(params.size as u32);
        if node >= active {
            return 0i64; // XOR identity: no strip, no checksum contribution
        }
        let strip = block_of(node, active, params.size);
        let mut grid = initial_rows(params.size, strip.clone());
        let omega = f64::from(params.omega_milli) / 1000.0;
        let up = (node > 0).then(|| {
            (
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_up(node - 1)),
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_down(node - 1)),
            )
        });
        let down = (node + 1 < active).then(|| {
            (
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_down(node)),
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_up(node)),
            )
        });
        for _ in 0..params.iterations {
            for parity in [0usize, 1] {
                if let Some((out, _)) = &up {
                    out.put(ctx, &encode_row(&grid[0])).expect("put top");
                }
                if let Some((out, _)) = &down {
                    out.put(ctx, &encode_row(grid.last().expect("rows")))
                        .expect("put bottom");
                }
                let above = up
                    .as_ref()
                    .map(|(_, n)| decode_row(&n.get(ctx).expect("get above")));
                let below = down
                    .as_ref()
                    .map(|(_, n)| decode_row(&n.get(ctx).expect("get below")));
                let updates = half_sweep(
                    &mut grid,
                    strip.start,
                    params.size,
                    parity,
                    omega,
                    above.as_deref(),
                    below.as_deref(),
                );
                ctx.compute(params.cell_cost * updates.max(1));
            }
        }
        checksum(&grid)
    });
    let combined = results.iter().fold(0i64, |a, r| a ^ r);
    report("sor", cfg, &cluster, elapsed, combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_deterministic() {
        let p = SorParams::small();
        assert_eq!(solve_sequential(&p), solve_sequential(&p));
    }

    #[test]
    fn heat_diffuses_from_the_hot_edge() {
        let p = SorParams::small();
        let mut grid = initial_grid(p.size);
        let omega = 1.4;
        for _ in 0..p.iterations {
            for parity in [0, 1] {
                half_sweep(&mut grid, 0, p.size, parity, omega, None, None);
            }
        }
        assert!(
            grid[1][p.size / 2] > 1.0,
            "row under the hot edge warmed up"
        );
        assert_eq!(grid[0][3], 100.0, "boundary stays fixed");
    }

    #[test]
    fn row_codec_roundtrip_bit_exact() {
        let row = vec![0.0f64, -1.5, 1e-300, 100.0];
        assert_eq!(decode_row(&Bytes::from(encode_row(&row))), row);
    }
}
