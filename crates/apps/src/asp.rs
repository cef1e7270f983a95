//! All-Pairs Shortest Paths: the Floyd–Warshall iteration with one pivot-row
//! broadcast per iteration.
//!
//! The paper's instance sends **768 group messages** (one per pivot row) of
//! about 3200 bytes; the moderate speedup comes from the ~5 ms latency each
//! broadcast costs (Section 5). Rows live in a replicated iteration board:
//! the pivot row's owner publishes it (a totally ordered broadcast); every
//! node reads it locally with a guarded operation.

use desim::SimDuration;
use orca::{BoardHandle, ObjId};

use crate::harness::{build_cluster, report, run_workers, AppReport, RunConfig};

/// ASP workload parameters.
#[derive(Debug, Clone)]
pub struct AspParams {
    /// Number of vertices (also the number of iterations/broadcasts).
    pub vertices: usize,
    /// Seed for the random graph.
    pub instance_seed: u64,
    /// Virtual CPU time charged per edge relaxation.
    pub relax_cost: SimDuration,
}

impl AspParams {
    /// Paper scale: 768 vertices, one broadcast per pivot (768 messages of
    /// 768·4 ≈ 3 KB), calibrated to roughly 213 virtual seconds on one node.
    pub fn paper() -> Self {
        AspParams {
            vertices: 768,
            instance_seed: 0xa59,
            relax_cost: SimDuration::from_nanos(470),
        }
    }

    /// A small instance for fast tests.
    pub fn small() -> Self {
        AspParams {
            vertices: 48,
            instance_seed: 0xa59,
            relax_cost: SimDuration::from_nanos(470),
        }
    }
}

const INF: i32 = i32::MAX / 4;

/// Deterministic random digraph as an adjacency matrix of edge weights.
pub fn generate_graph(seed: u64, n: usize) -> Vec<Vec<i32>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = vec![vec![INF; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 0;
        for (j, cell) in row.iter_mut().enumerate() {
            if i != j && next() % 100 < 20 {
                *cell = (next() % 1000) as i32 + 1;
            }
        }
    }
    // A Hamiltonian cycle of heavy edges keeps the graph connected.
    for i in 0..n {
        let j = (i + 1) % n;
        m[i][j] = m[i][j].min(1000 + (next() % 100) as i32);
    }
    m
}

/// Sequential Floyd–Warshall (reference for correctness tests).
pub fn solve_sequential(graph: &[Vec<i32>]) -> i64 {
    let mut d: Vec<Vec<i32>> = graph.to_vec();
    let mut pivot = Vec::new();
    for k in 0..d.len() {
        // A copy, so every row can be relaxed in place; `d[k][k] == 0`, so
        // row k itself does not change in round k.
        pivot.clone_from(&d[k]);
        for row in &mut d {
            relax(row, k, &pivot);
        }
    }
    checksum(&d)
}

/// One Floyd–Warshall step for one row through pivot `k`: `row[j] =
/// min(row[j], row[k] + pivot[j])`, where `pivot` is row `k`. Returns
/// whether the row was relaxed; a row with no path to `k` (`row[k] == INF`)
/// is skipped. Branch-free so that it vectorises; it cannot overflow,
/// because `row[k] < INF` and every entry is at most `INF = i32::MAX / 4`.
fn relax(row: &mut [i32], k: usize, pivot: &[i32]) -> bool {
    let dik = row[k];
    if dik >= INF {
        return false;
    }
    for (cell, &dkj) in row.iter_mut().zip(pivot) {
        *cell = (*cell).min(dik + dkj);
    }
    true
}

/// Distance-matrix checksum: XOR of per-row hashes, so it composes the same
/// way regardless of how rows are partitioned over nodes.
pub fn checksum(d: &[Vec<i32>]) -> i64 {
    d.iter().fold(0i64, |acc, row| acc ^ row_hash(row))
}

/// Order-sensitive hash of one row.
pub fn row_hash(row: &[i32]) -> i64 {
    let mut h = 0x9e37i64;
    for &v in row {
        if v < INF {
            h = h.wrapping_mul(31).wrapping_add(i64::from(v));
        } else {
            h = h.wrapping_mul(37);
        }
    }
    h
}

const BOARD_OBJ: ObjId = ObjId(1);

fn rows_of(node: u32, nodes: u32, n: usize) -> std::ops::Range<usize> {
    let per = n / nodes as usize;
    let extra = n % nodes as usize;
    let start = node as usize * per + (node as usize).min(extra);
    let len = per + usize::from((node as usize) < extra);
    start..start + len
}

/// Runs ASP; the checksum is the XOR of every node's row hashes, which is
/// [`checksum`] of the whole distance matrix for any row partition.
pub fn run(cfg: &RunConfig, params: &AspParams) -> AppReport {
    let graph = std::sync::Arc::new(generate_graph(params.instance_seed, params.vertices));
    let mut cluster = build_cluster(cfg);
    cluster
        .world
        .create_replicated(BOARD_OBJ, orca::IterBoard::new);
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let board = BoardHandle::new(std::sync::Arc::clone(&rts), BOARD_OBJ);
        let n = params.vertices;
        let nodes = rts.nodes();
        let my_rows = rows_of(node, nodes, n);
        let mut block: Vec<Vec<i32>> = my_rows.clone().map(|i| graph[i].clone()).collect();
        for k in 0..n {
            // The owner of pivot row k broadcasts it.
            let owner = (0..nodes)
                .find(|&m| rows_of(m, nodes, n).contains(&k))
                .expect("owner");
            if owner == node {
                let local_k = k - rows_of(node, nodes, n).start;
                let mut buf = Vec::with_capacity(n * 4);
                for &v in &block[local_k] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
                board.publish(ctx, k as u64, 0, &buf).expect("publish row");
            }
            // Everyone (including the owner) reads it back — a local guarded
            // read that blocks until the broadcast has been applied.
            let row_bytes = board.get(ctx, k as u64, 0).expect("pivot row");
            let row_k: Vec<i32> = row_bytes
                .chunks_exact(4)
                .map(|c| i32::from_be_bytes(c.try_into().expect("4 bytes")))
                .collect();
            // Relax this node's block against the pivot row.
            let mut relaxations = 0u64;
            for row in block.iter_mut() {
                if relax(row, k, &row_k) {
                    relaxations += n as u64;
                }
            }
            ctx.compute_sliced(
                params.relax_cost * relaxations.max(1),
                crate::harness::CPU_QUANTUM,
            );
        }
        // Fold the block into a partition-independent checksum.
        block.iter().fold(0i64, |acc, row| acc ^ row_hash(row))
    });
    // XOR of per-node checksums == checksum of the whole matrix.
    let combined = results.iter().fold(0i64, |a, r| a ^ r);
    report("asp", cfg, &cluster, elapsed, combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_partition_covers_everything() {
        for nodes in [1u32, 3, 8, 32] {
            let n = 100;
            let mut covered = vec![false; n];
            for node in 0..nodes {
                for i in rows_of(node, nodes, n) {
                    assert!(!covered[i], "row {i} assigned twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "all rows assigned");
        }
    }

    #[test]
    fn relax_matches_the_compare_and_store_loop() {
        // Entries include 0, INF - 1 and INF; the pivot row has a 0 at k,
        // like every distance-matrix row.
        let vals = [0, 1, 7, 999, 1100, INF / 2, INF - 1, INF];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            vals[(state % vals.len() as u64) as usize]
        };
        for n in [1usize, 2, 3, 7, 8, 9, 31, 64, 65] {
            for k in 0..n {
                for _ in 0..8 {
                    let mut pivot: Vec<i32> = (0..n).map(|_| next()).collect();
                    pivot[k] = 0;
                    let row: Vec<i32> = (0..n).map(|_| next()).collect();
                    let mut want = row.clone();
                    let relaxed = want[k] < INF;
                    if relaxed {
                        let dik = want[k];
                        for (j, cell) in want.iter_mut().enumerate() {
                            let via = dik + pivot[j];
                            if via < *cell {
                                *cell = via;
                            }
                        }
                    }
                    let mut got = row.clone();
                    assert_eq!(relax(&mut got, k, &pivot), relaxed, "{row:?} k {k}");
                    assert_eq!(got, want, "row {row:?} k {k} pivot {pivot:?}");
                }
            }
        }
    }

    #[test]
    fn sequential_fw_reasonable() {
        let g = generate_graph(1, 16);
        let c1 = solve_sequential(&g);
        let c2 = solve_sequential(&g);
        assert_eq!(c1, c2);
    }

    #[test]
    fn paper_row_size_near_3200_bytes() {
        // 768 vertices * 4 bytes = 3072 B payload per broadcast, close to
        // the ~3200-byte messages the paper reports.
        assert_eq!(AspParams::paper().vertices * 4, 3072);
    }
}
