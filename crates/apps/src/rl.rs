//! Region Labeling: iterative connected-component labelling of a binary
//! image, row strips per processor, boundary rows exchanged through shared
//! buffer objects.
//!
//! The paper's fine-grained case: every iteration each node performs remote
//! guarded `BufGet` operations on its neighbours' buffers, which *block*
//! until the owner fills them. The kernel-space implementation pays an extra
//! context switch for each of those (Section 5: six seconds slower on 32
//! processors), while performance flattens beyond 16 processors as the
//! Ethernet saturates.

use bytes::Bytes;
use desim::SimDuration;
use orca::{BufferHandle, ObjId};

use crate::harness::{build_cluster, report, run_workers, AppReport, RunConfig};

/// Region Labeling workload parameters.
#[derive(Debug, Clone)]
pub struct RlParams {
    /// Grid side (the image is `size x size`).
    pub size: usize,
    /// Fixed iteration count (deterministic across node counts).
    pub iterations: u32,
    /// Seed for the blob image.
    pub instance_seed: u64,
    /// Virtual CPU time charged per cell visit.
    pub cell_cost: SimDuration,
}

impl RlParams {
    /// Paper-scale: calibrated to roughly 760 virtual seconds on one node.
    pub fn paper() -> Self {
        RlParams {
            size: 256,
            iterations: 1000,
            instance_seed: 0x71,
            cell_cost: SimDuration::from_nanos(11580),
        }
    }

    /// A small image for fast tests.
    pub fn small() -> Self {
        RlParams {
            size: 32,
            iterations: 12,
            instance_seed: 0x71,
            cell_cost: SimDuration::from_micros(10),
        }
    }
}

/// Generates a deterministic binary blob image (`true` = foreground).
pub fn generate_image(seed: u64, size: usize) -> Vec<Vec<bool>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut img = vec![vec![false; size]; size];
    let blobs = (size / 8).max(4);
    for _ in 0..blobs {
        let cx = (next() % size as u64) as i64;
        let cy = (next() % size as u64) as i64;
        let r = (next() % (size as u64 / 6).max(2)) as i64 + 2;
        for y in (cy - r).max(0)..(cy + r).min(size as i64) {
            for x in (cx - r).max(0)..(cx + r).min(size as i64) {
                if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                    img[y as usize][x as usize] = true;
                }
            }
        }
    }
    img
}

type Labels = Vec<Vec<i64>>;

fn initial_labels(img: &[Vec<bool>]) -> Labels {
    let size = img.len();
    (0..size)
        .map(|y| {
            (0..size)
                .map(|x| if img[y][x] { (y * size + x) as i64 } else { -1 })
                .collect()
        })
        .collect()
}

/// One Jacobi-style labelling sweep of `rows[lo..hi]` using `above`/`below`
/// as the neighbouring boundary rows. Returns visited-cell count.
fn sweep(labels: &Labels, out: &mut Labels, above: Option<&[i64]>, below: Option<&[i64]>) -> u64 {
    let h = labels.len();
    let w = labels[0].len();
    let mut visits = 0u64;
    for y in 0..h {
        for x in 0..w {
            visits += 1;
            let cur = labels[y][x];
            if cur < 0 {
                out[y][x] = -1;
                continue;
            }
            let mut m = cur;
            let mut consider = |v: i64| {
                if v >= 0 && v < m {
                    m = v;
                }
            };
            if x > 0 {
                consider(labels[y][x - 1]);
            }
            if x + 1 < w {
                consider(labels[y][x + 1]);
            }
            if y > 0 {
                consider(labels[y - 1][x]);
            } else if let Some(a) = above {
                consider(a[x]);
            }
            if y + 1 < h {
                consider(labels[y + 1][x]);
            } else if let Some(b) = below {
                consider(b[x]);
            }
            out[y][x] = m;
        }
    }
    visits
}

/// Sequential reference run; returns the label checksum.
pub fn solve_sequential(params: &RlParams) -> i64 {
    let img = generate_image(params.instance_seed, params.size);
    let mut labels = initial_labels(&img);
    let mut next = labels.clone();
    for _ in 0..params.iterations {
        sweep(&labels, &mut next, None, None);
        std::mem::swap(&mut labels, &mut next);
    }
    checksum(&labels)
}

/// Partition-independent checksum of the final labels.
pub fn checksum(labels: &Labels) -> i64 {
    labels
        .iter()
        .map(|row| {
            let mut h = 17i64;
            for &v in row {
                h = h.wrapping_mul(31).wrapping_add(v);
            }
            h
        })
        .fold(0i64, |a, h| a ^ h)
}

fn strip_of(node: u32, nodes: u32, size: usize) -> std::ops::Range<usize> {
    let per = size / nodes as usize;
    let extra = size % nodes as usize;
    let start = node as usize * per + (node as usize).min(extra);
    let len = per + usize::from((node as usize) < extra);
    start..start + len
}

fn encode_row(row: &[i64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(row.len() * 8);
    for &l in row {
        v.extend_from_slice(&l.to_be_bytes());
    }
    v
}

fn decode_row(b: &Bytes) -> Vec<i64> {
    b.chunks_exact(8)
        .map(|c| i64::from_be_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Buffer carrying node `i`'s bottom row down to node `i+1`; owned by `i`.
fn buf_down(i: u32) -> ObjId {
    ObjId(100 + i * 2)
}

/// Buffer carrying node `i+1`'s top row up to node `i`; owned by `i+1`.
fn buf_up(i: u32) -> ObjId {
    ObjId(101 + i * 2)
}

/// Runs Region Labeling; checksum is the final-label hash (identical across
/// implementations and node counts).
pub fn run(cfg: &RunConfig, params: &RlParams) -> AppReport {
    // Generated once; every worker copies out only its strip.
    let all = std::sync::Arc::new(initial_labels(&generate_image(
        params.instance_seed,
        params.size,
    )));
    let mut cluster = build_cluster(cfg);
    let nodes = cluster.world.nodes();
    for i in 0..nodes.saturating_sub(1) {
        cluster
            .world
            .create_owned(buf_down(i), i, || orca::BoundedBuffer::new(2));
        cluster
            .world
            .create_owned(buf_up(i), i + 1, || orca::BoundedBuffer::new(2));
    }
    let params = params.clone();
    let (elapsed, results) = run_workers(&mut cluster, move |ctx, node, rts| {
        let nodes = rts.nodes();
        let strip = strip_of(node, nodes, params.size);
        let mut labels: Labels = all[strip.clone()].to_vec();
        let mut next: Labels = labels.clone();
        let up = (node > 0).then(|| {
            (
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_up(node - 1)), // my top row goes up
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_down(node - 1)), // neighbour's bottom row
            )
        });
        let down = (node + 1 < nodes).then(|| {
            (
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_down(node)), // my bottom row goes down
                BufferHandle::new(std::sync::Arc::clone(&rts), buf_up(node)), // neighbour's top row
            )
        });
        for _ in 0..params.iterations {
            // Publish boundary rows (local put on own buffer for the
            // downward stream, remote put for the upward one).
            if let Some((my_top_out, _)) = &up {
                my_top_out
                    .put(ctx, &encode_row(&labels[0]))
                    .expect("put top row");
            }
            if let Some((my_bottom_out, _)) = &down {
                my_bottom_out
                    .put(ctx, &encode_row(labels.last().expect("non-empty strip")))
                    .expect("put bottom row");
            }
            // Fetch the neighbours' boundary rows (remote guarded BufGet —
            // blocks until the owner has put).
            let above = up
                .as_ref()
                .map(|(_, neigh)| decode_row(&neigh.get(ctx).expect("get above")));
            let below = down
                .as_ref()
                .map(|(_, neigh)| decode_row(&neigh.get(ctx).expect("get below")));
            let visits = sweep(&labels, &mut next, above.as_deref(), below.as_deref());
            std::mem::swap(&mut labels, &mut next);
            ctx.compute_sliced(params.cell_cost * visits, crate::harness::CPU_QUANTUM);
        }
        checksum(&labels)
    });
    let combined = results.iter().fold(0i64, |a, r| a ^ r);
    report("rl", cfg, &cluster, elapsed, combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_partition_the_grid() {
        for nodes in [1u32, 2, 7, 32] {
            let size = 64;
            let mut covered = vec![false; size];
            for node in 0..nodes {
                for r in strip_of(node, nodes, size) {
                    assert!(!covered[r]);
                    covered[r] = true;
                }
            }
            assert!(covered.iter().all(|&c| c));
        }
    }

    #[test]
    fn row_codec_roundtrip() {
        let row = vec![-1i64, 0, 5, 1 << 40];
        assert_eq!(decode_row(&Bytes::from(encode_row(&row))), row);
    }

    #[test]
    fn sequential_labelling_converges_to_component_minima() {
        let params = RlParams {
            size: 16,
            iterations: 40, // enough for full convergence at this size
            instance_seed: 3,
            cell_cost: SimDuration::ZERO,
        };
        let c1 = solve_sequential(&params);
        let more = RlParams {
            iterations: 60,
            ..params
        };
        assert_eq!(c1, solve_sequential(&more), "fully converged");
    }
}
