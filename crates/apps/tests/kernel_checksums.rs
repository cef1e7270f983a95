//! Pinned answers of the LEQ and ASP arithmetic kernels. The values were
//! recorded with the one-row Jacobi formula and the compare-and-store
//! Floyd–Warshall loop; the blocked and branch-free kernels must reproduce
//! them bit for bit, sequentially and distributed.
//!
//! The paper-scale pins are `#[ignore]`d (too slow in debug builds); run them
//! with `cargo test --release -p apps --test kernel_checksums -- --ignored`.

use apps::{ProtoImpl, RunConfig};

const LEQ_SMALL: u64 = 0xeae3_7844_38ce_f7e2;
const ASP_SMALL: u64 = 0xa707_9f39_4117_e86a;
const LEQ_PAPER: u64 = 0xa96c_e035_b532_22a2;
const ASP_PAPER: u64 = 0xb31f_6be8_9e2c_b19c;

#[test]
fn leq_small_checksums_pinned() {
    let params = apps::leq::LeqParams::small();
    assert_eq!(apps::leq::solve_sequential(&params) as u64, LEQ_SMALL);
    // 3 nodes own 22/21/21 of the 64 rows: slices start and end off the
    // kernel's 4-row blocks and leave tail rows.
    for imp in [ProtoImpl::KernelSpace, ProtoImpl::UserSpace] {
        let r = apps::leq::run(&RunConfig::new(3, imp, 7), &params);
        assert_eq!(r.checksum as u64, LEQ_SMALL, "{imp}");
    }
}

#[test]
fn asp_small_checksums_pinned() {
    let params = apps::asp::AspParams::small();
    let graph = apps::asp::generate_graph(params.instance_seed, params.vertices);
    assert_eq!(apps::asp::solve_sequential(&graph) as u64, ASP_SMALL);
    for imp in [ProtoImpl::KernelSpace, ProtoImpl::UserSpace] {
        let r = apps::asp::run(&RunConfig::new(3, imp, 7), &params);
        assert_eq!(r.checksum as u64, ASP_SMALL, "{imp}");
    }
}

#[test]
#[ignore = "paper scale: run in release"]
fn leq_paper_checksums_pinned() {
    let params = apps::leq::LeqParams::paper();
    assert_eq!(apps::leq::solve_sequential(&params) as u64, LEQ_PAPER);
    let r = apps::leq::run(&RunConfig::new(8, ProtoImpl::KernelSpace, 7), &params);
    assert_eq!(r.checksum as u64, LEQ_PAPER);
}

#[test]
#[ignore = "paper scale: run in release"]
fn asp_paper_checksums_pinned() {
    let params = apps::asp::AspParams::paper();
    let graph = apps::asp::generate_graph(params.instance_seed, params.vertices);
    assert_eq!(apps::asp::solve_sequential(&graph) as u64, ASP_PAPER);
    let r = apps::asp::run(&RunConfig::new(32, ProtoImpl::KernelSpace, 7), &params);
    assert_eq!(r.checksum as u64, ASP_PAPER);
}
