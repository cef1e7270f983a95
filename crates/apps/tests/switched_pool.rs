//! The paper's pool with more than one segment on a single lane: 24 nodes
//! are three 8-station segments behind the flat switch, so every broadcast
//! is flooded and every cross-segment RPC sleeps a switch hop. ASP drives
//! the flood path and SOR the unicast path. Each run is pinned in virtual
//! time, frames, wire bytes and answer on both stacks.

use apps::{AppReport, ProtoImpl, RunConfig};

const NODES: u32 = 24;

/// `(elapsed ns, frames, wire bytes, checksum)` of one run.
fn pin(r: &AppReport) -> (u64, u64, u64, u64) {
    (
        r.elapsed.as_nanos(),
        r.frames,
        r.wire_bytes,
        r.checksum as u64,
    )
}

#[test]
fn asp_on_three_switched_segments_is_pinned() {
    let params = apps::asp::AspParams::small();
    for (imp, expected) in [
        (
            ProtoImpl::KernelSpace,
            (503_400_800, 339, 95_130, 0xa707_9f39_4117_e86a),
        ),
        (
            ProtoImpl::UserSpace,
            (536_901_040, 339, 91_062, 0xa707_9f39_4117_e86a),
        ),
    ] {
        let r = apps::asp::run(&RunConfig::new(NODES, imp, 7), &params);
        assert_eq!(pin(&r), expected, "{imp}");
    }
}

#[test]
fn sor_on_three_switched_segments_is_pinned() {
    let params = apps::sor::SorParams::small();
    for (imp, expected) in [
        (
            ProtoImpl::KernelSpace,
            (245_574_100, 2588, 505_392, 0x314e_2eb8_68d4_1c27),
        ),
        (
            ProtoImpl::UserSpace,
            (221_971_900, 1698, 400_232, 0x314e_2eb8_68d4_1c27),
        ),
    ] {
        let r = apps::sor::run(&RunConfig::new(NODES, imp, 7), &params);
        assert_eq!(pin(&r), expected, "{imp}");
    }
}
