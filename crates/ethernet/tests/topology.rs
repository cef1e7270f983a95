//! Topology-builder placement properties.
//!
//! The scale-out story rests on placement being a pure function of the
//! [`TopologySpec`]: machine→segment→lane assignment must not depend on the
//! shard count, or runs stop being bit-identical
//! across runner configurations. These tests pin that down directly, without
//! running any protocol traffic.

use desim::{LaneId, Simulation};
use ethernet::{NetConfig, Network, TopologySpec};
use proptest::prelude::*;

/// Realizes `spec` on a fresh simulation and returns the full placement map
/// as plain numbers (debug-format identities, stable across processes).
fn placement(spec: &TopologySpec, shards: usize) -> Vec<(String, String)> {
    let mut sim = Simulation::builder().seed(7).shards(shards).build();
    let mut net = Network::new(NetConfig::default());
    let topo = spec.build(&mut sim, &mut net, "pool");
    (0..spec.machines)
        .map(|m| {
            let seg = topo.segment_of(m);
            let lane = topo.lane_of(m);
            // The placement map must agree with where the builder actually
            // put the segment.
            assert_eq!(net.segment_lane(seg), lane, "machine {m} lane mismatch");
            (format!("{seg:?}"), format!("{lane:?}"))
        })
        .collect()
}

fn spec_strategy() -> impl Strategy<Value = TopologySpec> {
    (1u32..64, 1u32..12, 0u32..8, 1u32..5, 1u32..4).prop_map(
        |(machines, per_segment, backbone, per_switch, lanes)| TopologySpec {
            machines,
            per_segment,
            backbone_stations: backbone.min(machines),
            segments_per_switch: per_switch,
            lanes,
            backbone_bandwidth_bps: None,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Placement is identical across shard counts: the shard knob only
    /// decides how many OS threads drive the lanes.
    #[test]
    fn placement_independent_of_shards(spec in spec_strategy()) {
        let reference = placement(&spec, 1);
        prop_assert_eq!(&reference, &placement(&spec, 2));
        prop_assert_eq!(&reference, &placement(&spec, 0));
    }

    /// Structural invariants of the placement map itself.
    #[test]
    fn placement_invariants(spec in spec_strategy()) {
        let mut sim = Simulation::new(7);
        let mut net = Network::new(NetConfig::default());
        let topo = spec.build(&mut sim, &mut net, "pool");
        prop_assert_eq!(topo.leaf_segments().len() as u32, spec.n_leaves());
        prop_assert_eq!(topo.backbone().is_some(), spec.is_tree());
        let mut leaf_load = vec![0u32; topo.leaf_segments().len()];
        for m in 0..spec.machines {
            let seg = topo.segment_of(m);
            if m < spec.backbone_stations {
                // Servers sit on the backbone, which lives on the root lane.
                prop_assert_eq!(Some(seg), topo.backbone());
                prop_assert_eq!(topo.lane_of(m), LaneId::ZERO);
            } else {
                let leaf = topo
                    .leaf_segments()
                    .iter()
                    .position(|s| *s == seg)
                    .expect("client machines live on a leaf");
                leaf_load[leaf] += 1;
                // Leaves fill in machine order, `per_segment` at a time.
                prop_assert_eq!(
                    leaf as u32,
                    (m - spec.backbone_stations) / spec.per_segment
                );
            }
        }
        for (leaf, load) in leaf_load.iter().enumerate() {
            prop_assert!(
                *load <= spec.per_segment,
                "leaf {} overfull: {} > {}",
                leaf,
                load,
                spec.per_segment
            );
        }
    }

    /// The capacity-hint estimator is a true upper bound on the machines
    /// any single lane actually hosts.
    #[test]
    fn per_lane_estimate_bounds_actual_load(spec in spec_strategy()) {
        let mut sim = Simulation::new(7);
        let mut net = Network::new(NetConfig::default());
        let topo = spec.build(&mut sim, &mut net, "pool");
        let mut lane_load = std::collections::HashMap::new();
        for m in 0..spec.machines {
            *lane_load.entry(topo.lane_of(m)).or_insert(0u32) += 1;
        }
        let busiest = lane_load.values().copied().max().unwrap_or(0);
        prop_assert!(
            busiest <= spec.max_machines_per_lane(),
            "busiest lane {} over estimate {}",
            busiest,
            spec.max_machines_per_lane()
        );
    }
}

/// The flat spec reproduces the historical hand-rolled shapes exactly.
#[test]
fn flat_spec_matches_historical_shapes() {
    // Single segment, no switch: the 32-machine test world.
    let spec = TopologySpec::flat(32, 32);
    assert!(!spec.is_tree());
    assert_eq!(spec.n_leaves(), 1);
    // The paper's pool: 8 per segment behind one flat switch.
    let spec = TopologySpec::flat(32, 8);
    assert!(!spec.is_tree());
    assert_eq!(spec.n_leaves(), 4);
    let mut sim = Simulation::new(1);
    let mut net = Network::new(NetConfig::default());
    let topo = spec.build(&mut sim, &mut net, "pool");
    assert!(topo.backbone().is_none());
    for m in 0..32 {
        assert_eq!(topo.lane_of(m), LaneId::ZERO);
        assert_eq!(topo.segment_of(m), topo.leaf_segments()[(m / 8) as usize]);
    }
}
