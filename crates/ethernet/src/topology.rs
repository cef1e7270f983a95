//! Deterministic hierarchical topology builder.
//!
//! One [`TopologySpec`] describes a whole pool — how many stations, how many
//! per leaf segment, how leaves aggregate behind edge switches and a
//! backbone, and how many scheduler lanes the segments spread over — and
//! [`TopologySpec::build`] realizes it on a [`Network`]. Placement is a pure
//! function of the spec: machine numbering, segment assignment, and lane
//! assignment never depend on the shard count, so
//! one spec produces bit-identical runs under any runner configuration (the
//! shard count only decides how many OS threads drive the fixed lane set).
//!
//! Three shapes fall out of one spec:
//!
//! - **single segment** (one leaf, no switch) — the classic 32-machine test
//!   world;
//! - **flat switch** (every leaf behind one [`Network::add_switch`]) — the
//!   paper's processor pool;
//! - **two-level tree** (leaves chunked behind edge switches sharing a
//!   backbone segment, see [`Network::add_switch_with_uplink`]) — the
//!   scale-out shape, where the first [`TopologySpec::backbone_stations`]
//!   machines (servers) attach directly to the backbone and the rest
//!   (clients) fill the leaves.
//!
//! The first two shapes are built through exactly the same calls the
//! hand-rolled harnesses used to make, so existing golden traces and result
//! hashes are byte-identical through the builder.

use desim::{LaneId, Simulation};

use crate::network::{Network, SegmentId};

/// Declarative description of a pool topology. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    /// Total stations (MACs `0..machines`).
    pub machines: u32,
    /// Stations per leaf segment (the paper's pool wires 8).
    pub per_segment: u32,
    /// How many of the first machines attach directly to the backbone
    /// segment instead of a leaf (servers on the core switch). Non-zero
    /// forces the tree shape.
    pub backbone_stations: u32,
    /// Leaf segments per edge switch. More leaves than this forces the tree
    /// shape; fewer build the classic flat switch.
    pub segments_per_switch: u32,
    /// Scheduler lanes leaf segments round-robin over (`1` keeps everything
    /// on the root lane; the backbone always lives on the root lane).
    pub lanes: u32,
    /// Bandwidth of the backbone segment, when the tree shape applies
    /// (`None` keeps the network's default — rarely wise: every
    /// cross-switch frame crosses the backbone).
    pub backbone_bandwidth_bps: Option<u64>,
}

impl TopologySpec {
    /// The flat pool the paper-scale harnesses build: leaves of
    /// `per_segment` stations behind (at most) one switch, single lane.
    pub fn flat(machines: u32, per_segment: u32) -> Self {
        TopologySpec {
            machines,
            per_segment,
            backbone_stations: 0,
            segments_per_switch: u32::MAX,
            lanes: 1,
            backbone_bandwidth_bps: None,
        }
    }

    /// Number of leaf segments the spec produces (at least one unless every
    /// station sits on the backbone).
    pub fn n_leaves(&self) -> u32 {
        let leaf_stations = self.machines - self.backbone_stations;
        if leaf_stations == 0 && self.backbone_stations > 0 {
            0
        } else {
            leaf_stations.div_ceil(self.per_segment).max(1)
        }
    }

    /// Whether the spec realizes as a two-level tree (backbone + edge
    /// switches) rather than a flat switch.
    pub fn is_tree(&self) -> bool {
        self.backbone_stations > 0 || self.n_leaves() > self.segments_per_switch
    }

    /// Upper bound on the stations any single scheduler lane hosts: the
    /// busiest lane is the root lane, which carries every backbone station
    /// plus its round-robin share of the leaves. Used as a capacity hint
    /// for per-lane event-queue sizing
    /// ([`Simulation::builder`](desim::Simulation::builder)'s
    /// `expected_threads`); purely a performance hint, never semantic.
    pub fn max_machines_per_lane(&self) -> u32 {
        let leaf_share = self.n_leaves().div_ceil(self.lanes.max(1)) * self.per_segment;
        self.backbone_stations + leaf_share.min(self.machines - self.backbone_stations)
    }

    /// Realizes the spec on `net`: adds lanes, segments, and switches, and
    /// returns the placement map. `name` names the flat switch (the
    /// harnesses' historical `"pool"`) or prefixes the edge switches.
    ///
    /// Stations are *not* attached here — callers boot machines with
    /// [`Topology::segment_of`] / [`Topology::lane_of`] so the network
    /// crate stays protocol-agnostic.
    pub fn build(&self, sim: &mut Simulation, net: &mut Network, name: &str) -> Topology {
        assert!(self.per_segment > 0, "per_segment must be positive");
        assert!(self.lanes >= 1, "at least one lane");
        assert!(
            self.segments_per_switch > 0,
            "segments_per_switch must be positive"
        );
        assert!(
            self.backbone_stations <= self.machines,
            "more backbone stations than machines"
        );
        let mut lanes = vec![LaneId::ZERO];
        for _ in 1..self.lanes {
            lanes.push(sim.add_lane());
        }
        let n_leaves = self.n_leaves();
        let leaf_segments: Vec<SegmentId> = (0..n_leaves)
            .map(|s| net.add_segment_on(sim, &format!("seg{s}"), lanes[(s as usize) % lanes.len()]))
            .collect();
        let backbone = if self.is_tree() {
            Some(match self.backbone_bandwidth_bps {
                Some(bw) => net.add_segment_on_with_bandwidth(sim, "backbone", LaneId::ZERO, bw),
                None => net.add_segment_on(sim, "backbone", LaneId::ZERO),
            })
        } else {
            None
        };
        if let Some(bb) = backbone {
            for (e, chunk) in leaf_segments
                .chunks(self.segments_per_switch as usize)
                .enumerate()
            {
                net.add_switch_with_uplink(sim, chunk, bb, &format!("{name}{e}"));
            }
        } else if leaf_segments.len() > 1 {
            net.add_switch(sim, &leaf_segments, name);
        }
        Topology {
            lanes,
            leaf_segments,
            backbone,
            spec: self.clone(),
        }
    }
}

/// A realized [`TopologySpec`]: the lanes and segments it created, plus the
/// machine→segment→lane placement map.
#[derive(Debug, Clone)]
pub struct Topology {
    lanes: Vec<LaneId>,
    leaf_segments: Vec<SegmentId>,
    backbone: Option<SegmentId>,
    spec: TopologySpec,
}

impl Topology {
    /// The spec this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// The scheduler lanes, root lane first (`lanes[i]` hosts the leaf
    /// segments with index ≡ i mod lanes).
    pub fn lanes(&self) -> &[LaneId] {
        &self.lanes
    }

    /// The leaf segments in index order.
    pub fn leaf_segments(&self) -> &[SegmentId] {
        &self.leaf_segments
    }

    /// The backbone segment (tree shape only).
    pub fn backbone(&self) -> Option<SegmentId> {
        self.backbone
    }

    /// The leaf index machine `m` lives on (`None` for backbone stations).
    fn leaf_index_of(&self, machine: u32) -> Option<usize> {
        if machine < self.spec.backbone_stations {
            None
        } else {
            Some(((machine - self.spec.backbone_stations) / self.spec.per_segment) as usize)
        }
    }

    /// Home segment of machine `m`: the backbone for the first
    /// `backbone_stations` machines, then leaves filled `per_segment` at a
    /// time in machine order.
    pub fn segment_of(&self, machine: u32) -> SegmentId {
        assert!(
            machine < self.spec.machines,
            "machine {machine} out of range"
        );
        match self.leaf_index_of(machine) {
            None => self.backbone.expect("backbone stations imply a backbone"),
            Some(leaf) => self.leaf_segments[leaf],
        }
    }

    /// Scheduler lane of machine `m`'s home segment (machines must run on
    /// their segment's lane).
    pub fn lane_of(&self, machine: u32) -> LaneId {
        assert!(
            machine < self.spec.machines,
            "machine {machine} out of range"
        );
        match self.leaf_index_of(machine) {
            None => LaneId::ZERO,
            Some(leaf) => self.lanes[leaf % self.lanes.len()],
        }
    }
}
