//! Segments, NICs, and the switch.
//!
//! A [`Network`] owns any number of shared-medium segments. Each segment is
//! driven by a daemon thread that serializes transmissions at the configured
//! bandwidth (half-duplex, like the paper's 10 Mbit/s Ethernet) and then
//! delivers the frame to every matching attachment.
//!
//! # The switch
//!
//! Switches join segments store-and-forward. There is one switch, built two
//! ways: [`Network::add_switch`] joins peer segments (a *flat* switch, the
//! paper's processor pool), and [`Network::add_switch_with_uplink`] joins
//! leaf segments to a shared backbone (an *edge* switch, one level of a
//! switch tree). Every port is a promiscuous capture attachment on its
//! segment plus one daemon on that segment's processor, holding a link to
//! every other port of the switch. A port forwards only frames that entered
//! the switch through it: a unicast goes out of the port that leads to the
//! destination's home segment, and multicast and broadcast frames are
//! flooded. The two shapes differ only in their uplink:
//!
//! - a flat switch has none: a unicast to a station behind no port is
//!   dropped, and every multicast is flooded to every other port;
//! - an edge switch routes unicasts for stations behind none of its leaves
//!   up the uplink, and prunes multicast floods to the ports that lead to
//!   members.
//!
//! # Sharding: segments as the unit of parallelism
//!
//! A segment can be placed on a dedicated scheduler lane with
//! [`Network::add_segment_on`], which lets the simulation advance segments
//! concurrently under desim's conservative windowed driver. A switch link
//! between segments on one lane is *local*: the port sleeps the hop latency
//! ([`NetConfig::switch_latency`]) and then enqueues the frame, so frames
//! behind it on the same port queue up. A link between lanes is a
//! cross-lane link whose delay is the hop latency: the frame is
//! *pipelined*, arriving `switch_latency` after capture without blocking
//! the port. That is the only forwarding difference; an isolated frame
//! arrives at the same instant either way. The cross-lane delay is the
//! conservative lookahead of the windowed driver
//! ([`Simulation::lookahead`]), so building one needs a positive
//! `switch_latency`.
//!
//! ## Fault injection under sharding
//!
//! Each segment daemon draws fault coin flips from its own lane's RNG, so
//! probability knobs ([`FaultState::wire_loss_prob`] etc.) and static
//! topology faults ([`FaultState::crash`], [`FaultState::partition`]) remain
//! bit-identical across shard counts. Two knobs mutate shared state per
//! carried frame and are therefore restricted to single-lane topologies:
//! [`FaultState::gilbert`] and [`FaultState::force_drop_next`]. The
//! restriction is enforced: a segment daemon that sees either knob active
//! on a network whose segments span lanes panics with a diagnostic. With
//! multiple lanes, set fault knobs before the run starts (or from a thread
//! on the same lane as the affected segment); mid-run mutation from another
//! lane races with that lane's window execution.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, LaneId, On, PendingWake, ProcId, SimChannel, SimDuration, Simulation, XSender};
use parking_lot::Mutex;

use crate::frame::{Dest, Frame, MacAddr, McastAddr};

/// Identifies a segment within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(usize);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Static configuration of a [`Network`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Raw bandwidth of every segment, in bits per second.
    pub bandwidth_bps: u64,
    /// Fixed store-and-forward latency added by the switch per hop.
    pub switch_latency: SimDuration,
}

impl Default for NetConfig {
    /// The paper's network: 10 Mbit/s Ethernet, a small switch latency.
    fn default() -> Self {
        NetConfig {
            bandwidth_bps: 10_000_000,
            switch_latency: SimDuration::from_micros(30),
        }
    }
}

/// A two-state Gilbert–Elliott burst-loss model: the wire alternates between
/// a *good* and a *bad* state with per-frame transition probabilities, and
/// each state has its own loss rate. Captures correlated loss bursts that
/// independent per-frame coin flips cannot produce.
///
/// The state advances once per frame transmitted on the medium; the effective
/// wire-loss probability of a frame is the maximum of the current state's
/// loss rate and [`FaultState::wire_loss_prob`].
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of transitioning good → bad.
    pub p_enter_bad: f64,
    /// Per-frame probability of transitioning bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state (usually 0 or small).
    pub loss_good: f64,
    /// Loss probability while in the bad state (usually large).
    pub loss_bad: f64,
    /// Current channel state (`true` = bad). Starts good.
    pub bad: bool,
}

impl GilbertElliott {
    /// A model starting in the good state.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
            bad: false,
        }
    }
}

/// Runtime-adjustable fault injection knobs (see [`Network::faults`]).
///
/// Every knob defaults to "off", and fault code draws from the simulation
/// RNG only when the corresponding knob is active — so a default
/// `FaultState` leaves the schedule bit-identical to a build without fault
/// injection (the zero-cost discipline the golden-trace tests pin).
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// Probability that a frame is lost on the wire (all receivers miss it).
    pub wire_loss_prob: f64,
    /// Probability that an individual receiver drops an arriving frame.
    pub rx_loss_prob: f64,
    /// Unconditionally drop this many upcoming frames (wire-level), then
    /// resume normal behaviour. Useful for targeted recovery tests.
    ///
    /// **Single-lane only.** The countdown is shared mutable state
    /// decremented per carried frame; on a network whose segments span
    /// scheduler lanes the decrements race between lanes, so using the knob
    /// there panics at the first carried frame (see the module docs).
    pub force_drop_next: u64,
    /// Probability that a delivered frame is delivered *twice* to the same
    /// receiver (duplicate generation, e.g. a confused repeater).
    pub dup_prob: f64,
    /// Probability that an individual delivery is held back and released
    /// only after later frames have been carried (reordering/jitter).
    pub reorder_prob: f64,
    /// Maximum number of subsequent carried frames a held delivery waits
    /// behind (the actual hold is uniform in `1..=reorder_span`); `0` is
    /// treated as `1`.
    pub reorder_span: u64,
    /// Optional burst-loss channel model layered over `wire_loss_prob`.
    ///
    /// **Single-lane only.** The Gilbert–Elliott channel state advances per
    /// carried frame in shared mutable state; on a multi-lane network the
    /// transitions race between lanes, so activating the model there panics
    /// at the first carried frame (see the module docs).
    pub gilbert: Option<GilbertElliott>,
    /// Severed links: frames between a partitioned pair are dropped at the
    /// receiver side, in both directions. Keyed by normalized MAC pairs.
    partitions: HashSet<(MacAddr, MacAddr)>,
    /// Crashed machines: their NIC neither transmits nor receives. Protocol
    /// state above the NIC survives (fail-recover), so a reboot forces the
    /// stacks through their retransmission / gap-repair / resync paths.
    down: HashSet<MacAddr>,
}

fn pair_key(a: MacAddr, b: MacAddr) -> (MacAddr, MacAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultState {
    /// Severs the link between `a` and `b` (both directions).
    pub fn partition(&mut self, a: MacAddr, b: MacAddr) {
        self.partitions.insert(pair_key(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: MacAddr, b: MacAddr) {
        self.partitions.remove(&pair_key(a, b));
    }

    /// Restores all severed links.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// True if the link between `a` and `b` is currently severed.
    pub fn is_partitioned(&self, a: MacAddr, b: MacAddr) -> bool {
        self.partitions.contains(&pair_key(a, b))
    }

    /// Takes `mac`'s NIC off the network: nothing it sends reaches the wire
    /// and nothing addressed to it is delivered, until [`FaultState::reboot`].
    pub fn crash(&mut self, mac: MacAddr) {
        self.down.insert(mac);
    }

    /// Brings a crashed machine's NIC back onto the network.
    pub fn reboot(&mut self, mac: MacAddr) {
        self.down.remove(&mac);
    }

    /// True if `mac`'s NIC is currently off the network.
    pub fn is_down(&self, mac: MacAddr) -> bool {
        self.down.contains(&mac)
    }

    /// Number of currently severed links.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Number of currently crashed machines.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// True if any fault knob is active (used by tests asserting a plan
    /// really was cleaned up before the end of a run).
    pub fn any_active(&self) -> bool {
        self.wire_loss_prob > 0.0
            || self.rx_loss_prob > 0.0
            || self.force_drop_next > 0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.gilbert.is_some()
            || !self.partitions.is_empty()
            || !self.down.is_empty()
    }
}

/// Cumulative per-segment counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Frames successfully carried.
    pub frames: u64,
    /// Wire bytes successfully carried (including framing overhead).
    pub wire_bytes: u64,
    /// Total time the medium was busy.
    pub busy: SimDuration,
    /// Frames lost on the wire (fault injection).
    pub wire_drops: u64,
    /// Per-receiver deliveries dropped (fault injection).
    pub rx_drops: u64,
    /// Frames a crashed sender's NIC never put on the wire.
    pub down_tx_drops: u64,
    /// Per-receiver deliveries suppressed because the link was partitioned
    /// or the destination machine was down.
    pub link_drops: u64,
    /// Extra deliveries generated by frame duplication.
    pub dup_deliveries: u64,
    /// Deliveries held back for reordering (each later released or, if the
    /// receiver became unreachable meanwhile, counted into `link_drops`).
    pub held_deliveries: u64,
}

impl SegmentStats {
    /// Fraction of `elapsed` during which the medium was busy.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

struct Attachment {
    mac: Option<MacAddr>,
    promiscuous: bool,
    groups: HashSet<McastAddr>,
    rx: SimChannel<Frame>,
}

/// A delivery held back by reorder injection: released onto its receiver's
/// queue after `remaining` more frames have crossed the medium.
struct HeldDelivery {
    remaining: u64,
    rx: SimChannel<Frame>,
    dst_mac: Option<MacAddr>,
    frame: Frame,
}

struct SegmentInner {
    tx: SimChannel<Frame>,
    attachments: Vec<Attachment>,
    stats: SegmentStats,
    held: Vec<HeldDelivery>,
    /// Scheduler lane this segment's daemon runs on.
    lane: LaneId,
    /// The segment daemon's processor (the cross-lane links' destination
    /// placement; delivery itself is injected into the lane's event queue
    /// at window-flush time, no daemon involved).
    proc: ProcId,
    /// Serialization rate of this medium (per-segment: a backbone segment
    /// may be faster than the default leaf bandwidth).
    ns_per_byte: u64,
    /// Multicast membership count per group on this segment (kept by
    /// join/leave so switch trees can prune floods to memberless subtrees).
    mcast_members: HashMap<McastAddr, u32>,
}

struct NetInner {
    segments: Vec<SegmentInner>,
    /// Static station directory: `mac -> segment` (index by `MacAddr.0`).
    mac_home: Vec<Option<SegmentId>>,
    /// Network-wide multicast membership counts (for switch-tree pruning).
    mcast_total: HashMap<McastAddr, u32>,
    /// True once segments span more than one scheduler lane; gates the
    /// fault knobs that mutate shared state per carried frame.
    multi_lane: bool,
}

impl NetInner {
    fn home_of(&self, mac: MacAddr) -> Option<SegmentId> {
        self.mac_home.get(mac.0 as usize).copied().flatten()
    }
}

/// A simulated multi-segment Ethernet.
///
/// # Examples
///
/// ```
/// use desim::Simulation;
/// use ethernet::{Dest, MacAddr, NetConfig, Network};
/// use bytes::Bytes;
///
/// let mut sim = Simulation::new(1);
/// let mut net = Network::new(NetConfig::default());
/// let seg = net.add_segment(&mut sim, "seg0");
/// let a = net.attach(MacAddr(0), seg);
/// let b = net.attach(MacAddr(1), seg);
///
/// let m0 = sim.add_processor("m0");
/// let m1 = sim.add_processor("m1");
/// sim.spawn(m0, "sender", {
///     let a = a.clone();
///     move |ctx| a.send(ctx, Dest::Unicast(MacAddr(1)), Bytes::from_static(b"hello"))
/// });
/// let rxed = sim.spawn(m1, "receiver", move |ctx| {
///     let f = b.rx().recv(ctx).expect("frame");
///     assert_eq!(&f.payload[..], b"hello");
/// });
/// sim.run_until_finished(&rxed).expect("run");
/// ```
#[derive(Clone)]
pub struct Network {
    cfg: NetConfig,
    inner: Arc<Mutex<NetInner>>,
    faults: Arc<Mutex<FaultState>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Network")
            .field("segments", &inner.segments.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl Network {
    /// Creates an empty network with the given configuration.
    pub fn new(cfg: NetConfig) -> Self {
        Network {
            cfg,
            inner: Arc::new(Mutex::new(NetInner {
                segments: Vec::new(),
                mac_home: Vec::new(),
                mcast_total: HashMap::new(),
                multi_lane: false,
            })),
            faults: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// Nanoseconds to put one byte on the wire.
    fn ns_per_byte(&self) -> u64 {
        8_000_000_000 / self.cfg.bandwidth_bps
    }

    /// Time a frame occupies the medium.
    pub fn wire_time(&self, frame: &Frame) -> SimDuration {
        SimDuration::from_nanos(frame.wire_bytes() as u64 * self.ns_per_byte())
    }

    /// Returns the shared fault-injection state for runtime adjustment.
    pub fn faults(&self) -> Arc<Mutex<FaultState>> {
        Arc::clone(&self.faults)
    }

    /// Adds a shared-medium segment and spawns its transmission daemon on
    /// the root lane. Equivalent to `add_segment_on(sim, name, LaneId::ZERO)`.
    pub fn add_segment(&mut self, sim: &mut Simulation, name: &str) -> SegmentId {
        self.add_segment_on(sim, name, LaneId::ZERO)
    }

    /// Adds a shared-medium segment whose transmission daemon runs on the
    /// given scheduler lane. Segments on different lanes advance in parallel
    /// under the windowed driver; connect them with [`Network::add_switch`],
    /// which builds cross-lane links automatically.
    pub fn add_segment_on(&mut self, sim: &mut Simulation, name: &str, lane: LaneId) -> SegmentId {
        self.add_segment_on_with_bandwidth(sim, name, lane, self.cfg.bandwidth_bps)
    }

    /// Adds a segment with an explicit bandwidth overriding
    /// [`NetConfig::bandwidth_bps`] — e.g. a fast backbone segment behind
    /// which slow leaf segments aggregate in a switch tree.
    pub fn add_segment_on_with_bandwidth(
        &mut self,
        sim: &mut Simulation,
        name: &str,
        lane: LaneId,
        bandwidth_bps: u64,
    ) -> SegmentId {
        let tx = SimChannel::new();
        let proc = sim.add_processor_on(lane, &format!("net-{name}"));
        let id = {
            let mut inner = self.inner.lock();
            let id = SegmentId(inner.segments.len());
            if let Some(first) = inner.segments.first() {
                if first.lane != lane {
                    inner.multi_lane = true;
                }
            }
            inner.segments.push(SegmentInner {
                tx: tx.clone(),
                attachments: Vec::new(),
                stats: SegmentStats::default(),
                held: Vec::new(),
                lane,
                proc,
                ns_per_byte: 8_000_000_000 / bandwidth_bps,
                mcast_members: HashMap::new(),
            });
            id
        };
        let net = self.clone();
        sim.spawn_daemon_on_lane(lane, proc, &format!("eth-{name}"), move |ctx| {
            net.segment_daemon(ctx, id);
        });
        id
    }

    /// The scheduler lane a segment's daemon runs on.
    pub fn segment_lane(&self, segment: SegmentId) -> LaneId {
        self.inner.lock().segments[segment.0].lane
    }

    /// Attaches a station to `segment` and returns its NIC.
    ///
    /// # Panics
    ///
    /// Panics if the MAC is already attached or the segment is unknown.
    pub fn attach(&mut self, mac: MacAddr, segment: SegmentId) -> Nic {
        let mut inner = self.inner.lock();
        assert!(segment.0 < inner.segments.len(), "unknown {segment}");
        let idx = mac.0 as usize;
        if inner.mac_home.len() <= idx {
            inner.mac_home.resize(idx + 1, None);
        }
        assert!(inner.mac_home[idx].is_none(), "{mac} attached twice");
        inner.mac_home[idx] = Some(segment);
        let rx = SimChannel::new();
        let tx = inner.segments[segment.0].tx.clone();
        inner.segments[segment.0].attachments.push(Attachment {
            mac: Some(mac),
            promiscuous: false,
            groups: HashSet::new(),
            rx: rx.clone(),
        });
        Nic {
            mac,
            segment,
            tx,
            rx,
            net: Arc::clone(&self.inner),
        }
    }

    /// Connects `segments` with a flat store-and-forward switch.
    ///
    /// Unicast frames are forwarded to the destination's home segment when
    /// it is one of `segments`; multicast and broadcast frames are flooded to
    /// all other segments. A single flat switch per network is supported
    /// (no loop protection).
    ///
    /// Every port runs on its segment's lane. Hops between segments on one
    /// lane sleep the switch latency; hops onto another lane ride cross-lane
    /// links of delay [`NetConfig::switch_latency`], which must then be
    /// positive (see the module docs).
    pub fn add_switch(&mut self, sim: &mut Simulation, segments: &[SegmentId], name: &str) {
        self.build_switch(sim, segments, None, name);
    }

    /// Connects `leaves` to a shared `uplink` segment with an edge switch —
    /// the building block of a two-level switch tree: many leaf segments
    /// aggregate behind one (usually faster) backbone segment, and several
    /// edge switches may share that backbone. Unlike [`Network::add_switch`],
    /// any number of edge switches can coexist on one network.
    ///
    /// Forwarding is routed, not flooded: a unicast frame from a leaf goes
    /// to the sibling leaf that is home to its destination, or up to the
    /// backbone otherwise; a frame arriving on the backbone is forwarded
    /// down only if its destination lives behind one of this switch's
    /// leaves. Multicast floods are pruned: a leaf receives a group frame
    /// only if a member is attached there, and the backbone only if members
    /// exist beyond this switch's leaves (broadcast is never pruned).
    ///
    /// Stations must attach either to a leaf or to the backbone itself —
    /// the tree is two-level (edge switches never cascade). Ports are placed
    /// and linked as in [`Network::add_switch`].
    pub fn add_switch_with_uplink(
        &mut self,
        sim: &mut Simulation,
        leaves: &[SegmentId],
        uplink: SegmentId,
        name: &str,
    ) {
        assert!(
            !leaves.contains(&uplink),
            "the uplink segment cannot also be a leaf of the same switch"
        );
        self.build_switch(sim, leaves, Some(uplink), name);
    }

    /// Builds one switch with a port on every leaf and then on the uplink,
    /// each linked to every other port in port order. That order is also
    /// the cross-lane links' registration order, which is the windowed
    /// driver's flush order.
    fn build_switch(
        &mut self,
        sim: &mut Simulation,
        leaves: &[SegmentId],
        uplink: Option<SegmentId>,
        name: &str,
    ) {
        let ports: Vec<SegmentId> = leaves.iter().copied().chain(uplink).collect();
        let placed: Vec<(LaneId, ProcId, SimChannel<Frame>)> = {
            let inner = self.inner.lock();
            ports
                .iter()
                .map(|s| {
                    let s = &inner.segments[s.0];
                    (s.lane, s.proc, s.tx.clone())
                })
                .collect()
        };
        for (&seg, &(lane, proc, _)) in ports.iter().zip(&placed) {
            let rx = self.add_switch_port(seg);
            let mut links = Vec::with_capacity(ports.len() - 1);
            for (&dst, (dst_lane, dst_proc, dst_tx)) in ports.iter().zip(&placed) {
                if dst == seg {
                    continue;
                }
                let link = if *dst_lane == lane {
                    PortLink::Local(dst_tx.clone())
                } else {
                    assert!(
                        !self.cfg.switch_latency.is_zero(),
                        "a cross-lane switch hop needs a positive switch_latency (it is the lookahead)"
                    );
                    PortLink::Cross(sim.cross_link(
                        &format!("sw-{name}-{seg}-{dst}"),
                        self.cfg.switch_latency,
                        lane,
                        *dst_lane,
                        *dst_proc,
                        dst_tx.clone(),
                    ))
                };
                links.push((dst, link));
            }
            let port = SwitchPort {
                seg,
                rx,
                leaves: leaves.to_vec(),
                uplink,
                links,
            };
            let net = self.clone();
            sim.spawn_daemon_on_lane(lane, proc, &format!("sw-{name}-{seg}"), move |ctx| {
                net.switch_port_daemon(ctx, &port);
            });
        }
    }

    /// Attaches a promiscuous capture port for a switch to `seg` and returns
    /// its receive queue.
    fn add_switch_port(&mut self, seg: SegmentId) -> SimChannel<Frame> {
        let port_rx = SimChannel::new();
        let mut inner = self.inner.lock();
        inner.segments[seg.0].attachments.push(Attachment {
            mac: None,
            promiscuous: true,
            groups: HashSet::new(),
            rx: port_rx.clone(),
        });
        port_rx
    }

    /// Snapshot of a segment's counters.
    pub fn segment_stats(&self, segment: SegmentId) -> SegmentStats {
        self.inner.lock().segments[segment.0].stats.clone()
    }

    /// Sum of all segment counters.
    pub fn total_stats(&self) -> SegmentStats {
        let inner = self.inner.lock();
        let mut total = SegmentStats::default();
        for s in &inner.segments {
            total.frames += s.stats.frames;
            total.wire_bytes += s.stats.wire_bytes;
            total.busy += s.stats.busy;
            total.wire_drops += s.stats.wire_drops;
            total.rx_drops += s.stats.rx_drops;
            total.down_tx_drops += s.stats.down_tx_drops;
            total.link_drops += s.stats.link_drops;
            total.dup_deliveries += s.stats.dup_deliveries;
            total.held_deliveries += s.stats.held_deliveries;
        }
        total
    }

    /// Deliveries currently held back by reorder injection, across all
    /// segments (in-flight from the conservation invariant's point of view).
    pub fn held_pending(&self) -> u64 {
        let inner = self.inner.lock();
        inner.segments.iter().map(|s| s.held.len() as u64).sum()
    }

    fn segment_daemon(&self, ctx: &Ctx, id: SegmentId) {
        // Topology is static once the run starts, so the medium rate and the
        // lane span can be cached across the daemon's lifetime.
        let (tx, ns_per_byte, multi_lane) = {
            let inner = self.inner.lock();
            let seg = &inner.segments[id.0];
            (seg.tx.clone(), seg.ns_per_byte, inner.multi_lane)
        };
        while let Some(frame) = tx.recv(ctx) {
            // A crashed sender's NIC transmits nothing: the frame vanishes
            // before it touches the medium (no busy time, no wire drop).
            if self.faults.lock().is_down(frame.src) {
                self.inner.lock().segments[id.0].stats.down_tx_drops += 1;
                ctx.trace_instant(Layer::Net, "down_drop", &[("src", u64::from(frame.src.0))]);
                continue;
            }
            let wire = SimDuration::from_nanos(frame.wire_bytes() as u64 * ns_per_byte);
            ctx.trace_emit(
                Layer::Net,
                Phase::Begin,
                "wire",
                &[
                    ("bytes", frame.wire_bytes() as u64),
                    ("src", u64::from(frame.src.0)),
                ],
            );
            ctx.sleep(wire); // the medium is busy; later frames queue behind
            ctx.trace_emit(Layer::Net, Phase::End, "wire", &[("ns", wire.as_nanos())]);
            let dropped = {
                let mut faults = self.faults.lock();
                if faults.force_drop_next > 0 {
                    assert!(
                        !multi_lane,
                        "FaultState::force_drop_next is restricted to single-lane networks: \
                         it decrements shared fault state per carried frame, which races \
                         between lanes under the windowed driver; keep every segment on one \
                         lane (LaneId::ZERO) to use it"
                    );
                    faults.force_drop_next -= 1;
                    true
                } else {
                    let mut p = faults.wire_loss_prob;
                    if let Some(ge) = faults.gilbert.as_mut() {
                        assert!(
                            !multi_lane,
                            "FaultState::gilbert (Gilbert–Elliott burst loss) is restricted \
                             to single-lane networks: the channel state advances per carried \
                             frame in shared fault state, which races between lanes under the \
                             windowed driver; keep every segment on one lane (LaneId::ZERO) \
                             to use it"
                        );
                        // The channel state advances once per frame carried
                        // on the medium.
                        let flip = if ge.bad {
                            ge.p_exit_bad
                        } else {
                            ge.p_enter_bad
                        };
                        if flip > 0.0 && ctx.rand_bool(flip) {
                            ge.bad = !ge.bad;
                        }
                        let burst = if ge.bad { ge.loss_bad } else { ge.loss_good };
                        p = p.max(burst);
                    }
                    drop(faults);
                    p > 0.0 && ctx.rand_bool(p)
                }
            };
            {
                let mut inner = self.inner.lock();
                let seg = &mut inner.segments[id.0];
                seg.stats.busy += wire;
                if dropped {
                    seg.stats.wire_drops += 1;
                } else {
                    seg.stats.frames += 1;
                    seg.stats.wire_bytes += frame.wire_bytes() as u64;
                }
            }
            if dropped {
                ctx.trace_instant(
                    Layer::Net,
                    "wire_drop",
                    &[("bytes", frame.wire_bytes() as u64)],
                );
                self.release_held(ctx, id);
                continue;
            }
            ctx.trace_instant(
                Layer::Net,
                "frame",
                &[
                    ("bytes", frame.wire_bytes() as u64),
                    ("src", u64::from(frame.src.0)),
                ],
            );
            let targets: Vec<(Option<MacAddr>, SimChannel<Frame>)> = {
                let inner = self.inner.lock();
                inner.segments[id.0]
                    .attachments
                    .iter()
                    .filter(|a| {
                        a.promiscuous
                            || match frame.dst {
                                Dest::Unicast(m) => a.mac == Some(m),
                                Dest::Multicast(g) => a.groups.contains(&g),
                                Dest::Broadcast => true,
                            }
                    })
                    .filter(|a| a.mac != Some(frame.src)) // no self-delivery
                    .map(|a| (a.mac, a.rx.clone()))
                    .collect()
            };
            let f = self.faults.lock().clone();
            // One fan-out: enqueue the frame on every reachable attachment
            // first, then commit all receiver wakes in one batch below.
            // Capture order == the old per-target send order, and only this
            // daemon runs in between, so seq assignment, perturbation tie
            // draws, and per-receiver pick order are bit-identical to
            // unbatched delivery. Fault draws stay per delivery, in the
            // same RNG order (reachability, rx-loss, reorder, dup).
            let mut wakes: Vec<PendingWake> = Vec::new();
            for (mac, target) in targets {
                // Reachability first — purely deterministic, no RNG draws.
                if let Some(m) = mac {
                    if f.is_down(m) || f.is_partitioned(frame.src, m) {
                        self.inner.lock().segments[id.0].stats.link_drops += 1;
                        ctx.trace_instant(
                            Layer::Net,
                            "link_drop",
                            &[("src", u64::from(frame.src.0)), ("dst", u64::from(m.0))],
                        );
                        continue;
                    }
                }
                if f.rx_loss_prob > 0.0 && ctx.rand_bool(f.rx_loss_prob) {
                    self.inner.lock().segments[id.0].stats.rx_drops += 1;
                    ctx.trace_instant(Layer::Net, "rx_drop", &[("src", u64::from(frame.src.0))]);
                    continue;
                }
                if f.reorder_prob > 0.0 && ctx.rand_bool(f.reorder_prob) {
                    let span = f.reorder_span.max(1);
                    let remaining = 1 + ctx.rand_range(span);
                    let mut inner = self.inner.lock();
                    let seg = &mut inner.segments[id.0];
                    seg.stats.held_deliveries += 1;
                    seg.held.push(HeldDelivery {
                        remaining,
                        rx: target,
                        dst_mac: mac,
                        frame: frame.clone(),
                    });
                    ctx.trace_instant(
                        Layer::Net,
                        "rx_held",
                        &[("src", u64::from(frame.src.0)), ("frames", remaining)],
                    );
                    continue;
                }
                ctx.trace_instant(Layer::Net, "rx", &[("src", u64::from(frame.src.0))]);
                if let Ok(Some(w)) = target.send_deferred(frame.clone()) {
                    wakes.push(w);
                }
                if f.dup_prob > 0.0 && ctx.rand_bool(f.dup_prob) {
                    self.inner.lock().segments[id.0].stats.dup_deliveries += 1;
                    ctx.trace_instant(Layer::Net, "rx_dup", &[("src", u64::from(frame.src.0))]);
                    if let Ok(Some(w)) = target.send_deferred(frame.clone()) {
                        wakes.push(w);
                    }
                }
            }
            if !wakes.is_empty() {
                ctx.commit_wakes(wakes);
            }
            self.release_held(ctx, id);
        }
    }

    /// Advances reorder hold-backs by one carried-or-dropped frame and
    /// releases the deliveries whose countdown expired (in hold order). A
    /// release re-checks reachability: a receiver that crashed or was
    /// partitioned away while the frame was held loses it.
    fn release_held(&self, ctx: &Ctx, id: SegmentId) {
        let due: Vec<HeldDelivery> = {
            let mut inner = self.inner.lock();
            let seg = &mut inner.segments[id.0];
            if seg.held.is_empty() {
                return;
            }
            for h in &mut seg.held {
                h.remaining -= 1;
            }
            let mut due = Vec::new();
            seg.held.retain_mut(|h| {
                if h.remaining == 0 {
                    due.push(HeldDelivery {
                        remaining: 0,
                        rx: h.rx.clone(),
                        dst_mac: h.dst_mac,
                        frame: h.frame.clone(),
                    });
                    false
                } else {
                    true
                }
            });
            due
        };
        let mut wakes: Vec<PendingWake> = Vec::new();
        for h in due {
            let unreachable = match h.dst_mac {
                Some(m) => {
                    let f = self.faults.lock();
                    f.is_down(m) || f.is_partitioned(h.frame.src, m)
                }
                None => false,
            };
            if unreachable {
                self.inner.lock().segments[id.0].stats.link_drops += 1;
                ctx.trace_instant(
                    Layer::Net,
                    "link_drop",
                    &[("src", u64::from(h.frame.src.0))],
                );
                continue;
            }
            ctx.trace_instant(
                Layer::Net,
                "rx_release",
                &[("src", u64::from(h.frame.src.0))],
            );
            if let Ok(Some(w)) = h.rx.send_deferred(h.frame) {
                wakes.push(w);
            }
        }
        if !wakes.is_empty() {
            ctx.commit_wakes(wakes);
        }
    }

    /// Forwards every frame that entered the switch through `port` (see the
    /// module docs).
    fn switch_port_daemon(&self, ctx: &Ctx, port: &SwitchPort) {
        let is_uplink = port.uplink == Some(port.seg);
        while let Some(frame) = port.rx.recv(ctx) {
            let Some(src) = self.inner.lock().home_of(frame.src) else {
                continue;
            };
            // Inbound gate: forward only frames whose source lives on this
            // port's side of the switch — everything else is a copy this
            // switch (or a sibling on the backbone) injected itself.
            let inbound = if is_uplink {
                !port.leaves.contains(&src)
            } else {
                src == port.seg
            };
            if !inbound {
                continue;
            }
            match frame.dst {
                Dest::Unicast(mac) => {
                    let Some(dst) = self.inner.lock().home_of(mac) else {
                        continue;
                    };
                    let out = if port.leaves.contains(&dst) {
                        dst
                    } else {
                        // Not behind this switch: route toward the backbone,
                        // unless the frame came from there.
                        match port.uplink {
                            Some(up) if !is_uplink => up,
                            _ => continue,
                        }
                    };
                    // A port has no link to its own segment: local traffic
                    // is not forwarded.
                    let Some((_, link)) = port.links.iter().find(|(s, _)| *s == out) else {
                        continue;
                    };
                    let hop = self.cfg.switch_latency;
                    ctx.charge(Layer::Net, On::Off, &[("switch_hop", hop)]);
                    match link {
                        PortLink::Local(tx) => {
                            ctx.sleep(hop);
                            let _ = tx.send(ctx, frame);
                        }
                        PortLink::Cross(x) => x.send(ctx, frame),
                    }
                }
                Dest::Multicast(g) => self.flood(ctx, port, &frame, Some(g)),
                Dest::Broadcast => self.flood(ctx, port, &frame, None),
            }
        }
    }

    /// Floods a frame out of every other port of the switch. An edge switch
    /// prunes a multicast to the ports that lead to members; a flat switch
    /// floods it everywhere. Cross-lane sends go first (the link stamps
    /// arrival `switch_latency` from now), then the port sleeps the hop and
    /// enqueues on its same-lane segments in one batch, so every
    /// destination sees the frame at the same instant.
    fn flood(&self, ctx: &Ctx, port: &SwitchPort, frame: &Frame, group: Option<McastAddr>) {
        let targets: Vec<&PortLink> = {
            let inner = self.inner.lock();
            let members = |g: McastAddr, s: SegmentId| {
                inner.segments[s.0]
                    .mcast_members
                    .get(&g)
                    .copied()
                    .unwrap_or(0)
            };
            port.links
                .iter()
                .filter(|(s, _)| match (group, port.uplink) {
                    (Some(g), Some(up)) if *s == up => {
                        // Up the tree only if members exist beyond our leaves.
                        let under: u32 = port.leaves.iter().map(|&l| members(g, l)).sum();
                        inner.mcast_total.get(&g).copied().unwrap_or(0) > under
                    }
                    (Some(g), Some(_)) => members(g, *s) > 0,
                    _ => true,
                })
                .map(|(_, l)| l)
                .collect()
        };
        if targets.is_empty() {
            return;
        }
        let hop = self.cfg.switch_latency;
        ctx.charge(Layer::Net, On::Off, &[("switch_hop", hop)]);
        let mut any_local = false;
        for link in &targets {
            match link {
                PortLink::Cross(x) => x.send(ctx, frame.clone()),
                PortLink::Local(_) => any_local = true,
            }
        }
        if any_local {
            ctx.sleep(hop);
            let mut wakes: Vec<PendingWake> = Vec::new();
            for link in &targets {
                if let PortLink::Local(tx) = link {
                    if let Ok(Some(w)) = tx.send_deferred(frame.clone()) {
                        wakes.push(w);
                    }
                }
            }
            if !wakes.is_empty() {
                ctx.commit_wakes(wakes);
            }
        }
    }
}

/// One port of a switch: everything its daemon forwards by.
struct SwitchPort {
    /// The segment this port captures from.
    seg: SegmentId,
    /// The capture queue (a promiscuous attachment on `seg`).
    rx: SimChannel<Frame>,
    /// Every port's segment but the uplink (all of them on a flat switch).
    leaves: Vec<SegmentId>,
    /// The backbone segment of an edge switch; `None` on a flat switch.
    uplink: Option<SegmentId>,
    /// A link to every other port, in port order.
    links: Vec<(SegmentId, PortLink)>,
}

/// One forwarding edge of a switch port.
enum PortLink {
    /// Destination segment lives on the same lane: enqueue directly on its
    /// medium after sleeping the hop latency.
    Local(SimChannel<Frame>),
    /// Destination segment lives on another lane: a cross-lane link carries
    /// the frame with the hop latency as its delay.
    Cross(XSender<Frame>),
}

/// A station's network interface.
///
/// Cloning yields another handle to the same NIC (same receive queue).
#[derive(Clone)]
pub struct Nic {
    mac: MacAddr,
    segment: SegmentId,
    tx: SimChannel<Frame>,
    rx: SimChannel<Frame>,
    net: Arc<Mutex<NetInner>>,
}

impl fmt::Debug for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nic")
            .field("mac", &self.mac)
            .field("segment", &self.segment)
            .finish()
    }
}

impl Nic {
    /// This station's address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The segment this NIC is attached to.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Queues a payload for transmission. Returns once the frame is handed
    /// to the NIC (transmission proceeds asynchronously on the medium).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the MTU (see [`Frame::new`]).
    pub fn send(&self, ctx: &Ctx, dst: Dest, payload: Bytes) {
        let frame = Frame::new(self.mac, dst, payload);
        ctx.trace_instant(
            Layer::Net,
            "tx",
            &[
                ("bytes", frame.wire_bytes() as u64),
                ("src", u64::from(self.mac.0)),
            ],
        );
        let _ = self.tx.send(ctx, frame);
    }

    /// The receive queue: frames addressed to this station, its groups, or
    /// broadcast.
    pub fn rx(&self) -> &SimChannel<Frame> {
        &self.rx
    }

    /// Subscribes this NIC to a hardware multicast group.
    pub fn join_group(&self, group: McastAddr) {
        let mut inner = self.net.lock();
        let mut joined = false;
        {
            let seg = &mut inner.segments[self.segment.0];
            for a in &mut seg.attachments {
                if a.mac == Some(self.mac) {
                    joined |= a.groups.insert(group);
                }
            }
            if joined {
                *seg.mcast_members.entry(group).or_insert(0) += 1;
            }
        }
        if joined {
            *inner.mcast_total.entry(group).or_insert(0) += 1;
        }
    }

    /// Unsubscribes this NIC from a multicast group.
    pub fn leave_group(&self, group: McastAddr) {
        let mut inner = self.net.lock();
        let mut left = false;
        {
            let seg = &mut inner.segments[self.segment.0];
            for a in &mut seg.attachments {
                if a.mac == Some(self.mac) {
                    left |= a.groups.remove(&group);
                }
            }
            if left {
                if let Some(n) = seg.mcast_members.get_mut(&group) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        if left {
            if let Some(n) = inner.mcast_total.get_mut(&group) {
                *n = n.saturating_sub(1);
            }
        }
    }
}
