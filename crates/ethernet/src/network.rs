//! Segments, NICs, and the switch.
//!
//! A [`Network`] owns any number of shared-medium segments. Each segment is
//! driven by a daemon thread that serializes transmissions at the configured
//! bandwidth (half-duplex, like the paper's 10 Mbit/s Ethernet) and then
//! delivers the frame to every matching attachment.
//!
//! # The fan-out
//!
//! After a frame's wire time the segment daemon takes the fault state, then
//! the network state (the lock order: `faults` before `inner`; neither is
//! held across a sleep), and makes one pass over the segment's attachments
//! in attach order. For each: addressing (a station) or the switch route (a
//! port), reachability, the rx-loss, reorder and dup draws, then a plain
//! channel send. Receivers woken at one instant run in send order, so the
//! fan-out needs no batching to keep its pick order. Held deliveries whose
//! countdown expires are released in the same pass, and the frame's
//! counters are written to [`SegmentStats`] once.
//!
//! # The switch
//!
//! Switches join segments store-and-forward. There is one switch, built two
//! ways: [`Network::add_switch`] joins peer segments (a *flat* switch, the
//! paper's processor pool), and [`Network::add_switch_with_uplink`] joins
//! leaf segments to a shared backbone (an *edge* switch, one level of a
//! switch tree). Every port is a capture attachment on its segment plus one
//! daemon on that segment's processor, holding a link to every other port
//! of the switch. A port forwards only frames that entered the switch
//! through it: a unicast goes out of the port that leads to the
//! destination's home segment, and multicast and broadcast frames are
//! flooded. That decision, flood pruning included, is made once, by the
//! segment daemon's fan-out (`PortSpec::route`), so a port is handed only
//! the frames it forwards, each with its route: a frame that leads nowhere
//! through a port never wakes it. The two shapes differ only in their
//! uplink:
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
//! Each segment daemon draws fault coin flips from its own lane's RNG, in
//! the fan-out's attachment order, so probability knobs
//! ([`FaultState::wire_loss_prob`] etc.) and static topology faults
//! ([`FaultState::crash`], [`FaultState::partition`]) remain bit-identical
//! across shard counts. Two knobs mutate shared state per
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
use desim::{Ctx, LaneId, On, ProcId, SimChannel, SimDuration, Simulation, XSender};
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
///
/// The per-receiver knobs (`rx_loss_prob`, `reorder_prob`, `dup_prob`) draw
/// once per delivery, and a switch port is a receiver only for the frames it
/// forwards. A port that would not forward a frame is not handed it and
/// draws nothing for it, so a switched world with these knobs on takes a
/// different (equally valid) random path than when every port captured
/// every frame. Wire loss, crashes and partitions draw per frame or not at
/// all, so they are unaffected.
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
    /// behind its frame's other deliveries or behind later frames
    /// (reordering/jitter).
    pub reorder_prob: f64,
    /// Bounds a hold: uniform in `1..=reorder_span` frames carried or
    /// dropped on the segment, counting the frame that carried the held
    /// delivery. A hold of 1 releases it at the end of that frame's own
    /// fan-out, so a held delivery waits behind at most `reorder_span - 1`
    /// later frames. `0` is treated as `1`.
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

    /// True if the link between `a` and `b` is currently severed.
    fn is_partitioned(&self, a: MacAddr, b: MacAddr) -> bool {
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
    fn is_down(&self, mac: MacAddr) -> bool {
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

    /// Whether a frame just carried on a segment is lost on the wire: a
    /// forced drop, else one draw against the larger of `wire_loss_prob`
    /// and the Gilbert–Elliott state's loss rate. `multi_lane` says whether
    /// the network's segments span lanes.
    fn wire_drop(&mut self, ctx: &Ctx, multi_lane: bool) -> bool {
        if self.force_drop_next > 0 {
            assert!(
                !multi_lane,
                "FaultState::force_drop_next is restricted to single-lane networks: \
                 it decrements shared fault state per carried frame, which races \
                 between lanes under the windowed driver; keep every segment on one \
                 lane (LaneId::ZERO) to use it"
            );
            self.force_drop_next -= 1;
            return true;
        }
        let mut p = self.wire_loss_prob;
        if let Some(ge) = self.gilbert.as_mut() {
            assert!(
                !multi_lane,
                "FaultState::gilbert (Gilbert–Elliott burst loss) is restricted \
                 to single-lane networks: the channel state advances per carried \
                 frame in shared fault state, which races between lanes under the \
                 windowed driver; keep every segment on one lane (LaneId::ZERO) \
                 to use it"
            );
            // The channel state advances once per frame carried on
            // the medium.
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
        p > 0.0 && ctx.rand_bool(p)
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
    /// Adds every counter of `other` to this one.
    fn absorb(&mut self, other: &SegmentStats) {
        self.frames += other.frames;
        self.wire_bytes += other.wire_bytes;
        self.busy += other.busy;
        self.wire_drops += other.wire_drops;
        self.rx_drops += other.rx_drops;
        self.down_tx_drops += other.down_tx_drops;
        self.link_drops += other.link_drops;
        self.dup_deliveries += other.dup_deliveries;
        self.held_deliveries += other.held_deliveries;
    }

    /// Fraction of `elapsed` during which the medium was busy.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// A receiver on a segment, in attach order.
enum Attachment {
    /// A NIC: frames addressed to it, its groups, or broadcast.
    Station {
        mac: MacAddr,
        groups: HashSet<McastAddr>,
        rx: SimChannel<Frame>,
    },
    /// A switch port: the frames [`PortSpec::route`] sends somewhere.
    Port {
        spec: PortSpec,
        rx: SimChannel<(Route, Frame)>,
    },
}

impl Attachment {
    /// Enqueues `frame` on this receiver; a port's copy carries `route`,
    /// the forwarding decision [`PortSpec::route`] made for it.
    fn send(&self, ctx: &Ctx, route: Option<Route>, frame: Frame) {
        match self {
            Attachment::Station { rx, .. } => {
                let _ = rx.send(ctx, frame);
            }
            Attachment::Port { rx, .. } => {
                let route = route.expect("a port is handed only the frames it routes");
                let _ = rx.send(ctx, (route, frame));
            }
        }
    }
}

/// A delivery held back by reorder injection: released onto its receiver's
/// queue after `remaining` more frames have crossed the medium.
struct HeldDelivery {
    remaining: u64,
    /// The receiver: an index into the segment's attachments, which are
    /// only ever appended to.
    to: usize,
    /// The route a port forwards the frame by; `None` for a station.
    route: Option<Route>,
    frame: Frame,
}

struct SegmentInner {
    tx: SimChannel<Frame>,
    attachments: Vec<Attachment>,
    stats: SegmentStats,
    held: Vec<HeldDelivery>,
    /// The segment daemon's processor; it carries the segment's lane, which
    /// every machine, switch port and link on the segment derives from.
    proc: ProcId,
    /// Serialization rate of this medium (per-segment: a backbone segment
    /// may be faster than the default leaf bandwidth).
    ns_per_byte: u64,
    /// Multicast membership count per group on this segment (kept by
    /// joins so switch trees can prune floods to memberless subtrees).
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
    /// Locked after `faults` by whoever holds both (see the module docs).
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

    /// Returns the shared fault-injection state for runtime adjustment.
    /// A segment daemon holds it for one carried frame's fan-out; never
    /// hold it across a blocking call.
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
    ///
    /// This is the one place a lane is chosen: the segment's processor
    /// carries it, and machines booted on the segment, its switch ports and
    /// their links all derive their placement from it
    /// ([`Network::segment_lane`]).
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
        let proc = sim.add_processor_on(lane, &format!("net-{name}"), SimDuration::ZERO);
        let id = {
            let mut inner = self.inner.lock();
            let id = SegmentId(inner.segments.len());
            if let Some(first) = inner.segments.first() {
                if first.proc.lane() != lane {
                    inner.multi_lane = true;
                }
            }
            inner.segments.push(SegmentInner {
                tx: tx.clone(),
                attachments: Vec::new(),
                stats: SegmentStats::default(),
                held: Vec::new(),
                proc,
                ns_per_byte: 8_000_000_000 / bandwidth_bps,
                mcast_members: HashMap::new(),
            });
            id
        };
        let net = self.clone();
        sim.spawn_daemon(proc, &format!("eth-{name}"), move |ctx| {
            net.segment_daemon(ctx, id);
        });
        id
    }

    /// The scheduler lane a segment's daemon runs on.
    pub fn segment_lane(&self, segment: SegmentId) -> LaneId {
        self.inner.lock().segments[segment.0].proc.lane()
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
        inner.segments[segment.0]
            .attachments
            .push(Attachment::Station {
                mac,
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
        let placed: Vec<(ProcId, SimChannel<Frame>)> = {
            let inner = self.inner.lock();
            ports
                .iter()
                .map(|s| {
                    let s = &inner.segments[s.0];
                    (s.proc, s.tx.clone())
                })
                .collect()
        };
        for (&seg, &(proc, _)) in ports.iter().zip(&placed) {
            let rx = self.add_switch_port(PortSpec {
                seg,
                leaves: leaves.to_vec(),
                uplink,
            });
            let mut links = Vec::with_capacity(ports.len() - 1);
            for (&dst, (dst_proc, dst_tx)) in ports.iter().zip(&placed) {
                if dst == seg {
                    continue;
                }
                let link = if dst_proc.lane() == proc.lane() {
                    PortLink::Local(dst_tx.clone())
                } else {
                    assert!(
                        !self.cfg.switch_latency.is_zero(),
                        "a cross-lane switch hop needs a positive switch_latency (it is the lookahead)"
                    );
                    PortLink::Cross(sim.cross_link(
                        &format!("sw-{name}-{seg}-{dst}"),
                        self.cfg.switch_latency,
                        proc.lane(),
                        dst_proc.lane(),
                        dst_tx.clone(),
                    ))
                };
                links.push((dst, link));
            }
            let port = SwitchPort { rx, links };
            let net = self.clone();
            sim.spawn_daemon(proc, &format!("sw-{name}-{seg}"), move |ctx| {
                net.switch_port_daemon(ctx, &port);
            });
        }
    }

    /// Attaches a switch port to its segment and returns its receive queue.
    /// The segment daemon hands the port only the frames `spec` routes out
    /// of the switch, each with its route.
    fn add_switch_port(&mut self, spec: PortSpec) -> SimChannel<(Route, Frame)> {
        let port_rx = SimChannel::new();
        let mut inner = self.inner.lock();
        inner.segments[spec.seg.0]
            .attachments
            .push(Attachment::Port {
                spec,
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
            total.absorb(&s.stats);
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
            let bytes = frame.wire_bytes() as u64;
            let wire = SimDuration::from_nanos(bytes * ns_per_byte);
            ctx.trace_emit(
                Layer::Net,
                Phase::Begin,
                "wire",
                &[("bytes", bytes), ("src", u64::from(frame.src.0))],
            );
            ctx.sleep(wire); // the medium is busy; later frames queue behind
            ctx.trace_emit(Layer::Net, Phase::End, "wire", &[("ns", wire.as_nanos())]);
            // One pass after the wire, under the fault state and then the
            // segment state (see `Network`'s lock order): the loss draw, the
            // fan-out, the hold-back releases, and the frame's counters.
            let mut faults = self.faults.lock();
            let dropped = faults.wire_drop(ctx, multi_lane);
            let mut inner = self.inner.lock();
            let net = &mut *inner;
            // Only this daemon touches its segment's hold-backs; they sit
            // out of the segment while the fan-out reads the network.
            let mut held = std::mem::take(&mut net.segments[id.0].held);
            let mut stats = SegmentStats {
                busy: wire,
                ..SegmentStats::default()
            };
            if dropped {
                stats.wire_drops = 1;
                ctx.trace_instant(Layer::Net, "wire_drop", &[("bytes", bytes)]);
            } else {
                stats.frames = 1;
                stats.wire_bytes = bytes;
                ctx.trace_instant(
                    Layer::Net,
                    "frame",
                    &[("bytes", bytes), ("src", u64::from(frame.src.0))],
                );
                fan_out(ctx, net, id, &faults, &frame, &mut held, &mut stats);
            }
            let seg = &mut net.segments[id.0];
            release_held(ctx, &seg.attachments, &faults, &mut held, &mut stats);
            seg.held = held;
            seg.stats.absorb(&stats);
        }
    }

    /// Forwards every frame the segment daemon routed to `port`: charges the
    /// hop, then sleeps it and enqueues on a same-lane segment or hands the
    /// frame to a cross-lane link; a flood goes through [`Network::flood`].
    fn switch_port_daemon(&self, ctx: &Ctx, port: &SwitchPort) {
        while let Some((route, frame)) = port.rx.recv(ctx) {
            let out = match route {
                Route::To(out) => out,
                Route::Flood(outs) => {
                    self.flood(ctx, port, &outs, &frame);
                    continue;
                }
            };
            let (_, link) = port
                .links
                .iter()
                .find(|(s, _)| *s == out)
                .expect("a route leads to another port of the switch");
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
    }

    /// Floods a frame out of the ports `outs` names. Cross-lane sends go
    /// first (the link stamps arrival `switch_latency` from now), then the
    /// port sleeps the hop once and enqueues on each of its same-lane
    /// segments, so every destination sees the frame at the same instant.
    fn flood(&self, ctx: &Ctx, port: &SwitchPort, outs: &[SegmentId], frame: &Frame) {
        let targets = || {
            port.links
                .iter()
                .filter(|(s, _)| outs.contains(s))
                .map(|(_, l)| l)
        };
        let hop = self.cfg.switch_latency;
        ctx.charge(Layer::Net, On::Off, &[("switch_hop", hop)]);
        let mut any_local = false;
        for link in targets() {
            match link {
                PortLink::Cross(x) => x.send(ctx, frame.clone()),
                PortLink::Local(_) => any_local = true,
            }
        }
        if any_local {
            ctx.sleep(hop);
            for link in targets() {
                if let PortLink::Local(tx) = link {
                    let _ = tx.send(ctx, frame.clone());
                }
            }
        }
    }
}

/// Hands a frame carried on segment `id` to every attachment it reaches,
/// in one pass in attach order. For each attachment: addressing (a
/// station) or the switch route (a port), then reachability (a station;
/// no draw), then the rx-loss, reorder and dup draws, then a plain channel
/// send. A delivery held for reordering joins `held`; per-receiver drops,
/// holds and duplicates are counted into `stats`.
fn fan_out(
    ctx: &Ctx,
    net: &NetInner,
    id: SegmentId,
    faults: &FaultState,
    frame: &Frame,
    held: &mut Vec<HeldDelivery>,
    stats: &mut SegmentStats,
) {
    let src = u64::from(frame.src.0);
    for (to, a) in net.segments[id.0].attachments.iter().enumerate() {
        let route = match a {
            Attachment::Station { mac, groups, .. } => {
                let addressed = match frame.dst {
                    Dest::Unicast(m) => *mac == m,
                    Dest::Multicast(g) => groups.contains(&g),
                    Dest::Broadcast => true,
                };
                // No self-delivery.
                if !addressed || *mac == frame.src {
                    continue;
                }
                // Reachability first: deterministic, no draw.
                if faults.is_down(*mac) || faults.is_partitioned(frame.src, *mac) {
                    stats.link_drops += 1;
                    ctx.trace_instant(
                        Layer::Net,
                        "link_drop",
                        &[("src", src), ("dst", u64::from(mac.0))],
                    );
                    continue;
                }
                None
            }
            Attachment::Port { spec, .. } => match spec.route(net, frame) {
                None => continue,
                route => route,
            },
        };
        if faults.rx_loss_prob > 0.0 && ctx.rand_bool(faults.rx_loss_prob) {
            stats.rx_drops += 1;
            ctx.trace_instant(Layer::Net, "rx_drop", &[("src", src)]);
            continue;
        }
        if faults.reorder_prob > 0.0 && ctx.rand_bool(faults.reorder_prob) {
            let remaining = 1 + ctx.rand_range(faults.reorder_span.max(1));
            stats.held_deliveries += 1;
            held.push(HeldDelivery {
                remaining,
                to,
                route,
                frame: frame.clone(),
            });
            ctx.trace_instant(
                Layer::Net,
                "rx_held",
                &[("src", src), ("frames", remaining)],
            );
            continue;
        }
        ctx.trace_instant(Layer::Net, "rx", &[("src", src)]);
        a.send(ctx, route.clone(), frame.clone());
        if faults.dup_prob > 0.0 && ctx.rand_bool(faults.dup_prob) {
            stats.dup_deliveries += 1;
            ctx.trace_instant(Layer::Net, "rx_dup", &[("src", src)]);
            a.send(ctx, route, frame.clone());
        }
    }
}

/// Advances a segment's reorder hold-backs by one carried-or-dropped frame
/// and moves out and sends the deliveries whose countdown expired, in hold
/// order. A release re-checks reachability: a receiver that crashed or was
/// partitioned away while the frame was held loses it (`link_drops`).
fn release_held(
    ctx: &Ctx,
    attachments: &[Attachment],
    faults: &FaultState,
    held: &mut Vec<HeldDelivery>,
    stats: &mut SegmentStats,
) {
    let due = held.extract_if(.., |h| {
        h.remaining -= 1;
        h.remaining == 0
    });
    for h in due {
        let to = &attachments[h.to];
        let src = u64::from(h.frame.src.0);
        if let Attachment::Station { mac, .. } = to {
            if faults.is_down(*mac) || faults.is_partitioned(h.frame.src, *mac) {
                stats.link_drops += 1;
                ctx.trace_instant(Layer::Net, "link_drop", &[("src", src)]);
                continue;
            }
        }
        ctx.trace_instant(Layer::Net, "rx_release", &[("src", src)]);
        to.send(ctx, h.route, h.frame);
    }
}

/// Where a switch port sends a frame it captured.
#[derive(Clone)]
enum Route {
    /// Out of the port on this segment.
    To(SegmentId),
    /// Out of the ports on these segments, in port order (never empty).
    Flood(Vec<SegmentId>),
}

/// Where a switch port sits: its segment and the shape of its switch.
struct PortSpec {
    /// The segment this port captures from.
    seg: SegmentId,
    /// Every port's segment but the uplink (all of them on a flat switch).
    leaves: Vec<SegmentId>,
    /// The backbone segment of an edge switch; `None` on a flat switch.
    uplink: Option<SegmentId>,
}

impl PortSpec {
    /// The port's forwarding decision for a frame carried on its segment,
    /// given the network's station directory and multicast membership.
    /// `None` means the frame does not leave the switch through this port:
    ///
    /// - it did not enter through this port (its source lives on another
    ///   port's side, so it is a copy this switch or a sibling on the
    ///   backbone injected), or its source is unknown;
    /// - it is a unicast to an unknown station, to one on this port's own
    ///   segment (local traffic), or, on the uplink port, to one behind
    ///   none of the leaves (no unicast goes back up the backbone);
    /// - it is a flood that leads to no port ([`PortSpec::flood`]).
    fn route(&self, net: &NetInner, frame: &Frame) -> Option<Route> {
        let home = |m: MacAddr| net.mac_home.get(m.0 as usize).copied().flatten();
        let src = home(frame.src)?;
        let is_uplink = self.uplink == Some(self.seg);
        let inbound = if is_uplink {
            !self.leaves.contains(&src)
        } else {
            src == self.seg
        };
        if !inbound {
            return None;
        }
        let mac = match frame.dst {
            Dest::Unicast(mac) => mac,
            Dest::Multicast(g) => return self.flood(net, Some(g)),
            Dest::Broadcast => return self.flood(net, None),
        };
        let dst = home(mac)?;
        let out = if self.leaves.contains(&dst) {
            dst
        } else {
            // Not behind this switch: route toward the backbone, unless the
            // frame came from there.
            self.uplink.filter(|_| !is_uplink)?
        };
        (out != self.seg).then_some(Route::To(out))
    }

    /// The ports a flood of `group` (`None`: a broadcast) leaves by: every
    /// other port, except that an edge switch sends a multicast only toward
    /// members — down a leaf that has some, up the uplink if some live
    /// beyond its leaves. `None` if that leaves no port.
    fn flood(&self, net: &NetInner, group: Option<McastAddr>) -> Option<Route> {
        let members = |g: McastAddr, s: SegmentId| {
            net.segments[s.0]
                .mcast_members
                .get(&g)
                .copied()
                .unwrap_or(0)
        };
        let outs: Vec<SegmentId> = self
            .leaves
            .iter()
            .copied()
            .chain(self.uplink)
            .filter(|&s| s != self.seg)
            .filter(|&s| match (group, self.uplink) {
                (Some(g), Some(up)) if s == up => {
                    let under: u32 = self.leaves.iter().map(|&l| members(g, l)).sum();
                    net.mcast_total.get(&g).copied().unwrap_or(0) > under
                }
                (Some(g), Some(_)) => members(g, s) > 0,
                _ => true,
            })
            .collect();
        (!outs.is_empty()).then_some(Route::Flood(outs))
    }
}

/// One port of a switch: everything its daemon forwards by.
struct SwitchPort {
    /// The frames the segment daemon routed out through this port.
    rx: SimChannel<(Route, Frame)>,
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
                if let Attachment::Station { mac, groups, .. } = a {
                    if *mac == self.mac {
                        joined |= groups.insert(group);
                    }
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
}
