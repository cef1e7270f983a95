//! The per-machine FLIP interface: routing, locate, fragmentation,
//! reassembly, and group communication.
//!
//! The interface is pure protocol logic: it charges no CPU time itself. The
//! Amoeba kernel model (crate `amoeba`) wraps every entry point with the
//! appropriate system-call, interrupt, and copy costs, so the same code can
//! be accounted as kernel-resident (cheap to reach from interrupts, expensive
//! from user space) on both protocol stacks.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use desim::trace::{Layer, Phase};
use desim::{Ctx, SimDuration, SimTime};
use ethernet::{Dest, Frame, MacAddr, McastAddr, Nic};
use parking_lot::Mutex;

use crate::addr::FlipAddr;
use crate::header::{PacketHeader, PacketType, FLIP_FRAGMENT_BYTES, MAX_MESSAGE_BYTES};

/// How long a packet queued behind an unresolved locate may wait before it is
/// discarded (FLIP is unreliable; upper layers retransmit).
const PENDING_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Minimum spacing between repeated locate broadcasts for one address.
const LOCATE_RETRY: SimDuration = SimDuration::from_micros(500);

/// Reassembly buffers older than this are discarded.
const REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// A fully reassembled FLIP message delivered to the layer above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipMessage {
    /// Sending entity.
    pub src: FlipAddr,
    /// Destination entity or group.
    pub dst: FlipAddr,
    /// Message body.
    pub payload: Bytes,
    /// `true` if the message arrived via group multicast.
    pub multicast: bool,
}

/// Cumulative per-interface counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlipStats {
    /// Data messages sent (unicast + multicast).
    pub msgs_sent: u64,
    /// Data packets (fragments) sent.
    pub packets_sent: u64,
    /// Complete messages delivered upward.
    pub msgs_delivered: u64,
    /// Data packets received.
    pub packets_received: u64,
    /// Locate broadcasts sent.
    pub locates_sent: u64,
    /// Packets discarded while waiting for a locate that never resolved.
    pub pending_expired: u64,
    /// Partial messages dropped by the reassembly timeout.
    pub reassembly_drops: u64,
    /// Data packets that arrived for an address not present here.
    pub misdelivered: u64,
}

struct Partial {
    total_len: usize,
    received: usize,
    have: HashSet<u32>,
    buf: BytesMut,
    started: SimTime,
    multicast: bool,
}

struct PendingSend {
    src: FlipAddr,
    payload: Bytes,
    queued_at: SimTime,
}

struct IfaceState {
    local: HashSet<FlipAddr>,
    groups: HashMap<FlipAddr, McastAddr>,
    routes: HashMap<FlipAddr, MacAddr>,
    pending: HashMap<FlipAddr, VecDeque<PendingSend>>,
    last_locate: HashMap<FlipAddr, SimTime>,
    reassembly: HashMap<(FlipAddr, u64), Partial>,
    next_msg_id: u64,
    stats: FlipStats,
}

/// A FLIP network interface bound to one NIC.
///
/// Clonable handle; clones share all interface state.
#[derive(Clone)]
pub struct FlipIface {
    nic: Nic,
    iface_addr: FlipAddr,
    state: Arc<Mutex<IfaceState>>,
}

impl fmt::Debug for FlipIface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlipIface")
            .field("mac", &self.nic.mac())
            .field("iface_addr", &self.iface_addr)
            .finish()
    }
}

impl FlipIface {
    /// Creates a FLIP interface on `nic`.
    pub fn new(nic: Nic) -> Self {
        let iface_addr = FlipAddr::for_interface(nic.mac());
        FlipIface {
            nic,
            iface_addr,
            state: Arc::new(Mutex::new(IfaceState {
                local: HashSet::new(),
                groups: HashMap::new(),
                routes: HashMap::new(),
                pending: HashMap::new(),
                last_locate: HashMap::new(),
                reassembly: HashMap::new(),
                next_msg_id: 1,
                stats: FlipStats::default(),
            })),
        }
    }

    /// The station this interface sends from.
    pub fn mac(&self) -> MacAddr {
        self.nic.mac()
    }

    /// The NIC backing this interface (its `rx` queue carries raw frames for
    /// the kernel receive loop).
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// Snapshot of the interface counters.
    pub fn stats(&self) -> FlipStats {
        self.state.lock().stats.clone()
    }

    /// Registers `addr` as present on this machine; locate queries will now
    /// resolve here and arriving data for `addr` is delivered.
    pub fn register(&self, addr: FlipAddr) {
        self.state.lock().local.insert(addr);
    }

    /// Installs a static route: data for `dst` goes straight to station
    /// `mac` without a locate broadcast. Locates are each a network-wide
    /// flood, so large fleets pre-seed the well-known service addresses at
    /// boot instead of letting thousands of clients locate them at first
    /// contact. A stale route still heals normally: the wrong station
    /// answers with `NotHere`, the route is dropped, and the next send
    /// falls back to a locate.
    pub fn install_route(&self, dst: FlipAddr, mac: MacAddr) {
        self.state.lock().routes.insert(dst, mac);
    }

    /// Joins group `group` mapped onto the Ethernet multicast `eth`.
    /// Messages sent to `group` will be delivered here.
    pub fn join_group(&self, group: FlipAddr, eth: McastAddr) {
        self.nic.join_group(eth);
        let mut st = self.state.lock();
        st.groups.insert(group, eth);
    }

    /// Sends `payload` unreliably from `src` to entity `dst`.
    ///
    /// If `dst` is registered on this machine the message is returned for
    /// local delivery instead of touching the network. If the destination's
    /// location is unknown, the packet is queued behind a locate broadcast
    /// and silently discarded if the locate never resolves (FLIP is
    /// unreliable by contract).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_MESSAGE_BYTES`].
    pub fn send(
        &self,
        ctx: &Ctx,
        src: FlipAddr,
        dst: FlipAddr,
        payload: Bytes,
    ) -> Option<FlipMessage> {
        assert!(
            payload.len() <= MAX_MESSAGE_BYTES,
            "message too large for FLIP"
        );
        let route = {
            let mut st = self.state.lock();
            if st.local.contains(&dst) {
                st.stats.msgs_sent += 1;
                st.stats.msgs_delivered += 1;
                drop(st);
                ctx.trace_instant(
                    Layer::Flip,
                    "local_deliver",
                    &[("bytes", payload.len() as u64)],
                );
                return Some(FlipMessage {
                    src,
                    dst,
                    payload,
                    multicast: false,
                });
            }
            st.routes.get(&dst).copied()
        };
        match route {
            Some(mac) => {
                self.transmit_fragments(ctx, src, dst, payload, Dest::Unicast(mac), false);
                None
            }
            None => {
                self.queue_pending_and_locate(ctx, src, dst, payload);
                None
            }
        }
    }

    /// Sends `payload` unreliably from `src` to every member of `group`.
    ///
    /// Returns the message for local self-delivery if this machine is itself
    /// a member (Ethernet does not loop frames back to the sender).
    ///
    /// # Panics
    ///
    /// Panics if this machine never joined `group`, or the payload exceeds
    /// [`MAX_MESSAGE_BYTES`]. Sending to a group requires membership in this
    /// simplified FLIP (all the paper's protocols satisfy that).
    pub fn send_group(
        &self,
        ctx: &Ctx,
        src: FlipAddr,
        group: FlipAddr,
        payload: Bytes,
    ) -> Option<FlipMessage> {
        assert!(
            payload.len() <= MAX_MESSAGE_BYTES,
            "message too large for FLIP"
        );
        let eth = {
            let st = self.state.lock();
            *st.groups
                .get(&group)
                .expect("send_group requires membership")
        };
        self.transmit_fragments(ctx, src, group, payload.clone(), Dest::Multicast(eth), true);
        Some(FlipMessage {
            src,
            dst: group,
            payload,
            multicast: true,
        })
    }

    /// Processes one raw Ethernet frame. Returns any messages that completed
    /// reassembly and are addressed to entities or groups present here.
    ///
    /// Call this from the machine's network receive loop for every frame on
    /// [`FlipIface::nic`]'s `rx` queue.
    pub fn handle_frame(&self, ctx: &Ctx, frame: &Frame) -> Vec<FlipMessage> {
        let Ok((header, data)) = PacketHeader::decode(&frame.payload) else {
            return Vec::new(); // not FLIP or corrupt: ignore
        };
        match header.ptype {
            PacketType::Locate => {
                let is_here = {
                    let st = self.state.lock();
                    st.local.contains(&header.dst)
                };
                if is_here {
                    let reply = PacketHeader {
                        dst: header.dst,
                        src: self.iface_addr,
                        msg_id: 0,
                        offset: 0,
                        total_len: 0,
                        ptype: PacketType::LocateReply,
                        multicast: false,
                    };
                    self.nic
                        .send(ctx, Dest::Unicast(frame.src), reply.encode_with(&[]));
                }
                Vec::new()
            }
            PacketType::LocateReply => {
                let flush: Vec<PendingSend> = {
                    let mut st = self.state.lock();
                    st.routes.insert(header.dst, frame.src);
                    st.pending
                        .remove(&header.dst)
                        .map(|q| q.into_iter().collect())
                        .unwrap_or_default()
                };
                let now = ctx.now();
                for p in flush {
                    if now.saturating_duration_since(p.queued_at) > PENDING_TIMEOUT {
                        self.state.lock().stats.pending_expired += 1;
                        continue;
                    }
                    self.transmit_fragments(
                        ctx,
                        p.src,
                        header.dst,
                        p.payload,
                        Dest::Unicast(frame.src),
                        false,
                    );
                }
                Vec::new()
            }
            PacketType::NotHere => {
                let mut st = self.state.lock();
                st.routes.remove(&header.dst);
                Vec::new()
            }
            PacketType::Data => self.handle_data(ctx, frame.src, header, data),
        }
    }

    fn handle_data(
        &self,
        ctx: &Ctx,
        from_mac: MacAddr,
        header: PacketHeader,
        data: Bytes,
    ) -> Vec<FlipMessage> {
        let mut st = self.state.lock();
        let deliverable = if header.multicast {
            st.groups.contains_key(&header.dst)
        } else {
            st.local.contains(&header.dst)
        };
        if !deliverable {
            st.stats.misdelivered += 1;
            drop(st);
            ctx.trace_instant(Layer::Flip, "misdelivered", &[("bytes", data.len() as u64)]);
            if !header.multicast {
                // Stale route at the sender: tell it to re-locate.
                let nack = PacketHeader {
                    dst: header.dst,
                    src: self.iface_addr,
                    msg_id: 0,
                    offset: 0,
                    total_len: 0,
                    ptype: PacketType::NotHere,
                    multicast: false,
                };
                self.nic
                    .send(ctx, Dest::Unicast(from_mac), nack.encode_with(&[]));
            }
            return Vec::new();
        }

        let now = ctx.now();
        st.stats.packets_received += 1;
        // Source learning, as real FLIP does: the station a data packet
        // came from is the route back to its sender, so a server answering
        // thousands of clients never locate-floods.
        st.routes.entry(header.src).or_insert(from_mac);
        // Lazy reassembly garbage collection. Runs for every data packet —
        // fast-path or not — so the set of partials that survive to a given
        // instant is independent of the delivery path taken.
        let expired: Vec<(FlipAddr, u64)> = st
            .reassembly
            .iter()
            .filter(|(_, p)| now.saturating_duration_since(p.started) > REASSEMBLY_TIMEOUT)
            .map(|(k, _)| *k)
            .collect();
        for k in expired {
            st.reassembly.remove(&k);
            st.stats.reassembly_drops += 1;
        }

        let total = header.total_len as usize;
        if total > MAX_MESSAGE_BYTES || (header.offset as usize) >= total.max(1) && total != 0 {
            return Vec::new(); // malformed
        }
        let key = (header.src, header.msg_id);
        if header.offset == 0 && data.len() == total && !st.reassembly.contains_key(&key) {
            // Single-fragment fast path: the frame payload slice *is* the
            // message — hand it through unchanged instead of round-tripping
            // it through a zeroed reassembly buffer (alloc + memset + copy).
            // Behavior matches the general path exactly: same stats, same
            // trace event, and duplicates re-deliver just as a re-created
            // one-fragment partial would have.
            st.stats.msgs_delivered += 1;
            ctx.trace_instant(
                Layer::Flip,
                "reassembled",
                &[("bytes", total as u64), ("msg_id", key.1)],
            );
            return vec![FlipMessage {
                src: header.src,
                dst: header.dst,
                payload: data,
                multicast: header.multicast,
            }];
        }
        // Every sender cuts on the `FLIP_FRAGMENT_BYTES` grid
        // (`transmit_fragments`), so a fragment off the grid or of the
        // wrong length is hostile: accepting it could complete a message
        // from overlapping fragments with bytes that were never sent.
        let off = header.offset as usize;
        if !off.is_multiple_of(FLIP_FRAGMENT_BYTES)
            || data.len() != FLIP_FRAGMENT_BYTES.min(total.saturating_sub(off))
        {
            return Vec::new();
        }
        let entry = st.reassembly.entry(key).or_insert_with(|| Partial {
            total_len: total,
            received: 0,
            have: HashSet::new(),
            buf: BytesMut::with_capacity(total),
            started: now,
            multicast: header.multicast,
        });
        if entry.total_len != total {
            return Vec::new(); // inconsistent fragments: drop silently
        }
        let end = off + data.len();
        if end > total {
            return Vec::new();
        }
        if entry.have.insert(header.offset) {
            // Tracked fill: the buffer grows with the fragments instead of
            // starting as `total` zeroed bytes. In-order arrival appends;
            // out-of-order arrival zero-fills the gap once and the missing
            // fragment overwrites it later. Any completed message has every
            // offset present, so the delivered bytes are identical to the
            // zeroed-buffer scheme.
            if off == entry.buf.len() {
                entry.buf.extend_from_slice(&data);
            } else {
                if end > entry.buf.len() {
                    entry.buf.resize(end, 0);
                }
                entry.buf[off..end].copy_from_slice(&data);
            }
            entry.received += data.len();
        }
        if entry.received >= entry.total_len {
            let done = st.reassembly.remove(&key).expect("entry present");
            st.stats.msgs_delivered += 1;
            ctx.trace_instant(
                Layer::Flip,
                "reassembled",
                &[("bytes", done.total_len as u64), ("msg_id", key.1)],
            );
            vec![FlipMessage {
                src: header.src,
                dst: header.dst,
                payload: done.buf.freeze(),
                multicast: done.multicast,
            }]
        } else {
            Vec::new()
        }
    }

    fn queue_pending_and_locate(&self, ctx: &Ctx, src: FlipAddr, dst: FlipAddr, payload: Bytes) {
        let now = ctx.now();
        let send_locate = {
            let mut st = self.state.lock();
            // Expire rotten pending packets while we are here.
            let expired: Vec<FlipAddr> = st
                .pending
                .iter()
                .filter(|(_, q)| {
                    q.front().is_some_and(|p| {
                        now.saturating_duration_since(p.queued_at) > PENDING_TIMEOUT
                    })
                })
                .map(|(a, _)| *a)
                .collect();
            for a in expired {
                if let Some(q) = st.pending.remove(&a) {
                    st.stats.pending_expired += q.len() as u64;
                }
            }
            st.pending.entry(dst).or_default().push_back(PendingSend {
                src,
                payload,
                queued_at: now,
            });
            let due = match st.last_locate.get(&dst) {
                Some(t) => now.saturating_duration_since(*t) >= LOCATE_RETRY,
                None => true,
            };
            if due {
                st.last_locate.insert(dst, now);
                st.stats.locates_sent += 1;
            }
            due
        };
        if send_locate {
            ctx.trace_instant(Layer::Flip, "locate", &[]);
            let query = PacketHeader {
                dst,
                src: self.iface_addr,
                msg_id: 0,
                offset: 0,
                total_len: 0,
                ptype: PacketType::Locate,
                multicast: false,
            };
            self.nic.send(ctx, Dest::Broadcast, query.encode_with(&[]));
        }
    }

    fn transmit_fragments(
        &self,
        ctx: &Ctx,
        src: FlipAddr,
        dst: FlipAddr,
        payload: Bytes,
        eth_dst: Dest,
        multicast: bool,
    ) {
        let msg_id = {
            let mut st = self.state.lock();
            st.stats.msgs_sent += 1;
            let id = st.next_msg_id;
            st.next_msg_id += 1;
            id
        };
        let total_len = payload.len() as u32;
        ctx.trace_emit(
            Layer::Flip,
            Phase::Instant,
            "msg_send",
            &[("bytes", u64::from(total_len)), ("msg_id", msg_id)],
        );
        let mut offset = 0usize;
        loop {
            let end = (offset + FLIP_FRAGMENT_BYTES).min(payload.len());
            let header = PacketHeader {
                dst,
                src,
                msg_id,
                offset: offset as u32,
                total_len,
                ptype: PacketType::Data,
                multicast,
            };
            ctx.trace_instant(
                Layer::Flip,
                "fragment",
                &[("bytes", (end - offset) as u64), ("offset", offset as u64)],
            );
            // Borrow the fragment straight out of the payload; encode_with
            // copies it into the wire packet, so a refcounted Bytes slice
            // per fragment would only add allocator traffic.
            self.nic
                .send(ctx, eth_dst, header.encode_with(&payload[offset..end]));
            self.state.lock().stats.packets_sent += 1;
            offset = end;
            if offset >= payload.len() {
                break;
            }
        }
    }
}
