//! Amoeba's kernel-space totally-ordered group communication (the protocol
//! of Kaashoek's thesis, as used by the paper).
//!
//! A sequencer machine orders all messages. For small messages the sender
//! forwards the message to the sequencer (point-to-point), which tags it with
//! the next sequence number and multicasts it (the *PB* method). For large
//! messages the sender multicasts the data itself and the sequencer
//! multicasts a small *accept* carrying the sequence number (the *BB*
//! method). Receivers deliver strictly in sequence-number order, detect gaps,
//! and recover by asking the sequencer to resend from its history buffer.
//!
//! Everything here runs **in the kernel**: handlers execute in interrupt
//! context on the network receive path, so ordering, history, and
//! retransmission consume interrupt-level CPU and never cost a thread
//! switch — the structural advantage the paper measures for the kernel-space
//! implementation (Section 4.3).
//!
//! The protocol's decisions live in [`core`], shared with the user-space
//! implementation; this file is the kernel *placement*: the 52-byte wire
//! header, the interrupt-context handler that feeds the core and replays
//! its outputs, the kernel CPU charges, the blocking `grp_send`/`grp_recv`
//! system calls, and the resync daemon thread.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimDuration};
use ethernet::McastAddr;
use flip::{FlipAddr, FlipMessage};
use parking_lot::Mutex;

use crate::cost::AMOEBA_GROUP_HEADER_BYTES;
use crate::machine::{fragments_of, Machine};

pub mod core;

use self::core::{Assigned, Kind, MemberCore, Note, Out, SeqCore, To, Wire};

/// A message delivered by the group protocol, identical (payload and order)
/// at every member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMessage {
    /// Member that sent the message.
    pub sender: u32,
    /// Global sequence number (contiguous from 1).
    pub seq: u64,
    /// Message body.
    pub payload: Bytes,
}

/// Errors reported by [`GroupMember::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// The message was never sequenced (sequencer unreachable).
    Timeout,
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::Timeout => write!(f, "group send was never sequenced"),
        }
    }
}

impl std::error::Error for GroupError {}

/// Group protocol tuning.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Messages larger than this use the BB method (sender broadcasts data,
    /// sequencer broadcasts a small accept).
    pub bb_threshold: usize,
    /// Maximum history entries the sequencer retains past the slowest
    /// member's acknowledged point.
    pub history_max: usize,
    /// Maximum history entries resent per retransmission request.
    pub retrans_chunk: u64,
    /// How long a sender waits for its own message before retransmitting.
    pub send_timeout: SimDuration,
    /// Poll interval used by blocked receivers while a gap is outstanding.
    pub gap_poll: SimDuration,
    /// A member reports its delivery progress to the sequencer after this
    /// many deliveries (history flow control).
    pub status_interval: u64,
    /// Number of transmissions a `grp_send` attempts before giving up.
    pub send_retries: u32,
    /// Sequencer-driven laggard resync: while any member is known to lag,
    /// the sequencer resends missing history every interval. `ZERO`
    /// disables it entirely (the historical behavior): no resync daemon
    /// activity, no prompt status reports, bit-identical fault-free traces.
    pub resync_interval: SimDuration,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            bb_threshold: flip::FLIP_FRAGMENT_BYTES - AMOEBA_GROUP_HEADER_BYTES,
            history_max: 4096,
            retrans_chunk: 32,
            send_timeout: SimDuration::from_millis(400),
            gap_poll: SimDuration::from_millis(20),
            status_interval: 20,
            send_retries: 6,
            resync_interval: SimDuration::ZERO,
        }
    }
}

/// Static description of a group: FLIP group address, Ethernet multicast
/// address, per-member kernel endpoints, and which member sequences.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// FLIP group address all data/accept multicasts go to.
    pub group: FlipAddr,
    /// Backing Ethernet multicast group.
    pub eth: McastAddr,
    /// Kernel endpoint of each member, indexed by member id.
    pub member_addrs: Vec<FlipAddr>,
    /// Index of the sequencer member.
    pub sequencer: usize,
    /// Protocol tuning.
    pub config: GroupConfig,
}

impl GroupSpec {
    /// Builds a spec for group `group_id` with `n_members` members,
    /// sequenced by member `sequencer`.
    pub fn build(group_id: u64, n_members: usize, sequencer: usize) -> GroupSpec {
        assert!(sequencer < n_members, "sequencer must be a member");
        GroupSpec {
            group: FlipAddr(0x3000_0000_0000_0000 | group_id),
            eth: McastAddr(0x1000 + group_id as u32),
            member_addrs: (0..n_members)
                .map(|i| FlipAddr(0x6000_0000_0000_0000 | (group_id << 16) | i as u64))
                .collect(),
            sequencer,
            config: GroupConfig::default(),
        }
    }

    fn sequencer_addr(&self) -> FlipAddr {
        self.member_addrs[self.sequencer]
    }
}

/// The decoded Amoeba group header.
struct Header {
    kind: Kind,
    sender: u32,
    msg_id: u64,
    seqno: u64,
    piggyback: u64,
}

impl Header {
    /// The one place a core output becomes Amoeba wire bytes.
    fn encode(w: &Wire) -> Bytes {
        let mut buf = BytesMut::with_capacity(AMOEBA_GROUP_HEADER_BYTES + w.payload.len());
        buf.put_u8(w.kind.to_byte());
        buf.put_u32(w.sender);
        buf.put_u64(w.msg_id);
        buf.put_u64(w.seq);
        buf.put_u64(w.piggyback);
        buf.put_slice(&[0u8; AMOEBA_GROUP_HEADER_BYTES - 29]);
        debug_assert_eq!(buf.len(), AMOEBA_GROUP_HEADER_BYTES);
        buf.put_slice(&w.payload);
        buf.freeze()
    }

    fn decode(payload: &Bytes) -> Option<(Header, Bytes)> {
        if payload.len() < AMOEBA_GROUP_HEADER_BYTES {
            return None;
        }
        let b = &payload[..];
        let kind = Kind::from_byte(b[0])?;
        let rd64 = |o: usize| u64::from_be_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        Some((
            Header {
                kind,
                sender: u32::from_be_bytes(b[1..5].try_into().expect("4 bytes")),
                msg_id: rd64(5),
                seqno: rd64(13),
                piggyback: rd64(21),
            },
            payload.slice(AMOEBA_GROUP_HEADER_BYTES..),
        ))
    }
}

/// One member's protocol state: the receive side every member runs, the
/// sequencer on the member that hosts it, and the senders blocked in
/// `grp_send`.
struct GroupState {
    member: MemberCore,
    seq: Option<SeqCore>,
    send_waiters: HashMap<u64, SimChannel<u64>>,
}

/// Messages (and their bytes) one handler run handed to the application.
#[derive(Default)]
struct Delivered {
    count: usize,
    bytes: usize,
}

fn trace_note(ctx: &Ctx, note: &Note) {
    note.render(|name, args| ctx.trace_instant(Layer::Group, name, args));
}

/// Traces a sequencer step's notes at the instant it ran; its wires stay in
/// `outs` for [`GroupMember::transmit`].
fn trace_notes(ctx: &Ctx, outs: &[Out]) {
    for out in outs {
        if let Out::Note(note) = out {
            trace_note(ctx, note);
        }
    }
}

/// One member's handle on an Amoeba kernel group.
#[derive(Clone)]
pub struct GroupMember {
    machine: Machine,
    spec: Arc<GroupSpec>,
    my_id: u32,
    state: Arc<Mutex<GroupState>>,
    inbox: SimChannel<GroupMessage>,
    resync_wake: SimChannel<()>,
}

impl fmt::Debug for GroupMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupMember")
            .field("member", &self.my_id)
            .field("machine", &self.machine.name())
            .field("sequencer", &(self.my_id as usize == self.spec.sequencer))
            .finish()
    }
}

impl GroupMember {
    /// Joins `machine` to the group as member `my_id`, installing the kernel
    /// handlers. The member with `spec.sequencer == my_id` also runs the
    /// sequencer, entirely inside its kernel.
    pub fn join(machine: &Machine, spec: GroupSpec, my_id: u32) -> GroupMember {
        let is_seq = my_id as usize == spec.sequencer;
        let state = Arc::new(Mutex::new(GroupState {
            member: MemberCore::new(my_id, spec.sequencer as u32, &spec.config),
            seq: is_seq.then(|| SeqCore::new(spec.member_addrs.len(), &spec.config)),
            send_waiters: HashMap::new(),
        }));
        let member = GroupMember {
            machine: machine.clone(),
            spec: Arc::new(spec),
            my_id,
            state,
            inbox: SimChannel::new(),
            resync_wake: SimChannel::new(),
        };
        let h1 = member.clone();
        machine.register_kernel_handler(
            member.spec.member_addrs[my_id as usize],
            Arc::new(move |ctx, msg| h1.kernel_handle(ctx, msg)),
        );
        let h2 = member.clone();
        machine.join_kernel_group(
            member.spec.group,
            member.spec.eth,
            Arc::new(move |ctx, msg| h2.kernel_handle(ctx, msg)),
        );
        member
    }

    /// This member's id within the group.
    pub fn member_id(&self) -> u32 {
        self.my_id
    }

    /// `true` if this member hosts the sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.my_id as usize == self.spec.sequencer
    }

    /// The machine this member runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of sequenced-but-undeliverable messages currently buffered
    /// (diagnostics; non-zero implies a gap).
    pub fn backlog(&self) -> usize {
        self.state.lock().member.backlog()
    }

    /// History entries the sequencer had to drop because the buffer
    /// overflowed (only meaningful on the sequencer member).
    pub fn history_overflow_drops(&self) -> u64 {
        self.state
            .lock()
            .seq
            .as_ref()
            .map_or(0, SeqCore::overflow_drops)
    }

    /// Broadcasts `payload` to the group with total ordering. Blocks until
    /// the message has been sequenced (Amoeba `grp_send` semantics); the
    /// message is also delivered through [`GroupMember::recv`] at every
    /// member including this one. Returns the assigned sequence number.
    ///
    /// # Errors
    ///
    /// [`GroupError::Timeout`] if the message is never sequenced.
    pub fn send(&self, ctx: &Ctx, payload: Bytes) -> Result<u64, GroupError> {
        let cost = self.machine.cost().clone();
        let cfg = &self.spec.config;
        let (req, bb, waiter) = {
            let mut st = self.state.lock();
            let (req, bb) = st.member.new_request(&payload);
            let w = SimChannel::new();
            st.send_waiters.insert(req.msg_id, w.clone());
            (req, bb, w)
        };
        let msg_id = req.msg_id;
        let req_wire = Header::encode(&req);
        let bb_wire = bb.as_ref().map(Header::encode);
        ctx.trace_emit(
            Layer::Group,
            Phase::Begin,
            "grp_send",
            &[
                ("msg_id", msg_id),
                ("bytes", payload.len() as u64),
                ("bb", u64::from(bb_wire.is_some())),
            ],
        );
        // Enter the kernel: traps, copy, per-packet processing.
        let wire_frags =
            fragments_of(req_wire.len()) + bb_wire.as_ref().map_or(0, |w| fragments_of(w.len()));
        ctx.charge(
            Layer::Group,
            On::Thread,
            &[
                ("syscall", cost.syscall(cost.shallow_call_depth)),
                ("protocol_layer", cost.protocol_layer),
                ("copy", cost.copy(payload.len())),
                ("kernel_packet_send", cost.kernel_packet_send * wire_frags),
            ],
        );
        let resend = cost.kernel_packet_send * fragments_of(req_wire.len());
        let mut result = Err(GroupError::Timeout);
        for attempt in 0..cfg.send_retries {
            if attempt > 0 {
                ctx.trace_instant(
                    Layer::Group,
                    "retransmit",
                    &[("msg_id", msg_id), ("attempt", u64::from(attempt))],
                );
                ctx.charge(Layer::Group, On::Thread, &[("kernel_packet_send", resend)]);
            }
            if let Some(bb) = &bb_wire {
                if attempt == 0 {
                    self.send_group_raw(ctx, bb.clone());
                }
            }
            self.send_unicast_raw(ctx, self.spec.sequencer_addr(), req_wire.clone());
            let backoff = cfg.send_timeout * (1u64 << attempt.min(3));
            match waiter.recv_timeout(ctx, backoff) {
                Ok(seq) => {
                    result = Ok(seq);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Closed) => break,
            }
        }
        self.state.lock().send_waiters.remove(&msg_id);
        if result.is_ok() {
            // Return from the blocking grp_send: the kernel woke us directly
            // from the interrupt handler, so `Thread` pays no switch.
            ctx.charge(
                Layer::Group,
                On::Thread,
                &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
            );
        }
        ctx.trace_emit(
            Layer::Group,
            Phase::End,
            "grp_send",
            &[("msg_id", msg_id), ("seq", *result.as_ref().unwrap_or(&0))],
        );
        result
    }

    /// Receives the next message in total order (every member sees the same
    /// sequence). Blocks until one is available.
    pub fn recv(&self, ctx: &Ctx) -> GroupMessage {
        let cost = self.machine.cost().clone();
        ctx.charge(Layer::Group, On::Thread, &[("syscall", cost.syscall_enter)]);
        let msg = loop {
            if self.backlog() > 0 {
                match self.inbox.recv_timeout(ctx, self.spec.config.gap_poll) {
                    Ok(m) => break m,
                    Err(RecvTimeoutError::Timeout) => {
                        let req = self.state.lock().member.retrans_wire();
                        ctx.trace_instant(Layer::Group, "retrans_req_tx", &[("from_seq", req.seq)]);
                        ctx.charge(
                            Layer::Group,
                            On::Thread,
                            &[("kernel_packet_send", cost.kernel_packet_send)],
                        );
                        self.send_unicast_raw(
                            ctx,
                            self.spec.sequencer_addr(),
                            Header::encode(&req),
                        );
                    }
                    Err(RecvTimeoutError::Closed) => unreachable!("inbox never closes"),
                }
            } else {
                break self.inbox.recv(ctx).expect("inbox never closes");
            }
        };
        ctx.charge(
            Layer::Group,
            On::Thread,
            &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
        );
        msg
    }

    /// Raw kernel transmit helpers (no syscall charge; callers charge).
    fn send_unicast_raw(&self, ctx: &Ctx, dst: FlipAddr, wire: Bytes) {
        let src = self.spec.member_addrs[self.my_id as usize];
        if let Some(local) = self.machine.iface().send(ctx, src, dst, wire) {
            self.machine.dispatch(ctx, local);
        }
    }

    fn send_group_raw(&self, ctx: &Ctx, wire: Bytes) {
        let src = self.spec.member_addrs[self.my_id as usize];
        if let Some(local) = self
            .machine
            .iface()
            .send_group(ctx, src, self.spec.group, wire)
        {
            self.machine.dispatch(ctx, local);
        }
    }

    /// Sends the wires among `outs` in order, charging each `on` the CPU
    /// (interrupt level in the handler, thread level in the resync daemon).
    /// Transmission sleeps in virtual time, so this runs after the state
    /// lock is released.
    fn transmit(&self, ctx: &Ctx, outs: Vec<Out>, on: On) {
        for out in outs {
            let Out::Wire(w) = out else { continue };
            let wire = Header::encode(&w);
            let c = self.machine.cost().kernel_packet_send * fragments_of(wire.len());
            ctx.charge(Layer::Group, on, &[("kernel_packet_send", c)]);
            match w.to {
                To::Group => self.send_group_raw(ctx, wire),
                To::Sequencer => self.send_unicast_raw(ctx, self.spec.sequencer_addr(), wire),
                To::Member(m) => {
                    self.send_unicast_raw(ctx, self.spec.member_addrs[m as usize], wire);
                }
            }
        }
    }

    /// The kernel protocol handler (interrupt context or local dispatch).
    fn kernel_handle(&self, ctx: &Ctx, msg: FlipMessage) {
        let Some((header, body)) = Header::decode(&msg.payload) else {
            return;
        };
        // Run the state machine under the lock; collect wire traffic and CPU
        // charges to execute afterwards (transmission sleeps).
        let mut outs = Vec::new();
        let mut delivered = Delivered::default();
        {
            let mut st = self.state.lock();
            self.state_machine(ctx, &mut st, header, body, &mut outs, &mut delivered);
        }
        let cost = self.machine.cost();
        ctx.charge(
            Layer::Group,
            On::Interrupt,
            &[
                ("protocol_layer", cost.protocol_layer),
                ("user_deliver", cost.user_deliver * delivered.count as u64),
                ("copy", cost.copy(delivered.bytes)),
            ],
        );
        self.transmit(ctx, outs, On::Interrupt);
    }

    /// Feeds one decoded frame to the cores. The kernel placement: the
    /// sequencer shares the handler (and the lock) with its own member, so
    /// it places its own copy the moment it assigns a number.
    fn state_machine(
        &self,
        ctx: &Ctx,
        st: &mut GroupState,
        header: Header,
        body: Bytes,
        outs: &mut Vec<Out>,
        delivered: &mut Delivered,
    ) {
        let Header {
            kind,
            sender,
            msg_id,
            seqno,
            piggyback,
        } = header;
        match kind {
            Kind::Req | Kind::ReqBb => {
                let Some(seq) = st.seq.as_mut() else { return };
                let member = &st.member;
                let payload = (kind == Kind::Req).then_some(body);
                let bb_data = || member.bb_data(sender, msg_id);
                let assigned = seq.request(sender, msg_id, payload, piggyback, bb_data, outs);
                trace_notes(ctx, outs);
                if let Some(assigned) = assigned {
                    self.place_own(ctx, st, sender, msg_id, assigned);
                    self.try_deliver(ctx, st, outs, delivered);
                }
            }
            Kind::BbData => {
                st.member.on_bb_data(sender, msg_id, body.clone());
                // The sequencer may have been waiting for this data.
                let assigned = st
                    .seq
                    .as_mut()
                    .and_then(|seq| seq.bb_arrived(sender, msg_id, || Some(body), outs));
                trace_notes(ctx, outs);
                if let Some(assigned) = assigned {
                    self.place_own(ctx, st, sender, msg_id, assigned);
                }
                self.try_deliver(ctx, st, outs, delivered);
            }
            Kind::Seq | Kind::Accept => {
                let fresh = if kind == Kind::Seq {
                    st.member.on_seq(seqno, sender, msg_id, body)
                } else {
                    st.member.on_accept(seqno, sender, msg_id)
                };
                // A stale (already-delivered) Seq/Accept means the sequencer
                // resent history we did not need: report our true progress
                // so its resync stops targeting us. Only with resync on.
                if !fresh && !self.spec.config.resync_interval.is_zero() {
                    outs.extend(st.member.stale_status(ctx.now()).map(Out::Wire));
                }
                self.try_deliver(ctx, st, outs, delivered);
                outs.extend(st.member.gap_request().map(Out::Wire));
            }
            Kind::RetransReq => {
                if let Some(seq) = st.seq.as_mut() {
                    seq.retrans_request(sender, seqno, piggyback, outs);
                    trace_notes(ctx, outs);
                }
            }
            Kind::Status => {
                if let Some(seq) = st.seq.as_mut() {
                    seq.status(sender, piggyback);
                    seq.trim_history();
                }
            }
        }
    }

    /// The sequencer places its own copy directly (its member handler will
    /// also see the multicast loopback, which dedups harmlessly) and wakes
    /// the resync daemon.
    fn place_own(&self, ctx: &Ctx, st: &mut GroupState, sender: u32, msg_id: u64, a: Assigned) {
        st.member.place_own(a.seq, sender, msg_id, a.payload);
        if !self.spec.config.resync_interval.is_zero() {
            let _ = self.resync_wake.send(ctx, ());
        }
    }

    /// The sequencer's laggard-resync daemon body (kernel thread). Spawn on
    /// the sequencer machine when `config.resync_interval` is non-zero:
    /// while any member is known to lag behind the history tip, missing
    /// entries are resent every interval; when nobody lags the daemon
    /// blocks until the next sequence number is assigned, so a quiesced
    /// group generates no traffic and no timer events.
    pub fn run_resync_daemon(&self, ctx: &Ctx) {
        let interval = self.spec.config.resync_interval;
        if interval.is_zero() || !self.is_sequencer() {
            return;
        }
        loop {
            let lagging = {
                let st = self.state.lock();
                st.seq.as_ref().expect("sequencer state").lagging()
            };
            if lagging {
                match self.resync_wake.recv_timeout(ctx, interval) {
                    Ok(()) => continue,
                    Err(RecvTimeoutError::Timeout) => self.resync_laggards(ctx),
                    Err(RecvTimeoutError::Closed) => return,
                }
            } else {
                match self.resync_wake.recv(ctx) {
                    Some(()) => continue,
                    None => return,
                }
            }
        }
    }

    fn resync_laggards(&self, ctx: &Ctx) {
        let mut outs = Vec::new();
        {
            let st = self.state.lock();
            let seq = st.seq.as_ref().expect("sequencer state");
            seq.resync_round(&mut outs);
        }
        trace_notes(ctx, &outs);
        self.transmit(ctx, outs, On::Thread);
    }

    /// Deliver everything contiguous; wake local senders; emit status.
    fn try_deliver(
        &self,
        ctx: &Ctx,
        st: &mut GroupState,
        outs: &mut Vec<Out>,
        delivered: &mut Delivered,
    ) {
        while let Some(d) = st.member.pop_deliverable() {
            delivered.count += 1;
            delivered.bytes += d.payload.len();
            trace_note(ctx, &d.note());
            let _ = self.inbox.send(
                ctx,
                GroupMessage {
                    sender: d.sender,
                    seq: d.seq,
                    payload: d.payload,
                },
            );
            if d.sender == self.my_id {
                if let Some(w) = st.send_waiters.remove(&d.msg_id) {
                    let _ = w.send(ctx, d.seq);
                }
            }
        }
        // The sequencer reads its own member's progress directly; everyone
        // else reports it — promptly once caught up, but only with resync
        // on (the fault-free configuration stays free of extra traffic).
        match st.seq.as_mut() {
            Some(seq) => seq.status(self.my_id, st.member.delivered()),
            None => {
                let prompt = !self.spec.config.resync_interval.is_zero();
                outs.extend(st.member.status_due(ctx.now(), prompt).map(Out::Wire));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Garbage, and a valid frame cut anywhere, decode to `None` or a
        /// header — never a panic.
        #[test]
        fn decode_never_panics_on_garbage_or_truncation(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            kind in 0u8..7,
            cut in 0usize..120,
        ) {
            let mut garbage = bytes.clone();
            let _ = Header::decode(&Bytes::from(garbage.clone()));
            if let Some(b) = garbage.first_mut() {
                *b = kind; // a known kind gets past the first check
            }
            let _ = Header::decode(&Bytes::from(garbage));
            let wire = Header::encode(&Wire {
                kind: Kind::from_byte(kind).expect("0..7 are the seven kinds"),
                sender: 3,
                msg_id: 9,
                seq: u64::MAX,
                piggyback: 0,
                payload: Bytes::from(bytes),
                to: To::Group,
            });
            let cut = cut.min(wire.len());
            let decoded = Header::decode(&wire.slice(..cut));
            prop_assert_eq!(decoded.is_some(), cut >= AMOEBA_GROUP_HEADER_BYTES);
        }
    }

    #[test]
    fn header_roundtrip() {
        let wire = Header::encode(&Wire {
            kind: Kind::Accept,
            sender: 3,
            msg_id: 9,
            seq: 1234,
            piggyback: 1200,
            payload: Bytes::from_static(b"xyz"),
            to: To::Group,
        });
        assert_eq!(wire.len(), AMOEBA_GROUP_HEADER_BYTES + 3);
        let (h2, body) = Header::decode(&wire).expect("decode");
        assert_eq!(h2.kind, Kind::Accept);
        assert_eq!(h2.sender, 3);
        assert_eq!(h2.msg_id, 9);
        assert_eq!(h2.seqno, 1234);
        assert_eq!(h2.piggyback, 1200);
        assert_eq!(&body[..], b"xyz");
    }

    #[test]
    fn spec_builder_validates() {
        let spec = GroupSpec::build(1, 4, 0);
        assert_eq!(spec.member_addrs.len(), 4);
        assert_eq!(spec.sequencer_addr(), spec.member_addrs[0]);
    }

    #[test]
    #[should_panic(expected = "sequencer must be a member")]
    fn bad_sequencer_rejected() {
        let _ = GroupSpec::build(1, 2, 5);
    }
}
