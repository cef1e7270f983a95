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
//! its outputs, the kernel CPU charges, and the blocking `grp_send`/`grp_recv`
//! system calls, of which `grp_recv` also waits for the cores' deadlines.
//! [`Sending`], the senders' wait-and-retransmit loop, is shared with the
//! user-space implementation too.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimDuration, SimTime};
use ethernet::McastAddr;
use flip::{FlipAddr, FlipMessage};
use parking_lot::Mutex;

use crate::cost::AMOEBA_GROUP_HEADER_BYTES;
use crate::machine::{fragments_of, FlipDest, Machine, Sink};

pub mod core;

use self::core::{Kind, MemberCore, Note, Out, SeqCore, To, Wire};

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

/// Messages larger than this use the BB method (sender broadcasts data,
/// sequencer broadcasts a small accept): whatever fits one FLIP fragment
/// after the kernel's header goes PB.
const BB_THRESHOLD: usize = flip::FLIP_FRAGMENT_BYTES - AMOEBA_GROUP_HEADER_BYTES;

/// Group protocol tuning.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Maximum history entries the sequencer retains past the slowest
    /// member's acknowledged point.
    pub history_max: usize,
    /// Maximum history entries resent per retransmission request.
    pub retrans_chunk: u64,
    /// How long a sender waits for its own message before retransmitting.
    pub send_timeout: SimDuration,
    /// A member reports its delivery progress to the sequencer after this
    /// many deliveries (history flow control).
    pub status_interval: u64,
    /// Number of transmissions a `grp_send` attempts before giving up.
    pub send_retries: u32,
    /// The group's one timer: while any member is known to lag, the
    /// sequencer resends missing history this long after its last
    /// assignment or resync round; a member that owes the sequencer news
    /// sends it after half of this in which it heard and said nothing.
    /// Must be non-zero.
    pub resync_interval: SimDuration,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            history_max: 4096,
            retrans_chunk: 32,
            send_timeout: SimDuration::from_millis(400),
            status_interval: 20,
            send_retries: 6,
            resync_interval: SimDuration::from_millis(250),
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

/// One member's protocol state: the receive side every member runs, and the
/// sequencer on the member that hosts it.
struct GroupState {
    member: MemberCore,
    seq: Option<SeqCore>,
}

/// One member's senders waiting for their own message to come back
/// sequenced, and the one send loop both placements run: the kernel's
/// blocking `grp_send`, and in user space the blocking send and the flush of
/// nonblocking sends.
#[derive(Debug, Default)]
pub struct Sending {
    waiting: Mutex<BTreeMap<u64, Waiter>>,
}

#[derive(Debug)]
struct Waiter {
    wake: SimChannel<u64>,
    /// A nonblocking send's request, kept for its flush to retransmit.
    detached: Option<Wire>,
}

impl Sending {
    /// Registers message `msg_id` before its request goes out; `detached`
    /// is a nonblocking send's request. Returns the channel its sequence
    /// number arrives on.
    pub fn open(&self, msg_id: u64, detached: Option<Wire>) -> SimChannel<u64> {
        let wake = SimChannel::new();
        let waiter = Waiter {
            wake: wake.clone(),
            detached,
        };
        self.waiting.lock().insert(msg_id, waiter);
        wake
    }

    /// The oldest nonblocking send not sequenced yet, and its channel.
    pub fn oldest_detached(&self) -> Option<(Wire, SimChannel<u64>)> {
        let waiting = self.waiting.lock();
        waiting
            .values()
            .find_map(|w| Some((w.detached.clone()?, w.wake.clone())))
    }

    /// The member delivered its own message `msg_id` as `seq`: if a sender
    /// still waits for it, charge `charge` on the calling thread and wake it.
    pub fn wake(&self, ctx: &Ctx, msg_id: u64, seq: u64, charge: &[(&'static str, SimDuration)]) {
        let Some(waiter) = self.waiting.lock().remove(&msg_id) else {
            return;
        };
        if !charge.is_empty() {
            ctx.charge(Layer::Group, On::Thread, charge);
        }
        let _ = waiter.wake.send(ctx, seq);
    }

    /// The send loop: `send(attempt)` transmits the request; a timeout
    /// retransmits it with backoff `send_timeout << min(attempt, 3)` after
    /// tracing `retransmit` and charging `resend` on the calling thread.
    /// Returns the sequence number, or `None` once `send_retries`
    /// transmissions went unanswered.
    pub fn wait(
        &self,
        ctx: &Ctx,
        msg_id: u64,
        wake: &SimChannel<u64>,
        config: &GroupConfig,
        resend: &[(&'static str, SimDuration)],
        mut send: impl FnMut(u32),
    ) -> Option<u64> {
        let mut seq = None;
        for attempt in 0..config.send_retries {
            if attempt > 0 {
                ctx.trace_instant(
                    Layer::Group,
                    "retransmit",
                    &[("msg_id", msg_id), ("attempt", u64::from(attempt))],
                );
                if !resend.is_empty() {
                    ctx.charge(Layer::Group, On::Thread, resend);
                }
            }
            send(attempt);
            match wake.recv_timeout(ctx, config.send_timeout * (1u64 << attempt.min(3))) {
                Ok(s) => {
                    seq = Some(s);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Closed) => break,
            }
        }
        self.waiting.lock().remove(&msg_id);
        seq
    }
}

/// Records a core trace note on the group layer.
pub fn trace_note(ctx: &Ctx, note: &Note) {
    note.render(|name, args| ctx.trace_instant(Layer::Group, name, args));
}

/// Traces a retransmission request as it leaves (`retrans_req_tx`).
pub fn trace_retrans_req(ctx: &Ctx, w: &Wire) {
    if w.kind == Kind::RetransReq {
        ctx.trace_instant(Layer::Group, "retrans_req_tx", &[("from_seq", w.seq)]);
    }
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
    sending: Arc<Sending>,
    inbox: SimChannel<GroupMessage>,
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
            member: MemberCore::new(my_id, spec.sequencer as u32, BB_THRESHOLD, &spec.config),
            seq: is_seq.then(|| SeqCore::new(spec.member_addrs.len(), BB_THRESHOLD, &spec.config)),
        }));
        let member = GroupMember {
            machine: machine.clone(),
            spec: Arc::new(spec),
            my_id,
            state,
            sending: Arc::default(),
            inbox: SimChannel::new(),
        };
        let h1 = member.clone();
        machine.bind(
            member.spec.member_addrs[my_id as usize],
            Sink::Kernel(Arc::new(move |ctx, msg| h1.kernel_handle(ctx, msg))),
        );
        let h2 = member.clone();
        machine.join(
            member.spec.group,
            member.spec.eth,
            Sink::Kernel(Arc::new(move |ctx, msg| h2.kernel_handle(ctx, msg))),
        );
        member
    }

    /// The machine this member runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
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
        let (req, bb) = self.state.lock().member.new_request(&payload);
        let msg_id = req.msg_id;
        let wake = self.sending.open(msg_id, None);
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
        let sent = self.sending.wait(
            ctx,
            msg_id,
            &wake,
            &self.spec.config,
            &[("kernel_packet_send", resend)],
            |attempt| {
                if let (0, Some(bb)) = (attempt, &bb_wire) {
                    self.send_to(ctx, To::Group, bb.clone());
                }
                self.send_to(ctx, To::Sequencer, req_wire.clone());
            },
        );
        let result = sent.ok_or(GroupError::Timeout);
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
    /// sequence). Blocks until one is available; while none is, it acts on
    /// the deadlines of this machine's cores — the member's, and on the
    /// sequencer's machine the sequencer's. `None` only for a daemon parked
    /// here when the simulation drops: its receive loop ends.
    pub fn recv(&self, ctx: &Ctx) -> Option<GroupMessage> {
        let cost = self.machine.cost().clone();
        ctx.charge(Layer::Group, On::Thread, &[("syscall", cost.syscall_enter)]);
        let msg = loop {
            match self.inbox.recv_until(ctx, self.next_deadline()) {
                Ok(m) => break m,
                Err(RecvTimeoutError::Timeout) => self.on_deadline(ctx),
                Err(RecvTimeoutError::Closed) => return None,
            }
        };
        ctx.charge(
            Layer::Group,
            On::Thread,
            &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
        );
        Some(msg)
    }

    /// Sends `wire` from this member's endpoint to `to` (no charge; callers
    /// charge).
    fn send_to(&self, ctx: &Ctx, to: To, wire: Bytes) {
        let dst = match to {
            To::Group => FlipDest::Group(self.spec.group),
            To::Sequencer => FlipDest::Addr(self.spec.sequencer_addr()),
            To::Member(m) => FlipDest::Addr(self.spec.member_addrs[m as usize]),
        };
        let src = self.spec.member_addrs[self.my_id as usize];
        self.machine.send(ctx, src, dst, wire);
    }

    /// Sends the wires among `outs` in order, charging each `on` the CPU
    /// (interrupt level in the handler, thread level on a deadline).
    /// Transmission sleeps in virtual time, so this runs after the state
    /// lock is released.
    fn transmit(&self, ctx: &Ctx, outs: Vec<Out>, on: On) {
        for out in outs {
            let Out::Wire(w) = out else { continue };
            trace_retrans_req(ctx, &w);
            let wire = Header::encode(&w);
            let c = self.machine.cost().kernel_packet_send * fragments_of(wire.len());
            ctx.charge(Layer::Group, on, &[("kernel_packet_send", c)]);
            self.send_to(ctx, w.to, wire);
        }
    }

    /// The kernel protocol handler (interrupt context or local dispatch).
    /// The kernel placement: the sequencer shares the handler (and the
    /// lock) with its own member, so it places its own copy the moment it
    /// assigns a number.
    fn kernel_handle(&self, ctx: &Ctx, msg: FlipMessage) {
        let Some((h, body)) = Header::decode(&msg.payload) else {
            return;
        };
        // Run the cores under the lock; collect wire traffic and CPU
        // charges to execute afterwards (transmission sleeps).
        let mut outs = Vec::new();
        let (mut delivered, mut bytes) = (0, 0);
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let now = ctx.now();
            let stale = st
                .member
                .on_frame(h.kind, h.seqno, h.sender, h.msg_id, body.clone(), now);
            if let Some(seq) = st.seq.as_mut() {
                let member = &st.member;
                let bb_data = || member.bb_data(h.sender, h.msg_id);
                let assigned = seq.on_frame(
                    h.kind,
                    h.sender,
                    h.msg_id,
                    h.seqno,
                    h.piggyback,
                    body,
                    bb_data,
                    now,
                    &mut outs,
                );
                trace_notes(ctx, &outs);
                if let Some(a) = assigned {
                    // Its member handler will also see the multicast
                    // loopback, which dedups harmlessly.
                    st.member.place_own(a.seq, h.sender, h.msg_id, a.payload);
                }
            }
            outs.extend(stale.map(Out::Wire));
            while let Some(d) = st.member.pop_deliverable() {
                delivered += 1;
                bytes += d.payload.len();
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
                    self.sending.wake(ctx, d.msg_id, d.seq, &[]);
                }
            }
            // The sequencer reads its own member's progress directly.
            if let Some(seq) = st.seq.as_mut() {
                seq.status(self.my_id, st.member.delivered());
            }
            outs.extend(st.member.after_receive(now).map(Out::Wire));
        }
        let cost = self.machine.cost();
        ctx.charge(
            Layer::Group,
            On::Interrupt,
            &[
                ("protocol_layer", cost.protocol_layer),
                ("user_deliver", cost.user_deliver * delivered),
                ("copy", cost.copy(bytes)),
            ],
        );
        self.transmit(ctx, outs, On::Interrupt);
    }

    /// The earliest deadline of this machine's cores (`recv` waits for it).
    fn next_deadline(&self) -> Option<SimTime> {
        let st = self.state.lock();
        let seq = st.seq.as_ref().and_then(SeqCore::next_deadline);
        seq.into_iter().chain(st.member.next_deadline()).min()
    }

    /// Acts on whichever of this machine's core deadlines have passed
    /// (kernel thread).
    fn on_deadline(&self, ctx: &Ctx) {
        let now = ctx.now();
        let mut outs = Vec::new();
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if let Some(seq) = st.seq.as_mut() {
                seq.on_deadline(now, &mut outs);
            }
            outs.extend(st.member.on_deadline(now).map(Out::Wire));
        }
        trace_notes(ctx, &outs);
        self.transmit(ctx, outs, On::Thread);
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
