//! The sequencer group protocol as a pure state machine.
//!
//! The kernel-space ([`crate::GroupMember`]) and user-space (`panda`'s
//! `UserGroup`) group protocols are the *same* algorithm run in different
//! places. This module is that algorithm: [`SeqCore`] orders messages and
//! keeps the history, [`MemberCore`] places, buffers and delivers them. Both
//! take plain values (plus `now` where a throttle needs it) and return
//! ordered outputs — [`Wire`] intents and trace [`Note`]s. There is no
//! clock, no cost model, no I/O and no lock in here; a placement shell
//! decodes frames into calls, charges CPU, and replays the outputs in order.
//!
//! Where the two stacks behave differently, the difference is which
//! operation a shell calls and when (DESIGN.md lists every one); nothing in
//! here knows which stack it is running in.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bytes::Bytes;
use desim::{SimDuration, SimTime};

use super::GroupConfig;

/// Frame kinds of the group protocol (the same numbering on both stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small message to the sequencer (PB): body attached.
    Req,
    /// Large-message announcement to the sequencer (BB): data went by
    /// multicast separately.
    ReqBb,
    /// Sequenced message from the sequencer: body attached.
    Seq,
    /// Large-message data multicast by the sender.
    BbData,
    /// Sequencer's ordering decision for a BB message.
    Accept,
    /// Receiver asks the sequencer to resend history from `seq`.
    RetransReq,
    /// Delivery-progress report for history trimming.
    Status,
}

impl Kind {
    /// Wire encoding.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for an unknown kind.
    pub fn from_byte(b: u8) -> Option<Kind> {
        Some(match b {
            0 => Kind::Req,
            1 => Kind::ReqBb,
            2 => Kind::Seq,
            3 => Kind::BbData,
            4 => Kind::Accept,
            5 => Kind::RetransReq,
            6 => Kind::Status,
            _ => return None,
        })
    }
}

/// Where a [`Wire`] goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum To {
    /// Multicast to the whole group.
    Group,
    /// Unicast to the sequencer.
    Sequencer,
    /// Unicast to one member.
    Member(u32),
}

/// One frame the protocol wants sent; the shell picks the header format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wire {
    /// Frame kind.
    pub kind: Kind,
    /// Originating member (for sequenced messages: the original sender).
    pub sender: u32,
    /// The sender's message id.
    pub msg_id: u64,
    /// Global sequence number (retransmission requests: first one wanted).
    pub seq: u64,
    /// The sending member's delivery progress.
    pub piggyback: u64,
    /// Message body (empty for control frames).
    pub payload: Bytes,
    /// Destination.
    pub to: To,
}

/// A trace instant the protocol wants recorded on the group layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the trace argument names
pub enum Note {
    /// The sequencer ordered a message.
    SeqAssign { seq: u64, sender: u32, msg_id: u64 },
    /// The sequencer answered a repeated request from its history.
    DupSuppressed { sender: u32, seq: u64 },
    /// The sequencer received a retransmission request.
    RetransReqRx { sender: u32, from_seq: u64 },
    /// A resync round targets a lagging member.
    Resync { member: u32, from_seq: u64 },
    /// A member delivered a message.
    Deliver { seq: u64, sender: u32, bytes: u64 },
}

impl Note {
    /// Hands the note's trace name and arguments to `emit`.
    pub fn render(&self, emit: impl FnOnce(&'static str, &[(&'static str, u64)])) {
        match *self {
            Note::SeqAssign {
                seq,
                sender,
                msg_id,
            } => emit(
                "seq_assign",
                &[
                    ("seq", seq),
                    ("sender", u64::from(sender)),
                    ("msg_id", msg_id),
                ],
            ),
            Note::DupSuppressed { sender, seq } => emit(
                "dup_suppressed",
                &[("sender", u64::from(sender)), ("seq", seq)],
            ),
            Note::RetransReqRx { sender, from_seq } => emit(
                "retrans_req_rx",
                &[("sender", u64::from(sender)), ("from_seq", from_seq)],
            ),
            Note::Resync { member, from_seq } => emit(
                "resync",
                &[("member", u64::from(member)), ("from_seq", from_seq)],
            ),
            Note::Deliver { seq, sender, bytes } => emit(
                "deliver",
                &[
                    ("seq", seq),
                    ("sender", u64::from(sender)),
                    ("bytes", bytes),
                ],
            ),
        }
    }
}

/// One ordered output of a sequencer operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// Record a trace instant.
    Note(Note),
    /// Send a frame.
    Wire(Wire),
}

/// A message ready for the application, in total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Member that sent the message.
    pub sender: u32,
    /// The sender's message id (wakes the blocked sender).
    pub msg_id: u64,
    /// Global sequence number (contiguous from 1).
    pub seq: u64,
    /// Message body.
    pub payload: Bytes,
}

impl Delivery {
    /// The trace note for this delivery.
    pub fn note(&self) -> Note {
        Note::Deliver {
            seq: self.seq,
            sender: self.sender,
            bytes: self.payload.len() as u64,
        }
    }
}

/// A sequence number the sequencer just assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assigned {
    /// The sequence number.
    pub seq: u64,
    /// The ordered message's body (BB: the data, not the empty accept).
    pub payload: Bytes,
}

/// A history entry: `(sender, msg_id, payload)`.
type Entry = (u32, u64, Bytes);

/// Which of one sender's messages have been seen (sequenced, at the
/// sequencer; delivered, at a member). Message ids are per-sender monotone,
/// so this is a watermark — every id through `through` — plus the few ids
/// seen above it (nonblocking sends can arrive out of order). At the
/// sequencer it outlives the history entries: a late copy of a request is a
/// duplicate however long ago its message was acknowledged and trimmed.
#[derive(Debug, Clone, Default)]
struct Seen {
    through: u64,
    above: BTreeSet<u64>,
}

impl Seen {
    fn contains(&self, msg_id: u64) -> bool {
        msg_id <= self.through || self.above.contains(&msg_id)
    }

    /// Records `msg_id`, advancing the watermark over every id it now
    /// reaches. An id the sender abandoned leaves a hole that never fills:
    /// once more than `cap` ids wait above it the hole is given up (a copy
    /// that late is dropped), so the set cannot grow without bound.
    fn insert(&mut self, msg_id: u64, cap: usize) {
        if msg_id == self.through.saturating_add(1) {
            self.through = msg_id;
        } else {
            self.above.insert(msg_id);
        }
        while let Some(&low) = self.above.first() {
            if low > self.through.saturating_add(1) && self.above.len() <= cap {
                break;
            }
            self.through = self.through.max(low);
            self.above.pop_first();
        }
    }
}

/// The sequencer: assigns sequence numbers, remembers what it ordered, and
/// resends it on request.
#[derive(Debug)]
pub struct SeqCore {
    bb_threshold: usize,
    history_max: usize,
    retrans_chunk: u64,
    next_seq: u64,
    history: BTreeMap<u64, Entry>,
    /// Per sender; at most `history_max` ids above each watermark.
    seen: Vec<Seen>,
    /// Highest sequence number each member is known to have delivered.
    delivered: Vec<u64>,
    /// BB requests whose data has not reached the sequencer yet.
    pending_bb: HashSet<(u32, u64)>,
    overflow_drops: u64,
}

impl SeqCore {
    /// A fresh sequencer for a group of `n_members`.
    pub fn new(n_members: usize, config: &GroupConfig) -> SeqCore {
        SeqCore {
            bb_threshold: config.bb_threshold,
            history_max: config.history_max,
            retrans_chunk: config.retrans_chunk,
            next_seq: 1,
            history: BTreeMap::new(),
            seen: vec![Seen::default(); n_members],
            delivered: vec![0; n_members],
            pending_bb: HashSet::new(),
            overflow_drops: 0,
        }
    }

    /// A send request (`payload` is `None` for a BB announcement, whose
    /// data `bb_data` looks up at the sequencer's own member). A repeated
    /// request is answered from history, or dropped if its entry has been
    /// trimmed (every member, the sender included, delivered it); a BB
    /// request whose data has not arrived is held for
    /// [`SeqCore::bb_arrived`]. Requests from outside the group are ignored.
    pub fn request(
        &mut self,
        sender: u32,
        msg_id: u64,
        payload: Option<Bytes>,
        piggyback: u64,
        bb_data: impl FnOnce() -> Option<Bytes>,
        out: &mut Vec<Out>,
    ) -> Option<Assigned> {
        if !self.is_member(sender) {
            return None;
        }
        self.status(sender, piggyback);
        if self.seen[sender as usize].contains(msg_id) {
            let sequenced = self
                .history
                .iter()
                .find(|(_, e)| (e.0, e.1) == (sender, msg_id));
            if let Some((&seq, entry)) = sequenced {
                out.push(Out::Note(Note::DupSuppressed { sender, seq }));
                // The sender missed its own message. It still holds
                // BB-sized data, so a small accept suffices and avoids
                // re-flooding the wire.
                let kind = if entry.2.len() > self.bb_threshold {
                    Kind::Accept
                } else {
                    Kind::Seq
                };
                out.push(Out::Wire(resend(kind, seq, entry, sender)));
            }
            return None;
        }
        let Some(payload) = payload.or_else(bb_data) else {
            self.pending_bb.insert((sender, msg_id));
            return None;
        };
        Some(self.assign(sender, msg_id, payload, out))
    }

    /// BB data reached the sequencer's machine: order the message if its
    /// request was being held for it.
    pub fn bb_arrived(
        &mut self,
        sender: u32,
        msg_id: u64,
        data: impl FnOnce() -> Option<Bytes>,
        out: &mut Vec<Out>,
    ) -> Option<Assigned> {
        if !self.pending_bb.remove(&(sender, msg_id)) {
            return None;
        }
        Some(self.assign(sender, msg_id, data()?, out))
    }

    /// A member asks for history from `from` on; at most `retrans_chunk`
    /// entries are resent per request.
    pub fn retrans_request(
        &mut self,
        requester: u32,
        from: u64,
        piggyback: u64,
        out: &mut Vec<Out>,
    ) {
        if !self.is_member(requester) {
            return;
        }
        out.push(Out::Note(Note::RetransReqRx {
            sender: requester,
            from_seq: from,
        }));
        self.status(requester, piggyback);
        let to = from.saturating_add(self.retrans_chunk).min(self.next_seq);
        for s in from..to {
            if let Some(entry) = self.history.get(&s) {
                out.push(Out::Wire(resend(Kind::Seq, s, entry, requester)));
            }
        }
    }

    /// `member` reports having delivered everything through `delivered`.
    /// Nobody can be ahead of the sequencer, so a larger claim is clamped.
    pub fn status(&mut self, member: u32, delivered: u64) {
        let tip = self.next_seq - 1;
        if let Some(d) = self.delivered.get_mut(member as usize) {
            *d = (*d).max(delivered.min(tip));
        }
    }

    /// `true` while some member has not confirmed the newest message.
    pub fn lagging(&self) -> bool {
        self.delivered.iter().copied().min().unwrap_or(0) + 1 < self.next_seq
    }

    /// One resync round: resend missing history to each laggard, bounded by
    /// `retrans_chunk` and a per-member byte budget per round so the
    /// backstop can never flood the wire. The duplicates a wrong guess
    /// causes prompt the member to report its true progress, which stops
    /// the resync.
    pub fn resync_round(&self, out: &mut Vec<Out>) {
        let top = self.next_seq;
        for (m, &d) in self.delivered.iter().enumerate() {
            if d + 1 >= top {
                continue;
            }
            let m = m as u32;
            out.push(Out::Note(Note::Resync {
                member: m,
                from_seq: d + 1,
            }));
            let to = (d + 1 + self.retrans_chunk).min(top);
            let mut budget: usize = 8192;
            let mut sent_any = false;
            for s in (d + 1)..to {
                let Some(entry) = self.history.get(&s) else {
                    continue;
                };
                let len = entry.2.len();
                // The member still holds data it sent itself: a small
                // accept suffices instead of re-flooding the payload.
                let kind = if len > self.bb_threshold && entry.0 == m {
                    Kind::Accept
                } else {
                    // The first resend is exempt from the byte budget: it
                    // is what repairs a genuinely lost message.
                    if sent_any && len > budget {
                        break;
                    }
                    budget = budget.saturating_sub(len);
                    Kind::Seq
                };
                sent_any = true;
                out.push(Out::Wire(resend(kind, s, entry, m)));
            }
        }
    }

    /// Drops history every member has acknowledged, then the oldest entries
    /// beyond `history_max`.
    pub fn trim_history(&mut self) {
        let min_delivered = self.delivered.iter().copied().min().unwrap_or(0);
        while let Some(oldest) = self.history.first_entry() {
            if *oldest.key() > min_delivered {
                break;
            }
            oldest.remove();
        }
        while self.history.len() > self.history_max {
            self.history.pop_first();
            self.overflow_drops += 1;
        }
    }

    /// History entries dropped because the buffer overflowed.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }

    /// History entries currently held (never more than `history_max`).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Message ids remembered above the per-sender watermarks, over all
    /// senders (diagnostics; never more than `history_max` per sender).
    pub fn dedup_len(&self) -> usize {
        self.seen.iter().map(|s| s.above.len()).sum()
    }

    fn is_member(&self, id: u32) -> bool {
        (id as usize) < self.delivered.len()
    }

    /// Assigns the next sequence number and emits the ordering multicast
    /// (data for PB, accept for BB). Callers have checked that `sender` is a
    /// member and `msg_id` unseen; a request held for its data stops being
    /// held, so the data's arrival cannot order the message a second time.
    fn assign(&mut self, sender: u32, msg_id: u64, payload: Bytes, out: &mut Vec<Out>) -> Assigned {
        let seq = self.next_seq;
        self.next_seq += 1;
        out.push(Out::Note(Note::SeqAssign {
            seq,
            sender,
            msg_id,
        }));
        self.seen[sender as usize].insert(msg_id, self.history_max);
        self.pending_bb.remove(&(sender, msg_id));
        self.history.insert(seq, (sender, msg_id, payload.clone()));
        self.trim_history();
        let big = payload.len() > self.bb_threshold;
        out.push(Out::Wire(Wire {
            kind: if big { Kind::Accept } else { Kind::Seq },
            sender,
            msg_id,
            seq,
            piggyback: 0,
            payload: if big { Bytes::new() } else { payload.clone() },
            to: To::Group,
        }));
        Assigned { seq, payload }
    }
}

/// A history entry resent to one member, as data or (`Kind::Accept`) as
/// the bare ordering decision.
fn resend(kind: Kind, seq: u64, entry: &Entry, to: u32) -> Wire {
    Wire {
        kind,
        sender: entry.0,
        msg_id: entry.1,
        seq,
        piggyback: 0,
        payload: if kind == Kind::Accept {
            Bytes::new()
        } else {
            entry.2.clone()
        },
        to: To::Member(to),
    }
}

/// A member's receive side: places sequenced messages, holds BB data and
/// out-of-order arrivals, delivers in order, and decides when to ask for a
/// retransmission or report progress.
#[derive(Debug)]
pub struct MemberCore {
    me: u32,
    sequencer: u32,
    bb_threshold: usize,
    status_interval: u64,
    next_msg_id: u64,
    next_deliver: u64,
    /// Sequenced messages waiting for their turn.
    ooo: BTreeMap<u64, Entry>,
    /// Accepts whose BB data has not arrived: `seq -> (sender, msg_id)`.
    accepts: BTreeMap<u64, (u32, u64)>,
    /// BB data not delivered yet.
    bb_store: HashMap<(u32, u64), Bytes>,
    /// What has been delivered, per sender: BB data arriving (again) for
    /// one of those is not kept.
    delivered_msg: HashMap<u32, Seen>,
    dedup_cap: usize,
    since_status: u64,
    last_status_at: SimTime,
    last_gap_request: u64,
}

impl MemberCore {
    /// Member `me` of a group sequenced by member `sequencer`.
    pub fn new(me: u32, sequencer: u32, config: &GroupConfig) -> MemberCore {
        MemberCore {
            me,
            sequencer,
            bb_threshold: config.bb_threshold,
            status_interval: config.status_interval,
            next_msg_id: 1,
            next_deliver: 1,
            ooo: BTreeMap::new(),
            accepts: BTreeMap::new(),
            bb_store: HashMap::new(),
            delivered_msg: HashMap::new(),
            dedup_cap: config.history_max,
            since_status: 0,
            last_status_at: SimTime::ZERO,
            last_gap_request: 0,
        }
    }

    /// Starts a send: allocates the message id and builds the request to
    /// the sequencer plus, for a BB-sized message, the data multicast that
    /// precedes it.
    pub fn new_request(&mut self, payload: &Bytes) -> (Wire, Option<Wire>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let big = payload.len() > self.bb_threshold;
        let frame = |kind, payload, to| Wire {
            kind,
            sender: self.me,
            msg_id,
            seq: 0,
            piggyback: self.delivered(),
            payload,
            to,
        };
        if big {
            (
                frame(Kind::ReqBb, Bytes::new(), To::Sequencer),
                Some(frame(Kind::BbData, payload.clone(), To::Group)),
            )
        } else {
            (frame(Kind::Req, payload.clone(), To::Sequencer), None)
        }
    }

    /// A sequenced message arrived. Returns `false` if it was already
    /// delivered (the sequencer resent history this member did not need).
    pub fn on_seq(&mut self, seq: u64, sender: u32, msg_id: u64, body: Bytes) -> bool {
        self.place_own(seq, sender, msg_id, body);
        seq >= self.next_deliver
    }

    /// The ordering decision for a BB message arrived; it is placed once
    /// its data is here. Returns `false` if it was already delivered.
    pub fn on_accept(&mut self, seq: u64, sender: u32, msg_id: u64) -> bool {
        if seq < self.next_deliver {
            return false;
        }
        let key = (sender, msg_id);
        if let Some(data) = self.bb_store.get(&key).cloned() {
            self.ooo.insert(seq, (sender, msg_id, data));
        } else {
            self.accepts.insert(seq, key);
        }
        true
    }

    /// BB data arrived: keep it until ordered, or place it if the accept
    /// came first.
    pub fn on_bb_data(&mut self, sender: u32, msg_id: u64, body: Bytes) {
        let key = (sender, msg_id);
        let already = self
            .delivered_msg
            .get(&sender)
            .is_some_and(|seen| seen.contains(msg_id));
        if !already {
            self.bb_store.insert(key, body.clone());
        }
        let slot = self
            .accepts
            .iter()
            .find(|(_, k)| **k == key)
            .map(|(s, _)| *s);
        if let Some(s) = slot {
            self.accepts.remove(&s);
            self.ooo.insert(s, (sender, msg_id, body));
        }
    }

    /// Places a message whose body and sequence number are both known
    /// (the sequencer's own copy at assign time).
    pub fn place_own(&mut self, seq: u64, sender: u32, msg_id: u64, payload: Bytes) {
        if seq >= self.next_deliver {
            self.ooo.insert(seq, (sender, msg_id, payload));
            self.accepts.remove(&seq);
        }
    }

    /// The next message in total order, if it is here. Call until `None`.
    pub fn pop_deliverable(&mut self) -> Option<Delivery> {
        let seq = self.next_deliver;
        let (sender, msg_id, payload) = self.ooo.remove(&seq)?;
        self.accepts.remove(&seq);
        self.bb_store.remove(&(sender, msg_id));
        self.delivered_msg
            .entry(sender)
            .or_default()
            .insert(msg_id, self.dedup_cap);
        self.next_deliver += 1;
        self.since_status += 1;
        Some(Delivery {
            sender,
            msg_id,
            seq,
            payload,
        })
    }

    /// If a gap is visible (buffered messages ahead of the next one to
    /// deliver), asks the sequencer to fill it — once per gap position.
    pub fn gap_request(&mut self) -> Option<Wire> {
        let next = self.next_deliver;
        let has_ahead = self.ooo.keys().next().is_some_and(|&k| k > next)
            || self.accepts.keys().next().is_some_and(|&k| k > next);
        if has_ahead && self.last_gap_request < next && self.me != self.sequencer {
            self.last_gap_request = next;
            Some(self.retrans_wire())
        } else {
            None
        }
    }

    /// An unconditional retransmission request from the next message on.
    pub fn retrans_wire(&self) -> Wire {
        Wire {
            kind: Kind::RetransReq,
            seq: self.next_deliver,
            ..self.status_wire()
        }
    }

    /// A progress report is due when `status_interval` deliveries have
    /// passed or — with `prompt` — as soon as the member is fully caught up
    /// (at most every 10 ms): without the prompt report an idle stretch
    /// makes the sequencer believe members lag and its resync resends
    /// history nobody needs. The sequencer's own member never reports.
    pub fn status_due(&mut self, now: SimTime, prompt: bool) -> Option<Wire> {
        if self.me == self.sequencer {
            return None;
        }
        let prompt_due = prompt
            && self.backlog() == 0
            && self.since_status > 0
            && now.saturating_duration_since(self.last_status_at) >= SimDuration::from_millis(10);
        if self.since_status >= self.status_interval || prompt_due {
            self.since_status = 0;
            self.last_status_at = now;
            Some(self.status_wire())
        } else {
            None
        }
    }

    /// The answer to an already-delivered Seq/Accept, throttled to one per
    /// millisecond: report true progress so a resync stops targeting this
    /// member.
    pub fn stale_status(&mut self, now: SimTime) -> Option<Wire> {
        if self.me == self.sequencer
            || now.saturating_duration_since(self.last_status_at) < SimDuration::from_millis(1)
        {
            return None;
        }
        self.since_status = 0;
        self.last_status_at = now;
        Some(self.status_wire())
    }

    /// An unconditional progress report.
    pub fn status_wire(&self) -> Wire {
        Wire {
            kind: Kind::Status,
            sender: self.me,
            msg_id: 0,
            seq: 0,
            piggyback: self.delivered(),
            payload: Bytes::new(),
            to: To::Sequencer,
        }
    }

    /// Highest sequence number delivered so far.
    pub fn delivered(&self) -> u64 {
        self.next_deliver - 1
    }

    /// Sequenced-but-undeliverable messages currently buffered (non-zero
    /// implies a gap).
    pub fn backlog(&self) -> usize {
        self.ooo.len() + self.accepts.len()
    }

    /// BB data held for `(sender, msg_id)`, if any.
    pub fn bb_data(&self, sender: u32, msg_id: u64) -> Option<Bytes> {
        self.bb_store.get(&(sender, msg_id)).cloned()
    }
}
