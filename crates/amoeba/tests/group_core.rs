//! Model-checking the group protocol core with no simulator: one
//! [`SeqCore`] and three [`MemberCore`]s over a lossy, duplicating,
//! reordering bag of in-flight frames, driven by a random script and checked
//! against the reference total order after every step.
//!
//! The harness plays both placements (drawn per case): *kernel style* — the
//! sequencer shares a handler with member 0 and places its own copy at
//! assign time — and *user style* — the sequencer sees member 0 only
//! through the multicast loopback and that member's BB store.
//!
//! This is the evidence that the harness reaches the `trim_history` bug
//! (ROADMAP item 1: forgetting which `(sender, msg_id)` were sequenced when
//! their history entry is trimmed): against the core as first extracted,
//! where `trim_history` still removed the `seen` entry along with the
//! history entry, `interleavings_keep_one_total_order` fails within 0.1 s
//! with "(0, 4) sequenced twice".

use std::collections::HashMap;

use amoeba::group::core::{Delivery, Kind, MemberCore, Note, Out, SeqCore, To, Wire};
use amoeba::GroupConfig;
use bytes::Bytes;
use desim::{SimDuration, SimTime};
use proptest::prelude::*;

const MEMBERS: u32 = 3;
const BB_THRESHOLD: usize = 16;
const HISTORY_MAX: usize = 16;

fn config() -> GroupConfig {
    GroupConfig {
        bb_threshold: BB_THRESHOLD,
        history_max: HISTORY_MAX,
        retrans_chunk: 4,
        status_interval: 3,
        ..GroupConfig::default()
    }
}

/// The body `sender` attaches to its message `msg_id` (PB- or BB-sized).
fn body(sender: u32, msg_id: u64, big: bool) -> Bytes {
    let len = if big { BB_THRESHOLD + 9 } else { 5 };
    Bytes::from(vec![(sender as u8) ^ (msg_id as u8).wrapping_mul(31); len])
}

/// What either shell does with one frame addressed to the sequencer.
/// Member 0 hosts the sequencer.
fn feed_seq(
    seq: &mut SeqCore,
    member0: &mut MemberCore,
    kernel_style: bool,
    w: &Wire,
    outs: &mut Vec<Out>,
) {
    // The user-space sequencer thread refreshes its own member's progress
    // before every work item; the kernel's handler keeps it current.
    seq.status(0, member0.delivered());
    let assigned = match w.kind {
        Kind::Req | Kind::ReqBb => {
            let payload = (w.kind == Kind::Req).then(|| w.payload.clone());
            let bb = || member0.bb_data(w.sender, w.msg_id);
            seq.request(w.sender, w.msg_id, payload, w.piggyback, bb, outs)
        }
        Kind::BbData => {
            // Kernel: the frame's body; user: whatever the store holds.
            let data = || match kernel_style {
                true => Some(w.payload.clone()),
                false => member0.bb_data(w.sender, w.msg_id),
            };
            seq.bb_arrived(w.sender, w.msg_id, data, outs)
        }
        Kind::RetransReq => {
            seq.retrans_request(w.sender, w.seq, w.piggyback, outs);
            None
        }
        Kind::Status => {
            seq.status(w.sender, w.piggyback);
            None
        }
        Kind::Seq | Kind::Accept => None,
    };
    if !kernel_style || w.kind == Kind::Status {
        seq.trim_history();
    }
    if let (true, Some(a)) = (kernel_style, assigned) {
        member0.place_own(a.seq, w.sender, w.msg_id, a.payload);
    }
}

/// What either shell does with one frame addressed to a member: place it,
/// then [`drain`].
fn feed_member(
    member: &mut MemberCore,
    kernel_style: bool,
    w: &Wire,
    now: SimTime,
) -> (Vec<Delivery>, Vec<Wire>) {
    let fresh = match w.kind {
        Kind::Seq => member.on_seq(w.seq, w.sender, w.msg_id, w.payload.clone()),
        Kind::Accept => member.on_accept(w.seq, w.sender, w.msg_id),
        Kind::BbData => {
            member.on_bb_data(w.sender, w.msg_id, w.payload.clone());
            true
        }
        _ => true,
    };
    let stale = match (fresh, kernel_style) {
        (true, _) => None,
        (false, true) => member.stale_status(now),
        (false, false) => Some(member.status_wire()),
    };
    let (popped, mut wires) = drain(member, now);
    wires.splice(0..0, stale);
    (popped, wires)
}

/// Pops what became deliverable and collects the member's own traffic.
fn drain(member: &mut MemberCore, now: SimTime) -> (Vec<Delivery>, Vec<Wire>) {
    let popped = std::iter::from_fn(|| member.pop_deliverable()).collect();
    let mut wires = Vec::new();
    wires.extend(member.gap_request());
    wires.extend(member.status_due(now, true));
    (popped, wires)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Sequencer,
    Member(u32),
}

struct World {
    kernel_style: bool,
    now: SimTime,
    seq: SeqCore,
    members: Vec<MemberCore>,
    /// Frames on the wire, deliverable in any order.
    flight: Vec<(Dest, Wire)>,
    /// Per member: sends not yet delivered back to it (request, BB data).
    outstanding: Vec<Vec<(Wire, Option<Wire>)>>,
    sent: Vec<(u32, u64, bool)>,
    /// The reference total order, from the sequencer's `seq_assign` notes.
    order: Vec<(u32, u64)>,
    assigned: HashMap<(u32, u64), u64>,
    /// How many messages each member has delivered.
    logs: Vec<usize>,
}

impl World {
    fn new(kernel_style: bool) -> World {
        let cfg = config();
        World {
            kernel_style,
            now: SimTime::ZERO,
            seq: SeqCore::new(MEMBERS as usize, &cfg),
            members: (0..MEMBERS).map(|m| MemberCore::new(m, 0, &cfg)).collect(),
            flight: Vec::new(),
            outstanding: vec![Vec::new(); MEMBERS as usize],
            sent: Vec::new(),
            order: Vec::new(),
            assigned: HashMap::new(),
            logs: vec![0; MEMBERS as usize],
        }
    }

    fn launch(&mut self, w: Wire) {
        match w.to {
            To::Group => {
                for m in 0..MEMBERS {
                    self.flight.push((Dest::Member(m), w.clone()));
                }
            }
            To::Sequencer => self.flight.push((Dest::Sequencer, w)),
            To::Member(m) => self.flight.push((Dest::Member(m), w)),
        }
    }

    fn arrive(&mut self, dest: Dest, w: Wire) {
        match dest {
            Dest::Sequencer => {
                let mut outs = Vec::new();
                feed_seq(
                    &mut self.seq,
                    &mut self.members[0],
                    self.kernel_style,
                    &w,
                    &mut outs,
                );
                for out in outs {
                    match out {
                        Out::Note(Note::SeqAssign {
                            seq,
                            sender,
                            msg_id,
                        }) => {
                            self.order.push((sender, msg_id));
                            assert_eq!(seq, self.order.len() as u64, "seq numbers are contiguous");
                            let again = self.assigned.insert((sender, msg_id), seq);
                            assert_eq!(again, None, "({sender}, {msg_id}) sequenced twice");
                        }
                        Out::Note(_) => {}
                        Out::Wire(w) => self.launch(w),
                    }
                }
                if self.kernel_style {
                    // The sequencer's own copy delivers in the same handler.
                    let drained = drain(&mut self.members[0], self.now);
                    self.delivered(0, drained);
                }
            }
            Dest::Member(m) => {
                let member = &mut self.members[m as usize];
                let fed = feed_member(member, self.kernel_style, &w, self.now);
                self.delivered(m, fed);
                // Data reaching the sequencer's machine is news for the
                // sequencer too: at once in the kernel's shared handler, as
                // a queued work item in user space.
                if (m, w.kind) == (0, Kind::BbData) {
                    match self.kernel_style {
                        true => self.arrive(Dest::Sequencer, w),
                        false => self.flight.push((Dest::Sequencer, w)),
                    }
                }
            }
        }
    }

    /// Checks member `m`'s deliveries against the reference order and
    /// launches its traffic.
    fn delivered(&mut self, m: u32, (popped, wires): (Vec<Delivery>, Vec<Wire>)) {
        for d in popped {
            self.logs[m as usize] += 1;
            assert_eq!(d.seq, self.logs[m as usize] as u64, "member {m}: gap-free");
            let expect = self.order.get(d.seq as usize - 1).copied();
            assert_eq!(Some((d.sender, d.msg_id)), expect, "member {m}: same order");
            let big = d.payload.len() > BB_THRESHOLD;
            assert_eq!(d.payload, body(d.sender, d.msg_id, big), "member {m}: body");
            if d.sender == m {
                self.outstanding[m as usize].retain(|(req, _)| req.msg_id != d.msg_id);
            }
        }
        wires.into_iter().for_each(|w| self.launch(w));
    }

    /// One scripted step; `a` and `b` select the member / frame it acts on.
    fn step(&mut self, op: u8, a: u64, b: u64) {
        self.now += SimDuration::from_millis(b % 12);
        let m = (a % u64::from(MEMBERS)) as usize;
        let pick = (!self.flight.is_empty()).then(|| (a as usize) % self.flight.len().max(1));
        match op % 16 {
            // Send, PB- or BB-sized — unless the history could overflow
            // (a real group's status reports are its flow control), or this
            // sender's oldest unfinished send is a whole history window
            // behind (a real sender has long given that one up).
            0..=2 => {
                let big = b.is_multiple_of(3);
                let oldest = self.outstanding[m].iter().map(|(req, _)| req.msg_id).min();
                let next = self.sent.iter().filter(|s| s.0 == m as u32).count() as u64 + 1;
                let unfinished: usize = self.outstanding.iter().map(Vec::len).sum();
                if self.seq.history_len() + unfinished >= HISTORY_MAX
                    || oldest.is_some_and(|o| next - o >= HISTORY_MAX as u64)
                {
                    return;
                }
                let (req, bb) = self.members[m].new_request(&body(m as u32, next, big));
                assert_eq!(req.msg_id, next);
                self.sent.push((m as u32, next, big));
                self.outstanding[m].push((req.clone(), bb.clone()));
                bb.into_iter().for_each(|bb| self.launch(bb));
                self.launch(req);
            }
            // Sender retransmit: the request again, never the data.
            3 => {
                if let Some((req, _)) = self.outstanding[m].first().cloned() {
                    self.launch(req);
                }
            }
            // Loss, duplication; delivery in any order.
            4 => {
                pick.map(|i| self.flight.swap_remove(i));
            }
            5 | 6 => {
                if let Some(i) = pick {
                    self.flight.push(self.flight[i].clone());
                }
            }
            7 => self.launch(self.members[m].status_wire()),
            8 => self.launch(self.members[m].retrans_wire()), // kernel `recv` poll
            9 => self.seq.trim_history(),
            10 => {
                let mut outs = Vec::new();
                self.seq.status(0, self.members[0].delivered());
                self.seq.resync_round(&mut outs);
                for out in outs {
                    if let Out::Wire(w) = out {
                        self.launch(w);
                    }
                }
            }
            _ => {
                if let Some(i) = pick {
                    let (dest, w) = self.flight.remove(i);
                    self.arrive(dest, w);
                }
            }
        }
        assert!(self.seq.history_len() <= HISTORY_MAX, "history bounded");
        assert!(
            self.seq.dedup_len() <= MEMBERS as usize * HISTORY_MAX,
            "dedup state bounded"
        );
    }

    /// The network heals: senders retry, the sequencer resyncs, members
    /// report, nothing is lost. Everything sent must end up sequenced once
    /// and delivered everywhere.
    fn heal(&mut self) {
        for _ in 0..64 {
            for m in 0..MEMBERS as usize {
                for (req, bb) in self.outstanding[m].clone() {
                    bb.into_iter().for_each(|bb| self.launch(bb));
                    self.launch(req);
                }
                self.launch(self.members[m].status_wire());
            }
            self.step(10, 0, 11);
            while !self.flight.is_empty() {
                let (dest, w) = self.flight.remove(0);
                self.arrive(dest, w);
            }
            let done = self.outstanding.iter().all(Vec::is_empty)
                && self.logs.iter().all(|&n| n == self.order.len());
            if done && !self.seq.lagging() {
                break;
            }
        }
        for &(sender, msg_id, _) in &self.sent {
            assert!(
                self.assigned.contains_key(&(sender, msg_id)),
                "({sender}, {msg_id}) was never sequenced"
            );
        }
        assert_eq!(self.order.len(), self.sent.len());
        assert_eq!(self.logs, vec![self.sent.len(); MEMBERS as usize]);
        assert!(!self.seq.lagging(), "sequencer still believes someone lags");
        self.seq.trim_history();
        assert_eq!(self.seq.history_len(), 0, "acknowledged history is trimmed");
        assert_eq!(self.seq.overflow_drops(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interleavings of request / duplicate / loss / reorder / sender
    /// retransmit / retrans-request / status / trim / resync keep: at most
    /// one seq per `(sender, msg_id)`, gap-free identical delivery at every
    /// member, bounded history and dedup state — and once the network
    /// heals, everything sent is delivered everywhere exactly once.
    #[test]
    fn interleavings_keep_one_total_order(
        kernel_style in any::<bool>(),
        script in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..500),
    ) {
        let mut world = World::new(kernel_style);
        for (op, a, b) in script {
            world.step(op, a, b);
        }
        world.heal();
    }

    /// Hostile header fields cannot panic either core: any kind, any member
    /// id (in range or not), any message id, sequence number and piggyback,
    /// mixed into live traffic.
    #[test]
    fn hostile_headers_cannot_panic_the_cores(
        kernel_style in any::<bool>(),
        frames in proptest::collection::vec(
            (0u8..7, any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..200,
        ),
    ) {
        let cfg = config();
        let mut seq = SeqCore::new(MEMBERS as usize, &cfg);
        let mut member = MemberCore::new(0, 0, &cfg);
        let mut other = MemberCore::new(1, 0, &cfg);
        let mut now = SimTime::ZERO;
        let edge = |x: u64| match x % 5 {
            0 => x % 4,
            1 => u64::MAX - x % 3,
            _ => x,
        };
        for (kind, sender, msg_id, seqno, piggyback) in frames {
            let w = Wire {
                kind: Kind::from_byte(kind).expect("0..7 are the seven kinds"),
                sender: if sender % 2 == 0 { sender % 4 } else { sender },
                msg_id: edge(msg_id),
                seq: edge(seqno),
                piggyback: edge(piggyback),
                payload: Bytes::from(vec![7u8; (msg_id % 40) as usize]),
                to: To::Sequencer,
            };
            now += SimDuration::from_millis(seqno % 5);
            let mut outs = Vec::new();
            feed_seq(&mut seq, &mut member, kernel_style, &w, &mut outs);
            seq.resync_round(&mut outs);
            let _ = seq.lagging();
            let _ = feed_member(&mut member, kernel_style, &w, now);
            let _ = feed_member(&mut other, kernel_style, &w, now);
            for out in outs {
                if let Out::Wire(w) = out {
                    prop_assert!(!matches!(w.to, To::Member(m) if m >= MEMBERS));
                }
            }
            prop_assert!(seq.history_len() <= HISTORY_MAX);
        }
    }
}

/// A sender that abandons a message leaves a hole in its id sequence that
/// never fills. The ids sequenced above the hole are remembered only up to
/// `history_max` of them; then the hole is given up, and a late copy of the
/// abandoned message is dropped rather than sequenced.
#[test]
fn an_abandoned_message_cannot_grow_the_dedup_state() {
    let cfg = config();
    let mut seq = SeqCore::new(MEMBERS as usize, &cfg);
    let mut outs = Vec::new();
    let req = |seq: &mut SeqCore, msg_id, outs: &mut Vec<Out>| {
        seq.request(1, msg_id, Some(body(1, msg_id, false)), 0, || None, outs)
    };
    // msg 1 is lost on the way; 2.. arrive.
    for msg_id in 2..200 {
        assert!(req(&mut seq, msg_id, &mut outs).is_some());
        assert!(
            seq.dedup_len() <= HISTORY_MAX,
            "bounded while the hole is open"
        );
    }
    outs.clear();
    assert!(
        req(&mut seq, 1, &mut outs).is_none(),
        "given up, not sequenced late"
    );
    assert!(
        req(&mut seq, 150, &mut outs).is_none(),
        "still known as sequenced"
    );
    assert!(outs.is_empty(), "trimmed duplicates are dropped silently");
}
