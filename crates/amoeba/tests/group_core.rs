//! Model-checking the group protocol core with no simulator: one
//! [`SeqCore`] and three [`MemberCore`]s over a lossy, duplicating,
//! reordering bag of in-flight frames, driven by a random script and checked
//! against the reference total order after every step.
//!
//! Every frame goes through the cores' own dispatch, `SeqCore::on_frame`
//! and `MemberCore::on_frame`, as in both shells. The harness plays both
//! placements (drawn per case): *kernel style* — the sequencer shares a
//! handler with member 0, places its own copy at assign time and reads that
//! member's progress after each delivery run — and *user style* — the
//! sequencer sees member 0 only through the multicast loopback and refreshes
//! its progress before every frame.
//!
//! Time reaches the cores only through their deadlines: the script may call
//! a core's `on_deadline` (which acts only once its `next_deadline` has
//! passed), and healing moves the clock from one earliest deadline to the
//! next, as the shells' blocked threads do.
//!
//! This is the evidence that the harness reaches the `trim_history` bug
//! (forgetting which `(sender, msg_id)` were sequenced when their history
//! entry is trimmed): against the core as first extracted, where
//! `trim_history` still removed the `seen` entry along with the history
//! entry, `interleavings_keep_one_total_order` fails within 0.1 s with
//! "(0, 4) sequenced twice".

use std::collections::HashMap;

use amoeba::group::core::{Delivery, Kind, MemberCore, Note, Out, SeqCore, To, Wire};
use amoeba::GroupConfig;
use bytes::Bytes;
use desim::{SimDuration, SimTime};
use proptest::prelude::*;

const MEMBERS: u32 = 3;
const BB_THRESHOLD: usize = 16;
const HISTORY_MAX: usize = 16;
const RETRANS_CHUNK: u64 = 4;
/// Deadline steps within which [`World::heal`] must converge: a laggard is
/// at most `HISTORY_MAX` messages behind and one resync round resends
/// `RETRANS_CHUNK` of them, and a round aimed at progress the sequencer has
/// not heard of yet may be wasted, so twice that many rounds. (4000 cases
/// of `interleavings_keep_one_total_order` needed at most 2.)
const HEAL_STEPS: usize = 2 * HISTORY_MAX / RETRANS_CHUNK as usize;

fn config() -> GroupConfig {
    GroupConfig {
        history_max: HISTORY_MAX,
        retrans_chunk: RETRANS_CHUNK,
        status_interval: 3,
        resync_interval: SimDuration::from_millis(40),
        ..GroupConfig::default()
    }
}

/// The body `sender` attaches to its message `msg_id` (PB- or BB-sized).
fn body(sender: u32, msg_id: u64, big: bool) -> Bytes {
    let len = if big { BB_THRESHOLD + 9 } else { 5 };
    Bytes::from(vec![(sender as u8) ^ (msg_id as u8).wrapping_mul(31); len])
}

/// A member's progress report, as any member may send it.
fn status(member: &MemberCore, me: u32) -> Wire {
    Wire {
        kind: Kind::Status,
        sender: me,
        msg_id: 0,
        seq: 0,
        piggyback: member.delivered(),
        payload: Bytes::new(),
        to: To::Sequencer,
    }
}

/// What either shell does after a member's core took a frame: pop what
/// became deliverable, then send the member's own frames.
fn drain(member: &mut MemberCore, stale: Option<Wire>, now: SimTime) -> (Vec<Delivery>, Vec<Wire>) {
    let popped = std::iter::from_fn(|| member.pop_deliverable()).collect();
    let wires = stale.into_iter().chain(member.after_receive(now)).collect();
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
            seq: SeqCore::new(MEMBERS as usize, BB_THRESHOLD, &cfg),
            members: (0..MEMBERS)
                .map(|m| MemberCore::new(m, 0, BB_THRESHOLD, &cfg))
                .collect(),
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

    /// User style: the sequencer thread reads member 0's progress before
    /// each frame and before it waits for its deadline.
    fn refresh(&mut self) {
        if !self.kernel_style {
            self.seq.status(0, self.members[0].delivered());
        }
    }

    /// Checks a sequencer step's assignments against the reference order
    /// and returns its wires.
    fn sequenced(&mut self, outs: Vec<Out>) -> Vec<Wire> {
        let mut wires = Vec::new();
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
                Out::Wire(w) => wires.push(w),
            }
        }
        wires
    }

    fn arrive(&mut self, dest: Dest, w: Wire) {
        match dest {
            Dest::Sequencer => {
                self.refresh();
                let mut outs = Vec::new();
                let member0 = &self.members[0];
                let bb_data = || member0.bb_data(w.sender, w.msg_id);
                let assigned = self.seq.on_frame(
                    w.kind,
                    w.sender,
                    w.msg_id,
                    w.seq,
                    w.piggyback,
                    w.payload.clone(),
                    bb_data,
                    self.now,
                    &mut outs,
                );
                for w in self.sequenced(outs) {
                    self.launch(w);
                }
                if self.kernel_style {
                    // The sequencer's own copy delivers in the same handler.
                    if let Some(a) = assigned {
                        self.members[0].place_own(a.seq, w.sender, w.msg_id, a.payload);
                    }
                    let drained = drain(&mut self.members[0], None, self.now);
                    self.delivered(0, drained);
                }
            }
            Dest::Member(m) => {
                let now = self.now;
                let member = &mut self.members[m as usize];
                let stale =
                    member.on_frame(w.kind, w.seq, w.sender, w.msg_id, w.payload.clone(), now);
                let drained = drain(member, stale, now);
                self.delivered(m, drained);
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
        if self.kernel_style && m == 0 {
            // The kernel sequencer reads its member's progress after every
            // delivery run.
            self.seq.status(0, self.members[0].delivered());
        }
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

    /// The sequencer's resync round, if its deadline has passed.
    fn seq_deadline(&mut self) -> Vec<Wire> {
        self.refresh();
        let mut outs = Vec::new();
        self.seq.on_deadline(self.now, &mut outs);
        self.sequenced(outs)
    }

    /// Every core whose deadline has passed acts on it; returns (and
    /// launches) what they sent.
    fn pass_deadlines(&mut self) -> Vec<Wire> {
        let mut wires = self.seq_deadline();
        for member in &mut self.members {
            wires.extend(member.on_deadline(self.now));
        }
        wires.iter().for_each(|w| self.launch(w.clone()));
        wires
    }

    /// The earliest deadline of any core.
    fn next_deadline(&mut self) -> Option<SimTime> {
        self.refresh();
        let members = self.members.iter().map(MemberCore::next_deadline);
        members.chain([self.seq.next_deadline()]).flatten().min()
    }

    /// Moves the clock to the earliest deadline, if any core has one, and
    /// lets every core act on it.
    fn advance_to_deadline(&mut self) -> Vec<Wire> {
        match self.next_deadline() {
            Some(t) => {
                self.now = self.now.max(t);
                self.pass_deadlines()
            }
            None => Vec::new(),
        }
    }

    /// Every frame in flight arrives, oldest first, with no loss.
    fn flush(&mut self) {
        while !self.flight.is_empty() {
            let (dest, w) = self.flight.remove(0);
            self.arrive(dest, w);
        }
    }

    /// Every send made so far is sequenced and delivered everywhere.
    fn all_delivered(&self) -> bool {
        self.outstanding.iter().all(Vec::is_empty)
            && self.logs.iter().all(|&n| n == self.order.len())
    }

    /// One scripted step: the clock moves, then `act`.
    fn step(&mut self, op: u8, a: u64, b: u64) {
        self.now += SimDuration::from_millis(b % 12);
        self.act(op, a, b);
    }

    /// One scripted action; `a` and `b` select the member / frame it acts
    /// on.
    fn act(&mut self, op: u8, a: u64, b: u64) {
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
            7 => self.launch(status(&self.members[m], m as u32)),
            // A member's deadline (the blocked receive that waits for it).
            8 => {
                if let Some(w) = self.members[m].on_deadline(self.now) {
                    self.launch(w);
                }
            }
            // Idle: only the clock moves.
            9 => {}
            10 => {
                for w in self.seq_deadline() {
                    self.launch(w);
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

    /// The network heals: nothing is lost any more, senders retry (the
    /// shells' send loop), and time moves only from one core deadline to
    /// the next. Everything sent must end up sequenced once and delivered
    /// everywhere, and every core must fall silent, within [`HEAL_STEPS`]
    /// deadline steps.
    fn heal(&mut self) {
        let mut steps = 0;
        loop {
            for m in 0..MEMBERS as usize {
                for (req, bb) in self.outstanding[m].clone() {
                    bb.into_iter().for_each(|bb| self.launch(bb));
                    self.launch(req);
                }
            }
            self.flush();
            if self.all_delivered() && self.next_deadline().is_none() {
                break;
            }
            assert!(
                steps < HEAL_STEPS,
                "not healed after {HEAL_STEPS} deadline steps"
            );
            self.advance_to_deadline();
            steps += 1;
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
        assert_eq!(self.seq.history_len(), 0, "acknowledged history is trimmed");
        assert_eq!(self.seq.overflow_drops(), 0);
    }

    /// Everything is delivered: passing every deadline lets each member
    /// report at most once and sends nothing else, and then no core has a
    /// deadline left.
    fn quiesce(&mut self) {
        assert!(self.flight.is_empty() && self.all_delivered());
        let mut reports = [0; MEMBERS as usize];
        for _ in 0..=MEMBERS {
            for w in self.advance_to_deadline() {
                assert_eq!(
                    w.kind,
                    Kind::Status,
                    "a delivered group only reports: {w:?}"
                );
                reports[w.sender as usize] += 1;
                assert!(
                    reports[w.sender as usize] <= 1,
                    "member {} reported twice",
                    w.sender
                );
            }
            self.flush();
        }
        assert_eq!(self.next_deadline(), None, "a delivered group falls silent");
        assert!(!self.seq.lagging());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interleavings of request / duplicate / loss / reorder / sender
    /// retransmit / status / idle / member and sequencer deadlines keep: at
    /// most one seq per `(sender, msg_id)`, gap-free identical delivery at
    /// every member, bounded history and dedup state — and once the network
    /// heals, everything sent is delivered everywhere exactly once within
    /// [`HEAL_STEPS`] deadline steps (bounded repair).
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

    /// Quiescence: with no loss (but duplicates and any delivery order),
    /// whenever everything is delivered, passing every deadline sends at
    /// most one progress report per member, no retransmission request and
    /// no resend, and leaves no core with a deadline. The clock moves only
    /// while nothing is in flight.
    #[test]
    fn a_delivered_group_falls_silent(
        kernel_style in any::<bool>(),
        script in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..300),
    ) {
        let mut world = World::new(kernel_style);
        for (op, a, b) in script {
            match op % 8 {
                // Send, sender retransmit, duplicate, deliver.
                0 => world.act(0, a, b),
                1 => world.act(3, a, b),
                2 => world.act(5, a, b),
                3..=6 => world.act(11, a, b),
                _ => {
                    world.flush();
                    world.quiesce();
                    world.now += SimDuration::from_millis(b % 200);
                }
            }
        }
        world.flush();
        world.quiesce();
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
        let mut seq = SeqCore::new(MEMBERS as usize, BB_THRESHOLD, &cfg);
        let mut members = [MemberCore::new(0, 0, BB_THRESHOLD, &cfg), MemberCore::new(1, 0, BB_THRESHOLD, &cfg)];
        let mut now = SimTime::ZERO;
        let edge = |x: u64| match x % 5 {
            0 => x % 4,
            1 => u64::MAX - x % 3,
            _ => x,
        };
        for (kind, sender, msg_id, seqno, piggyback) in frames {
            let (kind, sender) = (
                Kind::from_byte(kind).expect("0..7 are the seven kinds"),
                if sender % 2 == 0 { sender % 4 } else { sender },
            );
            let (msg_id, seqno, piggyback) = (edge(msg_id), edge(seqno), edge(piggyback));
            let body = Bytes::from(vec![7u8; (msg_id % 40) as usize]);
            now += SimDuration::from_millis(seqno % 5);
            let mut outs = Vec::new();
            let bb_data = || members[0].bb_data(sender, msg_id);
            let assigned = seq.on_frame(
                kind, sender, msg_id, seqno, piggyback, body.clone(), bb_data, now, &mut outs,
            );
            if let (true, Some(a)) = (kernel_style, assigned) {
                members[0].place_own(a.seq, sender, msg_id, a.payload);
            }
            // Every deadline is passed at once, so each frame meets them.
            if let Some(t) = seq.next_deadline() {
                seq.on_deadline(t.max(now), &mut outs);
            }
            for member in &mut members {
                let stale = member.on_frame(kind, seqno, sender, msg_id, body.clone(), now);
                let _ = drain(member, stale, now);
                if let Some(t) = member.next_deadline() {
                    let _ = member.on_deadline(t.max(now));
                }
            }
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
    let mut seq = SeqCore::new(MEMBERS as usize, BB_THRESHOLD, &cfg);
    let mut outs = Vec::new();
    let req = |seq: &mut SeqCore, msg_id, outs: &mut Vec<Out>| {
        let body = body(1, msg_id, false);
        seq.on_frame(
            Kind::Req,
            1,
            msg_id,
            0,
            0,
            body,
            || None,
            SimTime::ZERO,
            outs,
        )
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

/// The group's one timer has no "off": a zero `resync_interval` would make
/// every deadline due at once, forever.
#[test]
#[should_panic(expected = "resync_interval must be non-zero")]
fn a_zero_resync_interval_is_rejected_by_the_sequencer() {
    let cfg = GroupConfig {
        resync_interval: SimDuration::ZERO,
        ..config()
    };
    let _ = SeqCore::new(MEMBERS as usize, BB_THRESHOLD, &cfg);
}

/// As [`a_zero_resync_interval_is_rejected_by_the_sequencer`], for a member.
#[test]
#[should_panic(expected = "resync_interval must be non-zero")]
fn a_zero_resync_interval_is_rejected_by_a_member() {
    let cfg = GroupConfig {
        resync_interval: SimDuration::ZERO,
        ..config()
    };
    let _ = MemberCore::new(1, 0, BB_THRESHOLD, &cfg);
}

/// A member whose first retransmission request is lost asks again every
/// half `resync_interval` while the gap stays open, even though sequenced
/// traffic keeps arriving past the gap: that traffic does not restart its
/// deadline. (The sequencer's own deadline cannot help here: every new
/// assignment restarts it.)
#[test]
fn a_lost_gap_request_is_repeated_under_sustained_traffic() {
    let cfg = config();
    let mut member = MemberCore::new(1, 0, BB_THRESHOLD, &cfg);
    let mut now = SimTime::ZERO;
    let mut asked = Vec::new();
    // Seq 1 is lost; seqs 2..=41 arrive every 5 ms.
    for seq in 2..42 {
        now += SimDuration::from_millis(5);
        // The shell's blocked receive passes every deadline on the way.
        while let Some(t) = member.next_deadline().filter(|&t| t <= now) {
            asked.extend(member.on_deadline(t).map(|w| (t, w)));
        }
        let stale = member.on_frame(Kind::Seq, seq, 2, seq, body(2, seq, false), now);
        let own: Vec<Wire> = drain(&mut member, stale, now).1;
        if seq == 2 {
            // The immediate request for the gap; it is lost.
            assert_eq!(own.len(), 1);
            assert_eq!((own[0].kind, own[0].seq), (Kind::RetransReq, 1));
        } else {
            assert!(own.is_empty(), "once per gap position");
        }
    }
    assert_eq!(member.delivered(), 0);
    let quiet = cfg.resync_interval / 2;
    let times: Vec<SimTime> = asked.iter().map(|(t, _)| *t).collect();
    let expect: Vec<SimTime> = (1..=9)
        .map(|k| SimTime::ZERO + SimDuration::from_millis(5) + quiet * k)
        .collect();
    assert_eq!(times, expect, "asked again every half resync_interval");
    for (_, w) in &asked {
        assert_eq!((w.kind, w.seq, w.to), (Kind::RetransReq, 1, To::Sequencer));
    }
}
