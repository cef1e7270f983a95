//! Model-checking the RPC at-most-once core with no simulator: one server
//! [`Table`] and three clients over a lossy, duplicating, reordering bag of
//! in-flight frames, driven by a random script and checked after every
//! step.
//!
//! The harness plays both placements (drawn per case): *kernel style* —
//! several calls in flight per client, seqs with gaps (the machine's calls
//! to other ports take the rest), each reply acknowledged exactly
//! ([`Table::ack`]) — and *user style* — one call at a time per client,
//! every request and explicit ack covering all earlier seqs
//! ([`Table::ack_through`]). Clients also give calls up, as a real client
//! does when its retries run out.

use std::collections::{HashMap, HashSet};

use amoeba::rpc::core::{Action, Kind, Table};
use bytes::Bytes;
use proptest::prelude::*;

const CLIENTS: u32 = 3;
/// Kernel style: calls one client keeps in flight at once.
const CONCURRENT: usize = 4;
/// The acknowledged-seq window of the core: a client's open calls stay
/// within this many seqs of its newest one (a real client gives up long
/// before 64 later calls to the same server complete).
const WINDOW: u64 = 64;

/// The reply the server gives to `client`'s call `seq`.
fn body(client: u32, seq: u64) -> Bytes {
    Bytes::from(vec![
        client as u8 ^ (seq as u8).wrapping_mul(31);
        (seq % 7) as usize
    ])
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Frame {
    Request { client: u32, seq: u64 },
    Reply { client: u32, seq: u64, body: Bytes },
    Working { client: u32, seq: u64 },
    Ack { client: u32, seq: u64 },
}

#[derive(Default)]
struct Client {
    next_seq: u64,
    /// Calls waiting for their reply.
    open: Vec<u64>,
    /// The last call answered (user style acknowledges it explicitly).
    last_answered: Option<u64>,
}

struct World {
    kernel_style: bool,
    table: Table<u32>,
    flight: Vec<Frame>,
    clients: Vec<Client>,
    /// Calls the server ran and has not answered yet.
    running: Vec<(u32, u64)>,
    delivered: HashSet<(u32, u64)>,
    /// The model of the table's live entries: delivered and not
    /// acknowledged; `true` once answered.
    live: HashMap<(u32, u64), bool>,
}

impl World {
    fn new(kernel_style: bool) -> World {
        World {
            kernel_style,
            table: Table::default(),
            flight: Vec::new(),
            clients: (0..CLIENTS)
                .map(|_| Client {
                    next_seq: 1,
                    ..Client::default()
                })
                .collect(),
            running: Vec::new(),
            delivered: HashSet::new(),
            live: HashMap::new(),
        }
    }

    /// What either shell does with a request: user space first takes it as
    /// the acknowledgement of every earlier call on the connection.
    fn serve(&mut self, client: u32, seq: u64) {
        if !self.kernel_style {
            self.ack_through(client, seq.saturating_sub(1));
        }
        let live = self.live.get(&(client, seq)).copied();
        match (live, self.table.request(client, seq)) {
            (Some(false), Action::Working) => self.flight.push(Frame::Working { client, seq }),
            (Some(true), Action::Resend(body)) => {
                assert_eq!(body, self::body(client, seq), "resent the call's own reply");
                self.flight.push(Frame::Reply { client, seq, body });
            }
            (None, Action::Deliver) => {
                assert!(
                    self.delivered.insert((client, seq)),
                    "({client}, {seq}) delivered twice"
                );
                self.live.insert((client, seq), false);
                self.running.push((client, seq));
            }
            (None, Action::Ignore) => {}
            (live, action) => {
                panic!("({client}, {seq}) live {live:?} got {action:?}")
            }
        }
    }

    fn ack_through(&mut self, client: u32, seq: u64) {
        self.table.ack_through(client, seq);
        self.live.retain(|&(c, s), _| c != client || s > seq);
    }

    fn arrive(&mut self, frame: Frame) {
        match frame {
            Frame::Request { client, seq } => self.serve(client, seq),
            Frame::Ack { client, seq } if self.kernel_style => {
                self.table.ack(client, seq);
                self.live.remove(&(client, seq));
            }
            Frame::Ack { client, seq } => self.ack_through(client, seq),
            Frame::Reply { client, seq, body } => {
                let c = &mut self.clients[client as usize];
                // A reply nobody waits for (a duplicate, or a call given
                // up) is dropped, and the kernel sends no ack for it.
                if let Some(i) = c.open.iter().position(|&s| s == seq) {
                    assert_eq!(body, self::body(client, seq), "the call's own reply");
                    c.open.remove(i);
                    c.last_answered = Some(seq);
                    if self.kernel_style {
                        self.flight.push(Frame::Ack { client, seq });
                    }
                }
            }
            Frame::Working { .. } => {} // the client keeps waiting
        }
    }

    /// The server answers call `i` of `running`.
    fn answer(&mut self, i: usize) {
        let (client, seq) = self.running.swap_remove(i);
        let body = body(client, seq);
        self.table.reply(client, seq, body.clone());
        if let Some(replied) = self.live.get_mut(&(client, seq)) {
            *replied = true;
        }
        self.flight.push(Frame::Reply { client, seq, body });
    }

    /// One scripted step; `a` and `b` select the client / frame / call.
    fn step(&mut self, op: u8, a: u64, b: u64) {
        let m = (a % u64::from(CLIENTS)) as u32;
        let pick = |len: usize| (len > 0).then(|| a as usize % len);
        let c = &mut self.clients[m as usize];
        match op % 16 {
            // A new call: user style waits for the open one; kernel style
            // skips seqs the machine spent on other ports.
            0 | 1 => {
                let fits = match self.kernel_style {
                    true => {
                        c.open.len() < CONCURRENT
                            && c.open.iter().all(|&s| c.next_seq + 2 - s < WINDOW)
                    }
                    false => c.open.is_empty(),
                };
                if fits {
                    let seq = c.next_seq;
                    c.next_seq += if self.kernel_style { 1 + b % 3 } else { 1 };
                    c.open.push(seq);
                    self.flight.push(Frame::Request { client: m, seq });
                }
            }
            // Client retransmission.
            2 => {
                if let Some(i) = pick(c.open.len()) {
                    let seq = c.open[i];
                    self.flight.push(Frame::Request { client: m, seq });
                }
            }
            // An (explicit or repeated) ack of the last answered call.
            3 => {
                if let Some(seq) = c.last_answered {
                    self.flight.push(Frame::Ack { client: m, seq });
                }
            }
            // The client's retries run out.
            4 => {
                if let Some(i) = pick(c.open.len()) {
                    c.open.remove(i);
                }
            }
            // Loss, duplication; delivery in any order.
            5 => {
                pick(self.flight.len()).map(|i| self.flight.swap_remove(i));
            }
            6 => {
                if let Some(i) = pick(self.flight.len()) {
                    self.flight.push(self.flight[i].clone());
                }
            }
            7 | 8 => {
                if let Some(i) = pick(self.running.len()) {
                    self.answer(i);
                }
            }
            _ => {
                if let Some(i) = pick(self.flight.len()) {
                    let frame = self.flight.remove(i);
                    self.arrive(frame);
                }
            }
        }
    }

    /// The network heals: clients retransmit, the server answers, nothing
    /// is lost. Every call still open must be answered.
    fn heal(&mut self) {
        for m in 0..CLIENTS {
            for seq in self.clients[m as usize].open.clone() {
                self.flight.push(Frame::Request { client: m, seq });
            }
        }
        while !self.flight.is_empty() || !self.running.is_empty() {
            while !self.running.is_empty() {
                self.answer(0);
            }
            while !self.flight.is_empty() {
                let frame = self.flight.remove(0);
                self.arrive(frame);
            }
        }
        for (m, c) in self.clients.iter().enumerate() {
            assert!(
                c.open.is_empty(),
                "client {m}: calls {:?} never answered",
                c.open
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random interleavings of call / retransmit / ack / give-up / loss /
    /// duplicate / reorder / answer keep: every `(client, seq)` delivered
    /// at most once, every request for a live call answered with Working
    /// or its own reply — and once the network heals, every call the
    /// client still waits for is answered.
    #[test]
    fn interleavings_run_each_call_at_most_once(
        kernel_style in any::<bool>(),
        script in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..500),
    ) {
        let mut world = World::new(kernel_style);
        for (op, a, b) in script {
            world.step(op, a, b);
        }
        world.heal();
    }

    /// Hostile values cannot panic the table or make it deliver a call
    /// twice: seq 0 and `u64::MAX`, replies and acks for calls never seen,
    /// both ack disciplines mixed on one client.
    #[test]
    fn hostile_values_cannot_panic_the_table(
        ops in proptest::collection::vec((0u8..4, 0u32..3, any::<u64>()), 1..300),
    ) {
        let mut table = Table::default();
        let mut delivered = HashSet::new();
        for (op, client, x) in ops {
            let seq = match x % 5 {
                0 => x % 4,
                1 => u64::MAX - x % 3,
                2 => x % 200,
                _ => x,
            };
            match op {
                0 => {
                    if table.request(client, seq) == Action::Deliver {
                        prop_assert!(delivered.insert((client, seq)), "delivered twice");
                    }
                }
                1 => table.reply(client, seq, Bytes::from_static(b"r")),
                2 => table.ack(client, seq),
                _ => table.ack_through(client, seq),
            }
        }
    }
}

#[test]
fn kinds_keep_their_wire_bytes() {
    for (kind, byte) in [
        (Kind::Request, 0),
        (Kind::Reply, 1),
        (Kind::Ack, 2),
        (Kind::Working, 3),
    ] {
        assert_eq!(kind.to_byte(), byte);
        assert_eq!(Kind::from_byte(byte), Some(kind));
    }
    assert_eq!(Kind::from_byte(4), None);
}

#[test]
fn acked_window_remembers_gapped_seqs_for_64_seqs() {
    // Kernel seqs reach a server with gaps: acknowledge every odd seq.
    let mut table = Table::default();
    for seq in (1..=99).step_by(2) {
        assert_eq!(table.request(7u32, seq), Action::Deliver);
        table.reply(7, seq, Bytes::new());
        table.ack(7, seq);
    }
    // A call the server never saw, within 64 seqs of the newest ack, is
    // still delivered; an acknowledged one is not.
    assert_eq!(table.request(7, 98), Action::Deliver);
    assert_eq!(table.request(7, 97), Action::Ignore);
    // Further back, the window has slid past: counted as acknowledged.
    assert_eq!(table.request(7, 2), Action::Ignore);
    // A live entry decides first, however far behind the window.
    assert_eq!(table.request(7, 98), Action::Working);
    table.ack(7, 500);
    assert_eq!(table.request(7, 98), Action::Working);
    table.reply(7, 98, Bytes::from_static(b"r"));
    assert_eq!(
        table.request(7, 98),
        Action::Resend(Bytes::from_static(b"r"))
    );
}

#[test]
fn late_reply_to_an_acknowledged_call_is_not_kept() {
    // The client gave call 1 up and moved on; the server answers it after.
    let mut table = Table::default();
    assert_eq!(table.request(1u32, 1), Action::Deliver);
    table.ack_through(1, 1);
    table.reply(1, 1, Bytes::from_static(b"late"));
    assert_eq!(table.request(1, 1), Action::Ignore);
}
