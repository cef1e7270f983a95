//! The at-most-once RPC protocol as a pure table.
//!
//! Amoeba's kernel-space 3-way RPC ([`crate::RpcServer`]) and Panda's
//! user-space 2-way RPC (`panda`'s `UserRpc`) promise the same thing: a call
//! runs at most once, and a retransmitted request gets the reply again or a
//! sign of life. This module is that promise: a [`Table`] per server
//! endpoint, keyed by client, decides what each request gets and keeps a
//! reply until the client acknowledges it. There is no clock, no cost
//! model, no I/O and no lock in here; a placement shell decodes frames into
//! calls, charges CPU, records trace notes and sends.
//!
//! The placements differ only in how acknowledgements arrive: the kernel's
//! explicit ack names exactly one call ([`Table::ack`]); user space
//! serializes calls per connection, so a request or an explicit ack covers
//! every earlier sequence number ([`Table::ack_through`]).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use bytes::Bytes;

/// Frame kinds of the RPC protocol (the same numbering on both stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call, sent by the client (and retransmitted on timeout).
    Request,
    /// The server's answer; implicitly acknowledges the request.
    Reply,
    /// The client's acknowledgement of a reply.
    Ack,
    /// Server-alive probe answer: the request is held (e.g. a blocked
    /// guarded operation); the client keeps waiting.
    Working,
}

impl Kind {
    /// Wire encoding.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte; `None` for an unknown kind.
    pub fn from_byte(b: u8) -> Option<Kind> {
        Some(match b {
            0 => Kind::Request,
            1 => Kind::Reply,
            2 => Kind::Ack,
            3 => Kind::Working,
            _ => return None,
        })
    }
}

/// What the server does with one incoming request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A new call: hand it to the server, which now owes a reply.
    Deliver,
    /// The call was answered but the reply was not acknowledged (it was
    /// lost): send this reply again.
    Resend(Bytes),
    /// The call is still being served: tell the client the server is alive.
    Working,
    /// The client acknowledged this call: a stale duplicate, drop it.
    Ignore,
}

/// A call the client has not acknowledged yet.
#[derive(Debug)]
enum Entry {
    InProgress,
    Done(Bytes),
}

/// The sequence numbers one client has acknowledged: every seq at or below
/// `base`, and `base + 1 + i` for each set bit `i`. Fixed size, so a client
/// whose seqs reach a server with gaps (kernel seqs count every call the
/// machine makes) costs no allocation. A seq more than 64 above `base`
/// slides the window and counts everything it passes as acknowledged.
#[derive(Debug, Clone, Copy, Default)]
struct Acked {
    base: u64,
    bits: u64,
}

impl Acked {
    fn contains(&self, seq: u64) -> bool {
        seq <= self.base || (seq - self.base <= 64 && (self.bits >> (seq - self.base - 1)) & 1 == 1)
    }

    /// Marks `seq` acknowledged; `through` marks every seq below it too.
    fn insert(&mut self, seq: u64, through: bool) {
        if seq <= self.base {
            return;
        }
        let keep = if through { 0 } else { 64 };
        self.advance((seq - self.base).saturating_sub(keep));
        if seq > self.base {
            self.bits |= 1 << (seq - self.base - 1);
        }
        self.advance(u64::from(self.bits.trailing_ones()));
    }

    /// Moves `base` up by `n`, shifting the bitmap along.
    fn advance(&mut self, n: u64) {
        self.base += n;
        self.bits = if n >= 64 { 0 } else { self.bits >> n };
    }
}

/// The at-most-once state of one server endpoint, keyed by client.
///
/// Decision order for a request: a live entry decides first (a call in
/// progress gets [`Action::Working`], an answered one [`Action::Resend`]);
/// then a seq the client acknowledged gets [`Action::Ignore`]; anything
/// else is recorded as in progress and gets [`Action::Deliver`].
#[derive(Debug)]
pub struct Table<C> {
    live: BTreeMap<(C, u64), Entry>,
    acked: HashMap<C, Acked>,
}

impl<C> Default for Table<C> {
    fn default() -> Self {
        Table {
            live: BTreeMap::new(),
            acked: HashMap::new(),
        }
    }
}

impl<C: Copy + Ord + Hash> Table<C> {
    /// Decides what `client`'s request `seq` gets.
    pub fn request(&mut self, client: C, seq: u64) -> Action {
        match self.live.get(&(client, seq)) {
            Some(Entry::InProgress) => return Action::Working,
            Some(Entry::Done(reply)) => return Action::Resend(reply.clone()),
            None => {}
        }
        let acked = self.acked.get(&client).copied().unwrap_or_default();
        if acked.contains(seq) {
            return Action::Ignore;
        }
        self.live.insert((client, seq), Entry::InProgress);
        Action::Deliver
    }

    /// Records the reply to a call in progress, for resending until the
    /// client acknowledges it. A reply to a call no longer live (the client
    /// acknowledged past it) is not kept.
    pub fn reply(&mut self, client: C, seq: u64, reply: Bytes) {
        if let Some(entry) = self.live.get_mut(&(client, seq)) {
            *entry = Entry::Done(reply);
        }
    }

    /// The 3-way acknowledgement: `client` has the reply to exactly `seq`.
    pub fn ack(&mut self, client: C, seq: u64) {
        self.live.remove(&(client, seq));
        self.acked.entry(client).or_default().insert(seq, false);
    }

    /// The 2-way acknowledgement: `client` serializes its calls, so it is
    /// done with every seq up to and including `seq`.
    pub fn ack_through(&mut self, client: C, seq: u64) {
        while let Some((&key, _)) = self.live.range((client, 0)..=(client, seq)).next() {
            self.live.remove(&key);
        }
        self.acked.entry(client).or_default().insert(seq, true);
    }
}
