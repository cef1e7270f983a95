//! Panda's user-space totally ordered group communication.
//!
//! Same protocol family as the Amoeba kernel version (sequencer ordering, PB
//! for small messages, BB for large ones, history + retransmission), but the
//! sequencer is an ordinary **user thread**: every message it orders costs an
//! interrupt-to-thread dispatch (110 µs; 60 µs when the sequencer machine is
//! dedicated) and two system calls — the overheads of Section 4.3. In
//! exchange the protocol is flexible: it lives entirely in this module and
//! needs no kernel changes to evolve (the paper's Section 6 argument).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, RecvTimeoutError, SimChannel, SimDuration, Simulation, SwitchCharge};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer, PANDA_GROUP_HEADER_BYTES};
use crate::transport::{CommError, GroupDelivery, GroupHandler, NodeId};

const KIND_REQ: u8 = 0;
const KIND_REQ_BB: u8 = 1;
const KIND_SEQ: u8 = 2;
const KIND_BB_DATA: u8 = 3;
const KIND_ACCEPT: u8 = 4;
const KIND_RETRANS: u8 = 5;
const KIND_STATUS: u8 = 6;

/// Tuning of the user-space group protocol.
#[derive(Debug, Clone)]
pub struct UserGroupConfig {
    /// Messages larger than this are broadcast by the sender (BB method).
    pub bb_threshold: usize,
    /// History entries kept past the slowest member's acknowledged point.
    pub history_max: usize,
    /// History entries resent per retransmission request.
    pub retrans_chunk: u64,
    /// Sender timeout before repeating its request to the sequencer.
    pub send_timeout: SimDuration,
    /// Send (re)tries before giving up.
    pub send_retries: u32,
    /// Sequencer resync interval while members lag.
    pub resync_interval: SimDuration,
    /// A member reports progress after this many deliveries.
    pub status_interval: u64,
}

impl Default for UserGroupConfig {
    fn default() -> Self {
        UserGroupConfig {
            bb_threshold: flip::FLIP_FRAGMENT_BYTES - PANDA_GROUP_HEADER_BYTES,
            history_max: 4096,
            retrans_chunk: 32,
            send_timeout: SimDuration::from_millis(400),
            send_retries: 8,
            resync_interval: SimDuration::from_millis(250),
            status_interval: 20,
        }
    }
}

/// Work items forwarded from the receive daemon to the sequencer thread.
enum SeqWork {
    Request {
        sender: NodeId,
        msg_id: u64,
        payload: Option<Bytes>, // None: BB announcement, data travels separately
        piggyback: u64,
    },
    BbArrived {
        sender: NodeId,
        msg_id: u64,
    },
    Retrans {
        requester: NodeId,
        from: u64,
        piggyback: u64,
    },
    Status {
        member: NodeId,
        piggyback: u64,
    },
}

/// Member-side receiver state.
struct MemberState {
    next_deliver: u64,
    ooo: BTreeMap<u64, (NodeId, u64, Bytes)>,
    accepts: BTreeMap<u64, (NodeId, u64)>,
    bb_store: HashMap<(NodeId, u64), Bytes>,
    delivered_msg: HashMap<NodeId, u64>,
    send_waiters: HashMap<u64, SimChannel<u64>>,
    next_msg_id: u64,
    since_status: u64,
    last_gap_request: u64,
    last_status_at: desim::SimTime,
    /// Outstanding nonblocking sends: `msg_id -> (request header, body)` for
    /// retransmission at flush time.
    pending_async: HashMap<u64, (PandaHeader, Bytes)>,
}

/// Sequencer-thread state (owned by the thread, no sharing).
struct SeqState {
    next_seq: u64,
    history: BTreeMap<u64, (NodeId, u64, Bytes)>,
    seen: HashMap<(NodeId, u64), u64>,
    delivered: Vec<u64>,
    pending_bb: HashMap<(NodeId, u64), u64>,
    overflow_drops: u64,
}

/// The user-space group module for one member node.
pub struct UserGroup {
    sys: Arc<SysLayer>,
    config: UserGroupConfig,
    /// Member id == node id; the member list covers all app nodes plus a
    /// dedicated sequencer node if configured.
    n_members: u32,
    sequencer: NodeId,
    dedicated: bool,
    state: Mutex<MemberState>,
    handler: Mutex<Option<GroupHandler>>,
    /// Present only on the sequencer node: feed to the sequencer thread.
    seq_chan: Option<SimChannel<SeqWork>>,
    /// Sequencer node only: local delivery progress, written by the receive
    /// daemon and read by the sequencer thread (cheaper than fake work
    /// items for self-reporting).
    local_delivered: std::sync::atomic::AtomicU64,
}

impl fmt::Debug for UserGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserGroup")
            .field("node", &self.sys.node())
            .field("sequencer", &self.sequencer)
            .finish()
    }
}

impl UserGroup {
    /// Creates the group module on `sys`, registering its upcall. If this
    /// node is the sequencer, the sequencer thread is spawned here.
    pub fn start(
        sim: &mut Simulation,
        sys: Arc<SysLayer>,
        config: UserGroupConfig,
        n_members: u32,
        sequencer: NodeId,
        dedicated: bool,
    ) -> Arc<UserGroup> {
        let am_sequencer = sys.node() == sequencer;
        let seq_chan = am_sequencer.then(SimChannel::new);
        let group = Arc::new(UserGroup {
            sys: Arc::clone(&sys),
            config,
            n_members,
            sequencer,
            dedicated,
            state: Mutex::new(MemberState {
                next_deliver: 1,
                ooo: BTreeMap::new(),
                accepts: BTreeMap::new(),
                bb_store: HashMap::new(),
                delivered_msg: HashMap::new(),
                send_waiters: HashMap::new(),
                next_msg_id: 1,
                since_status: 0,
                last_gap_request: 0,
                last_status_at: desim::SimTime::ZERO,
                pending_async: HashMap::new(),
            }),
            handler: Mutex::new(None),
            seq_chan: seq_chan.clone(),
            local_delivered: std::sync::atomic::AtomicU64::new(0),
        });
        let upcall_group = Arc::clone(&group);
        sys.set_group_upcall(Arc::new(move |ctx, header, body| {
            upcall_group.upcall(ctx, header, body);
        }));
        if let Some(chan) = seq_chan {
            let seq_group = Arc::clone(&group);
            sim.spawn_daemon_on_lane(
                sys.machine().lane(),
                sys.machine().proc(),
                &format!("{}-seqr", sys.machine().name()),
                move |ctx| seq_group.sequencer_thread(ctx, chan),
            );
        }
        // Same cycle as `UserRpc`: the delivery handler captures objects
        // that hold this node's Panda instance.
        let handler_of = Arc::clone(&group);
        sim.on_teardown(move || *handler_of.handler.lock() = None);
        group
    }

    /// Installs the delivery upcall.
    pub fn set_handler(&self, handler: GroupHandler) {
        *self.handler.lock() = Some(handler);
    }

    /// Number of buffered not-yet-deliverable messages (diagnostics).
    pub fn backlog(&self) -> usize {
        let st = self.state.lock();
        st.ooo.len() + st.accepts.len()
    }

    // -- sending ----------------------------------------------------------

    /// Broadcasts with total order; blocks until the message is sequenced
    /// and delivered locally.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the sequencer never orders the message.
    pub fn send(&self, ctx: &Ctx, payload: Bytes) -> Result<(), CommError> {
        let me = self.sys.node();
        let (msg_id, waiter) = {
            let mut st = self.state.lock();
            let id = st.next_msg_id;
            st.next_msg_id += 1;
            let w = SimChannel::new();
            st.send_waiters.insert(id, w.clone());
            (id, w)
        };
        let piggyback = self.state.lock().next_deliver - 1;
        let big = payload.len() > self.config.bb_threshold;
        let req_header = PandaHeader {
            module: Module::Group,
            kind: if big { KIND_REQ_BB } else { KIND_REQ },
            src: me,
            msg_id,
            a: 0,
            b: piggyback,
        };
        ctx.trace_emit(
            Layer::Group,
            Phase::Begin,
            "grp_send",
            &[
                ("msg_id", msg_id),
                ("bytes", payload.len() as u64),
                ("bb", u64::from(big)),
            ],
        );
        ctx.trace_cost(
            Layer::Group,
            "protocol_layer",
            self.sys.machine().cost().protocol_layer,
        );
        ctx.compute(self.sys.machine().cost().protocol_layer);
        let mut result = Err(CommError::Timeout);
        for attempt in 0..=self.config.send_retries {
            if attempt > 0 {
                ctx.trace_instant(
                    Layer::Group,
                    "retransmit",
                    &[("msg_id", msg_id), ("attempt", u64::from(attempt))],
                );
            }
            if big && attempt == 0 {
                let bb_header = PandaHeader {
                    module: Module::Group,
                    kind: KIND_BB_DATA,
                    src: me,
                    msg_id,
                    a: 0,
                    b: piggyback,
                };
                self.sys.send_group(ctx, bb_header, &payload, true);
                self.sys
                    .send(ctx, self.sequencer, req_header, &Bytes::new());
            } else if big {
                self.sys
                    .send(ctx, self.sequencer, req_header, &Bytes::new());
            } else {
                self.sys.send(ctx, self.sequencer, req_header, &payload);
            }
            let backoff = self.config.send_timeout * (1u64 << attempt.min(3));
            match waiter.recv_timeout(ctx, backoff) {
                Ok(_seq) => {
                    result = Ok(());
                    break;
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Closed) => break,
            }
        }
        self.state.lock().send_waiters.remove(&msg_id);
        ctx.trace_emit(
            Layer::Group,
            Phase::End,
            "grp_send",
            &[("msg_id", msg_id), ("ok", u64::from(result.is_ok()))],
        );
        result
    }

    /// Broadcasts without waiting for the sequencer — the paper's Section 6
    /// extension, possible **only** in the user-space implementation (the
    /// Amoeba kernel protocol would need kernel modifications). Total order
    /// is still guaranteed by the sequencer; call [`UserGroup::flush`] at a
    /// point where delivery must have happened. Returns the message id.
    pub fn send_nonblocking(&self, ctx: &Ctx, payload: Bytes) -> u64 {
        let me = self.sys.node();
        let (msg_id, piggyback) = {
            let mut st = self.state.lock();
            let id = st.next_msg_id;
            st.next_msg_id += 1;
            let w = SimChannel::new();
            st.send_waiters.insert(id, w);
            (id, st.next_deliver - 1)
        };
        let big = payload.len() > self.config.bb_threshold;
        let req_header = PandaHeader {
            module: Module::Group,
            kind: if big { KIND_REQ_BB } else { KIND_REQ },
            src: me,
            msg_id,
            a: 0,
            b: piggyback,
        };
        let req_body = if big { Bytes::new() } else { payload.clone() };
        if big {
            let bb_header = PandaHeader {
                module: Module::Group,
                kind: KIND_BB_DATA,
                src: me,
                msg_id,
                a: 0,
                b: piggyback,
            };
            self.sys.send_group(ctx, bb_header, &payload, true);
        }
        self.sys.send(ctx, self.sequencer, req_header, &req_body);
        self.state
            .lock()
            .pending_async
            .insert(msg_id, (req_header, req_body));
        msg_id
    }

    /// Blocks until every outstanding nonblocking send has been sequenced
    /// and delivered locally, retransmitting as needed.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the sequencer stops answering.
    pub fn flush(&self, ctx: &Ctx) -> Result<(), CommError> {
        loop {
            let next = {
                let st = self.state.lock();
                st.pending_async.keys().next().copied()
            };
            let Some(msg_id) = next else { return Ok(()) };
            let waiter = self.state.lock().send_waiters.get(&msg_id).cloned();
            let Some(waiter) = waiter else {
                // Already delivered (the waiter fired before flush).
                self.state.lock().pending_async.remove(&msg_id);
                continue;
            };
            let mut done = false;
            for _attempt in 0..=self.config.send_retries {
                match waiter.recv_timeout(ctx, self.config.send_timeout) {
                    Ok(_seq) => {
                        done = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let (header, body) = {
                            let st = self.state.lock();
                            match st.pending_async.get(&msg_id) {
                                Some((h, b)) => (*h, b.clone()),
                                None => {
                                    done = true;
                                    break;
                                }
                            }
                        };
                        self.sys.send(ctx, self.sequencer, header, &body);
                    }
                    Err(RecvTimeoutError::Closed) => break,
                }
            }
            let mut st = self.state.lock();
            st.pending_async.remove(&msg_id);
            st.send_waiters.remove(&msg_id);
            if !done {
                return Err(CommError::Timeout);
            }
        }
    }

    // -- the sequencer thread ---------------------------------------------

    /// The sequencer: an ordinary user thread fed by the receive daemon.
    fn sequencer_thread(&self, ctx: &Ctx, chan: SimChannel<SeqWork>) {
        let cost = self.sys.machine().cost().clone();
        let dispatch_charge = if self.dedicated {
            cost.sequencer_thread_switch_dedicated
        } else {
            cost.sequencer_thread_switch
        };
        let mut seq = SeqState {
            next_seq: 1,
            history: BTreeMap::new(),
            seen: HashMap::new(),
            delivered: vec![0; self.n_members as usize],
            pending_bb: HashMap::new(),
            overflow_drops: 0,
        };
        let me = self.sys.node() as usize;
        loop {
            // Refresh our own member's progress from the receive daemon.
            if me < seq.delivered.len() {
                let local = self
                    .local_delivered
                    .load(std::sync::atomic::Ordering::Relaxed);
                seq.delivered[me] = seq.delivered[me].max(local);
            }
            let lagging = {
                let max_acked = seq.delivered.iter().copied().min().unwrap_or(0);
                max_acked + 1 < seq.next_seq
            };
            let work = if lagging {
                match chan.recv_timeout(ctx, self.config.resync_interval) {
                    Ok(w) => Some(w),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Closed) => return,
                }
            } else {
                match chan.recv(ctx) {
                    Some(w) => Some(w),
                    None => return,
                }
            };
            let Some(work) = work else {
                self.resync_laggards(ctx, &mut seq);
                continue;
            };
            // Dispatch from the interrupt path to this thread: the paper's
            // 110 us (60 us when this machine is a dedicated sequencer),
            // plus the system call fetching the message from the network.
            ctx.trace_cost(Layer::Group, "sequencer_dispatch", dispatch_charge);
            ctx.trace_cost(Layer::Group, "syscall", cost.syscall(cost.deep_call_depth));
            ctx.trace_cost(Layer::Group, "protocol_layer", cost.protocol_layer);
            ctx.compute_charged(
                cost.syscall(cost.deep_call_depth) + cost.protocol_layer,
                SwitchCharge::Fixed(dispatch_charge),
            );
            match work {
                SeqWork::Request {
                    sender,
                    msg_id,
                    payload,
                    piggyback,
                } => {
                    self.note_progress(&mut seq, sender, piggyback);
                    let key = (sender, msg_id);
                    if let Some(&assigned) = seq.seen.get(&key) {
                        ctx.trace_instant(
                            Layer::Group,
                            "dup_suppressed",
                            &[("sender", u64::from(sender)), ("seq", assigned)],
                        );
                        if let Some((s, m, data)) = seq.history.get(&assigned).cloned() {
                            if data.len() > self.config.bb_threshold {
                                // The sender holds its own BB data; a small
                                // accept suffices (resending 8 KB under
                                // congestion would only feed the collapse).
                                let header = PandaHeader {
                                    module: Module::Group,
                                    kind: KIND_ACCEPT,
                                    src: s,
                                    msg_id: m,
                                    a: assigned,
                                    b: 0,
                                };
                                self.sys.send(ctx, sender, header, &Bytes::new());
                            } else {
                                self.resend_seq(ctx, sender, s, m, assigned, &data);
                            }
                        }
                        continue;
                    }
                    let payload = match payload {
                        Some(p) => p,
                        None => match self.state.lock().bb_store.get(&key).cloned() {
                            Some(data) => data,
                            None => {
                                seq.pending_bb.insert(key, piggyback);
                                continue;
                            }
                        },
                    };
                    self.assign(ctx, &mut seq, sender, msg_id, payload);
                }
                SeqWork::BbArrived { sender, msg_id } => {
                    let key = (sender, msg_id);
                    if seq.pending_bb.remove(&key).is_some() {
                        if let Some(data) = self.state.lock().bb_store.get(&key).cloned() {
                            self.assign(ctx, &mut seq, sender, msg_id, data);
                        }
                    }
                }
                SeqWork::Retrans {
                    requester,
                    from,
                    piggyback,
                } => {
                    ctx.trace_instant(
                        Layer::Group,
                        "retrans_req_rx",
                        &[("sender", u64::from(requester)), ("from_seq", from)],
                    );
                    self.note_progress(&mut seq, requester, piggyback);
                    let to = (from + self.config.retrans_chunk).min(seq.next_seq);
                    for s in from..to {
                        if let Some((snd, mid, data)) = seq.history.get(&s).cloned() {
                            self.resend_seq(ctx, requester, snd, mid, s, &data);
                        }
                    }
                }
                SeqWork::Status { member, piggyback } => {
                    self.note_progress(&mut seq, member, piggyback);
                }
            }
            self.trim_history(&mut seq);
        }
    }

    fn note_progress(&self, seq: &mut SeqState, member: NodeId, piggyback: u64) {
        if (member as usize) < seq.delivered.len() {
            let d = &mut seq.delivered[member as usize];
            *d = (*d).max(piggyback);
        }
    }

    fn assign(&self, ctx: &Ctx, seq: &mut SeqState, sender: NodeId, msg_id: u64, payload: Bytes) {
        let s = seq.next_seq;
        seq.next_seq += 1;
        ctx.trace_instant(
            Layer::Group,
            "seq_assign",
            &[
                ("seq", s),
                ("sender", u64::from(sender)),
                ("msg_id", msg_id),
            ],
        );
        seq.seen.insert((sender, msg_id), s);
        seq.history.insert(s, (sender, msg_id, payload.clone()));
        let big = payload.len() > self.config.bb_threshold;
        let header = PandaHeader {
            module: Module::Group,
            kind: if big { KIND_ACCEPT } else { KIND_SEQ },
            src: sender,
            msg_id,
            a: s,
            b: 0,
        };
        // The sequencer orders at fragment level: no second fragmentation
        // charge here (paper, Section 4.3). This multicast loops back into
        // our own receive daemon for local delivery.
        if big {
            self.sys.send_group(ctx, header, &Bytes::new(), false);
        } else {
            self.sys.send_group(ctx, header, &payload, false);
        }
    }

    fn resend_seq(
        &self,
        ctx: &Ctx,
        to: NodeId,
        sender: NodeId,
        msg_id: u64,
        seqno: u64,
        payload: &Bytes,
    ) {
        let header = PandaHeader {
            module: Module::Group,
            kind: KIND_SEQ,
            src: sender,
            msg_id,
            a: seqno,
            b: 0,
        };
        self.sys.send(ctx, to, header, payload);
    }

    fn resync_laggards(&self, ctx: &Ctx, seq: &mut SeqState) {
        let top = seq.next_seq;
        if std::env::var("GROUP_DEBUG").is_ok() {
            eprintln!(
                "[resync t={}] next_seq={} delivered={:?}",
                ctx.now(),
                top,
                seq.delivered
            );
        }
        let laggards: Vec<(NodeId, u64)> = seq
            .delivered
            .iter()
            .enumerate()
            .filter(|(_, &d)| d + 1 < top)
            .map(|(m, &d)| (m as NodeId, d))
            .collect();
        for (m, d) in laggards {
            // Gentle repair: a bounded number of messages AND a byte budget
            // per member per round, so the backstop can never flood the wire
            // (large entries go out as small accepts when the member already
            // holds the data it sent itself).
            let to = (d + 1 + self.config.retrans_chunk).min(top);
            let mut budget: usize = 8192;
            let mut sent_any = false;
            for s in (d + 1)..to {
                if let Some((snd, mid, data)) = seq.history.get(&s).cloned() {
                    if snd == m && data.len() > self.config.bb_threshold {
                        let header = PandaHeader {
                            module: Module::Group,
                            kind: KIND_ACCEPT,
                            src: snd,
                            msg_id: mid,
                            a: s,
                            b: 0,
                        };
                        self.sys.send(ctx, m, header, &Bytes::new());
                        sent_any = true;
                        continue;
                    }
                    // The first resend is exempt from the byte budget: it is
                    // what repairs a genuinely lost large message, and the
                    // duplicate it may cause prompts the member to report its
                    // true progress (which stops the resync).
                    if sent_any && data.len() > budget {
                        break;
                    }
                    budget = budget.saturating_sub(data.len());
                    self.resend_seq(ctx, m, snd, mid, s, &data);
                    sent_any = true;
                }
            }
        }
    }

    fn trim_history(&self, seq: &mut SeqState) {
        let min_delivered = seq.delivered.iter().copied().min().unwrap_or(0);
        let keys: Vec<u64> = seq
            .history
            .range(..=min_delivered)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            let e = seq.history.remove(&k).expect("key from range");
            seq.seen.remove(&(e.0, e.1));
        }
        while seq.history.len() > self.config.history_max {
            let (&k, _) = seq.history.iter().next().expect("non-empty");
            let e = seq.history.remove(&k).expect("key exists");
            seq.seen.remove(&(e.0, e.1));
            seq.overflow_drops += 1;
        }
    }

    // -- member-side receive path ------------------------------------------

    /// System-layer upcall for group traffic (receive daemon thread).
    fn upcall(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let me = self.sys.node();
        match header.kind {
            KIND_REQ | KIND_REQ_BB | KIND_RETRANS | KIND_STATUS => {
                // Sequencer-role traffic: forward to the sequencer thread.
                let Some(chan) = &self.seq_chan else { return };
                let work = match header.kind {
                    KIND_REQ => SeqWork::Request {
                        sender: header.src,
                        msg_id: header.msg_id,
                        payload: Some(body),
                        piggyback: header.b,
                    },
                    KIND_REQ_BB => SeqWork::Request {
                        sender: header.src,
                        msg_id: header.msg_id,
                        payload: None,
                        piggyback: header.b,
                    },
                    KIND_RETRANS => SeqWork::Retrans {
                        requester: header.src,
                        from: header.a,
                        piggyback: header.b,
                    },
                    _ => SeqWork::Status {
                        member: header.src,
                        piggyback: header.b,
                    },
                };
                let _ = chan.send(ctx, work);
            }
            KIND_BB_DATA => {
                let key = (header.src, header.msg_id);
                let mut deliveries = Vec::new();
                {
                    let mut st = self.state.lock();
                    let already = st
                        .delivered_msg
                        .get(&header.src)
                        .is_some_and(|&m| m >= header.msg_id);
                    if !already {
                        st.bb_store.insert(key, body.clone());
                    }
                    let slot = st.accepts.iter().find(|(_, k)| **k == key).map(|(s, _)| *s);
                    if let Some(s) = slot {
                        st.accepts.remove(&s);
                        st.ooo.insert(s, (header.src, header.msg_id, body));
                    }
                    self.collect_deliveries(&mut st, &mut deliveries);
                }
                if let Some(chan) = &self.seq_chan {
                    let _ = chan.send(
                        ctx,
                        SeqWork::BbArrived {
                            sender: header.src,
                            msg_id: header.msg_id,
                        },
                    );
                }
                self.run_deliveries(ctx, deliveries);
                self.after_receive(ctx, me);
            }
            KIND_SEQ | KIND_ACCEPT => {
                let mut deliveries = Vec::new();
                let mut duplicate = false;
                {
                    let mut st = self.state.lock();
                    if header.a < st.next_deliver {
                        duplicate = true;
                    } else if header.kind == KIND_SEQ {
                        st.ooo.insert(header.a, (header.src, header.msg_id, body));
                        st.accepts.remove(&header.a);
                    } else {
                        let key = (header.src, header.msg_id);
                        if let Some(data) = st.bb_store.get(&key).cloned() {
                            st.ooo.insert(header.a, (key.0, key.1, data));
                        } else {
                            st.accepts.insert(header.a, key);
                        }
                    }
                    self.collect_deliveries(&mut st, &mut deliveries);
                }
                if duplicate && me != self.sequencer {
                    // Tell the sequencer how far we really are, so resync
                    // stops resending to us.
                    self.send_status(ctx);
                }
                self.run_deliveries(ctx, deliveries);
                self.after_receive(ctx, me);
            }
            _ => {}
        }
    }

    /// Pops every contiguous message (under the lock; no blocking).
    fn collect_deliveries(
        &self,
        st: &mut MemberState,
        out: &mut Vec<(GroupDelivery, Option<SimChannel<u64>>)>,
    ) {
        loop {
            let next = st.next_deliver;
            let Some((sender, msg_id, payload)) = st.ooo.remove(&next) else {
                break;
            };
            st.accepts.remove(&next);
            st.bb_store.remove(&(sender, msg_id));
            let dm = st.delivered_msg.entry(sender).or_insert(0);
            *dm = (*dm).max(msg_id);
            let wake = if sender == self.sys.node() {
                st.pending_async.remove(&msg_id);
                st.send_waiters.remove(&msg_id)
            } else {
                None
            };
            out.push((
                GroupDelivery {
                    sender,
                    seq: next,
                    payload,
                },
                wake,
            ));
            st.next_deliver += 1;
            st.since_status += 1;
        }
        self.local_delivered
            .store(st.next_deliver - 1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Upcalls the application and wakes blocked senders (outside the lock;
    /// charges CPU).
    fn run_deliveries(&self, ctx: &Ctx, deliveries: Vec<(GroupDelivery, Option<SimChannel<u64>>)>) {
        if deliveries.is_empty() {
            return;
        }
        let cost = self.sys.machine().cost().clone();
        let handler = self.handler.lock().clone();
        ctx.trace_cost(Layer::Group, "protocol_layer", cost.protocol_layer);
        ctx.compute(cost.protocol_layer);
        for (delivery, wake) in deliveries {
            let seq = delivery.seq;
            ctx.trace_instant(
                Layer::Group,
                "deliver",
                &[
                    ("seq", seq),
                    ("sender", u64::from(delivery.sender)),
                    ("bytes", delivery.payload.len() as u64),
                ],
            );
            if let Some(h) = &handler {
                h(ctx, delivery);
            }
            if let Some(w) = wake {
                // Notifying the condition variable the sending client sleeps
                // on is a system call with underflow traps on return — the
                // ~40 us the paper charges the user-space group send path.
                ctx.trace_cost(
                    Layer::Group,
                    "syscall",
                    cost.syscall(cost.shallow_call_depth),
                );
                ctx.compute(cost.syscall(cost.shallow_call_depth));
                let _ = w.send(ctx, seq);
            }
        }
    }

    /// Post-receive bookkeeping: gap repair and progress reports.
    fn after_receive(&self, ctx: &Ctx, me: NodeId) {
        let (request_from, send_status) = {
            let mut st = self.state.lock();
            let next = st.next_deliver;
            let has_ahead = st.ooo.keys().next().is_some_and(|&k| k > next)
                || st.accepts.keys().next().is_some_and(|&k| k > next);
            let request = if has_ahead && st.last_gap_request < next && me != self.sequencer {
                st.last_gap_request = next;
                Some(next)
            } else {
                None
            };
            // Report progress when the interval passes, or promptly when the
            // member is fully caught up (throttled): without this, an idle
            // stretch makes the sequencer believe members lag and its resync
            // floods the wire with history it never needed to resend.
            let caught_up = st.ooo.is_empty() && st.accepts.is_empty();
            let now = ctx.now();
            let due = st.since_status >= self.config.status_interval
                || (caught_up
                    && st.since_status > 0
                    && now.saturating_duration_since(st.last_status_at)
                        >= SimDuration::from_millis(10));
            let status = if due && me != self.sequencer {
                st.since_status = 0;
                st.last_status_at = now;
                true
            } else {
                false
            };
            (request, status)
        };
        if let Some(from) = request_from {
            let header = PandaHeader {
                module: Module::Group,
                kind: KIND_RETRANS,
                src: me,
                msg_id: 0,
                a: from,
                b: from - 1,
            };
            self.sys.send(ctx, self.sequencer, header, &Bytes::new());
        }
        if send_status {
            self.send_status(ctx);
        }
    }

    fn send_status(&self, ctx: &Ctx) {
        let piggyback = self.state.lock().next_deliver - 1;
        let header = PandaHeader {
            module: Module::Group,
            kind: KIND_STATUS,
            src: self.sys.node(),
            msg_id: 0,
            a: 0,
            b: piggyback,
        };
        self.sys.send(ctx, self.sequencer, header, &Bytes::new());
    }
}
