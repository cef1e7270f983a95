//! Panda's user-space totally ordered group communication.
//!
//! The same protocol as the Amoeba kernel version — literally: the
//! sequencer and member state machines are [`amoeba::group::core`], shared
//! with the kernel implementation — but the sequencer is an ordinary **user
//! thread**: every message it orders costs an interrupt-to-thread dispatch
//! (110 µs; 60 µs when the sequencer machine is dedicated) and two system
//! calls — the overheads of Section 4.3. In exchange the protocol is
//! flexible: it lives entirely in user space and needs no kernel changes to
//! evolve (the paper's Section 6 argument).
//!
//! This file is the user-space *placement*: the 40-byte Panda header, the
//! receive-daemon upcall that runs the member core, the sequencer thread
//! that runs the sequencer core (reaching its own member only through the
//! multicast loopback), the user-level CPU charges, and the blocking and
//! nonblocking send loops.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amoeba::group::core::{Delivery, Kind, MemberCore, Note, Out, SeqCore, To, Wire};
use amoeba::GroupConfig;
use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, Simulation};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer};
use crate::transport::{CommError, GroupDelivery, GroupHandler, NodeId};

/// A sequencer-role frame forwarded from the receive daemon to the
/// sequencer thread (`BbData` stands for "the data is in the member's
/// store now"; its body is not forwarded).
type SeqWork = (Kind, PandaHeader, Bytes);

/// A delivery popped under the lock, with the local sender to wake.
type Popped = (Delivery, Option<SimChannel<u64>>);

/// Member-side state shared by the receive daemon and sending threads.
struct MemberState {
    core: MemberCore,
    send_waiters: HashMap<u64, SimChannel<u64>>,
    /// Outstanding nonblocking sends: `msg_id -> request`, for
    /// retransmission at flush time.
    pending_async: HashMap<u64, Wire>,
}

/// The user-space group module for one member node.
pub struct UserGroup {
    sys: Arc<SysLayer>,
    config: GroupConfig,
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
    local_delivered: AtomicU64,
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
    /// (`config.gap_poll` is unused: Panda receives by upcall, so no
    /// blocked receiver polls.)
    pub fn start(
        sim: &mut Simulation,
        sys: Arc<SysLayer>,
        config: GroupConfig,
        n_members: u32,
        sequencer: NodeId,
        dedicated: bool,
    ) -> Arc<UserGroup> {
        let am_sequencer = sys.node() == sequencer;
        let seq_chan = am_sequencer.then(SimChannel::new);
        let group = Arc::new(UserGroup {
            sys: Arc::clone(&sys),
            n_members,
            sequencer,
            dedicated,
            state: Mutex::new(MemberState {
                core: MemberCore::new(sys.node(), sequencer, &config),
                send_waiters: HashMap::new(),
                pending_async: HashMap::new(),
            }),
            config,
            handler: Mutex::new(None),
            seq_chan: seq_chan.clone(),
            local_delivered: AtomicU64::new(0),
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
        self.state.lock().core.backlog()
    }

    /// Sends one core output in the Panda wire format. Only the sending
    /// member's data multicast pays Panda's fragmentation layer: the
    /// sequencer orders at fragment level (paper, Section 4.3).
    fn transmit(&self, ctx: &Ctx, w: &Wire) {
        let header = PandaHeader {
            module: Module::Group,
            kind: w.kind.to_byte(),
            src: w.sender,
            msg_id: w.msg_id,
            a: w.seq,
            b: w.piggyback,
        };
        match w.to {
            To::Group => {
                self.sys
                    .send_group(ctx, header, &w.payload, w.kind == Kind::BbData);
            }
            To::Sequencer => self.sys.send(ctx, self.sequencer, header, &w.payload),
            To::Member(m) => self.sys.send(ctx, m, header, &w.payload),
        }
    }

    // -- sending ----------------------------------------------------------

    /// Allocates a message id and its waiter, and builds the request (plus
    /// the data multicast of a BB-sized message).
    fn begin_send(&self, payload: &Bytes) -> (Wire, Option<Wire>, SimChannel<u64>) {
        let mut st = self.state.lock();
        let (req, bb) = st.core.new_request(payload);
        let waiter = SimChannel::new();
        st.send_waiters.insert(req.msg_id, waiter.clone());
        (req, bb, waiter)
    }

    /// Broadcasts with total order; blocks until the message is sequenced
    /// and delivered locally.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the sequencer never orders the message.
    pub fn send(&self, ctx: &Ctx, payload: Bytes) -> Result<(), CommError> {
        let (req, bb, waiter) = self.begin_send(&payload);
        let msg_id = req.msg_id;
        ctx.trace_emit(
            Layer::Group,
            Phase::Begin,
            "grp_send",
            &[
                ("msg_id", msg_id),
                ("bytes", payload.len() as u64),
                ("bb", u64::from(bb.is_some())),
            ],
        );
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Group, On::Thread, &[("protocol_layer", protocol)]);
        let mut result = Err(CommError::Timeout);
        for attempt in 0..=self.config.send_retries {
            if attempt > 0 {
                ctx.trace_instant(
                    Layer::Group,
                    "retransmit",
                    &[("msg_id", msg_id), ("attempt", u64::from(attempt))],
                );
            }
            if let (0, Some(bb)) = (attempt, &bb) {
                self.transmit(ctx, bb);
            }
            self.transmit(ctx, &req);
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
        let (req, bb, _waiter) = self.begin_send(&payload);
        if let Some(bb) = &bb {
            self.transmit(ctx, bb);
        }
        self.transmit(ctx, &req);
        let msg_id = req.msg_id;
        self.state.lock().pending_async.insert(msg_id, req);
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
                        let req = self.state.lock().pending_async.get(&msg_id).cloned();
                        let Some(req) = req else {
                            done = true;
                            break;
                        };
                        self.transmit(ctx, &req);
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
    /// The user placement: it owns the sequencer core outright, sees its
    /// own member only through the multicast loopback (and the member's BB
    /// store), trims history after every work item, and doubles as the
    /// resync timer.
    fn sequencer_thread(&self, ctx: &Ctx, chan: SimChannel<SeqWork>) {
        let cost = self.sys.machine().cost().clone();
        let dispatch_charge = if self.dedicated {
            cost.sequencer_thread_switch_dedicated
        } else {
            cost.sequencer_thread_switch
        };
        let mut seq = SeqCore::new(self.n_members as usize, &self.config);
        let mut outs = Vec::new();
        loop {
            // Refresh our own member's progress from the receive daemon.
            seq.status(
                self.sys.node(),
                self.local_delivered.load(Ordering::Relaxed),
            );
            let work = if seq.lagging() {
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
            let Some((kind, header, body)) = work else {
                seq.resync_round(&mut outs);
                self.replay(ctx, &mut outs);
                continue;
            };
            // Dispatch from the interrupt path to this thread: the paper's
            // 110 us (60 us when this machine is a dedicated sequencer),
            // plus the system call fetching the message from the network.
            // The dispatch is counted twice in the budget: once here as
            // `sequencer_dispatch` (attribution only) and once as the
            // `sched/switch` the `ThreadSwitch` charge emits (a known
            // deviation, DESIGN.md §8).
            ctx.charge(
                Layer::Group,
                On::Off,
                &[("sequencer_dispatch", dispatch_charge)],
            );
            ctx.charge(
                Layer::Group,
                On::ThreadSwitch(dispatch_charge),
                &[
                    ("syscall", cost.syscall(cost.deep_call_depth)),
                    ("protocol_layer", cost.protocol_layer),
                ],
            );
            let (sender, msg_id) = (header.src, header.msg_id);
            let bb_data = || self.state.lock().core.bb_data(sender, msg_id);
            match kind {
                Kind::Req | Kind::ReqBb => {
                    let payload = (kind == Kind::Req).then_some(body);
                    let assigned =
                        seq.request(sender, msg_id, payload, header.b, bb_data, &mut outs);
                    self.replay(ctx, &mut outs);
                    if assigned.is_none() {
                        continue;
                    }
                }
                Kind::BbData => {
                    seq.bb_arrived(sender, msg_id, bb_data, &mut outs);
                    self.replay(ctx, &mut outs);
                }
                Kind::RetransReq => {
                    seq.retrans_request(sender, header.a, header.b, &mut outs);
                    self.replay(ctx, &mut outs);
                }
                Kind::Status => seq.status(sender, header.b),
                Kind::Seq | Kind::Accept => {}
            }
            seq.trim_history();
        }
    }

    /// Replays a sequencer step in order: trace the notes, send the wires
    /// (each send blocks this thread in virtual time). Resync rounds are
    /// not traced on this stack — they never were, and the pinned chaos
    /// hashes cover the set of trace counters.
    fn replay(&self, ctx: &Ctx, outs: &mut Vec<Out>) {
        for out in outs.drain(..) {
            match out {
                Out::Note(Note::Resync { .. }) => {}
                Out::Note(note) => trace_note(ctx, &note),
                Out::Wire(w) => self.transmit(ctx, &w),
            }
        }
    }

    // -- member-side receive path ------------------------------------------

    /// System-layer upcall for group traffic (receive daemon thread).
    fn upcall(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let Some(kind) = Kind::from_byte(header.kind) else {
            return;
        };
        let (sender, msg_id) = (header.src, header.msg_id);
        match kind {
            Kind::Req | Kind::ReqBb | Kind::RetransReq | Kind::Status => {
                // Sequencer-role traffic: forward to the sequencer thread.
                if let Some(chan) = &self.seq_chan {
                    let _ = chan.send(ctx, (kind, header, body));
                }
            }
            Kind::BbData => {
                let deliveries = {
                    let mut st = self.state.lock();
                    st.core.on_bb_data(sender, msg_id, body);
                    self.collect_deliveries(&mut st)
                };
                if let Some(chan) = &self.seq_chan {
                    let _ = chan.send(ctx, (kind, header, Bytes::new()));
                }
                self.run_deliveries(ctx, deliveries);
                self.after_receive(ctx);
            }
            Kind::Seq | Kind::Accept => {
                let (stale, deliveries) = {
                    let mut st = self.state.lock();
                    let fresh = if kind == Kind::Seq {
                        st.core.on_seq(header.a, sender, msg_id, body)
                    } else {
                        st.core.on_accept(header.a, sender, msg_id)
                    };
                    // Tell the sequencer how far we really are, so resync
                    // stops resending to us.
                    let stale = (!fresh && self.sys.node() != self.sequencer)
                        .then(|| st.core.status_wire());
                    (stale, self.collect_deliveries(&mut st))
                };
                if let Some(status) = stale {
                    self.transmit(ctx, &status);
                }
                self.run_deliveries(ctx, deliveries);
                self.after_receive(ctx);
            }
        }
    }

    /// Pops every contiguous message (under the lock; no blocking).
    fn collect_deliveries(&self, st: &mut MemberState) -> Vec<Popped> {
        let mut out = Vec::new();
        while let Some(d) = st.core.pop_deliverable() {
            let wake = if d.sender == self.sys.node() {
                st.pending_async.remove(&d.msg_id);
                st.send_waiters.remove(&d.msg_id)
            } else {
                None
            };
            out.push((d, wake));
        }
        self.local_delivered
            .store(st.core.delivered(), Ordering::Relaxed);
        out
    }

    /// Upcalls the application and wakes blocked senders (outside the lock;
    /// charges CPU).
    fn run_deliveries(&self, ctx: &Ctx, deliveries: Vec<Popped>) {
        if deliveries.is_empty() {
            return;
        }
        let cost = self.sys.machine().cost().clone();
        let handler = self.handler.lock().clone();
        ctx.charge(
            Layer::Group,
            On::Thread,
            &[("protocol_layer", cost.protocol_layer)],
        );
        for (d, wake) in deliveries {
            let seq = d.seq;
            trace_note(ctx, &d.note());
            if let Some(h) = &handler {
                h(
                    ctx,
                    GroupDelivery {
                        sender: d.sender,
                        seq,
                        payload: d.payload,
                    },
                );
            }
            if let Some(w) = wake {
                // Notifying the condition variable the sending client sleeps
                // on is a system call with underflow traps on return — the
                // ~40 us the paper charges the user-space group send path.
                ctx.charge(
                    Layer::Group,
                    On::Thread,
                    &[("syscall", cost.syscall(cost.shallow_call_depth))],
                );
                let _ = w.send(ctx, seq);
            }
        }
    }

    /// Post-receive bookkeeping: gap repair, then the progress report —
    /// prompt once caught up, on this stack always (resync is always on).
    fn after_receive(&self, ctx: &Ctx) {
        let (gap, status) = {
            let mut st = self.state.lock();
            (st.core.gap_request(), st.core.status_due(ctx.now(), true))
        };
        for w in gap.iter().chain(&status) {
            self.transmit(ctx, w);
        }
    }
}

fn trace_note(ctx: &Ctx, note: &Note) {
    note.render(|name, args| ctx.trace_instant(Layer::Group, name, args));
}
