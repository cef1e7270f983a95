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
//! receive-daemon upcall that runs the member core (the daemon also waits
//! for its deadline), the sequencer thread that runs the sequencer core and
//! waits for its deadline (reaching its own member only through the
//! multicast loopback), the user-level CPU charges, and the nonblocking send.
//! The send loop is the kernel's ([`amoeba::group::Sending`]).

use std::fmt;
use std::sync::Arc;

use amoeba::group::core::{Delivery, Kind, MemberCore, Out, SeqCore, To, Wire};
use amoeba::group::{trace_note, trace_retrans_req, Sending};
use amoeba::GroupConfig;
use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimTime, Simulation};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer, PANDA_GROUP_HEADER_BYTES};
use crate::transport::{CommError, GroupDelivery, GroupHandler, NodeId};

/// Messages larger than this go by the BB method: whatever fits one FLIP
/// fragment after Panda's header goes PB.
const BB_THRESHOLD: usize = flip::FLIP_FRAGMENT_BYTES - PANDA_GROUP_HEADER_BYTES;

/// A sequencer-role frame forwarded from the receive daemon to the
/// sequencer thread (`BbData` stands for "the data is in the member's
/// store now"; its body is not forwarded).
type SeqWork = (Kind, PandaHeader, Bytes);

/// The user-space group module for one member node.
pub struct UserGroup {
    sys: Arc<SysLayer>,
    config: GroupConfig,
    /// Member id == node id; the member list covers all app nodes plus a
    /// dedicated sequencer node if configured.
    n_members: u32,
    sequencer: NodeId,
    dedicated: bool,
    /// The member core, shared by the receive daemon and sending threads.
    member: Mutex<MemberCore>,
    sending: Sending,
    handler: Mutex<Option<GroupHandler>>,
    /// Present only on the sequencer node: feed to the sequencer thread.
    seq_chan: Option<SimChannel<SeqWork>>,
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
    /// Creates the group module on `sys` and installs it there. If this node
    /// is the sequencer, the sequencer thread is spawned here.
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
            member: Mutex::new(MemberCore::new(
                sys.node(),
                sequencer,
                BB_THRESHOLD,
                &config,
            )),
            sending: Sending::default(),
            config,
            handler: Mutex::new(None),
            seq_chan: seq_chan.clone(),
        });
        sys.set_group(Arc::clone(&group));
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

    /// Sends one core output in the Panda wire format. Only the sending
    /// member's data multicast pays Panda's fragmentation layer: the
    /// sequencer orders at fragment level (paper, Section 4.3).
    fn transmit(&self, ctx: &Ctx, w: &Wire) {
        trace_retrans_req(ctx, w);
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

    /// Broadcasts with total order; blocks until the message is sequenced
    /// and delivered locally.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the sequencer never orders the message.
    pub fn send(&self, ctx: &Ctx, payload: Bytes) -> Result<(), CommError> {
        let (req, bb) = self.member.lock().new_request(&payload);
        let msg_id = req.msg_id;
        let wake = self.sending.open(msg_id, None);
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
        let sent = self
            .sending
            .wait(ctx, msg_id, &wake, &self.config, &[], |attempt| {
                if let (0, Some(bb)) = (attempt, &bb) {
                    self.transmit(ctx, bb);
                }
                self.transmit(ctx, &req);
            });
        ctx.trace_emit(
            Layer::Group,
            Phase::End,
            "grp_send",
            &[("msg_id", msg_id), ("ok", u64::from(sent.is_some()))],
        );
        sent.map(drop).ok_or(CommError::Timeout)
    }

    /// Broadcasts without waiting for the sequencer — the paper's Section 6
    /// extension, possible **only** in the user-space implementation (the
    /// Amoeba kernel protocol would need kernel modifications). Total order
    /// is still guaranteed by the sequencer; call [`UserGroup::flush`] at a
    /// point where delivery must have happened. Returns the message id.
    pub fn send_nonblocking(&self, ctx: &Ctx, payload: Bytes) -> u64 {
        let (req, bb) = self.member.lock().new_request(&payload);
        self.sending.open(req.msg_id, Some(req.clone()));
        if let Some(bb) = &bb {
            self.transmit(ctx, bb);
        }
        self.transmit(ctx, &req);
        req.msg_id
    }

    /// Blocks until every outstanding nonblocking send has been sequenced
    /// and delivered locally, retransmitting as needed.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the sequencer stops answering.
    pub fn flush(&self, ctx: &Ctx) -> Result<(), CommError> {
        while let Some((req, wake)) = self.sending.oldest_detached() {
            let sent = self
                .sending
                .wait(ctx, req.msg_id, &wake, &self.config, &[], |attempt| {
                    // The first transmission was the nonblocking send's.
                    if attempt > 0 {
                        self.transmit(ctx, &req);
                    }
                });
            if sent.is_none() {
                return Err(CommError::Timeout);
            }
        }
        Ok(())
    }

    // -- the sequencer thread ---------------------------------------------

    /// The sequencer: an ordinary user thread fed by the receive daemon.
    /// The user placement: it owns the sequencer core outright, sees its
    /// own member only through the multicast loopback (and the member's BB
    /// store), and waits for the core's resync deadline.
    fn sequencer_thread(&self, ctx: &Ctx, chan: SimChannel<SeqWork>) {
        let cost = self.sys.machine().cost().clone();
        let dispatch_charge = if self.dedicated {
            cost.sequencer_thread_switch_dedicated
        } else {
            cost.sequencer_thread_switch
        };
        let mut seq = SeqCore::new(self.n_members as usize, BB_THRESHOLD, &self.config);
        let mut outs = Vec::new();
        loop {
            // Work first: a round is due only once no work item waits.
            let work = chan.recv_until(ctx, seq.next_deadline());
            // Our own member's progress, as the receive daemon left it.
            seq.status(self.sys.node(), self.member.lock().delivered());
            let (kind, header, body) = match work {
                Ok(w) => w,
                Err(RecvTimeoutError::Timeout) => {
                    seq.on_deadline(ctx.now(), &mut outs);
                    self.replay(ctx, &mut outs);
                    continue;
                }
                Err(RecvTimeoutError::Closed) => return,
            };
            // Dispatch from the interrupt path to this thread: the paper's
            // 110 us (60 us when this machine is a dedicated sequencer), paid
            // as the switch, plus the system call fetching the message from
            // the network.
            ctx.charge(
                Layer::Group,
                On::ThreadSwitch(dispatch_charge),
                &[
                    ("syscall", cost.syscall(cost.deep_call_depth)),
                    ("protocol_layer", cost.protocol_layer),
                ],
            );
            let (sender, msg_id) = (header.src, header.msg_id);
            let bb_data = || self.member.lock().bb_data(sender, msg_id);
            // No own copy to place: the member gets the multicast.
            let now = ctx.now();
            seq.on_frame(
                kind, sender, msg_id, header.a, header.b, body, bb_data, now, &mut outs,
            );
            self.replay(ctx, &mut outs);
        }
    }

    /// Replays a sequencer step in order: trace the notes, send the wires
    /// (each send blocks this thread in virtual time).
    fn replay(&self, ctx: &Ctx, outs: &mut Vec<Out>) {
        for out in outs.drain(..) {
            match out {
                Out::Note(note) => trace_note(ctx, &note),
                Out::Wire(w) => self.transmit(ctx, &w),
            }
        }
    }

    // -- member-side receive path ------------------------------------------

    /// The member's deadline (the receive daemon waits for it).
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.member.lock().next_deadline()
    }

    /// Sends the member's own frame if its deadline has passed.
    pub(crate) fn on_deadline(&self, ctx: &Ctx) {
        let due = self.member.lock().on_deadline(ctx.now());
        if let Some(w) = due {
            self.transmit(ctx, &w);
        }
    }

    /// System-layer upcall for group traffic (receive daemon thread).
    pub(crate) fn upcall(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let Some(kind) = Kind::from_byte(header.kind) else {
            return;
        };
        if matches!(
            kind,
            Kind::Req | Kind::ReqBb | Kind::RetransReq | Kind::Status
        ) {
            // Sequencer-role traffic: forward to the sequencer thread.
            if let Some(chan) = &self.seq_chan {
                let _ = chan.send(ctx, (kind, header, body));
            }
            return;
        }
        let (stale, deliveries) = {
            let mut member = self.member.lock();
            let stale = member.on_frame(kind, header.a, header.src, header.msg_id, body, ctx.now());
            let deliveries: Vec<Delivery> =
                std::iter::from_fn(|| member.pop_deliverable()).collect();
            (stale, deliveries)
        };
        if kind == Kind::BbData {
            // The sequencer may hold a request for this data, now in the
            // member's store.
            if let Some(chan) = &self.seq_chan {
                let _ = chan.send(ctx, (kind, header, Bytes::new()));
            }
        }
        self.run_deliveries(ctx, deliveries);
        let own = self.member.lock().after_receive(ctx.now());
        for w in stale.into_iter().chain(own) {
            self.transmit(ctx, &w);
        }
    }

    /// Upcalls the application and wakes blocked senders (outside the lock;
    /// charges CPU).
    fn run_deliveries(&self, ctx: &Ctx, deliveries: Vec<Delivery>) {
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
        for d in deliveries {
            let (seq, msg_id, own) = (d.seq, d.msg_id, d.sender == self.sys.node());
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
            if own {
                // Notifying the condition variable the sending client sleeps
                // on is a system call with underflow traps on return — the
                // ~40 us the paper charges the user-space group send path.
                let notify = [("syscall", cost.syscall(cost.shallow_call_depth))];
                self.sending.wake(ctx, msg_id, seq, &notify);
            }
        }
    }
}
