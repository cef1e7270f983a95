//! Panda's user-space RPC: a 2-way stop-and-wait protocol.
//!
//! The client sends a request; the server's reply doubles as the implicit
//! acknowledgement of the request; the client acknowledges the reply by
//! piggybacking on its next request over the same connection, falling back
//! to an explicit acknowledgement after a short delay. This saves the
//! explicit per-call acknowledgement of Amoeba's 3-way protocol
//! (Section 2 of the paper).
//!
//! Unlike the kernel protocol, `pan_rpc_reply` is asynchronous: any thread
//! may answer a held request, transmitting directly — no signalling of the
//! original server thread, no extra context switch. This is the flexibility
//! the Orca runtime's continuations exploit.
//!
//! The at-most-once table ([`amoeba::rpc::core`]) and the client's
//! reply-wait loop ([`amoeba::rpc::Waiting`]) are the kernel's; this module
//! is their user-space placement. Calls on a connection are serialized, so
//! every request acknowledges all earlier ones ([`Table::ack_through`]),
//! which makes the piggybacked ack in the header redundant for the server.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use amoeba::rpc::core::{Action, Kind, Table};
use amoeba::rpc::Waiting;
use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, SimChannel, SimMutex, Simulation};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer};
use crate::transport::{CommError, NodeId, PandaConfig, ReplyTicket, RpcHandler, TicketInner};

/// Client side of one connection (this node -> one server), behind the
/// `SimMutex` that serializes calls (stop-and-wait): sequencing and the
/// pending reply-acknowledgement.
struct OutConn {
    next_seq: u64,
    pending_ack: Option<u64>,
}

/// The user-space Panda RPC module for one node.
pub(crate) struct UserRpc {
    sys: Arc<SysLayer>,
    config: PandaConfig,
    out: Mutex<HashMap<NodeId, Arc<SimMutex<OutConn>>>>,
    /// Server side: the at-most-once table, keyed by client node.
    table: Mutex<Table<NodeId>>,
    /// Client side: calls in flight, keyed by `(server, seq)`.
    waiting: Waiting<NodeId>,
    handler: Mutex<Option<RpcHandler>>,
    /// Deferred explicit acknowledgements, drained by the ack daemon.
    ack_queue: SimChannel<(NodeId, u64)>,
}

impl fmt::Debug for UserRpc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserRpc")
            .field("node", &self.sys.node())
            .finish()
    }
}

impl UserRpc {
    /// Creates the RPC module, registers its system-layer upcall, and starts
    /// the explicit-acknowledgement daemon.
    pub(crate) fn start(
        sim: &mut Simulation,
        sys: Arc<SysLayer>,
        config: PandaConfig,
    ) -> Arc<UserRpc> {
        let rpc = Arc::new(UserRpc {
            sys: Arc::clone(&sys),
            config,
            out: Mutex::new(HashMap::new()),
            table: Mutex::default(),
            waiting: Waiting::default(),
            handler: Mutex::new(None),
            ack_queue: SimChannel::new(),
        });
        let upcall_rpc = Arc::clone(&rpc);
        sys.set_rpc_upcall(Arc::new(move |ctx, header, body| {
            upcall_rpc.upcall(ctx, header, body);
        }));
        let ack_rpc = Arc::clone(&rpc);
        let proc = sys.machine().proc();
        sim.spawn_daemon_on_lane(
            sys.machine().lane(),
            proc,
            &format!("{}-ackd", sys.machine().name()),
            move |ctx| {
                ack_rpc.ack_daemon(ctx);
            },
        );
        // The handler installed from above captures objects that hold this
        // node's Panda instance (and through it this module).
        let handler_of = Arc::clone(&rpc);
        sim.on_teardown(move || *handler_of.handler.lock() = None);
        rpc
    }

    pub(crate) fn set_handler(&self, handler: RpcHandler) {
        *self.handler.lock() = Some(handler);
    }

    fn conn_to(&self, dst: NodeId) -> Arc<SimMutex<OutConn>> {
        Arc::clone(self.out.lock().entry(dst).or_insert_with(|| {
            Arc::new(SimMutex::new(OutConn {
                next_seq: 1,
                pending_ack: None,
            }))
        }))
    }

    /// The header of a server-to-client frame answering request `seq`.
    fn answer(&self, kind: Kind, seq: u64) -> PandaHeader {
        PandaHeader {
            module: Module::Rpc,
            kind: kind.to_byte(),
            src: self.sys.node(),
            msg_id: seq,
            a: seq,
            b: 0,
        }
    }

    /// Client call: stop-and-wait with retransmission.
    pub(crate) fn call(&self, ctx: &Ctx, dst: NodeId, request: Bytes) -> Result<Bytes, CommError> {
        let me = self.sys.node();
        assert_ne!(dst, me, "local invocations never go through RPC");
        let conn = self.conn_to(dst);
        let mut st = conn.lock(ctx);
        let seq = st.next_seq;
        st.next_seq += 1;
        let ack = st.pending_ack.take();
        let call = self.waiting.open(dst, seq);
        let header = PandaHeader {
            module: Module::Rpc,
            kind: Kind::Request.to_byte(),
            src: me,
            msg_id: seq,
            a: seq,
            b: ack.unwrap_or(0),
        };
        ctx.trace_emit(
            Layer::Rpc,
            Phase::Begin,
            "call",
            &[("seq", seq), ("bytes", request.len() as u64)],
        );
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Rpc, On::Thread, &[("protocol_layer", protocol)]);
        let (timeout, retries) = (self.config.rpc_timeout, self.config.rpc_retries);
        let reply = self.waiting.wait(call, ctx, timeout, retries, &[], || {
            self.sys.send(ctx, dst, header, &request)
        });
        if reply.is_some() {
            // The reply acknowledges implicitly on the next request; if none
            // comes soon, the ack daemon sends an explicit one.
            st.pending_ack = Some(seq);
            let _ = self.ack_queue.send(ctx, (dst, seq));
        }
        drop(st);
        ctx.trace_emit(
            Layer::Rpc,
            Phase::End,
            "call",
            &[("seq", seq), ("ok", u64::from(reply.is_some()))],
        );
        reply.ok_or(CommError::Timeout)
    }

    /// Answers a held request; callable from any thread (the user-space
    /// advantage: the reply is transmitted directly, no thread signalling).
    pub(crate) fn reply_to(&self, ctx: &Ctx, client: NodeId, seq: u64, reply: Bytes) {
        ctx.trace_instant(
            Layer::Rpc,
            "reply_tx",
            &[("seq", seq), ("bytes", reply.len() as u64)],
        );
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Rpc, On::Thread, &[("protocol_layer", protocol)]);
        self.table.lock().reply(client, seq, reply.clone());
        self.sys
            .send(ctx, client, self.answer(Kind::Reply, seq), &reply);
    }

    /// System-layer upcall for RPC traffic (runs on the receive daemon).
    fn upcall(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Rpc, On::Thread, &[("protocol_layer", protocol)]);
        match Kind::from_byte(header.kind) {
            Some(Kind::Request) => self.handle_request(ctx, header, body),
            Some(Kind::Reply) => {
                ctx.trace_instant(
                    Layer::Rpc,
                    "reply_rx",
                    &[("seq", header.a), ("bytes", body.len() as u64)],
                );
                if let Some(call) = self.waiting.find(header.src, header.a) {
                    // Hand the reply to the blocked client thread. Two
                    // context switches are on this path (daemon in, client
                    // out) — the 140 us the paper measures.
                    call.reply(ctx, body);
                }
            }
            Some(Kind::Working) => {
                if let Some(call) = self.waiting.find(header.src, header.a) {
                    call.working(ctx);
                }
            }
            Some(Kind::Ack) => self.table.lock().ack_through(header.src, header.b),
            None => {}
        }
    }

    fn handle_request(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let client = header.src;
        let seq = header.a;
        ctx.trace_instant(Layer::Rpc, "request_rx", &[("seq", seq)]);
        let action = {
            let mut table = self.table.lock();
            // Stop-and-wait: a request implies the client is done with
            // every earlier call on this connection.
            table.ack_through(client, seq.saturating_sub(1));
            table.request(client, seq)
        };
        let (kind, note, body) = match action {
            Action::Deliver => {
                let handler = self
                    .handler
                    .lock()
                    .clone()
                    .expect("rpc handler installed before traffic");
                let ticket = ReplyTicket(TicketInner::User { client, seq });
                handler(ctx, client, body, ticket);
                return;
            }
            Action::Ignore => return,
            // Lost reply: retransmit it.
            Action::Resend(reply) => (Kind::Reply, "reply_resend", reply),
            // Tell the retransmitting client its request is held by a
            // blocked guard and the server is alive.
            Action::Working => (Kind::Working, "working_tx", Bytes::new()),
        };
        ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", seq)]);
        ctx.trace_instant(Layer::Rpc, note, &[("seq", seq)]);
        self.sys.send(ctx, client, self.answer(kind, seq), &body);
    }

    /// Sends explicit acknowledgements for replies that no later request
    /// piggybacked in time.
    fn ack_daemon(&self, ctx: &Ctx) {
        while let Some((dst, seq)) = self.ack_queue.recv(ctx) {
            ctx.sleep(self.config.ack_delay);
            let conn = self.conn_to(dst);
            let mut st = conn.lock(ctx);
            if st.pending_ack == Some(seq) {
                st.pending_ack = None;
                drop(st);
                ctx.trace_instant(Layer::Rpc, "ack_tx", &[("seq", seq)]);
                let header = PandaHeader {
                    module: Module::Rpc,
                    kind: Kind::Ack.to_byte(),
                    src: self.sys.node(),
                    msg_id: seq,
                    a: 0,
                    b: seq,
                };
                self.sys.send(ctx, dst, header, &Bytes::new());
            }
        }
    }
}
