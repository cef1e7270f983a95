//! Panda's user-space RPC: a 2-way stop-and-wait protocol.
//!
//! The client sends a request; the server's reply doubles as the implicit
//! acknowledgement of the request; the client's next request over the same
//! connection acknowledges the reply. There is no explicit acknowledgement
//! frame, so a call costs two messages, not the three of Amoeba's 3-way
//! protocol (Section 2 of the paper). Until the next request arrives, the
//! server holds that client's last reply for a retransmission; stop-and-wait
//! bounds this to one held reply per client.
//!
//! Unlike the kernel protocol, `pan_rpc_reply` is asynchronous: any thread
//! may answer a held request, transmitting directly — no signalling of the
//! original server thread, no extra context switch. This is the flexibility
//! the Orca runtime's continuations exploit.
//!
//! The at-most-once table ([`amoeba::rpc::core`]) and the client's
//! reply-wait loop ([`amoeba::rpc::Waiting`]) are the kernel's; this module
//! is their user-space placement. Calls on a connection are serialized, so
//! every request acknowledges all earlier ones ([`Table::ack_through`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use amoeba::rpc::core::{Action, Kind, Table};
use amoeba::rpc::Waiting;
use amoeba::RpcConfig;
use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, SimMutex, Simulation};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer};
use crate::transport::{CommError, NodeId, ReplyTicket, RpcHandler, TicketInner};

/// The user-space Panda RPC module for one node.
pub(crate) struct UserRpc {
    sys: Arc<SysLayer>,
    config: RpcConfig,
    /// Client side: the next seq of each connection (this node -> one
    /// server), behind the `SimMutex` that serializes its calls
    /// (stop-and-wait).
    out: Mutex<HashMap<NodeId, Arc<SimMutex<u64>>>>,
    /// Server side: the at-most-once table, keyed by client node.
    table: Mutex<Table<NodeId>>,
    /// Client side: calls in flight, keyed by `(server, seq)`.
    waiting: Waiting<NodeId>,
    handler: Mutex<Option<RpcHandler>>,
}

impl fmt::Debug for UserRpc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserRpc")
            .field("node", &self.sys.node())
            .finish()
    }
}

impl UserRpc {
    /// Creates the RPC module and registers its system-layer upcall.
    pub(crate) fn start(
        sim: &mut Simulation,
        sys: Arc<SysLayer>,
        config: RpcConfig,
    ) -> Arc<UserRpc> {
        let rpc = Arc::new(UserRpc {
            sys: Arc::clone(&sys),
            config,
            out: Mutex::new(HashMap::new()),
            table: Mutex::default(),
            waiting: Waiting::default(),
            handler: Mutex::new(None),
        });
        let upcall_rpc = Arc::clone(&rpc);
        sys.set_rpc_upcall(Arc::new(move |ctx, header, body| {
            upcall_rpc.upcall(ctx, header, body);
        }));
        // The handler installed from above captures objects that hold this
        // node's Panda instance (and through it this module).
        let handler_of = Arc::clone(&rpc);
        sim.on_teardown(move || *handler_of.handler.lock() = None);
        rpc
    }

    pub(crate) fn set_handler(&self, handler: RpcHandler) {
        *self.handler.lock() = Some(handler);
    }

    fn conn_to(&self, dst: NodeId) -> Arc<SimMutex<u64>> {
        Arc::clone(
            self.out
                .lock()
                .entry(dst)
                .or_insert_with(|| Arc::new(SimMutex::new(1))),
        )
    }

    /// The header of this node's `kind` frame about call `seq`.
    fn header(&self, kind: Kind, seq: u64) -> PandaHeader {
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
        let mut next_seq = conn.lock(ctx);
        let seq = *next_seq;
        *next_seq += 1;
        let call = self.waiting.open(dst, seq);
        let header = self.header(Kind::Request, seq);
        ctx.trace_emit(
            Layer::Rpc,
            Phase::Begin,
            "call",
            &[("seq", seq), ("bytes", request.len() as u64)],
        );
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Rpc, On::Thread, &[("protocol_layer", protocol)]);
        let (timeout, retries) = (self.config.timeout, self.config.retries);
        let reply = self.waiting.wait(call, ctx, timeout, retries, &[], || {
            self.sys.send(ctx, dst, header, &request)
        });
        drop(next_seq);
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
            .send(ctx, client, self.header(Kind::Reply, seq), &reply);
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
            // Nothing sends a user-space Ack: the next request acknowledges.
            Some(Kind::Ack) | None => {}
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
        self.sys.send(ctx, client, self.header(kind, seq), &body);
    }
}
