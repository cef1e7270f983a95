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

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimMutex, Simulation};
use parking_lot::Mutex;

use crate::system::{Module, PandaHeader, SysLayer};
use crate::transport::{CommError, NodeId, PandaConfig, ReplyTicket, RpcHandler, TicketInner};

const KIND_REQUEST: u8 = 0;
const KIND_REPLY: u8 = 1;
const KIND_ACK: u8 = 2;
/// Server-alive probe answer: the request is held (blocked guard).
const KIND_WORKING: u8 = 3;

/// Client side of one connection (this node -> one server). Stop-and-wait:
/// the `SimMutex` serializes calls, the state inside tracks sequencing and
/// the pending reply-acknowledgement.
struct OutState {
    next_seq: u64,
    pending_ack: Option<u64>,
}

struct OutConn {
    state: SimMutex<OutState>,
}

/// Events carry the `(server, seq)` pair they answer (sequence numbers are
/// only per-connection): reply slots are pooled and reused across calls, and
/// a late duplicate from a slot's previous life must be recognizable so the
/// new owner can discard it.
enum ClientEvent {
    Reply(NodeId, u64, Bytes),
    Working(NodeId, u64),
}

/// Reply slots kept for reuse per node. Stop-and-wait serializes calls per
/// connection, so a short free list captures all reuse.
const SLOT_POOL_MAX: usize = 4;

struct InConn {
    last_done: u64,
    in_progress: Option<u64>,
    cached: Option<(u64, Bytes)>,
}

/// The user-space Panda RPC module for one node.
pub(crate) struct UserRpc {
    sys: Arc<SysLayer>,
    config: PandaConfig,
    out: Mutex<HashMap<NodeId, Arc<OutConn>>>,
    incoming: Mutex<HashMap<NodeId, InConn>>,
    /// Reply routing: `(server, seq) -> slot` for calls in flight.
    replies: Mutex<HashMap<(NodeId, u64), SimChannel<ClientEvent>>>,
    /// Free list of reply slots (see [`ClientEvent`]).
    slot_pool: Mutex<Vec<SimChannel<ClientEvent>>>,
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
            incoming: Mutex::new(HashMap::new()),
            replies: Mutex::new(HashMap::new()),
            slot_pool: Mutex::new(Vec::new()),
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

    fn conn_to(&self, dst: NodeId) -> Arc<OutConn> {
        Arc::clone(self.out.lock().entry(dst).or_insert_with(|| {
            Arc::new(OutConn {
                state: SimMutex::new(OutState {
                    next_seq: 1,
                    pending_ack: None,
                }),
            })
        }))
    }

    /// Client call: stop-and-wait with retransmission.
    pub(crate) fn call(&self, ctx: &Ctx, dst: NodeId, request: Bytes) -> Result<Bytes, CommError> {
        let me = self.sys.node();
        assert_ne!(dst, me, "local invocations never go through RPC");
        let conn = self.conn_to(dst);
        let mut st = conn.state.lock(ctx);
        let seq = st.next_seq;
        st.next_seq += 1;
        let ack = st.pending_ack.take();
        let slot = self.slot_pool.lock().pop().unwrap_or_default();
        self.replies.lock().insert((dst, seq), slot.clone());
        let header = PandaHeader {
            module: Module::Rpc,
            kind: KIND_REQUEST,
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
        let mut result = Err(CommError::Timeout);
        let mut attempt = 0u32;
        let mut sent = false;
        while attempt <= self.config.rpc_retries {
            if !sent {
                if attempt > 0 {
                    ctx.trace_instant(
                        Layer::Rpc,
                        "retransmit",
                        &[("seq", seq), ("attempt", u64::from(attempt))],
                    );
                }
                ctx.trace_instant(Layer::Rpc, "request_tx", &[("seq", seq)]);
                self.sys.send(ctx, dst, header, &request);
                sent = true;
            }
            let backoff = self.config.rpc_timeout * (1u64 << attempt.min(4));
            match slot.recv_timeout(ctx, backoff) {
                // Events from a pooled slot's previous life carry a stale
                // (server, seq) pair; discard them and keep waiting.
                Ok(ClientEvent::Reply(d, s, _)) | Ok(ClientEvent::Working(d, s))
                    if (d, s) != (dst, seq) =>
                {
                    continue;
                }
                Ok(ClientEvent::Reply(_, _, reply)) => {
                    result = Ok(reply);
                    break;
                }
                Ok(ClientEvent::Working(_, _)) => {
                    // Server alive, request held (blocked guard): wait on.
                    attempt = 0;
                    continue;
                }
                Err(RecvTimeoutError::Timeout) => {
                    attempt += 1;
                    sent = false;
                    continue;
                }
                Err(RecvTimeoutError::Closed) => break,
            }
        }
        self.replies.lock().remove(&(dst, seq));
        {
            let mut pool = self.slot_pool.lock();
            if pool.len() < SLOT_POOL_MAX {
                pool.push(slot);
            }
        }
        if result.is_ok() {
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
            &[("seq", seq), ("ok", u64::from(result.is_ok()))],
        );
        result
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
        {
            let mut inc = self.incoming.lock();
            let conn = inc.entry(client).or_insert_with(new_in_conn);
            conn.cached = Some((seq, reply.clone()));
            conn.in_progress = None;
            conn.last_done = conn.last_done.max(seq);
        }
        let header = PandaHeader {
            module: Module::Rpc,
            kind: KIND_REPLY,
            src: self.sys.node(),
            msg_id: seq,
            a: seq,
            b: 0,
        };
        self.sys.send(ctx, client, header, &reply);
    }

    /// System-layer upcall for RPC traffic (runs on the receive daemon).
    fn upcall(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let protocol = self.sys.machine().cost().protocol_layer;
        ctx.charge(Layer::Rpc, On::Thread, &[("protocol_layer", protocol)]);
        match header.kind {
            KIND_REQUEST => self.handle_request(ctx, header, body),
            KIND_REPLY => {
                ctx.trace_instant(
                    Layer::Rpc,
                    "reply_rx",
                    &[("seq", header.a), ("bytes", body.len() as u64)],
                );
                let slot = self.replies.lock().get(&(header.src, header.a)).cloned();
                if let Some(slot) = slot {
                    // Hand the reply to the blocked client thread. Two
                    // context switches are on this path (daemon in, client
                    // out) — the 140 us the paper measures.
                    let _ = slot.send(ctx, ClientEvent::Reply(header.src, header.a, body));
                }
            }
            KIND_WORKING => {
                let slot = self.replies.lock().get(&(header.src, header.a)).cloned();
                if let Some(slot) = slot {
                    let _ = slot.send(ctx, ClientEvent::Working(header.src, header.a));
                }
            }
            KIND_ACK => {
                let mut inc = self.incoming.lock();
                if let Some(conn) = inc.get_mut(&header.src) {
                    if conn.cached.as_ref().is_some_and(|(s, _)| *s <= header.b) {
                        conn.cached = None;
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_request(&self, ctx: &Ctx, header: PandaHeader, body: Bytes) {
        let client = header.src;
        let seq = header.a;
        ctx.trace_instant(Layer::Rpc, "request_rx", &[("seq", seq)]);
        enum Action {
            Deliver,
            Resend(Bytes),
            Working,
            Ignore,
        }
        let action = {
            let mut inc = self.incoming.lock();
            let conn = inc.entry(client).or_insert_with(new_in_conn);
            // Piggybacked acknowledgement of the previous reply.
            if header.b > 0 && conn.cached.as_ref().is_some_and(|(s, _)| *s <= header.b) {
                conn.cached = None;
            }
            if let Some((s, r)) = &conn.cached {
                if *s == seq {
                    Action::Resend(r.clone()) // lost reply, retransmit it
                } else if seq <= conn.last_done {
                    Action::Ignore
                } else {
                    conn.in_progress = Some(seq);
                    Action::Deliver
                }
            } else if conn.in_progress == Some(seq) {
                Action::Working
            } else if seq <= conn.last_done {
                Action::Ignore
            } else {
                conn.in_progress = Some(seq);
                Action::Deliver
            }
        };
        match action {
            Action::Deliver => {
                let handler = self
                    .handler
                    .lock()
                    .clone()
                    .expect("rpc handler installed before traffic");
                let ticket = ReplyTicket(TicketInner::User { client, seq });
                handler(ctx, client, body, ticket);
            }
            Action::Resend(reply) => {
                ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", seq)]);
                ctx.trace_instant(Layer::Rpc, "reply_resend", &[("seq", seq)]);
                let header = PandaHeader {
                    module: Module::Rpc,
                    kind: KIND_REPLY,
                    src: self.sys.node(),
                    msg_id: seq,
                    a: seq,
                    b: 0,
                };
                self.sys.send(ctx, client, header, &reply);
            }
            Action::Working => {
                // Tell the retransmitting client its request is held by a
                // blocked guard and the server is alive.
                ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", seq)]);
                ctx.trace_instant(Layer::Rpc, "working_tx", &[("seq", seq)]);
                let header = PandaHeader {
                    module: Module::Rpc,
                    kind: KIND_WORKING,
                    src: self.sys.node(),
                    msg_id: seq,
                    a: seq,
                    b: 0,
                };
                self.sys.send(ctx, client, header, &Bytes::new());
            }
            Action::Ignore => {}
        }
    }

    /// Sends explicit acknowledgements for replies that no later request
    /// piggybacked in time.
    fn ack_daemon(&self, ctx: &Ctx) {
        while let Some((dst, seq)) = self.ack_queue.recv(ctx) {
            ctx.sleep(self.config.ack_delay);
            let conn = self.conn_to(dst);
            let mut st = conn.state.lock(ctx);
            if st.pending_ack == Some(seq) {
                st.pending_ack = None;
                drop(st);
                ctx.trace_instant(Layer::Rpc, "ack_tx", &[("seq", seq)]);
                let header = PandaHeader {
                    module: Module::Rpc,
                    kind: KIND_ACK,
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

fn new_in_conn() -> InConn {
    InConn {
        last_done: 0,
        in_progress: None,
        cached: None,
    }
}
