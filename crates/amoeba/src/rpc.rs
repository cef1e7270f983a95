//! Amoeba's kernel-space RPC: the 3-way protocol with `get_request` /
//! `put_reply` server semantics.
//!
//! The protocol: the client kernel sends the request; the server kernel
//! queues it for a thread blocked in `get_request`; that same thread must
//! issue `put_reply` (the restriction the paper's Section 3.1 works around
//! for asynchronous Orca replies); the reply implicitly acknowledges the
//! request and the client kernel sends an explicit acknowledgement for the
//! reply. Requests are retransmitted on timeout; the server suppresses
//! duplicates and retransmits cached replies, giving at-most-once execution.
//!
//! The at-most-once table ([`core`]) and the client loop ([`Waiting`]) are
//! shared with Panda's user-space RPC; this module is their kernel placement.

pub mod core;

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimDuration, ThreadId};
use ethernet::MacAddr;
use flip::{FlipAddr, FlipMessage};
use parking_lot::Mutex;

use self::core::{Action, Kind, Table};
use crate::cost::AMOEBA_RPC_HEADER_BYTES;
use crate::machine::{fragments_of, FlipDest, Machine, Sink};

/// A service port (Amoeba capabilities reduced to their routing essence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u64);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port:{:x}", self.0)
    }
}

/// FLIP address a service port listens on.
pub fn port_addr(port: Port) -> FlipAddr {
    FlipAddr(0x2000_0000_0000_0000 | port.0)
}

/// FLIP address of a machine's kernel RPC client endpoint.
pub fn client_addr(mac: MacAddr) -> FlipAddr {
    FlipAddr(0x4000_0000_0000_0000 | u64::from(mac.0))
}

/// Client-side RPC tuning.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// How long to wait for a reply before retransmitting the request.
    pub timeout: SimDuration,
    /// Number of (re)transmissions before giving up.
    pub retries: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            timeout: SimDuration::from_millis(200),
            retries: 5,
        }
    }
}

/// Errors reported by [`RpcClient::trans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply after all retransmissions; the server is unreachable or down.
    Timeout,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "no reply from the server after all retries"),
        }
    }
}

impl std::error::Error for RpcError {}

struct Header {
    kind: Kind,
    seq: u64,
    client: FlipAddr,
    port: Port,
}

impl Header {
    /// Encodes a header plus `body`.
    fn wire(kind: Kind, seq: u64, client: FlipAddr, port: Port, body: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(AMOEBA_RPC_HEADER_BYTES + body.len());
        buf.put_u8(kind.to_byte());
        buf.put_u64(seq);
        buf.put_u64(client.0);
        buf.put_u64(port.0);
        buf.put_slice(&[0u8; AMOEBA_RPC_HEADER_BYTES - 25]);
        debug_assert_eq!(buf.len(), AMOEBA_RPC_HEADER_BYTES);
        buf.put_slice(body);
        buf.freeze()
    }

    fn decode(payload: &Bytes) -> Option<(Header, Bytes)> {
        if payload.len() < AMOEBA_RPC_HEADER_BYTES {
            return None;
        }
        let b = &payload[..];
        let kind = Kind::from_byte(b[0])?;
        let rd = |o: usize| u64::from_be_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        Some((
            Header {
                kind,
                seq: rd(1),
                client: FlipAddr(rd(9)),
                port: Port(rd(17)),
            },
            payload.slice(AMOEBA_RPC_HEADER_BYTES..),
        ))
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A kernel-registered RPC service; server threads block in
/// [`RpcServer::get_request`].
#[derive(Clone)]
pub struct RpcServer {
    machine: Machine,
    port: Port,
    queue: SimChannel<(Bytes, ReplyToken)>,
    table: Arc<Mutex<Table<FlipAddr>>>,
}

impl fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcServer")
            .field("port", &self.port)
            .field("machine", &self.machine.name())
            .finish()
    }
}

/// Capability to answer one request. `put_reply` must be issued by the same
/// thread that performed the `get_request` — the Amoeba kernel restriction
/// the paper's Orca runtime has to work around.
#[derive(Debug)]
pub struct ReplyToken {
    client: FlipAddr,
    seq: u64,
    served_by: Option<ThreadId>,
}

impl RpcServer {
    /// Registers a service on `machine` listening on `port`.
    pub fn register(machine: &Machine, port: Port) -> RpcServer {
        let server = RpcServer {
            machine: machine.clone(),
            port,
            queue: SimChannel::new(),
            table: Arc::default(),
        };
        let handler = server.clone();
        machine.bind(
            port_addr(port),
            Sink::Kernel(Arc::new(move |ctx, msg| handler.kernel_handle(ctx, msg))),
        );
        server
    }

    /// Kernel-side handling of packets addressed to the service.
    fn kernel_handle(&self, ctx: &Ctx, msg: FlipMessage) {
        let Some((header, body)) = Header::decode(&msg.payload) else {
            return;
        };
        match header.kind {
            Kind::Request => {
                let seq = header.seq;
                ctx.trace_instant(Layer::Rpc, "request_rx", &[("seq", seq)]);
                let action = self.table.lock().request(header.client, seq);
                let (note, answer) = match action {
                    Action::Deliver => {
                        // Cross into the server process: wake a get_request
                        // thread (one context switch at the server, as the
                        // paper counts for both implementations).
                        let cost = self.machine.cost();
                        ctx.charge(
                            Layer::Rpc,
                            On::Interrupt,
                            &[
                                ("protocol_layer", cost.protocol_layer),
                                ("user_deliver", cost.user_deliver),
                                ("copy", cost.copy(body.len())),
                            ],
                        );
                        let token = ReplyToken {
                            client: header.client,
                            seq,
                            // Bound to the serving thread by get_request.
                            served_by: None,
                        };
                        let _ = self.queue.send(ctx, (body, token));
                        return;
                    }
                    Action::Ignore => ("stale_request", None),
                    // Duplicate while in service (e.g. a blocked guarded
                    // operation): tell the client the server is alive so it
                    // keeps waiting (Amoeba probes the server rather than
                    // giving up).
                    Action::Working => ("working_tx", Some((Kind::Working, Bytes::new()))),
                    // Lost reply: retransmit the cached one from the kernel.
                    Action::Resend(reply) => ("reply_resend", Some((Kind::Reply, reply))),
                };
                ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", seq)]);
                ctx.trace_instant(Layer::Rpc, note, &[("seq", seq)]);
                if let Some((kind, reply)) = answer {
                    let wire = Header::wire(kind, seq, header.client, self.port, &reply);
                    self.machine
                        .kernel_send(ctx, port_addr(self.port), header.client, wire);
                }
            }
            Kind::Ack => self.table.lock().ack(header.client, header.seq),
            Kind::Reply | Kind::Working => {} // not for the server side
        }
    }

    /// Blocks until a request arrives; returns it with the reply capability.
    /// `None` only for a daemon parked here when the simulation drops: its
    /// serving loop ends.
    ///
    /// Charged as a blocking system call on the calling thread.
    pub fn get_request(&self, ctx: &Ctx) -> Option<(Bytes, ReplyToken)> {
        let cost = self.machine.cost();
        ctx.charge(Layer::Rpc, On::Thread, &[("syscall", cost.syscall_enter)]);
        let (body, mut token) = self.queue.recv(ctx)?;
        // Returning from the blocking syscall: window traps on the way out.
        ctx.charge(
            Layer::Rpc,
            On::Thread,
            &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
        );
        token.served_by = Some(ctx.thread_id());
        Some((body, token))
    }

    /// Sends the reply for `token`.
    ///
    /// # Panics
    ///
    /// Panics if called from a different thread than the matching
    /// [`RpcServer::get_request`] — the Amoeba kernel enforces this pairing.
    pub fn put_reply(&self, ctx: &Ctx, token: ReplyToken, reply: Bytes) {
        assert_eq!(
            token.served_by,
            Some(ctx.thread_id()),
            "Amoeba requires put_reply from the thread that issued get_request"
        );
        let cost = self.machine.cost();
        let wire_len = reply.len() + AMOEBA_RPC_HEADER_BYTES;
        ctx.trace_instant(
            Layer::Rpc,
            "reply_tx",
            &[("seq", token.seq), ("bytes", reply.len() as u64)],
        );
        ctx.charge(
            Layer::Rpc,
            On::Thread,
            &[
                ("syscall", cost.syscall(cost.shallow_call_depth)),
                ("protocol_layer", cost.protocol_layer),
                ("copy", cost.copy(reply.len())),
                (
                    "kernel_packet_send",
                    cost.kernel_packet_send * fragments_of(wire_len),
                ),
            ],
        );
        self.table
            .lock()
            .reply(token.client, token.seq, reply.clone());
        let wire = Header::wire(Kind::Reply, token.seq, token.client, self.port, &reply);
        let (src, dst) = (port_addr(self.port), FlipDest::Addr(token.client));
        self.machine.send(ctx, src, dst, wire);
    }

    /// The machine hosting this service.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// What a waiting call hears on its reply slot.
enum ClientEvent {
    Reply(Bytes),
    Working,
}

/// The reply-wait side of an RPC client endpoint, shared by both placements:
/// the calls in flight, keyed by `(key, seq)` (the kernel's seqs are per
/// machine, so its key is `()`; Panda's are per connection, keyed by
/// server), each with a reply slot of its own.
#[derive(Debug, Default)]
pub struct Waiting<K> {
    calls: Mutex<HashMap<(K, u64), SimChannel<ClientEvent>>>,
}

/// One call in flight and its reply slot.
#[derive(Debug)]
pub struct Call<K> {
    id: (K, u64),
    slot: SimChannel<ClientEvent>,
}

impl<K: Copy + Eq + Hash> Waiting<K> {
    /// Registers call `(key, seq)` before its request goes out.
    pub fn open(&self, key: K, seq: u64) -> Call<K> {
        let (id, slot) = ((key, seq), SimChannel::new());
        self.calls.lock().insert(id, slot.clone());
        Call { id, slot }
    }

    /// The call `(key, seq)` if it is still waiting. Its slot stays valid
    /// while the shell finishes its bookkeeping; if the call gives up
    /// meanwhile, a late event lands in a slot nobody reads.
    pub fn find(&self, key: K, seq: u64) -> Option<Call<K>> {
        let id = (key, seq);
        let slot = self.calls.lock().get(&id).cloned()?;
        Some(Call { id, slot })
    }

    /// The client loop: `send` transmits the request; a timeout
    /// retransmits it with exponential backoff (`timeout << min(attempt,
    /// 4)`) after charging `resend` on the calling thread, a Working answer
    /// resets the attempt count. Returns the reply, or `None` once
    /// `retries` retransmissions went unanswered.
    pub fn wait(
        &self,
        call: Call<K>,
        ctx: &Ctx,
        timeout: SimDuration,
        retries: u32,
        resend: &[(&'static str, SimDuration)],
        mut send: impl FnMut(),
    ) -> Option<Bytes> {
        let seq = call.id.1;
        let mut reply = None;
        let mut attempt = 0u32;
        let mut sent = false;
        while attempt <= retries {
            if !sent {
                if attempt > 0 {
                    ctx.trace_instant(
                        Layer::Rpc,
                        "retransmit",
                        &[("seq", seq), ("attempt", u64::from(attempt))],
                    );
                    if !resend.is_empty() {
                        ctx.charge(Layer::Rpc, On::Thread, resend);
                    }
                }
                ctx.trace_instant(Layer::Rpc, "request_tx", &[("seq", seq)]);
                send();
                sent = true;
            }
            let backoff = timeout * (1u64 << attempt.min(4));
            match call.slot.recv_timeout(ctx, backoff) {
                Ok(ClientEvent::Reply(r)) => {
                    reply = Some(r);
                    break;
                }
                // The server holds the request (a blocked guarded
                // operation): keep waiting indefinitely while it confirms
                // it is alive.
                Ok(ClientEvent::Working) => attempt = 0,
                Err(RecvTimeoutError::Timeout) => {
                    attempt += 1;
                    sent = false;
                }
                Err(RecvTimeoutError::Closed) => break,
            }
        }
        self.calls.lock().remove(&call.id);
        reply
    }
}

impl<K> Call<K> {
    /// Hands the reply to the waiting call.
    pub fn reply(self, ctx: &Ctx, reply: Bytes) {
        let _ = self.slot.send(ctx, ClientEvent::Reply(reply));
    }

    /// Tells the waiting call the server is alive and holds its request.
    pub fn working(self, ctx: &Ctx) {
        let _ = self.slot.send(ctx, ClientEvent::Working);
    }
}

/// The kernel RPC client endpoint of a machine. One per machine; any number
/// of threads may issue [`RpcClient::trans`] concurrently.
#[derive(Clone)]
pub struct RpcClient {
    machine: Machine,
    config: RpcConfig,
    next_seq: Arc<AtomicU64>,
    waiting: Arc<Waiting<()>>,
}

impl fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RpcClient")
            .field("machine", &self.machine.name())
            .finish()
    }
}

impl RpcClient {
    /// Installs the kernel RPC client endpoint on `machine`.
    pub fn install(machine: &Machine, config: RpcConfig) -> RpcClient {
        let client = RpcClient {
            machine: machine.clone(),
            config,
            next_seq: Arc::new(AtomicU64::new(1)),
            waiting: Arc::default(),
        };
        let me = client_addr(machine.mac());
        let handler = client.clone();
        machine.bind(
            me,
            Sink::Kernel(Arc::new(move |ctx, msg| handler.kernel_handle(ctx, msg))),
        );
        client
    }

    fn kernel_handle(&self, ctx: &Ctx, msg: FlipMessage) {
        let Some((header, body)) = Header::decode(&msg.payload) else {
            return;
        };
        if header.kind != Kind::Reply && header.kind != Kind::Working {
            return;
        }
        let Some(call) = self.waiting.find((), header.seq) else {
            return; // duplicate reply after completion; the ack already went out
        };
        if header.kind == Kind::Working {
            ctx.trace_instant(Layer::Rpc, "working_rx", &[("seq", header.seq)]);
            call.working(ctx);
            return;
        }
        ctx.trace_instant(
            Layer::Rpc,
            "reply_rx",
            &[("seq", header.seq), ("bytes", body.len() as u64)],
        );
        ctx.charge(
            Layer::Rpc,
            On::Interrupt,
            &[("protocol_layer", self.machine.cost().protocol_layer)],
        );
        // Wake the blocked client directly from the interrupt handler — this
        // is the kernel-space fast path: no context switch is charged because
        // no other thread gets scheduled in between.
        call.reply(ctx, body);
        // The kernel sends the explicit acknowledgement (3rd leg, off the
        // client's critical path).
        let me = client_addr(self.machine.mac());
        let ack = Header::wire(Kind::Ack, header.seq, me, header.port, &[]);
        ctx.trace_instant(Layer::Rpc, "ack_tx", &[("seq", header.seq)]);
        self.machine.kernel_send(ctx, me, msg.src, ack);
    }

    /// Performs a remote procedure call: sends `request` to `port` and blocks
    /// until the reply arrives.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] when no reply arrives after all retransmissions.
    pub fn trans(&self, ctx: &Ctx, port: Port, request: Bytes) -> Result<Bytes, RpcError> {
        let cost = self.machine.cost().clone();
        let me = client_addr(self.machine.mac());
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let call = self.waiting.open((), seq);
        let wire = Header::wire(Kind::Request, seq, me, port, &request);
        ctx.trace_emit(
            Layer::Rpc,
            Phase::Begin,
            "trans",
            &[("seq", seq), ("bytes", request.len() as u64)],
        );
        // Entering the kernel, protocol processing, copying the request,
        // per-packet processing.
        let packet_send = cost.kernel_packet_send * fragments_of(wire.len());
        ctx.charge(
            Layer::Rpc,
            On::Thread,
            &[
                ("syscall", cost.syscall(cost.shallow_call_depth)),
                ("protocol_layer", cost.protocol_layer),
                ("copy", cost.copy(request.len())),
                ("kernel_packet_send", packet_send),
            ],
        );
        // A kernel retransmission pays the per-packet send again.
        let resend = [("kernel_packet_send", packet_send)];
        let (timeout, retries) = (self.config.timeout, self.config.retries);
        let reply = self.waiting.wait(call, ctx, timeout, retries, &resend, || {
            let dst = FlipDest::Addr(port_addr(port));
            self.machine.send(ctx, me, dst, wire.clone());
        });
        if reply.is_some() {
            // Return from the blocking trans() syscall. The `Thread` charge
            // pays no switch when only interrupt work ran while we were
            // blocked.
            ctx.charge(
                Layer::Rpc,
                On::Thread,
                &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
            );
        }
        ctx.trace_emit(
            Layer::Rpc,
            Phase::End,
            "trans",
            &[("seq", seq), ("ok", u64::from(reply.is_some()))],
        );
        reply.ok_or(RpcError::Timeout)
    }

    /// The machine this client endpoint belongs to.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{ms, us, Simulation};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Garbage, and a valid frame cut anywhere, decode to `None` or a
        /// header — never a panic.
        #[test]
        fn decode_never_panics_on_garbage_or_truncation(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            kind in 0u8..4,
            cut in 0usize..120,
        ) {
            let mut garbage = bytes.clone();
            let _ = Header::decode(&Bytes::from(garbage.clone()));
            if let Some(b) = garbage.first_mut() {
                *b = kind; // a known kind gets past the first check
            }
            let _ = Header::decode(&Bytes::from(garbage));
            let kind = Kind::from_byte(kind).expect("0..4 are the four kinds");
            let wire = Header::wire(kind, u64::MAX, FlipAddr(3), Port(9), &bytes);
            let cut = cut.min(wire.len());
            let decoded = Header::decode(&wire.slice(..cut));
            prop_assert_eq!(decoded.is_some(), cut >= AMOEBA_RPC_HEADER_BYTES);
        }
    }

    #[test]
    fn header_roundtrip() {
        let wire = Header::wire(Kind::Request, 42, FlipAddr(0x77), Port(9), b"body");
        assert_eq!(wire.len(), AMOEBA_RPC_HEADER_BYTES + 4);
        let (h2, body) = Header::decode(&wire).expect("decode");
        assert_eq!(h2.kind, Kind::Request);
        assert_eq!(h2.seq, 42);
        assert_eq!(h2.client, FlipAddr(0x77));
        assert_eq!(h2.port, Port(9));
        assert_eq!(&body[..], b"body");
    }

    #[test]
    fn bad_header_rejected() {
        assert!(Header::decode(&Bytes::from_static(&[0u8; 4])).is_none());
        let mut wire = Header::wire(Kind::Ack, 0, FlipAddr(0), Port(0), &[]).to_vec();
        wire[0] = 99;
        assert!(Header::decode(&Bytes::from(wire)).is_none());
    }

    /// A reply that finds its call and then arrives after the call gave up
    /// (the kernel handler sleeps in its interrupt charge in between) must
    /// not reach the next call: that call still gives up exactly one
    /// timeout after it opened.
    #[test]
    fn a_late_reply_to_a_given_up_call_cannot_delay_the_next_call() {
        let mut sim = Simulation::new(1);
        let cpu = sim.add_processor("cpu");
        let waiting = Arc::new(Waiting::<()>::default());
        let stale_tx = SimChannel::<Call<()>>::new();
        let stale_rx = stale_tx.clone();
        sim.spawn_daemon(cpu, "late-reply", move |ctx| {
            let Some(stale) = stale_rx.recv(ctx) else {
                return;
            };
            ctx.sleep(us(500));
            stale.reply(ctx, Bytes::from_static(b"late"));
        });
        let h = sim.spawn(cpu, "client", move |ctx| {
            let first = waiting.open((), 1);
            let stale = waiting.find((), 1).expect("call 1 is waiting");
            assert_eq!(waiting.wait(first, ctx, ms(1), 0, &[], || {}), None);
            let opened = ctx.now();
            let second = waiting.open((), 2);
            let _ = stale_tx.send(ctx, stale);
            assert_eq!(waiting.wait(second, ctx, ms(1), 0, &[], || {}), None);
            assert_eq!(ctx.now().saturating_duration_since(opened), ms(1));
        });
        sim.run_until_finished(&h).expect("run");
    }
}
