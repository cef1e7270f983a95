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

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::trace::{Layer, Phase};
use desim::{Ctx, On, RecvTimeoutError, SimChannel, SimDuration, ThreadId};
use ethernet::MacAddr;
use flip::{FlipAddr, FlipMessage};
use parking_lot::Mutex;

use crate::cost::AMOEBA_RPC_HEADER_BYTES;
use crate::machine::{fragments_of, Machine};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Request,
    Reply,
    Ack,
    /// Server-alive probe answer: the request is held (e.g. a blocked
    /// guarded operation); the client keeps waiting.
    Working,
}

impl Kind {
    fn to_byte(self) -> u8 {
        match self {
            Kind::Request => 0,
            Kind::Reply => 1,
            Kind::Ack => 2,
            Kind::Working => 3,
        }
    }
    fn from_byte(b: u8) -> Option<Kind> {
        match b {
            0 => Some(Kind::Request),
            1 => Some(Kind::Reply),
            2 => Some(Kind::Ack),
            3 => Some(Kind::Working),
            _ => None,
        }
    }
}

struct Header {
    kind: Kind,
    seq: u64,
    client: FlipAddr,
    port: Port,
}

impl Header {
    fn encode_with(&self, body: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(AMOEBA_RPC_HEADER_BYTES + body.len());
        buf.put_u8(self.kind.to_byte());
        buf.put_u64(self.seq);
        buf.put_u64(self.client.0);
        buf.put_u64(self.port.0);
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

enum CacheEntry {
    InProgress,
    Done(Bytes),
}

struct ServerState {
    cache: HashMap<(FlipAddr, u64), CacheEntry>,
    /// Highest acknowledged (fully completed) sequence number per client.
    /// Client sequence numbers increase monotonically, so a request at or
    /// below the watermark is a stale duplicate whose retransmission was
    /// still in flight when the ack cleared its cache entry — re-executing
    /// it would break at-most-once semantics.
    completed: HashMap<FlipAddr, u64>,
}

/// A kernel-registered RPC service; server threads block in
/// [`RpcServer::get_request`].
#[derive(Clone)]
pub struct RpcServer {
    machine: Machine,
    port: Port,
    queue: SimChannel<(Bytes, ReplyToken)>,
    state: Arc<Mutex<ServerState>>,
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
        let queue: SimChannel<(Bytes, ReplyToken)> = SimChannel::new();
        let state = Arc::new(Mutex::new(ServerState {
            cache: HashMap::new(),
            completed: HashMap::new(),
        }));
        let server = RpcServer {
            machine: machine.clone(),
            port,
            queue: queue.clone(),
            state: Arc::clone(&state),
        };
        let handler_server = server.clone();
        machine.register_kernel_handler(
            port_addr(port),
            Arc::new(move |ctx, msg| handler_server.kernel_handle(ctx, msg)),
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
                ctx.trace_instant(Layer::Rpc, "request_rx", &[("seq", header.seq)]);
                let key = (header.client, header.seq);
                let resend = {
                    let mut st = self.state.lock();
                    if st.completed.get(&header.client).copied().unwrap_or(0) >= header.seq {
                        ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", header.seq)]);
                        ctx.trace_instant(Layer::Rpc, "stale_request", &[("seq", header.seq)]);
                        return;
                    }
                    match st.cache.get(&key) {
                        None => {
                            st.cache.insert(key, CacheEntry::InProgress);
                            None
                        }
                        Some(CacheEntry::InProgress) => {
                            // Duplicate while in service (e.g. a blocked
                            // guarded operation): tell the client the server
                            // is alive so it keeps waiting (Amoeba probes
                            // the server rather than giving up).
                            let wire = Header {
                                kind: Kind::Working,
                                seq: header.seq,
                                client: header.client,
                                port: self.port,
                            }
                            .encode_with(&[]);
                            ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", header.seq)]);
                            ctx.trace_instant(Layer::Rpc, "working_tx", &[("seq", header.seq)]);
                            self.machine.kernel_send(
                                ctx,
                                port_addr(self.port),
                                header.client,
                                wire,
                            );
                            return;
                        }
                        Some(CacheEntry::Done(reply)) => Some(reply.clone()),
                    }
                };
                match resend {
                    Some(reply) => {
                        // Lost reply: retransmit the cached one from the kernel.
                        ctx.trace_instant(Layer::Rpc, "dup_suppressed", &[("seq", header.seq)]);
                        ctx.trace_instant(Layer::Rpc, "reply_resend", &[("seq", header.seq)]);
                        let wire = Header {
                            kind: Kind::Reply,
                            seq: header.seq,
                            client: header.client,
                            port: self.port,
                        }
                        .encode_with(&reply);
                        self.machine
                            .kernel_send(ctx, port_addr(self.port), header.client, wire);
                    }
                    None => {
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
                            seq: header.seq,
                            // Bound to the serving thread by get_request.
                            served_by: None,
                        };
                        let _ = self.queue.send(ctx, (body, token));
                    }
                }
            }
            Kind::Ack => {
                let mut st = self.state.lock();
                st.cache.remove(&(header.client, header.seq));
                let w = st.completed.entry(header.client).or_insert(0);
                *w = (*w).max(header.seq);
            }
            Kind::Reply | Kind::Working => {} // not for the server side
        }
    }

    /// Blocks until a request arrives; returns it with the reply capability.
    ///
    /// Charged as a blocking system call on the calling thread.
    pub fn get_request(&self, ctx: &Ctx) -> (Bytes, ReplyToken) {
        let cost = self.machine.cost();
        ctx.charge(Layer::Rpc, On::Thread, &[("syscall", cost.syscall_enter)]);
        let (body, mut token) = self
            .queue
            .recv(ctx)
            .expect("service queue lives as long as the server");
        // Returning from the blocking syscall: window traps on the way out.
        ctx.charge(
            Layer::Rpc,
            On::Thread,
            &[("window_trap", cost.window_trap * cost.shallow_call_depth)],
        );
        token.served_by = Some(ctx.thread_id());
        (body, token)
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
        {
            let mut st = self.state.lock();
            st.cache
                .insert((token.client, token.seq), CacheEntry::Done(reply.clone()));
        }
        let wire = Header {
            kind: Kind::Reply,
            seq: token.seq,
            client: token.client,
            port: self.port,
        }
        .encode_with(&reply);
        // The packet-send cost was charged on the calling thread above; use
        // the iface directly to avoid double-charging in kernel_send.
        if let Some(local) =
            self.machine
                .iface()
                .send(ctx, port_addr(self.port), token.client, wire)
        {
            self.machine.dispatch(ctx, local);
        }
    }

    /// The machine hosting this service.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Events carry the sequence number they answer: reply slots are pooled and
/// reused across calls (a 10k-machine fleet would otherwise allocate a fresh
/// channel per RPC), and a late duplicate from a slot's previous life must be
/// recognizable so the new owner can discard it.
enum ClientEvent {
    Reply(u64, Bytes),
    Working(u64),
}

/// Reply slots kept for reuse per client endpoint. Concurrency per machine is
/// tiny (a handful of app threads), so a short free list captures all reuse.
const SLOT_POOL_MAX: usize = 4;

struct ClientState {
    next_seq: u64,
    waiting: HashMap<u64, SimChannel<ClientEvent>>,
    slot_pool: Vec<SimChannel<ClientEvent>>,
}

/// The kernel RPC client endpoint of a machine. One per machine; any number
/// of threads may issue [`RpcClient::trans`] concurrently.
#[derive(Clone)]
pub struct RpcClient {
    machine: Machine,
    config: RpcConfig,
    state: Arc<Mutex<ClientState>>,
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
        let state = Arc::new(Mutex::new(ClientState {
            next_seq: 1,
            waiting: HashMap::new(),
            slot_pool: Vec::new(),
        }));
        let client = RpcClient {
            machine: machine.clone(),
            config,
            state: Arc::clone(&state),
        };
        let me = client_addr(machine.mac());
        let handler_client = client.clone();
        machine.register_kernel_handler(
            me,
            Arc::new(move |ctx, msg| handler_client.kernel_handle(ctx, msg)),
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
        let slot = {
            let st = self.state.lock();
            st.waiting.get(&header.seq).cloned()
        };
        let Some(slot) = slot else {
            return; // duplicate reply after completion; the ack already went out
        };
        if header.kind == Kind::Working {
            ctx.trace_instant(Layer::Rpc, "working_rx", &[("seq", header.seq)]);
            let _ = slot.send(ctx, ClientEvent::Working(header.seq));
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
        let _ = slot.send(ctx, ClientEvent::Reply(header.seq, body));
        // The kernel sends the explicit acknowledgement (3rd leg, off the
        // client's critical path).
        let ack = Header {
            kind: Kind::Ack,
            seq: header.seq,
            client: client_addr(self.machine.mac()),
            port: header.port,
        }
        .encode_with(&[]);
        ctx.trace_instant(Layer::Rpc, "ack_tx", &[("seq", header.seq)]);
        self.machine
            .kernel_send(ctx, client_addr(self.machine.mac()), msg.src, ack);
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
        let (seq, slot) = {
            let mut st = self.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            let slot = st.slot_pool.pop().unwrap_or_default();
            st.waiting.insert(seq, slot.clone());
            (seq, slot)
        };
        let wire = Header {
            kind: Kind::Request,
            seq,
            client: me,
            port,
        }
        .encode_with(&request);
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
        let mut result = Err(RpcError::Timeout);
        let mut attempt = 0u32;
        let mut sent = false;
        while attempt <= self.config.retries {
            if !sent {
                if attempt > 0 {
                    // Kernel retransmission of the request.
                    ctx.trace_instant(
                        Layer::Rpc,
                        "retransmit",
                        &[("seq", seq), ("attempt", u64::from(attempt))],
                    );
                    ctx.charge(
                        Layer::Rpc,
                        On::Thread,
                        &[("kernel_packet_send", packet_send)],
                    );
                }
                ctx.trace_instant(Layer::Rpc, "request_tx", &[("seq", seq)]);
                if let Some(local) =
                    self.machine
                        .iface()
                        .send(ctx, me, port_addr(port), wire.clone())
                {
                    self.machine.dispatch(ctx, local);
                }
                sent = true;
            }
            let backoff = self.config.timeout * (1u64 << attempt.min(4));
            match slot.recv_timeout(ctx, backoff) {
                // Events from a pooled slot's previous life carry a stale
                // sequence number; discard them and keep waiting.
                Ok(ClientEvent::Reply(s, _)) | Ok(ClientEvent::Working(s)) if s != seq => {
                    continue;
                }
                Ok(ClientEvent::Reply(_, reply)) => {
                    result = Ok(reply);
                    break;
                }
                Ok(ClientEvent::Working(_)) => {
                    // The server holds the request (a blocked guarded
                    // operation): keep waiting indefinitely while it
                    // confirms it is alive.
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
        {
            let mut st = self.state.lock();
            st.waiting.remove(&seq);
            if st.slot_pool.len() < SLOT_POOL_MAX {
                st.slot_pool.push(slot);
            }
        }
        if result.is_ok() {
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
            &[("seq", seq), ("ok", u64::from(result.is_ok()))],
        );
        result
    }

    /// The machine this client endpoint belongs to.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            kind: Kind::Request,
            seq: 42,
            client: FlipAddr(0x77),
            port: Port(9),
        };
        let wire = h.encode_with(b"body");
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
        let mut wire = Header {
            kind: Kind::Ack,
            seq: 0,
            client: FlipAddr(0),
            port: Port(0),
        }
        .encode_with(&[])
        .to_vec();
        wire[0] = 99;
        assert!(Header::decode(&Bytes::from(wire)).is_none());
    }
}
