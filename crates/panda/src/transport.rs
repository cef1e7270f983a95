//! The Panda communication interface used by the Orca runtime system.
//!
//! Figure 1 of the paper: Panda provides threads, RPC, and totally ordered
//! group communication to the language runtime above it. The two
//! implementations of this trait are the subject of the paper's comparison:
//!
//! - [`crate::KernelSpacePanda`] wraps Amoeba's kernel protocols;
//! - [`crate::UserSpacePanda`] runs Panda's own protocols in user space on
//!   the raw FLIP system calls.
//!
//! Message receipt is *implicit*: handlers (upcalls) registered per node run
//! to completion in protocol-daemon context. A request handler may reply
//! immediately from the upcall or capture the [`ReplyTicket`] and reply later
//! from any thread — the asynchronous reply only the user-space protocol
//! supports without an extra context switch (Section 3).

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::{Ctx, SimChannel, SimDuration};

use amoeba::{GroupConfig, Machine, RpcConfig};

/// Identifies a Panda node (one per machine running the runtime).
pub type NodeId = u32;

/// Errors reported by the communication operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The peer (or the sequencer) never answered.
    Timeout,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout => write!(f, "communication timed out"),
        }
    }
}

impl std::error::Error for CommError {}

/// A totally ordered message delivered to the group upcall at every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDelivery {
    /// Node that sent the message.
    pub sender: NodeId,
    /// Global sequence number (identical at all nodes).
    pub seq: u64,
    /// Message body.
    pub payload: Bytes,
}

/// Capability to answer one RPC request, now or later, from any thread.
///
/// With the kernel-space implementation a deferred reply is routed back to
/// the original server thread (Amoeba's same-thread restriction), costing an
/// extra context switch; the user-space implementation transmits straight
/// from the replying thread.
#[derive(Debug)]
pub struct ReplyTicket(pub(crate) TicketInner);

#[derive(Debug)]
pub(crate) enum TicketInner {
    /// Kernel-space: hand the reply back to the blocked `get_request` daemon.
    Kernel { slot: SimChannel<Bytes> },
    /// User-space: transmit directly to the client.
    User { client: NodeId, seq: u64 },
}

/// Upcall invoked for every incoming RPC request.
///
/// Arguments: calling context, requesting node, request payload, and the
/// reply capability. Must run to completion without long blocking.
pub type RpcHandler = Arc<dyn Fn(&Ctx, NodeId, Bytes, ReplyTicket) + Send + Sync>;

/// Upcall invoked for every totally ordered group message, in sequence
/// order. Must run to completion without long blocking.
pub type GroupHandler = Arc<dyn Fn(&Ctx, GroupDelivery) + Send + Sync>;

/// The Panda communication interface (RPC + totally ordered groups).
pub trait Panda: Send + Sync {
    /// This node's identifier.
    fn node(&self) -> NodeId;

    /// Total number of application nodes.
    fn nodes(&self) -> u32;

    /// The machine this node runs on.
    fn machine(&self) -> &Machine;

    /// Installs the RPC request upcall. Must be called before peers send.
    fn set_rpc_handler(&self, handler: RpcHandler);

    /// Installs the group message upcall. Must be called before traffic.
    fn set_group_handler(&self, handler: GroupHandler);

    /// Remote procedure call to `dst`; blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the peer never answers.
    fn rpc(&self, ctx: &Ctx, dst: NodeId, request: Bytes) -> Result<Bytes, CommError>;

    /// Answers a request (from any thread; see [`ReplyTicket`]).
    fn reply(&self, ctx: &Ctx, ticket: ReplyTicket, reply: Bytes);

    /// Broadcasts `msg` with total ordering; blocks until the message has
    /// been sequenced and delivered locally (so a subsequent `group_send`
    /// is ordered after it).
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] if the message is never sequenced.
    fn group_send(&self, ctx: &Ctx, msg: Bytes) -> Result<(), CommError>;
}

/// Shared tuning for both Panda implementations: the protocols' own
/// configs, which both placements run, plus where the sequencer lives and
/// which nodes serve.
#[derive(Debug, Clone)]
pub struct PandaConfig {
    /// RPC retransmission policy.
    pub rpc: RpcConfig,
    /// Group protocol tuning. Its `resync_interval` is both stacks' one
    /// (non-zero) group timer; chaos tests shrink it so recovery converges
    /// fast.
    pub group: GroupConfig,
    /// Which node hosts the sequencer.
    pub sequencer_node: NodeId,
    /// `None`: every node serves RPCs and is a group member. `Some(k)`:
    /// nodes `0..k` serve RPCs and form the group (the sequencer among
    /// them), and nodes `k..` are clients that only call them. A client
    /// runs no server threads, joins no group and gets no group deliveries
    /// (its [`Panda::group_send`] panics). [`crate::world::build_stack`]
    /// tells every node where the servers are, so none broadcasts a FLIP
    /// locate. A dedicated-sequencer world has no servers-only form.
    pub servers: Option<NodeId>,
}

impl PandaConfig {
    /// The group's size in a world of `nodes` nodes: the servers.
    pub(crate) fn members(&self, nodes: u32) -> u32 {
        let members = self.servers.unwrap_or(nodes);
        assert!(members <= nodes, "{members} servers among {nodes} nodes");
        members
    }
}

impl Default for PandaConfig {
    fn default() -> Self {
        PandaConfig {
            rpc: RpcConfig {
                timeout: SimDuration::from_millis(100),
                retries: 8,
            },
            group: GroupConfig {
                send_retries: 8,
                ..GroupConfig::default()
            },
            sequencer_node: 0,
            servers: None,
        }
    }
}
