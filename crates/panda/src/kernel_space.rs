//! Panda implemented on Amoeba's **kernel-space** protocols (the left half of
//! Figure 2): thin wrapper routines make the kernel RPC and group primitives
//! look like the Panda interface.
//!
//! Two structural consequences the paper measures:
//!
//! - Amoeba expects server threads to block in `get_request`, so implicit
//!   receipt is built with a pool of daemon threads;
//! - the reply must be sent by the thread that issued `get_request`, so an
//!   asynchronous [`Panda::reply`] from another thread has to signal the
//!   original daemon, re-introducing a context switch and a blocked server
//!   thread — undoing the Orca runtime's continuation optimization.

use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::{Ctx, SimChannel, Simulation};
use parking_lot::Mutex;

use amoeba::{port_addr, GroupMember, GroupSpec, Machine, Port, RpcClient, RpcServer};
use flip::FlipAddr;

use crate::transport::{
    CommError, GroupHandler, NodeId, Panda, PandaConfig, ReplyTicket, RpcHandler, TicketInner,
};

/// Server threads each kernel-space node parks in `get_request` (Amoeba
/// servers block there, so implicit receipt needs a pool of them).
const KERNEL_SERVER_POOL: usize = 4;

/// The kernel group every world's servers form.
const GROUP_ID: u64 = 0x77;

/// RPC service port of node `n`.
fn node_port(n: NodeId) -> Port {
    Port(0x5000 + u64::from(n))
}

#[derive(Default)]
struct Handlers {
    rpc: Option<RpcHandler>,
    group: Option<GroupHandler>,
}

/// One node of the kernel-space Panda implementation.
pub struct KernelSpacePanda {
    node: NodeId,
    nodes: u32,
    machine: Machine,
    client: RpcClient,
    /// `None` on a client node (see [`PandaConfig::servers`]).
    member: Option<GroupMember>,
    handlers: Arc<Mutex<Handlers>>,
}

impl fmt::Debug for KernelSpacePanda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSpacePanda")
            .field("node", &self.node)
            .field("machine", &self.machine.name())
            .finish()
    }
}

impl KernelSpacePanda {
    /// Builds the kernel-space Panda world: one node per machine, and on
    /// each server (every node, unless [`PandaConfig::servers`] says
    /// otherwise) an RPC service registered in its kernel, membership of
    /// the one kernel group, and the daemon threads that turn Amoeba's
    /// explicit receipt into Panda's implicit receipt.
    pub fn build(
        sim: &mut Simulation,
        machines: &[Machine],
        config: &PandaConfig,
    ) -> Vec<Arc<KernelSpacePanda>> {
        let n = machines.len() as u32;
        let members = config.members(n);
        assert!(config.sequencer_node < members, "sequencer must be a node");
        let mut spec = GroupSpec::build(GROUP_ID, members as usize, config.sequencer_node as usize);
        spec.config = config.group.clone();
        let mut out = Vec::with_capacity(machines.len());
        for (i, machine) in machines.iter().enumerate() {
            let node = i as NodeId;
            let serves = node < members;
            let server = serves.then(|| RpcServer::register(machine, node_port(node)));
            let client = RpcClient::install(machine, config.rpc.clone());
            let member = serves.then(|| GroupMember::join(machine, spec.clone(), node));
            let panda = Arc::new(KernelSpacePanda {
                node,
                nodes: n,
                machine: machine.clone(),
                client,
                member: member.clone(),
                handlers: Arc::default(),
            });
            out.push(Arc::clone(&panda));
            let (Some(server), Some(member)) = (server, member) else {
                continue; // a client runs no daemons
            };
            // RPC daemon pool: each thread loops get_request -> upcall ->
            // put_reply. A deferred reply parks the daemon on a slot until
            // some other thread calls Panda::reply (the workaround).
            for d in 0..KERNEL_SERVER_POOL {
                let server = server.clone();
                let panda_d = Arc::clone(&panda);
                sim.spawn_daemon(
                    machine.proc(),
                    &format!("{}-rpcd{}", machine.name(), d),
                    move |ctx| loop {
                        // `None` only once the world is dropped.
                        let Some((req, token)) = server.get_request(ctx) else {
                            return;
                        };
                        let Some((from, body)) = decode_from(&req) else {
                            // No node-id prefix: not a Panda request. Answer
                            // it empty, with no upcall, and keep serving.
                            server.put_reply(ctx, token, Bytes::new());
                            continue;
                        };
                        let slot: SimChannel<Bytes> = SimChannel::new();
                        let ticket = ReplyTicket(TicketInner::Kernel { slot: slot.clone() });
                        let handler = panda_d
                            .handlers
                            .lock()
                            .rpc
                            .clone()
                            .expect("rpc handler installed before traffic");
                        handler(ctx, from, body, ticket);
                        // Wait for the reply (immediate if the handler
                        // answered inside the upcall) and send it from THIS
                        // thread, as the Amoeba kernel demands.
                        let Some(reply) = slot.recv(ctx) else {
                            return;
                        };
                        server.put_reply(ctx, token, reply);
                    },
                );
            }
            // Group receive daemon: pulls the kernel's ordered stream and
            // upcalls the Panda group handler; blocked in `recv`, it also
            // serves the group cores' deadlines.
            let member_d = member.clone();
            let panda_g = Arc::clone(&panda);
            sim.spawn_daemon(
                machine.proc(),
                &format!("{}-grpd", machine.name()),
                move |ctx| loop {
                    let Some(msg) = member_d.recv(ctx) else {
                        return;
                    };
                    let handler = panda_g
                        .handlers
                        .lock()
                        .group
                        .clone()
                        .expect("group handler installed before traffic");
                    handler(
                        ctx,
                        crate::transport::GroupDelivery {
                            sender: msg.sender,
                            seq: msg.seq,
                            payload: msg.payload,
                        },
                    );
                },
            );
        }
        // The handlers installed from above capture objects that hold these
        // nodes (an `OrcaRts`, a test's replier): drop them at teardown.
        let nodes = out.clone();
        sim.on_teardown(move || {
            for node in &nodes {
                *node.handlers.lock() = Handlers::default();
            }
        });
        out
    }
}

/// The endpoints a node routes to on server `s` of a world with `members`
/// servers: its RPC port and, on the sequencer, its group member.
pub(crate) fn server_addrs(s: NodeId, members: u32, config: &PandaConfig) -> Vec<FlipAddr> {
    let group = GroupSpec::build(GROUP_ID, members as usize, config.sequencer_node as usize);
    let seq = (s == config.sequencer_node).then(|| group.member_addrs[s as usize]);
    std::iter::once(port_addr(node_port(s)))
        .chain(seq)
        .collect()
}

/// Requests carry the caller's node id in a 4-byte prefix (Panda-level
/// information the Amoeba port field does not provide).
fn encode_from(from: NodeId, body: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(from);
    buf.put_slice(body);
    buf.freeze()
}

/// Splits a request into its caller and body; `None` for a request too
/// short to carry the prefix (it reached the port from outside Panda).
fn decode_from(wire: &Bytes) -> Option<(NodeId, Bytes)> {
    let from = NodeId::from_be_bytes(wire.get(..4)?.try_into().ok()?);
    Some((from, wire.slice(4..)))
}

impl Panda for KernelSpacePanda {
    fn node(&self) -> NodeId {
        self.node
    }

    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn set_rpc_handler(&self, handler: RpcHandler) {
        self.handlers.lock().rpc = Some(handler);
    }

    fn set_group_handler(&self, handler: GroupHandler) {
        self.handlers.lock().group = Some(handler);
    }

    fn rpc(&self, ctx: &Ctx, dst: NodeId, request: Bytes) -> Result<Bytes, CommError> {
        assert_ne!(dst, self.node, "local invocations never go through RPC");
        self.client
            .trans(ctx, node_port(dst), encode_from(self.node, &request))
            .map_err(|amoeba::RpcError::Timeout| CommError::Timeout)
    }

    fn reply(&self, ctx: &Ctx, ticket: ReplyTicket, reply: Bytes) {
        match ticket.0 {
            TicketInner::Kernel { slot } => {
                // Signal the parked get_request daemon; it performs the
                // actual put_reply. The signal is a system call (Amoeba
                // threads are kernel threads), and handing the CPU to the
                // daemon costs the extra context switch the paper attributes
                // to the kernel-space path for asynchronous replies.
                let cost = self.machine.cost();
                ctx.compute(cost.syscall(cost.shallow_call_depth));
                let _ = slot.send(ctx, reply);
            }
            TicketInner::User { .. } => {
                panic!("user-space ticket answered through the kernel-space implementation")
            }
        }
    }

    fn group_send(&self, ctx: &Ctx, msg: Bytes) -> Result<(), CommError> {
        self.member
            .as_ref()
            .unwrap_or_else(|| panic!("node {} is a client: it is in no group", self.node))
            .send(ctx, msg)
            .map(|_seq| ())
            .map_err(|amoeba::GroupError::Timeout| CommError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use amoeba::{CostModel, RpcConfig};
    use ethernet::TopologySpec;

    use super::*;
    use crate::world;

    #[test]
    fn short_request_is_answered_empty_and_the_daemon_keeps_serving() {
        let mut sim = Simulation::new(1);
        let w = world::boot(&mut sim, &TopologySpec::flat(3, 3), CostModel::default());
        let nodes = KernelSpacePanda::build(&mut sim, &w.machines[..2], &PandaConfig::default());
        let upcalls = Arc::new(AtomicU64::new(0));
        let (count, echo) = (Arc::clone(&upcalls), Arc::clone(&nodes[1]));
        nodes[1].set_rpc_handler(Arc::new(move |ctx, _from, req, ticket| {
            count.fetch_add(1, Ordering::Relaxed);
            echo.reply(ctx, ticket, req);
        }));
        for n in &nodes {
            n.set_group_handler(Arc::new(|_, _| {}));
        }
        // A machine outside the Panda world sends a 2-byte request, too
        // short for the node-id prefix, straight to node 1's port.
        let stranger = RpcClient::install(&w.machines[2], RpcConfig::default());
        let h = sim.spawn(w.machines[2].proc(), "stranger", move |ctx| {
            let reply = stranger.trans(ctx, node_port(1), Bytes::from_static(b"hi"));
            assert_eq!(reply, Ok(Bytes::new()));
        });
        sim.run_until_finished(&h)
            .expect("the short request is answered");
        assert_eq!(upcalls.load(Ordering::Relaxed), 0);

        let client = Arc::clone(&nodes[0]);
        let h = sim.spawn(client.machine().proc(), "client", move |ctx| {
            let reply = client.rpc(ctx, 1, Bytes::from_static(b"ping"));
            assert_eq!(reply, Ok(Bytes::from_static(b"ping")));
        });
        sim.run_until_finished(&h)
            .expect("node 1 still serves Panda RPC");
        assert_eq!(upcalls.load(Ordering::Relaxed), 1);
    }
}
