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

use amoeba::{GroupMember, GroupSpec, Machine, Port, RpcClient, RpcConfig, RpcServer};

use crate::transport::{
    CommError, GroupHandler, NodeId, Panda, PandaConfig, ReplyTicket, RpcHandler, TicketInner,
};

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
    member: GroupMember,
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
    /// Builds the kernel-space Panda world: one node per machine, RPC
    /// services registered in each kernel, one kernel group spanning all
    /// nodes, and the daemon threads that turn Amoeba's explicit receipt
    /// into Panda's implicit receipt.
    pub fn build(
        sim: &mut Simulation,
        machines: &[Machine],
        config: &PandaConfig,
    ) -> Vec<Arc<KernelSpacePanda>> {
        assert!(
            !config.dedicated_sequencer,
            "a dedicated sequencer machine is a user-space configuration; \
             the kernel sequencer always runs inside a member kernel"
        );
        let n = machines.len() as u32;
        assert!(config.sequencer_node < n, "sequencer must be a node");
        let mut spec = GroupSpec::build(0x77, machines.len(), config.sequencer_node as usize);
        spec.config.send_timeout = config.group_send_timeout;
        spec.config.send_retries = config.group_send_retries;
        spec.config.status_interval = config.group_status_interval;
        spec.config.resync_interval = config.kernel_group_resync_interval;
        let mut out = Vec::with_capacity(machines.len());
        for (i, machine) in machines.iter().enumerate() {
            let node = i as NodeId;
            let server = RpcServer::register(machine, node_port(node));
            let client = RpcClient::install(
                machine,
                RpcConfig {
                    timeout: config.rpc_timeout,
                    retries: config.rpc_retries,
                },
            );
            let member = GroupMember::join(machine, spec.clone(), node);
            // Sequencer laggard-resync daemon (kernel thread; only if the
            // configuration enables it — see GroupConfig::resync_interval).
            if member.is_sequencer() && !config.kernel_group_resync_interval.is_zero() {
                let member_r = member.clone();
                sim.spawn_daemon_on_lane(
                    machine.lane(),
                    machine.proc(),
                    &format!("{}-gresync", machine.name()),
                    move |ctx| member_r.run_resync_daemon(ctx),
                );
            }
            let panda = Arc::new(KernelSpacePanda {
                node,
                nodes: n,
                machine: machine.clone(),
                client,
                member: member.clone(),
                handlers: Arc::default(),
            });
            // RPC daemon pool: each thread loops get_request -> upcall ->
            // put_reply. A deferred reply parks the daemon on a slot until
            // some other thread calls Panda::reply (the workaround).
            for d in 0..config.rpc_server_pool {
                let server = server.clone();
                let panda_d = Arc::clone(&panda);
                sim.spawn_daemon_on_lane(
                    machine.lane(),
                    machine.proc(),
                    &format!("{}-rpcd{}", machine.name(), d),
                    move |ctx| loop {
                        let (req, token) = server.get_request(ctx);
                        let slot: SimChannel<Bytes> = SimChannel::new();
                        let ticket = ReplyTicket(TicketInner::Kernel { slot: slot.clone() });
                        let (from, body) = decode_from(&req);
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
                        let reply = slot.recv(ctx).expect("reply slot never closes");
                        server.put_reply(ctx, token, reply);
                    },
                );
            }
            // Group receive daemon: pulls the kernel's ordered stream and
            // upcalls the Panda group handler.
            let member_d = member.clone();
            let panda_g = Arc::clone(&panda);
            sim.spawn_daemon_on_lane(
                machine.lane(),
                machine.proc(),
                &format!("{}-grpd", machine.name()),
                move |ctx| loop {
                    let msg = member_d.recv(ctx);
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
            out.push(panda);
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

    /// The kernel group member (diagnostics).
    pub fn group_member(&self) -> &GroupMember {
        &self.member
    }
}

/// Requests carry the caller's node id in a 4-byte prefix (Panda-level
/// information the Amoeba port field does not provide).
fn encode_from(from: NodeId, body: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(from);
    buf.put_slice(body);
    buf.freeze()
}

fn decode_from(wire: &Bytes) -> (NodeId, Bytes) {
    let from = NodeId::from_be_bytes(wire[..4].try_into().expect("4-byte prefix"));
    (from, wire.slice(4..))
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
            .send(ctx, msg)
            .map(|_seq| ())
            .map_err(|amoeba::GroupError::Timeout| CommError::Timeout)
    }
}
