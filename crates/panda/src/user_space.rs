//! Panda implemented with **user-space** protocols over raw FLIP system
//! calls (the right half of Figure 2): the Panda RPC and group protocols,
//! unchanged from their UNIX origins, with only the system layer bound to
//! Amoeba.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::{Ctx, Simulation};

use amoeba::Machine;

use crate::group::UserGroup;
use crate::rpc::UserRpc;
use crate::system::SysLayer;
use crate::transport::{
    CommError, GroupHandler, NodeId, Panda, PandaConfig, ReplyTicket, RpcHandler, TicketInner,
};

/// One node of the user-space Panda implementation.
pub struct UserSpacePanda {
    node: NodeId,
    nodes: u32,
    sys: Arc<SysLayer>,
    rpc: Arc<UserRpc>,
    /// `None` on a client node (see [`PandaConfig::servers`]).
    group: Option<Arc<UserGroup>>,
}

impl fmt::Debug for UserSpacePanda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserSpacePanda")
            .field("node", &self.node)
            .field("machine", &self.sys.machine().name())
            .finish()
    }
}

impl UserSpacePanda {
    /// Builds the user-space Panda world: every machine is an application
    /// node, the servers (every node, unless [`PandaConfig::servers`] says
    /// otherwise) form the group, and `config.sequencer_node` hosts the
    /// sequencer thread alongside its application.
    pub fn build(
        sim: &mut Simulation,
        machines: &[Machine],
        config: &PandaConfig,
    ) -> Vec<Arc<UserSpacePanda>> {
        UserSpacePanda::build_placed(sim, machines, config, false)
    }

    /// [`UserSpacePanda::build`], or with `dedicated` the paper's
    /// "User-space-dedicated" rows: the **last** machine is sacrificed to
    /// run only the sequencer, and `machines.len() - 1` application nodes
    /// are returned. A dedicated world has no servers-only form.
    pub(crate) fn build_placed(
        sim: &mut Simulation,
        machines: &[Machine],
        config: &PandaConfig,
        dedicated: bool,
    ) -> Vec<Arc<UserSpacePanda>> {
        assert!(
            !(dedicated && config.servers.is_some()),
            "a dedicated-sequencer world has no PandaConfig::servers form"
        );
        // A dedicated sequencer is still a member.
        let n_members = config.members(machines.len() as u32);
        let app_nodes = machines.len() as u32 - u32::from(dedicated);
        let sequencer: NodeId = if dedicated {
            app_nodes // the extra machine gets the last member id
        } else {
            config.sequencer_node
        };
        assert!(sequencer < n_members, "sequencer must be a member");
        let mut out = Vec::new();
        for (i, machine) in machines.iter().enumerate() {
            let node = i as NodeId;
            let member = node < n_members;
            let sys = SysLayer::start(sim, machine, node, member);
            let group = member.then(|| {
                UserGroup::start(
                    sim,
                    Arc::clone(&sys),
                    config.group.clone(),
                    n_members,
                    sequencer,
                    dedicated,
                )
            });
            if node < app_nodes {
                let rpc = UserRpc::start(sim, Arc::clone(&sys), config.rpc.clone());
                out.push(Arc::new(UserSpacePanda {
                    node,
                    nodes: app_nodes,
                    sys,
                    rpc,
                    group,
                }));
            } else {
                // Dedicated sequencer machine: member of the group, no
                // application. Deliveries are acknowledged and discarded.
                let group = group.expect("the dedicated sequencer is a member");
                group.set_handler(Arc::new(|_ctx, _msg| {}));
            }
        }
        out
    }

    /// The user-space group module (diagnostics). Panics on a client node.
    pub fn group_module(&self) -> &Arc<UserGroup> {
        self.group
            .as_ref()
            .unwrap_or_else(|| panic!("node {} is a client: it is in no group", self.node))
    }
}

impl Panda for UserSpacePanda {
    fn node(&self) -> NodeId {
        self.node
    }

    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn machine(&self) -> &Machine {
        self.sys.machine()
    }

    fn set_rpc_handler(&self, handler: RpcHandler) {
        self.rpc.set_handler(handler);
    }

    fn set_group_handler(&self, handler: GroupHandler) {
        // A client gets no deliveries, so its handler would never run.
        if let Some(group) = &self.group {
            group.set_handler(handler);
        }
    }

    fn rpc(&self, ctx: &Ctx, dst: NodeId, request: Bytes) -> Result<Bytes, CommError> {
        self.rpc.call(ctx, dst, request)
    }

    fn reply(&self, ctx: &Ctx, ticket: ReplyTicket, reply: Bytes) {
        match ticket.0 {
            TicketInner::User { client, seq } => self.rpc.reply_to(ctx, client, seq, reply),
            TicketInner::Kernel { .. } => {
                panic!("kernel-space ticket answered through the user-space implementation")
            }
        }
    }

    fn group_send(&self, ctx: &Ctx, msg: Bytes) -> Result<(), CommError> {
        self.group_module().send(ctx, msg)
    }
}
