//! The Panda **system layer** of the user-space implementation: the
//! OS-dependent bottom of Figure 1.
//!
//! It wraps Amoeba's user-level FLIP system calls, runs the per-node receive
//! daemon that pulls messages out of the kernel and upcalls the RPC or group
//! module, and owns the Panda wire header (64 bytes for RPC, 40 bytes for
//! group traffic — the header sizes the paper compares against Amoeba's 56
//! and 52 bytes).

use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use desim::trace::Layer;
use desim::{Ctx, On, RecvTimeoutError, SimChannel, Simulation};
use ethernet::McastAddr;
use flip::{FlipAddr, FlipMessage};
use parking_lot::Mutex;

use amoeba::{FlipDest, Machine, Sink};

use crate::group::UserGroup;
use crate::transport::NodeId;

/// Panda RPC header size on the wire (paper, Section 4.2).
pub const PANDA_RPC_HEADER_BYTES: usize = 64;

/// Panda group header size on the wire (paper, Section 4.3).
pub const PANDA_GROUP_HEADER_BYTES: usize = 40;

/// FLIP address of node `n`'s Panda endpoint.
pub fn panda_addr(n: NodeId) -> FlipAddr {
    FlipAddr(0x7000_0000_0000_0000 | u64::from(n))
}

/// FLIP group address shared by all Panda nodes of one world.
pub fn panda_group_addr() -> FlipAddr {
    FlipAddr(0x7800_0000_0000_0000)
}

/// Ethernet multicast group backing the Panda FLIP group.
pub fn panda_eth_group() -> McastAddr {
    McastAddr(0x2000)
}

/// Which protocol module a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// Panda RPC.
    Rpc,
    /// Panda totally ordered group communication.
    Group,
}

impl Module {
    fn to_byte(self) -> u8 {
        match self {
            Module::Rpc => 0,
            Module::Group => 1,
        }
    }
    fn from_byte(b: u8) -> Option<Module> {
        match b {
            0 => Some(Module::Rpc),
            1 => Some(Module::Group),
            _ => None,
        }
    }
    /// Header size this module puts on every message.
    fn header_bytes(self) -> usize {
        match self {
            Module::Rpc => PANDA_RPC_HEADER_BYTES,
            Module::Group => PANDA_GROUP_HEADER_BYTES,
        }
    }
}

/// The Panda wire header. Field meaning depends on the module/kind:
/// for RPC `a` is the request sequence number and `b` is unused (0); for
/// group traffic `a` is the global sequence number and `b` the
/// delivery-progress piggyback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PandaHeader {
    /// Protocol module.
    pub module: Module,
    /// Module-specific message kind.
    pub kind: u8,
    /// Originating node (for sequenced group messages: the original sender,
    /// not the sequencer).
    pub src: NodeId,
    /// Per-source message identifier.
    pub msg_id: u64,
    /// Module-specific field (see type docs).
    pub a: u64,
    /// Module-specific field (see type docs).
    pub b: u64,
}

impl PandaHeader {
    /// Encodes the header (padded to the module's wire size) plus `body`.
    pub fn encode_with(&self, body: &[u8]) -> Bytes {
        let size = self.module.header_bytes();
        let mut buf = BytesMut::with_capacity(size + body.len());
        buf.put_u8(self.module.to_byte());
        buf.put_u8(self.kind);
        buf.put_u32(self.src);
        buf.put_u64(self.msg_id);
        buf.put_u64(self.a);
        buf.put_u64(self.b);
        buf.put_bytes(0, size - 30);
        debug_assert_eq!(buf.len(), size);
        buf.put_slice(body);
        buf.freeze()
    }

    /// Decodes a header and returns the remaining body.
    pub fn decode(wire: &Bytes) -> Option<(PandaHeader, Bytes)> {
        if wire.len() < 30 {
            return None;
        }
        let b = &wire[..];
        let module = Module::from_byte(b[0])?;
        if wire.len() < module.header_bytes() {
            return None;
        }
        let rd64 = |o: usize| u64::from_be_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        Some((
            PandaHeader {
                module,
                kind: b[1],
                src: NodeId::from_be_bytes(b[2..6].try_into().expect("4 bytes")),
                msg_id: rd64(6),
                a: rd64(14),
                b: rd64(22),
            },
            wire.slice(module.header_bytes()..),
        ))
    }
}

/// Upcall from the system layer into a protocol module. Runs on the receive
/// daemon thread; must run to completion quickly.
pub type ModuleUpcall = Arc<dyn Fn(&Ctx, PandaHeader, Bytes) + Send + Sync>;

#[derive(Default)]
struct Upcalls {
    rpc: Option<ModuleUpcall>,
    group: Option<Arc<UserGroup>>,
}

/// The per-node system layer: FLIP endpoint registration, the receive
/// daemon, and cost-charged send entry points.
pub struct SysLayer {
    machine: Machine,
    node: NodeId,
    upcalls: Arc<Mutex<Upcalls>>,
}

impl fmt::Debug for SysLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SysLayer")
            .field("node", &self.node)
            .field("machine", &self.machine.name())
            .finish()
    }
}

impl SysLayer {
    /// Brings up the system layer on `machine` as node `node`: registers the
    /// Panda endpoint (and, for a group `member`, the Panda group) with the
    /// kernel and starts the receive daemon.
    pub fn start(
        sim: &mut Simulation,
        machine: &Machine,
        node: NodeId,
        member: bool,
    ) -> Arc<SysLayer> {
        let inbox: SimChannel<FlipMessage> = SimChannel::new();
        let sink = Sink::User(inbox.clone());
        machine.bind(panda_addr(node), sink.clone());
        if member {
            machine.join(panda_group_addr(), panda_eth_group(), sink);
        }
        let sys = Arc::new(SysLayer {
            machine: machine.clone(),
            node,
            upcalls: Arc::default(),
        });
        let daemon_sys = Arc::clone(&sys);
        sim.spawn_daemon(
            machine.proc(),
            &format!("{}-pandad", machine.name()),
            move |ctx| daemon_sys.receive_daemon(ctx, inbox),
        );
        // `UserRpc` (captured by its upcall) and `UserGroup` hold this
        // layer: drop them once nothing can run any more.
        let upcalls = Arc::clone(&sys.upcalls);
        sim.on_teardown(move || *upcalls.lock() = Upcalls::default());
        sys
    }

    /// Installs the RPC module upcall.
    pub fn set_rpc_upcall(&self, up: ModuleUpcall) {
        self.upcalls.lock().rpc = Some(up);
    }

    /// Installs the group module.
    pub(crate) fn set_group(&self, group: Arc<UserGroup>) {
        self.upcalls.lock().group = Some(group);
    }

    /// The system-level receive daemon: fetches messages from the kernel and
    /// upcalls the protocol modules. Being an ordinary thread, every message
    /// it handles costs a context switch (charged by the CPU model) plus the
    /// blocking-receive system call — the structural price of user space.
    /// While no message is waiting, it also serves the group member's
    /// deadline.
    fn receive_daemon(&self, ctx: &Ctx, inbox: SimChannel<FlipMessage>) {
        let cost = self.machine.cost().clone();
        loop {
            let group = self.upcalls.lock().group.clone();
            let fm = match inbox.recv_until(ctx, group.as_ref().and_then(|g| g.next_deadline())) {
                Ok(fm) => fm,
                Err(RecvTimeoutError::Timeout) => {
                    group.expect("a group deadline").on_deadline(ctx);
                    continue;
                }
                Err(RecvTimeoutError::Closed) => return,
            };
            // Return from the blocking receive syscall with Panda's deep
            // stack: all register windows fault back in.
            ctx.charge(
                Layer::Flip,
                On::Thread,
                &[("syscall", cost.syscall(cost.deep_call_depth))],
            );
            let Some((header, body)) = PandaHeader::decode(&fm.payload) else {
                continue;
            };
            let layer = match header.module {
                Module::Rpc => Layer::Rpc,
                Module::Group => Layer::Group,
            };
            ctx.trace_instant(
                layer,
                "sys_upcall",
                &[("src", u64::from(header.src)), ("bytes", body.len() as u64)],
            );
            let rpc = self.upcalls.lock().rpc.clone();
            match (header.module, rpc, group) {
                (Module::Rpc, Some(up), _) => up(ctx, header, body),
                (Module::Group, _, Some(group)) => group.upcall(ctx, header, body),
                _ => {}
            }
        }
    }

    /// Sends a Panda message to node `dst`. Charges Panda's own (portable)
    /// fragmentation layer plus the user-level FLIP send syscall.
    pub fn send(&self, ctx: &Ctx, dst: NodeId, header: PandaHeader, body: &Bytes) {
        let frag = self.machine.cost().fragmentation_layer;
        ctx.charge(Layer::Flip, On::Thread, &[("fragmentation_layer", frag)]);
        let wire = header.encode_with(body);
        let dst = FlipDest::Addr(panda_addr(dst));
        self.machine
            .flip_send_syscall(ctx, panda_addr(self.node), dst, wire);
    }

    /// Multicasts a Panda message to the whole group. `charge_fragmentation`
    /// is false for sequencer traffic: the paper notes double fragmentation
    /// occurs only at the sending member because the sequencer orders at the
    /// fragment level.
    pub fn send_group(
        &self,
        ctx: &Ctx,
        header: PandaHeader,
        body: &Bytes,
        charge_fragmentation: bool,
    ) {
        if charge_fragmentation {
            let frag = self.machine.cost().fragmentation_layer;
            ctx.charge(Layer::Flip, On::Thread, &[("fragmentation_layer", frag)]);
        }
        let wire = header.encode_with(body);
        let dst = FlipDest::Group(panda_group_addr());
        self.machine
            .flip_send_syscall(ctx, panda_addr(self.node), dst, wire);
    }

    /// The node this layer serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The machine this layer runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_rpc() {
        let h = PandaHeader {
            module: Module::Rpc,
            kind: 1,
            src: 3,
            msg_id: 99,
            a: 7,
            b: 6,
        };
        let wire = h.encode_with(b"abc");
        assert_eq!(wire.len(), PANDA_RPC_HEADER_BYTES + 3);
        let (h2, body) = PandaHeader::decode(&wire).expect("decode");
        assert_eq!(h, h2);
        assert_eq!(&body[..], b"abc");
    }

    #[test]
    fn header_roundtrip_group() {
        let h = PandaHeader {
            module: Module::Group,
            kind: 4,
            src: 0,
            msg_id: 1,
            a: 2,
            b: 3,
        };
        let wire = h.encode_with(&[0u8; 100]);
        assert_eq!(wire.len(), PANDA_GROUP_HEADER_BYTES + 100);
        let (h2, body) = PandaHeader::decode(&wire).expect("decode");
        assert_eq!(h, h2);
        assert_eq!(body.len(), 100);
    }

    #[test]
    fn short_or_garbage_rejected() {
        assert!(PandaHeader::decode(&Bytes::from_static(&[1, 2, 3])).is_none());
        let mut junk = vec![0u8; 64];
        junk[0] = 9; // unknown module
        assert!(PandaHeader::decode(&Bytes::from(junk)).is_none());
    }

    proptest::proptest! {
        /// Garbage, and a valid frame of either module cut anywhere, decode
        /// to `None` or a header — never a panic.
        #[test]
        fn decode_never_panics_on_garbage_or_truncation(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
            module in 0u8..2,
            cut in 0usize..120,
        ) {
            let mut garbage = bytes.clone();
            let _ = PandaHeader::decode(&Bytes::from(garbage.clone()));
            if let Some(b) = garbage.first_mut() {
                *b = module; // a known module gets past the first check
            }
            let _ = PandaHeader::decode(&Bytes::from(garbage));
            let module = Module::from_byte(module).expect("0 and 1 are the modules");
            let header = PandaHeader { module, kind: 5, src: 3, msg_id: 9, a: u64::MAX, b: 0 };
            let wire = header.encode_with(&bytes);
            let cut = cut.min(wire.len());
            let decoded = PandaHeader::decode(&wire.slice(..cut));
            assert_eq!(decoded.is_some(), cut >= module.header_bytes());
        }
    }

    #[test]
    fn header_sizes_match_paper() {
        assert_eq!(Module::Rpc.header_bytes(), 64);
        assert_eq!(Module::Group.header_bytes(), 40);
    }
}
