//! One simulated Amoeba machine: a CPU, a FLIP interface in the kernel, the
//! network receive loop, and the kernel boundary through which all protocol
//! code reaches the network: [`Machine::bind`] and [`Machine::join`] route an
//! address's messages to a kernel handler or a user endpoint, and every frame
//! leaves through one send (charged by [`Machine::kernel_send`],
//! [`Machine::flip_send_syscall`], or a kernel protocol's own system call).
//!
//! A machine runs on its segment's scheduler lane, chosen once by
//! [`Network::add_segment_on`]: boot reads it from the segment, and the
//! machine's [`ProcId`] carries it, so every thread a protocol spawns on
//! [`Machine::proc`] lands on that lane without being told.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::trace::Layer;
use desim::{Ctx, On, ProcId, SimChannel, Simulation};
use ethernet::{MacAddr, McastAddr, Network, SegmentId};
use flip::{FlipAddr, FlipIface, FlipMessage, FLIP_FRAGMENT_BYTES};
use parking_lot::Mutex;

use crate::cost::CostModel;

/// A kernel-resident message handler, run in interrupt context by the
/// network receive loop (it must not block).
pub type KernelHandler = Arc<dyn Fn(&Ctx, FlipMessage) + Send + Sync>;

/// Where the complete messages for a bound address go.
#[derive(Clone)]
pub enum Sink {
    /// A kernel-resident protocol handler.
    Kernel(KernelHandler),
    /// A user-space endpoint: messages are copied out of the kernel into the
    /// channel (so one receive daemon can serve several addresses).
    User(SimChannel<FlipMessage>),
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sink::Kernel(_) => "Sink::Kernel",
            Sink::User(_) => "Sink::User",
        })
    }
}

/// Where a frame goes: one FLIP entity, or every member of a FLIP group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipDest {
    /// One entity, located on first use.
    Addr(FlipAddr),
    /// A group this machine joined; the sender's own copy is dispatched
    /// locally, so a member sees its own group traffic.
    Group(FlipAddr),
}

struct MachineInner {
    name: String,
    proc: ProcId,
    iface: FlipIface,
    /// Shared, not cloned: at fleet scale thousands of machines reference
    /// one calibration instead of each carrying a private copy.
    cost: Arc<CostModel>,
    sinks: Mutex<HashMap<FlipAddr, Sink>>,
    dropped: Mutex<u64>,
}

/// Handle to a booted machine. Clonable; clones share the machine.
#[derive(Clone)]
pub struct Machine {
    inner: Arc<MachineInner>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.inner.name)
            .field("mac", &self.inner.iface.mac())
            .finish()
    }
}

impl Machine {
    /// Boots a machine: adds a processor, attaches a NIC on `segment`, brings
    /// up the kernel FLIP interface, and starts the network receive loop.
    pub fn boot(
        sim: &mut Simulation,
        net: &mut Network,
        segment: SegmentId,
        mac: MacAddr,
        name: &str,
        cost: CostModel,
    ) -> Machine {
        Machine::boot_on(sim, net, segment, mac, name, Arc::new(cost))
    }

    /// Boots a machine on `segment`'s scheduler lane, as [`Machine::boot`]
    /// does, with a shared (`Arc`) cost model, so a fleet of identical
    /// machines carries one copy. The machine talks to the medium through
    /// plain channels, which are only legal within one lane, so its
    /// processor is added on the lane the segment's daemon runs on.
    pub fn boot_on(
        sim: &mut Simulation,
        net: &mut Network,
        segment: SegmentId,
        mac: MacAddr,
        name: &str,
        cost: Arc<CostModel>,
    ) -> Machine {
        let proc = sim.add_processor_on(net.segment_lane(segment), name, cost.context_switch);
        let nic = net.attach(mac, segment);
        let iface = FlipIface::new(nic);
        let machine = Machine {
            inner: Arc::new(MachineInner {
                name: name.to_owned(),
                proc,
                iface,
                cost,
                sinks: Mutex::new(HashMap::new()),
                dropped: Mutex::new(0),
            }),
        };
        let rx_machine = machine.clone();
        sim.spawn_daemon(proc, &format!("{name}-netisr"), move |ctx| {
            rx_machine.rx_loop(ctx);
        });
        // Kernel handlers capture protocol objects that hold this machine;
        // emptying the table is what lets the whole machine be freed.
        let sinks_of = machine.clone();
        sim.on_teardown(move || sinks_of.inner.sinks.lock().clear());
        machine
    }

    /// The kernel network interrupt service loop.
    fn rx_loop(&self, ctx: &Ctx) {
        let rx = self.inner.iface.nic().rx().clone();
        let cost = &self.inner.cost;
        while let Some(frame) = rx.recv(ctx) {
            // Interrupt entry plus kernel per-packet receive processing.
            ctx.charge(
                Layer::Flip,
                On::Interrupt,
                &[
                    ("interrupt", cost.interrupt_overhead),
                    ("kernel_packet_recv", cost.kernel_packet_recv),
                ],
            );
            for msg in self.inner.iface.handle_frame(ctx, &frame) {
                self.dispatch(ctx, msg);
            }
        }
    }

    /// Routes a complete FLIP message to its kernel handler or user endpoint.
    /// Runs in whatever context the caller is in (interrupt for network
    /// arrivals, the calling thread for local loopback).
    fn dispatch(&self, ctx: &Ctx, msg: FlipMessage) {
        let sink = self.inner.sinks.lock().get(&msg.dst).cloned();
        match sink {
            Some(Sink::Kernel(handler)) => handler(ctx, msg),
            Some(Sink::User(channel)) => {
                // Crossing into user space: wakeup bookkeeping plus copying
                // the message out of kernel buffers.
                let cost = &self.inner.cost;
                ctx.charge(
                    Layer::Flip,
                    On::Interrupt,
                    &[
                        ("user_deliver", cost.user_deliver),
                        ("copy", cost.copy(msg.payload.len())),
                    ],
                );
                let _ = channel.send(ctx, msg);
            }
            None => {
                *self.inner.dropped.lock() += 1;
                ctx.trace_instant(
                    Layer::Flip,
                    "no_sink_drop",
                    &[("bytes", msg.payload.len() as u64)],
                );
            }
        }
    }

    /// Binds `addr` to this machine: locates for it resolve here, and its
    /// complete messages go to `sink`.
    pub fn bind(&self, addr: FlipAddr, sink: Sink) {
        self.inner.iface.register(addr);
        self.inner.sinks.lock().insert(addr, sink);
    }

    /// Joins FLIP group `group` (Ethernet multicast `eth`); its messages go
    /// to `sink`.
    pub fn join(&self, group: FlipAddr, eth: McastAddr, sink: Sink) {
        self.inner.iface.join_group(group, eth);
        self.inner.sinks.lock().insert(group, sink);
    }

    /// Transmits `payload` from `src` and dispatches the local copy (a
    /// destination bound here, or a group member's own copy). Charges
    /// nothing: every caller has charged its own entry path.
    pub(crate) fn send(&self, ctx: &Ctx, src: FlipAddr, dst: FlipDest, payload: Bytes) {
        let local = match dst {
            FlipDest::Addr(addr) => self.inner.iface.send(ctx, src, addr, payload),
            FlipDest::Group(group) => self.inner.iface.send_group(ctx, src, group, payload),
        };
        if let Some(local) = local {
            self.dispatch(ctx, local);
        }
    }

    /// Sends from kernel context (a protocol handler or a syscall already
    /// charged by the caller): pays kernel per-packet transmit processing at
    /// interrupt level, then sends.
    pub fn kernel_send(&self, ctx: &Ctx, src: FlipAddr, dst: FlipAddr, payload: Bytes) {
        let c = self.inner.cost.kernel_packet_send * fragments_of(payload.len());
        ctx.charge(Layer::Flip, On::Interrupt, &[("kernel_packet_send", c)]);
        self.send(ctx, src, FlipDest::Addr(dst), payload);
    }

    /// The user-level FLIP send syscall (the extension the paper's user-space
    /// implementation is built on): charges the full trap, unoptimized
    /// interface, copy and per-packet costs on the calling thread, then sends.
    pub fn flip_send_syscall(&self, ctx: &Ctx, src: FlipAddr, dst: FlipDest, payload: Bytes) {
        let cost = &self.inner.cost;
        let (len, frags) = (payload.len(), fragments_of(payload.len()));
        ctx.charge(
            Layer::Flip,
            On::Thread,
            &[
                ("syscall", cost.syscall(cost.deep_call_depth)),
                ("flip_user_interface", cost.flip_user_interface),
                ("copy", cost.copy(len)),
                ("kernel_packet_send", cost.kernel_packet_send * frags),
            ],
        );
        self.send(ctx, src, dst, payload);
    }

    /// The machine's CPU; it carries the machine's scheduler lane.
    pub fn proc(&self) -> ProcId {
        self.inner.proc
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The machine's station address.
    pub fn mac(&self) -> MacAddr {
        self.inner.iface.mac()
    }

    /// The kernel FLIP interface, for routes and counters; frames go
    /// through the machine's sends.
    pub fn iface(&self) -> &FlipIface {
        &self.inner.iface
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Messages that arrived for an address with no registered sink.
    pub fn dropped_messages(&self) -> u64 {
        *self.inner.dropped.lock()
    }
}

/// Number of FLIP fragments a message of `len` bytes needs.
pub fn fragments_of(len: usize) -> u64 {
    len.div_ceil(FLIP_FRAGMENT_BYTES).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counts() {
        assert_eq!(fragments_of(0), 1);
        assert_eq!(fragments_of(1), 1);
        assert_eq!(fragments_of(FLIP_FRAGMENT_BYTES), 1);
        assert_eq!(fragments_of(FLIP_FRAGMENT_BYTES + 1), 2);
        assert_eq!(fragments_of(4096), 3);
    }
}
