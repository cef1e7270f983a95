//! One simulated Amoeba machine: a CPU, a FLIP interface in the kernel, the
//! network receive loop, and the cost-charging entry points through which all
//! protocol code reaches the network.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use desim::trace::Layer;
use desim::{Ctx, LaneId, On, ProcId, SimChannel, Simulation};
use ethernet::{MacAddr, McastAddr, Network, SegmentId};
use flip::{FlipAddr, FlipIface, FlipMessage, FLIP_FRAGMENT_BYTES};
use parking_lot::Mutex;

use crate::cost::CostModel;

/// A kernel-resident message handler, run in interrupt context by the
/// network receive loop (it must not block).
pub type KernelHandler = Arc<dyn Fn(&Ctx, FlipMessage) + Send + Sync>;

enum Sink {
    Kernel(KernelHandler),
    User(SimChannel<FlipMessage>),
}

struct MachineInner {
    name: String,
    proc: ProcId,
    lane: LaneId,
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
        Machine::boot_on(sim, net, segment, mac, name, Arc::new(cost), LaneId::ZERO)
    }

    /// Boots a machine on a specific scheduler lane. The lane must be the
    /// lane `segment`'s daemon runs on: a machine interacts with the medium
    /// through plain channels, which are only legal within one lane. The
    /// cost model is shared (`Arc`), so a fleet of identical machines
    /// carries one copy.
    pub fn boot_on(
        sim: &mut Simulation,
        net: &mut Network,
        segment: SegmentId,
        mac: MacAddr,
        name: &str,
        cost: Arc<CostModel>,
        lane: LaneId,
    ) -> Machine {
        assert_eq!(
            net.segment_lane(segment),
            lane,
            "machine {name} must boot on its segment's lane (NIC channels do not cross lanes)"
        );
        let proc = sim.add_processor_with_switch_cost_on(lane, name, cost.context_switch);
        let nic = net.attach(mac, segment);
        let iface = FlipIface::new(nic);
        let machine = Machine {
            inner: Arc::new(MachineInner {
                name: name.to_owned(),
                proc,
                lane,
                iface,
                cost,
                sinks: Mutex::new(HashMap::new()),
                dropped: Mutex::new(0),
            }),
        };
        let rx_machine = machine.clone();
        sim.spawn_daemon_on_lane(lane, proc, &format!("{name}-netisr"), move |ctx| {
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
    pub(crate) fn dispatch(&self, ctx: &Ctx, msg: FlipMessage) {
        let sink = {
            let sinks = self.inner.sinks.lock();
            match sinks.get(&msg.dst) {
                Some(Sink::Kernel(h)) => Some(Ok(Arc::clone(h))),
                Some(Sink::User(ch)) => Some(Err(ch.clone())),
                None => None,
            }
        };
        match sink {
            Some(Ok(handler)) => handler(ctx, msg),
            Some(Err(channel)) => {
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

    /// Registers a kernel-resident protocol handler for `addr`.
    pub fn register_kernel_handler(&self, addr: FlipAddr, handler: KernelHandler) {
        self.inner.iface.register(addr);
        self.inner.sinks.lock().insert(addr, Sink::Kernel(handler));
    }

    /// Registers a user-space endpoint; complete messages for `addr` are
    /// copied out of the kernel into the returned channel.
    pub fn register_user_endpoint(&self, addr: FlipAddr) -> SimChannel<FlipMessage> {
        let ch = SimChannel::new();
        self.register_user_endpoint_into(addr, ch.clone());
        ch
    }

    /// Registers a user-space endpoint delivering into an existing channel
    /// (so one receive daemon can serve several addresses).
    pub fn register_user_endpoint_into(&self, addr: FlipAddr, ch: SimChannel<FlipMessage>) {
        self.inner.iface.register(addr);
        self.inner.sinks.lock().insert(addr, Sink::User(ch));
    }

    /// Joins FLIP group `group` (Ethernet multicast `eth`) with a
    /// kernel-resident handler.
    pub fn join_kernel_group(&self, group: FlipAddr, eth: McastAddr, handler: KernelHandler) {
        self.inner.iface.join_group(group, eth);
        self.inner.sinks.lock().insert(group, Sink::Kernel(handler));
    }

    /// Joins FLIP group `group` with delivery to a user-space endpoint.
    pub fn join_user_group(&self, group: FlipAddr, eth: McastAddr) -> SimChannel<FlipMessage> {
        let ch = SimChannel::new();
        self.join_user_group_into(group, eth, ch.clone());
        ch
    }

    /// Joins FLIP group `group` delivering into an existing channel.
    pub fn join_user_group_into(
        &self,
        group: FlipAddr,
        eth: McastAddr,
        ch: SimChannel<FlipMessage>,
    ) {
        self.inner.iface.join_group(group, eth);
        self.inner.sinks.lock().insert(group, Sink::User(ch));
    }

    /// Removes the sink (kernel or user) registered for `addr`.
    pub fn unregister(&self, addr: FlipAddr) {
        self.inner.iface.unregister(addr);
        self.inner.sinks.lock().remove(&addr);
    }

    /// Sends from kernel context (a protocol handler or a syscall already
    /// charged by the caller): pays kernel per-packet transmit processing at
    /// interrupt level and short-circuits local destinations through the
    /// dispatch table.
    pub fn kernel_send(&self, ctx: &Ctx, src: FlipAddr, dst: FlipAddr, payload: Bytes) {
        let c = self.inner.cost.kernel_packet_send * fragments_of(payload.len());
        ctx.charge(Layer::Flip, On::Interrupt, &[("kernel_packet_send", c)]);
        if let Some(local) = self.inner.iface.send(ctx, src, dst, payload) {
            self.dispatch(ctx, local);
        }
    }

    /// Multicasts from kernel context; the local copy (FLIP groups do not
    /// loop frames back) is dispatched through the local sink.
    pub fn kernel_send_group(&self, ctx: &Ctx, src: FlipAddr, group: FlipAddr, payload: Bytes) {
        let c = self.inner.cost.kernel_packet_send * fragments_of(payload.len());
        ctx.charge(Layer::Flip, On::Interrupt, &[("kernel_packet_send", c)]);
        if let Some(local) = self.inner.iface.send_group(ctx, src, group, payload) {
            self.dispatch(ctx, local);
        }
    }

    /// The user-level FLIP send syscall (the extension the paper's user-space
    /// implementation is built on): charges the full trap, copy, per-packet,
    /// and unoptimized-interface costs on the calling thread, then transmits.
    pub fn flip_send_syscall(&self, ctx: &Ctx, src: FlipAddr, dst: FlipAddr, payload: Bytes) {
        self.charge_flip_syscall(ctx, payload.len());
        if let Some(local) = self.inner.iface.send(ctx, src, dst, payload) {
            self.dispatch(ctx, local);
        }
    }

    /// The user-level FLIP multicast syscall; same cost structure as
    /// [`Machine::flip_send_syscall`]. The local copy is dispatched so a
    /// member machine sees its own group traffic.
    pub fn flip_send_group_syscall(
        &self,
        ctx: &Ctx,
        src: FlipAddr,
        group: FlipAddr,
        payload: Bytes,
    ) {
        self.charge_flip_syscall(ctx, payload.len());
        if let Some(local) = self.inner.iface.send_group(ctx, src, group, payload) {
            self.dispatch(ctx, local);
        }
    }

    /// Charges the FLIP send syscall for `len` payload bytes on the calling
    /// thread: trap, unoptimized interface, copy and per-packet processing.
    fn charge_flip_syscall(&self, ctx: &Ctx, len: usize) {
        let (cost, frags) = (&self.inner.cost, fragments_of(len));
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
    }

    /// The machine's CPU.
    pub fn proc(&self) -> ProcId {
        self.inner.proc
    }

    /// The scheduler lane the machine (its processor and all its daemons)
    /// runs on. [`ProcId`]s are per-lane indices, so protocol modules that
    /// spawn threads on [`Machine::proc`] must do so on this lane.
    pub fn lane(&self) -> LaneId {
        self.inner.lane
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The machine's station address.
    pub fn mac(&self) -> MacAddr {
        self.inner.iface.mac()
    }

    /// The kernel FLIP interface (for protocol modules in this crate and for
    /// tests; user code goes through the syscall wrappers).
    pub fn iface(&self) -> &FlipIface {
        &self.inner.iface
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The shared handle to the cost model (for booting further machines
    /// without duplicating the calibration).
    pub fn cost_shared(&self) -> Arc<CostModel> {
        Arc::clone(&self.inner.cost)
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
