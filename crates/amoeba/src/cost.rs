//! The calibrated cost model of the simulated Amoeba/SPARC machines.
//!
//! Every constant is a knob: the ablation benchmark zeroes them one at a time
//! to reproduce the paper's Section 4 accounting of where the user-space
//! overhead comes from. Defaults are calibrated so the Table 1/2
//! micro-benchmarks land close to the published 50 MHz SPARCstation numbers.

use desim::SimDuration;

/// Size of the Amoeba kernel RPC header (paper, Section 4.2).
pub const AMOEBA_RPC_HEADER_BYTES: usize = 56;

/// Size of the Amoeba kernel group protocol header (paper, Section 4.3).
pub const AMOEBA_GROUP_HEADER_BYTES: usize = 52;

/// Per-operation CPU costs of the simulated machines.
///
/// All costs are charged through `desim`'s `Ctx::charge`, which attributes
/// each term and occupies the CPU: `On::Thread` (subject to context-switch
/// charges and interrupt preemption) or `On::Interrupt` (which preempts
/// thread work).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Full thread context switch (the paper measures two of these, 140 µs,
    /// on the user-space RPC client path).
    pub context_switch: SimDuration,
    /// Entering the kernel: trap plus saving the register windows in use.
    pub syscall_enter: SimDuration,
    /// One register-window underflow trap on the way back to user space
    /// (about 6 µs on the 50 MHz SPARC; Amoeba restores only the topmost
    /// window, so deep call stacks fault the rest back in one by one).
    pub window_trap: SimDuration,
    /// Taking a network interrupt (software interrupt entry/exit).
    pub interrupt_overhead: SimDuration,
    /// Kernel protocol processing to transmit one packet.
    pub kernel_packet_send: SimDuration,
    /// Kernel protocol processing to receive one packet.
    pub kernel_packet_recv: SimDuration,
    /// Protocol-layer processing per message hop (header construction,
    /// connection state, timer management) in either RPC or group stack.
    pub protocol_layer: SimDuration,
    /// Copying one byte across the user/kernel boundary.
    pub copy_byte: SimDuration,
    /// Crossing into user space to deliver a message to a user-level
    /// endpoint (address-space crossing plus wakeup bookkeeping).
    pub user_deliver: SimDuration,
    /// Extra cost of the unoptimized user-level FLIP interface (the paper's
    /// unexplained 54 µs RPC / 30 µs group gap: user-to-kernel address
    /// translation and friends).
    pub flip_user_interface: SimDuration,
    /// Running one extra (portable, user-space) fragmentation layer over a
    /// message — the paper charges 20 µs per message for Panda's double
    /// fragmentation.
    pub fragmentation_layer: SimDuration,
    /// Dispatch from the interrupt handler to a user-space sequencer thread:
    /// interrupt runs to completion, the scheduler is invoked, contexts are
    /// switched (110 µs in the paper).
    pub sequencer_thread_switch: SimDuration,
    /// The same dispatch when the sequencer machine is dedicated: the
    /// sequencer context is still loaded (60 µs in the paper).
    pub sequencer_thread_switch_dedicated: SimDuration,
    /// Number of register windows a shallow (kernel wrapper) call stack
    /// faults back in after a syscall.
    pub shallow_call_depth: u64,
    /// Number of register windows Panda's deeper layering faults back in
    /// (all six on the paper's SPARCs).
    pub deep_call_depth: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            context_switch: SimDuration::from_micros(70),
            syscall_enter: SimDuration::from_micros(20),
            window_trap: SimDuration::from_micros(6),
            interrupt_overhead: SimDuration::from_micros(25),
            kernel_packet_send: SimDuration::from_micros(55),
            kernel_packet_recv: SimDuration::from_micros(65),
            protocol_layer: SimDuration::from_micros(110),
            copy_byte: SimDuration::from_nanos(50),
            user_deliver: SimDuration::from_micros(35),
            flip_user_interface: SimDuration::from_micros(25),
            fragmentation_layer: SimDuration::from_micros(20),
            sequencer_thread_switch: SimDuration::from_micros(110),
            sequencer_thread_switch_dedicated: SimDuration::from_micros(60),
            shallow_call_depth: 3,
            deep_call_depth: 6,
        }
    }
}

impl CostModel {
    /// Cost of a system call with `windows` register windows to fault back.
    pub fn syscall(&self, windows: u64) -> SimDuration {
        self.syscall_enter + self.window_trap * windows
    }

    /// Cost of copying `bytes` across the user/kernel boundary.
    pub fn copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.copy_byte.as_nanos() * bytes as u64)
    }

    /// A cost model with every charge zeroed; the baseline for ablation.
    pub fn free() -> Self {
        CostModel {
            context_switch: SimDuration::ZERO,
            syscall_enter: SimDuration::ZERO,
            window_trap: SimDuration::ZERO,
            interrupt_overhead: SimDuration::ZERO,
            kernel_packet_send: SimDuration::ZERO,
            kernel_packet_recv: SimDuration::ZERO,
            protocol_layer: SimDuration::ZERO,
            copy_byte: SimDuration::ZERO,
            user_deliver: SimDuration::ZERO,
            flip_user_interface: SimDuration::ZERO,
            fragmentation_layer: SimDuration::ZERO,
            sequencer_thread_switch: SimDuration::ZERO,
            sequencer_thread_switch_dedicated: SimDuration::ZERO,
            shallow_call_depth: 0,
            deep_call_depth: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::us;

    #[test]
    fn syscall_scales_with_window_depth() {
        let c = CostModel::default();
        assert_eq!(c.syscall(0), c.syscall_enter);
        assert_eq!(c.syscall(6) - c.syscall(0), us(36));
    }

    #[test]
    fn copy_scales_with_bytes() {
        let c = CostModel::default();
        assert_eq!(c.copy(1000), us(50));
        assert_eq!(c.copy(0), SimDuration::ZERO);
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = CostModel::free();
        assert_eq!(c.syscall(6), SimDuration::ZERO);
        assert_eq!(c.copy(4096), SimDuration::ZERO);
    }
}
