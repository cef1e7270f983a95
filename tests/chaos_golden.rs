//! Golden chaos trace (ISSUE 2, satellite 3): one *fixed* fault plan —
//! seeded receiver loss plus a crash/reboot of the sequencer machine in the
//! middle of the run — with the resulting trace hash pinned for both stacks.
//!
//! The chaos engine's whole value rests on `seed → plan → execution` being
//! one reproducible pipeline; this test freezes one point of that pipeline
//! forever. If a protocol change legitimately shifts the execution,
//! regenerate the constants with
//! `CHAOS_GOLDEN_DUMP=1 cargo test --test chaos_golden -- --nocapture`.

use chaos::engine::{run_chaos, ChaosConfig};
use chaos::plan::{FaultPlan, TimedFault, TimedKind};
use chaos::Stack;
use desim::SimDuration;
use ethernet::MacAddr;

/// The frozen plan: 5% receiver loss through the fault horizon, and the
/// sequencer's machine (machine 0 in both stacks' default configuration)
/// crashing at 30 ms and rebooting at 90 ms — the scenario that forces
/// full group-protocol recovery: the rebooted sequencer must be brought
/// back up to date and every member's gap closed.
fn golden_config(stack: Stack) -> ChaosConfig {
    let mut cfg = ChaosConfig::for_seed(stack, 0x60_1d, 12, 8, SimDuration::from_millis(500));
    cfg.plan = FaultPlan {
        rx_loss_prob: 0.05,
        timed: vec![TimedFault {
            at: SimDuration::from_millis(30),
            until: SimDuration::from_millis(90),
            kind: TimedKind::Crash(MacAddr(0)),
        }],
        ..FaultPlan::default()
    };
    cfg
}

fn check_golden(stack: Stack, pinned: u64) {
    let cfg = golden_config(stack);
    let a = run_chaos(&cfg);
    assert_eq!(
        a.violations,
        Vec::<String>::new(),
        "{}: the golden plan must pass all invariants",
        stack.name()
    );
    assert_eq!(a.rpc_ok, cfg.rpcs, "{}: every RPC recovers", stack.name());
    let b = run_chaos(&cfg);
    assert_eq!(
        a.trace_hash,
        b.trace_hash,
        "{}: the same plan must replay bit-identically",
        stack.name()
    );
    if std::env::var_os("CHAOS_GOLDEN_DUMP").is_some() {
        println!("{}: 0x{:016x}", stack.name(), a.trace_hash);
        return;
    }
    assert_eq!(
        a.trace_hash,
        pinned,
        "{}: chaos execution diverged from the pinned golden hash \
         (regenerate with CHAOS_GOLDEN_DUMP=1 if the change is deliberate)",
        stack.name()
    );
}

#[test]
fn kernel_stack_sequencer_crash_golden() {
    check_golden(Stack::Kernel, KERNEL_GOLDEN_HASH);
}

#[test]
fn user_stack_sequencer_crash_golden() {
    check_golden(Stack::User, USER_GOLDEN_HASH);
}

const KERNEL_GOLDEN_HASH: u64 = 0x2f72_03f6_a96a_f5f7;
const USER_GOLDEN_HASH: u64 = 0x805e_3a62_7bdb_69da;
