//! Seeds that used to sequence one `(sender, msg_id)` twice: the sequencer
//! forgot a message was sequenced when it trimmed the history entry, so a
//! late copy of the request (wire duplicate, reorder, or a sender
//! retransmit whose original was merely slow) got a second sequence number.
//! Sweep defaults: 10 RPCs, 8 broadcasts, 500 ms.

use chaos::{run_chaos, ChaosConfig, Stack};
use desim::SimDuration;

fn passes(stack: Stack, seed: u64) {
    let cfg = ChaosConfig::for_seed(stack, seed, 10, 8, SimDuration::from_millis(500));
    let out = run_chaos(&cfg);
    assert_eq!(
        out.violations,
        Vec::<String>::new(),
        "{stack:?} seed {seed}"
    );
}

#[test]
fn kernel_seeds_13907_and_15174_sequence_each_message_once() {
    passes(Stack::Kernel, 13907);
    passes(Stack::Kernel, 15174);
}

#[test]
fn user_seeds_3263_and_27504_sequence_each_message_once() {
    passes(Stack::User, 3263);
    passes(Stack::User, 27504);
}
