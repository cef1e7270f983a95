//! Attribution: how much of a composite workload's host time the layer
//! probes' unit costs explain. Each workload multiplies its own operation
//! counts with the unit costs below; what is left over is
//! `attrib.residual_pct`, the honest "we do not know yet" number until spans
//! exist inside the program.

use crate::harness::Metrics;
use crate::workloads::Stack;

/// Payload bytes one FLIP fragment carries.
const FRAGMENT_BYTES: f64 = orca_panda::flip::FLIP_FRAGMENT_BYTES as f64;

/// Frames a message of `bytes` payload is sent as.
pub fn fragments(bytes: f64) -> f64 {
    (bytes / FRAGMENT_BYTES).ceil().max(1.0)
}

/// Host µs of one `proto` ("rpc" or "group") operation carrying `bytes` on
/// `stack`: linear between the null and the 4 KB unit-cost cells.
pub fn op_cost_us(units: &Metrics, stack: Stack, proto: &str, bytes: f64) -> f64 {
    let cell = |size: &str| units[&format!("{}.{proto}.host_us_{size}", stack.layer())];
    let (null, k4) = (cell("null"), cell("4k"));
    null + (k4 - null) * bytes / 4096.0
}

/// Share of `wall_s` that `explained_s` does not cover, in %. Negative when
/// the model over-explains (unit costs measured in isolation overlap less
/// than they do in the workload).
pub fn residual_pct(wall_s: f64, explained_s: f64) -> f64 {
    100.0 * (wall_s - explained_s) / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_interpolates_between_the_unit_cells() {
        let mut units = Metrics::new();
        units.insert("panda.rpc.host_us_null".into(), 8.0);
        units.insert("panda.rpc.host_us_4k".into(), 12.0);
        assert_eq!(op_cost_us(&units, Stack::User, "rpc", 0.0), 8.0);
        assert_eq!(op_cost_us(&units, Stack::User, "rpc", 2048.0), 10.0);
        assert_eq!(op_cost_us(&units, Stack::User, "rpc", 4096.0), 12.0);
        assert_eq!(fragments(0.0), 1.0);
        assert_eq!(fragments(8000.0), 6.0);
        assert_eq!(residual_pct(2.0, 1.5), 25.0);
    }
}
