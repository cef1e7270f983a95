//! The host side of the two clocks: wall and CPU time, resident memory, and
//! the host-shape guard that keeps the environment from silently changing
//! what is measured.

use std::time::Instant;

use orca_panda::desim::{self, Backend};

/// Environment ladders the measured crates read. The apps and the chaos
/// engine build their `Simulation` internally, so a stray value would change
/// the backend, the runner count, the app scale or (`CHAOS_DUMP`) make every
/// chaos run print its trace, without a trace in the command line.
pub const GUARDED_ENV: [&str; 4] = [
    "DESIM_BACKEND",
    "DESIM_SHARDS",
    "TABLE3_SCALE",
    "CHAOS_DUMP",
];

/// Removes the guarded variables and pins one runner thread per simulation.
/// Returns the variables that were set. Call once, before any simulation
/// exists and before any thread is spawned.
pub fn pin_host_shape() -> Vec<&'static str> {
    let mut unset = Vec::new();
    for var in GUARDED_ENV {
        if std::env::var_os(var).is_some() {
            std::env::remove_var(var);
            unset.push(var);
        }
    }
    // `shards = auto` would give multi-lane worlds one runner per core; the
    // scoreboard measures one OS thread per workload.
    desim::set_shards_override(Some(1));
    unset
}

/// The shape every rep of a run is pinned to, for the run's output.
pub fn describe_shape(unset: &[&str]) -> String {
    format!(
        "nproc={} backend={} shards=1 jobs=1 rustc=\"{}\" unset={unset:?}",
        nproc(),
        Backend::default_backend(),
        rustc_version()
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Linux reports process CPU time in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`); there is no libc here to ask `sysconf`.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`. Zero where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields are counted after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_SEC,
        _ => 0.0,
    }
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) of this process in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// A started wall + CPU stopwatch for one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since the start.
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mib() > 0.5);
        assert!(rss_bytes() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() >= before + 0.03,
            "60 ms of spinning shows as CPU time"
        );
    }
}
