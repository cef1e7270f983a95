//! Structured virtual-time tracing.
//!
//! Every layer of the simulated stack — scheduler, Ethernet, FLIP, the RPC
//! and group protocols, the Orca runtime — can emit [`TraceEvent`]s stamped
//! with the virtual clock, the emitting thread, and its processor. Events
//! land in a bounded ring buffer and simultaneously feed per-processor /
//! per-layer [`CounterSnapshot`]s, so a run can be inspected either as a
//! timeline (see [`chrome_trace_json`]) or as aggregate protocol statistics
//! (retransmits, duplicates, per-category cost totals).
//!
//! Tracing is **zero-cost in virtual time by construction**: emission never
//! sleeps, computes, draws randomness, or schedules wakes, so the virtual
//! clock and every scheduling decision are bit-identical whether tracing is
//! enabled or not. When disabled, the only real-time overhead is one relaxed
//! atomic load per call site.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::core::{ProcId, ThreadId};
use crate::time::SimTime;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The desim scheduler itself (spawn / switch / block / wake).
    Sched,
    /// The shared-medium Ethernet segment model.
    Net,
    /// The FLIP network layer (fragmentation, routing, reassembly).
    Flip,
    /// An RPC protocol, kernel-space (Amoeba) or user-space (Panda).
    Rpc,
    /// A totally ordered group protocol, kernel- or user-space.
    Group,
    /// The Orca runtime system (operation invocation, guards).
    Orca,
    /// Application-level events.
    App,
}

impl Layer {
    /// Stable lower-case name, used as the chrome-trace category.
    pub const fn as_str(self) -> &'static str {
        match self {
            Layer::Sched => "sched",
            Layer::Net => "net",
            Layer::Flip => "flip",
            Layer::Rpc => "rpc",
            Layer::Group => "group",
            Layer::Orca => "orca",
            Layer::App => "app",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Event shape: a point event or one side of a duration span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A point in time.
    Instant,
    /// Span start; must be balanced by an [`Phase::End`] with the same name
    /// on the same thread.
    Begin,
    /// Span end.
    End,
}

/// Maximum number of key/value arguments per event.
pub const MAX_ARGS: usize = 4;

/// Inline, allocation-free argument list of up to [`MAX_ARGS`]
/// `(&'static str, u64)` pairs.
#[derive(Clone, Copy)]
pub struct ArgVec {
    len: u8,
    items: [(&'static str, u64); MAX_ARGS],
}

impl ArgVec {
    /// Builds from a slice, keeping at most [`MAX_ARGS`] entries.
    pub fn from_slice(args: &[(&'static str, u64)]) -> ArgVec {
        let mut items = [("", 0u64); MAX_ARGS];
        let n = args.len().min(MAX_ARGS);
        items[..n].copy_from_slice(&args[..n]);
        ArgVec {
            len: n as u8,
            items,
        }
    }

    /// The populated arguments.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }

    /// Looks up an argument by key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.as_slice()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
}

impl fmt::Debug for ArgVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.as_slice().iter().map(|(k, v)| (*k, *v)))
            .finish()
    }
}

impl PartialEq for ArgVec {
    fn eq(&self, other: &ArgVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for ArgVec {}

/// One structured trace event in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of emission.
    pub time: SimTime,
    /// Processor of the emitting thread.
    pub proc: ProcId,
    /// Emitting thread.
    pub thread: ThreadId,
    /// Stack layer.
    pub layer: Layer,
    /// Event shape.
    pub phase: Phase,
    /// Event name (for cost events: the cost-model category).
    pub name: &'static str,
    /// Key/value arguments; cost events carry `("ns", duration)`.
    pub args: ArgVec,
}

impl TraceEvent {
    /// Compact single-line rendering, stable across runs of the same seed —
    /// the representation golden-trace tests compare.
    pub fn render(&self) -> String {
        let ph = match self.phase {
            Phase::Instant => "i",
            Phase::Begin => "B",
            Phase::End => "E",
        };
        let mut s = format!(
            "{} {} {} {}/{} {}",
            self.time.as_nanos(),
            self.proc,
            self.thread,
            self.layer,
            self.name,
            ph
        );
        for (k, v) in self.args.as_slice() {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

/// Aggregate statistics for one `(processor, layer, event name)` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Processor the events were emitted on.
    pub proc: ProcId,
    /// Emitting layer.
    pub layer: Layer,
    /// Event name.
    pub name: &'static str,
    /// Number of events.
    pub count: u64,
    /// Sum of each event's first argument value (for cost events: total
    /// nanoseconds in that category).
    pub total: u64,
}

#[derive(Default)]
struct CounterCell {
    count: u64,
    total: u64,
}

/// An event name keyed by its call site: compared and hashed by the
/// `&'static str`'s address and length, never by its text. Two sites that
/// emit one text from two addresses get two cells, which
/// [`Tracer::counters`] merges.
struct Site(&'static str);

impl PartialEq for Site {
    fn eq(&self, other: &Site) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}
impl Eq for Site {}

impl Hash for Site {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
        state.write_usize(self.0.len());
    }
}

/// One multiply and rotate per word (the FxHash recipe). The counter keys
/// are a handful of simulator-made words, not adversarial input, so
/// SipHash's flood resistance buys nothing here.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Unused by the counter key, whose every field hashes as an integer.
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The collector: bounded ring buffer plus counters.
pub(crate) struct Tracer {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    counters: HashMap<(ProcId, Layer, Site), CounterCell, BuildHasherDefault<WordHasher>>,
}

impl Tracer {
    pub(crate) fn new(cap: usize) -> Tracer {
        Tracer {
            ring: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
            counters: HashMap::default(),
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        let cell = self
            .counters
            .entry((ev.proc, ev.layer, Site(ev.name)))
            .or_default();
        cell.count += 1;
        cell.total += ev.args.as_slice().first().map_or(0, |(_, v)| *v);
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Hands over the ring's own buffer (oldest first) instead of copying
    /// it; the ring starts over empty. `dropped` and the counters stay.
    pub(crate) fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::from(std::mem::take(&mut self.ring))
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One snapshot per `(processor, layer, name)` text, sorted: cells of
    /// equal text from different call sites are summed.
    pub(crate) fn counters(&self) -> Vec<CounterSnapshot> {
        let mut out: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .map(|((proc, layer, site), cell)| CounterSnapshot {
                proc: *proc,
                layer: *layer,
                name: site.0,
                count: cell.count,
                total: cell.total,
            })
            .collect();
        // HashMap iteration order is nondeterministic; sort for stable output.
        out.sort_by_key(|c| (c.proc, c.layer, c.name));
        // `dedup_by` hands the later element first and keeps the earlier.
        out.dedup_by(|later, kept| {
            let same = (later.proc, later.layer, later.name) == (kept.proc, kept.layer, kept.name);
            if same {
                kept.count += later.count;
                kept.total += later.total;
            }
            same
        });
        out
    }
}

/// Serializes events as a chrome://tracing (Trace Event Format) JSON string.
///
/// `proc_names` and `thread_names` label the `pid`/`tid` rows; pass the
/// values from [`crate::Simulation::proc_names`] /
/// [`crate::Simulation::thread_names`] or your own.
pub fn chrome_trace_json(
    events: &[TraceEvent],
    proc_names: &[String],
    thread_names: &[String],
) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, s: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(s);
    };
    for (pid, name) in proc_names.iter().enumerate() {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
        );
    }
    // Chrome matches thread_name metadata by (pid, tid); every simulated
    // thread lives on exactly one proc, recoverable from its events.
    let mut thread_pid = vec![0usize; thread_names.len()];
    for ev in events {
        if let Some(slot) = thread_pid.get_mut(ev.thread.0) {
            *slot = ev.proc.index();
        }
    }
    for (tid, name) in thread_names.iter().enumerate() {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                thread_pid[tid],
                json_string(name)
            ),
        );
    }
    for ev in events {
        let ph = match ev.phase {
            Phase::Instant => "i",
            Phase::Begin => "B",
            Phase::End => "E",
        };
        let ts_ns = ev.time.as_nanos();
        let mut args = String::new();
        for (i, (k, v)) in ev.args.as_slice().iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            args.push_str(&format!("{}:{v}", json_string(k)));
        }
        let scope = if ev.phase == Phase::Instant {
            ",\"s\":\"t\""
        } else {
            ""
        };
        push(
            &mut out,
            &format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{ph}\"{scope},\
                 \"ts\":{}.{:03},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                json_string(ev.name),
                ev.layer,
                ts_ns / 1_000,
                ts_ns % 1_000,
                ev.proc.index(),
                ev.thread.0,
            ),
        );
    }
    out.push_str("]}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, name: &'static str, phase: Phase, arg: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            proc: ProcId::new(crate::LaneId::ZERO, 0),
            thread: ThreadId(1),
            layer: Layer::Flip,
            phase,
            name,
            args: ArgVec::from_slice(&[("ns", arg)]),
        }
    }

    #[test]
    fn ring_buffer_caps_and_counts() {
        let mut tr = Tracer::new(2);
        tr.record(ev(1, "a", Phase::Instant, 10));
        tr.record(ev(2, "a", Phase::Instant, 20));
        tr.record(ev(3, "b", Phase::Instant, 5));
        assert_eq!(tr.dropped(), 1);
        let events = tr.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        let counters = tr.counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "a");
        assert_eq!(counters[0].count, 2);
        assert_eq!(counters[0].total, 30);
    }

    /// Counters are keyed by call site, but two sites emitting one text
    /// still read as one counter.
    #[test]
    fn equal_text_at_two_addresses_is_one_counter() {
        let one: &'static str = String::from("send").leak();
        let two: &'static str = String::from("send").leak();
        assert!(!std::ptr::eq(one, two));
        let mut tr = Tracer::new(8);
        tr.record(ev(1, one, Phase::Instant, 10));
        tr.record(ev(2, two, Phase::Instant, 20));
        tr.record(ev(3, one, Phase::Instant, 5));
        tr.record(ev(4, "recv", Phase::Instant, 1));
        let counters = tr.counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "recv");
        assert_eq!((counters[0].count, counters[0].total), (1, 1));
        assert_eq!(counters[1].name, "send");
        assert_eq!((counters[1].count, counters[1].total), (3, 35));
    }

    #[test]
    fn argvec_truncates_and_looks_up() {
        let a = ArgVec::from_slice(&[("x", 1), ("y", 2), ("z", 3), ("w", 4), ("v", 5)]);
        assert_eq!(a.as_slice().len(), MAX_ARGS);
        assert_eq!(a.get("y"), Some(2));
        assert_eq!(a.get("v"), None);
    }

    #[test]
    fn chrome_json_is_balanced() {
        let events = vec![
            ev(1_500, "frame", Phase::Begin, 0),
            ev(2_500, "frame", Phase::End, 0),
            ev(3_000, "drop\"quote", Phase::Instant, 7),
        ];
        let json = chrome_trace_json(&events, &["m0".into()], &["t0".into(), "t1".into()]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\\\"quote"));
        assert!(json.contains("\"ph\":\"B\""));
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(
            ev(42, "cost", Phase::Instant, 9).render(),
            "42 p0 t1 flip/cost i ns=9"
        );
    }
}
