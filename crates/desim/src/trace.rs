//! Structured virtual-time tracing.
//!
//! Every layer of the simulated stack — scheduler, Ethernet, FLIP, the RPC
//! and group protocols, the Orca runtime — can emit [`TraceEvent`]s stamped
//! with the virtual clock, the emitting thread, and its processor. Every
//! event feeds per-processor / per-layer [`CounterSnapshot`]s and a
//! per-processor clock check ([`ClockViolation`]); a bounded ring buffer
//! keeps the most recent events too, unless its capacity is 0
//! (counters only). A run can thus be inspected either as a timeline (see
//! [`chrome_trace_json`]) or as aggregate protocol statistics (retransmits,
//! duplicates, per-category cost totals).
//!
//! The counters are a dense table: each lane's tracer numbers a call site
//! (layer and name address) the first time it sees it, and each processor
//! keeps a row of cells indexed by that number, so counting an event is
//! one probe and one array index.
//!
//! Tracing is **zero-cost in virtual time by construction**: emission never
//! sleeps, computes, draws randomness, or schedules wakes, so the virtual
//! clock and every scheduling decision are bit-identical whether tracing is
//! enabled or not. When disabled, the only real-time overhead is one relaxed
//! atomic load per call site.

use std::collections::VecDeque;
use std::fmt;

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

#[derive(Clone, Copy, Default)]
struct CounterCell {
    count: u64,
    total: u64,
}

/// Dense ids for trace sites, handed out in first-use order. A site is a
/// `(layer, name)` pair keyed by the name's address and length, never by
/// its text: two sites that emit one text from two addresses get two ids,
/// which [`Tracer::counters`] merges. A run uses a few dozen sites, so the
/// table is open-addressed (linear probing, power-of-two size, at most
/// half full) and a hit is one probe.
struct CallSites {
    /// A site id per slot, or [`CallSites::FREE`].
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick the home slot.
    shift: u32,
    /// Each id's site.
    keys: Vec<(Layer, &'static str)>,
}

impl CallSites {
    const FREE: u32 = u32::MAX;

    fn new() -> CallSites {
        CallSites {
            slots: vec![CallSites::FREE; 64],
            shift: 64 - 6,
            keys: Vec::new(),
        }
    }

    /// Fibonacci hashing of the name's address and length and the layer.
    fn home(shift: u32, layer: Layer, name: &'static str) -> usize {
        let word = name.as_ptr() as u64 ^ ((name.len() as u64) << 40) ^ ((layer as u64) << 56);
        (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
    }

    /// The id of `(layer, name)`, assigned on its first use.
    #[inline]
    fn id(&mut self, layer: Layer, name: &'static str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = CallSites::home(self.shift, layer, name);
        loop {
            let id = self.slots[slot];
            if id == CallSites::FREE {
                return self.insert(slot, layer, name);
            }
            let (l, n) = self.keys[id as usize];
            if l == layer && std::ptr::eq(n, name) {
                return id as usize;
            }
            slot = (slot + 1) & mask;
        }
    }

    #[cold]
    fn insert(&mut self, slot: usize, layer: Layer, name: &'static str) -> usize {
        let id = self.keys.len();
        self.keys.push((layer, name));
        self.slots[slot] = u32::try_from(id).expect("fewer than u32::MAX trace sites");
        if 2 * self.keys.len() > self.slots.len() {
            self.shift -= 1;
            self.slots = vec![CallSites::FREE; 2 * self.slots.len()];
            let mask = self.slots.len() - 1;
            for (id, &(layer, name)) in self.keys.iter().enumerate() {
                let mut slot = CallSites::home(self.shift, layer, name);
                while self.slots[slot] != CallSites::FREE {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = id as u32;
            }
        }
        id
    }
}

/// One processor's counters, indexed by site id, and its clock.
#[derive(Default)]
struct ProcRow {
    /// The processor, once an event has named its index.
    proc: Option<ProcId>,
    /// Instant of its last event.
    last: SimTime,
    cells: Vec<CounterCell>,
}

/// The first event that ran its processor's clock backwards: emitted at
/// `at`, after an earlier event on the same processor at `prev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockViolation {
    /// Processor whose clock ran backwards.
    pub proc: ProcId,
    /// Instant of the processor's previous event.
    pub prev: SimTime,
    /// Instant of the offending event, earlier than `prev`.
    pub at: SimTime,
    /// Layer of the offending event.
    pub layer: Layer,
    /// Name of the offending event.
    pub name: &'static str,
}

/// The collector: a dense counter table, a per-processor clock check, and
/// a bounded ring of events when its capacity is not 0.
pub(crate) struct Tracer {
    ring: VecDeque<TraceEvent>,
    /// Ring capacity; 0 keeps no ring.
    cap: usize,
    dropped: u64,
    sites: CallSites,
    /// Indexed by processor index.
    procs: Vec<ProcRow>,
    clock_violation: Option<ClockViolation>,
}

impl Tracer {
    pub(crate) fn new(cap: usize) -> Tracer {
        Tracer {
            ring: VecDeque::new(),
            cap,
            dropped: 0,
            sites: CallSites::new(),
            procs: Vec::new(),
            clock_violation: None,
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        let site = self.sites.id(ev.layer, ev.name);
        let i = ev.proc.index();
        if i >= self.procs.len() {
            self.procs.resize_with(i + 1, ProcRow::default);
        }
        let row = &mut self.procs[i];
        row.proc = Some(ev.proc);
        if site >= row.cells.len() {
            row.cells.resize(site + 1, CounterCell::default());
        }
        let cell = &mut row.cells[site];
        cell.count += 1;
        cell.total += ev.args.as_slice().first().map_or(0, |(_, v)| *v);
        let prev = std::mem::replace(&mut row.last, ev.time);
        if ev.time < prev && self.clock_violation.is_none() {
            self.clock_violation = Some(ClockViolation {
                proc: ev.proc,
                prev,
                at: ev.time,
                layer: ev.layer,
                name: ev.name,
            });
        }
        if self.cap == 0 {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    pub(crate) fn clock_violation(&self) -> Option<ClockViolation> {
        self.clock_violation
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
        let keys = &self.sites.keys;
        let mut out: Vec<CounterSnapshot> = self
            .procs
            .iter()
            .filter_map(|row| Some((row.proc?, &row.cells)))
            .flat_map(|(proc, cells)| {
                cells
                    .iter()
                    .zip(keys)
                    .filter(|(cell, _)| cell.count > 0)
                    .map(move |(cell, &(layer, name))| CounterSnapshot {
                        proc,
                        layer,
                        name,
                        count: cell.count,
                        total: cell.total,
                    })
            })
            .collect();
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

    /// `counters()` against a reference model — a plain map keyed by text,
    /// which sorts and merges by construction — over random streams that
    /// mix sparse processor indices, one name in two layers, one text at
    /// two addresses, and first arguments of 0 or none at all.
    #[test]
    fn counters_match_a_text_keyed_reference_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let other_send: &'static str = String::from("send").leak();
        // Enough sites in three layers to grow the site table twice.
        let mut names = vec!["send", other_send, "recv", "retransmit", "switch"];
        names.extend((0..40).map(|i| &*format!("site{i}").leak()));
        let layers = [Layer::Rpc, Layer::Group, Layer::Sched];
        let procs = [0, 3, 9, 40].map(|i| ProcId::new(crate::LaneId::ZERO, i));
        fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
            from[rng.random_range(0..from.len() as u64) as usize]
        }
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.random_range(0..1_000);
            let stream: Vec<TraceEvent> = (0..n)
                .map(|t| {
                    let args = match rng.random_range(0..3) {
                        0 => ArgVec::from_slice(&[]),
                        1 => ArgVec::from_slice(&[("ns", 0), ("x", 7)]),
                        _ => ArgVec::from_slice(&[("ns", rng.random_range(1..1_000))]),
                    };
                    TraceEvent {
                        time: SimTime::from_nanos(t),
                        proc: pick(&mut rng, &procs),
                        thread: ThreadId(1),
                        layer: pick(&mut rng, &layers),
                        phase: Phase::Instant,
                        name: pick(&mut rng, &names),
                        args,
                    }
                })
                .collect();
            let mut model: BTreeMap<(ProcId, Layer, &str), (u64, u64)> = BTreeMap::new();
            for e in &stream {
                let cell = model.entry((e.proc, e.layer, e.name)).or_default();
                cell.0 += 1;
                cell.1 += e.args.as_slice().first().map_or(0, |(_, v)| *v);
            }
            let want: Vec<CounterSnapshot> = model
                .into_iter()
                .map(|((proc, layer, name), (count, total))| CounterSnapshot {
                    proc,
                    layer,
                    name,
                    count,
                    total,
                })
                .collect();
            for cap in [0usize, 1, 8] {
                let mut tr = Tracer::new(cap);
                stream.iter().cloned().for_each(|e| tr.record(e));
                assert_eq!(tr.counters(), want, "seed {seed}, ring capacity {cap}");
                // A ring of capacity 0 does not exist, so it evicts nothing.
                let kept = (n as usize).min(cap);
                let dropped = if cap == 0 { 0 } else { n - kept as u64 };
                assert_eq!(tr.dropped(), dropped, "seed {seed}, cap {cap}");
                assert_eq!(tr.snapshot(), stream[n as usize - kept..], "seed {seed}");
            }
        }
    }

    /// `(processor index, ns)` pairs recorded in that emission order.
    fn clock_run(at: &[(usize, u64)]) -> Tracer {
        let mut tr = Tracer::new(0);
        for &(p, ns) in at {
            tr.record(TraceEvent {
                proc: ProcId::new(crate::LaneId::ZERO, p),
                layer: Layer::Rpc,
                ..ev(ns, "tx", Phase::Instant, 0)
            });
        }
        tr
    }

    /// Each processor's clock is monotone, the interleaving is not.
    const INTERLEAVED: [(usize, u64); 7] = [
        (0, 100),
        (1, 50),
        (2, 10),
        (0, 100),
        (1, 60),
        (2, 200),
        (0, 150),
    ];

    #[test]
    fn interleaved_monotone_processors_pass_the_clock_check() {
        assert_eq!(clock_run(&INTERLEAVED).clock_violation(), None);
    }

    /// The first backwards event is kept; later ones do not replace it.
    #[test]
    fn one_backwards_event_is_the_clock_violation() {
        let mut at = INTERLEAVED.to_vec();
        at.extend([(1, 40), (2, 300), (1, 70), (2, 30)]);
        assert_eq!(
            clock_run(&at).clock_violation(),
            Some(ClockViolation {
                proc: ProcId::new(crate::LaneId::ZERO, 1),
                prev: SimTime::from_nanos(60),
                at: SimTime::from_nanos(40),
                layer: Layer::Rpc,
                name: "tx",
            })
        );
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
