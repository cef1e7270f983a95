//! The rep machinery every workload runs under.
//!
//! A rep is a process of its own: a reduced warm-up, the set-up (outside the
//! timed section), then the timed section. The apps leak their worlds (about
//! 45-80 MB per `apps::*::run` today) and this sandbox makes a process pay
//! roughly ten times more for every fresh page beyond its first 400 MB, so
//! reps that shared a process would each run slower than the one before.
//! The parent spawns rep processes until the run's time budget is spent and
//! reduces them: medians for host times, and an exact-repeat check on
//! everything that is deterministic per seed.

use std::collections::BTreeMap;

use crate::host::{self, Stopwatch};
use crate::spans::{Span, Spans};
use crate::stats::median;

/// Metric name -> value.
pub type Metrics = BTreeMap<String, f64>;

/// At least this many timed reps per run, whatever the time budget.
pub const MIN_REPS: usize = 3;
/// A traced pass alternates untraced and traced reps: at least two of each.
pub const TRACED_PASS_REPS: usize = 4;
/// A rep process sets up this many times and reports the median; the last
/// set-up feeds the timed section. Set-ups are milliseconds long, so a single
/// reading per rep would be the noisiest number of the run.
pub const SETUPS_PER_REP: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the timed sections should measure for, in host seconds.
    pub seconds: f64,
    /// Traced pass: desim tracing where the harness owns the `Simulation`,
    /// harness spans, layer probes. End-to-end numbers come from untraced reps.
    pub trace: bool,
}

/// Which rep a set-up is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// The untimed rep that opens every rep process. It faults in code and
    /// allocator arenas and is reported nowhere, so workloads run it at
    /// reduced size.
    WarmUp,
    /// A timed rep with tracing off: the source of every end-to-end number.
    Plain,
    /// A timed rep of the traced pass.
    Traced,
}

impl RepKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RepKind::WarmUp => "warmup",
            RepKind::Plain => "plain",
            RepKind::Traced => "traced",
        }
    }

    /// The kinds a rep process can be asked for.
    pub fn parse(s: &str) -> Option<RepKind> {
        [RepKind::Plain, RepKind::Traced]
            .into_iter()
            .find(|k| k.as_str() == s)
    }
}

/// What one rep's timed section reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RepOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks (bounded; for the human reader).
    pub failures: Vec<String>,
    /// Virtual times and exact counts: deterministic per seed, so every rep
    /// of one run must report bit-equal values.
    pub exact: Metrics,
    /// Host-time readings of parts of the rep; reported as medians over reps.
    pub timed: Metrics,
}

impl RepOutcome {
    /// Records a check over `attempted` operations of which `failed` failed.
    pub fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// One rep process's result, as the parent reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub kind: RepKind,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub setup_s: f64,
    /// `VmHWM` of the rep's process at exit, MiB.
    pub peak_rss_mb: f64,
    pub outcome: RepOutcome,
    pub spans: Vec<Span>,
}

/// The rep process's side: a reduced warm-up, then one rep of `kind` with
/// the set-up (repeated, see [`SETUPS_PER_REP`]) and the timed section
/// clocked separately. `prepare(kind,
/// spans)` is the set-up (input generation and world construction);
/// `run(input, spans)` is the timed section and returns what it observed.
pub fn one_rep<I>(
    kind: RepKind,
    spans: &mut Spans,
    mut prepare: impl FnMut(RepKind, &mut Spans) -> I,
    mut run: impl FnMut(I, &mut Spans) -> RepOutcome,
) -> Rep {
    spans.scope("warmup", |s| {
        let input = prepare(RepKind::WarmUp, s);
        run(input, s);
    });
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS_PER_REP {
        // One world at a time: the previous set-up is dropped unused.
        drop(input.take());
        let t = Stopwatch::start();
        input = Some(spans.scope("setup", |s| prepare(kind, s)));
        setups.push(t.stop().0);
    }
    let input = input.expect("at least one set-up");
    let t = Stopwatch::start();
    let outcome = spans.scope("timed", |s| run(input, s));
    let (wall_s, cpu_s) = t.stop();
    Rep {
        kind,
        wall_s,
        cpu_s,
        setup_s: median(&setups),
        peak_rss_mb: host::peak_rss_mib(),
        outcome,
        spans: Vec::new(),
    }
}

impl Rep {
    /// The line format a rep process prints and its parent parses. `{}` of an
    /// `f64` is the shortest text that reads back to the same bits, so exact
    /// values survive the pipe.
    pub fn to_lines(&self) -> String {
        let mut s = format!(
            "rep {} {} {} {} {}\n",
            self.kind.as_str(),
            self.wall_s,
            self.cpu_s,
            self.setup_s,
            self.peak_rss_mb
        );
        let o = &self.outcome;
        s.push_str(&format!("ops {} {}\n", o.attempted, o.failed));
        for f in &o.failures {
            s.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        for (k, v) in &o.exact {
            s.push_str(&format!("exact {k} {v}\n"));
        }
        for (k, v) in &o.timed {
            s.push_str(&format!("timed {k} {v}\n"));
        }
        for sp in &self.spans {
            let parent = sp.parent.map_or("-".to_owned(), |p| p.to_string());
            s.push_str(&format!(
                "span {} {} {parent} {}\n",
                sp.start_ns,
                sp.end_ns,
                sp.name.replace('\n', " ")
            ));
        }
        s
    }

    /// Parses what [`Rep::to_lines`] wrote; `None` on anything malformed
    /// (a rep process that died mid-way).
    pub fn from_lines(text: &str) -> Option<Rep> {
        let mut rep: Option<Rep> = None;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            if tag == "rep" {
                let mut f = rest.split(' ');
                let kind = RepKind::parse(f.next()?)?;
                let mut num = || f.next()?.parse::<f64>().ok();
                rep = Some(Rep {
                    kind,
                    wall_s: num()?,
                    cpu_s: num()?,
                    setup_s: num()?,
                    peak_rss_mb: num()?,
                    outcome: RepOutcome::default(),
                    spans: Vec::new(),
                });
                continue;
            }
            let r = rep.as_mut()?;
            match tag {
                "ops" => {
                    let (a, f) = rest.split_once(' ')?;
                    r.outcome.attempted = a.parse().ok()?;
                    r.outcome.failed = f.parse().ok()?;
                }
                "fail" => r.outcome.failures.push(rest.to_owned()),
                "exact" | "timed" => {
                    let (k, v) = rest.split_once(' ')?;
                    let into = if tag == "exact" {
                        &mut r.outcome.exact
                    } else {
                        &mut r.outcome.timed
                    };
                    into.insert(k.to_owned(), v.parse().ok()?);
                }
                "span" => {
                    let mut f = rest.splitn(4, ' ');
                    let start_ns = f.next()?.parse().ok()?;
                    let end_ns = f.next()?.parse().ok()?;
                    let parent = match f.next()? {
                        "-" => None,
                        p => Some(p.parse().ok()?),
                    };
                    r.spans.push(Span {
                        name: f.next()?.to_owned(),
                        start_ns,
                        end_ns,
                        parent,
                        rep: 0,
                    });
                }
                _ => return None,
            }
        }
        rep
    }
}

/// A median with its observed range over the timed reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Reading {
    pub fn of(values: &[f64]) -> Reading {
        Reading {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// The reps of one run, reduced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall seconds of every timed rep, in run order (traced ones included).
    pub rep_walls: Vec<f64>,
    pub wall_s: Reading,
    pub cpu_s: Reading,
    pub setup_s: Reading,
    pub peak_rss_mb: Reading,
    /// Wall time of the traced reps (traced pass only).
    pub traced_wall_s: Option<Reading>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub exact: Metrics,
    pub timed: Metrics,
}

/// The parent's side: reduces the reps of one run. End-to-end host times are
/// medians over the untraced reps; exact metrics must agree bit for bit
/// between all reps that report them (traced ones too: tracing is zero-cost
/// in virtual time), and a disagreement fails the run.
pub fn reduce(reps: &[Rep]) -> Measured {
    let (traced, plain): (Vec<&Rep>, Vec<&Rep>) =
        reps.iter().partition(|r| r.kind == RepKind::Traced);
    assert!(!plain.is_empty(), "a run has at least one untraced rep");
    let col = |rs: &[&Rep], f: fn(&Rep) -> f64| -> Vec<f64> { rs.iter().map(|r| f(r)).collect() };

    let mut attempted = 0;
    let mut failed = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut exact = Metrics::new();
    for r in reps {
        attempted += r.outcome.attempted;
        failed += r.outcome.failed;
        failures.extend(r.outcome.failures.iter().cloned());
        for (k, v) in &r.outcome.exact {
            match exact.get(k) {
                Some(prev) if prev.to_bits() != v.to_bits() => {
                    failed += 1;
                    failures.push(format!("{k} differs between reps: {prev} vs {v}"));
                }
                Some(_) => {}
                None => {
                    exact.insert(k.clone(), *v);
                }
            }
        }
    }
    failures.truncate(16);

    let mut timed = Metrics::new();
    for k in plain.iter().flat_map(|r| r.outcome.timed.keys()) {
        if !timed.contains_key(k) {
            let vals: Vec<f64> = plain
                .iter()
                .filter_map(|r| r.outcome.timed.get(k).copied())
                .collect();
            timed.insert(k.clone(), median(&vals));
        }
    }

    Measured {
        rep_walls: reps.iter().map(|r| r.wall_s).collect(),
        wall_s: Reading::of(&col(&plain, |r| r.wall_s)),
        cpu_s: Reading::of(&col(&plain, |r| r.cpu_s)),
        setup_s: Reading::of(&col(&plain, |r| r.setup_s)),
        peak_rss_mb: Reading::of(&col(&plain, |r| r.peak_rss_mb)),
        traced_wall_s: (!traced.is_empty()).then(|| Reading::of(&col(&traced, |r| r.wall_s))),
        attempted,
        failed,
        failures,
        exact,
        timed,
    }
}

/// SplitMix64: the benchmark's input generator. Everything generated derives
/// from `--seed` through it; the program under test receives only the
/// generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// An independent stream for `lane` of `seed`.
    pub fn stream(seed: u64, lane: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        s.next();
        s
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(kind: RepKind, wall_s: f64, virt: f64, host: f64) -> Rep {
        let mut outcome = RepOutcome::default();
        outcome.check(10, 0, String::new);
        outcome.exact.insert("virt".into(), virt);
        outcome.timed.insert("host".into(), host);
        Rep {
            kind,
            wall_s,
            cpu_s: wall_s * 0.9,
            setup_s: 0.01,
            peak_rss_mb: 50.0,
            outcome,
            spans: Vec::new(),
        }
    }

    #[test]
    fn one_rep_warms_up_then_clocks_setup_and_timed_section_apart() {
        let mut seen = Vec::new();
        let mut spans = Spans::new(true);
        let r = one_rep(
            RepKind::Traced,
            &mut spans,
            |kind, _| kind,
            |kind, _| {
                seen.push(kind);
                let mut o = RepOutcome::default();
                o.check(5, 1, || "one wrong".into());
                o
            },
        );
        assert_eq!(seen, [RepKind::WarmUp, RepKind::Traced]);
        assert_eq!((r.outcome.attempted, r.outcome.failed), (5, 1));
        assert!(r.wall_s >= 0.0 && r.setup_s >= 0.0);
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["warmup", "setup", "setup", "setup", "timed"]);
    }

    #[test]
    fn reps_reduce_to_medians_and_exact_values() {
        let reps = [
            rep(RepKind::Plain, 2.0, 5.0, 1.0),
            rep(RepKind::Plain, 4.0, 5.0, 3.0),
            rep(RepKind::Plain, 3.0, 5.0, 2.0),
        ];
        let m = reduce(&reps);
        let expect = Reading {
            median: 3.0,
            min: 2.0,
            max: 4.0,
            n: 3,
        };
        assert_eq!(m.wall_s, expect);
        assert_eq!(m.timed["host"], 2.0);
        assert_eq!(m.exact["virt"], 5.0);
        assert_eq!((m.attempted, m.failed), (30, 0));
        assert!(m.traced_wall_s.is_none());
    }

    #[test]
    fn a_virtual_metric_that_differs_between_reps_fails_the_run() {
        let reps = [
            rep(RepKind::Plain, 2.0, 5.0, 1.0),
            rep(RepKind::Plain, 2.0, 5.000001, 1.0),
        ];
        let m = reduce(&reps);
        assert_eq!(m.failed, 1);
        assert!(m.failures[0].contains("virt differs between reps"));
    }

    #[test]
    fn traced_reps_stay_out_of_the_end_to_end_numbers() {
        let reps = [
            rep(RepKind::Plain, 2.0, 5.0, 1.0),
            rep(RepKind::Traced, 9.0, 5.0, 100.0),
            rep(RepKind::Plain, 2.5, 5.0, 1.5),
            rep(RepKind::Traced, 9.5, 5.0, 100.0),
        ];
        let m = reduce(&reps);
        assert_eq!((m.wall_s.n, m.wall_s.median), (2, 2.25));
        assert_eq!(m.traced_wall_s.expect("traced reps").median, 9.25);
        assert_eq!(m.timed["host"], 1.25, "medians come from untraced reps");
        assert_eq!(m.rep_walls, [2.0, 9.0, 2.5, 9.5]);
    }

    #[test]
    fn rep_lines_round_trip_bit_exactly() {
        let mut r = rep(RepKind::Traced, 0.1 + 0.2, 1.0 / 3.0, 2.5e-7);
        r.outcome.check(3, 2, || "cell x: 2 wrong of 3".into());
        r.spans.push(Span {
            name: "sim.run kernel RpcNull".into(),
            start_ns: 5,
            end_ns: 90,
            parent: None,
            rep: 0,
        });
        r.spans.push(Span {
            name: "inner".into(),
            start_ns: 10,
            end_ns: 20,
            parent: Some(0),
            rep: 0,
        });
        assert_eq!(Rep::from_lines(&r.to_lines()), Some(r.clone()));
        assert_eq!(Rep::from_lines("ops 1 0\n"), None, "no rep line");
        assert_eq!(Rep::from_lines("rep plain 1 2\n"), None, "truncated");
    }

    #[test]
    fn splitmix_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::stream(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix::stream(7, 1).next(), SplitMix::stream(7, 2).next());
        assert_ne!(SplitMix::stream(7, 1).next(), SplitMix::stream(8, 1).next());
        assert_eq!(SplitMix::stream(3, 0).bytes(13).len(), 13);
    }
}
