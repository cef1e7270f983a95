//! Harness-side host-time spans around every call the benchmark makes into a
//! layer's public function. Kept in memory, written at exit as chrome-trace
//! JSON. Spans inside the program are a later issue; these only see what
//! crosses the harness boundary.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to (0 = warm-up, probes use the last rep's id).
    pub rep: u32,
}

/// The recorder. Disabled (the untraced pass) it records nothing, so the
/// end-to-end numbers carry no span overhead.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Grafts the spans a rep process recorded under the open span, shifted
    /// so that the process's clock zero is the open span's start.
    pub fn adopt(&mut self, child: &[Span]) {
        if !self.enabled {
            return;
        }
        let under = self.open.last().copied();
        let at_ns = under.map_or(0, |p| self.spans[p].start_ns);
        let base = self.spans.len();
        for s in child {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + at_ns,
                end_ns: s.end_ns + at_ns,
                parent: s.parent.map(|p| p + base).or(under),
                rep: self.rep,
            });
        }
    }

    /// Chrome trace-event JSON (complete events, microseconds) for
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_json(&self, workload: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"benchmark {}\"}}}}",
            json_escape(workload)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{}\",\"rep\":{},\"self_us\":{:.3}}}}}",
                json_escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                json_escape(workload),
                s.rep,
                self_ns[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (children of one parent never overlap here, the
/// harness is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            out[p] = out[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    out
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("rep", 0, 1000, None),
            span("build", 100, 300, Some(0)),
            span("run", 300, 900, Some(0)),
            span("sim.run", 350, 850, Some(2)),
        ];
        // rep: 1000 - 200 - 600; run: 600 - 500; grandchildren count once.
        assert_eq!(self_times(&spans), vec![200, 200, 100, 500]);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = [span("p", 100, 200, None), span("c", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn scopes_nest_and_disabled_recorder_stays_empty() {
        let mut rec = Spans::new(true);
        rec.set_rep(3);
        let v = rec.scope("outer", |r| r.scope("inner", |_| 7));
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].rep, 3);
        let json = rec.chrome_json("w\"x");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("w\\\"x"));

        let mut off = Spans::new(false);
        assert_eq!(off.scope("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let child = [
            span("timed", 10, 90, None),
            span("sim.run", 20, 80, Some(0)),
        ];
        let mut rec = Spans::new(true);
        rec.scope("probes", |_| ());
        rec.scope("rep process", |r| r.adopt(&child));
        let s = rec.spans();
        let at = s[1].start_ns;
        assert_eq!(
            s[2].parent,
            Some(1),
            "a root of the child hangs under the open span"
        );
        assert_eq!(s[3].parent, Some(2), "child indices are rebased");
        assert_eq!((s[3].start_ns, s[3].end_ns), (at + 20, at + 80));
    }
}
