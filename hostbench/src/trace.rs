//! The traced run's span recorder.
//!
//! Spans are taken from outside the program: the benchmark opens one
//! around each call it makes into a layer's public API. They stay in
//! memory until the run ends. Every span of one operation (a request, a
//! trial or a program run) carries that operation's id; set-up spans
//! carry id 0.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer, or one whole operation.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Default)]
pub struct NameStats {
    pub durs_ns: Vec<u64>,
    /// Duration minus the time covered by child spans, summed.
    pub self_ns: u64,
    /// `self_ns` over the spans that belong to an operation.
    pub op_self_ns: u64,
}

/// Records spans and counters while switched on; a pass-through while
/// off, so the untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str) {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    fn end(&mut self) {
        let idx = self.open.pop().expect("end matches a begin");
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Run one operation: a new operation id and a root span named
    /// `name` when tracing. Returns `f`'s result and the operation's
    /// wall time in nanoseconds, measured traced or not.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let t0 = Instant::now();
        let on = self.on;
        if on {
            self.op += 1;
            self.begin(name);
        }
        let r = f(self);
        if on {
            self.end();
        }
        (
            r,
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        )
    }

    /// Add `v` to counter `name` (only while tracing).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.durs_ns.push(s.dur_ns());
            let own = s.dur_ns().saturating_sub(*child);
            e.self_ns += own;
            if s.op > 0 {
                e.op_self_ns += own;
            }
        }
        out
    }

    /// Share of the operation spans' time that their layer spans cover.
    pub fn coverage(&self, op_name: &str) -> f64 {
        let (mut total, mut covered) = (0u64, 0u64);
        for s in &self.spans {
            match s.parent {
                None if s.name == op_name => total += s.dur_ns(),
                Some(p) if self.spans[p as usize].name == op_name => covered += s.dur_ns(),
                _ => {}
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Write every span as one JSON line: name, op id, span index,
    /// parent index (-1 for roots), start and end in ns since the run
    /// began.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{i},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut tr = Tracer::new();
        tr.span("ignored", || ());
        tr.count("ignored", 1.0);
        tr.set_on(true);
        let ((), wall) = tr.op("op.x", |tr| {
            tr.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", || ());
        });
        let names = tr.by_name();
        assert!(!names.contains_key("ignored"));
        assert_eq!(tr.counter("ignored"), 0.0);
        let op = &names["op.x"];
        let a = &names["a"];
        assert_eq!(op.durs_ns.len(), 1);
        assert!(op.durs_ns[0] <= wall);
        assert_eq!(
            op.self_ns,
            op.durs_ns[0] - a.durs_ns[0] - names["b"].durs_ns[0]
        );
        assert!(tr.coverage("op.x") > 0.5);
        let mut jsonl = Vec::new();
        tr.write_jsonl(&mut jsonl).unwrap();
        assert_eq!(
            jsonl
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty())
                .count(),
            3
        );
    }
}
