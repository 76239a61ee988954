//! Bench-side spans: the traced run wraps each call into a layer's
//! public functions in a span named after its metric, records counts at
//! the same boundary, keeps everything in memory, and writes it out
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Metric-style name (`core.noveltest.decision_s`).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span and counter store for one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Share of span `root`'s wall time that its direct children cover.
    pub fn coverage(&self, root: usize) -> f64 {
        let r = &self.spans[root];
        let total = (r.end_ns - r.start_ns) as f64;
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if total > 0.0 {
            covered as f64 / total
        } else {
            0.0
        }
    }

    /// Wall time of span `idx`, in seconds.
    pub fn span_seconds(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// The spans and counters as one JSON document (spans as
    /// `[name, parent, start_ns, end_ns]` rows, parent `-1` at the top).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(out, "[\"{}\",{parent},{},{}]", s.name, s.start_ns, s.end_ns);
        }
        out.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
        out
    }
}
