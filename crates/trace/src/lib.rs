//! # edm-trace — telemetry for the edm workspace
//!
//! Zero-external-dependency instrumentation: hierarchical **spans**
//! (RAII guards with monotonic timing), atomic **counters** and max
//! **gauges** (optionally labeled), decilog **histograms** that also
//! keep a rolling window of their last [`WINDOW_SECS`] seconds, and a
//! bounded per-thread **timeline event ring**. Any registry snapshots
//! into a JSON-serializable [`TraceReport`], which renders itself as
//! OpenMetrics text, Chrome trace JSON or folded stacks.
//!
//! ## One registry type, two kinds of instance
//!
//! Counters, gauges and histograms live in a [`Registry`] value.
//!
//! * The **process-global** instance backs the free-function probes
//!   ([`counter_add`], [`record`], ...) and is gated by the trace
//!   level; spans and the timeline ring exist only here.
//! * A component that must always answer owns an instance of its own
//!   and calls it directly: [`Registry`] methods record at every level,
//!   with or without the `trace` feature. The scoring server's
//!   `/metrics` is built this way.
//!
//! ## Runtime knob
//!
//! The `EDM_TRACE` environment variable selects the global level on
//! first probe hit (or call [`set_level`] / [`init_from_env_or`]
//! explicitly):
//!
//! * `off` (default) — probes are a single relaxed atomic load;
//! * `summary` — counters, span aggregates, histograms;
//! * `full` — additionally the per-thread timeline ring (span
//!   begin/end + counter events) and high-frequency probes
//!   ([`record_full`], e.g. the SMO solver's per-iteration KKT gap
//!   trajectory).
//!
//! ## Histograms
//!
//! Bucket `k` covers `[10^(k/10), 10^((k+1)/10))` — ten buckets per
//! decade, each ~26% wide — from `10^-6` up to `10^13` (non-positive
//! and smaller samples land in the lowest bucket). A quantile read off
//! the buckets is the upper edge of the bucket holding the order
//! statistic, so it is at most one bucket (~26%) above the truth. Each
//! histogram also keeps per-second slots for its last [`WINDOW_SECS`]
//! seconds ([`HistogramStat::window`]), so a snapshot tells "slow right
//! now" from "slow since start".
//!
//! ## Timeline ring
//!
//! At `full`, every span begin/end and every unlabeled counter update
//! appends a timestamped event to the calling thread's ring buffer.
//! Rings are bounded (default [`EVENT_CAP`] events per thread,
//! override with `EDM_TRACE_EVENTS` or [`set_event_capacity`]) and
//! **drop-oldest**: a full ring discards its oldest event and counts
//! it in [`TraceReport::dropped_events`]. Timestamps are nanoseconds
//! since the registry epoch, measured with the monotonic
//! [`std::time::Instant`] clock (no ambient wall-clock entropy).
//! Threads can name their ring via [`name_thread`]; `edm-par` workers
//! do this so exported timelines carry worker identities.
//! [`TraceReport::to_chrome_trace`] renders the timeline in the Chrome
//! Trace Event Format, loadable in Perfetto or `chrome://tracing`.
//!
//! ## Compile-time knob
//!
//! With the `trace` cargo feature disabled (workspace
//! `--no-default-features`), every free-function probe in this crate is
//! an inline empty function and the global registry is not compiled at
//! all — callers need no `cfg` of their own. [`Registry`] values keep
//! recording.
//!
//! ## Probe taxonomy
//!
//! Names are dot-separated `crate.component.metric` (e.g.
//! `svm.smo.iterations`, `par.worker.busy_ns`); span paths additionally
//! nest by call structure with `/` (e.g. `fig05/train/svm.smo.solve`).
//! Labeled forms ([`counter_add_labeled`], [`record_labeled`]) attach
//! `key="value"` dimensions (e.g. per-model, per-endpoint) that
//! surface as OpenMetrics labels.
//!
//! ## Adding a probe
//!
//! ```
//! let _span = edm_trace::span("myflow.stage");   // timed until drop
//! edm_trace::counter_add("myflow.widgets", 3);
//! edm_trace::record("myflow.latency_ns", 1234.0);
//! edm_trace::counter_add_labeled("myflow.requests", &[("model", "svc")], 1);
//!
//! // An always-on instance of the same registry type:
//! let own = edm_trace::Registry::new();
//! own.record("myflow.latency_ns", &[("model", "svc")], 1234.0);
//! assert_eq!(own.collect().histograms[0].count, 1);
//! ```
//!
//! Probes must never perturb numerics: they may observe values but not
//! change control flow or floating-point results (property-tested at
//! the workspace root: models train bitwise-identically at `full` vs
//! `off`).

#![forbid(unsafe_code)]

// edm-allow-file(unordered-iteration): the registry maps are keyed by
// probe name for O(1) hot-path updates and are only ever iterated by
// snapshots, which sort every family by name before reporting.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use edm_sync::DbgMutex;
use serde::{Deserialize, Serialize};

/// Telemetry level, in increasing order of detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Probes disabled (one relaxed atomic load each).
    Off,
    /// Counters, span aggregates, histograms.
    Summary,
    /// Summary plus the per-thread timeline ring and high-frequency
    /// [`record_full`] probes.
    Full,
}

impl Level {
    /// Canonical lowercase name (the `EDM_TRACE` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Full => "full",
        }
    }

    /// Parses an `EDM_TRACE` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "" => Some(Level::Off),
            "summary" | "1" | "on" => Some(Level::Summary),
            "full" | "2" => Some(Level::Full),
            _ => None,
        }
    }
}

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// `/`-joined hierarchical path (nesting by call structure).
    pub path: String,
    /// Completed activations.
    pub count: u64,
    /// Total wall time across activations, nanoseconds.
    pub total_ns: u64,
    /// Shortest activation, nanoseconds.
    pub min_ns: u64,
    /// Longest activation, nanoseconds.
    pub max_ns: u64,
}

/// One named monotonic counter (one row per distinct label set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Probe name (`crate.component.metric`).
    pub name: String,
    /// Label dimensions as `(key, value)` pairs, sorted by key; empty
    /// for unlabeled counters.
    pub labels: Vec<(String, String)>,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge (one row per distinct label set): the largest value
/// reported to [`Registry::gauge_max`], or a value derived from other
/// series when a report is assembled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// Probe name.
    pub name: String,
    /// Label dimensions as `(key, value)` pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: f64,
}

/// One decilog histogram (see the [crate docs](crate#histograms)), one
/// row per distinct label set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Probe name.
    pub name: String,
    /// Label dimensions as `(key, value)` pairs, sorted by key; empty
    /// for unlabeled histograms.
    pub labels: Vec<(String, String)>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Non-empty buckets as `(k, count)` pairs, ascending; bucket `k`
    /// covers `[10^(k/10), 10^((k+1)/10))`.
    pub buckets: Vec<(i64, u64)>,
    /// The same buckets restricted to samples recorded within the
    /// [`WINDOW_SECS`] seconds before the snapshot.
    pub window: Vec<(i64, u64)>,
}

impl HistogramStat {
    /// Lifetime quantile estimate: the upper edge of the bucket holding
    /// the `q`-th order statistic, at most one bucket (~26%) above the
    /// truth. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.buckets, q)
    }

    /// [`HistogramStat::quantile`] over the rolling window.
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.window, q)
    }

    /// Samples inside the rolling window.
    pub fn window_count(&self) -> u64 {
        self.window.iter().map(|&(_, c)| c).sum()
    }

    /// Folds `other` (a histogram of the same quantity) into `self`.
    pub fn merge(&mut self, other: &HistogramStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.buckets = merge_buckets(&self.buckets, &other.buckets);
        self.window = merge_buckets(&self.window, &other.window);
    }
}

/// Sum of two sparse ascending bucket lists.
fn merge_buckets(a: &[(i64, u64)], b: &[(i64, u64)]) -> Vec<(i64, u64)> {
    let mut out: Vec<(i64, u64)> = a.iter().chain(b).copied().collect();
    out.sort_by_key(|&(k, _)| k);
    out.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    out
}

/// Quantile estimate over sparse ascending buckets (see
/// [`HistogramStat::quantile`]).
fn quantile(buckets: &[(i64, u64)], q: f64) -> Option<f64> {
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(k, c) in buckets {
        seen += c;
        if seen >= rank {
            return Some(bucket_edge(k));
        }
    }
    buckets.last().map(|&(k, _)| bucket_edge(k))
}

/// Phase of one timeline event, mirroring the Chrome Trace Event
/// Format `ph` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names ARE the Chrome `ph` vocabulary
pub enum EventKind {
    /// A span opened.
    B,
    /// A span closed.
    E,
    /// A counter changed; `value` is the new cumulative total.
    C,
}

/// One timestamped event from a thread's timeline ring
/// ([`Level::Full`] only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Recording thread's id (registration ordinal; see
    /// [`TraceReport::threads`] for names).
    pub tid: u64,
    /// Event phase.
    pub ph: EventKind,
    /// Span leaf name ([`EventKind::B`]/[`EventKind::E`]) or
    /// counter name ([`EventKind::C`]).
    pub name: String,
    /// Nanoseconds since the registry epoch (monotonic clock).
    pub ts_ns: u64,
    /// Cumulative counter value for [`EventKind::C`]; 0 otherwise.
    pub value: f64,
}

/// Identity of one thread that recorded timeline events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadInfo {
    /// Thread id as it appears in [`TimelineEvent::tid`].
    pub tid: u64,
    /// Human-readable name (set via [`name_thread`], or `thread-<tid>`).
    pub name: String,
}

/// Default per-thread timeline ring capacity at [`Level::Full`];
/// override with `EDM_TRACE_EVENTS` or [`set_event_capacity`]. A full
/// ring drops its **oldest** event and counts it in
/// [`TraceReport::dropped_events`].
pub const EVENT_CAP: usize = 8192;

/// A point-in-time snapshot of a registry, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Global level at snapshot time (`"off"`, `"summary"`, `"full"`;
    /// probes compiled out report `"off"`).
    pub level: String,
    /// Whether probe machinery was compiled in (the `trace` feature).
    pub compiled: bool,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name then labels.
    pub counters: Vec<CounterStat>,
    /// Gauges, sorted by name then labels.
    pub gauges: Vec<GaugeStat>,
    /// Histograms, sorted by name then labels.
    pub histograms: Vec<HistogramStat>,
    /// Timeline ring contents ([`Level::Full`] only), ordered by
    /// thread id, then append order (timestamps are monotone
    /// non-decreasing within a thread).
    pub timeline: Vec<TimelineEvent>,
    /// Threads contributing timeline events, sorted by id.
    pub threads: Vec<ThreadInfo>,
    /// Timeline events discarded (drop-oldest) after a thread's ring
    /// filled.
    pub dropped_events: u64,
}

impl TraceReport {
    /// A report with no data (the compiled-out and freshly-reset states).
    pub fn empty() -> Self {
        TraceReport {
            level: Level::Off.as_str().to_string(),
            compiled: compiled(),
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            timeline: Vec::new(),
            threads: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Serializes to compact JSON.
    ///
    /// # Errors
    ///
    /// Propagates the (practically unreachable: all floats stored are
    /// finite) serializer error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// The value of counter `name` summed across its label sets, or 0
    /// if it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
    }

    /// Sum of `count` over spans whose path's last `/`-segment equals
    /// `leaf` (a span may appear under several parent paths).
    pub fn span_count(&self, leaf: &str) -> u64 {
        self.spans.iter().filter(|s| s.path.rsplit('/').next() == Some(leaf)).map(|s| s.count).sum()
    }

    /// Appends `other`'s rows (a snapshot of another registry, whose
    /// names should not overlap this one's) and restores the sort
    /// order. `level` and `compiled` stay `self`'s.
    pub fn merge(&mut self, other: TraceReport) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.timeline.extend(other.timeline);
        self.threads.extend(other.threads);
        self.dropped_events += other.dropped_events;
        self.sort();
    }

    /// Sorts every family by name then labels (spans by path); timeline
    /// events by thread, keeping each thread's append order.
    fn sort(&mut self) {
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
        self.counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        self.timeline.sort_by_key(|e| e.tid);
        self.threads.sort_by_key(|t| t.tid);
    }

    /// Renders the span aggregates in Brendan Gregg's collapsed-stack
    /// ("folded") format, one `stack;frames self_ns` line per span,
    /// ready for `flamegraph.pl` / `inferno-flamegraph`.
    ///
    /// The sample value of each line is the span's **self** time: its
    /// `total_ns` minus the `total_ns` of its direct children (clamped
    /// at zero, since child totals can slightly exceed the parent's
    /// when activations straddle the snapshot). Spans fully accounted
    /// for by their children produce no line, per the format's
    /// convention. Lines appear in path order, so the output is
    /// deterministic for a given report.
    pub fn to_collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let child_total: u64 = self
                .spans
                .iter()
                .filter(|c| {
                    c.path
                        .strip_prefix(&s.path)
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|leaf| !leaf.contains('/'))
                })
                .map(|c| c.total_ns)
                .sum();
            let self_ns = s.total_ns.saturating_sub(child_total);
            if self_ns > 0 {
                out.push_str(&s.path.replace('/', ";"));
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the timeline ring in the Chrome Trace Event Format
    /// (JSON object form), loadable in Perfetto / `chrome://tracing`.
    ///
    /// * Each [`ThreadInfo`] becomes a `ph:"M"` `thread_name` metadata
    ///   event, so `edm-par` worker identities label the tracks.
    /// * [`EventKind::B`]/[`EventKind::E`] map to duration events
    ///   `ph:"B"`/`ph:"E"`; [`EventKind::C`] maps to `ph:"C"`
    ///   with the cumulative value in `args.value`.
    /// * Timestamps are microseconds (`ts_ns / 1000`, 3 decimals kept).
    /// * Nesting is sanitized per thread: an `E` whose opening `B` was
    ///   dropped from the ring is skipped, so begin/end pairing is
    ///   always well-formed. Unclosed `B`s (spans still open at
    ///   snapshot time) are legal in the format and kept.
    ///
    /// Output is deterministic for a given report.
    pub fn to_chrome_trace(&self) -> String {
        // Names as quoted JSON strings.
        let esc = |s: &str| serde_json::to_string(s).expect("strings always serialize");
        let mut events: Vec<String> = Vec::with_capacity(self.threads.len() + self.timeline.len());
        for t in &self.threads {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                t.tid,
                esc(&t.name)
            ));
        }
        let mut depth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &self.timeline {
            let ts_us = e.ts_ns as f64 / 1000.0;
            match e.ph {
                EventKind::B => {
                    *depth.entry(e.tid).or_insert(0) += 1;
                    events.push(format!(
                        "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":{}}}",
                        e.tid,
                        ts_us,
                        esc(&e.name)
                    ));
                }
                EventKind::E => {
                    let d = depth.entry(e.tid).or_insert(0);
                    if *d == 0 {
                        // The matching B fell off the ring; emitting
                        // this E would corrupt the track's nesting.
                        continue;
                    }
                    *d -= 1;
                    events.push(format!(
                        "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":{}}}",
                        e.tid,
                        ts_us,
                        esc(&e.name)
                    ));
                }
                EventKind::C => {
                    events.push(format!(
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":{},\
                         \"args\":{{\"value\":{}}}}}",
                        e.tid,
                        ts_us,
                        esc(&e.name),
                        e.value
                    ));
                }
            }
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Renders the report in the OpenMetrics text exposition format for
    /// scrape-based monitoring, ending with the mandatory `# EOF`
    /// terminator.
    ///
    /// * Counters map directly: probe `svm.smo.iterations` becomes the
    ///   family `edm_svm_smo_iterations` with one `_total` sample per
    ///   label set (`# TYPE` emitted once per family).
    /// * Gauges render one plain sample per label set.
    /// * Decilog histograms map to cumulative `le` buckets: bucket `k`
    ///   covers `[10^(k/10), 10^((k+1)/10))`, so its upper bound is
    ///   `le="10^((k+1)/10)"` (five significant digits); `_sum`,
    ///   `_count`, and the mandatory `le="+Inf"` bucket follow. Probe
    ///   labels precede `le`.
    /// * Span aggregates become two labeled counter families,
    ///   `edm_span_activations` and `edm_span_time_ns`, with the
    ///   hierarchical path as the `path` label.
    ///
    /// Output is deterministic for a given report (families in the
    /// report's sorted order).
    pub fn to_openmetrics(&self) -> String {
        fn metric_name(probe: &str) -> String {
            let mut name = String::with_capacity(probe.len() + 4);
            name.push_str("edm_");
            for c in probe.chars() {
                name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            name
        }
        fn label_value(path: &str) -> String {
            path.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
            let mut inner: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{}\"", label_value(v))).collect();
            if let Some(le) = le {
                inner.push(format!("le=\"{le}\""));
            }
            if inner.is_empty() {
                return String::new();
            }
            format!("{{{}}}", inner.join(","))
        }
        /// `# TYPE` line when row `i` opens a new family.
        fn type_line(out: &mut String, names: &[&str], i: usize, kind: &str) {
            if i == 0 || names[i - 1] != names[i] {
                out.push_str(&format!("# TYPE {} {kind}\n", metric_name(names[i])));
            }
        }
        let mut out = String::new();
        let names: Vec<&str> = self.counters.iter().map(|c| c.name.as_str()).collect();
        for (i, c) in self.counters.iter().enumerate() {
            type_line(&mut out, &names, i, "counter");
            let name = metric_name(&c.name);
            out.push_str(&format!("{name}_total{} {}\n", label_set(&c.labels, None), c.value));
        }
        let names: Vec<&str> = self.gauges.iter().map(|g| g.name.as_str()).collect();
        for (i, g) in self.gauges.iter().enumerate() {
            type_line(&mut out, &names, i, "gauge");
            let name = metric_name(&g.name);
            out.push_str(&format!("{name}{} {}\n", label_set(&g.labels, None), g.value));
        }
        let names: Vec<&str> = self.histograms.iter().map(|h| h.name.as_str()).collect();
        for (i, h) in self.histograms.iter().enumerate() {
            type_line(&mut out, &names, i, "histogram");
            let name = metric_name(&h.name);
            let mut cumulative = 0u64;
            for &(k, count) in &h.buckets {
                cumulative += count;
                let le = label_set(&h.labels, Some(&edge_label(k)));
                out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
            }
            let inf = label_set(&h.labels, Some("+Inf"));
            let set = label_set(&h.labels, None);
            out.push_str(&format!(
                "{name}_bucket{inf} {}\n{name}_sum{set} {}\n{name}_count{set} {}\n",
                h.count, h.sum, h.count
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE edm_span_activations counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "edm_span_activations_total{{path=\"{}\"}} {}\n",
                    label_value(&s.path),
                    s.count
                ));
            }
            out.push_str("# TYPE edm_span_time_ns counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "edm_span_time_ns_total{{path=\"{}\"}} {}\n",
                    label_value(&s.path),
                    s.total_ns
                ));
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// True when the probe machinery is compiled in (`trace` feature).
pub const fn compiled() -> bool {
    cfg!(feature = "trace")
}

/// Width of every histogram's rolling window, in seconds.
pub const WINDOW_SECS: u64 = 60;

/// Lowest decilog bucket: `[10^-6, 10^-5.9)`, which also takes every
/// smaller and every non-positive sample.
const LOW_BUCKET: i64 = -60;

/// Buckets per histogram: ten per decade from `10^-6` to `10^13` (the
/// top bucket also takes everything larger).
const BUCKETS: usize = 190;

/// Bucket index `k = floor(10·log10 v)`, clamped to the stored range.
fn bucket_of(v: f64) -> i64 {
    if v > 0.0 {
        ((v.log10() * 10.0).floor() as i64).clamp(LOW_BUCKET, LOW_BUCKET + BUCKETS as i64 - 1)
    } else {
        LOW_BUCKET
    }
}

/// Upper edge of bucket `k`: `10^((k+1)/10)`.
fn bucket_edge(k: i64) -> f64 {
    10f64.powf((k + 1) as f64 / 10.0)
}

/// [`bucket_edge`] as an `le` label value, to five significant digits.
fn edge_label(k: i64) -> String {
    let decimals = (4 - (k + 1).div_euclid(10)).max(0) as usize;
    format!("{:.*}", decimals, bucket_edge(k))
}

/// One second of a histogram's rolling window.
struct Slot {
    sec: u64,
    counts: Box<[u32; BUCKETS]>,
}

/// A decilog histogram with its rolling window. The window holds only
/// the seconds that saw samples, oldest first; a slot that has left the
/// window is reused for the next second.
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
    window: VecDeque<Slot>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
            window: VecDeque::new(),
        }
    }
}

impl Hist {
    /// Records `value` (non-finite samples are ignored) at second
    /// `now_sec` of the owning registry's clock. A `now_sec` older than
    /// the newest slot (a racing thread read the clock first) counts
    /// toward the newest slot.
    fn record(&mut self, value: f64, now_sec: u64) {
        if !value.is_finite() {
            return;
        }
        let i = (bucket_of(value) - LOW_BUCKET) as usize;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[i] += 1;
        if self.window.back().is_none_or(|s| s.sec < now_sec) {
            let mut spare = None;
            while self.window.front().is_some_and(|s| now_sec.saturating_sub(s.sec) >= WINDOW_SECS)
            {
                spare = self.window.pop_front();
            }
            let slot = match spare {
                Some(mut slot) => {
                    slot.counts.fill(0);
                    slot.sec = now_sec;
                    slot
                }
                None => Slot { sec: now_sec, counts: Box::new([0; BUCKETS]) },
            };
            self.window.push_back(slot);
        }
        if let Some(slot) = self.window.back_mut() {
            slot.counts[i] += 1;
        }
    }

    /// Report row as of second `now_sec`.
    fn stat(&self, name: &str, labels: &[(String, String)], now_sec: u64) -> HistogramStat {
        fn sparse(counts: impl Iterator<Item = u64>) -> Vec<(i64, u64)> {
            counts
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(i, c)| (i as i64 + LOW_BUCKET, c))
                .collect()
        }
        let mut window = [0u64; BUCKETS];
        for slot in self.window.iter().filter(|s| now_sec.saturating_sub(s.sec) < WINDOW_SECS) {
            for (w, &c) in window.iter_mut().zip(slot.counts.iter()) {
                *w += u64::from(c);
            }
        }
        let empty = self.count == 0;
        HistogramStat {
            name: name.to_string(),
            labels: labels.to_vec(),
            count: self.count,
            sum: self.sum,
            min: if empty { 0.0 } else { self.min },
            max: if empty { 0.0 } else { self.max },
            buckets: sparse(self.buckets.iter().copied()),
            window: sparse(window.into_iter()),
        }
    }
}

type Labels = Vec<(String, String)>;

/// Series of one kind: probe name → its label sets, sorted, each with
/// its cell. A hit is a hash of the name plus a binary search over the
/// label sets — no allocation.
type Series<C> = DbgMutex<HashMap<&'static str, Vec<(Labels, C)>>>;

/// Call-site label sets up to this size are sorted on the stack.
const STACK_LABELS: usize = 8;

/// Orders a canonical (sorted) owned label set against a sorted
/// borrowed one.
fn cmp_labels(owned: &Labels, sorted: &[(&str, &str)]) -> std::cmp::Ordering {
    owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).cmp(sorted.iter().copied())
}

/// Runs `f` on the cell for `name` + `labels` (created on first use)
/// under the series lock. Label order is canonicalized, so call sites
/// may list keys in any order.
fn with_cell<C: Default, R>(
    series: &Series<C>,
    name: &'static str,
    labels: &[(&str, &str)],
    f: impl FnOnce(&mut C) -> R,
) -> R {
    let mut stack = [("", ""); STACK_LABELS];
    let mut heap = Vec::new();
    let sorted = match stack.get_mut(..labels.len()) {
        Some(s) => {
            s.copy_from_slice(labels);
            s
        }
        None => {
            heap.extend_from_slice(labels);
            &mut heap[..]
        }
    };
    sorted.sort_unstable();
    let mut map = series.lock().expect("trace registry poisoned");
    let sets = map.entry(name).or_default();
    let i = match sets.binary_search_by(|(owned, _)| cmp_labels(owned, sorted)) {
        Ok(i) => i,
        Err(i) => {
            let owned = sorted.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
            sets.insert(i, (owned, C::default()));
            i
        }
    };
    f(&mut sets[i].1)
}

/// One row per series, in arbitrary order.
fn rows<C, R>(series: &Series<C>, row: impl Fn(&'static str, &Labels, &C) -> R) -> Vec<R> {
    let map = series.lock().expect("trace registry poisoned");
    let row = &row;
    map.iter()
        .flat_map(|(&name, sets)| sets.iter().map(move |(labels, c)| row(name, labels, c)))
        .collect()
}

/// A registry of labeled counters, max gauges and decilog histograms
/// (see the [crate docs](crate#one-registry-type-two-kinds-of-instance)).
///
/// Its methods record unconditionally: level gating belongs to the
/// global instance behind the free-function probes.
pub struct Registry {
    /// Anchor of the histogram windows' clock (and, for the global
    /// instance, of timeline timestamps).
    epoch: Instant,
    /// Shared with [`CounterHandle`]s, which add without the lock.
    counters: Series<Arc<AtomicU64>>,
    gauges: Series<u64>,
    hists: Series<Hist>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry; its window clock starts now.
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            counters: DbgMutex::new("trace.registry.counters", HashMap::new()),
            gauges: DbgMutex::new("trace.registry.gauges", HashMap::new()),
            hists: DbgMutex::new("trace.registry.hists", HashMap::new()),
        }
    }

    /// Adds `delta` to counter `name` under `labels` (may be empty).
    pub fn counter_add(&self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        with_cell(&self.counters, name, labels, |c| c.fetch_add(delta, Ordering::Relaxed));
    }

    /// Raises gauge `name` under `labels` to `value` if it is larger.
    pub fn gauge_max(&self, name: &'static str, labels: &[(&str, &str)], value: u64) {
        with_cell(&self.gauges, name, labels, |g| *g = (*g).max(value));
    }

    /// Records `value` into histogram `name` under `labels`.
    pub fn record(&self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        let now_sec = self.epoch.elapsed().as_secs();
        with_cell(&self.hists, name, labels, |h| h.record(value, now_sec));
    }

    /// Snapshots the counters, gauges and histograms into a sorted
    /// report (`level` is the global level). Histograms that never
    /// recorded a sample are skipped; zero counters are kept.
    pub fn collect(&self) -> TraceReport {
        let now_sec = self.epoch.elapsed().as_secs();
        let mut report = TraceReport::empty();
        report.level = level().as_str().to_string();
        report.counters = rows(&self.counters, |name, labels, c| CounterStat {
            name: name.to_string(),
            labels: labels.clone(),
            value: c.load(Ordering::Relaxed),
        });
        report.gauges = rows(&self.gauges, |name, labels, g| GaugeStat {
            name: name.to_string(),
            labels: labels.clone(),
            value: *g as f64,
        });
        report.histograms = rows(&self.hists, |name, labels, h| h.stat(name, labels, now_sec));
        report.histograms.retain(|h| h.count > 0);
        report.sort();
        report
    }

    /// Drops every series, except that counters still referenced by a
    /// probe handle are zeroed in place (dropping them would silently
    /// detach the handle from future reports).
    #[cfg(feature = "trace")]
    fn clear(&self) {
        {
            let mut counters = self.counters.lock().expect("trace registry poisoned");
            for sets in counters.values_mut() {
                sets.retain(|(_, c)| {
                    c.store(0, Ordering::Relaxed);
                    Arc::strong_count(c) > 1
                });
            }
            counters.retain(|_, sets| !sets.is_empty());
        }
        self.gauges.lock().expect("trace registry poisoned").clear();
        self.hists.lock().expect("trace registry poisoned").clear();
    }
}

#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use edm_sync::SyncEvent;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU8, AtomicUsize};
    use std::sync::{Mutex, Once, OnceLock};

    const UNINIT: u8 = u8::MAX;
    static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
    static ENV_WARN: Once = Once::new();

    fn level_from_u8(v: u8) -> Level {
        match v {
            1 => Level::Summary,
            2 => Level::Full,
            _ => Level::Off,
        }
    }

    /// Current level, initializing from `EDM_TRACE` on first use.
    pub fn level() -> Level {
        let v = LEVEL.load(Ordering::Relaxed);
        if v == UNINIT {
            init_level_from_env()
        } else {
            level_from_u8(v)
        }
    }

    #[cold]
    fn init_level_from_env() -> Level {
        let lvl = match std::env::var("EDM_TRACE") {
            Ok(s) => Level::parse(&s).unwrap_or_else(|| {
                ENV_WARN.call_once(|| {
                    eprintln!(
                        "edm-trace: unrecognized EDM_TRACE value {s:?} \
                         (expected off|summary|full); tracing stays off"
                    );
                });
                Level::Off
            }),
            Err(_) => Level::Off,
        };
        LEVEL.store(lvl as u8, Ordering::Relaxed);
        lvl
    }

    /// Sets the level programmatically (overrides `EDM_TRACE`).
    pub fn set_level(lvl: Level) {
        LEVEL.store(lvl as u8, Ordering::Relaxed);
    }

    /// Initializes the level from `EDM_TRACE` when set and parseable,
    /// else to `default`. Harness entry points call this so their run
    /// manifests have data even when the variable is unset.
    pub fn init_from_env_or(default: Level) {
        let lvl = std::env::var("EDM_TRACE").ok().and_then(|s| Level::parse(&s)).unwrap_or(default);
        set_level(lvl);
    }

    /// True when probes record (level ≥ `summary`). The disabled path
    /// is this one relaxed atomic load.
    #[inline]
    pub fn enabled() -> bool {
        level() != Level::Off
    }

    /// True when high-frequency probes record (level = `full`).
    #[inline]
    pub fn full_enabled() -> bool {
        level() == Level::Full
    }

    const CAP_UNINIT: usize = usize::MAX;
    static EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(CAP_UNINIT);

    /// Per-thread timeline ring capacity, initializing from
    /// `EDM_TRACE_EVENTS` on first use ([`EVENT_CAP`] default).
    pub fn event_capacity() -> usize {
        let v = EVENT_CAPACITY.load(Ordering::Relaxed);
        if v != CAP_UNINIT {
            return v;
        }
        init_event_capacity()
    }

    #[cold]
    fn init_event_capacity() -> usize {
        let cap = std::env::var("EDM_TRACE_EVENTS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(EVENT_CAP)
            .min(CAP_UNINIT - 1);
        EVENT_CAPACITY.store(cap, Ordering::Relaxed);
        cap
    }

    /// Sets the per-thread timeline ring capacity programmatically
    /// (overrides `EDM_TRACE_EVENTS`; 0 drops every event). Applies to
    /// subsequent pushes; existing rings shrink lazily.
    pub fn set_event_capacity(cap: usize) {
        EVENT_CAPACITY.store(cap.min(CAP_UNINIT - 1), Ordering::Relaxed);
    }

    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }

    #[derive(Clone, Copy)]
    struct RingEvent {
        ph: EventKind,
        name: &'static str,
        ts_ns: u64,
        value: f64,
    }

    struct RingBuf {
        buf: VecDeque<RingEvent>,
        dropped: u64,
    }

    struct Shard {
        tid: u64,
        label: Mutex<String>,
        ring: Mutex<RingBuf>,
    }

    /// The process-global [`Registry`], plus what only it has: span
    /// aggregates and the per-thread timeline rings. Span cells are
    /// `Arc`'d so pre-resolved [`SpanHandle`]s update a series with one
    /// short per-series lock instead of the map lock.
    struct Global {
        metrics: Registry,
        spans: DbgMutex<HashMap<String, Arc<Mutex<SpanAgg>>>>,
        shards: DbgMutex<Vec<Arc<Shard>>>,
        next_tid: AtomicU64,
    }

    fn global() -> &'static Global {
        static GLOBAL: OnceLock<Global> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            // The debug sync layer's warnings become trace counters, so
            // held-too-long locks and order inversions show up in run
            // manifests and the `/metrics` exposition (the hook runs
            // under edm-sync's reentrancy latch, so its own registry
            // locks are never re-checked).
            edm_sync::set_report_hook(Box::new(|event| match event {
                SyncEvent::HeldTooLong { .. } => counter_add("sync.lock.held_too_long", 1),
                SyncEvent::OrderInversion { .. } => counter_add("sync.lock.order_warnings", 1),
            }));
            Global {
                metrics: Registry::new(),
                spans: DbgMutex::new("trace.registry.spans", HashMap::new()),
                shards: DbgMutex::new("trace.registry.shards", Vec::new()),
                next_tid: AtomicU64::new(0),
            }
        })
    }

    fn now_ns(g: &Global) -> u64 {
        g.metrics.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    thread_local! {
        static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        static SHARD: RefCell<Option<Arc<Shard>>> = const { RefCell::new(None) };
        static PENDING_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// The calling thread's ring shard, created (and registered
    /// globally, so it outlives the thread) on first use.
    fn shard_for_thread() -> Arc<Shard> {
        SHARD.with(|s| {
            let mut slot = s.borrow_mut();
            if let Some(shard) = slot.as_ref() {
                return shard.clone();
            }
            let g = global();
            let tid = g.next_tid.fetch_add(1, Ordering::Relaxed);
            let label = PENDING_LABEL
                .with(|p| p.borrow_mut().take())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let shard = Arc::new(Shard {
                tid,
                label: Mutex::new(label),
                ring: Mutex::new(RingBuf { buf: VecDeque::new(), dropped: 0 }),
            });
            g.shards.lock().expect("shard registry poisoned").push(shard.clone());
            *slot = Some(shard.clone());
            shard
        })
    }

    /// Names the calling thread's timeline ring (shown as the track
    /// name in Chrome-trace exports). `edm-par` workers call this at
    /// spawn; harness mains may too. Cheap and safe at any level.
    pub fn name_thread(label: &str) {
        let existing = SHARD.with(|s| s.borrow().clone());
        match existing {
            Some(shard) => {
                *shard.label.lock().expect("shard label poisoned") = label.to_string();
            }
            None => PENDING_LABEL.with(|p| *p.borrow_mut() = Some(label.to_string())),
        }
    }

    fn push_event(ph: EventKind, name: &'static str, ts_ns: u64, value: f64) {
        let cap = event_capacity();
        let shard = shard_for_thread();
        let mut ring = shard.ring.lock().expect("ring poisoned");
        if cap == 0 {
            ring.dropped += 1;
            return;
        }
        while ring.buf.len() + 1 > cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(RingEvent { ph, name, ts_ns, value });
    }

    struct ActiveSpan {
        path: String,
        name: &'static str,
        depth: usize,
        start: Instant,
    }

    /// RAII span guard: times from creation to drop and records under
    /// the hierarchical path current at creation. Obtain via [`span`].
    pub struct Span(Option<ActiveSpan>);

    fn span_agg_update(agg: &Mutex<SpanAgg>, dur_ns: u64) {
        let mut agg = agg.lock().expect("span series poisoned");
        if agg.count == 0 {
            agg.min_ns = dur_ns;
            agg.max_ns = dur_ns;
        } else {
            agg.min_ns = agg.min_ns.min(dur_ns);
            agg.max_ns = agg.max_ns.max(dur_ns);
        }
        agg.count += 1;
        agg.total_ns += dur_ns;
    }

    fn span_cell(path: String) -> Arc<Mutex<SpanAgg>> {
        let mut spans = global().spans.lock().expect("span registry poisoned");
        Arc::clone(spans.entry(path).or_default())
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(active) = self.0.take() else { return };
            let dur_ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.truncate(active.depth.saturating_sub(1));
            });
            span_agg_update(&span_cell(active.path), dur_ns);
            if full_enabled() {
                push_event(EventKind::E, active.name, now_ns(global()), 0.0);
            }
        }
    }

    /// Opens a span named `name`, nested under any span already open on
    /// this thread. Off-level cost: one relaxed atomic load.
    pub fn span(name: &'static str) -> Span {
        if !enabled() {
            return Span(None);
        }
        let (path, depth) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            (s.join("/"), s.len())
        });
        if full_enabled() {
            push_event(EventKind::B, name, now_ns(global()), 0.0);
        }
        Span(Some(ActiveSpan { path, name, depth, start: Instant::now() }))
    }

    /// Adds `delta` to counter `name`. Off-level cost: one relaxed
    /// atomic load. At [`Level::Full`] also appends a timeline event
    /// carrying the new cumulative value.
    pub fn counter_add(name: &'static str, delta: u64) {
        if !enabled() {
            return;
        }
        let g = global();
        let cumulative =
            with_cell(&g.metrics.counters, name, &[], |c| c.fetch_add(delta, Ordering::Relaxed));
        if full_enabled() {
            push_event(EventKind::C, name, now_ns(g), (cumulative + delta) as f64);
        }
    }

    /// Adds `delta` to counter `name` under the given label set (e.g.
    /// `&[("model", "svc"), ("endpoint", "predict")]`). Label order is
    /// canonicalized, so call sites may list keys in any order.
    /// Labeled counters do not emit timeline events.
    pub fn counter_add_labeled(name: &'static str, labels: &[(&str, &str)], delta: u64) {
        if enabled() {
            global().metrics.counter_add(name, labels, delta);
        }
    }

    /// Records `value` into histogram `name`. Off-level cost: one
    /// relaxed atomic load.
    pub fn record(name: &'static str, value: f64) {
        if enabled() {
            global().metrics.record(name, &[], value);
        }
    }

    /// Records `value` into histogram `name` under the given label set.
    /// Label order is canonicalized, so call sites may list keys in any
    /// order.
    pub fn record_labeled(name: &'static str, labels: &[(&str, &str)], value: f64) {
        if enabled() {
            global().metrics.record(name, labels, value);
        }
    }

    /// Records `value` into histogram `name` only at [`Level::Full`] —
    /// for high-frequency probes (per-iteration trajectories) too hot
    /// for `summary` runs.
    pub fn record_full(name: &'static str, value: f64) {
        if full_enabled() {
            global().metrics.record(name, &[], value);
        }
    }

    /// Pre-resolved counter series: [`CounterHandle::add`] is one
    /// relaxed atomic add — no registry lock, no label allocation. For
    /// hot paths (per-request serving loops); resolve once, reuse.
    ///
    /// The handle stays wired to [`collect`] reports for its lifetime.
    /// [`reset`] zeroes the series in place when a handle is live.
    #[derive(Clone)]
    pub struct CounterHandle(Arc<AtomicU64>);

    impl CounterHandle {
        /// Adds `delta` when tracing is enabled (one atomic add).
        #[inline]
        pub fn add(&self, delta: u64) {
            if enabled() {
                self.0.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Resolves a [`CounterHandle`] for `name` + `labels` (one registry
    /// lock, here, once).
    pub fn counter_handle(name: &'static str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(with_cell(&global().metrics.counters, name, labels, |c| Arc::clone(c)))
    }

    /// Pre-resolved span series for a *top-level* hot-path span (the
    /// recorded path is `name` alone, with no parent prefix — resolve
    /// handles only for spans opened at the top of a thread's stack,
    /// e.g. a server worker's per-request span). Children opened inside
    /// a running [`HandleSpan`] still nest under `name` normally.
    #[derive(Clone)]
    pub struct SpanHandle {
        name: &'static str,
        agg: Arc<Mutex<SpanAgg>>,
    }

    impl SpanHandle {
        /// Opens the span; timing stops when the guard drops.
        pub fn start(&self) -> HandleSpan {
            if !enabled() {
                return HandleSpan(None);
            }
            let depth = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.push(self.name);
                s.len()
            });
            if full_enabled() {
                push_event(EventKind::B, self.name, now_ns(global()), 0.0);
            }
            HandleSpan(Some(ActiveHandleSpan {
                agg: Arc::clone(&self.agg),
                name: self.name,
                depth,
                start: Instant::now(),
            }))
        }
    }

    /// Resolves a [`SpanHandle`] for top-level span `name`.
    pub fn span_handle(name: &'static str) -> SpanHandle {
        SpanHandle { name, agg: span_cell(name.to_string()) }
    }

    struct ActiveHandleSpan {
        agg: Arc<Mutex<SpanAgg>>,
        name: &'static str,
        depth: usize,
        start: Instant,
    }

    /// RAII guard for a [`SpanHandle`] span.
    pub struct HandleSpan(Option<ActiveHandleSpan>);

    impl Drop for HandleSpan {
        fn drop(&mut self) {
            let Some(active) = self.0.take() else { return };
            let dur_ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.truncate(active.depth.saturating_sub(1));
            });
            span_agg_update(&active.agg, dur_ns);
            if full_enabled() {
                push_event(EventKind::E, active.name, now_ns(global()), 0.0);
            }
        }
    }

    /// Clears all spans, counters, gauges, histograms, and timeline
    /// rings of the global registry (the level, ring capacity, and
    /// thread names are untouched). Harnesses call this between
    /// measured sections.
    pub fn reset() {
        let g = global();
        g.metrics.clear();
        // Span series held by a handle are zeroed in place, like
        // counters; everything else is removed.
        g.spans.lock().expect("span registry poisoned").retain(|_, cell| {
            *cell.lock().expect("span series poisoned") = SpanAgg::default();
            Arc::strong_count(cell) > 1
        });
        let shards = g.shards.lock().expect("shard registry poisoned");
        for shard in shards.iter() {
            let mut ring = shard.ring.lock().expect("ring poisoned");
            ring.buf.clear();
            ring.dropped = 0;
        }
    }

    /// Snapshots the global registry into a sorted, serializable
    /// report. When any timeline events were dropped, a synthetic
    /// `trace.ring.dropped` counter carries the total.
    pub fn collect() -> TraceReport {
        let g = global();
        let mut report = g.metrics.collect();
        // Span series that never recorded are skipped: resolving a
        // handle merely *wires* a series, it should not make an
        // all-zero row appear in reports.
        report.spans = g
            .spans
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|(path, cell)| {
                let a = cell.lock().expect("span series poisoned");
                SpanStat {
                    path: path.clone(),
                    count: a.count,
                    total_ns: a.total_ns,
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
                }
            })
            .filter(|s| s.count > 0)
            .collect();
        let mut shards: Vec<Arc<Shard>> = g.shards.lock().expect("shard registry poisoned").clone();
        shards.sort_by_key(|s| s.tid);
        for shard in &shards {
            let ring = shard.ring.lock().expect("ring poisoned");
            report.dropped_events += ring.dropped;
            if ring.buf.is_empty() && ring.dropped == 0 {
                continue;
            }
            report.threads.push(ThreadInfo {
                tid: shard.tid,
                name: shard.label.lock().expect("shard label poisoned").clone(),
            });
            report.timeline.extend(ring.buf.iter().map(|e| TimelineEvent {
                tid: shard.tid,
                ph: e.ph,
                name: e.name.to_string(),
                ts_ns: e.ts_ns,
                value: e.value,
            }));
        }
        if report.dropped_events > 0 {
            report.counters.push(CounterStat {
                name: "trace.ring.dropped".to_string(),
                labels: Vec::new(),
                value: report.dropped_events,
            });
        }
        report.sort();
        report
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::{Level, TraceReport, EVENT_CAP};

    /// Compiled-out span guard: a zero-sized no-op.
    pub struct Span(());

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span(())
    }

    /// Always [`Level::Off`] (probes compiled out).
    #[inline(always)]
    pub fn level() -> Level {
        Level::Off
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn set_level(_lvl: Level) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn init_from_env_or(_default: Level) {}

    /// Always false (probes compiled out).
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Always false (probes compiled out).
    #[inline(always)]
    pub fn full_enabled() -> bool {
        false
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn counter_add_labeled(_name: &'static str, _labels: &[(&str, &str)], _delta: u64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn record(_name: &'static str, _value: f64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn record_labeled(_name: &'static str, _labels: &[(&str, &str)], _value: f64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn record_full(_name: &'static str, _value: f64) {}

    /// Compiled-out counter handle: a zero-sized no-op.
    #[derive(Clone)]
    pub struct CounterHandle(());

    impl CounterHandle {
        /// No-op (probes compiled out).
        #[inline(always)]
        pub fn add(&self, _delta: u64) {}
    }

    /// No-op handle (probes compiled out).
    #[inline(always)]
    pub fn counter_handle(_name: &'static str, _labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(())
    }

    /// Compiled-out span handle: a zero-sized no-op.
    #[derive(Clone)]
    pub struct SpanHandle(());

    impl SpanHandle {
        /// No-op (probes compiled out).
        #[inline(always)]
        pub fn start(&self) -> HandleSpan {
            HandleSpan(())
        }
    }

    /// No-op handle (probes compiled out).
    #[inline(always)]
    pub fn span_handle(_name: &'static str) -> SpanHandle {
        SpanHandle(())
    }

    /// Compiled-out span guard: a zero-sized no-op.
    pub struct HandleSpan(());

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn name_thread(_label: &str) {}

    /// Always [`EVENT_CAP`] (probes compiled out).
    #[inline(always)]
    pub fn event_capacity() -> usize {
        EVENT_CAP
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn set_event_capacity(_cap: usize) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn reset() {}

    /// Always [`TraceReport::empty`] (probes compiled out).
    #[inline(always)]
    pub fn collect() -> TraceReport {
        TraceReport::empty()
    }
}

pub use imp::{
    collect, counter_add, counter_add_labeled, counter_handle, enabled, event_capacity,
    full_enabled, init_from_env_or, level, name_thread, record, record_full, record_labeled, reset,
    set_event_capacity, set_level, span, span_handle, CounterHandle, HandleSpan, Span, SpanHandle,
};

#[cfg(test)]
mod collapse_tests {
    use super::*;

    fn stat(path: &str, total_ns: u64) -> SpanStat {
        SpanStat { path: path.to_string(), count: 1, total_ns, min_ns: total_ns, max_ns: total_ns }
    }

    /// Folded output: `/` becomes `;`, values are self time (total
    /// minus direct children), zero-self and over-accounted spans are
    /// omitted, order follows the report's path order.
    #[test]
    fn collapsed_stacks_formatting() {
        let mut r = TraceReport::empty();
        r.spans = vec![
            stat("other", 10),
            stat("solve", 100),
            stat("solve/select", 30),
            stat("solve/select/row", 30), // fully accounts for its parent
            stat("solve/update", 20),
        ];
        assert_eq!(
            r.to_collapsed_stacks(),
            "other 10\nsolve 50\nsolve;select;row 30\nsolve;update 20\n"
        );

        // Child totals exceeding the parent's clamp to zero rather than
        // wrapping.
        r.spans = vec![stat("a", 5), stat("a/b", 9)];
        assert_eq!(r.to_collapsed_stacks(), "a;b 9\n");

        assert_eq!(TraceReport::empty().to_collapsed_stacks(), "");
    }
}

#[cfg(test)]
mod chrome_trace_tests {
    use super::*;

    fn ev(tid: u64, ph: EventKind, name: &str, ts_ns: u64, value: f64) -> TimelineEvent {
        TimelineEvent { tid, ph, name: name.to_string(), ts_ns, value }
    }

    /// Threads become `M` metadata rows; B/E/C events carry µs
    /// timestamps; names are JSON-escaped.
    #[test]
    fn chrome_trace_formatting() {
        let mut r = TraceReport::empty();
        r.threads = vec![ThreadInfo { tid: 0, name: "main".to_string() }];
        r.timeline = vec![
            ev(0, EventKind::B, "solve", 1500, 0.0),
            ev(0, EventKind::C, "iters", 2000, 42.0),
            ev(0, EventKind::E, "solve", 2500, 0.0),
        ];
        assert_eq!(
            r.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"main\"}},\
             {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"name\":\"solve\"},\
             {\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":2.000,\"name\":\"iters\",\
             \"args\":{\"value\":42}},\
             {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2.500,\"name\":\"solve\"}]}"
        );
    }

    /// An `E` whose opening `B` fell off the ring is skipped so the
    /// exported track nests cleanly; unclosed `B`s are kept.
    #[test]
    fn chrome_trace_sanitizes_dangling_ends() {
        let mut r = TraceReport::empty();
        r.timeline = vec![
            ev(3, EventKind::E, "lost", 100, 0.0), // opener dropped
            ev(3, EventKind::B, "kept", 200, 0.0),
            ev(3, EventKind::E, "kept", 300, 0.0),
            ev(3, EventKind::B, "open", 400, 0.0), // still open
        ];
        let out = r.to_chrome_trace();
        assert!(!out.contains("lost"), "dangling E must be skipped: {out}");
        assert!(out.contains("\"ph\":\"B\",\"pid\":1,\"tid\":3,\"ts\":0.200"));
        assert!(out.contains("\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":0.300"));
        assert!(out.contains("\"ts\":0.400,\"name\":\"open\""));
    }

    /// Empty reports export an empty-but-valid trace.
    #[test]
    fn chrome_trace_empty() {
        assert_eq!(
            TraceReport::empty().to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    /// Special characters in names survive as valid JSON escapes.
    #[test]
    fn chrome_trace_escapes_names() {
        let mut r = TraceReport::empty();
        r.threads = vec![ThreadInfo { tid: 0, name: "a\"b\\c\nd".to_string() }];
        assert!(r.to_chrome_trace().contains("{\"name\":\"a\\\"b\\\\c\\nd\"}"));
    }
}

#[cfg(test)]
mod openmetrics_tests {
    use super::*;

    /// Counters map directly; probe dots become metric-name
    /// underscores; the counter sample carries the `_total` suffix.
    #[test]
    fn counters_map_directly() {
        let mut r = TraceReport::empty();
        r.counters = vec![
            CounterStat { name: "svm.smo.iterations".to_string(), labels: vec![], value: 42 },
            CounterStat { name: "svm.qcache.hits".to_string(), labels: vec![], value: 7 },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_svm_smo_iterations counter\n\
             edm_svm_smo_iterations_total 42\n\
             # TYPE edm_svm_qcache_hits counter\n\
             edm_svm_qcache_hits_total 7\n\
             # EOF\n"
        );
    }

    /// Label sets render as `{k="v",...}` selectors; rows of the same
    /// family share one `# TYPE` header.
    #[test]
    fn labeled_counters_share_a_family() {
        let mut r = TraceReport::empty();
        let lbl = |m: &str, e: &str| {
            vec![("endpoint".to_string(), e.to_string()), ("model".to_string(), m.to_string())]
        };
        r.counters = vec![
            CounterStat {
                name: "serve.requests".to_string(),
                labels: lbl("knn", "predict"),
                value: 3,
            },
            CounterStat {
                name: "serve.requests".to_string(),
                labels: lbl("svc", "predict"),
                value: 9,
            },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_serve_requests counter\n\
             edm_serve_requests_total{endpoint=\"predict\",model=\"knn\"} 3\n\
             edm_serve_requests_total{endpoint=\"predict\",model=\"svc\"} 9\n\
             # EOF\n"
        );
    }

    /// Gauges render one plain sample per label set, labels in the
    /// row's own order.
    #[test]
    fn gauges_render_plain_samples() {
        let mut r = TraceReport::empty();
        r.gauges = vec![
            GaugeStat { name: "serve.batch_rows_max".to_string(), labels: vec![], value: 48.0 },
            GaugeStat {
                name: "serve.latency_quantile_ms".to_string(),
                labels: vec![
                    ("model".to_string(), "svc".to_string()),
                    ("window".to_string(), "60s".to_string()),
                    ("quantile".to_string(), "0.5".to_string()),
                ],
                value: 1.25,
            },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_serve_batch_rows_max gauge\n\
             edm_serve_batch_rows_max 48\n\
             # TYPE edm_serve_latency_quantile_ms gauge\n\
             edm_serve_latency_quantile_ms{model=\"svc\",window=\"60s\",quantile=\"0.5\"} 1.25\n\
             # EOF\n"
        );
    }

    /// Decilog buckets become cumulative `le` buckets at the bucket's
    /// upper bound `10^((k+1)/10)` (five significant digits), closed by
    /// `+Inf`, `_sum`, `_count`.
    #[test]
    fn histogram_buckets_are_cumulative_le() {
        let mut r = TraceReport::empty();
        r.histograms = vec![HistogramStat {
            name: "t.hist".to_string(),
            labels: vec![],
            count: 4,
            sum: 1031.25,
            min: 0.25,
            max: 1024.0,
            // 0.25 -> k = -7; 3.5 (twice) -> k = 5; 1024 -> k = 30.
            buckets: vec![(-7, 1), (5, 2), (30, 1)],
            window: vec![],
        }];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_t_hist histogram\n\
             edm_t_hist_bucket{le=\"0.25119\"} 1\n\
             edm_t_hist_bucket{le=\"3.9811\"} 3\n\
             edm_t_hist_bucket{le=\"1258.9\"} 4\n\
             edm_t_hist_bucket{le=\"+Inf\"} 4\n\
             edm_t_hist_sum 1031.25\n\
             edm_t_hist_count 4\n\
             # EOF\n"
        );
    }

    /// Labeled histograms put probe labels before `le` and suffix
    /// `_sum`/`_count` with the plain label set.
    #[test]
    fn labeled_histograms_interleave_le() {
        let mut r = TraceReport::empty();
        r.histograms = vec![HistogramStat {
            name: "serve.request_latency_ns".to_string(),
            labels: vec![("model".to_string(), "svc".to_string())],
            count: 2,
            sum: 6.0,
            min: 2.0,
            max: 4.0,
            // 2 -> k = 3; 4 -> k = 6.
            buckets: vec![(3, 1), (6, 1)],
            window: vec![(6, 1)],
        }];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_serve_request_latency_ns histogram\n\
             edm_serve_request_latency_ns_bucket{model=\"svc\",le=\"2.5119\"} 1\n\
             edm_serve_request_latency_ns_bucket{model=\"svc\",le=\"5.0119\"} 2\n\
             edm_serve_request_latency_ns_bucket{model=\"svc\",le=\"+Inf\"} 2\n\
             edm_serve_request_latency_ns_sum{model=\"svc\"} 6\n\
             edm_serve_request_latency_ns_count{model=\"svc\"} 2\n\
             # EOF\n"
        );
    }

    /// Spans become two labeled counter families; quotes and
    /// backslashes in paths are escaped per the exposition format.
    #[test]
    fn spans_become_labeled_counters() {
        let mut r = TraceReport::empty();
        r.spans = vec![
            SpanStat { path: "solve".to_string(), count: 2, total_ns: 90, min_ns: 40, max_ns: 50 },
            SpanStat {
                path: "solve/q\"r\\w".to_string(),
                count: 1,
                total_ns: 30,
                min_ns: 30,
                max_ns: 30,
            },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_span_activations counter\n\
             edm_span_activations_total{path=\"solve\"} 2\n\
             edm_span_activations_total{path=\"solve/q\\\"r\\\\w\"} 1\n\
             # TYPE edm_span_time_ns counter\n\
             edm_span_time_ns_total{path=\"solve\"} 90\n\
             edm_span_time_ns_total{path=\"solve/q\\\"r\\\\w\"} 30\n\
             # EOF\n"
        );
    }

    /// Merged reports render as one exposition: one `# TYPE` per
    /// family, rows back in sorted order.
    #[test]
    fn merged_reports_render_one_type_line_per_family() {
        let row = |model: &str, value| CounterStat {
            name: "a.b".to_string(),
            labels: vec![("model".to_string(), model.to_string())],
            value,
        };
        let mut r = TraceReport::empty();
        r.counters = vec![row("y", 2)];
        let mut other = TraceReport::empty();
        other.counters = vec![row("x", 1)];
        r.merge(other);
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_a_b counter\n\
             edm_a_b_total{model=\"x\"} 1\n\
             edm_a_b_total{model=\"y\"} 2\n\
             # EOF\n"
        );
    }

    /// An empty report is just the terminator.
    #[test]
    fn empty_report_is_only_eof() {
        assert_eq!(TraceReport::empty().to_openmetrics(), "# EOF\n");
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn decilog_buckets_bracket_their_samples() {
        // 1000: log10 = 3.0 exactly -> bucket 30, upper edge 10^3.1.
        assert_eq!(bucket_of(1000.0), 30);
        assert!(bucket_edge(30) > 1000.0 && bucket_edge(30) < 1300.0);
        assert_eq!(bucket_of(1.0), 0);
        assert_eq!(bucket_of(0.0), LOW_BUCKET);
        assert_eq!(bucket_of(-3.0), LOW_BUCKET);
        assert_eq!(bucket_of(u64::MAX as f64), LOW_BUCKET + BUCKETS as i64 - 1);
        for v in [2e-6, 0.25, 1.5, 3.5, 999.0, 1234.5, 7.7e8, 4.2e12] {
            let k = bucket_of(v);
            assert!(bucket_edge(k - 1) <= v && v < bucket_edge(k), "{v} outside bucket {k}");
            assert!(bucket_edge(k) <= v * 1.26, "bucket {k} wider than one decilog step");
        }
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_truth() {
        let mut h = Hist::default();
        for ns in [100.0, 200.0, 300.0, 400.0, 1e6] {
            h.record(ns, 0);
        }
        let s = h.stat("t", &[], 0);
        let p50 = s.quantile(0.5).expect("non-empty");
        // True median 300; the estimate is its bucket's upper edge.
        assert!((300.0..=300.0 * 1.26).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99).expect("non-empty");
        assert!((1e6..=1e6 * 1.26).contains(&p99), "p99 = {p99}");
        assert_eq!(Hist::default().stat("t", &[], 0).quantile(0.5), None);
    }

    #[test]
    fn window_slots_expire_older_seconds() {
        let mut h = Hist::default();
        h.record(1000.0, 10);
        h.record(1000.0, 30);
        // At second 30 both are inside the 60 s window...
        assert_eq!(h.stat("t", &[], 30).window_count(), 2);
        // ...at second 80 only the second-30 slot remains...
        assert_eq!(h.stat("t", &[], 80).window_count(), 1);
        // ...and at second 100 the window is empty, lifetime is not.
        let late = h.stat("t", &[], 100);
        assert_eq!((late.window_count(), late.count), (0, 2));
        assert_eq!(late.window_quantile(0.5), None);
        // The second-10 slot has left the window by second 70, so its
        // storage is reused for second 70.
        h.record(1000.0, 10 + WINDOW_SECS);
        assert_eq!(h.window.len(), 2, "slot 10 reused, not kept beside a new one");
        assert_eq!(h.stat("t", &[], 10 + WINDOW_SECS).window_count(), 2);
    }

    #[test]
    fn registry_records_lifetime_and_window() {
        let m = Registry::new();
        m.record("t.latency_ns", &[("endpoint", "predict"), ("model", "svc")], 1_000_000.0);
        m.record("t.latency_ns", &[("model", "svc"), ("endpoint", "predict")], 2_000_000.0);
        m.record("t.latency_ns", &[("endpoint", "predict"), ("model", "svc")], 500_000.0);
        m.record("t.latency_ns", &[("endpoint", "predict"), ("model", "svc")], f64::NAN);
        let r = m.collect();
        assert_eq!(r.histograms.len(), 1, "label order never splits a series");
        let h = &r.histograms[0];
        assert_eq!(h.count, 3, "non-finite samples are ignored");
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((1e6..=1.26e6).contains(&p50), "p50 = {p50}");
        // Recorded this second, so the window holds everything.
        assert_eq!(h.window_count(), 3);
        assert_eq!(h.window, h.buckets);
    }

    #[test]
    fn many_label_sets_each_keep_their_own_series() {
        let m = Registry::new();
        // Models arrive out of order and with keys in either order, so
        // lookups and inserts land all over the sorted label sets.
        let models: Vec<String> = (0..300).map(|i| format!("m{}", (i * 7919) % 300)).collect();
        for (i, model) in models.iter().enumerate() {
            for _ in 0..=i % 3 {
                if i % 2 == 0 {
                    m.counter_add("t.req", &[("model", model), ("endpoint", "predict")], 1);
                } else {
                    m.counter_add("t.req", &[("endpoint", "predict"), ("model", model)], 1);
                }
            }
        }
        // More labels than fit the stack buffer take the heap path.
        let wide: Vec<(String, String)> =
            (0..STACK_LABELS + 2).rev().map(|k| (format!("k{k:02}"), k.to_string())).collect();
        let wide: Vec<(&str, &str)> = wide.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        m.counter_add("t.req", &wide, 5);
        m.counter_add("t.req", &wide, 5);
        let r = m.collect();
        assert_eq!(r.counters.len(), 301);
        for (i, model) in models.iter().enumerate() {
            let row = r
                .counters
                .iter()
                .find(|c| c.labels.iter().any(|(k, v)| k == "model" && v == model))
                .expect("series present");
            assert_eq!(row.value, (i % 3 + 1) as u64, "model {model}");
        }
        let wide_row = r.counters.iter().find(|c| c.labels.len() == STACK_LABELS + 2);
        assert_eq!(wide_row.map(|c| c.value), Some(10));
        assert!(wide_row.is_some_and(|c| c.labels.is_sorted()), "labels stored canonically");
    }

    #[test]
    fn counters_and_gauges_record_at_every_level() {
        let m = Registry::new();
        m.counter_add("t.count", &[("tier", "bulk"), ("model", "svc")], 1);
        m.counter_add("t.count", &[("model", "svc"), ("tier", "bulk")], 1);
        m.counter_add("t.zero", &[], 0);
        m.gauge_max("t.max", &[], 16);
        m.gauge_max("t.max", &[], 48);
        m.gauge_max("t.max", &[], 8);
        let r = m.collect();
        assert_eq!(r.counters.len(), 2);
        assert_eq!(r.counter("t.count"), 2);
        assert_eq!(
            r.counters[0].labels,
            vec![
                ("model".to_string(), "svc".to_string()),
                ("tier".to_string(), "bulk".to_string())
            ]
        );
        assert_eq!(r.counters[1].name, "t.zero", "zero counters are reported");
        assert_eq!(r.gauges.len(), 1);
        assert_eq!(r.gauges[0].value, 48.0);
    }

    #[test]
    fn histogram_merge_adds_buckets_and_windows() {
        let m = Registry::new();
        m.record("t.h", &[("status", "200")], 100.0);
        m.record("t.h", &[("status", "200")], 1000.0);
        m.record("t.h", &[("status", "503")], 1000.0);
        let r = m.collect();
        let mut merged = r.histograms[0].clone();
        merged.merge(&r.histograms[1]);
        assert_eq!((merged.count, merged.sum, merged.min, merged.max), (3, 2100.0, 100.0, 1000.0));
        assert_eq!(merged.buckets, vec![(20, 1), (30, 2)]);
        assert_eq!(merged.window_count(), 3);
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// One sequential lifecycle test: the registry and level are global,
    /// so interleaved tests would race each other's counts.
    #[test]
    fn lifecycle_spans_counters_histograms_report() {
        set_level(Level::Off);
        reset();

        // Off: nothing records.
        {
            let _s = span("off.span");
            counter_add("off.counter", 5);
            counter_add_labeled("off.labeled", &[("k", "v")], 5);
            record("off.hist", 1.0);
        }
        let r = collect();
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.histograms.is_empty());
        assert!(r.compiled);
        assert_eq!(r.level, "off");

        // Summary: aggregates but no timeline events.
        set_level(Level::Summary);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter_add("t.count", 2);
                counter_add("t.count", 3);
                counter_add_labeled("t.labeled", &[("model", "svc"), ("endpoint", "p")], 4);
                counter_add_labeled("t.labeled", &[("endpoint", "p"), ("model", "svc")], 1);
                record("t.hist", 3.5); // bucket 5
                record("t.hist", 1024.0); // bucket 30
                record_labeled("t.lhist", &[("model", "svc")], 2.0);
                record_full("t.hot", 1.0); // full-only: must not record
            }
            {
                let _inner2 = span("inner");
            }
        }
        let r = collect();
        assert_eq!(r.counter("t.count"), 5);
        // Key order at the call site never splits a labeled series.
        let labeled = r.counters.iter().find(|c| c.name == "t.labeled").expect("labeled counter");
        assert_eq!(labeled.value, 5);
        assert_eq!(
            labeled.labels,
            vec![
                ("endpoint".to_string(), "p".to_string()),
                ("model".to_string(), "svc".to_string())
            ]
        );
        let lh = r.histograms.iter().find(|h| h.name == "t.lhist").expect("labeled histogram");
        assert_eq!(lh.labels, vec![("model".to_string(), "svc".to_string())]);
        assert_eq!(r.span_count("inner"), 2);
        let outer = r.spans.iter().find(|s| s.path == "outer").expect("outer span");
        assert_eq!(outer.count, 1);
        let nested = r.spans.iter().find(|s| s.path == "outer/inner").expect("nested path");
        assert_eq!(nested.count, 2);
        assert!(nested.min_ns <= nested.max_ns && nested.total_ns >= nested.max_ns);
        let h = r.histograms.iter().find(|h| h.name == "t.hist").expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1027.5);
        assert_eq!(h.min, 3.5);
        assert_eq!(h.max, 1024.0);
        assert_eq!(h.buckets, vec![(5, 1), (30, 1)]);
        assert!(r.histograms.iter().all(|h| h.name != "t.hot"), "record_full off at summary");
        assert!(r.timeline.is_empty(), "no timeline events at summary level");

        // Pre-resolved handles: same series as the by-name calls, and
        // an unused span handle never surfaces an all-zero span.
        let hc = counter_handle("t.count", &[]);
        hc.add(10);
        let hl = counter_handle("t.labeled", &[("endpoint", "p"), ("model", "svc")]);
        hl.add(5);
        let hs = span_handle("h.span");
        drop(hs.start());
        let idle_span = span_handle("h.idle.span");
        let r = collect();
        assert_eq!(r.counter("t.count"), 15, "handle adds join the by-name series");
        let labeled = r.counters.iter().find(|c| c.name == "t.labeled").expect("labeled counter");
        assert_eq!(labeled.value, 10, "labeled handle joins the canonicalized series");
        assert_eq!(r.span_count("h.span"), 1);
        assert!(r.spans.iter().all(|s| s.path != "h.idle.span"), "idle span handle hidden");
        // Reset keeps handle-held series wired (zeroed, not detached).
        reset();
        hc.add(2);
        record("t.hist", 1.0);
        let r = collect();
        assert_eq!(r.counter("t.count"), 2, "post-reset handle still reports");
        assert_eq!(r.histograms.iter().find(|h| h.name == "t.hist").map(|h| h.count), Some(1));
        assert!(r.spans.is_empty(), "unreferenced span series dropped by reset");
        // Dropped handles release their series for the next reset.
        drop((hc, hl, hs, idle_span));

        // Full: timeline events appear; record_full records.
        set_level(Level::Full);
        {
            let _s = span("full.span");
            counter_add("full.count", 7);
            record_full("t.hot", 2.0);
        }
        let r = collect();
        let begins: Vec<_> =
            r.timeline.iter().filter(|e| e.ph == EventKind::B && e.name == "full.span").collect();
        assert_eq!(begins.len(), 1, "one B event for full.span");
        assert!(
            r.timeline.iter().any(|e| e.ph == EventKind::E && e.name == "full.span"),
            "E event for full.span"
        );
        let c_ev = r
            .timeline
            .iter()
            .find(|e| e.ph == EventKind::C && e.name == "full.count")
            .expect("counter timeline event");
        assert_eq!(c_ev.value, 7.0, "C event carries cumulative value");
        assert!(!r.threads.is_empty(), "recording thread listed");
        assert_eq!(r.histograms.iter().find(|h| h.name == "t.hot").map(|h| h.count), Some(1));

        // JSON round-trips through the workspace serde_json compat.
        let json = r.to_json().expect("serializable");
        let back: TraceReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, r);

        // Reset clears data but not the level.
        reset();
        let r = collect();
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.timeline.is_empty());
        assert_eq!(r.dropped_events, 0);
        assert_eq!(r.level, "full");
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn level_parse_vocabulary() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("  SUMMARY "), Some(Level::Summary));
        assert_eq!(Level::parse("full"), Some(Level::Full));
        assert_eq!(Level::parse("1"), Some(Level::Summary));
        assert_eq!(Level::parse(""), Some(Level::Off));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn empty_report_serializes() {
        let r = TraceReport::empty();
        let json = r.to_json().expect("serializable");
        let back: TraceReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, r);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.span_count("absent"), 0);
    }
}
