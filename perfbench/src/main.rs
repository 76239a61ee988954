//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <novelty-stream|litho-hotspot|return-screen> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload end to end with the
//! program's own tracing off and prints every end-to-end metric. With
//! `--trace 1` it runs the layer census instead: every flow replayed
//! step by step under bench-side spans, plus the `serve-mixed` layers
//! probed from outside, and prints every per-layer metric.
//! Human-readable report lines (provenance, input profile, the serve
//! figures with their sample counts) come first; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `METRICS.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use edm::persist::load_predictor_from_bytes;
use edm::trace::Level;
use perfbench::client::Conn;
use perfbench::flows::{first_buffer_full, Flow};
use perfbench::serve::{self, Live, LoadStats};
use perfbench::stats::{self, describe};
use perfbench::trace::Recorder;
use perfbench::{peak_rss_mb, provenance, secs_since, Fingerprint, OUT_DIR};

/// Least times each instance's set-up is repeated; `setup_s` is the
/// median over all of them.
const SETUP_REPS: usize = 5;
/// Set-up repeats until it has also taken this long, so a set-up of
/// microseconds still yields a steady median.
const SETUP_MIN_S: f64 = 1.0;
/// Seconds of each live load in the census (untraced, then traced).
const CENSUS_LOAD_S: f64 = 1.0;

/// Fingerprints of each flow at its paper seed, checked by every flow
/// run (the paper instance is part of every run).
const PAPER_FINGERPRINTS: [(&str, u64, &str); 3] = [
    ("novelty-stream", 7, "993b6d53673ded41"),
    ("litho-hotspot", 9, "4830e81d49d1ee82"),
    ("return-screen", 11, "8b5b75239e10ddcd"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: None, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A run's result: the metrics plus the counts behind `error_rate`.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the report; the last line is the JSON result.
    fn print(&self) {
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        for p in &self.problems {
            println!("# PROBLEM: {p}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# error_rate: {error_rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(flow) = Flow::ALL.into_iter().find(|f| f.workload() == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    // The program's own probes stay off: end-to-end numbers are measured
    // untraced, and the census times layers from outside.
    edm::trace::set_level(Level::Off);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let mut report = Report::default();
    let level =
        if args.trace { "off; summary during the census's traced serve load" } else { "off" };
    for (k, v) in provenance(level) {
        report.note(k, v);
    }
    report.note("workload", &args.workload);
    let seed = args.seed.unwrap_or(flow.paper_seed());
    report.note("seed", seed);
    report.note("mode", if args.trace { "traced layer census" } else { "end to end, untraced" });
    if args.trace {
        census(seed, &args.workload, level, &mut report);
    } else {
        flow_end_to_end(flow, seed, args.seconds, &mut report);
        report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    }
    report.print();
}

fn paper_fingerprint(workload: &str, seed: u64) -> Option<&'static str> {
    PAPER_FINGERPRINTS.iter().find(|(w, s, _)| *w == workload && *s == seed).map(|(_, _, fp)| *fp)
}

/// The flow instances one run covers: the paper seed first, then
/// `instances - 1` seeds drawn from the run's seed. Averaging over
/// several inputs keeps a run's figure from hanging on one draw, and
/// the paper instance keeps the paper's own configuration in every run.
fn instance_seeds(flow: Flow, seed: u64) -> Vec<u64> {
    let k = match flow {
        Flow::Novelty => 4,
        Flow::Litho => 4,
        Flow::Returns => 3,
    };
    std::iter::once(flow.paper_seed())
        .chain((1..k).map(|j| seed.wrapping_mul(1000).wrapping_add(j)))
        .collect()
}

/// Set-up builds every instance's inputs ([`Flow::build_inputs`]) in
/// turn, at least `SETUP_REPS` times each and for at least
/// `SETUP_MIN_S`; each build must give its instance's first digest, and
/// `setup_s` is the median build time. The timed repetitions then cycle
/// through every instance: each result must match its instance's first
/// result bit for bit, and the paper instance must match
/// [`PAPER_FINGERPRINTS`]. `wall_s` is the mean over instances of each
/// instance's median.
fn flow_end_to_end(flow: Flow, seed: u64, seconds: f64, report: &mut Report) {
    let seeds = instance_seeds(flow, seed);
    report.note("instance_seeds", format!("{seeds:?}"));

    let mut setup_s = Vec::new();
    let mut digests: Vec<Option<Fingerprint>> = vec![None; seeds.len()];
    let mut unstable = vec![false; seeds.len()];
    let t0 = Instant::now();
    let mut rep = 0usize;
    while rep < SETUP_REPS * seeds.len() || secs_since(t0) < SETUP_MIN_S {
        let j = rep % seeds.len();
        let t = Instant::now();
        let digest = flow.build_inputs(seeds[j]);
        setup_s.push(secs_since(t));
        match digests[j] {
            None => digests[j] = Some(digest),
            Some(d) => unstable[j] |= d != digest,
        }
        rep += 1;
    }
    // One check per instance: all its builds drew the same inputs.
    for ((s, digest), unstable) in seeds.iter().zip(&digests).zip(unstable) {
        report.attempted += 1;
        let digest = digest.map_or("none".to_string(), |d| d.hex());
        report.note(format!("profile.seed{s}.input_digest"), digest);
        if unstable {
            report.failed += 1;
            report.problem(format!("seed {s}: set-up builds drew different inputs"));
        }
    }

    let mut refs: Vec<Option<Fingerprint>> = vec![None; seeds.len()];
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let t0 = Instant::now();
    let mut rep = 0usize;
    while rep < seeds.len() || secs_since(t0) < seconds {
        let j = rep % seeds.len();
        let t = Instant::now();
        let out = flow.run(seeds[j]);
        per[j].push(secs_since(t));
        report.attempted += 1;
        match (out, refs[j]) {
            (Ok(o), None) => {
                for (k, v) in &o.profile {
                    report.note(format!("profile.seed{}.{k}", seeds[j]), v);
                }
                refs[j] = Some(o.fingerprint);
            }
            (Ok(o), Some(r)) if o.fingerprint != r => {
                report.failed += 1;
                report.problem(format!(
                    "seed {}: fingerprint {} != first run's {}",
                    seeds[j],
                    o.fingerprint.hex(),
                    r.hex()
                ));
            }
            (Ok(_), Some(_)) => {}
            (Err(e), _) => {
                report.failed += 1;
                report.problem(format!("seed {}: run failed: {e}", seeds[j]));
            }
        }
        rep += 1;
    }

    if let (Some(expected), Some(got)) = (paper_fingerprint(flow.workload(), seeds[0]), refs[0]) {
        if expected != got.hex() {
            report.failed += 1;
            report.problem(format!(
                "paper-seed fingerprint {} differs from the recorded {expected}",
                got.hex()
            ));
        }
    }
    if flow == Flow::Novelty {
        let first = first_buffer_full(seeds[0]).map_or("never".to_string(), |i| i.to_string());
        report.note(format!("profile.seed{}.first_buffer_full_test", seeds[0]), first);
    }
    let medians: Vec<f64> = per.iter().filter_map(|xs| stats::median(xs)).collect();
    report.note(
        "wall_s.instance_medians",
        medians.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(" "),
    );
    report.note("wall_s.reps", rep);
    let mean = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
    report.metric("wall_s", if medians.is_empty() { f64::NAN } else { mean }, "s");
    note_samples(report, "setup_s", &setup_s);
    report.metric("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
}

fn note_samples(report: &mut Report, name: &str, xs: &[f64]) {
    let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    report.note(format!("{name}.samples"), format!("n={} q1={q1:.6} q3={q3:.6}", xs.len()));
}

/// The serve figures users see, each percentile with its sample count.
fn note_load(report: &mut Report, load: &LoadStats) {
    let reqs = load.attempted() as f64;
    report.note("serve.requests_per_s", format!("{:.1}", reqs / load.elapsed_s));
    report.note("serve.rows_per_s", format!("{:.1}", load.rows as f64 / load.elapsed_s));
    report.note(
        "serve.small",
        format!(
            "{} {}",
            describe("p50_ms", &load.small_ms, 0.5),
            describe("p99_ms", &load.small_ms, 0.99)
        ),
    );
    report.note(
        "serve.large",
        format!(
            "{} {}",
            describe("p50_ms", &load.large_ms, 0.5),
            describe("p99_ms", &load.large_ms, 0.99)
        ),
    );
    report.note("serve.reload", describe("p50_ms", &load.reload_ms, 0.5));
    report.note(
        "profile.request_mix",
        format!(
            "small={} large={} reload={} connections={}",
            load.small_ms.len(),
            load.large_ms.len(),
            load.reload_ms.len(),
            load.connects
        ),
    );
}

// ---- the traced layer census --------------------------------------------

/// The per-layer metrics of one flow. A `_s` metric is the self time of
/// the replay span of that name; any other is the counter of that name.
fn flow_layers(flow: Flow) -> &'static [&'static str] {
    match flow {
        Flow::Novelty => &[
            "core.noveltest.decision_s",
            "core.noveltest.decisions",
            "kernels.spectrum_pairs",
            "core.noveltest.accept_s",
            "core.noveltest.accepted",
            "verif.generate_s",
            "verif.simulate_s",
            "verif.tests",
        ],
        Flow::Litho => &[
            "litho.analyze_s",
            "litho.clips",
            "litho.generate_s",
            "litho.featurize_s",
            "svm.svc_fit_s",
            "svm.one_class_fit_s",
            "svm.smo_iterations",
            "svm.n_support",
            "svm.score_s",
            "svm.kernel_evals",
        ],
        Flow::Returns => &[
            "core.returns.score_s",
            "core.returns.score_calls",
            "core.returns.score_population_s",
            "linalg.stats.median_rows",
            "linalg.stats.robust_s",
            "core.returns.select_s",
            "novelty.mahalanobis_fit_s",
            "mfgtest.generate_s",
            "mfgtest.screen_s",
            "mfgtest.field_s",
            "mfgtest.devices",
        ],
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_us") || name.contains("_us.") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else {
        "count"
    }
}

/// Replays every flow and probes every serve layer, so each traced run
/// yields the whole per-layer table. Flows replay their paper-seed
/// instance, so the split is the paper configuration's and comparable
/// across runs; the live serve load draws its request rows from `seed`.
fn census(seed: u64, workload: &str, level: &str, report: &mut Report) {
    let mut recorders: Vec<(&'static str, Recorder)> = Vec::new();
    for flow in Flow::ALL {
        let t = Instant::now();
        let untraced = flow.run(flow.paper_seed());
        let untraced_s = secs_since(t);
        let mut rec = Recorder::default();
        let replayed = flow.replay(flow.paper_seed(), &mut rec);
        report.attempted += 2;
        let name = flow.workload();
        match (untraced, replayed) {
            (Ok(u), Ok((r, root))) => {
                if u.fingerprint != r.fingerprint {
                    report.failed += 1;
                    report.problem(format!("{name}: replay does not reproduce the flow"));
                }
                let selfs = rec.self_seconds();
                for &metric in flow_layers(flow) {
                    let v = if metric.ends_with("_s") {
                        selfs.get(metric).copied().unwrap_or(0.0)
                    } else {
                        rec.counter(metric) as f64
                    };
                    report.metric(metric, v, unit_of(metric));
                }
                if flow == Flow::Returns {
                    let useful = rec.counter("linalg.stats.median_rows_useful") as f64;
                    let fed = rec.counter("linalg.stats.median_rows").max(1) as f64;
                    report.metric("linalg.stats.useful_ratio", useful / fed, "ratio");
                }
                let replay_s = rec.span_seconds(root);
                report.metric(format!("trace.coverage.{name}"), rec.coverage(root), "ratio");
                report.metric(
                    format!("trace.overhead_pct.{name}"),
                    100.0 * (replay_s / untraced_s - 1.0),
                    "%",
                );
                report.note(format!("{name}.largest_layers"), largest(&selfs, name));
                report.note(
                    format!("{name}.untraced_vs_replay_s"),
                    format!("{untraced_s:.4} vs {replay_s:.4}"),
                );
            }
            (u, r) => {
                report.failed += u.is_err() as u64 + r.is_err() as u64;
                report.problem(format!("{name}: flow or replay failed"));
            }
        }
        recorders.push((name, rec));
    }
    let mut rec = Recorder::default();
    if let Err(e) = serve_census(seed, &mut rec, report) {
        report.attempted += 1;
        report.failed += 1;
        report.problem(format!("serve census failed: {e}"));
    }
    recorders.push(("serve-mixed", rec));
    write_spans(seed, workload, level, &recorders, report);
}

fn largest(selfs: &BTreeMap<&'static str, f64>, root: &str) -> String {
    let mut v: Vec<_> = selfs.iter().filter(|(k, _)| **k != root).collect();
    v.sort_by(|a, b| b.1.total_cmp(a.1));
    v.iter().take(3).map(|(k, s)| format!("{k}={s:.4}")).collect::<Vec<_>>().join(" ")
}

fn serve_census(seed: u64, rec: &mut Recorder, report: &mut Report) -> Result<(), String> {
    let root = rec.enter("serve-mixed");
    let set = serve::train_models(Flow::Litho.paper_seed(), rec)?;
    let costs = serve::model_io_costs(&set, 20, rec)?;
    for (family, save_us, load_us, bytes) in &costs {
        report.metric(format!("model_io.save_us.{family}"), *save_us, "us");
        report.metric(format!("model_io.load_us.{family}"), *load_us, "us");
        report.metric(format!("model_io.bytes.{family}"), *bytes as f64, "bytes");
    }

    // In-process layer probes on the served (reloaded) hotspot model.
    let mut bytes = Vec::new();
    set.models[0].2.save(&mut bytes).map_err(|e| e.to_string())?;
    let hot = load_predictor_from_bytes(&bytes).map_err(|e| e.to_string())?.model;
    let rows = serve::request_rows(seed);
    let (_, large) = serve::prepare_requests(hot.as_ref(), &rows)?;
    let text = String::from_utf8(large[0].body.clone()).map_err(|e| e.to_string())?;
    let batch = edm_serve::json::parse_inputs_fast(&text).ok_or("large body is not canonical")?;
    let parse_us = rec.time("serve.json.parse", || {
        serve::median_us(50, || {
            std::hint::black_box(edm_serve::json::parse_inputs_fast(std::hint::black_box(&text)));
        })
    });
    let batch_us = rec.time("svm.predict_batch", || {
        serve::median_us(50, || {
            std::hint::black_box(
                hot.predict_batch(std::hint::black_box(&batch)).expect("valid shape"),
            );
        })
    });
    let one = vec![rows[0].clone()];
    let one_us = rec.time("svm.predict_1row", || {
        serve::median_us(500, || {
            std::hint::black_box(
                hot.predict_batch(std::hint::black_box(&one)).expect("valid shape"),
            );
        })
    });
    report.metric("svm.predict_us_per_row", batch_us / serve::LARGE_ROWS as f64, "us");
    report.metric("svm.predict_1row_us", one_us, "us");
    report.metric("serve.json.parse_us", parse_us, "us");

    // Live: untraced load, then the same load with the server's probes
    // at summary level, with a scrape of /metrics on either side of the
    // traced load. Both scrapes share one connection, which the first
    // already counts, so counter differences are the traced load's own.
    let dir = std::path::Path::new(OUT_DIR).join(format!("models-{}-census", std::process::id()));
    let live = rec.time("serve.start", || Live::start(&set, seed, &dir))?;
    let off = rec.time("serve.load_untraced", || serve::run_load(&live, CENSUS_LOAD_S));
    let mut scraper = Conn::new(live.server.local_addr());
    let before = rec.time("serve.scrape", || scrape(&mut scraper));
    edm::trace::set_level(Level::Summary);
    let on = rec.time("serve.load_traced", || serve::run_load(&live, CENSUS_LOAD_S));
    edm::trace::set_level(Level::Off);
    let after = rec.time("serve.scrape", || scrape(&mut scraper));
    rec.time("serve.stop", || live.stop());
    rec.exit(root);

    for st in [&off, &on] {
        report.attempted += st.attempted();
        report.failed += st.failed;
    }
    let (before, after) = (before?, after?);
    let p50 = serve::metric_value(
        &after,
        "edm_serve_latency_quantile_ms{endpoint=\"predict\",model=\"hotspot\",window=\"lifetime\",quantile=\"0.5\"}",
    );
    report.metric("serve.server_p50_ms", p50.unwrap_or(f64::NAN), "ms");
    let during =
        |series: &str| serve::metric_sum(&after, series) - serve::metric_sum(&before, series);
    report.metric("serve.batch.flushes", during("edm_serve_batches_total"), "count");
    report.metric("serve.batch.rows", during("edm_serve_batch_rows_total"), "count");
    report.metric("serve.http.connections", during("edm_serve_http_connections_total"), "count");
    let models = stats::median(&on.reload_models.iter().map(|&n| n as f64).collect::<Vec<_>>());
    report.metric("serve.reload.models", models.unwrap_or(f64::NAN), "count");
    report.metric("serve.small_p50_ms", stats::median(&off.small_ms).unwrap_or(f64::NAN), "ms");
    report.metric("serve.large_p50_ms", stats::median(&off.large_ms).unwrap_or(f64::NAN), "ms");
    report.metric("serve.requests_per_s", off.attempted() as f64 / off.elapsed_s, "1/s");
    let rps = |st: &LoadStats| st.attempted() as f64 / st.elapsed_s;
    report.metric("trace.coverage.serve-mixed", rec.coverage(root), "ratio");
    report.metric("trace.overhead_pct.serve-mixed", 100.0 * (rps(&off) / rps(&on) - 1.0), "%");
    report.note("serve-mixed.largest_layers", largest(&rec.self_seconds(), "serve-mixed"));
    note_load(report, &off);
    Ok(())
}

/// The `/metrics` body.
fn scrape(conn: &mut Conn) -> Result<String, String> {
    match conn.request("GET", "/metrics", b"") {
        Ok(r) if r.status == 200 => Ok(String::from_utf8_lossy(&r.body).into_owned()),
        _ => Err("GET /metrics failed".into()),
    }
}

/// Writes every span and counter of the census, with the run's
/// provenance, to `OUT_DIR/spans-<workload>-seed<seed>.json`.
fn write_spans(
    seed: u64,
    workload: &str,
    level: &str,
    recorders: &[(&'static str, Recorder)],
    report: &mut Report,
) {
    let mut out = String::from("{\"provenance\":{");
    for (i, (k, v)) in provenance(level).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{k}\":{:?}", v);
    }
    out.push_str("},\"workloads\":{");
    for (i, (name, rec)) in recorders.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{}", rec.to_json());
    }
    out.push_str("}}");
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{workload}-seed{seed}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => report.note("spans_file", path.display()),
        Err(e) => report.problem(format!("could not write {}: {e}", path.display())),
    }
}
