//! The three paper flows, as the `edm-bench` harnesses configure them,
//! each in two forms:
//!
//! * `run` calls the flow's single public entry point — this is what
//!   the untraced end-to-end timing measures;
//! * `replay` performs the same steps in the same order through the
//!   layers' public functions, each call inside a bench-side span, and
//!   must reproduce `run`'s result bit for bit. Where the flow uses a
//!   private helper, the replay rebuilds it from the public calls that
//!   helper makes.
//!
//! Both reduce the result to a [`Fingerprint`] over its deterministic
//! fields (`f64` through `to_bits`; wall-clock fields are left out).

use edm::core::noveltest::{
    self, CurvePoint, NovelSelectionConfig, NovelSelectionResult, NoveltyFilter,
};
use edm::core::returns::{self, ReturnScreen, ReturnScreeningConfig, ReturnScreeningResult};
use edm::core::variability::{self, PredictorQuality, VariabilityConfig, VariabilityResult};
use edm::kernels::HistogramIntersectionKernel;
use edm::linalg::stats;
use edm::litho::features::density_histogram;
use edm::litho::layout::{LayoutClip, LayoutGenerator};
use edm::litho::variability::{VariabilityAnalyzer, VariabilityLabel};
use edm::mfgtest::product::{Device, ProductModel};
use edm::mfgtest::returns::FieldModel;
use edm::mfgtest::testflow::TestFlow;
use edm::novelty::{MahalanobisDetector, NoveltyDetector};
use edm::svm::{OneClassParams, OneClassSvm, SvcParams, SvcTrainer};
use edm::verif::coverage::{CoverageMap, CoveragePoint};
use edm::verif::lsu::{LsuConfig, LsuSimulator};
use edm::verif::program::Program;
use edm::verif::template::MixtureTemplate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;
use crate::Fingerprint;

/// One of the three paper flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fig. 7: novelty-filtered test selection on an 8000-test stream.
    Novelty,
    /// Fig. 9: HI-kernel SVMs against the golden litho simulation.
    Litho,
    /// Fig. 11: customer-return screening over 10 × 10 000 devices.
    Returns,
}

/// A flow's outcome: its fingerprint plus the input profile that makes
/// an RNG or substrate shift visible before timings are compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Fingerprint of the result's deterministic fields.
    pub fingerprint: Fingerprint,
    /// `(name, value)` facts about the inputs and the verdict.
    pub profile: Vec<(&'static str, String)>,
}

impl Flow {
    /// All flows, in workload order.
    pub const ALL: [Flow; 3] = [Flow::Novelty, Flow::Litho, Flow::Returns];

    /// The workload name.
    pub fn workload(self) -> &'static str {
        match self {
            Flow::Novelty => "novelty-stream",
            Flow::Litho => "litho-hotspot",
            Flow::Returns => "return-screen",
        }
    }

    /// The seed the paper harness uses.
    pub fn paper_seed(self) -> u64 {
        match self {
            Flow::Novelty => 7,
            Flow::Litho => 9,
            Flow::Returns => 11,
        }
    }

    /// Runs the flow through its public entry point.
    ///
    /// # Errors
    ///
    /// The flow's own error, as text.
    pub fn run(self, seed: u64) -> Result<Outcome, String> {
        match self {
            Flow::Novelty => {
                let setup = NoveltySetup::new();
                let mut rng = StdRng::seed_from_u64(seed);
                let tests = setup.generate(&mut rng);
                let result = noveltest::run_stream(&tests, &setup.sim, &setup.config)
                    .map_err(|e| e.to_string())?;
                Ok(novelty_outcome(&result, &setup.config))
            }
            Flow::Litho => {
                let mut rng = StdRng::seed_from_u64(seed);
                let (result, _) = variability::run(
                    &LayoutGenerator::default(),
                    &VariabilityAnalyzer::default(),
                    &litho_config(),
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
                Ok(litho_outcome(&result))
            }
            Flow::Returns => {
                let mut rng = StdRng::seed_from_u64(seed);
                let result =
                    returns::run(&returns_config(), &mut rng).map_err(|e| e.to_string())?;
                Ok(returns_outcome(&result))
            }
        }
    }

    /// Builds the flow's configuration and substrate models and draws its
    /// first input batch at `seed` exactly as `run` draws it: the test
    /// stream, the train and test clips, or the baseline lots.
    /// Returns a digest of those inputs, so an RNG or substrate shift
    /// shows before any timing is compared. This is the benchmark's
    /// set-up for the flow.
    pub fn build_inputs(self, seed: u64) -> Fingerprint {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fp = Fingerprint::default();
        match self {
            Flow::Novelty => {
                for test in NoveltySetup::new().generate(&mut rng) {
                    fp.words(test.tokens().into_iter().map(u64::from));
                }
            }
            Flow::Litho => {
                let config = litho_config();
                let n = config.n_train + config.n_test;
                let clips = litho_clips(&LayoutGenerator::default(), n, &mut rng);
                for clip in &clips {
                    fp.word(clip.rects().len() as u64);
                    fp.float(clip.density());
                }
            }
            Flow::Returns => {
                let config = returns_config();
                let product = ProductModel::automotive().with_defect_rate(config.defect_rate);
                for device in baseline_lots(&product, &config, &mut rng) {
                    fp.words(device.measurements.iter().map(|m| m.to_bits()));
                }
            }
        }
        fp
    }

    /// Replays the flow step by step under `rec`, inside one root span
    /// named after the workload; returns the outcome and the root span.
    ///
    /// # Errors
    ///
    /// The failing step's error, as text.
    pub fn replay(self, seed: u64, rec: &mut Recorder) -> Result<(Outcome, usize), String> {
        let root = rec.enter(self.workload());
        let out = match self {
            Flow::Novelty => replay_novelty(seed, rec),
            Flow::Litho => replay_litho(seed, rec),
            Flow::Returns => replay_returns(seed, rec),
        };
        rec.exit(root);
        out.map(|o| (o, root))
    }
}

// ---- Fig. 7: novelty-stream ---------------------------------------------

/// Substrate and configuration of the Fig. 7 harness.
struct NoveltySetup {
    template: MixtureTemplate,
    sim: LsuSimulator,
    config: NovelSelectionConfig,
}

impl NoveltySetup {
    fn new() -> Self {
        NoveltySetup {
            template: MixtureTemplate::verification_plan(),
            sim: LsuSimulator::new(LsuConfig { store_buffer_depth: 6, ..Default::default() }),
            config: NovelSelectionConfig {
                n_tests: 8000,
                nu: 0.15,
                ngram: 3,
                length_weight: 2.0,
                ..Default::default()
            },
        }
    }

    fn generate(&self, rng: &mut StdRng) -> Vec<Program> {
        (0..self.config.n_tests).map(|_| self.template.generate(rng)).collect()
    }
}

fn novelty_outcome(r: &NovelSelectionResult, config: &NovelSelectionConfig) -> Outcome {
    let mut fp = Fingerprint::default();
    for curve in [&r.baseline, &r.filtered] {
        fp.word(curve.len() as u64);
        for p in curve {
            fp.word(p.simulated as u64);
            fp.word(p.covered as u64);
            fp.word(p.cycles);
        }
    }
    fp.word(r.max_coverage as u64);
    fp.word(r.baseline_tests_to_max as u64);
    fp.word(r.filtered_tests_to_max.map_or(u64::MAX, |t| t as u64));
    fp.word(r.baseline_cycles_to_max);
    fp.word(r.filtered_cycles_to_max.unwrap_or(u64::MAX));
    let saving = r.simulation_saving();
    let reaches = r.filtered_tests_to_max.is_some();
    let reduces = r.filtered_tests_to_max.is_some_and(|t| t * 4 <= r.baseline_tests_to_max);
    let saves = saving.is_some_and(|s| s >= 0.60);
    let claims = [reaches, reduces, saves].iter().filter(|&&c| c).count();
    Outcome {
        fingerprint: fp,
        profile: vec![
            ("stream_tests", config.n_tests.to_string()),
            ("max_coverage", r.max_coverage.to_string()),
            ("baseline_tests_to_max", r.baseline_tests_to_max.to_string()),
            ("filtered_tests_simulated", r.filtered.len().to_string()),
            (
                "filtered_tests_to_max",
                r.filtered_tests_to_max.map_or("never".to_string(), |t| t.to_string()),
            ),
            ("simulation_saving", saving.map_or("n/a".to_string(), |s| format!("{s:.4}"))),
            ("fig7_claims_holding", format!("{claims}/3 (reported, not gated)")),
        ],
    }
}

/// Index of the first test in the seed's stream whose simulation hits
/// the store-buffer-full point (`None` when no test does).
pub fn first_buffer_full(seed: u64) -> Option<usize> {
    let setup = NoveltySetup::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let tests = setup.generate(&mut rng);
    tests
        .iter()
        .position(|t| setup.sim.simulate(t).coverage.covered(CoveragePoint::StoreBufferFull))
}

fn replay_novelty(seed: u64, rec: &mut Recorder) -> Result<Outcome, String> {
    let setup = NoveltySetup::new();
    let config = setup.config;
    let mut rng = StdRng::seed_from_u64(seed);
    let tests = rec.time("verif.generate_s", || setup.generate(&mut rng));
    rec.count("verif.tests", tests.len() as u64);
    let outcomes: Vec<_> =
        rec.time("verif.simulate_s", || tests.iter().map(|t| setup.sim.simulate(t)).collect());

    // Baseline curve (run_stream's first loop).
    let (baseline, max_coverage, first_max) = rec.time("core.noveltest.curve_s", || {
        let mut baseline = Vec::with_capacity(tests.len());
        let mut cov = CoverageMap::new();
        let mut cycles = 0u64;
        for (i, out) in outcomes.iter().enumerate() {
            cov.merge(&out.coverage);
            cycles += out.cycles;
            baseline.push(CurvePoint { simulated: i + 1, covered: cov.n_covered(), cycles });
        }
        let max_coverage = cov.n_covered();
        let first_max = baseline.iter().position(|p| p.covered == max_coverage);
        (baseline, max_coverage, first_max)
    });
    let first_max = first_max.ok_or("baseline never reaches its own max")?;

    // Filtered flow (run_stream's second loop), one span per filter call.
    let mut filter = NoveltyFilter::weighted(
        config.ngram,
        config.length_weight,
        config.nu,
        config.retrain_every,
    );
    let mut filtered = Vec::new();
    let mut fcov = CoverageMap::new();
    let mut fcycles = 0u64;
    let mut simulated = 0usize;
    for (test, out) in tests.iter().zip(&outcomes) {
        let tokens = test.tokens();
        let accept = if filter.n_accepted() < config.warmup {
            true
        } else {
            rec.count("core.noveltest.decisions", 1);
            rec.count("kernels.spectrum_pairs", filter.n_accepted() as u64);
            let d = rec.time("core.noveltest.decision_s", || filter.decision(&tokens));
            d < config.margin
        };
        if !accept {
            continue;
        }
        rec.time("core.noveltest.accept_s", || filter.accept(tokens)).map_err(|e| e.to_string())?;
        rec.count("core.noveltest.accepted", 1);
        simulated += 1;
        fcov.merge(&out.coverage);
        fcycles += out.cycles;
        filtered.push(CurvePoint { simulated, covered: fcov.n_covered(), cycles: fcycles });
    }
    let filtered_to_max = filtered.iter().find(|p| p.covered >= max_coverage).copied();
    let result = NovelSelectionResult {
        baseline_tests_to_max: first_max + 1,
        baseline_cycles_to_max: baseline[first_max].cycles,
        baseline,
        filtered,
        max_coverage,
        filtered_tests_to_max: filtered_to_max.map(|p| p.simulated),
        filtered_cycles_to_max: filtered_to_max.map(|p| p.cycles),
    };
    Ok(novelty_outcome(&result, &config))
}

// ---- Fig. 9: litho-hotspot ------------------------------------------------

fn litho_config() -> VariabilityConfig {
    VariabilityConfig { n_train: 400, n_test: 200, ..Default::default() }
}

fn quality_words(fp: &mut Fingerprint, q: &PredictorQuality) {
    fp.float(q.accuracy);
    fp.float(q.bad_recall);
    fp.float(q.false_alarm_rate);
}

fn litho_outcome(r: &VariabilityResult) -> Outcome {
    let mut fp = Fingerprint::default();
    quality_words(&mut fp, &r.svc);
    quality_words(&mut fp, &r.one_class);
    fp.float(r.bad_fraction);
    Outcome {
        fingerprint: fp,
        profile: vec![
            ("golden_bad_fraction", format!("{:.4}", r.bad_fraction)),
            ("svc_accuracy", format!("{:.4}", r.svc.accuracy)),
            ("svc_bad_recall", format!("{:.4}", r.svc.bad_recall)),
        ],
    }
}

/// The first `n` clips of the Fig. 9 stream; `variability::run` draws
/// all its clips before it analyzes any.
fn litho_clips(generator: &LayoutGenerator, n: usize, rng: &mut StdRng) -> Vec<LayoutClip> {
    (0..n).map(|_| generator.generate_random(rng).1).collect()
}

/// The Fig. 9 training set at `seed`: the first `n_train` clips of the
/// flow's stream, their golden labels as ±1 and their histograms.
/// Clips are generated before any is analyzed, so these are exactly the
/// rows `variability::run` trains its SVC on.
pub fn litho_training_set(seed: u64, rec: &mut Recorder) -> (Vec<Vec<f64>>, Vec<f64>) {
    let config = litho_config();
    let generator = LayoutGenerator::default();
    let analyzer = VariabilityAnalyzer::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let clips = rec.time("litho.generate_s", || litho_clips(&generator, config.n_train, &mut rng));
    let labels: Vec<VariabilityLabel> =
        rec.time("litho.analyze_s", || clips.iter().map(|c| analyzer.analyze(c).label).collect());
    let h: Vec<Vec<f64>> = rec.time("litho.featurize_s", || {
        clips.iter().map(|c| density_histogram(c, &config.histogram)).collect()
    });
    let y = labels.iter().map(|&l| if l == VariabilityLabel::Bad { 1.0 } else { -1.0 }).collect();
    (h, y)
}

/// Trains the Fig. 9 HI-kernel SVC on a training set.
///
/// # Errors
///
/// The solver's error, as text.
pub fn fit_hotspot_svc(
    h: &[Vec<f64>],
    y: &[f64],
) -> Result<edm::svm::SvcModel<HistogramIntersectionKernel>, String> {
    SvcTrainer::new(SvcParams::default().with_c(litho_config().svc_c))
        .kernel(HistogramIntersectionKernel::new())
        .fit(h, y)
        .map_err(|e| e.to_string())
}

fn replay_litho(seed: u64, rec: &mut Recorder) -> Result<Outcome, String> {
    let config = litho_config();
    let generator = LayoutGenerator::default();
    let analyzer = VariabilityAnalyzer::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.n_train + config.n_test;
    let clips = rec.time("litho.generate_s", || litho_clips(&generator, n, &mut rng));
    let labels: Vec<VariabilityLabel> =
        rec.time("litho.analyze_s", || clips.iter().map(|c| analyzer.analyze(c).label).collect());
    rec.count("litho.clips", clips.len() as u64);
    let histograms: Vec<Vec<f64>> = rec.time("litho.featurize_s", || {
        clips.iter().map(|c| density_histogram(c, &config.histogram)).collect()
    });
    let (train_h, test_h) = histograms.split_at(config.n_train);
    let (train_l, test_l) = labels.split_at(config.n_train);

    let y: Vec<f64> =
        train_l.iter().map(|&l| if l == VariabilityLabel::Bad { 1.0 } else { -1.0 }).collect();
    let svc = rec.time("svm.svc_fit_s", || fit_hotspot_svc(train_h, &y))?;
    let good_h: Vec<Vec<f64>> = train_h
        .iter()
        .zip(train_l)
        .filter(|&(_, &l)| l == VariabilityLabel::Good)
        .map(|(h, _)| h.clone())
        .collect();
    let one_class = rec
        .time("svm.one_class_fit_s", || {
            OneClassSvm::new(OneClassParams::default().with_nu(config.one_class_nu))
                .kernel(HistogramIntersectionKernel::new())
                .fit(&good_h)
        })
        .map_err(|e| e.to_string())?;
    rec.count("svm.smo_iterations", (svc.iterations() + one_class.iterations()) as u64);
    rec.count("svm.n_support", (svc.n_support() + one_class.n_support()) as u64);

    let (svc_pred, oc_pred) = rec.time("svm.score_s", || {
        let svc_pred: Vec<bool> = test_h.iter().map(|h| svc.predict(h) > 0.0).collect();
        let oc_pred: Vec<bool> = test_h.iter().map(|h| one_class.is_novel(h)).collect();
        (svc_pred, oc_pred)
    });
    rec.count(
        "svm.kernel_evals",
        (test_h.len() * (svc.n_support() + one_class.n_support())) as u64,
    );

    let result = rec.time("core.variability.quality_s", || {
        let bad_fraction = test_l.iter().filter(|&&l| l == VariabilityLabel::Bad).count() as f64
            / test_l.len().max(1) as f64;
        VariabilityResult {
            svc: quality(&svc_pred, test_l),
            one_class: quality(&oc_pred, test_l),
            bad_fraction,
            golden_us_per_clip: 0.0,
            model_us_per_clip: 0.0,
        }
    });
    Ok(litho_outcome(&result))
}

/// `variability::run`'s private quality closure, rebuilt.
fn quality(pred: &[bool], labels: &[VariabilityLabel]) -> PredictorQuality {
    let mut correct = 0usize;
    let mut bad_total = 0usize;
    let mut bad_caught = 0usize;
    let mut good_total = 0usize;
    let mut false_alarms = 0usize;
    for (&p, &l) in pred.iter().zip(labels) {
        let is_bad = l == VariabilityLabel::Bad;
        if p == is_bad {
            correct += 1;
        }
        if is_bad {
            bad_total += 1;
            if p {
                bad_caught += 1;
            }
        } else {
            good_total += 1;
            if p {
                false_alarms += 1;
            }
        }
    }
    PredictorQuality {
        accuracy: correct as f64 / pred.len().max(1) as f64,
        bad_recall: bad_caught as f64 / bad_total.max(1) as f64,
        false_alarm_rate: false_alarms as f64 / good_total.max(1) as f64,
    }
}

// ---- Fig. 11: return-screen -----------------------------------------------

fn returns_config() -> ReturnScreeningConfig {
    ReturnScreeningConfig { lot_size: 10_000, n_lots: 10, defect_rate: 3e-4, ..Default::default() }
}

fn returns_outcome(r: &ReturnScreeningResult) -> Outcome {
    let mut fp = Fingerprint::default();
    fp.word(r.n_baseline_returns as u64);
    fp.words(r.baseline_return_percentiles.iter().map(|p| p.to_bits()));
    fp.word(r.later_caught as u64);
    fp.word(r.later_total as u64);
    fp.word(r.sister_caught as u64);
    fp.word(r.sister_total as u64);
    fp.float(r.overkill_rate);
    fp.words(r.screen.selected_tests.iter().map(|&t| t as u64));
    fp.float(r.screen.threshold());
    Outcome {
        fingerprint: fp,
        profile: vec![
            ("baseline_returns", r.n_baseline_returns.to_string()),
            ("later_returns", r.later_total.to_string()),
            ("sister_returns", r.sister_total.to_string()),
            ("selected_tests", format!("{:?}", r.screen.selected_names)),
        ],
    }
}

/// The Fig. 11 baseline window: lots `0..n_lots`, drawn first.
fn baseline_lots(
    product: &ProductModel,
    config: &ReturnScreeningConfig,
    rng: &mut StdRng,
) -> Vec<Device> {
    let mut devices = Vec::new();
    for lot in 0..config.n_lots {
        devices.extend(product.generate_lot(lot, config.lot_size, rng));
    }
    devices
}

/// `returns::robust_stats`, rebuilt from `stats::{median, mad}`.
fn robust_stats(population: &[&Device], tests: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut center = Vec::with_capacity(tests.len());
    let mut spread = Vec::with_capacity(tests.len());
    for &t in tests {
        let col: Vec<f64> = population.iter().map(|d| d.measurements[t]).collect();
        center.push(stats::median(&col).unwrap_or(0.0));
        spread.push(stats::mad(&col).unwrap_or(1.0).max(1e-9));
    }
    (center, spread)
}

/// Rows `stats::median` sorts for one robust-statistics pass over
/// `pop` in `k` tests: `median` once and `mad` twice per test.
fn median_rows(pop: usize, k: usize) -> u64 {
    (3 * pop * k) as u64
}

/// Builds the screen `returns::run` would build from its fitted parts.
/// The detector field is private, so the screen is assembled through
/// its public serde form.
fn assemble_screen(
    selected: &[usize],
    names: &[String],
    detector: &MahalanobisDetector,
    threshold: f64,
) -> Result<ReturnScreen, String> {
    let json = format!(
        "{{\"selected_tests\":{},\"selected_names\":{},\"detector\":{},\"threshold\":{}}}",
        serde_json::to_string(selected).map_err(|e| e.to_string())?,
        serde_json::to_string(names).map_err(|e| e.to_string())?,
        serde_json::to_string(detector).map_err(|e| e.to_string())?,
        serde_json::to_string(&threshold).map_err(|e| e.to_string())?,
    );
    let screen: ReturnScreen = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    if screen.threshold().to_bits() != threshold.to_bits() {
        return Err("screen threshold did not round-trip".into());
    }
    Ok(screen)
}

fn replay_returns(seed: u64, rec: &mut Recorder) -> Result<Outcome, String> {
    let config = returns_config();
    let mut rng = StdRng::seed_from_u64(seed);
    let product = ProductModel::automotive().with_defect_rate(config.defect_rate);
    let flow = TestFlow::new(product.spec_limits().to_vec());
    let field = FieldModel::default();

    let devices = rec.time("mfgtest.generate_s", || baseline_lots(&product, &config, &mut rng));
    rec.count("mfgtest.devices", devices.len() as u64);
    let (shipped, _) = rec.time("mfgtest.screen_s", || flow.screen(&devices));
    let (returns, survivors) =
        rec.time("mfgtest.field_s", || field.field_exposure(&shipped, &mut rng));
    if returns.is_empty() {
        return Err("baseline window produced no customer returns".into());
    }

    let selected = rec.time("core.returns.select_s", || {
        returns::select_test_space(&survivors, &returns, product.n_tests(), config.n_selected)
    });
    let names: Vec<String> = selected.iter().map(|&t| product.test_names()[t].clone()).collect();
    let z_pop: Vec<Vec<f64>> = rec.time("linalg.stats.robust_s", || {
        let (center, spread) = robust_stats(&survivors, &selected);
        survivors
            .iter()
            .map(|d| {
                selected
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| (d.measurements[t] - center[k]) / spread[k].max(1e-12))
                    .collect()
            })
            .collect()
    });
    let detector = rec
        .time("novelty.mahalanobis_fit_s", || {
            MahalanobisDetector::fit(&z_pop, config.threshold_quantile)
        })
        .map_err(|e| e.to_string())?;
    let screen = assemble_screen(&selected, &names, &detector, detector.threshold())?;
    let k = selected.len();
    let mut useful_rows = 0u64;

    // Plot 1.
    let survivor_scores =
        rec.time("core.returns.score_population_s", || screen.score_population(&survivors));
    rec.count("linalg.stats.median_rows", median_rows(survivors.len(), k));
    useful_rows += median_rows(survivors.len(), k);
    let mut sorted_scores = survivor_scores;
    sorted_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let percentile = |s: f64| -> f64 {
        let below = sorted_scores.partition_point(|&v| v < s);
        below as f64 / sorted_scores.len().max(1) as f64
    };
    let mut baseline_return_percentiles = Vec::with_capacity(returns.len());
    for d in &returns {
        let s = rec.time("core.returns.score_s", || screen.score(d, &survivors));
        rec.count("core.returns.score_calls", 1);
        rec.count("linalg.stats.median_rows", median_rows(survivors.len(), k));
        baseline_return_percentiles.push(percentile(s));
    }

    // Plot 2: later production.
    let later_devices = rec.time("mfgtest.generate_s", || {
        let mut v = Vec::new();
        for lot in config.n_lots..(config.n_lots + 4) {
            v.extend(product.generate_lot(lot + 20, config.lot_size, &mut rng));
        }
        v
    });
    rec.count("mfgtest.devices", later_devices.len() as u64);
    let (later_shipped, _) = rec.time("mfgtest.screen_s", || flow.screen(&later_devices));
    let (later_returns, later_survivors) =
        rec.time("mfgtest.field_s", || field.field_exposure(&later_shipped, &mut rng));
    let mut later_caught = 0;
    for d in &later_returns {
        if rec.time("core.returns.score_s", || screen.flags(d, &later_survivors)) {
            later_caught += 1;
        }
        rec.count("core.returns.score_calls", 1);
        rec.count("linalg.stats.median_rows", median_rows(later_survivors.len(), k));
    }

    // Plot 3: sister product.
    let sister = product.sister_product();
    let sister_flow = TestFlow::new(sister.spec_limits().to_vec());
    let sister_devices = rec.time("mfgtest.generate_s", || {
        let mut v = Vec::new();
        for lot in 0..4 {
            v.extend(sister.generate_lot(lot + 50, config.lot_size, &mut rng));
        }
        v
    });
    rec.count("mfgtest.devices", sister_devices.len() as u64);
    let (sister_shipped, _) = rec.time("mfgtest.screen_s", || sister_flow.screen(&sister_devices));
    let (sister_returns, sister_survivors) =
        rec.time("mfgtest.field_s", || field.field_exposure(&sister_shipped, &mut rng));
    let mut sister_caught = 0;
    for d in &sister_returns {
        if rec.time("core.returns.score_s", || screen.flags(d, &sister_survivors)) {
            sister_caught += 1;
        }
        rec.count("core.returns.score_calls", 1);
        rec.count("linalg.stats.median_rows", median_rows(sister_survivors.len(), k));
    }
    if !sister_returns.is_empty() {
        useful_rows += median_rows(sister_survivors.len(), k);
    }

    // Overkill.
    let later_scores =
        rec.time("core.returns.score_population_s", || screen.score_population(&later_survivors));
    rec.count("linalg.stats.median_rows", median_rows(later_survivors.len(), k));
    useful_rows += median_rows(later_survivors.len(), k);
    rec.count("linalg.stats.median_rows_useful", useful_rows);
    let overkill_rate = later_scores.iter().filter(|&&s| s > screen.threshold()).count() as f64
        / later_scores.len().max(1) as f64;

    let result = ReturnScreeningResult {
        n_baseline_returns: returns.len(),
        baseline_return_percentiles,
        later_caught,
        later_total: later_returns.len(),
        sister_caught,
        sister_total: sister_returns.len(),
        overkill_rate,
        screen,
    };
    Ok(returns_outcome(&result))
}
