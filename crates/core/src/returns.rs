//! Customer-return screening (paper Fig. 11, refs \[16\]\[32\]).
//!
//! With a handful of returns against hundreds of thousands of passing
//! parts, this is not a classification problem (paper §2.4): the flow
//! instead (1) *selects* a small test subspace in which the known
//! returns stand out — ranking tests by how outlying the returns are,
//! then de-correlating — and (2) builds an outlier model of the passing
//! population in that subspace. The model is then applied forward in
//! time (a return manufactured months later) and sideways (a sister
//! product a year later), reproducing the three plots of Fig. 11.
//!
//! Scores are computed on robust z-scores (median/MAD per population),
//! which is what lets one model transfer across drifted lots and a
//! mean-shifted sister product.

use edm_linalg::stats;
use edm_mfgtest::product::{Device, ProductModel};
use edm_mfgtest::returns::FieldModel;
use edm_mfgtest::testflow::TestFlow;
use edm_novelty::{MahalanobisDetector, NoveltyDetector, NoveltyError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the return-screening experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReturnScreeningConfig {
    /// Devices per lot.
    pub lot_size: usize,
    /// Lots in the baseline production window.
    pub n_lots: u32,
    /// Latent defect rate (scaled up from automotive ppm so a laptop-
    /// sized population contains a few returns).
    pub defect_rate: f64,
    /// Tests selected for the outlier space (the paper shows 3-D).
    pub n_selected: usize,
    /// Outlier threshold quantile on the passing population.
    pub threshold_quantile: f64,
}

impl Default for ReturnScreeningConfig {
    fn default() -> Self {
        ReturnScreeningConfig {
            lot_size: 5_000,
            n_lots: 10,
            defect_rate: 4e-4,
            n_selected: 3,
            threshold_quantile: 0.999,
        }
    }
}

/// A trained return screen: selected tests + outlier model on robust
/// z-scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReturnScreen {
    /// Indices of the selected tests.
    pub selected_tests: Vec<usize>,
    /// Names of the selected tests.
    pub selected_names: Vec<String>,
    detector: MahalanobisDetector,
    threshold: f64,
}

impl ReturnScreen {
    /// The robust statistics of a reference population in this screen's
    /// test subspace. Build it once per population, then score any
    /// number of devices against it with [`ReturnScreen::score_against`].
    pub fn reference(&self, population: &[&Device]) -> RobustReference {
        RobustReference::of(population, &self.selected_tests)
    }

    /// Outlier score of a device against a reference built by
    /// [`ReturnScreen::reference`] (higher = more outlying).
    pub fn score_against(&self, device: &Device, reference: &RobustReference) -> f64 {
        self.detector.score(&reference.project(device, &self.selected_tests))
    }

    /// Outlier score of a device against a reference population
    /// (higher = more outlying).
    ///
    /// Each call makes an O(n) robust-statistics pass over `population`.
    /// To score many devices against one population, build its
    /// [`ReturnScreen::reference`] once and use
    /// [`ReturnScreen::score_against`].
    pub fn score(&self, device: &Device, population: &[&Device]) -> f64 {
        self.score_against(device, &self.reference(population))
    }

    /// Scores a whole population at once (shared robust statistics).
    pub fn score_population(&self, population: &[&Device]) -> Vec<f64> {
        self.scores_against(population, &self.reference(population))
    }

    fn scores_against(&self, devices: &[&Device], reference: &RobustReference) -> Vec<f64> {
        devices.iter().map(|d| self.score_against(d, reference)).collect()
    }

    /// Whether a device would be screened out as a suspected latent
    /// defect.
    ///
    /// Like [`ReturnScreen::score`], each call makes an O(n)
    /// robust-statistics pass over `population`. To flag many devices
    /// against one population, compare [`ReturnScreen::score_against`]
    /// on its [`ReturnScreen::reference`] with [`ReturnScreen::threshold`].
    pub fn flags(&self, device: &Device, population: &[&Device]) -> bool {
        self.score(device, population) > self.threshold
    }

    /// The calibrated score threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Per-test median and MAD of one reference population, in the test
/// subspace of the screen that built it: the robust z-score frame that
/// lets one outlier model transfer across drifted lots and products.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReference {
    center: Vec<f64>,
    spread: Vec<f64>,
}

impl RobustReference {
    /// Median and MAD (floored at 1e-9) of each test in `tests`.
    fn of(population: &[&Device], tests: &[usize]) -> Self {
        let columns: Vec<Vec<f64>> = tests.iter().map(|&t| column(population, t)).collect();
        Self::of_columns(&columns)
    }

    fn of_columns(columns: &[Vec<f64>]) -> Self {
        let (center, spread) = columns
            .iter()
            .map(|col| {
                let (med, mad) = stats::median_mad(col).unwrap_or((0.0, 1.0));
                (med, mad.max(1e-9))
            })
            .unzip();
        RobustReference { center, spread }
    }

    /// Robust z-scores of a device in `tests`, the subspace this
    /// reference was built in.
    fn project(&self, device: &Device, tests: &[usize]) -> Vec<f64> {
        debug_assert_eq!(tests.len(), self.center.len(), "reference built in another subspace");
        tests
            .iter()
            .zip(self.center.iter().zip(&self.spread))
            .map(|(&t, (c, s))| (device.measurements[t] - c) / s)
            .collect()
    }
}

fn column(population: &[&Device], test: usize) -> Vec<f64> {
    population.iter().map(|d| d.measurements[test]).collect()
}

/// Result of the three-plot Fig. 11 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReturnScreeningResult {
    /// Returns observed in the baseline window.
    pub n_baseline_returns: usize,
    /// Baseline returns' score percentile vs the passing population
    /// (plot 1: the return is an extreme outlier).
    pub baseline_return_percentiles: Vec<f64>,
    /// Later-production returns caught by the model (plot 2).
    pub later_caught: usize,
    /// Later-production returns total.
    pub later_total: usize,
    /// Sister-product returns caught (plot 3).
    pub sister_caught: usize,
    /// Sister-product returns total.
    pub sister_total: usize,
    /// Overkill: fraction of healthy shipped devices the screen would
    /// reject.
    pub overkill_rate: f64,
    /// The trained screen.
    pub screen: ReturnScreen,
}

/// Ranks tests by how outlying the known returns are (mean |robust z|
/// of the returns per test), then de-correlates on the passing
/// population and keeps the top `n_selected`.
pub fn select_test_space(
    passing: &[&Device],
    returns: &[&Device],
    n_tests: usize,
    n_selected: usize,
) -> Vec<usize> {
    let columns: Vec<Vec<f64>> = (0..n_tests).map(|t| column(passing, t)).collect();
    let reference = RobustReference::of_columns(&columns);
    let mut scored: Vec<(usize, f64)> = (0..n_tests)
        .map(|t| {
            let z: f64 = returns
                .iter()
                .map(|d| ((d.measurements[t] - reference.center[t]) / reference.spread[t]).abs())
                .sum::<f64>()
                / returns.len().max(1) as f64;
            (t, z)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    // De-correlate: drop tests correlated > 0.9 with an already-kept one.
    let mut kept: Vec<usize> = Vec::new();
    for (t, _) in scored {
        let redundant = kept.iter().any(|&k| stats::pearson(&columns[t], &columns[k]).abs() > 0.9);
        if !redundant {
            kept.push(t);
            if kept.len() == n_selected {
                break;
            }
        }
    }
    kept
}

/// Runs the full Fig. 11 experiment.
///
/// # Errors
///
/// Returns an error if the baseline window produced no returns (raise
/// `defect_rate` or the population size) or detector fitting fails.
pub fn run<R: Rng + ?Sized>(
    config: &ReturnScreeningConfig,
    rng: &mut R,
) -> Result<ReturnScreeningResult, NoveltyError> {
    let _span = edm_trace::span("core.returns.run");
    let product = ProductModel::automotive().with_defect_rate(config.defect_rate);
    let flow = TestFlow::new(product.spec_limits().to_vec());
    let field = FieldModel::default();

    // Baseline production window.
    let mut devices = Vec::new();
    for lot in 0..config.n_lots {
        devices.extend(product.generate_lot(lot, config.lot_size, rng));
    }
    let (shipped, _) = flow.screen(&devices);
    let (returns, survivors) = field.field_exposure(&shipped, rng);
    if returns.is_empty() {
        return Err(NoveltyError::InvalidInput(
            "baseline window produced no customer returns; raise defect_rate".into(),
        ));
    }

    // Select the test space where the returns stand out.
    let selected = select_test_space(&survivors, &returns, product.n_tests(), config.n_selected);
    let selected_names: Vec<String> =
        selected.iter().map(|&t| product.test_names()[t].clone()).collect();

    // Outlier model on robust z-scores of the passing population.
    let baseline_ref = RobustReference::of(&survivors, &selected);
    let z_pop: Vec<Vec<f64>> =
        survivors.iter().map(|d| baseline_ref.project(d, &selected)).collect();
    let detector = MahalanobisDetector::fit(&z_pop, config.threshold_quantile)?;
    let threshold = detector.threshold();
    let screen = ReturnScreen { selected_tests: selected, selected_names, detector, threshold };

    // Plot 1: percentile of each baseline return among survivors.
    let mut sorted_scores = screen.scores_against(&survivors, &baseline_ref);
    sorted_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let percentile = |s: f64| -> f64 {
        let below = sorted_scores.partition_point(|&v| v < s);
        below as f64 / sorted_scores.len().max(1) as f64
    };
    let baseline_return_percentiles: Vec<f64> =
        returns.iter().map(|d| percentile(screen.score_against(d, &baseline_ref))).collect();

    // Plot 2: a later production window (months later = more drift).
    let mut later_devices = Vec::new();
    for lot in config.n_lots..(config.n_lots + 4) {
        later_devices.extend(product.generate_lot(lot + 20, config.lot_size, rng));
    }
    let (later_shipped, _) = flow.screen(&later_devices);
    let (later_returns, later_survivors) = field.field_exposure(&later_shipped, rng);
    let later_ref = screen.reference(&later_survivors);
    let later_caught =
        later_returns.iter().filter(|d| screen.score_against(d, &later_ref) > threshold).count();

    // Plot 3: the sister product a year later.
    let sister = product.sister_product();
    let sister_flow = TestFlow::new(sister.spec_limits().to_vec());
    let mut sister_devices = Vec::new();
    for lot in 0..4 {
        sister_devices.extend(sister.generate_lot(lot + 50, config.lot_size, rng));
    }
    let (sister_shipped, _) = sister_flow.screen(&sister_devices);
    let (sister_returns, sister_survivors) = field.field_exposure(&sister_shipped, rng);
    let sister_ref = screen.reference(&sister_survivors);
    let sister_caught =
        sister_returns.iter().filter(|d| screen.score_against(d, &sister_ref) > threshold).count();

    // Overkill on the healthy later population.
    let later_scores = screen.scores_against(&later_survivors, &later_ref);
    let overkill = later_scores.iter().filter(|&&s| s > threshold).count() as f64
        / later_scores.len().max(1) as f64;

    Ok(ReturnScreeningResult {
        n_baseline_returns: returns.len(),
        baseline_return_percentiles,
        later_caught,
        later_total: later_returns.len(),
        sister_caught,
        sister_total: sister_returns.len(),
        overkill_rate: overkill,
        screen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn returns_are_extreme_outliers_and_model_transfers() {
        let mut rng = StdRng::seed_from_u64(101);
        let result = run(&small_config(), &mut rng).unwrap();
        assert!(result.n_baseline_returns >= 3);
        // Plot 1: returns sit at the extreme tail of the population.
        for &p in &result.baseline_return_percentiles {
            assert!(p > 0.95, "return percentile {p} not extreme");
        }
        // Plot 2: the model catches most later returns.
        assert!(
            result.later_caught * 3 >= result.later_total * 2,
            "later: {}/{}",
            result.later_caught,
            result.later_total
        );
        // Plot 3: and transfers to the sister product.
        assert!(
            result.sister_caught * 2 >= result.sister_total,
            "sister: {}/{}",
            result.sister_caught,
            result.sister_total
        );
        // Overkill stays small.
        assert!(result.overkill_rate < 0.02, "overkill {}", result.overkill_rate);
        // The screen selected the defect-bearing tests.
        assert!(
            result.screen.selected_names.iter().any(|n| n == "iddq" || n == "vmin"),
            "selected {:?}",
            result.screen.selected_names
        );
    }

    fn small_config() -> ReturnScreeningConfig {
        ReturnScreeningConfig {
            lot_size: 2_000,
            n_lots: 8,
            defect_rate: 2e-3,
            ..Default::default()
        }
    }

    /// Per-test median and MAD as separate sorts per call.
    fn per_call_robust_stats(population: &[&Device], tests: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let mut center = Vec::with_capacity(tests.len());
        let mut spread = Vec::with_capacity(tests.len());
        for &t in tests {
            let col: Vec<f64> = population.iter().map(|d| d.measurements[t]).collect();
            center.push(stats::median(&col).unwrap_or(0.0));
            spread.push(stats::mad(&col).unwrap_or(1.0).max(1e-9));
        }
        (center, spread)
    }

    /// The flow as it ran before reference populations were shared:
    /// robust statistics recomputed for every `score`/`flags` call and
    /// every candidate column re-collected during test selection.
    fn run_per_call(config: &ReturnScreeningConfig, rng: &mut StdRng) -> ReturnScreeningResult {
        let product = ProductModel::automotive().with_defect_rate(config.defect_rate);
        let flow = TestFlow::new(product.spec_limits().to_vec());
        let field = FieldModel::default();
        let mut devices = Vec::new();
        for lot in 0..config.n_lots {
            devices.extend(product.generate_lot(lot, config.lot_size, rng));
        }
        let (shipped, _) = flow.screen(&devices);
        let (returns, survivors) = field.field_exposure(&shipped, rng);

        let n_tests = product.n_tests();
        let all: Vec<usize> = (0..n_tests).collect();
        let (center, spread) = per_call_robust_stats(&survivors, &all);
        let mut scored: Vec<(usize, f64)> = (0..n_tests)
            .map(|t| {
                let z: f64 = returns
                    .iter()
                    .map(|d| ((d.measurements[t] - center[t]) / spread[t]).abs())
                    .sum::<f64>()
                    / returns.len().max(1) as f64;
                (t, z)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut selected: Vec<usize> = Vec::new();
        for (t, _) in scored {
            let col_t: Vec<f64> = survivors.iter().map(|d| d.measurements[t]).collect();
            let redundant = selected.iter().any(|&k| {
                let col_k: Vec<f64> = survivors.iter().map(|d| d.measurements[k]).collect();
                stats::pearson(&col_t, &col_k).abs() > 0.9
            });
            if !redundant {
                selected.push(t);
                if selected.len() == config.n_selected {
                    break;
                }
            }
        }
        let selected_names = selected.iter().map(|&t| product.test_names()[t].clone()).collect();

        let (center, spread) = per_call_robust_stats(&survivors, &selected);
        let z_pop: Vec<Vec<f64>> = survivors
            .iter()
            .map(|d| {
                selected
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| (d.measurements[t] - center[k]) / spread[k].max(1e-12))
                    .collect()
            })
            .collect();
        let detector = MahalanobisDetector::fit(&z_pop, config.threshold_quantile).unwrap();
        let threshold = detector.threshold();
        let screen = ReturnScreen { selected_tests: selected, selected_names, detector, threshold };

        let mut sorted_scores = screen.score_population(&survivors);
        sorted_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let baseline_return_percentiles = returns
            .iter()
            .map(|d| {
                let s = screen.score(d, &survivors);
                sorted_scores.partition_point(|&v| v < s) as f64 / sorted_scores.len().max(1) as f64
            })
            .collect();

        let mut later_devices = Vec::new();
        for lot in config.n_lots..(config.n_lots + 4) {
            later_devices.extend(product.generate_lot(lot + 20, config.lot_size, rng));
        }
        let (later_shipped, _) = flow.screen(&later_devices);
        let (later_returns, later_survivors) = field.field_exposure(&later_shipped, rng);
        let later_caught =
            later_returns.iter().filter(|d| screen.flags(d, &later_survivors)).count();

        let sister = product.sister_product();
        let sister_flow = TestFlow::new(sister.spec_limits().to_vec());
        let mut sister_devices = Vec::new();
        for lot in 0..4 {
            sister_devices.extend(sister.generate_lot(lot + 50, config.lot_size, rng));
        }
        let (sister_shipped, _) = sister_flow.screen(&sister_devices);
        let (sister_returns, sister_survivors) = field.field_exposure(&sister_shipped, rng);
        let sister_caught =
            sister_returns.iter().filter(|d| screen.flags(d, &sister_survivors)).count();

        let later_scores = screen.score_population(&later_survivors);
        let overkill_rate = later_scores.iter().filter(|&&s| s > screen.threshold()).count() as f64
            / later_scores.len().max(1) as f64;

        ReturnScreeningResult {
            n_baseline_returns: returns.len(),
            baseline_return_percentiles,
            later_caught,
            later_total: later_returns.len(),
            sister_caught,
            sister_total: sister_returns.len(),
            overkill_rate,
            screen,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shared_references_reproduce_per_call_scoring_bitwise() {
        let config = small_config();
        let got = run(&config, &mut StdRng::seed_from_u64(101)).unwrap();
        let want = run_per_call(&config, &mut StdRng::seed_from_u64(101));
        assert_eq!(got.n_baseline_returns, want.n_baseline_returns);
        assert_eq!(bits(&got.baseline_return_percentiles), bits(&want.baseline_return_percentiles));
        assert_eq!(
            (got.later_caught, got.later_total, got.sister_caught, got.sister_total),
            (want.later_caught, want.later_total, want.sister_caught, want.sister_total)
        );
        assert_eq!(got.overkill_rate.to_bits(), want.overkill_rate.to_bits());
        assert_eq!(got.screen.selected_tests, want.screen.selected_tests);
        assert_eq!(got.screen.selected_names, want.screen.selected_names);
        assert_eq!(got.screen.threshold().to_bits(), want.screen.threshold().to_bits());
    }

    #[test]
    fn score_against_a_reference_equals_score_against_its_population() {
        let mut rng = StdRng::seed_from_u64(101);
        let result = run(&small_config(), &mut rng).unwrap();
        let screen = &result.screen;
        let product = ProductModel::automotive().with_defect_rate(2e-3);
        let lot = product.generate_lot(3, 1_500, &mut rng);
        let population: Vec<&Device> = lot.iter().collect();
        let reference = screen.reference(&population);
        let scores = screen.score_population(&population);
        for (d, s) in population.iter().zip(&scores).step_by(37) {
            let against = screen.score_against(d, &reference);
            assert_eq!(against.to_bits(), screen.score(d, &population).to_bits());
            assert_eq!(against.to_bits(), s.to_bits());
            assert_eq!(against > screen.threshold(), screen.flags(d, &population));
        }
        // An empty population falls back to center 0 and spread 1.
        let empty = screen.reference(&[]);
        let d = population[0];
        assert_eq!(screen.score_against(d, &empty).to_bits(), screen.score(d, &[]).to_bits());
    }

    #[test]
    fn no_returns_is_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ReturnScreeningConfig {
            lot_size: 100,
            n_lots: 1,
            defect_rate: 0.0,
            ..Default::default()
        };
        assert!(run(&config, &mut rng).is_err());
    }
}
