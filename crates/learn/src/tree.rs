//! CART decision trees (paper ref \[7\]) — an assumed model that is "not
//! an equation" (§2.1): axis-aligned threshold splits grown greedily by
//! Gini impurity (classification) or variance reduction (regression).

use serde::{Deserialize, Serialize};

use crate::{error::check_xy, LearnError};

/// Growth limits for tree induction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples allowed in a leaf.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1 }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        /// Majority label (classification) or mean target (regression).
        value: f64,
        /// Class histogram for probability output; empty for regression.
        counts: Vec<(i32, usize)>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn descend(&self, x: &[f64]) -> &Node {
        match self {
            Node::Leaf { .. } => self,
            Node::Split { feature, threshold, left, right } => {
                if x[*feature] <= *threshold {
                    left.descend(x)
                } else {
                    right.descend(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn max_split_feature(&self) -> Option<usize> {
        match self {
            Node::Leaf { .. } => None,
            Node::Split { feature, left, right, .. } => {
                [Some(*feature), left.max_split_feature(), right.max_split_feature()]
                    .into_iter()
                    .flatten()
                    .max()
            }
        }
    }

    fn n_leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.n_leaves() + right.n_leaves(),
        }
    }
}

fn gini(labels: &[i32], idx: &[usize]) -> f64 {
    let mut counts: Vec<(i32, usize)> = Vec::new();
    for &i in idx {
        match counts.iter_mut().find(|(l, _)| *l == labels[i]) {
            Some((_, c)) => *c += 1,
            None => counts.push((labels[i], 1)),
        }
    }
    let n = idx.len() as f64;
    1.0 - counts.iter().map(|&(_, c)| (c as f64 / n).powi(2)).sum::<f64>()
}

fn variance_of(values: &[f64], idx: &[usize]) -> f64 {
    if idx.len() < 2 {
        return 0.0;
    }
    let mean = idx.iter().map(|&i| values[i]).sum::<f64>() / idx.len() as f64;
    idx.iter().map(|&i| (values[i] - mean).powi(2)).sum::<f64>() / idx.len() as f64
}

/// Finds the best (feature, threshold) over the candidate features by
/// minimizing weighted child impurity. Returns `None` if no split
/// improves on the parent.
fn best_split(
    x: &[Vec<f64>],
    idx: &[usize],
    impurity: &dyn Fn(&[usize]) -> f64,
    features: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let parent = impurity(idx);
    if parent <= 1e-12 {
        return None;
    }
    let n = idx.len() as f64;
    let mut best: Option<(f64, usize, f64)> = None;
    for &f in features {
        // Candidate thresholds: midpoints between consecutive distinct values.
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        for w in vals.windows(2) {
            let thr = 0.5 * (w[0] + w[1]);
            let left: Vec<usize> = idx.iter().copied().filter(|&i| x[i][f] <= thr).collect();
            if left.len() < min_leaf || idx.len() - left.len() < min_leaf {
                continue;
            }
            let right: Vec<usize> = idx.iter().copied().filter(|&i| x[i][f] > thr).collect();
            let score =
                left.len() as f64 / n * impurity(&left) + right.len() as f64 / n * impurity(&right);
            // Ties with the parent are allowed (XOR-style targets need a
            // non-improving first cut); recursion still terminates because
            // both children are strictly smaller.
            if score <= parent + 1e-12 && best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, f, thr));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

/// Leaf payload: representative value plus (for classification) the
/// class histogram.
type LeafValue = (f64, Vec<(i32, usize)>);

fn grow(
    x: &[Vec<f64>],
    idx: &[usize],
    depth: usize,
    params: &TreeParams,
    impurity: &dyn Fn(&[usize]) -> f64,
    leaf_value: &dyn Fn(&[usize]) -> LeafValue,
    features: &[usize],
) -> Node {
    if depth >= params.max_depth || idx.len() < params.min_samples_split {
        let (value, counts) = leaf_value(idx);
        return Node::Leaf { value, counts };
    }
    match best_split(x, idx, impurity, features, params.min_samples_leaf) {
        None => {
            let (value, counts) = leaf_value(idx);
            Node::Leaf { value, counts }
        }
        Some((f, thr)) => {
            let left_idx: Vec<usize> = idx.iter().copied().filter(|&i| x[i][f] <= thr).collect();
            let right_idx: Vec<usize> = idx.iter().copied().filter(|&i| x[i][f] > thr).collect();
            Node::Split {
                feature: f,
                threshold: thr,
                left: Box::new(grow(
                    x,
                    &left_idx,
                    depth + 1,
                    params,
                    impurity,
                    leaf_value,
                    features,
                )),
                right: Box::new(grow(
                    x,
                    &right_idx,
                    depth + 1,
                    params,
                    impurity,
                    leaf_value,
                    features,
                )),
            }
        }
    }
}

/// A CART classification tree.
///
/// # Example
///
/// ```
/// use edm_learn::tree::{DecisionTreeClassifier, TreeParams};
///
/// let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let y = vec![0, 0, 1, 1];
/// let m = DecisionTreeClassifier::fit(&x, &y, TreeParams::default())?;
/// assert_eq!(m.predict(&[0.5]), 0);
/// assert_eq!(m.predict(&[2.5]), 1);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeClassifier {
    root: Node,
}

impl DecisionTreeClassifier {
    /// Grows a tree on integer-labeled data.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent or empty input.
    pub fn fit(x: &[Vec<f64>], y: &[i32], params: TreeParams) -> Result<Self, LearnError> {
        Self::fit_on_features(x, y, params, None)
    }

    /// Grows a tree restricted to a feature subset (used by random
    /// forests); `None` means all features.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent or empty input.
    pub fn fit_on_features(
        x: &[Vec<f64>],
        y: &[i32],
        params: TreeParams,
        features: Option<&[usize]>,
    ) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        let all: Vec<usize> = (0..d).collect();
        let features = features.unwrap_or(&all);
        let idx: Vec<usize> = (0..x.len()).collect();
        let impurity = |idx: &[usize]| gini(y, idx);
        let leaf_value = |idx: &[usize]| {
            let mut counts: Vec<(i32, usize)> = Vec::new();
            for &i in idx {
                match counts.iter_mut().find(|(l, _)| *l == y[i]) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((y[i], 1)),
                }
            }
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            (counts[0].0 as f64, counts)
        };
        Ok(DecisionTreeClassifier {
            root: grow(x, &idx, 0, &params, &impurity, &leaf_value, features),
        })
    }

    /// Predicts the majority label of the reached leaf.
    pub fn predict(&self, x: &[f64]) -> i32 {
        match self.root.descend(x) {
            Node::Leaf { value, .. } => *value as i32,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Leaf class proportions for `x` as `(label, fraction)`.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<(i32, f64)> {
        match self.root.descend(x) {
            Node::Leaf { counts, .. } => {
                let total: usize = counts.iter().map(|&(_, c)| c).sum();
                counts.iter().map(|&(l, c)| (l, c as f64 / total.max(1) as f64)).collect()
            }
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Tree depth (root = 0).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Number of leaves — a natural complexity measure for the Fig. 5
    /// story applied to trees.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// The largest feature index any split tests (`None` for a single
    /// leaf) — what a model loader checks against the feature count.
    pub(crate) fn max_split_feature(&self) -> Option<usize> {
        self.root.max_split_feature()
    }
}

/// A CART regression tree (variance-reduction splits, mean-value leaves).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    root: Node,
}

impl DecisionTreeRegressor {
    /// Grows a tree on continuous targets.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent or empty input.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: TreeParams) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        let features: Vec<usize> = (0..d).collect();
        let idx: Vec<usize> = (0..x.len()).collect();
        let impurity = |idx: &[usize]| variance_of(y, idx);
        let leaf_value = |idx: &[usize]| {
            let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len().max(1) as f64;
            (mean, Vec::new())
        };
        Ok(DecisionTreeRegressor {
            root: grow(x, &idx, 0, &params, &impurity, &leaf_value, &features),
        })
    }

    /// Predicts the mean target of the reached leaf.
    pub fn predict(&self, x: &[f64]) -> f64 {
        match self.root.descend(x) {
            Node::Leaf { value, .. } => *value,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_fits_xor() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let y = vec![0, 0, 1, 1];
        let m = DecisionTreeClassifier::fit(&x, &y, TreeParams::default()).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), yi);
        }
        assert!(m.depth() >= 2, "xor needs at least two levels");
    }

    #[test]
    fn pure_node_stops_splitting() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![5, 5, 5];
        let m = DecisionTreeClassifier::fit(&x, &y, TreeParams::default()).unwrap();
        assert_eq!(m.n_leaves(), 1);
        assert_eq!(m.predict(&[99.0]), 5);
    }

    #[test]
    fn depth_limit_respected() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<i32> = (0..64).map(|i| i % 2).collect();
        let m =
            DecisionTreeClassifier::fit(&x, &y, TreeParams { max_depth: 3, ..Default::default() })
                .unwrap();
        assert!(m.depth() <= 3);
        assert!(m.n_leaves() <= 8);
    }

    #[test]
    fn proba_reflects_leaf_mixture() {
        // min_samples_leaf = 3 forces the right leaf to keep the stray 0.
        let x: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let y = vec![0, 0, 0, 1, 1, 0];
        let m = DecisionTreeClassifier::fit(
            &x,
            &y,
            TreeParams { max_depth: 1, min_samples_leaf: 3, ..Default::default() },
        )
        .unwrap();
        let p = m.predict_proba(&[10.0]);
        let p1 = p.iter().find(|&&(l, _)| l == 1).map(|&(_, v)| v).unwrap_or(0.0);
        assert!((p1 - 2.0 / 3.0).abs() < 1e-12, "got {p:?}");
    }

    #[test]
    fn regressor_fits_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let m = DecisionTreeRegressor::fit(&x, &y, TreeParams::default()).unwrap();
        assert!((m.predict(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((m.predict(&[15.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_prevents_slivers() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<i32> = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let m = DecisionTreeClassifier::fit(
            &x,
            &y,
            TreeParams { min_samples_leaf: 3, ..Default::default() },
        )
        .unwrap();
        // The lone positive cannot be isolated into its own leaf.
        assert_eq!(m.predict(&[9.0]), 0);
    }
}
