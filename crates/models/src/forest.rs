//! Bagged shallow decision trees with exact per-tree unlearning.
//!
//! [`Forest`] is the first non-differentiable model family: it implements
//! [`Model`] (predictions) but deliberately **not** `Differentiable`, so
//! Hessian-based influence machinery fails to compile against it instead of
//! panicking at runtime. Its influence story is example-based unlearning
//! (Surve & Pradhan): every tree keeps the training-row ids of its bootstrap
//! sample at every node, so removing a set of training rows can be replayed
//! *exactly* — each node re-derives its best split from the surviving rows
//! and rebuilds only the subtrees whose split actually changed.
//!
//! Splits are chosen by one histogram kernel. Training rows are binned once
//! on the frozen cutpoints (a `u8` code per row and feature), each node's
//! (feature × bin) label counts are summed from those codes, and the split
//! is the argmax over the bins. Fit, [`Forest::unlearn`] and the
//! [`RemovalIndex`] all run this kernel, so they cannot disagree.
//!
//! Two paths unlearn rows:
//!
//! * [`RemovalIndex`] is the scoring path. It caches every splittable
//!   node's histogram, so scoring a removal subtracts only the removed rows
//!   and re-runs the argmax; it never clones the forest. It answers each
//!   test row's probability under the unlearned forest.
//! * [`Forest::unlearn`] / [`Forest::unlearn_in_place`] rebuild the node
//!   histograms from the surviving rows and return the unlearned forest.
//!   They serve the session update path, the benchmark's replay, and the
//!   tests, which hold the index to it bit for bit.
//!
//! Determinism contract: for a fixed [`ForestConfig`] (seed included) and a
//! fixed training set, `fit` is bit-reproducible — bootstrap samples come
//! from per-tree forks of one seeded generator, candidate thresholds are
//! quantile cutpoints of the fit data, and the split search scans features
//! and cutpoints in ascending order with strict-improvement tie-breaking.
//! Unlearning recomputes the *same* deterministic split function on the
//! reduced rows, which is what makes it exact rather than approximate: the
//! result equals refitting every tree on its reduced bootstrap sample under
//! the thresholds frozen at fit time.

mod removal;

pub use removal::RemovalIndex;

use crate::train::TrainReport;
use crate::Model;
use gopher_data::Encoded;
use gopher_prng::Rng;

/// Split gains at or below this are treated as "no improvement": guards the
/// strict-improvement scan against float noise manufacturing a split whose
/// mathematical gain is zero (e.g. a pure node). Determinism is unaffected —
/// fit and unlearn apply the same cutoff to the same arithmetic.
const MIN_GAIN: f64 = 1e-12;

/// Configuration for a bagged-tree ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Maximum tree depth: 0 is a single leaf, 1 is decision stumps, and
    /// 2 (the default) is shallow trees of up to 4 leaves.
    pub max_depth: usize,
    /// Minimum bootstrap rows (with multiplicity) on each side of a split.
    pub min_leaf: usize,
    /// Number of histogram bins per feature; candidate thresholds are the
    /// `n_bins − 1` interior quantile cutpoints of the fit data.
    pub n_bins: usize,
    /// Seed for the bootstrap sampler.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 32,
            max_depth: 2,
            min_leaf: 8,
            n_bins: 8,
            seed: 7,
        }
    }
}

/// One tree node. Internal nodes carry their split; every node keeps the
/// bootstrap-row ids (with multiplicity) that reached it plus their label
/// counts, which is exactly the state unlearning needs.
#[derive(Debug, Clone)]
struct Node {
    /// Training-row ids of the bootstrap rows at this node.
    rows: Vec<u32>,
    /// Favorable-label count over `rows`.
    pos: u32,
    /// Unfavorable-label count over `rows`.
    neg: u32,
    split: Option<Box<Split>>,
}

#[derive(Debug, Clone)]
struct Split {
    feature: usize,
    /// Cutpoint drawn from the frozen per-feature threshold table; rows with
    /// `x[feature] <= threshold` go left.
    threshold: f64,
    left: Node,
    right: Node,
}

impl Node {
    /// Laplace-smoothed leaf probability of the favorable class.
    fn leaf_proba(&self) -> f64 {
        leaf_proba(self.pos, self.neg)
    }

    /// The leaf that `x` reaches from this node.
    fn route(&self, x: &[f64]) -> &Node {
        let mut node = self;
        while let Some(split) = &node.split {
            node = if x[split.feature] <= split.threshold {
                &split.left
            } else {
                &split.right
            };
        }
        node
    }
}

/// Laplace-smoothed favorable-class probability of a leaf with these label
/// counts.
fn leaf_proba(pos: u32, neg: u32) -> f64 {
    (f64::from(pos) + 1.0) / (f64::from(pos + neg) + 2.0)
}

/// Everything a fitted forest owns beyond its config.
#[derive(Debug, Clone)]
struct ForestState {
    /// Training-set size the row ids index into.
    n_rows: usize,
    /// Per-feature candidate thresholds, frozen at fit time. Unlearning
    /// reuses them; only a scratch retrain re-derives cutpoints.
    thresholds: Vec<Vec<f64>>,
    trees: Vec<Node>,
}

/// A bagged ensemble of shallow decision trees (Gini splits on histogram
/// cutpoints, deterministic per seed), predicting the mean Laplace-smoothed
/// leaf probability across trees.
#[derive(Debug, Clone)]
pub struct Forest {
    n_inputs: usize,
    config: ForestConfig,
    state: Option<ForestState>,
}

impl Forest {
    /// Creates an unfitted forest for `n_inputs` features.
    ///
    /// # Panics
    /// If the config asks for zero trees, or for fewer than 2 or more than
    /// 256 histogram bins (bin codes are stored as `u8`).
    pub fn new(n_inputs: usize, config: ForestConfig) -> Self {
        assert!(config.n_trees > 0, "forest needs at least one tree");
        assert!(config.n_bins >= 2, "histogram split search needs >= 2 bins");
        assert!(
            config.n_bins <= 256,
            "bin codes are u8: n_bins must be <= 256"
        );
        Self {
            n_inputs,
            config,
            state: None,
        }
    }

    /// The configuration this forest was created with.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Whether [`fit`](Self::fit) has run.
    pub fn is_fit(&self) -> bool {
        self.state.is_some()
    }

    /// Number of rows in the training set this forest was fit on.
    ///
    /// # Panics
    /// If the forest has not been fit.
    pub fn n_train_rows(&self) -> usize {
        self.expect_state().n_rows
    }

    fn expect_state(&self) -> &ForestState {
        self.state
            .as_ref()
            .expect("Forest must be fit before this operation")
    }

    /// Fits the ensemble: freezes per-feature quantile cutpoints, draws one
    /// bootstrap sample per tree from per-tree forks of the seeded
    /// generator, and grows each tree greedily. Bit-reproducible for a fixed
    /// config and training set.
    pub fn fit(&mut self, train: &Encoded) -> TrainReport {
        assert_eq!(
            train.n_cols(),
            self.n_inputs,
            "forest input width must match the encoded data"
        );
        let n = train.n_rows();
        assert!(n > 0, "cannot fit a forest on an empty training set");
        let thresholds = quantile_thresholds(train, self.config.n_bins);
        let binned = Binned::new(train, &thresholds);
        let mut rng = Rng::new(self.config.seed);
        let trees: Vec<Node> = (0..self.config.n_trees)
            .map(|_| {
                let mut tree_rng = rng.fork();
                let sample: Vec<u32> = (0..n).map(|_| tree_rng.below(n as u64) as u32).collect();
                binned.fit_node(sample, 0, &self.config)
            })
            .collect();
        self.state = Some(ForestState {
            n_rows: n,
            thresholds,
            trees,
        });
        // Report training error in the trainer's report shape; there is no
        // gradient, and greedy tree growth always "converges".
        let errors = (0..n)
            .filter(|&r| self.predict(train.x.row(r)) != train.y[r])
            .count();
        TrainReport {
            iterations: self.config.n_trees,
            final_loss: errors as f64 / n as f64,
            grad_norm: 0.0,
            converged: true,
        }
    }

    /// Returns a copy of the forest with the given training rows *exactly
    /// unlearned*: every copy of each removed row id is dropped from every
    /// bootstrap sample, and each tree is transformed into precisely the
    /// tree [`fit`](Self::fit) would have grown on the reduced sample under
    /// the thresholds frozen at fit time. Subtrees whose rows and best split
    /// are untouched are reused; only affected nodes re-split.
    ///
    /// Scoring many removals against one forest is [`RemovalIndex`]'s job;
    /// this copy is the reference it is held to.
    ///
    /// `train` must be the encoded training set the forest was fit on.
    ///
    /// # Panics
    /// If the forest has not been fit, or a row id is out of range.
    pub fn unlearn(&self, train: &Encoded, removed: &[u32]) -> Forest {
        let mut unlearned = self.clone();
        unlearned.unlearn_in_place(train, removed);
        unlearned
    }

    /// In-place variant of [`unlearn`](Self::unlearn), for the session
    /// update path.
    pub fn unlearn_in_place(&mut self, train: &Encoded, removed: &[u32]) {
        let ForestState {
            n_rows,
            thresholds,
            trees,
        } = self
            .state
            .as_mut()
            .expect("Forest must be fit before unlearning");
        let mut mask = vec![false; *n_rows];
        for &r in removed {
            mask[r as usize] = true;
        }
        let binned = Binned::new(train, thresholds);
        for tree in trees {
            *tree = binned.unlearn_node(tree, &mask, 0, &self.config);
        }
    }

    /// Renumbers every stored row id after `removed` (sorted, deduplicated)
    /// rows were deleted from the training set: id `r` becomes `r` minus the
    /// number of removed ids below it. Call after
    /// [`unlearn_in_place`](Self::unlearn_in_place) so no removed id
    /// remains; keeps the forest's row ids aligned with the compacted
    /// training set for future unlearning rounds.
    pub fn remap_after_removal(&mut self, removed_sorted: &[u32]) {
        debug_assert!(removed_sorted.windows(2).all(|w| w[0] < w[1]));
        let state = self
            .state
            .as_mut()
            .expect("Forest must be fit before remapping");
        state.n_rows -= removed_sorted.len();
        for tree in &mut state.trees {
            remap_node(tree, removed_sorted);
        }
    }
}

impl Model for Forest {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        let state = self.expect_state();
        let mut sum = 0.0;
        for tree in &state.trees {
            sum += tree.route(x).leaf_proba();
        }
        sum / state.trees.len() as f64
    }
}

/// Interior quantile cutpoints per feature: deterministic, duplicate-free,
/// at most `n_bins − 1` per feature.
fn quantile_thresholds(train: &Encoded, n_bins: usize) -> Vec<Vec<f64>> {
    let n = train.n_rows();
    let d = train.n_cols();
    let mut out = Vec::with_capacity(d);
    let mut col = vec![0.0f64; n];
    for j in 0..d {
        for (r, v) in col.iter_mut().enumerate() {
            *v = train.x.row(r)[j];
        }
        col.sort_by(f64::total_cmp);
        let mut cuts: Vec<f64> = Vec::with_capacity(n_bins - 1);
        for q in 1..n_bins {
            let v = col[q * (n - 1) / n_bins];
            // A cutpoint equal to the column maximum can never send a row
            // right; skip it along with duplicates.
            if v < col[n - 1] && cuts.last() != Some(&v) {
                cuts.push(v);
            }
        }
        out.push(cuts);
    }
    out
}

/// Sum-of-squares purity score `(pos² + neg²) / total` — maximizing the
/// total score over a partition is exactly minimizing weighted Gini
/// impurity.
fn sos(pos: u32, neg: u32) -> f64 {
    let total = pos + neg;
    if total == 0 {
        return 0.0;
    }
    (f64::from(pos) * f64::from(pos) + f64::from(neg) * f64::from(neg)) / f64::from(total)
}

fn count_labels(train: &Encoded, rows: &[u32]) -> (u32, u32) {
    let mut pos = 0u32;
    let mut neg = 0u32;
    for &r in rows {
        if train.y[r as usize] == 1.0 {
            pos += 1;
        } else {
            neg += 1;
        }
    }
    (pos, neg)
}

/// (feature × bin) label counts of a multiset of rows: slot
/// `offsets[f] + bin` holds `[unfavorable, favorable]` counts.
type Histogram = Vec<[u32; 2]>;

/// Training rows binned on the frozen cutpoints: the input of the one
/// histogram split kernel that fit, unlearning and [`RemovalIndex`] share.
///
/// Feature `f`'s bin `k` holds rows with `cuts[k−1] < x <= cuts[k]` (bin 0:
/// `x <= cuts[0]`; the last bin: `x` above every cutpoint), so the left side
/// of a split at `cuts[k]` is the prefix of bins `0..=k`.
struct Binned<'a> {
    train: &'a Encoded,
    thresholds: &'a [Vec<f64>],
    /// Feature `f`'s bins are histogram slots `offsets[f]..offsets[f + 1]`.
    offsets: Vec<usize>,
    /// `codes[r * d + f]`: row `r`'s bin for feature `f`.
    codes: Vec<u8>,
}

impl<'a> Binned<'a> {
    fn new(train: &'a Encoded, thresholds: &'a [Vec<f64>]) -> Self {
        assert_eq!(
            train.n_cols(),
            thresholds.len(),
            "forest input width must match the encoded data"
        );
        let mut offsets = Vec::with_capacity(thresholds.len() + 1);
        offsets.push(0);
        for cuts in thresholds {
            offsets.push(offsets[offsets.len() - 1] + cuts.len() + 1);
        }
        let mut codes = Vec::with_capacity(train.n_rows() * thresholds.len());
        for r in 0..train.n_rows() {
            let x = train.x.row(r);
            for (cuts, &v) in thresholds.iter().zip(x) {
                // At most 255 cutpoints (`Forest::new` caps `n_bins`).
                codes.push(cuts.partition_point(|&c| c < v) as u8);
            }
        }
        Self {
            train,
            thresholds,
            offsets,
            codes,
        }
    }

    /// Histogram slot of row `r`'s favorable (1) or unfavorable (0) label.
    fn label(&self, r: u32) -> usize {
        usize::from(self.train.y[r as usize] == 1.0)
    }

    /// Adds `copies` copies of row `r` to `hist`.
    fn add(&self, hist: &mut [[u32; 2]], r: u32, copies: u32) {
        let label = self.label(r);
        let d = self.thresholds.len();
        let codes = &self.codes[r as usize * d..(r as usize + 1) * d];
        for (&offset, &code) in self.offsets.iter().zip(codes) {
            hist[offset + usize::from(code)][label] += copies;
        }
    }

    /// Removes `copies` copies of row `r` from `hist`.
    fn sub(&self, hist: &mut [[u32; 2]], r: u32, copies: u32) {
        let label = self.label(r);
        let d = self.thresholds.len();
        let codes = &self.codes[r as usize * d..(r as usize + 1) * d];
        for (&offset, &code) in self.offsets.iter().zip(codes) {
            hist[offset + usize::from(code)][label] -= copies;
        }
    }

    /// The histogram of `rows` (repeated ids count once per copy).
    fn histogram(&self, rows: &[u32]) -> Histogram {
        let mut hist = vec![[0u32; 2]; self.offsets[self.offsets.len() - 1]];
        for &r in rows {
            self.add(&mut hist, r, 1);
        }
        hist
    }

    /// Splits a parent's histogram into its children's: the child with fewer
    /// rows is summed from its bin codes, the other is the parent minus it.
    fn child_histograms(
        &self,
        mut parent: Histogram,
        left: &[u32],
        right: &[u32],
    ) -> [Histogram; 2] {
        if left.len() <= right.len() {
            let small = self.histogram(left);
            subtract(&mut parent, &small);
            [small, parent]
        } else {
            let small = self.histogram(right);
            subtract(&mut parent, &small);
            [parent, small]
        }
    }

    /// The best `(feature, threshold)` over the frozen cutpoint table for a
    /// node with this histogram and label counts, or `None` when no split
    /// strictly improves purity under the `min_leaf` constraint. Pure
    /// function of the counts: scans features then cutpoints in ascending
    /// order and replaces the incumbent only on strict improvement, so ties
    /// resolve to the first candidate and every caller agrees bit for bit.
    fn best_split(
        &self,
        hist: &[[u32; 2]],
        pos: u32,
        neg: u32,
        min_leaf: usize,
    ) -> Option<(usize, f64)> {
        let parent = sos(pos, neg);
        let total = (pos + neg) as usize;
        let mut best: Option<(usize, f64)> = None;
        let mut best_gain = MIN_GAIN;
        for (feature, cuts) in self.thresholds.iter().enumerate() {
            let bins = &hist[self.offsets[feature]..self.offsets[feature + 1]];
            let mut pos_l = 0u32;
            let mut neg_l = 0u32;
            for (&cut, &[neg_bin, pos_bin]) in cuts.iter().zip(bins) {
                pos_l += pos_bin;
                neg_l += neg_bin;
                let n_l = (pos_l + neg_l) as usize;
                let n_r = total - n_l;
                if n_l < min_leaf || n_r < min_leaf {
                    continue;
                }
                let gain = sos(pos_l, neg_l) + sos(pos - pos_l, neg - neg_l) - parent;
                if gain > best_gain {
                    best_gain = gain;
                    best = Some((feature, cut));
                }
            }
        }
        best
    }

    /// Grows one node greedily from its bootstrap rows.
    fn fit_node(&self, rows: Vec<u32>, depth: usize, cfg: &ForestConfig) -> Node {
        let counts = count_labels(self.train, &rows);
        let hist = (depth < cfg.max_depth).then(|| self.histogram(&rows));
        self.grow(rows, hist, counts, depth, cfg)
    }

    /// Grows the subtree of a node whose rows, `(pos, neg)` label counts and
    /// histogram are known. `hist` must be `Some` exactly when
    /// `depth < max_depth`.
    fn grow(
        &self,
        rows: Vec<u32>,
        hist: Option<Histogram>,
        counts: (u32, u32),
        depth: usize,
        cfg: &ForestConfig,
    ) -> Node {
        let chosen = self.choose(hist.as_deref(), counts, cfg);
        self.grow_split(rows, hist, counts, chosen, depth, cfg)
    }

    /// The split the kernel picks for a node, if it may split at all.
    fn choose(
        &self,
        hist: Option<&[[u32; 2]]>,
        (pos, neg): (u32, u32),
        cfg: &ForestConfig,
    ) -> Option<(usize, f64)> {
        hist.and_then(|h| self.best_split(h, pos, neg, cfg.min_leaf))
    }

    /// [`grow`](Self::grow) with the node's split already chosen.
    fn grow_split(
        &self,
        rows: Vec<u32>,
        hist: Option<Histogram>,
        (pos, neg): (u32, u32),
        chosen: Option<(usize, f64)>,
        depth: usize,
        cfg: &ForestConfig,
    ) -> Node {
        let split = chosen.map(|(feature, threshold)| {
            let (left_rows, right_rows) = partition(self.train, &rows, feature, threshold);
            let (left_pos, left_neg) = count_labels(self.train, &left_rows);
            let right_counts = (pos - left_pos, neg - left_neg);
            let [left_hist, right_hist] = match hist {
                Some(parent) if depth + 1 < cfg.max_depth => self
                    .child_histograms(parent, &left_rows, &right_rows)
                    .map(Some),
                _ => [None, None],
            };
            Box::new(Split {
                feature,
                threshold,
                left: self.grow(left_rows, left_hist, (left_pos, left_neg), depth + 1, cfg),
                right: self.grow(right_rows, right_hist, right_counts, depth + 1, cfg),
            })
        });
        Node {
            rows,
            pos,
            neg,
            split,
        }
    }

    /// Exact unlearning of one node: drops masked rows, re-derives the best
    /// split on the survivors, and reuses the existing structure when the
    /// split is unchanged (recursing only into children) — otherwise
    /// regrows the subtree. Postcondition: the returned node is exactly
    /// `fit_node(survivors, depth)`.
    fn unlearn_node(&self, node: &Node, mask: &[bool], depth: usize, cfg: &ForestConfig) -> Node {
        let kept: Vec<u32> = node
            .rows
            .iter()
            .copied()
            .filter(|&r| !mask[r as usize])
            .collect();
        if kept.len() == node.rows.len() {
            // No removed row reached this node: the whole subtree is untouched.
            return node.clone();
        }
        let (pos, neg) = count_labels(self.train, &kept);
        let hist = (depth < cfg.max_depth).then(|| self.histogram(&kept));
        let chosen = self.choose(hist.as_deref(), (pos, neg), cfg);
        if !same_split(node.split.as_deref(), chosen) {
            // The split flipped (changed, appeared, or vanished): regrow.
            return self.grow_split(kept, hist, (pos, neg), chosen, depth, cfg);
        }
        let split = node.split.as_ref().map(|old| {
            // Same split, same partition function: the children's surviving
            // rows are exactly their old rows minus the mask — recurse.
            Box::new(Split {
                feature: old.feature,
                threshold: old.threshold,
                left: self.unlearn_node(&old.left, mask, depth + 1, cfg),
                right: self.unlearn_node(&old.right, mask, depth + 1, cfg),
            })
        });
        Node {
            rows: kept,
            pos,
            neg,
            split,
        }
    }
}

/// `hist -= other`, slot by slot.
fn subtract(hist: &mut [[u32; 2]], other: &[[u32; 2]]) {
    for (h, o) in hist.iter_mut().zip(other) {
        h[0] -= o[0];
        h[1] -= o[1];
    }
}

/// Whether a node's existing split is the one the kernel chose: same
/// feature and bit-identical threshold, or no split on either side.
fn same_split(old: Option<&Split>, chosen: Option<(usize, f64)>) -> bool {
    match (old, chosen) {
        (Some(old), Some((feature, threshold))) => {
            old.feature == feature && old.threshold.to_bits() == threshold.to_bits()
        }
        (None, None) => true,
        _ => false,
    }
}

/// Grows one node greedily from its bootstrap rows, binning `train` afresh:
/// the reference the unit tests compare unlearning against.
#[cfg(test)]
fn fit_node(
    train: &Encoded,
    thresholds: &[Vec<f64>],
    rows: Vec<u32>,
    depth: usize,
    cfg: &ForestConfig,
) -> Node {
    Binned::new(train, thresholds).fit_node(rows, depth, cfg)
}

/// Order-preserving partition of `rows` by `x[feature] <= threshold`.
fn partition(
    train: &Encoded,
    rows: &[u32],
    feature: usize,
    threshold: f64,
) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &r in rows {
        if train.x.row(r as usize)[feature] <= threshold {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

fn remap_node(node: &mut Node, removed_sorted: &[u32]) {
    for r in &mut node.rows {
        let below = removed_sorted.partition_point(|&x| x < *r) as u32;
        debug_assert!(removed_sorted.binary_search(r).is_err());
        *r -= below;
    }
    if let Some(split) = &mut node.split {
        remap_node(&mut split.left, removed_sorted);
        remap_node(&mut split.right, removed_sorted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::Encoder;

    fn fit_forest(n: usize, seed: u64) -> (Encoded, Forest) {
        let raw = german(n, 11);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut forest = Forest::new(
            train.n_cols(),
            ForestConfig {
                seed,
                ..ForestConfig::default()
            },
        );
        let report = forest.fit(&train);
        assert!(report.converged);
        (train, forest)
    }

    fn assert_nodes_equal(a: &Node, b: &Node) {
        assert_eq!(a.rows, b.rows);
        assert_eq!((a.pos, a.neg), (b.pos, b.neg));
        match (&a.split, &b.split) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.feature, y.feature);
                assert_eq!(x.threshold.to_bits(), y.threshold.to_bits());
                assert_nodes_equal(&x.left, &y.left);
                assert_nodes_equal(&x.right, &y.right);
            }
            _ => panic!("split structure diverged"),
        }
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (_, f1) = fit_forest(300, 5);
        let (_, f2) = fit_forest(300, 5);
        let (_, f3) = fit_forest(300, 6);
        let s1 = f1.expect_state();
        let s2 = f2.expect_state();
        for (a, b) in s1.trees.iter().zip(&s2.trees) {
            assert_nodes_equal(a, b);
        }
        // A different seed draws different bootstraps.
        let same_rows = s1
            .trees
            .iter()
            .zip(&f3.expect_state().trees)
            .all(|(a, b)| a.rows == b.rows);
        assert!(!same_rows, "distinct seeds must draw distinct bootstraps");
    }

    #[test]
    fn forest_beats_coin_flip_on_train() {
        let (train, forest) = fit_forest(400, 7);
        let acc = crate::train::accuracy(&forest, &train);
        assert!(acc > 0.6, "train accuracy {acc} should beat chance");
    }

    #[test]
    fn proba_is_a_probability_and_trees_are_depth_bounded() {
        let (train, forest) = fit_forest(200, 9);
        for r in 0..train.n_rows() {
            let p = forest.predict_proba(train.x.row(r));
            assert!((0.0..=1.0).contains(&p));
        }
        fn depth(node: &Node) -> usize {
            node.split
                .as_ref()
                .map_or(0, |s| 1 + depth(&s.left).max(depth(&s.right)))
        }
        for tree in &forest.expect_state().trees {
            assert!(depth(tree) <= forest.config().max_depth);
        }
    }

    /// The heart of the exactness claim: unlearning rows equals regrowing
    /// every tree from scratch on its reduced bootstrap sample (under the
    /// fit-time thresholds).
    #[test]
    fn unlearning_matches_refit_on_reduced_bootstraps() {
        let (train, forest) = fit_forest(300, 13);
        for removed in [
            vec![0u32, 5, 17, 123, 299],
            (0..60).collect::<Vec<u32>>(),
            vec![250],
        ] {
            let unlearned = forest.unlearn(&train, &removed);
            let mut mask = vec![false; train.n_rows()];
            removed.iter().for_each(|&r| mask[r as usize] = true);
            let state = forest.expect_state();
            for (tree, got) in state.trees.iter().zip(&unlearned.expect_state().trees) {
                let reduced: Vec<u32> = tree
                    .rows
                    .iter()
                    .copied()
                    .filter(|&r| !mask[r as usize])
                    .collect();
                let reference = fit_node(&train, &state.thresholds, reduced, 0, forest.config());
                assert_nodes_equal(got, &reference);
            }
        }
    }

    #[test]
    fn unlearning_changes_predictions_monotonically_toward_removal() {
        let (train, forest) = fit_forest(300, 17);
        // Remove a block of favorable-outcome rows; some prediction must move.
        let removed: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.y[r as usize] == 1.0)
            .take(40)
            .collect();
        let unlearned = forest.unlearn(&train, &removed);
        let moved = (0..train.n_rows()).any(|r| {
            (forest.predict_proba(train.x.row(r)) - unlearned.predict_proba(train.x.row(r))).abs()
                > 1e-12
        });
        assert!(
            moved,
            "removing 40 favorable rows must move some prediction"
        );
    }

    #[test]
    fn remap_after_removal_matches_refit_row_ids() {
        let (train, mut forest) = fit_forest(200, 19);
        let removed: Vec<u32> = vec![3, 40, 41, 150];
        forest.unlearn_in_place(&train, &removed);
        forest.remap_after_removal(&removed);
        assert_eq!(forest.n_train_rows(), 196);
        // Every surviving id must be in range and the mapping order-preserving.
        fn check(node: &Node, n: usize) {
            assert!(node.rows.iter().all(|&r| (r as usize) < n));
            if let Some(s) = &node.split {
                check(&s.left, n);
                check(&s.right, n);
            }
        }
        for tree in &forest.expect_state().trees {
            check(tree, 196);
        }
    }

    #[test]
    #[should_panic(expected = "must be fit")]
    fn predicting_before_fit_panics() {
        let forest = Forest::new(3, ForestConfig::default());
        let _ = forest.predict_proba(&[0.0, 0.0, 0.0]);
    }
}
