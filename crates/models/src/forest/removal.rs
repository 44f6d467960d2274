//! Scoring training-row removals against one fitted forest from cached
//! split statistics, in the manner of DaRE forests (Brophy & Lowd, 2021).
//!
//! Influence scoring asks the same question once per candidate pattern:
//! what does each test row's probability become when these training rows
//! are unlearned? [`RemovalIndex`] answers it without cloning the forest or
//! re-binning the surviving rows. It caches the histogram of every node that
//! may split, so a removal only subtracts the removed rows' bins and re-runs
//! the split argmax. Nodes whose split survives pass just the removed rows
//! down to their children; nodes whose split flips are regrown from the
//! already-subtracted histogram.

use super::{leaf_proba, same_split, Binned, Forest, ForestConfig, Histogram, Node};
use gopher_data::Encoded;

/// A fitted node plus what scoring a removal under it needs.
struct Cached<'a> {
    node: &'a Node,
    /// Histogram of `node.rows`; empty at `max_depth`, where no split is
    /// possible.
    hist: Histogram,
    /// Test rows the fitted tree routes through this node.
    tests: Vec<u32>,
    /// The split's children, as indices into [`RemovalIndex::nodes`].
    children: Option<[usize; 2]>,
}

/// Per-test-row probabilities of a fitted [`Forest`] with training rows
/// unlearned, computed from cached split statistics.
///
/// For any removal set, [`proba_without`](Self::proba_without) is
/// bit-identical to `forest.unlearn(train, removed).predict_proba(x)` on
/// every test row: both run the same histogram split kernel on the same
/// integer counts, and the tree probabilities are summed in tree order.
///
/// Building the index bins the training rows once, records each tree's
/// bootstrap multiplicities, sums the histogram of every node above
/// `max_depth`, and routes the test rows through every tree. It borrows the
/// forest and both data sets, so it lives as long as one scoring pass.
pub struct RemovalIndex<'a> {
    binned: Binned<'a>,
    config: &'a ForestConfig,
    test: &'a Encoded,
    /// `copies[r * n_trees + t]`: copies of training row `r` in tree `t`'s
    /// bootstrap sample.
    copies: Vec<u32>,
    /// Every tree's nodes, each tree in pre-order.
    nodes: Vec<Cached<'a>>,
    /// Index of each tree's root in `nodes`.
    roots: Vec<usize>,
    /// `base[t * n_test + i]`: test row `i`'s leaf probability in tree `t`
    /// of the fitted forest.
    base: Vec<f64>,
}

impl<'a> RemovalIndex<'a> {
    /// Indexes `forest` for removals from `train`, scored on `test`.
    ///
    /// # Panics
    /// If the forest has not been fit, or `train` is not the training set
    /// its row ids index into.
    pub fn new(forest: &'a Forest, train: &'a Encoded, test: &'a Encoded) -> Self {
        let state = forest.expect_state();
        assert_eq!(
            state.n_rows,
            train.n_rows(),
            "forest was fit on a different training set"
        );
        let n_trees = state.trees.len();
        let n_test = test.n_rows();
        let mut index = Self {
            binned: Binned::new(train, &state.thresholds),
            config: &forest.config,
            test,
            copies: vec![0; train.n_rows() * n_trees],
            nodes: Vec::new(),
            roots: Vec::with_capacity(n_trees),
            base: Vec::with_capacity(n_trees * n_test),
        };
        for (t, tree) in state.trees.iter().enumerate() {
            for &r in &tree.rows {
                index.copies[r as usize * n_trees + t] += 1;
            }
            let hist = (index.config.max_depth > 0).then(|| index.binned.histogram(&tree.rows));
            let root = index.cache(tree, hist, (0..n_test as u32).collect(), 0);
            index.roots.push(root);
            index
                .base
                .extend((0..n_test).map(|i| tree.route(test.x.row(i)).leaf_proba()));
        }
        index
    }

    /// Appends `node` and its subtree to `nodes`; returns `node`'s index.
    fn cache(
        &mut self,
        node: &'a Node,
        hist: Option<Histogram>,
        tests: Vec<u32>,
        depth: usize,
    ) -> usize {
        let at = self.nodes.len();
        let children = node.split.as_ref().map(|split| {
            let (left_tests, right_tests): (Vec<u32>, Vec<u32>) = tests
                .iter()
                .partition(|&&i| self.test.x.row(i as usize)[split.feature] <= split.threshold);
            let hists = match &hist {
                Some(parent) if depth + 1 < self.config.max_depth => self
                    .binned
                    .child_histograms(parent.clone(), &split.left.rows, &split.right.rows)
                    .map(Some),
                _ => [None, None],
            };
            (split, hists, [left_tests, right_tests])
        });
        self.nodes.push(Cached {
            node,
            hist: hist.unwrap_or_default(),
            tests,
            children: None,
        });
        if let Some((split, [left_hist, right_hist], [left_tests, right_tests])) = children {
            let left = self.cache(&split.left, left_hist, left_tests, depth + 1);
            let right = self.cache(&split.right, right_hist, right_tests, depth + 1);
            self.nodes[at].children = Some([left, right]);
        }
        at
    }

    /// Each test row's favorable-class probability under the forest with
    /// every bootstrap copy of the `removed` training rows unlearned.
    /// Bit-identical to `forest.unlearn(train, removed).predict_proba(x)`
    /// for every test row `x`; repeated ids count once.
    ///
    /// # Panics
    /// If a row id is out of range.
    pub fn proba_without(&self, removed: &[u32]) -> Vec<f64> {
        // Each tree's removed rows with their bootstrap multiplicities.
        let n_trees = self.roots.len();
        let mut mask = vec![false; self.binned.train.n_rows()];
        let mut per_tree: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_trees];
        for &r in removed {
            if std::mem::replace(&mut mask[r as usize], true) {
                continue;
            }
            let copies = &self.copies[r as usize * n_trees..][..n_trees];
            for (rows, &m) in per_tree.iter_mut().zip(copies) {
                if m > 0 {
                    rows.push((r, m));
                }
            }
        }
        let n_test = self.test.n_rows();
        let mut sum = vec![0.0f64; n_test];
        let mut leaf = vec![0.0f64; n_test];
        for (t, rows) in per_tree.iter_mut().enumerate() {
            let base = &self.base[t * n_test..(t + 1) * n_test];
            let probs = if rows.is_empty() {
                base
            } else {
                leaf.copy_from_slice(base);
                self.rescore(self.roots[t], rows, 0, &mask, &mut leaf);
                &leaf
            };
            for (s, &p) in sum.iter_mut().zip(probs) {
                *s += p;
            }
        }
        for s in &mut sum {
            *s /= n_trees as f64;
        }
        sum
    }

    /// Unlearns `removed` (the non-empty set of removed bootstrap rows
    /// reaching node `at`, with multiplicities) from the node's subtree and
    /// writes the new leaf probability of every test row whose leaf changed
    /// into `leaf`. Mirrors `Binned::unlearn_node` step for step.
    fn rescore(
        &self,
        at: usize,
        removed: &mut [(u32, u32)],
        depth: usize,
        mask: &[bool],
        leaf: &mut [f64],
    ) {
        let cached = &self.nodes[at];
        let node = cached.node;
        let (mut pos, mut neg) = (node.pos, node.neg);
        for &(r, m) in removed.iter() {
            if self.binned.label(r) == 1 {
                pos -= m;
            } else {
                neg -= m;
            }
        }
        let mut chosen = None;
        if depth < self.config.max_depth {
            let mut hist = cached.hist.clone();
            for &(r, m) in removed.iter() {
                self.binned.sub(&mut hist, r, m);
            }
            chosen = self
                .binned
                .best_split(&hist, pos, neg, self.config.min_leaf);
            if !same_split(node.split.as_deref(), chosen) {
                // The split flipped: regrow from the surviving rows.
                let kept = node
                    .rows
                    .iter()
                    .copied()
                    .filter(|&r| !mask[r as usize])
                    .collect();
                let grown = self.binned.grow_split(
                    kept,
                    Some(hist),
                    (pos, neg),
                    chosen,
                    depth,
                    self.config,
                );
                for &i in &cached.tests {
                    leaf[i as usize] = grown.route(self.test.x.row(i as usize)).leaf_proba();
                }
                return;
            }
        }
        match (chosen, cached.children) {
            (Some((feature, threshold)), Some([left, right])) => {
                // Same split: only the removed rows descend, routed as the
                // fitted tree routes them.
                let train = self.binned.train;
                let mut mid = 0;
                for i in 0..removed.len() {
                    if train.x.row(removed[i].0 as usize)[feature] <= threshold {
                        removed.swap(mid, i);
                        mid += 1;
                    }
                }
                let (to_left, to_right) = removed.split_at_mut(mid);
                if !to_left.is_empty() {
                    self.rescore(left, to_left, depth + 1, mask, leaf);
                }
                if !to_right.is_empty() {
                    self.rescore(right, to_right, depth + 1, mask, leaf);
                }
            }
            _ => {
                // A leaf before and after: only its counts changed.
                let p = leaf_proba(pos, neg);
                for &i in &cached.tests {
                    leaf[i as usize] = p;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_prng::Rng;

    fn split(n: usize, seed: u64) -> (Encoded, Encoded) {
        let mut rng = Rng::new(seed);
        let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
        let enc = Encoder::fit(&train);
        (enc.transform(&train), enc.transform(&test))
    }

    fn fit(train: &Encoded, config: ForestConfig) -> Forest {
        let mut forest = Forest::new(train.n_cols(), config);
        forest.fit(train);
        forest
    }

    /// The removal sets every configuration is checked on: none, one row,
    /// every row, one tree's whole bootstrap, a row listed twice, and
    /// random fractions from 2% to 60%.
    fn subsets(forest: &Forest, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut bootstrap = forest.expect_state().trees[0].rows.clone();
        bootstrap.sort_unstable();
        bootstrap.dedup();
        let mut out = vec![
            Vec::new(),
            vec![(n / 2) as u32],
            (0..n as u32).collect(),
            bootstrap,
            vec![3, 3, 17],
        ];
        let mut rng = Rng::new(seed);
        for fraction in [0.02, 0.1, 0.3, 0.6] {
            out.push((0..n as u32).filter(|_| rng.uniform() < fraction).collect());
        }
        out
    }

    fn assert_matches_unlearn(forest: &Forest, train: &Encoded, test: &Encoded, seed: u64) {
        let index = RemovalIndex::new(forest, train, test);
        for removed in subsets(forest, train.n_rows(), seed) {
            let got = index.proba_without(&removed);
            let unlearned = forest.unlearn(train, &removed);
            for (i, p) in got.iter().enumerate() {
                let want = unlearned.predict_proba(test.x.row(i));
                assert_eq!(
                    p.to_bits(),
                    want.to_bits(),
                    "{:?}, {} rows removed, test row {i}: {p} vs {want}",
                    forest.config(),
                    removed.len()
                );
            }
        }
    }

    #[test]
    fn index_matches_unlearn_across_depths_leaf_sizes_and_bins() {
        let (train, test) = split(400, 3);
        for max_depth in 0..=3 {
            for min_leaf in [1, 8, 50] {
                for n_bins in [2, 8, 16] {
                    let config = ForestConfig {
                        n_trees: 6,
                        max_depth,
                        min_leaf,
                        n_bins,
                        seed: 5,
                    };
                    let forest = fit(&train, config);
                    assert_matches_unlearn(&forest, &train, &test, 11);
                }
            }
        }
    }

    #[test]
    fn index_matches_unlearn_on_a_forest_after_an_in_place_update() {
        let (train, test) = split(500, 4);
        let mut forest = fit(&train, ForestConfig::default());
        let removed: Vec<u32> = vec![2, 9, 40, 41, 42, 200, 301];
        forest.unlearn_in_place(&train, &removed);
        forest.remap_after_removal(&removed);
        let mut mask = vec![false; train.n_rows()];
        removed.iter().for_each(|&r| mask[r as usize] = true);
        let compacted = train.remove_rows(&mask);
        assert_matches_unlearn(&forest, &compacted, &test, 12);
    }
}
