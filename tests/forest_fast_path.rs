//! Bit-identity pins for the forest scoring fast path.
//!
//! `UnlearningBackend`'s scorer answers from cached split histograms
//! (`RemovalIndex`) instead of cloning the forest. Its score must still be
//! exactly `-(F(unlearned) − F(fitted)) / F(fitted)`, with the unlearned
//! forest from `Forest::unlearn` and `F` from `gopher_fairness::bias` or
//! `smooth_bias` — compared with `f64::to_bits`, for every metric and
//! bias-evaluation mode, on fresh forests and on a forest a session update
//! has already unlearned rows from.

use gopher_data::generators::german;
use gopher_data::{Encoded, Encoder};
use gopher_fairness::{bias, smooth_bias, FairnessMetric};
use gopher_influence::{BiasEval, Estimator, InfluenceBackend, InfluenceConfig, UnlearningBackend};
use gopher_models::{Forest, ForestConfig, Model, RemovalIndex};
use gopher_prng::Rng;

const EVALS: [BiasEval; 3] = [
    BiasEval::ChainRule,
    BiasEval::ReEvalHard,
    BiasEval::ReEvalSmooth,
];

fn split(n: usize, seed: u64) -> (Encoded, Encoded) {
    let mut rng = Rng::new(seed);
    let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
    let encoder = Encoder::fit(&train);
    (encoder.transform(&train), encoder.transform(&test))
}

/// None, one row, every row, and random fractions from 2% to 60%.
fn subsets(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(), vec![(n / 3) as u32], (0..n as u32).collect()];
    let mut rng = Rng::new(seed);
    for fraction in [0.02, 0.15, 0.6] {
        out.push((0..n as u32).filter(|_| rng.uniform() < fraction).collect());
    }
    out
}

/// The scorer's value rebuilt from `Forest::unlearn` and the model-level
/// metrics, as the backend computed it before the fast path.
fn reference_score(
    forest: &Forest,
    unlearned: &Forest,
    test: &Encoded,
    metric: FairnessMetric,
    eval: BiasEval,
) -> f64 {
    let base_hard = bias(metric, forest, test);
    if base_hard.abs() < 1e-12 {
        return 0.0;
    }
    let delta = match eval {
        BiasEval::ReEvalSmooth => {
            smooth_bias(metric, unlearned, test) - smooth_bias(metric, forest, test)
        }
        BiasEval::ChainRule | BiasEval::ReEvalHard => bias(metric, unlearned, test) - base_hard,
    };
    -delta / base_hard
}

/// Every subset × metric × eval: probabilities and scores to the bit.
fn assert_backend_matches_unlearn(backend: &UnlearningBackend, train: &Encoded, test: &Encoded) {
    let forest = backend.forest();
    let index = RemovalIndex::new(forest, train, test);
    for rows in subsets(train.n_rows(), 17) {
        let unlearned = forest.unlearn(train, &rows);
        let proba = index.proba_without(&rows);
        for (i, p) in proba.iter().enumerate() {
            let want = unlearned.predict_proba(test.x.row(i));
            assert_eq!(p.to_bits(), want.to_bits(), "test row {i}: {p} vs {want}");
        }
        for metric in FairnessMetric::EXTENDED {
            for eval in EVALS {
                let precomp = backend.precompute(metric, test);
                let scorer =
                    backend.scorer(train, test, metric, precomp, Estimator::SecondOrder, eval);
                let got = scorer(&rows);
                let want = reference_score(forest, &unlearned, test, metric, eval);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{metric} / {eval:?}, {} rows removed, {:?}: {got} vs {want}",
                    rows.len(),
                    forest.config()
                );
            }
        }
    }
}

#[test]
fn scorer_is_bit_identical_to_forest_unlearn_for_every_metric_and_eval() {
    let (train, test) = split(500, 61);
    for config in [
        ForestConfig::default(),
        ForestConfig {
            n_trees: 8,
            max_depth: 3,
            min_leaf: 1,
            n_bins: 16,
            seed: 3,
        },
        ForestConfig {
            n_trees: 8,
            max_depth: 1,
            min_leaf: 50,
            n_bins: 2,
            seed: 4,
        },
    ] {
        let mut forest = Forest::new(train.n_cols(), config);
        forest.fit(&train);
        let backend = UnlearningBackend::build(forest, &train, InfluenceConfig::default());
        assert_backend_matches_unlearn(&backend, &train, &test);
    }
}

#[test]
fn scorer_is_bit_identical_to_forest_unlearn_after_a_removal_update() {
    let (train, test) = split(500, 62);
    let mut forest = Forest::new(train.n_cols(), ForestConfig::default());
    forest.fit(&train);
    let mut backend = UnlearningBackend::build(forest, &train, InfluenceConfig::default());
    let removed = [4usize, 5, 90, 91, 180, 333];
    let mut mask = vec![false; train.n_rows()];
    removed.iter().for_each(|&r| mask[r] = true);
    let new_train = train.remove_rows(&mask);
    let report = backend.update(&train, &new_train, &removed, &[], &[]);
    assert!(
        !report.fell_back(),
        "a removal-only delta unlearns in place"
    );
    assert_backend_matches_unlearn(&backend, &new_train, &test);
}
