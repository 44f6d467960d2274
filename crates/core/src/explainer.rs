//! The report types of the query-oriented [`session`](crate::session) API,
//! plus [`GopherConfig`], a one-struct bundle of session and request options.

use crate::session::{ExplainRequest, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, Estimator, InfluenceConfig};
use gopher_patterns::{Candidate, LatticeConfig, SearchStats};
use std::time::Duration;

/// End-to-end explainer configuration: the union of session-level options
/// (`max_bins`, `influence`, split out by
/// [`GopherConfig::to_session_builder`]) and per-query options (everything
/// else, split out by [`GopherConfig::to_request`]).
#[derive(Debug, Clone)]
pub struct GopherConfig {
    /// Fairness metric to debug.
    pub metric: FairnessMetric,
    /// Number of explanations to return.
    pub k: usize,
    /// Containment threshold `c` for diversity (Definition 3.7).
    pub containment_threshold: f64,
    /// Lattice search parameters (support threshold τ, depth, pruning).
    pub lattice: LatticeConfig,
    /// Influence estimator used to score candidate patterns.
    pub estimator: Estimator,
    /// How estimated parameter changes become bias changes.
    pub bias_eval: BiasEval,
    /// Influence-engine parameters (damping, CG budget, …).
    pub influence: InfluenceConfig,
    /// Quantile bins per numeric feature for predicate generation.
    pub max_bins: usize,
    /// Retrain without each top-k subset to report ground-truth Δbias
    /// (the paper reports this for every table; costs k retrainings).
    pub ground_truth_for_topk: bool,
    /// Re-score the top candidates with the second-order estimator before
    /// the final ranking (cheap: only the survivors of the containment
    /// filter are re-scored). Off by default to match the paper.
    pub rescore_top_with_so: bool,
}

impl Default for GopherConfig {
    fn default() -> Self {
        Self {
            metric: FairnessMetric::StatisticalParity,
            k: 3,
            containment_threshold: 0.75,
            lattice: LatticeConfig::default(),
            estimator: Estimator::SecondOrder,
            bias_eval: BiasEval::ChainRule,
            influence: InfluenceConfig::default(),
            max_bins: 4,
            ground_truth_for_topk: true,
            rescore_top_with_so: false,
        }
    }
}

impl GopherConfig {
    /// The per-query half of this config as an [`ExplainRequest`] (the
    /// session-level half — `max_bins`, `influence` — belongs to
    /// [`SessionBuilder`]).
    pub fn to_request(&self) -> ExplainRequest {
        ExplainRequest {
            metric: self.metric,
            k: self.k,
            containment_threshold: self.containment_threshold,
            lattice: self.lattice.clone(),
            estimator: self.estimator,
            bias_eval: self.bias_eval,
            ground_truth_for_topk: self.ground_truth_for_topk,
            rescore_top_with_so: self.rescore_top_with_so,
        }
    }

    /// The session-level half of this config as a [`SessionBuilder`].
    pub fn to_session_builder(&self) -> SessionBuilder {
        SessionBuilder::new()
            .max_bins(self.max_bins)
            .influence(self.influence.clone())
    }
}

/// One explanation in the final report.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Human-readable pattern, e.g. `age >= 45 ∧ gender = Female`.
    pub pattern_text: String,
    /// The underlying scored candidate (coverage, support, scores).
    pub candidate: Candidate,
    /// `Sup(φ)` — fraction of training rows covered.
    pub support: f64,
    /// Estimated causal responsibility from the influence estimator.
    pub est_responsibility: f64,
    /// Ground-truth relative bias reduction from actually retraining
    /// without the subset: `(F_old − F_new)/F_old` (only when
    /// `ground_truth_for_topk` is set).
    pub ground_truth_responsibility: Option<f64>,
    /// Ground-truth bias after removal (hard metric).
    pub ground_truth_new_bias: Option<f64>,
}

/// The full explanation report.
#[derive(Debug, Clone)]
pub struct ExplanationReport {
    /// Metric the report is about.
    pub metric: FairnessMetric,
    /// Bias of the original model on the test set (hard metric).
    pub base_bias: f64,
    /// Test accuracy of the original model.
    pub accuracy: f64,
    /// Top-k explanations, most interesting first.
    pub explanations: Vec<Explanation>,
    /// Lattice search statistics (per-level counts and timings).
    pub stats: SearchStats,
    /// Wall-clock time of candidate generation + selection (excludes
    /// engine precomputation and ground-truth retraining). For a warm
    /// session reusing a cached sweep this reports the original sweep's
    /// cost plus the (tiny) selection time.
    pub search_time: Duration,
}

/// Label/group composition of a pattern's coverage vs. the rest of the
/// training data (see [`crate::ExplainSession::pattern_profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternProfile {
    /// Covered training rows.
    pub rows: usize,
    /// Favorable-label rate inside the pattern.
    pub positive_rate: f64,
    /// Privileged-group rate inside the pattern.
    pub privileged_rate: f64,
    /// Favorable-label rate outside the pattern.
    pub rest_positive_rate: f64,
    /// Privileged-group rate outside the pattern.
    pub rest_privileged_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExplainSession;
    use gopher_data::generators::german;
    use gopher_models::LogisticRegression;
    use gopher_prng::Rng;

    fn config() -> GopherConfig {
        GopherConfig {
            ground_truth_for_topk: true,
            ..Default::default()
        }
    }

    fn build(n: usize, seed: u64) -> ExplainSession<LogisticRegression> {
        let mut rng = Rng::new(seed);
        let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
        config()
            .to_session_builder()
            .fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
    }

    fn explain(session: &ExplainSession<LogisticRegression>) -> ExplanationReport {
        session.explain(&config().to_request()).report
    }

    #[test]
    fn end_to_end_finds_bias_reducing_patterns() {
        let session = build(900, 71);
        let report = explain(&session);
        assert!(report.base_bias > 0.0, "baseline bias {}", report.base_bias);
        assert!(!report.explanations.is_empty());
        assert!(report.explanations.len() <= 3);
        // The top explanation must genuinely reduce bias when removed.
        let top = &report.explanations[0];
        let gt = top
            .ground_truth_responsibility
            .expect("ground truth requested");
        assert!(gt > 0.0, "top pattern should reduce bias, got {gt}");
        // Interestingness ordering is non-increasing.
        for w in report.explanations.windows(2) {
            assert!(
                w[0].candidate.interestingness >= w[1].candidate.interestingness - 1e-12,
                "explanations out of order"
            );
        }
    }

    #[test]
    fn top_pattern_mentions_planted_root_cause() {
        let session = build(1200, 72);
        let report = explain(&session);
        // The generator plants age/gender subgroups as the dominant bias
        // source; at least one top pattern should reference one of them.
        let mentions_planted = report
            .explanations
            .iter()
            .any(|e| e.pattern_text.contains("age") || e.pattern_text.contains("gender"));
        let texts: Vec<&str> = report
            .explanations
            .iter()
            .map(|e| e.pattern_text.as_str())
            .collect();
        assert!(
            mentions_planted,
            "no planted feature in explanations: {texts:?}"
        );
    }

    #[test]
    fn explanations_respect_support_threshold() {
        let session = build(700, 73);
        let report = explain(&session);
        for e in &report.explanations {
            assert!(e.support >= config().lattice.support_threshold);
        }
    }

    #[test]
    fn explanations_are_diverse() {
        let session = build(700, 74);
        let report = explain(&session);
        let c = config().containment_threshold;
        for (i, a) in report.explanations.iter().enumerate() {
            for b in &report.explanations[..i] {
                let contain = gopher_patterns::topk::containment(&a.candidate, &b.candidate);
                assert!(contain < c, "containment {contain} >= threshold {c}");
            }
        }
    }

    #[test]
    fn pattern_profile_contrasts_coverage_with_rest() {
        let session = build(800, 76);
        let report = explain(&session);
        let top = &report.explanations[0];
        let profile = session.pattern_profile(&top.candidate);
        assert_eq!(profile.rows, top.candidate.coverage.count());
        for rate in [
            profile.positive_rate,
            profile.privileged_rate,
            profile.rest_positive_rate,
            profile.rest_privileged_rate,
        ] {
            assert!((0.0..=1.0).contains(&rate));
        }
        // Bias-responsible patterns on German skew toward the privileged
        // group and/or positive labels relative to the rest.
        assert!(
            profile.privileged_rate > profile.rest_privileged_rate
                || profile.positive_rate > profile.rest_positive_rate,
            "profile should show the skew that makes the pattern responsible: {profile:?}"
        );
    }

    #[test]
    fn stats_are_populated() {
        let session = build(600, 75);
        let report = explain(&session);
        assert!(!report.stats.levels.is_empty());
        assert!(report.stats.total_scored > 0);
        assert!(report.search_time.as_nanos() > 0);
    }
}
