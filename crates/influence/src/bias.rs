//! Bias-change estimation: from parameter changes to fairness-metric changes.

use crate::engine::{Estimator, InfluenceEngine};
use gopher_data::Encoded;
use gopher_fairness::FairnessMetric;
use gopher_linalg::vecops;
use gopher_models::Differentiable;
use std::sync::OnceLock;

/// How to turn an estimated parameter change into an estimated bias change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasEval {
    /// Linearize: `ΔF = ∇θF(θ*)ᵀ Δθ` (paper Eq. 11).
    ChainRule,
    /// Re-evaluate the smooth metric at `θ* + Δθ`.
    ReEvalSmooth,
    /// Re-evaluate the hard (thresholded) metric at `θ* + Δθ`.
    ReEvalHard,
}

/// The metric-specific state [`BiasInfluence`] precomputes: the smooth bias
/// gradient and the baseline biases.
///
/// Computing this is the only per-metric cost of building a query object, so
/// a session serving many queries against one engine caches one
/// `BiasPrecomp` per metric and rebuilds [`BiasInfluence`] handles for free
/// via [`BiasInfluence::from_precomp`].
#[derive(Debug, Clone)]
pub struct BiasPrecomp {
    /// `∇θ F(θ*, D_test)` of the smooth metric.
    pub grad_f: Vec<f64>,
    /// Baseline hard bias `F(θ*, D_test)`.
    pub base_hard: f64,
    /// Baseline smooth bias.
    pub base_smooth: f64,
}

impl BiasPrecomp {
    /// Computes the gradient and baselines for one metric/model/test-set
    /// triple.
    pub fn compute<M: Differentiable>(metric: FairnessMetric, model: &M, test: &Encoded) -> Self {
        Self {
            grad_f: gopher_fairness::bias_gradient(metric, model, test),
            base_hard: gopher_fairness::bias(metric, model, test),
            base_smooth: gopher_fairness::smooth_bias(metric, model, test),
        }
    }
}

/// Influence queries specialized to one fairness metric and test set.
///
/// Precomputes the bias gradient `∇θF(θ*, D_test)` and the baseline bias.
/// The re-evaluation modes, and the chain rule under
/// [`Estimator::NewtonStep`], cost one
/// [`param_change`](InfluenceEngine::param_change) per query plus a metric
/// evaluation or a dot product.
///
/// # Projected chain rule
///
/// Every other estimator is linear in the subset's gradient sum, so under
/// [`BiasEval::ChainRule`] `∇F` is pushed through `H⁻¹` once instead of
/// solving for a full `Δθ` per query (Koh & Liang's `s_test`, applied to
/// group influence). On the first such query the handle computes
/// `a = H⁻¹∇F` (one Cholesky solve) and three per-row scalars, each
/// `O(n p)`: `φ_r = a·g_r`, `ψ_r = ∇F·g_r` and `γ_r = w_r (x̃_r·a)`, where
/// `∇²L_r = w_r x̃_r x̃_rᵀ` is the rank-one Hessian of
/// [`Differentiable::hessian_rank_one`]. A subset `S` of `m` rows (with
/// `λ' = λ + damping`) then scores as
///
/// * first order: `ΔF = Σ_S φ_r / n` — `m` scalar adds;
/// * one-step GD: `ΔF = −η(∇F·ḡ − Σ_S ψ_r / n)`, with `ḡ` the engine's
///   cached mean gradient — `m` scalar adds;
/// * second order: `ΔF = (Σ_S φ_r + mλ' a·θ*)/n + (b_S·d₁)/n + (m/n)λ'(a·d₁)`,
///   with `b_S = Σ_S γ_r x̃_r` and `g_S` from one fused pass over the rows
///   and `d₁ = H⁻¹g̃_S / n` from one solve — `O(m p + p²)`, and no model
///   evaluation per row.
///
/// These equal `bias_change_from_delta(&param_change(..), ChainRule)` up to
/// rounding (the summation order differs; pinned to 1e-12 by the oracle
/// tests). An empty subset scores 0, as `param_change` does. Families
/// without a rank-one Hessian (the MLP) answer second order through
/// `param_change`.
pub struct BiasInfluence<'a, M: Differentiable> {
    engine: &'a InfluenceEngine<M>,
    metric: FairnessMetric,
    test: &'a Encoded,
    grad_f: Vec<f64>,
    base_hard: f64,
    base_smooth: f64,
    /// Built on the first projected chain-rule query.
    projection: OnceLock<Projection>,
}

/// The per-handle state of the projected chain rule (see [`BiasInfluence`]).
struct Projection {
    /// `a = H⁻¹∇F`.
    a: Vec<f64>,
    /// `a·θ*`.
    a_theta: f64,
    /// `∇F·ḡ`.
    grad_f_mean: f64,
    /// `φ_r = a·g_r` per training row.
    phi: Vec<f64>,
    /// `ψ_r = ∇F·g_r` per training row.
    psi: Vec<f64>,
    /// `γ_r = w_r (x̃_r·a)` per training row; `None` when the family has no
    /// rank-one Hessian.
    gamma: Option<Vec<f64>>,
}

impl Projection {
    fn new<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        grad_f: &[f64],
    ) -> Self {
        let model = engine.model();
        let n = engine.n_train();
        let a = engine.factor().solve(grad_f);
        let phi = (0..n)
            .map(|r| vecops::dot(&a, engine.row_gradient(r)))
            .collect();
        let psi = (0..n)
            .map(|r| vecops::dot(grad_f, engine.row_gradient(r)))
            .collect();
        let mut aug = vec![0.0; a.len()];
        let gamma = (0..n)
            .map(|r| {
                let w = model.hessian_rank_one(train.x.row(r), train.y[r], &mut aug)?;
                Some(if w == 0.0 {
                    0.0
                } else {
                    w * vecops::dot(&aug, &a)
                })
            })
            .collect();
        Self {
            a_theta: vecops::dot(&a, model.params()),
            grad_f_mean: vecops::dot(grad_f, engine.mean_gradient()),
            a,
            phi,
            psi,
            gamma,
        }
    }

    /// `ΔF` of removing `rows`, or `None` when `estimator` is not projected
    /// for this family.
    fn bias_change<M: Differentiable>(
        &self,
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
    ) -> Option<f64> {
        let n = engine.n_train() as f64;
        let sum = |v: &[f64]| rows.iter().map(|&r| v[r as usize]).sum::<f64>();
        match (estimator, self.gamma.as_deref()) {
            (Estimator::NewtonStep, _) | (Estimator::SecondOrder, None) => None,
            _ if rows.is_empty() => Some(0.0),
            (Estimator::FirstOrder, _) => Some(sum(&self.phi) / n),
            (Estimator::OneStepGd { learning_rate }, _) => {
                Some(-learning_rate * (self.grad_f_mean - sum(&self.psi) / n))
            }
            (Estimator::SecondOrder, Some(gamma)) => {
                let model = engine.model();
                let p = self.a.len();
                let m = rows.len() as f64;
                let l2 = model.l2() + engine.damping_used();
                // One fused pass: g_S, b_S and Σφ.
                let mut g = vec![0.0; p];
                let mut b = vec![0.0; p];
                let mut phi_sum = 0.0;
                for &r in rows {
                    let r = r as usize;
                    vecops::axpy(1.0, engine.row_gradient(r), &mut g);
                    phi_sum += self.phi[r];
                    if gamma[r] != 0.0 {
                        model.accumulate_rank_one_vector(
                            train.x.row(r),
                            train.y[r],
                            gamma[r],
                            &mut b,
                        );
                    }
                }
                // d₁ = H⁻¹ g̃_S / n, with g̃_S = g_S + mλ'θ*.
                vecops::axpy(m * l2, model.params(), &mut g);
                let mut d1 = engine.factor().solve(&g);
                vecops::scale(1.0 / n, &mut d1);
                Some(
                    (phi_sum + m * l2 * self.a_theta) / n
                        + vecops::dot(&b, &d1) / n
                        + m / n * l2 * vecops::dot(&self.a, &d1),
                )
            }
        }
    }
}

impl<'a, M: Differentiable> BiasInfluence<'a, M> {
    /// Builds the query object, computing the precomputation inline.
    pub fn new(engine: &'a InfluenceEngine<M>, metric: FairnessMetric, test: &'a Encoded) -> Self {
        let precomp = BiasPrecomp::compute(metric, engine.model(), test);
        Self::from_precomp(engine, metric, test, precomp)
    }

    /// Builds the query object around an already-computed [`BiasPrecomp`],
    /// reusing one engine handle across many `BiasInfluence` instances
    /// without re-deriving the metric gradient. The caller is responsible
    /// for the precomp matching `(metric, engine.model(), test)`.
    pub fn from_precomp(
        engine: &'a InfluenceEngine<M>,
        metric: FairnessMetric,
        test: &'a Encoded,
        precomp: BiasPrecomp,
    ) -> Self {
        Self {
            engine,
            metric,
            test,
            grad_f: precomp.grad_f,
            base_hard: precomp.base_hard,
            base_smooth: precomp.base_smooth,
            projection: OnceLock::new(),
        }
    }

    /// The metric being tracked.
    pub fn metric(&self) -> FairnessMetric {
        self.metric
    }

    /// Baseline hard bias `F(θ*, D_test)`.
    pub fn base_bias(&self) -> f64 {
        self.base_hard
    }

    /// Baseline smooth bias.
    pub fn base_smooth_bias(&self) -> f64 {
        self.base_smooth
    }

    /// The precomputed `∇θ F(θ*, D_test)`.
    pub fn bias_grad(&self) -> &[f64] {
        &self.grad_f
    }

    /// Estimated bias change `ΔF ≈ F(θ̄_S) − F(θ*)` if the given training
    /// rows were removed. `train` must be the engine's training set.
    ///
    /// Chain-rule queries take the projected path described on
    /// [`BiasInfluence`] where the estimator allows it; everything else goes
    /// through [`InfluenceEngine::param_change`].
    pub fn bias_change(
        &self,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
        eval: BiasEval,
    ) -> f64 {
        if eval == BiasEval::ChainRule && estimator != Estimator::NewtonStep {
            let projection = self
                .projection
                .get_or_init(|| Projection::new(self.engine, train, &self.grad_f));
            if let Some(delta_f) = projection.bias_change(self.engine, train, rows, estimator) {
                return delta_f;
            }
        }
        let delta = self.engine.param_change(train, rows, estimator);
        self.bias_change_from_delta(&delta, eval)
    }

    /// Bias change for an already-computed parameter change.
    pub fn bias_change_from_delta(&self, delta: &[f64], eval: BiasEval) -> f64 {
        match eval {
            BiasEval::ChainRule => vecops::dot(&self.grad_f, delta),
            BiasEval::ReEvalSmooth => {
                let shifted = self.shifted_model(delta);
                gopher_fairness::smooth_bias(self.metric, &shifted, self.test) - self.base_smooth
            }
            BiasEval::ReEvalHard => {
                let shifted = self.shifted_model(delta);
                gopher_fairness::bias(self.metric, &shifted, self.test) - self.base_hard
            }
        }
    }

    /// Causal responsibility `R_F(S) = (F(θ*) − F(θ̄_S)) / F(θ*)`
    /// (paper Definition 3.2), using the estimated bias change.
    ///
    /// Positive values mean removing `S` reduces bias. Returns 0 when the
    /// baseline bias is (numerically) zero — an unbiased model has no root
    /// causes to attribute.
    pub fn responsibility(
        &self,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
        eval: BiasEval,
    ) -> f64 {
        if self.base_hard.abs() < 1e-12 {
            return 0.0;
        }
        let delta_f = self.bias_change(train, rows, estimator, eval);
        -delta_f / self.base_hard
    }

    fn shifted_model(&self, delta: &[f64]) -> M {
        let mut shifted = self.engine.model().clone();
        for (t, d) in shifted.params_mut().iter_mut().zip(delta) {
            *t += d;
        }
        shifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InfluenceConfig;
    use crate::retrain::retrain_without;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, NewtonConfig};
    use gopher_models::LogisticRegression;

    fn setup() -> (InfluenceEngine<LogisticRegression>, Encoded, Encoded) {
        let raw = german(900, 31);
        let mut rng = gopher_prng_rng();
        let (train_raw, test_raw) = raw.train_test_split(0.3, &mut rng);
        let enc = Encoder::fit(&train_raw);
        let train = enc.transform(&train_raw);
        let test = enc.transform(&test_raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &train, InfluenceConfig::default());
        (engine, train, test)
    }

    fn gopher_prng_rng() -> gopher_prng::Rng {
        gopher_prng::Rng::new(77)
    }

    #[test]
    fn chain_rule_tracks_ground_truth_bias_change() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        assert!(bi.base_bias() > 0.0, "baseline bias {}", bi.base_bias());

        // Remove the privileged-and-positive rows most responsible for bias:
        // pick a 5% block of privileged positive examples.
        let rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(train.n_rows() / 20)
            .collect();
        assert!(!rows.is_empty());

        let outcome = retrain_without(engine.model(), &train, &rows);
        let true_change =
            gopher_fairness::smooth_bias(FairnessMetric::StatisticalParity, &outcome.model, &test)
                - bi.base_smooth_bias();

        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
        ] {
            let est_change = bi.bias_change(&train, &rows, est, BiasEval::ChainRule);
            assert_eq!(
                est_change.signum(),
                true_change.signum(),
                "{}: estimated {est_change} vs true {true_change}",
                est.label()
            );
            assert!(
                (est_change - true_change).abs() < 0.6 * true_change.abs() + 0.01,
                "{}: estimated {est_change} vs true {true_change}",
                est.label()
            );
        }
    }

    #[test]
    fn reeval_smooth_is_at_least_as_accurate_as_chain_rule_for_newton() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        let rows: Vec<u32> = (0..(train.n_rows() / 5) as u32).collect(); // 20%
        let outcome = retrain_without(engine.model(), &train, &rows);
        let true_change =
            gopher_fairness::smooth_bias(FairnessMetric::StatisticalParity, &outcome.model, &test)
                - bi.base_smooth_bias();
        let delta = engine.param_change(&train, &rows, Estimator::NewtonStep);
        let chain = bi.bias_change_from_delta(&delta, BiasEval::ChainRule);
        let reeval = bi.bias_change_from_delta(&delta, BiasEval::ReEvalSmooth);
        let chain_err = (chain - true_change).abs();
        let reeval_err = (reeval - true_change).abs();
        assert!(
            reeval_err <= chain_err + 1e-3,
            "re-eval err {reeval_err} vs chain err {chain_err}"
        );
    }

    #[test]
    fn responsibility_sign_convention() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        // Privileged positives push bias up; removing them should have
        // positive responsibility.
        let up_rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(30)
            .collect();
        let r = bi.responsibility(
            &train,
            &up_rows,
            Estimator::SecondOrder,
            BiasEval::ChainRule,
        );
        assert!(r > 0.0, "responsibility of bias-increasing rows {r}");
        // Protected positives pull bias down; removing them should backfire.
        let down_rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| !train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(30)
            .collect();
        let r2 = bi.responsibility(
            &train,
            &down_rows,
            Estimator::SecondOrder,
            BiasEval::ChainRule,
        );
        assert!(r2 < 0.0, "responsibility of bias-reducing rows {r2}");
    }

    #[test]
    fn zero_baseline_bias_yields_zero_responsibility() {
        let (engine, train, test) = setup();
        // Degenerate test set: the same point once per group, so every rate
        // is identical and the hard bias is exactly 0.
        let mut degenerate = test.select_rows(&[0, 0]);
        degenerate.privileged[0] = true;
        degenerate.privileged[1] = false;
        degenerate.y[0] = 1.0;
        degenerate.y[1] = 1.0;
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &degenerate);
        assert_eq!(bi.base_bias(), 0.0);
        let rows: Vec<u32> = (0..10).collect();
        assert_eq!(
            bi.responsibility(&train, &rows, Estimator::FirstOrder, BiasEval::ChainRule),
            0.0
        );
    }
}
