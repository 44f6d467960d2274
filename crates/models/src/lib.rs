//! Twice-differentiable binary classifiers.
//!
//! The paper's machinery (influence functions, one-step gradient descent,
//! update-based explanations) needs, for a trained model with parameters θ:
//!
//! * the per-example data loss `L(z, θ)` and its gradient `∇θ L(z, θ)`;
//! * Hessian–vector products `∇²θ L(z, θ) · v` (analytic where cheap,
//!   finite-difference otherwise);
//! * the predicted probability `p(x; θ)` and its parameter gradient
//!   `∇θ p(x; θ)` (used by the smooth fairness metrics).
//!
//! Three models cover the paper's evaluation:
//! [`LogisticRegression`], [`LinearSvm`] (squared hinge — twice
//! differentiable almost everywhere, with a sigmoid probability surrogate),
//! and [`Mlp`] (one hidden layer of 10 tanh units, the paper's feed-forward
//! network).
//!
//! L2 regularization strength is carried *by the model* (`Model::l2`) so the
//! trainer and the influence engine can never disagree about the objective:
//!
//! `J(θ) = (1/n) Σᵢ L(zᵢ, θ) + (λ/2)‖θ‖²`.

#![forbid(unsafe_code)]

mod forest;
mod logistic;
mod mlp;
mod svm;
pub mod train;

pub use forest::{Forest, ForestConfig, RemovalIndex};
pub use logistic::LogisticRegression;
pub use mlp::Mlp;
pub use svm::LinearSvm;

use gopher_linalg::Matrix;

/// A binary classifier: the prediction-side contract every model family
/// satisfies, differentiable or not.
///
/// Models are `Send + Sync`: the parallel query engine shares one trained
/// model across scorer threads and clones it into ground-truth retraining
/// workers, so a model must be plain data (parameter vectors for the
/// analytic families, bagged trees for [`Forest`]).
///
/// Everything gradient-shaped lives on the [`Differentiable`] subtrait, so
/// non-analytic families (tree ensembles) type-check against
/// prediction-level code and fail to *compile* — rather than panic — when
/// handed to Hessian-based machinery.
pub trait Model: Clone + Send + Sync {
    /// Number of input features (length of the `x` slices).
    fn n_inputs(&self) -> usize;

    /// Predicted probability of the favorable class, `p(x; θ) ∈ (0, 1)`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard prediction with the conventional 0.5 threshold.
    fn predict(&self, x: &[f64]) -> f64 {
        if self.predict_proba(x) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }
}

/// A [`Model`] with a twice-differentiable per-example loss over an explicit
/// parameter vector θ — the contract the Hessian-based influence engine and
/// the gradient trainers require.
///
/// All gradient-like methods *accumulate* into their output buffer so callers
/// can sum over examples without intermediate allocations. Implementations
/// must keep `params`, `n_params` and `n_inputs` mutually consistent.
pub trait Differentiable: Model {
    /// Number of parameters (length of [`params`](Self::params)).
    fn n_params(&self) -> usize;

    /// Current parameter vector θ.
    fn params(&self) -> &[f64];

    /// Mutable parameter vector.
    fn params_mut(&mut self) -> &mut [f64];

    /// L2 regularization strength λ of the training objective.
    fn l2(&self) -> f64;

    /// Per-example data loss `L(z, θ)` (no regularization term).
    fn loss(&self, x: &[f64], y: f64) -> f64;

    /// Accumulates `∇θ L(z, θ)` into `out` (`out += grad`).
    fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]);

    /// Accumulates `∇θ L(z, θ)` into `out` and returns `L(z, θ)` from the
    /// same pass. The default evaluates gradient and loss separately;
    /// models whose gradient and loss share a decision value should
    /// override to compute it once. Implementations must return exactly
    /// [`loss`](Self::loss) — callers rely on the fused pass being
    /// bit-identical to the two-pass form.
    fn accumulate_grad_and_loss(&self, x: &[f64], y: f64, out: &mut [f64]) -> f64 {
        self.accumulate_grad(x, y, out);
        self.loss(x, y)
    }

    /// Accumulates `∇θ p(x; θ)` into `out`.
    fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]);

    /// Whether [`accumulate_hessian`](Self::accumulate_hessian) and
    /// [`accumulate_hessian_vec`](Self::accumulate_hessian_vec) are analytic
    /// (exact). When false, the finite-difference defaults are used.
    fn has_analytic_hessian(&self) -> bool {
        false
    }

    /// Accumulates the per-example Hessian–vector product
    /// `∇²θ L(z, θ) · v` into `out`.
    ///
    /// Default: central finite difference of the analytic gradient along `v`
    /// (two gradient evaluations; error O(ε²)).
    fn accumulate_hessian_vec(&self, x: &[f64], y: f64, v: &[f64], out: &mut [f64]) {
        finite_diff_hvp(self, x, y, v, out);
    }

    /// Accumulates the per-example Hessian `∇²θ L(z, θ)` into `out`.
    ///
    /// Default: `n_params` Hessian–vector products against basis vectors.
    /// Models with structured Hessians (rank-1 for GLMs) should override.
    fn accumulate_hessian(&self, x: &[f64], y: f64, out: &mut Matrix) {
        let p = self.n_params();
        debug_assert_eq!(out.rows(), p);
        debug_assert_eq!(out.cols(), p);
        let mut basis = vec![0.0; p];
        let mut col = vec![0.0; p];
        for j in 0..p {
            basis[j] = 1.0;
            col.iter_mut().for_each(|c| *c = 0.0);
            self.accumulate_hessian_vec(x, y, &basis, &mut col);
            for (i, &ci) in col.iter().enumerate() {
                out[(i, j)] += ci;
            }
            basis[j] = 0.0;
        }
    }

    /// Exposes the rank-1 structure of the per-example Hessian, when the
    /// model has one: writes the augmented feature vector `x̃` (length
    /// `n_params`) into `aug` and returns the weight `w` such that
    /// `∇²θ L(z, θ) = w · x̃ x̃ᵀ`. Returns `None` for models without that
    /// structure (the finite-difference / full-assembly paths apply); a
    /// returned weight may be `0.0` (e.g. a non-support vector), in which
    /// case the contribution is the zero matrix and `aug` may be ignored.
    ///
    /// This is what lets the influence engine patch its Hessian factor with
    /// rank-1 Cholesky updates and Woodbury solves instead of refactoring.
    fn hessian_rank_one(&self, x: &[f64], y: f64, aug: &mut [f64]) -> Option<f64> {
        let _ = (x, y, aug);
        None
    }

    /// Accumulates `scale · x̃` into `out`, where `x̃` is the augmented
    /// feature vector [`hessian_rank_one`](Self::hessian_rank_one) writes
    /// for the same example. Only meaningful when that method returns
    /// `Some`.
    ///
    /// Default: calls `hessian_rank_one` into a scratch buffer. Models whose
    /// `x̃` is cheaper than the weight (the GLMs' `x̃ = [x, 1]`, where the
    /// weight costs an `exp`) should override; influence scoring sums `x̃`
    /// over every row of every candidate subset.
    fn accumulate_rank_one_vector(&self, x: &[f64], y: f64, scale: f64, out: &mut [f64]) {
        let mut aug = vec![0.0; self.n_params()];
        if self.hessian_rank_one(x, y, &mut aug).is_some() {
            gopher_linalg::vecops::axpy(scale, &aug, out);
        }
    }
}

/// Relative step used by the finite-difference Hessian–vector product.
const FD_EPS: f64 = 1e-5;

/// Central-difference Hessian–vector product shared by the trait default.
fn finite_diff_hvp<M: Differentiable>(model: &M, x: &[f64], y: f64, v: &[f64], out: &mut [f64]) {
    let p = model.n_params();
    debug_assert_eq!(v.len(), p);
    debug_assert_eq!(out.len(), p);
    let vnorm = gopher_linalg::vecops::norm_inf(v);
    if vnorm == 0.0 {
        return;
    }
    // Scale the step to the direction's magnitude for stable differencing.
    let eps = FD_EPS / vnorm.max(1e-12);
    let mut plus = model.clone();
    for (t, vi) in plus.params_mut().iter_mut().zip(v) {
        *t += eps * vi;
    }
    let mut minus = model.clone();
    for (t, vi) in minus.params_mut().iter_mut().zip(v) {
        *t -= eps * vi;
    }
    let mut gp = vec![0.0; p];
    let mut gm = vec![0.0; p];
    plus.accumulate_grad(x, y, &mut gp);
    minus.accumulate_grad(x, y, &mut gm);
    let scale = 1.0 / (2.0 * eps);
    for ((o, a), b) in out.iter_mut().zip(&gp).zip(&gm) {
        *o += (a - b) * scale;
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `ln(σ(z))`.
#[inline]
pub fn log_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        -(-z).exp().ln_1p()
    } else {
        z - z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-300);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn log_sigmoid_matches_ln_of_sigmoid() {
        for &z in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((log_sigmoid(z) - sigmoid(z).ln()).abs() < 1e-12, "z={z}");
        }
        // And stays finite where naive ln(sigmoid) underflows.
        assert!(log_sigmoid(-800.0).is_finite());
        assert!((log_sigmoid(-800.0) + 800.0).abs() < 1e-9);
    }
}
