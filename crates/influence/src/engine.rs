//! The influence engine: precomputation and parameter-change estimators.

use gopher_data::Encoded;
use gopher_linalg::{conjugate_gradient, vecops, Cholesky, Matrix};
use gopher_models::train::{fit_default, full_gradient, objective, NewtonConfig, TrainReport};
use gopher_models::Differentiable;

/// Relative parameter drift (since the last full Hessian assembly) beyond
/// which an incremental update gives up and rebuilds the engine from scratch.
/// The stored Hessian is evaluated at the parameters of the last full
/// assembly; each warm retrain moves θ a little, and once the accumulated
/// move exceeds this bound the curvature is considered stale. Estimator
/// error scales with the drift, so 1% staleness is well below the
/// approximation error of the influence estimators themselves.
const UPDATE_DRIFT_TOL: f64 = 1e-2;

/// Relative residual allowed between the patched Cholesky factor and the
/// incrementally assembled Hessian before falling back to refactorization.
const FACTOR_RESIDUAL_TOL: f64 = 1e-5;

/// Quasi-Newton iterations allowed for the warm retrain inside
/// [`InfluenceEngine::update`] before handing over to the full trainer.
const WARM_RETRAIN_MAX_ITER: usize = 12;

/// Which approximation of the retraining effect to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Sum of single-point influence functions (paper §4.1.1, first order).
    FirstOrder,
    /// Second-order group influence (paper Eq. 10 / Basu et al. 2020).
    SecondOrder,
    /// Matrix-free Newton step on the reduced objective (our extension).
    NewtonStep,
    /// One explicit gradient-descent step (paper Eq. 13) with this learning
    /// rate.
    OneStepGd {
        /// Learning rate η of the single step.
        learning_rate: f64,
    },
}

impl Estimator {
    /// Wire name, as the CLI's `--estimator` flag and the serve API's
    /// `"estimator"` field spell it.
    pub fn name(&self) -> &'static str {
        match self {
            Self::FirstOrder => "first-order",
            Self::SecondOrder => "second-order",
            Self::NewtonStep => "newton",
            Self::OneStepGd { .. } => "one-step-gd",
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::FirstOrder => "first-order IF",
            Self::SecondOrder => "second-order IF",
            Self::NewtonStep => "newton step",
            Self::OneStepGd { .. } => "one-step GD",
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct InfluenceConfig {
    /// Extra damping added to the Hessian before factorization (beyond the
    /// model's own λ). Escalated automatically if factorization fails, which
    /// happens for the non-convex MLP.
    pub damping: f64,
    /// Relative step for finite-difference Hessian assembly (models without
    /// analytic Hessians).
    pub fd_eps: f64,
    /// CG tolerance and iteration cap for [`Estimator::NewtonStep`].
    pub cg_tol: f64,
    /// Maximum CG iterations.
    pub cg_max_iter: usize,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        Self {
            damping: 1e-6,
            fd_eps: 1e-5,
            cg_tol: 1e-10,
            cg_max_iter: 500,
        }
    }
}

/// What [`InfluenceEngine::update`] did to absorb a training-set delta.
#[derive(Debug, Clone)]
pub struct EngineUpdateReport {
    /// The patched factor failed its residual probe (or a rank-1 downdate
    /// lost positive-definiteness) and the Hessian was refactored from the
    /// incrementally assembled matrix.
    pub refactored: bool,
    /// The whole engine was rebuilt from scratch (non-analytic model, warm
    /// retrain stall, or accumulated parameter drift beyond tolerance).
    pub full_rebuild: bool,
    /// Diagnostics of the warm retrain on the post-delta training set.
    pub retrain: TrainReport,
}

impl EngineUpdateReport {
    /// Whether either fallback (refactorization or full rebuild) fired.
    pub fn fell_back(&self) -> bool {
        self.refactored || self.full_rebuild
    }
}

/// Precomputed state for influence queries against one trained model.
///
/// Construction costs one pass to collect per-example gradients (`n × p`)
/// plus the Hessian assembly (`O(n p²)` for analytic models, `2p` full-data
/// gradient passes otherwise — this mirrors the paper's "pre-compute the
/// gradients and Hessian at start-up"). Each subsequent query is `O(m p)`
/// for the subset gradient plus `O(p²)` per solve.
pub struct InfluenceEngine<M: Differentiable> {
    model: M,
    /// Per-example data-term gradients at θ*, one row per training example.
    grads: Matrix,
    /// Mean data gradient `ḡ = (1/n) Σ ∇L(zᵢ, θ*)`, kept in step with
    /// `grads`.
    mean_grad: Vec<f64>,
    /// Damped full Hessian `H = (1/n) Σ ∇²L + λI + damping·I`.
    hessian: Matrix,
    chol: Cholesky,
    /// Damping actually applied (config damping, possibly escalated).
    damping_used: f64,
    config: InfluenceConfig,
    n: usize,
    /// Parameters at which the Hessian was last assembled in full; the drift
    /// bound in [`update`](Self::update) is measured against this point.
    hessian_theta: Vec<f64>,
}

impl<M: Differentiable> InfluenceEngine<M> {
    /// Precomputes gradients and the factored Hessian at the model's current
    /// parameters (assumed trained to a stationary point).
    ///
    /// # Panics
    /// If the training set is empty or the Hessian cannot be made positive
    /// definite even with escalated damping.
    pub fn new(model: M, train: &Encoded, config: InfluenceConfig) -> Self {
        let n = train.n_rows();
        assert!(n > 0, "influence engine needs a non-empty training set");
        let p = model.n_params();

        // Per-example gradients.
        let mut grads = Matrix::zeros(n, p);
        for r in 0..n {
            model.accumulate_grad(train.x.row(r), train.y[r], grads.row_mut(r));
        }

        // Hessian assembly.
        let mut hessian = Matrix::zeros(p, p);
        if model.has_analytic_hessian() {
            for r in 0..n {
                model.accumulate_hessian(train.x.row(r), train.y[r], &mut hessian);
            }
            hessian.scale(1.0 / n as f64);
        } else {
            // Column-wise central differences of the mean data gradient:
            // H[:, j] ≈ (ḡ(θ + εeⱼ) − ḡ(θ − εeⱼ)) / 2ε.
            let eps = config.fd_eps;
            let mut gp = vec![0.0; p];
            let mut gm = vec![0.0; p];
            for j in 0..p {
                let mut plus = model.clone();
                plus.params_mut()[j] += eps;
                let mut minus = model.clone();
                minus.params_mut()[j] -= eps;
                gp.iter_mut().for_each(|v| *v = 0.0);
                gm.iter_mut().for_each(|v| *v = 0.0);
                for r in 0..n {
                    plus.accumulate_grad(train.x.row(r), train.y[r], &mut gp);
                    minus.accumulate_grad(train.x.row(r), train.y[r], &mut gm);
                }
                let scale = 1.0 / (2.0 * eps * n as f64);
                for i in 0..p {
                    hessian[(i, j)] = (gp[i] - gm[i]) * scale;
                }
            }
            hessian.symmetrize();
        }
        hessian.add_diagonal(model.l2());

        let (chol, damping_used) = Cholesky::factor_damped(&hessian, config.damping, 24)
            .expect("Hessian must factor after damping escalation");
        // Keep the damped Hessian so all estimators see the same operator.
        hessian.add_diagonal(damping_used);

        let hessian_theta = model.params().to_vec();
        let mean_grad = mean_rows(&grads);
        Self {
            model,
            grads,
            mean_grad,
            hessian,
            chol,
            damping_used,
            config,
            n,
            hessian_theta,
        }
    }

    /// Absorbs a training-set delta without rebuilding from scratch.
    ///
    /// `new_train` is the post-delta training set; `removed` and `added` are
    /// the encoded `(x, y)` rows that left and entered it. The engine
    /// 1. patches its damped mean Hessian exactly at the current parameters
    ///    (`S_new = S_old − Σ h_removed + Σ h_added`, `O(|Δ| p²)`),
    /// 2. patches the Cholesky factor with one rank-1 update/downdate per
    ///    delta row (via [`Differentiable::hessian_rank_one`]) and verifies
    ///    it against the patched Hessian with a residual probe,
    /// 3. warm-retrains by quasi-Newton steps through the patched factor
    ///    until the true gradient norm on `new_train` meets the Newton
    ///    trainer's tolerance, and
    /// 4. recomputes all per-row gradients at the new optimum (`O(n p)`).
    ///
    /// Fallbacks: a failed downdate or probe refactors from the patched
    /// Hessian (`refactored`, `O(p³)`); a retrain stall, a non-analytic
    /// model, or accumulated parameter drift beyond `1e-3` relative rebuilds
    /// the engine in full (`full_rebuild`, `O(n p²)`). Either way the engine
    /// ends consistent with `new_train`.
    ///
    /// # Panics
    /// If `new_train` is empty or the refactorization cannot be made
    /// positive definite even with escalated damping.
    pub fn update(
        &mut self,
        new_train: &Encoded,
        removed: &[(&[f64], f64)],
        added: &[(&[f64], f64)],
    ) -> EngineUpdateReport {
        let n_new = new_train.n_rows();
        assert!(n_new > 0, "influence engine needs a non-empty training set");
        if !self.model.has_analytic_hessian() {
            // No per-row Hessian structure to patch: retrain and rebuild.
            let retrain = self.rebuild_from_scratch(new_train);
            return EngineUpdateReport {
                refactored: false,
                full_rebuild: true,
                retrain,
            };
        }
        let p = self.n_params();
        let n_old = self.n as f64;
        let c = self.model.l2() + self.damping_used;

        // Exact incremental Hessian at the engine's current parameters:
        // recover the raw per-row sum S from the stored damped mean, patch
        // it with the delta rows only, and re-normalize.
        let mut hessian_new = self.hessian.clone();
        hessian_new.add_diagonal(-c);
        hessian_new.scale(n_old);
        let mut delta = Matrix::zeros(p, p);
        for &(x, y) in added {
            self.model.accumulate_hessian(x, y, &mut delta);
        }
        hessian_new.add_scaled(1.0, &delta);
        let mut removed_sum = Matrix::zeros(p, p);
        for &(x, y) in removed {
            self.model.accumulate_hessian(x, y, &mut removed_sum);
        }
        hessian_new.add_scaled(-1.0, &removed_sum);
        hessian_new.scale(1.0 / n_new as f64);
        hessian_new.add_diagonal(c);

        // Patch the factor: rescale the data term to the new row count, then
        // one rank-1 update (added) or downdate (removed) per delta row.
        let mut chol = self.chol.clone();
        chol.scale(n_old / n_new as f64);
        let mut aug = vec![0.0; p];
        let mut patched = true;
        'patch: {
            for &(x, y) in added {
                match self.model.hessian_rank_one(x, y, &mut aug) {
                    Some(w) if w > 0.0 => {
                        let s = (w / n_new as f64).sqrt();
                        let v: Vec<f64> = aug.iter().map(|a| a * s).collect();
                        chol.rank_one_update(&v);
                    }
                    Some(_) => {}
                    None => {
                        patched = false;
                        break 'patch;
                    }
                }
            }
            for &(x, y) in removed {
                match self.model.hessian_rank_one(x, y, &mut aug) {
                    Some(w) if w > 0.0 => {
                        let s = (w / n_new as f64).sqrt();
                        let v: Vec<f64> = aug.iter().map(|a| a * s).collect();
                        if chol.rank_one_downdate(&v).is_err() {
                            // Factor is poisoned; discard it below.
                            patched = false;
                            break 'patch;
                        }
                    }
                    Some(_) => {}
                    None => {
                        patched = false;
                        break 'patch;
                    }
                }
            }
        }

        // Residual probe: the patched factor must reproduce the patched
        // Hessian (solve(H v) ≈ v). Catches downdate roundoff as well as the
        // deliberate diagonal discrepancy when |Δ| changes the row count.
        let verified = patched && {
            let probe: Vec<f64> = (0..p).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let hv = hessian_new.matvec(&probe);
            let back = chol.solve(&hv);
            let mut err = 0.0;
            let mut nrm = 0.0;
            for (b, v) in back.iter().zip(&probe) {
                err += (b - v) * (b - v);
                nrm += v * v;
            }
            let rel = (err / nrm).sqrt();
            rel.is_finite() && rel <= FACTOR_RESIDUAL_TOL
        };
        let refactored = !verified;
        if refactored {
            let (fresh, extra) = Cholesky::factor_damped(&hessian_new, 0.0, 24)
                .expect("patched Hessian must factor after damping escalation");
            chol = fresh;
            if extra > 0.0 {
                hessian_new.add_diagonal(extra);
                self.damping_used += extra;
            }
        }

        // Warm quasi-Newton retrain: steps through the (fixed) patched
        // factor, judged on the true gradient of the post-delta objective.
        let cfg = NewtonConfig::default();
        let mut model = self.model.clone();
        let mut grad = vec![0.0; p];
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..WARM_RETRAIN_MAX_ITER {
            full_gradient(&model, new_train, &mut grad);
            iterations = iter;
            if vecops::norm2(&grad) < cfg.grad_tol {
                converged = true;
                break;
            }
            let step = chol.solve(&grad);
            for (t, s) in model.params_mut().iter_mut().zip(&step) {
                *t -= s;
            }
        }
        if !converged {
            // The loop takes its last step without re-testing; check it.
            full_gradient(&model, new_train, &mut grad);
            converged = vecops::norm2(&grad) < cfg.grad_tol;
        }
        if !converged {
            // Stalled (e.g. an SVM support boundary crossing): hand over to
            // the line-searched trainer and rebuild everything at its answer.
            let retrain = self.rebuild_from_scratch(new_train);
            return EngineUpdateReport {
                refactored,
                full_rebuild: true,
                retrain,
            };
        }

        // Drift bound: the Hessian is still evaluated at the parameters of
        // the last full assembly. Once θ has wandered too far from there,
        // rebuild curvature in full at the converged parameters. θ itself is
        // exact either way (the retrain converged on the true gradient);
        // only estimator curvature is at stake.
        let drift_sq: f64 = model
            .params()
            .iter()
            .zip(&self.hessian_theta)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let drift = drift_sq.sqrt() / (1.0 + vecops::norm2(model.params()));
        if drift > UPDATE_DRIFT_TOL {
            let retrain = TrainReport {
                iterations,
                final_loss: objective(&model, new_train),
                grad_norm: vecops::norm2(&grad),
                converged: true,
            };
            *self = Self::new(model, new_train, self.config.clone());
            return EngineUpdateReport {
                refactored,
                full_rebuild: true,
                retrain,
            };
        }

        // Commit: per-row gradients are always recomputed in full at the new
        // optimum (exact, O(n p)); Hessian and factor keep their patched
        // forms.
        // Reuse the existing gradient storage when the row count is
        // unchanged (the common balanced-delta case): a fresh `zeros`
        // allocation of `n × p` would fault in every page again on each
        // update. Rows are zeroed immediately before accumulation, so the
        // recycled contents never leak through.
        let mut grads = std::mem::replace(&mut self.grads, Matrix::zeros(0, 0));
        if grads.rows() != n_new || grads.cols() != p {
            grads = Matrix::zeros(n_new, p);
        }
        // The same pass also sums the per-row losses, replacing a separate
        // `objective` sweep; the fused trait method is bit-identical to
        // loss-after-grad, and the row order matches `objective`'s, so the
        // reported final loss is exactly what the two-pass form computes.
        let mut data_loss = 0.0;
        for r in 0..n_new {
            let row = grads.row_mut(r);
            row.fill(0.0);
            data_loss += model.accumulate_grad_and_loss(new_train.x.row(r), new_train.y[r], row);
        }
        let theta = model.params();
        let final_loss = data_loss / n_new as f64 + 0.5 * model.l2() * vecops::dot(theta, theta);
        let retrain = TrainReport {
            iterations,
            final_loss,
            grad_norm: vecops::norm2(&grad),
            converged: true,
        };
        self.model = model;
        self.mean_grad = mean_rows(&grads);
        self.grads = grads;
        self.hessian = hessian_new;
        self.chol = chol;
        self.n = n_new;
        EngineUpdateReport {
            refactored,
            full_rebuild: false,
            retrain,
        }
    }

    /// Full-cost fallback: retrains with the default trainer (warm-started
    /// from the current parameters) and rebuilds every precomputed artifact.
    fn rebuild_from_scratch(&mut self, train: &Encoded) -> TrainReport {
        let mut model = self.model.clone();
        let report = fit_default(&mut model, train);
        *self = Self::new(model, train, self.config.clone());
        report
    }

    /// The model the engine was built around.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of training examples.
    pub fn n_train(&self) -> usize {
        self.n
    }

    /// The configuration the engine was built with (session updates clone
    /// it when constructing from-scratch reference engines).
    pub fn config(&self) -> &InfluenceConfig {
        &self.config
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.model.n_params()
    }

    /// The damping that was actually applied to the Hessian.
    pub fn damping_used(&self) -> f64 {
        self.damping_used
    }

    /// The Cholesky factor of the damped mean Hessian. Incremental
    /// retraining uses it as the base operator for Woodbury-modified solves.
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }

    /// The precomputed per-example gradient of training row `r`.
    pub fn row_gradient(&self, r: usize) -> &[f64] {
        self.grads.row(r)
    }

    /// The mean data gradient `ḡ = (1/n) Σ ∇L(zᵢ, θ*)` (`−λθ*` at the
    /// optimum), summed once at build and after each update.
    pub fn mean_gradient(&self) -> &[f64] {
        &self.mean_grad
    }

    /// `g_S = Σ_{z∈S} ∇L(z, θ*)` for the given training rows.
    pub fn subset_gradient(&self, rows: &[u32]) -> Vec<f64> {
        let mut g = vec![0.0; self.n_params()];
        for &r in rows {
            vecops::axpy(1.0, self.grads.row(r as usize), &mut g);
        }
        g
    }

    /// Applies the subset's mean Hessian (plus λI): `out = H̃_S · v`.
    ///
    /// Analytic models use per-row Hessian–vector products; others use a
    /// single central difference of the subset gradient along `v` (two
    /// subset-gradient passes).
    pub fn subset_hessian_vec(&self, train: &Encoded, rows: &[u32], v: &[f64]) -> Vec<f64> {
        let p = self.n_params();
        let m = rows.len().max(1) as f64;
        let mut out = vec![0.0; p];
        if rows.is_empty() {
            return out;
        }
        if self.model.has_analytic_hessian() {
            for &r in rows {
                let r = r as usize;
                self.model
                    .accumulate_hessian_vec(train.x.row(r), train.y[r], v, &mut out);
            }
        } else {
            let vnorm = vecops::norm_inf(v);
            if vnorm == 0.0 {
                return out;
            }
            let eps = self.config.fd_eps / vnorm;
            let mut plus = self.model.clone();
            for (t, vi) in plus.params_mut().iter_mut().zip(v) {
                *t += eps * vi;
            }
            let mut minus = self.model.clone();
            for (t, vi) in minus.params_mut().iter_mut().zip(v) {
                *t -= eps * vi;
            }
            let mut gp = vec![0.0; p];
            let mut gm = vec![0.0; p];
            for &r in rows {
                let r = r as usize;
                plus.accumulate_grad(train.x.row(r), train.y[r], &mut gp);
                minus.accumulate_grad(train.x.row(r), train.y[r], &mut gm);
            }
            let scale = 1.0 / (2.0 * eps);
            for ((o, a), b) in out.iter_mut().zip(&gp).zip(&gm) {
                *o = (a - b) * scale;
            }
        }
        // Mean over the subset, then the subset's regularizer share.
        let l2 = self.model.l2() + self.damping_used;
        for (o, vi) in out.iter_mut().zip(v) {
            *o = *o / m + l2 * vi;
        }
        out
    }

    /// Estimated parameter change `Δθ ≈ θ̄_S − θ*` caused by removing the
    /// given training rows and retraining.
    pub fn param_change(&self, train: &Encoded, rows: &[u32], estimator: Estimator) -> Vec<f64> {
        let p = self.n_params();
        if rows.is_empty() {
            return vec![0.0; p];
        }
        let n = self.n as f64;
        let m = rows.len() as f64;
        let g_s = self.subset_gradient(rows);
        match estimator {
            Estimator::FirstOrder => {
                // Δθ = (1/n) H⁻¹ g_S.
                let mut delta = self.chol.solve(&g_s);
                vecops::scale(1.0 / n, &mut delta);
                delta
            }
            Estimator::SecondOrder => {
                // Δθ₁ = (1/n) H⁻¹ g̃_S;  Δθ = Δθ₁ + (m/n) H⁻¹ (H̃_S Δθ₁).
                let g_tilde = self.add_reg_share(&g_s, m);
                let mut d1 = self.chol.solve(&g_tilde);
                vecops::scale(1.0 / n, &mut d1);
                let hs_d1 = self.subset_hessian_vec(train, rows, &d1);
                let mut corr = self.chol.solve(&hs_d1);
                vecops::scale(m / n, &mut corr);
                vecops::axpy(1.0, &d1, &mut corr);
                corr
            }
            Estimator::NewtonStep => {
                // Solve (nH − mH̃_S) Δθ = g̃_S by CG with a matrix-free
                // operator. The operator is SPD whenever m < n and the
                // damped H dominates (guaranteed for convex losses).
                let g_tilde = self.add_reg_share(&g_s, m);
                let apply = |v: &[f64]| -> Vec<f64> {
                    let mut hv = self.hessian.matvec(v);
                    vecops::scale(n, &mut hv);
                    let hs_v = self.subset_hessian_vec(train, rows, v);
                    vecops::axpy(-m, &hs_v, &mut hv);
                    hv
                };
                let out = conjugate_gradient(
                    apply,
                    &g_tilde,
                    self.config.cg_tol,
                    self.config.cg_max_iter.min(4 * p),
                );
                out.x
            }
            Estimator::OneStepGd { learning_rate } => {
                // Paper Eq. 13: θ̄ = θ − η(∇L(D, θ*) − (1/n) g_S), where
                // ∇L(D, θ*) is the mean data gradient (−λθ* at the optimum).
                self.mean_grad
                    .iter()
                    .zip(&g_s)
                    .map(|(g, s)| -learning_rate * (g - s / n))
                    .collect()
            }
        }
    }

    /// `g̃_S = g_S + m(λ + damping)θ*`.
    fn add_reg_share(&self, g_s: &[f64], m: f64) -> Vec<f64> {
        let l2 = self.model.l2() + self.damping_used;
        let mut g = g_s.to_vec();
        vecops::axpy(m * l2, self.model.params(), &mut g);
        g
    }
}

/// The mean of a matrix's rows, summed in row order.
fn mean_rows(m: &Matrix) -> Vec<f64> {
    let mut mean = vec![0.0; m.cols()];
    for r in 0..m.rows() {
        vecops::axpy(1.0, m.row(r), &mut mean);
    }
    vecops::scale(1.0 / m.rows() as f64, &mut mean);
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, NewtonConfig};
    use gopher_models::{LogisticRegression, Model};

    impl Model for Ridge {
        fn n_inputs(&self) -> usize {
            self.n_inputs
        }
        fn predict_proba(&self, x: &[f64]) -> f64 {
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            z.clamp(0.0, 1.0)
        }
    }
    use gopher_prng::Rng;

    /// Ridge regression (squared loss) — quadratic, so the Newton estimator
    /// must match exact retraining to machine precision.
    #[derive(Debug, Clone)]
    struct Ridge {
        params: Vec<f64>,
        n_inputs: usize,
        l2: f64,
    }

    impl Differentiable for Ridge {
        fn n_params(&self) -> usize {
            self.n_inputs + 1
        }
        fn params(&self) -> &[f64] {
            &self.params
        }
        fn params_mut(&mut self) -> &mut [f64] {
            &mut self.params
        }
        fn l2(&self) -> f64 {
            self.l2
        }
        fn loss(&self, x: &[f64], y: f64) -> f64 {
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            0.5 * (z - y) * (z - y)
        }
        fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            let resid = z - y;
            vecops::axpy(resid, x, &mut out[..self.n_inputs]);
            out[self.n_inputs] += resid;
        }
        fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
            vecops::axpy(1.0, x, &mut out[..self.n_inputs]);
            out[self.n_inputs] += 1.0;
        }
        fn has_analytic_hessian(&self) -> bool {
            true
        }
        fn accumulate_hessian_vec(&self, x: &[f64], _y: f64, v: &[f64], out: &mut [f64]) {
            let xv = vecops::dot(x, &v[..self.n_inputs]) + v[self.n_inputs];
            vecops::axpy(xv, x, &mut out[..self.n_inputs]);
            out[self.n_inputs] += xv;
        }
    }

    fn random_encoded(n: usize, d: usize, seed: u64) -> Encoded {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        let mut privileged = Vec::with_capacity(n);
        for r in 0..n {
            for c in 0..d {
                x[(r, c)] = rng.normal();
            }
            y.push(if rng.bernoulli(0.5) { 1.0 } else { 0.0 });
            privileged.push(rng.bernoulli(0.5));
        }
        Encoded { x, y, privileged }
    }

    /// Closed-form ridge optimum on a dataset.
    fn ridge_fit(data: &Encoded, l2: f64) -> Ridge {
        let n = data.n_rows();
        let d = data.n_cols();
        let p = d + 1;
        let mut h = Matrix::zeros(p, p);
        let mut b = vec![0.0; p];
        for r in 0..n {
            let x = data.x.row(r);
            for i in 0..d {
                for j in 0..d {
                    h[(i, j)] += x[i] * x[j];
                }
                h[(i, d)] += x[i];
                h[(d, i)] += x[i];
                b[i] += x[i] * data.y[r];
            }
            h[(d, d)] += 1.0;
            b[d] += data.y[r];
        }
        h.scale(1.0 / n as f64);
        h.add_diagonal(l2);
        vecops::scale(1.0 / n as f64, &mut b);
        let chol = Cholesky::factor(&h).unwrap();
        let params = chol.solve(&b);
        Ridge {
            params,
            n_inputs: d,
            l2,
        }
    }

    #[test]
    fn newton_estimator_is_exact_for_quadratic_loss() {
        let data = random_encoded(200, 5, 1);
        let l2 = 0.1;
        let model = ridge_fit(&data, l2);
        let engine = InfluenceEngine::new(
            model.clone(),
            &data,
            InfluenceConfig {
                damping: 0.0,
                ..Default::default()
            },
        );
        // Remove 15% of rows.
        let rows: Vec<u32> = (0..30).collect();
        let delta = engine.param_change(&data, &rows, Estimator::NewtonStep);
        // Exact retraining on the remaining rows.
        let keep: Vec<usize> = (30..200).collect();
        let reduced = data.select_rows(&keep);
        let exact = ridge_fit(&reduced, l2);
        for j in 0..model.n_params() {
            let predicted = model.params()[j] + delta[j];
            assert!(
                (predicted - exact.params()[j]).abs() < 1e-8,
                "param {j}: newton {predicted} vs exact {}",
                exact.params()[j]
            );
        }
    }

    #[test]
    fn second_order_beats_first_order_for_quadratic_loss() {
        let data = random_encoded(300, 4, 2);
        let l2 = 0.05;
        let model = ridge_fit(&data, l2);
        let engine = InfluenceEngine::new(
            model.clone(),
            &data,
            InfluenceConfig {
                damping: 0.0,
                ..Default::default()
            },
        );
        let mut fo_err = 0.0;
        let mut so_err = 0.0;
        let mut rng = Rng::new(3);
        for trial in 0..5 {
            let m = 30 + trial * 15; // 10% … 30%
            let rows: Vec<u32> = rng
                .sample_indices(300, m)
                .into_iter()
                .map(|r| r as u32)
                .collect();
            let keep: Vec<usize> = (0..300).filter(|r| !rows.contains(&(*r as u32))).collect();
            let exact = ridge_fit(&data.select_rows(&keep), l2);
            let truth = vecops::sub(exact.params(), model.params());
            let fo = engine.param_change(&data, &rows, Estimator::FirstOrder);
            let so = engine.param_change(&data, &rows, Estimator::SecondOrder);
            fo_err += vecops::norm2(&vecops::sub(&fo, &truth));
            so_err += vecops::norm2(&vecops::sub(&so, &truth));
        }
        assert!(
            so_err < fo_err,
            "second order ({so_err}) should beat first order ({fo_err})"
        );
    }

    #[test]
    fn estimators_match_retraining_direction_on_logistic() {
        let raw = german(600, 21);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model.clone(), &data, InfluenceConfig::default());
        // Remove a contiguous 10% block.
        let rows: Vec<u32> = (0..60).collect();
        let keep: Vec<usize> = (60..600).collect();
        let reduced = data.select_rows(&keep);
        let mut retrained = model.clone();
        fit_newton(&mut retrained, &reduced, &NewtonConfig::default());
        let truth = vecops::sub(retrained.params(), model.params());
        let truth_norm = vecops::norm2(&truth);
        assert!(truth_norm > 1e-6, "removal must move the parameters");
        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
        ] {
            let delta = engine.param_change(&data, &rows, est);
            let cos =
                vecops::dot(&delta, &truth) / (vecops::norm2(&delta) * truth_norm).max(1e-300);
            assert!(cos > 0.9, "{}: cosine to ground truth {cos}", est.label());
        }
        // Newton should be the most accurate.
        let newton = engine.param_change(&data, &rows, Estimator::NewtonStep);
        let fo = engine.param_change(&data, &rows, Estimator::FirstOrder);
        let newton_err = vecops::norm2(&vecops::sub(&newton, &truth));
        let fo_err = vecops::norm2(&vecops::sub(&fo, &truth));
        assert!(
            newton_err <= fo_err,
            "newton err {newton_err} should not exceed FO err {fo_err}"
        );
    }

    #[test]
    fn empty_subset_changes_nothing() {
        let data = random_encoded(50, 3, 4);
        let model = ridge_fit(&data, 0.1);
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
            Estimator::OneStepGd { learning_rate: 0.1 },
        ] {
            let delta = engine.param_change(&data, &[], est);
            assert_eq!(delta, vec![0.0; engine.n_params()], "{}", est.label());
        }
    }

    #[test]
    fn one_step_gd_points_along_subset_gradient() {
        let raw = german(300, 22);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        let rows: Vec<u32> = (0..30).collect();
        let delta = engine.param_change(&data, &rows, Estimator::OneStepGd { learning_rate: 0.5 });
        let g_s = engine.subset_gradient(&rows);
        // At the optimum, Δθ ≈ η(g_S/n + λθ*): dominated by g_S, so the
        // directions should be strongly aligned.
        let cos =
            vecops::dot(&delta, &g_s) / (vecops::norm2(&delta) * vecops::norm2(&g_s)).max(1e-300);
        assert!(cos > 0.95, "cosine {cos}");
    }

    /// German train set with rows `removed` dropped and `dup` duplicated at
    /// the tail — the frozen-encoder shape session updates produce.
    fn with_delta(data: &Encoded, removed: &[usize], dup: &[usize]) -> Encoded {
        let keep: Vec<usize> = (0..data.n_rows())
            .filter(|r| !removed.contains(r))
            .collect();
        let mut rows: Vec<Vec<f64>> = keep.iter().map(|&r| data.x.row(r).to_vec()).collect();
        let mut y: Vec<f64> = keep.iter().map(|&r| data.y[r]).collect();
        let mut privileged: Vec<bool> = keep.iter().map(|&r| data.privileged[r]).collect();
        for &r in dup {
            rows.push(data.x.row(r).to_vec());
            y.push(data.y[r]);
            privileged.push(data.privileged[r]);
        }
        Encoded {
            x: Matrix::from_rows(&rows),
            y,
            privileged,
        }
    }

    fn delta_pairs(data: &Encoded, rows: &[usize]) -> Vec<(Vec<f64>, f64)> {
        rows.iter()
            .map(|&r| (data.x.row(r).to_vec(), data.y[r]))
            .collect()
    }

    fn as_refs(pairs: &[(Vec<f64>, f64)]) -> Vec<(&[f64], f64)> {
        pairs.iter().map(|(x, y)| (x.as_slice(), *y)).collect()
    }

    fn fitted_engine(n: usize, seed: u64) -> (Encoded, InfluenceEngine<LogisticRegression>) {
        let raw = german(n, seed);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        (data, engine)
    }

    #[test]
    fn incremental_hessian_matches_full_assembly() {
        // Small |Δ|/n keeps the parameter drift inside the incremental
        // regime (percent-level deltas legitimately trigger a full rebuild).
        let (data, mut engine) = fitted_engine(4000, 31);
        let theta_old = engine.model().params().to_vec();
        let removed: Vec<usize> = (0..2).collect();
        let dup: Vec<usize> = (100..102).collect();
        let new_train = with_delta(&data, &removed, &dup);
        let rm = delta_pairs(&data, &removed);
        let add = delta_pairs(&data, &dup);
        let report = engine.update(&new_train, &as_refs(&rm), &as_refs(&add));
        assert!(!report.full_rebuild, "small delta must stay incremental");
        assert!(report.retrain.converged);
        // Assemble the Hessian in full at the *old* parameters — the point
        // the incremental patch was evaluated at — and compare.
        let mut frozen = engine.model().clone();
        frozen.params_mut().copy_from_slice(&theta_old);
        let p = frozen.n_params();
        let mut full = Matrix::zeros(p, p);
        for r in 0..new_train.n_rows() {
            frozen.accumulate_hessian(new_train.x.row(r), new_train.y[r], &mut full);
        }
        full.scale(1.0 / new_train.n_rows() as f64);
        full.add_diagonal(frozen.l2() + engine.damping_used());
        let scale = full.max_abs();
        for i in 0..p {
            for j in 0..p {
                let diff = (engine.hessian[(i, j)] - full[(i, j)]).abs();
                assert!(
                    diff <= 1e-9 * scale,
                    "H[({i},{j})]: incremental {} vs full {}",
                    engine.hessian[(i, j)],
                    full[(i, j)]
                );
            }
        }
    }

    #[test]
    fn updated_engine_matches_fresh_engine() {
        let (data, mut engine) = fitted_engine(4000, 32);
        let removed: Vec<usize> = vec![3, 77, 201];
        let dup: Vec<usize> = vec![10, 11, 12];
        let new_train = with_delta(&data, &removed, &dup);
        let rm = delta_pairs(&data, &removed);
        let add = delta_pairs(&data, &dup);
        let report = engine.update(&new_train, &as_refs(&rm), &as_refs(&add));
        assert!(report.retrain.converged);
        assert!(!report.full_rebuild, "small delta must stay incremental");
        // A from-scratch session on the post-delta data reaches the same
        // (unique, convex) optimum.
        let mut fresh = LogisticRegression::new(new_train.n_cols(), 1e-3);
        let fresh_report = fit_newton(&mut fresh, &new_train, &NewtonConfig::default());
        assert!(fresh_report.converged);
        for (a, b) in engine.model().params().iter().zip(fresh.params()) {
            assert!((a - b).abs() < 1e-6, "params diverged: {a} vs {b}");
        }
        // And the estimators agree with a fresh engine's to within the
        // documented curvature-staleness bound (the updated engine's Hessian
        // is evaluated at the pre-delta parameters).
        let fresh_engine = InfluenceEngine::new(fresh, &new_train, InfluenceConfig::default());
        let rows: Vec<u32> = (0..25).collect();
        for est in [Estimator::FirstOrder, Estimator::SecondOrder] {
            let a = engine.param_change(&new_train, &rows, est);
            let b = fresh_engine.param_change(&new_train, &rows, est);
            let rel = vecops::norm2(&vecops::sub(&a, &b)) / vecops::norm2(&b).max(1e-300);
            assert!(rel < 1e-2, "{}: relative gap {rel}", est.label());
        }
    }

    #[test]
    fn adversarial_downdate_falls_back_to_refactor() {
        let (data, mut engine) = fitted_engine(200, 33);
        // Claim row 0 was removed far more times than it exists: the
        // downdates drive the factor (and the patched Hessian) indefinite.
        let rm: Vec<(Vec<f64>, f64)> = (0..120)
            .map(|_| (data.x.row(0).to_vec(), data.y[0]))
            .collect();
        let report = engine.update(&data, &as_refs(&rm), &[]);
        assert!(
            report.refactored,
            "losing definiteness must trigger refactorization"
        );
        // The training set itself is unchanged, so θ stays optimal.
        assert!(report.retrain.converged);
    }

    #[test]
    fn update_on_mlp_rebuilds_in_full() {
        let raw = german(150, 34);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut rng = Rng::new(7);
        let mut model = gopher_models::Mlp::new(data.n_cols(), 4, 1e-3, &mut rng);
        gopher_models::train::fit_gd(
            &mut model,
            &data,
            &gopher_models::train::GdConfig {
                max_epochs: 300,
                grad_tol: 1e-4,
                ..Default::default()
            },
        );
        let mut engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        let new_train = with_delta(&data, &[0], &[1]);
        let rm = delta_pairs(&data, &[0]);
        let add = delta_pairs(&data, &[1]);
        let report = engine.update(&new_train, &as_refs(&rm), &as_refs(&add));
        assert!(report.full_rebuild, "MLP has no rank-1 structure to patch");
        assert_eq!(engine.n_train(), new_train.n_rows());
    }

    #[test]
    fn subset_gradient_sums_rows() {
        let data = random_encoded(20, 3, 5);
        let model = ridge_fit(&data, 0.2);
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        let g = engine.subset_gradient(&[2, 7]);
        let expected = vecops::add(engine.row_gradient(2), engine.row_gradient(7));
        for (a, b) in g.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
