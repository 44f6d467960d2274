//! Training: full-batch gradient descent (with momentum) and damped Newton.
//!
//! The objective everywhere is `J(θ) = (1/n) Σᵢ L(zᵢ, θ) + (λ/2)‖θ‖²` with
//! `λ = model.l2()`. Influence functions assume θ* is a stationary point of
//! `J`, so trainers iterate until the gradient norm is small, not merely
//! until the loss stops improving.

use crate::{Differentiable, Model};
use gopher_data::Encoded;
use gopher_linalg::{vecops, Cholesky, Matrix};

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Iterations (epochs for GD, Newton steps for Newton) performed.
    pub iterations: usize,
    /// Final objective value `J(θ)`.
    pub final_loss: f64,
    /// Final gradient norm `‖∇J(θ)‖₂`.
    pub grad_norm: f64,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

/// Every row id of `data`, in order: the row set of a full fit.
fn all_rows(data: &Encoded) -> Vec<u32> {
    (0..data.n_rows() as u32).collect()
}

/// The regularized objective `J(θ)` on a dataset.
pub fn objective<M: Differentiable>(model: &M, data: &Encoded) -> f64 {
    objective_on(model, data, &all_rows(data))
}

/// The regularized objective `J(θ)` on the rows `rows` of `data`, summed in
/// the order given. Bit-identical to [`objective`] on a copy holding just
/// those rows in that order, without making the copy.
pub fn objective_on<M: Differentiable>(model: &M, data: &Encoded, rows: &[u32]) -> f64 {
    let n = rows.len().max(1);
    let mut total = 0.0;
    for &r in rows {
        let r = r as usize;
        total += model.loss(data.x.row(r), data.y[r]);
    }
    let theta = model.params();
    total / n as f64 + 0.5 * model.l2() * vecops::dot(theta, theta)
}

/// Writes `∇J(θ) = (1/n) Σ ∇L + λθ` into `out` (overwriting it).
pub fn full_gradient<M: Differentiable>(model: &M, data: &Encoded, out: &mut [f64]) {
    full_gradient_on(model, data, &all_rows(data), out);
}

/// [`full_gradient`] over the rows `rows` of `data` (`n = rows.len()`).
pub fn full_gradient_on<M: Differentiable>(
    model: &M,
    data: &Encoded,
    rows: &[u32],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), model.n_params());
    out.iter_mut().for_each(|g| *g = 0.0);
    for &r in rows {
        let r = r as usize;
        model.accumulate_grad(data.x.row(r), data.y[r], out);
    }
    let n = rows.len().max(1) as f64;
    let l2 = model.l2();
    for (g, t) in out.iter_mut().zip(model.params()) {
        *g = *g / n + l2 * t;
    }
}

/// Fraction of examples whose hard prediction matches the label.
pub fn accuracy<M: Model>(model: &M, data: &Encoded) -> f64 {
    if data.n_rows() == 0 {
        return 0.0;
    }
    let correct = (0..data.n_rows())
        .filter(|&r| model.predict(data.x.row(r)) == data.y[r])
        .count();
    correct as f64 / data.n_rows() as f64
}

/// Configuration for full-batch gradient descent with momentum.
#[derive(Debug, Clone)]
pub struct GdConfig {
    /// Step size.
    pub learning_rate: f64,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Stop when `‖∇J‖₂` falls below this.
    pub grad_tol: f64,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f64,
}

impl Default for GdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            max_epochs: 2000,
            grad_tol: 1e-6,
            momentum: 0.9,
        }
    }
}

/// Trains `model` in place by full-batch gradient descent.
pub fn fit_gd<M: Differentiable>(model: &mut M, data: &Encoded, cfg: &GdConfig) -> TrainReport {
    fit_gd_on(model, data, &all_rows(data), cfg)
}

/// [`fit_gd`] on the rows `rows` of `data`.
fn fit_gd_on<M: Differentiable>(
    model: &mut M,
    data: &Encoded,
    rows: &[u32],
    cfg: &GdConfig,
) -> TrainReport {
    let p = model.n_params();
    let mut grad = vec![0.0; p];
    let mut velocity = vec![0.0; p];
    let mut iterations = 0;
    let mut grad_norm = f64::INFINITY;
    for epoch in 0..cfg.max_epochs {
        full_gradient_on(model, data, rows, &mut grad);
        grad_norm = vecops::norm2(&grad);
        iterations = epoch;
        if grad_norm < cfg.grad_tol {
            break;
        }
        for ((v, g), t) in velocity.iter_mut().zip(&grad).zip(model.params_mut()) {
            *v = cfg.momentum * *v - cfg.learning_rate * g;
            *t += *v;
        }
    }
    TrainReport {
        iterations,
        final_loss: objective_on(model, data, rows),
        grad_norm,
        converged: grad_norm < cfg.grad_tol,
    }
}

/// Configuration for damped Newton's method.
#[derive(Debug, Clone)]
pub struct NewtonConfig {
    /// Maximum Newton steps.
    pub max_iter: usize,
    /// Stop when `‖∇J‖₂` falls below this.
    pub grad_tol: f64,
    /// Initial Hessian damping (escalated automatically if the Hessian is
    /// not positive definite).
    pub damping: f64,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iter: 50,
            grad_tol: 1e-10,
            damping: 1e-8,
        }
    }
}

/// Trains `model` in place by damped Newton with backtracking line search.
///
/// Practical for models with analytic Hessians (logistic regression, SVM);
/// for the MLP each step assembles the Hessian by finite differences, which
/// is usable for testing but slow — prefer [`fit_gd`] there.
pub fn fit_newton<M: Differentiable>(
    model: &mut M,
    data: &Encoded,
    cfg: &NewtonConfig,
) -> TrainReport {
    fit_newton_on(model, data, &all_rows(data), cfg)
}

/// [`fit_newton`] on the rows `rows` of `data`.
fn fit_newton_on<M: Differentiable>(
    model: &mut M,
    data: &Encoded,
    rows: &[u32],
    cfg: &NewtonConfig,
) -> TrainReport {
    let p = model.n_params();
    let n = rows.len().max(1) as f64;
    let mut grad = vec![0.0; p];
    let mut iterations = 0;
    let mut stalled = false;
    for iter in 0..cfg.max_iter {
        full_gradient_on(model, data, rows, &mut grad);
        let grad_norm = vecops::norm2(&grad);
        iterations = iter;
        if grad_norm < cfg.grad_tol {
            break;
        }
        // Assemble H = (1/n) Σ ∇²L + λI.
        let mut h = Matrix::zeros(p, p);
        for &r in rows {
            let r = r as usize;
            model.accumulate_hessian(data.x.row(r), data.y[r], &mut h);
        }
        h.scale(1.0 / n);
        h.add_diagonal(model.l2());
        let (chol, _) =
            Cholesky::factor_damped(&h, cfg.damping, 24).expect("damping escalation succeeds");
        let step = chol.solve(&grad);
        // Backtracking line search on J.
        let base = objective_on(model, data, rows);
        let mut alpha = 1.0;
        let mut improved = false;
        for _ in 0..30 {
            let mut trial = model.clone();
            for (t, s) in trial.params_mut().iter_mut().zip(&step) {
                *t -= alpha * s;
            }
            if objective_on(&trial, data, rows) < base {
                model.params_mut().copy_from_slice(trial.params());
                improved = true;
                break;
            }
            alpha *= 0.5;
        }
        if !improved {
            // No step along the Newton direction improves the objective even
            // after 30 halvings: θ is numerically optimal for this data.
            stalled = true;
            break;
        }
    }
    full_gradient_on(model, data, rows, &mut grad);
    let grad_norm = vecops::norm2(&grad);
    TrainReport {
        iterations,
        final_loss: objective_on(model, data, rows),
        grad_norm,
        converged: grad_norm < cfg.grad_tol || stalled,
    }
}

/// Trains with the method best suited to the model: Newton for models with
/// analytic Hessians, gradient descent otherwise.
pub fn fit_default<M: Differentiable>(model: &mut M, data: &Encoded) -> TrainReport {
    fit_default_on(model, data, &all_rows(data))
}

/// [`fit_default`] on the rows `rows` of `data`: the same fit as on a copy
/// holding just those rows in that order, bit for bit, without the copy.
/// Ground-truth retrains pass the kept row ids.
pub fn fit_default_on<M: Differentiable>(
    model: &mut M,
    data: &Encoded,
    rows: &[u32],
) -> TrainReport {
    if model.has_analytic_hessian() {
        fit_newton_on(model, data, rows, &NewtonConfig::default())
    } else {
        fit_gd_on(model, data, rows, &GdConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearSvm, LogisticRegression, Mlp};
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_prng::Rng;

    fn german_encoded(n: usize) -> Encoded {
        let d = german(n, 5);
        let enc = Encoder::fit(&d);
        enc.transform(&d)
    }

    #[test]
    fn newton_reaches_stationary_point_for_logistic() {
        let data = german_encoded(600);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        let report = fit_newton(&mut model, &data, &NewtonConfig::default());
        assert!(report.converged, "grad norm {}", report.grad_norm);
        assert!(report.grad_norm < 1e-8);
        let acc = accuracy(&model, &data);
        assert!(acc > 0.65, "training accuracy {acc}");
    }

    #[test]
    fn gd_approaches_newton_solution_on_logistic() {
        let data = german_encoded(300);
        let mut newton = LogisticRegression::new(data.n_cols(), 1e-2);
        fit_newton(&mut newton, &data, &NewtonConfig::default());
        let mut gd = LogisticRegression::new(data.n_cols(), 1e-2);
        let report = fit_gd(
            &mut gd,
            &data,
            &GdConfig {
                learning_rate: 0.5,
                max_epochs: 8000,
                grad_tol: 1e-7,
                momentum: 0.9,
            },
        );
        assert!(report.converged, "gd grad norm {}", report.grad_norm);
        let gap = objective(&gd, &data) - objective(&newton, &data);
        assert!(gap.abs() < 1e-5, "objective gap {gap}");
    }

    #[test]
    fn svm_trains_to_low_gradient() {
        let data = german_encoded(400);
        let mut model = LinearSvm::new(data.n_cols(), 1e-3);
        let report = fit_newton(&mut model, &data, &NewtonConfig::default());
        // Squared hinge is piecewise quadratic: Newton converges fast, but a
        // support-vector boundary crossing can stall it slightly above tol.
        assert!(report.grad_norm < 1e-5, "grad norm {}", report.grad_norm);
        assert!(accuracy(&model, &data) > 0.65);
    }

    #[test]
    fn mlp_trains_with_gd() {
        let data = german_encoded(300);
        let mut rng = Rng::new(3);
        let mut model = Mlp::new(data.n_cols(), 6, 1e-3, &mut rng);
        let before = objective(&model, &data);
        let report = fit_gd(
            &mut model,
            &data,
            &GdConfig {
                learning_rate: 0.3,
                max_epochs: 3000,
                grad_tol: 1e-5,
                momentum: 0.9,
            },
        );
        assert!(report.final_loss < before, "loss must decrease");
        assert!(report.grad_norm < 1e-3, "grad norm {}", report.grad_norm);
        assert!(accuracy(&model, &data) > 0.7);
    }

    #[test]
    fn objective_includes_regularization() {
        let data = german_encoded(50);
        let mut model = LogisticRegression::new(data.n_cols(), 1.0);
        model.params_mut().iter_mut().for_each(|t| *t = 1.0);
        let with_reg = objective(&model, &data);
        let mut unreg = LogisticRegression::new(data.n_cols(), 0.0);
        unreg.params_mut().iter_mut().for_each(|t| *t = 1.0);
        let without = objective(&unreg, &data);
        let p = model.n_params() as f64;
        assert!((with_reg - without - 0.5 * p).abs() < 1e-9);
    }

    #[test]
    fn full_gradient_is_zero_at_optimum() {
        let data = german_encoded(200);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-2);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let mut g = vec![0.0; model.n_params()];
        full_gradient(&model, &data, &mut g);
        assert!(vecops::norm2(&g) < 1e-8);
    }

    #[test]
    fn warm_start_retraining_is_fast() {
        let data = german_encoded(400);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        // Remove 5% of rows and retrain from the previous optimum.
        let mask: Vec<bool> = (0..data.n_rows()).map(|r| r % 20 == 0).collect();
        let reduced = data.remove_rows(&mask);
        let mut warm = model.clone();
        let report = fit_newton(&mut warm, &reduced, &NewtonConfig::default());
        assert!(report.converged);
        assert!(
            report.iterations <= 10,
            "warm start took {} iterations",
            report.iterations
        );
    }
}
