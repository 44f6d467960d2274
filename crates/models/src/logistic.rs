//! L2-regularized logistic regression.

use crate::{log_sigmoid, sigmoid, Differentiable, Model};
use gopher_linalg::{vecops, Matrix};

/// Logistic regression: `p(x) = σ(wᵀx + b)` with cross-entropy loss.
///
/// Parameter layout: `[w₀ … w_{d−1}, b]`.
///
/// Per-example quantities (with `x̃ = [x, 1]`, `p = σ(θᵀx̃)`):
/// * loss `L = −[y ln p + (1−y) ln(1−p)]`
/// * gradient `∇θL = (p − y) x̃`
/// * Hessian `∇²θL = p(1−p) x̃ x̃ᵀ` (rank-1, analytic)
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    params: Vec<f64>,
    n_inputs: usize,
    l2: f64,
}

impl LogisticRegression {
    /// Creates a zero-initialized model for `n_inputs` features with L2
    /// strength `l2`.
    ///
    /// # Panics
    /// If `l2` is negative or non-finite.
    pub fn new(n_inputs: usize, l2: f64) -> Self {
        assert!(
            l2 >= 0.0 && l2.is_finite(),
            "l2 must be a non-negative finite value"
        );
        Self {
            params: vec![0.0; n_inputs + 1],
            n_inputs,
            l2,
        }
    }

    /// The decision-function value `wᵀx + b`.
    #[inline]
    pub fn decision(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_inputs);
        vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs]
    }
}

impl Model for LogisticRegression {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }

    fn predict(&self, x: &[f64]) -> f64 {
        // `sigmoid(z) >= 0.5` iff `z >= 0`: threshold the raw decision and
        // skip the exponential.
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

impl Differentiable for LogisticRegression {
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
        let z = self.decision(x);
        // Stable cross-entropy: −[y ln σ(z) + (1−y) ln σ(−z)].
        -(y * log_sigmoid(z) + (1.0 - y) * log_sigmoid(-z))
    }

    fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
        let residual = self.predict_proba(x) - y;
        vecops::axpy(residual, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += residual;
    }

    fn accumulate_grad_and_loss(&self, x: &[f64], y: f64, out: &mut [f64]) -> f64 {
        // One decision evaluation serves both: `sigmoid(z)` drives the
        // gradient residual, `log_sigmoid(±z)` the cross-entropy. Matches
        // `accumulate_grad` + `loss` bit for bit (identical `z`).
        let z = self.decision(x);
        let residual = sigmoid(z) - y;
        vecops::axpy(residual, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += residual;
        -(y * log_sigmoid(z) + (1.0 - y) * log_sigmoid(-z))
    }

    fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
        let p = self.predict_proba(x);
        let w = p * (1.0 - p);
        vecops::axpy(w, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += w;
    }

    fn has_analytic_hessian(&self) -> bool {
        true
    }

    fn accumulate_hessian_vec(&self, x: &[f64], _y: f64, v: &[f64], out: &mut [f64]) {
        let p = self.predict_proba(x);
        let w = p * (1.0 - p);
        // (x̃ᵀ v) with x̃ = [x, 1].
        let xv = vecops::dot(x, &v[..self.n_inputs]) + v[self.n_inputs];
        let scale = w * xv;
        vecops::axpy(scale, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += scale;
    }

    fn accumulate_hessian(&self, x: &[f64], _y: f64, out: &mut Matrix) {
        let p = self.predict_proba(x);
        let w = p * (1.0 - p);
        let d = self.n_inputs;
        // Rank-1 update with x̃ = [x, 1] without materializing x̃.
        for i in 0..d {
            let s = w * x[i];
            if s == 0.0 {
                continue;
            }
            let row = out.row_mut(i);
            vecops::axpy(s, x, &mut row[..d]);
            row[d] += s;
        }
        let last = out.row_mut(d);
        vecops::axpy(w, x, &mut last[..d]);
        last[d] += w;
    }

    fn hessian_rank_one(&self, x: &[f64], _y: f64, aug: &mut [f64]) -> Option<f64> {
        let d = self.n_inputs;
        debug_assert_eq!(aug.len(), d + 1);
        aug[..d].copy_from_slice(x);
        aug[d] = 1.0;
        let p = self.predict_proba(x);
        Some(p * (1.0 - p))
    }

    fn accumulate_rank_one_vector(&self, x: &[f64], _y: f64, scale: f64, out: &mut [f64]) {
        vecops::axpy(scale, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LogisticRegression {
        let mut m = LogisticRegression::new(2, 0.0);
        m.params_mut().copy_from_slice(&[0.5, -1.0, 0.25]);
        m
    }

    #[test]
    fn proba_matches_sigmoid_of_decision() {
        let m = model();
        let x = [1.0, 2.0];
        let z = 0.5 - 2.0 + 0.25;
        assert!((m.predict_proba(&x) - sigmoid(z)).abs() < 1e-15);
        assert_eq!(m.predict(&x), 0.0);
    }

    #[test]
    fn loss_matches_cross_entropy() {
        let m = model();
        let x = [1.0, 2.0];
        let p = m.predict_proba(&x);
        assert!((m.loss(&x, 1.0) + p.ln()).abs() < 1e-12);
        assert!((m.loss(&x, 0.0) + (1.0 - p).ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = model();
        let x = [0.7, -1.3];
        let y = 1.0;
        let mut g = vec![0.0; 3];
        m.accumulate_grad(&x, y, &mut g);
        let eps = 1e-6;
        for j in 0..3 {
            let mut mp = m.clone();
            mp.params_mut()[j] += eps;
            let mut mm = m.clone();
            mm.params_mut()[j] -= eps;
            let fd = (mp.loss(&x, y) - mm.loss(&x, y)) / (2.0 * eps);
            assert!((g[j] - fd).abs() < 1e-6, "param {j}: {} vs {fd}", g[j]);
        }
    }

    #[test]
    fn grad_proba_matches_finite_difference() {
        let m = model();
        let x = [0.7, -1.3];
        let mut g = vec![0.0; 3];
        m.accumulate_grad_proba(&x, &mut g);
        let eps = 1e-6;
        for j in 0..3 {
            let mut mp = m.clone();
            mp.params_mut()[j] += eps;
            let mut mm = m.clone();
            mm.params_mut()[j] -= eps;
            let fd = (mp.predict_proba(&x) - mm.predict_proba(&x)) / (2.0 * eps);
            assert!((g[j] - fd).abs() < 1e-7, "param {j}: {} vs {fd}", g[j]);
        }
    }

    #[test]
    fn analytic_hessian_matches_default_hvp_path() {
        let m = model();
        let x = [0.7, -1.3];
        let y = 0.0;
        // Full Hessian via the analytic override.
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, y, &mut h);
        // Hessian-vector product against a probe, two ways.
        let v = [0.3, -0.2, 0.9];
        let mut hv_analytic = vec![0.0; 3];
        m.accumulate_hessian_vec(&x, y, &v, &mut hv_analytic);
        let hv_from_matrix = h.matvec(&v);
        for j in 0..3 {
            assert!((hv_analytic[j] - hv_from_matrix[j]).abs() < 1e-12);
        }
        // And against finite differences of the gradient.
        let mut hv_fd = vec![0.0; 3];
        crate::finite_diff_hvp(&m, &x, y, &v, &mut hv_fd);
        for j in 0..3 {
            assert!(
                (hv_analytic[j] - hv_fd[j]).abs() < 1e-5,
                "param {j}: {} vs {}",
                hv_analytic[j],
                hv_fd[j]
            );
        }
    }

    #[test]
    fn hessian_is_symmetric_psd_diagonal() {
        let m = model();
        let x = [2.0, 3.0];
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, 1.0, &mut h);
        for i in 0..3 {
            assert!(h[(i, i)] >= 0.0, "diagonal must be non-negative");
            for j in 0..3 {
                assert!((h[(i, j)] - h[(j, i)]).abs() < 1e-12, "symmetry");
            }
        }
    }

    #[test]
    fn rank_one_vector_is_the_rank_one_aug_scaled() {
        let m = model();
        let x = [0.3, -0.4];
        let mut aug = vec![0.0; 3];
        m.hessian_rank_one(&x, 1.0, &mut aug).expect("rank-1");
        let mut acc = vec![1.0; 3];
        m.accumulate_rank_one_vector(&x, 1.0, 0.25, &mut acc);
        let expected: Vec<f64> = aug.iter().map(|a| 1.0 + 0.25 * a).collect();
        assert_eq!(acc, expected);
    }

    #[test]
    fn rank_one_structure_matches_full_hessian() {
        let m = model();
        let x = [0.7, -1.3];
        let mut aug = vec![0.0; 3];
        let w = m.hessian_rank_one(&x, 1.0, &mut aug).expect("LR is rank-1");
        assert_eq!(aug, vec![0.7, -1.3, 1.0]);
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, 1.0, &mut h);
        let mut outer = Matrix::zeros(3, 3);
        outer.rank1_update(w, &aug);
        for i in 0..3 {
            for j in 0..3 {
                assert!((h[(i, j)] - outer[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "l2 must be a non-negative finite value")]
    fn rejects_negative_l2() {
        let _ = LogisticRegression::new(2, -1.0);
    }
}
