//! Ground-truth retraining: the expensive baseline the estimators replace.

use crate::engine::InfluenceEngine;
use gopher_data::Encoded;
use gopher_linalg::vecops;
use gopher_models::train::{
    fit_default, fit_default_on, full_gradient_on, objective_on, NewtonConfig, TrainReport,
};
use gopher_models::Differentiable;

/// Largest removal subset the Woodbury-modified solve handles; bigger
/// subsets (capacitance grows as `m³`) fall back to the from-scratch path.
const WOODBURY_MAX_RANK: usize = 64;

/// Quasi-Newton iterations allowed on the reduced objective before the
/// incremental path hands over to the line-searched trainer.
const INCREMENTAL_RETRAIN_MAX_ITER: usize = 25;

/// Result of a ground-truth retraining run.
#[derive(Debug, Clone)]
pub struct RetrainOutcome<M> {
    /// The retrained model.
    pub model: M,
    /// Training diagnostics.
    pub report: TrainReport,
}

/// Retrains a copy of `model` on `train` minus the given rows, warm-starting
/// from the current parameters (as the paper does to speed up the retraining
/// baseline).
///
/// The trainer reads the kept rows of `train` in place by id, so no reduced
/// copy of the training set is made; the result is bit-identical to fitting
/// `train.remove_rows(..)`.
pub fn retrain_without<M: Differentiable>(
    model: &M,
    train: &Encoded,
    rows: &[u32],
) -> RetrainOutcome<M> {
    let keep = kept_rows(train, rows);
    let mut retrained = model.clone();
    let report = fit_default_on(&mut retrained, train, &keep);
    RetrainOutcome {
        model: retrained,
        report,
    }
}

/// The ids of the rows of `train` not in `rows`, in ascending order: the
/// rows `train.remove_rows(..)` would keep, in the order it keeps them.
fn kept_rows(train: &Encoded, rows: &[u32]) -> Vec<u32> {
    let mut remove = vec![false; train.n_rows()];
    for &r in rows {
        remove[r as usize] = true;
    }
    (0..train.n_rows() as u32)
        .filter(|&r| !remove[r as usize])
        .collect()
}

/// Fans [`retrain_without`] out over many row subsets across up to
/// `threads` worker threads, returning one outcome per subset in input
/// order. Each retraining is independent (its own model clone, reading the
/// shared training set in place), so results are bit-identical to a
/// sequential loop at any thread count. This is the ground-truth hot path of a top-k explanation:
/// `k` retrains per query, each a full Newton solve.
pub fn retrain_without_many<M: Differentiable>(
    model: &M,
    train: &Encoded,
    subsets: &[Vec<u32>],
    threads: usize,
) -> Vec<RetrainOutcome<M>> {
    gopher_par::par_map(threads, subsets, |_, rows| {
        retrain_without(model, train, rows)
    })
}

/// Incremental ground truth: retrains on `train` minus `rows` by
/// quasi-Newton steps whose directions reuse the engine's existing Cholesky
/// factor, modified for the removed rows by a rank-`m` Woodbury solve
/// instead of assembling and factoring a reduced Hessian per step.
///
/// Each iteration costs `O(n p)` for the true reduced gradient plus
/// `O((m + 1) p²)` for the modified solve — no `O(n p²)` Hessian assembly
/// anywhere. Convergence is judged on the true gradient of the reduced
/// objective (the Newton trainer's tolerance), so a converged result is the
/// same optimum [`retrain_without`] finds, independent of the approximation
/// quality of the step operator.
///
/// Falls back to [`retrain_without`] when the model exposes no rank-1
/// Hessian structure (the MLP), the subset exceeds the Woodbury rank cap,
/// or the modified solve goes singular; falls back to the line-searched
/// trainer when the quasi-Newton loop stalls. Either fallback still returns
/// a correct ground-truth retrain.
pub fn retrain_without_incremental<M: Differentiable>(
    engine: &InfluenceEngine<M>,
    train: &Encoded,
    rows: &[u32],
) -> RetrainOutcome<M> {
    let base = engine.model();
    if rows.len() > WOODBURY_MAX_RANK {
        return retrain_without(base, train, rows);
    }
    let p = base.n_params();
    let n = engine.n_train() as f64;
    // Rank-1 structure of each removed row at the engine's parameters; the
    // factor minus these outer products approximates the reduced Hessian.
    let mut augs: Vec<Vec<f64>> = Vec::with_capacity(rows.len());
    let mut weights: Vec<f64> = Vec::with_capacity(rows.len());
    let mut aug = vec![0.0; p];
    for &r in rows {
        let r = r as usize;
        match base.hessian_rank_one(train.x.row(r), train.y[r], &mut aug) {
            Some(w) => {
                if w != 0.0 {
                    augs.push(aug.clone());
                    weights.push(-w / n);
                }
            }
            None => return retrain_without(base, train, rows),
        }
    }
    let keep = kept_rows(train, rows);
    let m = rows.len() as f64;
    let u_refs: Vec<&[f64]> = augs.iter().map(|a| a.as_slice()).collect();
    let chol = engine.factor();
    let cfg = NewtonConfig::default();
    let mut model = base.clone();
    let mut grad = vec![0.0; p];
    for iter in 0..INCREMENTAL_RETRAIN_MAX_ITER {
        full_gradient_on(&model, train, &keep, &mut grad);
        let grad_norm = vecops::norm2(&grad);
        if grad_norm < cfg.grad_tol {
            return RetrainOutcome {
                report: TrainReport {
                    iterations: iter,
                    final_loss: objective_on(&model, train, &keep),
                    grad_norm,
                    converged: true,
                },
                model,
            };
        }
        let Some(mut step) = chol.solve_rank_k_modified(&u_refs, &weights, &grad) else {
            // Modified operator went singular: the factor is no longer a
            // usable base for this subset.
            return retrain_without(base, train, rows);
        };
        // The operator's data term is a sum over n − m rows divided by n;
        // rescale the step to the reduced objective's 1/(n − m) mean.
        vecops::scale(n / (n - m).max(1.0), &mut step);
        for (t, s) in model.params_mut().iter_mut().zip(&step) {
            *t -= s;
        }
    }
    // Stalled (piecewise-quadratic kinks, stale curvature): finish with the
    // line-searched trainer, warm from the progress made so far.
    let report = fit_default_on(&mut model, train, &keep);
    RetrainOutcome { model, report }
}

/// Fans [`retrain_without_incremental`] out over many row subsets, mirroring
/// [`retrain_without_many`]. Outcomes are in input order and bit-identical
/// at any thread count (each retrain is independent).
pub fn retrain_without_many_incremental<M: Differentiable>(
    engine: &InfluenceEngine<M>,
    train: &Encoded,
    subsets: &[Vec<u32>],
    threads: usize,
) -> Vec<RetrainOutcome<M>> {
    gopher_par::par_map(threads, subsets, |_, rows| {
        retrain_without_incremental(engine, train, rows)
    })
}

/// Retrains a copy of `model` on an already-modified training set (used by
/// update-based explanations, where rows are perturbed instead of removed).
pub fn retrain_updated<M: Differentiable>(model: &M, updated_train: &Encoded) -> RetrainOutcome<M> {
    let mut retrained = model.clone();
    let report = fit_default(&mut retrained, updated_train);
    RetrainOutcome {
        model: retrained,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, objective, NewtonConfig};
    use gopher_models::LogisticRegression;

    #[test]
    fn retraining_without_rows_changes_model() {
        let raw = german(400, 41);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let rows: Vec<u32> = (0..40).collect();
        let outcome = retrain_without(&model, &train, &rows);
        assert!(outcome.report.converged);
        assert_ne!(outcome.model.params(), model.params());
        // The retrained model is optimal for the reduced set: its objective
        // there must not exceed the original model's.
        let mut remove = vec![false; train.n_rows()];
        rows.iter().for_each(|&r| remove[r as usize] = true);
        let reduced = train.remove_rows(&remove);
        assert!(objective(&outcome.model, &reduced) <= objective(&model, &reduced) + 1e-12);
    }

    /// Zero-copy retrains read the kept rows in place; the result must be
    /// bit-identical to fitting the `remove_rows` copy, for every family.
    #[test]
    fn retrain_without_matches_fitting_the_reduced_copy_bit_for_bit() {
        fn check<M: Differentiable>(model: M, train: &Encoded) {
            let mut fitted = model;
            fit_default(&mut fitted, train);
            for rows in [
                vec![0u32],
                (10..40).collect::<Vec<u32>>(),
                vec![3, 57, 58, 90, train.n_rows() as u32 - 1],
            ] {
                let mut remove = vec![false; train.n_rows()];
                rows.iter().for_each(|&r| remove[r as usize] = true);
                let mut copied = fitted.clone();
                let copy_report = fit_default(&mut copied, &train.remove_rows(&remove));
                let outcome = retrain_without(&fitted, train, &rows);
                let bits = |m: &M| m.params().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&outcome.model), bits(&copied), "{} rows", rows.len());
                assert_eq!(
                    outcome.report.final_loss.to_bits(),
                    copy_report.final_loss.to_bits()
                );
                assert_eq!(outcome.report.iterations, copy_report.iterations);
            }
        }
        let raw = german(120, 47);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let d = train.n_cols();
        check(LogisticRegression::new(d, 1e-3), &train);
        check(gopher_models::LinearSvm::new(d, 1e-3), &train);
        let mut rng = gopher_prng::Rng::new(5);
        check(gopher_models::Mlp::new(d, 3, 1e-3, &mut rng), &train);
    }

    #[test]
    fn retrain_fan_out_matches_sequential() {
        let raw = german(300, 43);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let subsets: Vec<Vec<u32>> = vec![
            (0..20).collect(),
            (50..90).collect(),
            (100..110).collect(),
            (200..260).collect(),
        ];
        let sequential: Vec<_> = subsets
            .iter()
            .map(|rows| retrain_without(&model, &train, rows))
            .collect();
        for threads in [1, 4] {
            let fanned = retrain_without_many(&model, &train, &subsets, threads);
            assert_eq!(fanned.len(), sequential.len());
            for (f, s) in fanned.iter().zip(&sequential) {
                assert_eq!(f.model.params(), s.model.params(), "threads={threads}");
                assert_eq!(f.report.converged, s.report.converged);
            }
        }
    }

    #[test]
    fn incremental_retrain_matches_from_scratch() {
        let raw = german(400, 44);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let engine = crate::InfluenceEngine::new(model, &train, crate::InfluenceConfig::default());
        for rows in [
            (0..1).collect::<Vec<u32>>(),
            (10..40).collect(),
            vec![5, 99, 200, 399],
        ] {
            let scratch = retrain_without(engine.model(), &train, &rows);
            let incremental = retrain_without_incremental(&engine, &train, &rows);
            assert!(
                incremental.report.converged,
                "subset of {} rows",
                rows.len()
            );
            for (a, b) in incremental
                .model
                .params()
                .iter()
                .zip(scratch.model.params())
            {
                assert!(
                    (a - b).abs() < 1e-6,
                    "params diverged on {} rows: {a} vs {b}",
                    rows.len()
                );
            }
        }
    }

    #[test]
    fn incremental_fan_out_matches_sequential() {
        let raw = german(300, 45);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let engine = crate::InfluenceEngine::new(model, &train, crate::InfluenceConfig::default());
        let subsets: Vec<Vec<u32>> = vec![(0..15).collect(), (40..60).collect(), vec![250]];
        let sequential: Vec<_> = subsets
            .iter()
            .map(|rows| retrain_without_incremental(&engine, &train, rows))
            .collect();
        for threads in [1, 4] {
            let fanned = retrain_without_many_incremental(&engine, &train, &subsets, threads);
            for (f, s) in fanned.iter().zip(&sequential) {
                assert_eq!(f.model.params(), s.model.params(), "threads={threads}");
            }
        }
    }

    #[test]
    fn oversized_subset_falls_back_to_scratch_path() {
        let raw = german(300, 46);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let engine = crate::InfluenceEngine::new(model, &train, crate::InfluenceConfig::default());
        let rows: Vec<u32> = (0..100).collect(); // > WOODBURY_MAX_RANK
        let scratch = retrain_without(engine.model(), &train, &rows);
        let incremental = retrain_without_incremental(&engine, &train, &rows);
        assert_eq!(incremental.model.params(), scratch.model.params());
    }

    #[test]
    fn retrain_updated_trains_on_given_data() {
        let raw = german(300, 42);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        // Flip some labels and retrain.
        let mut modified = train.clone();
        for y in modified.y.iter_mut().take(50) {
            *y = 1.0 - *y;
        }
        let outcome = retrain_updated(&model, &modified);
        assert!(outcome.report.converged);
        assert_ne!(outcome.model.params(), model.params());
    }
}
