//! The traced replica: a session rebuilt from the layer crates' public
//! calls, in the order the session makes them, with a span around each
//! call. Its answers are compared with the session's; equal answers show
//! the replica times the same program.

use crate::spans::{SpanId, Tracer};
use gopher_core::ExplainRequest;
use gopher_data::{Dataset, Encoded, Encoder};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, BiasPrecomp, InfluenceBackend, InfluenceConfig, ModelFamily};
use gopher_models::{Forest, LogisticRegression, Model};
use gopher_patterns::coverage::DEFAULT_COVERAGE_CACHE_CAP;
use gopher_patterns::{
    generate_predicates, lattice, min_count_for, topk, BitSet, Candidate, CoverageCache,
    PredicateIndex, PredicateTable, ScoreFn, SearchStats, SweepStructure,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Quantile bins per numeric feature: `SessionBuilder`'s default.
const MAX_BINS: usize = 4;

/// A model family the replica knows how to trace. Every family's sweep
/// times the backend's own scorer; a family whose scorer has steps worth
/// timing apart replays them on the coverages the sweep scored.
pub trait Traced: ModelFamily + Sized {
    /// Whether a sweep keeps its scored coverages for [`Traced::replay`].
    const REPLAYED: bool = false;

    /// Replays the scorer's steps on `scored` (coverage rows and the
    /// backend scorer's value) in labelled spans, and returns how many
    /// replayed values differ from the scorer's. Runs outside the
    /// request's span, so it adds nothing to the request's time.
    fn replay(
        _replica: &Replica<'_, Self>,
        _request: &ExplainRequest,
        _precomp: &BiasPrecomp,
        _scored: &[(Vec<u32>, f64)],
        _id: u32,
    ) -> usize {
        0
    }
}

impl Traced for LogisticRegression {}

/// A forest whose predictions are timed, so the metric re-evaluation's
/// predict time can be told apart from the metric arithmetic.
#[derive(Clone)]
struct Predicting<'f> {
    forest: &'f Forest,
    ns: Arc<AtomicU64>,
}

impl Predicting<'_> {
    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let t = Instant::now();
        let value = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        value
    }
}

impl Model for Predicting<'_> {
    fn n_inputs(&self) -> usize {
        self.forest.n_inputs()
    }
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.timed(|| self.forest.predict_proba(x))
    }
    fn predict(&self, x: &[f64]) -> f64 {
        self.timed(|| self.forest.predict(x))
    }
}

impl Traced for Forest {
    const REPLAYED: bool = true;

    /// The unlearning backend's per-candidate steps, as
    /// `UnlearningBackend::scorer` takes them: `Forest::unlearn`, then the
    /// fairness metric re-evaluated on the unlearned forest (its
    /// predictions timed as `models.predict`), under one `models.replay`
    /// span. Each replayed value must equal the scorer's, which shows the
    /// steps are still the scorer's.
    fn replay(
        replica: &Replica<'_, Self>,
        request: &ExplainRequest,
        precomp: &BiasPrecomp,
        scored: &[(Vec<u32>, f64)],
        id: u32,
    ) -> usize {
        let tracer = replica.tracer;
        let forest = replica.backend.forest();
        let (train, test) = (&replica.train, &replica.test);
        let (metric, eval) = (request.metric, request.bias_eval);
        let (base_hard, base_smooth) = (precomp.base_hard, precomp.base_smooth);
        tracer.span("models.replay", None, id, |root| {
            scored
                .iter()
                .filter(|(rows, value)| {
                    if base_hard.abs() < 1e-12 {
                        return *value != 0.0;
                    }
                    let unlearned = tracer.span("models.unlearn", Some(root), id, |_| {
                        forest.unlearn(train, rows)
                    });
                    let timed = Predicting {
                        forest: &unlearned,
                        ns: Arc::default(),
                    };
                    let delta = tracer.span("fairness.bias", Some(root), id, |bias| {
                        let start = tracer.now();
                        let delta = match eval {
                            BiasEval::ReEvalSmooth => {
                                gopher_fairness::smooth_bias(metric, &timed, test) - base_smooth
                            }
                            BiasEval::ChainRule | BiasEval::ReEvalHard => {
                                gopher_fairness::bias(metric, &timed, test) - base_hard
                            }
                        };
                        let predict_ns = timed.ns.load(Ordering::Relaxed);
                        tracer.record("models.predict", start, start + predict_ns, Some(bias), id);
                        delta
                    });
                    -delta / base_hard != *value
                })
                .count()
        })
    }
}

/// What the replica's sweeps produced, summed over the traced requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepTotals {
    /// Candidates the lattice generated.
    pub generated: usize,
    /// Candidates that survived pruning.
    pub kept: usize,
    /// Merge resolution the lattice reported inside its sweeps.
    pub merge_resolution: Duration,
    /// Candidates replayed by [`Traced::replay`].
    pub replayed: usize,
    /// Replayed candidates whose value differs from the scorer's.
    pub replay_mismatches: usize,
}

impl SweepTotals {
    /// Adds one sweep's counters. Every sweep reports its structure's build
    /// time as level 1's structural time, whether it built the structure
    /// or found it cached; the `patterns.structure` span counts each build
    /// once, so only the structural time of levels ≥ 2, the merges the
    /// sweep resolved, is added here.
    fn add(&mut self, stats: &SearchStats) {
        self.generated += stats.levels.iter().map(|l| l.generated).sum::<usize>();
        self.kept += stats.total_kept();
        self.merge_resolution += stats
            .levels
            .iter()
            .skip(1)
            .map(|l| l.structural)
            .sum::<Duration>();
    }
}

/// One traced answer: the top-k, and the ground-truth biases when asked.
pub struct Answer {
    /// The selected candidates.
    pub top: Vec<Candidate>,
    /// New bias of each top-k pattern's retrained model.
    pub ground_truth: Option<Vec<f64>>,
    /// The request's root span.
    pub span: SpanId,
}

/// A session rebuilt from the layer crates.
pub struct Replica<'t, M: ModelFamily> {
    /// Where the spans go.
    pub tracer: &'t Tracer,
    threads: usize,
    train_raw: Dataset,
    encoder: Encoder,
    /// Encoded training set.
    pub train: Encoded,
    /// Encoded test set.
    pub test: Encoded,
    /// The influence backend.
    pub backend: M::Backend,
    table: PredicateTable,
    index: PredicateIndex,
    coverage: CoverageCache,
    structures: Vec<((usize, usize), Arc<SweepStructure>)>,
    /// Finished sweeps by request identity (the request's debug form with
    /// k and the ground-truth flag cleared), as the session's sweep cache
    /// keeps them.
    sweeps_done: HashMap<String, Vec<Candidate>>,
    precomp: HashMap<FairnessMetric, BiasPrecomp>,
    /// Sweep counters.
    pub sweeps: SweepTotals,
    /// Deltas whose influence update fell back to a rebuild.
    pub update_fallbacks: usize,
}

impl<'t, M: Traced> Replica<'t, M> {
    /// Builds the replica as a session is built: generate, encode, fit,
    /// build the backend, generate predicates, build the predicate index.
    pub fn build(
        tracer: &'t Tracer,
        id: u32,
        threads: usize,
        generate: impl FnOnce() -> (Dataset, Dataset),
        make_model: impl FnOnce(usize) -> M,
    ) -> Self {
        tracer.span("core.build", None, id, |root| {
            let (train_raw, test_raw) =
                tracer.span("data.generate", Some(root), id, |_| generate());
            let (encoder, train, test) = tracer.span("data.encode", Some(root), id, |_| {
                let encoder = Encoder::fit(&train_raw);
                let train = encoder.transform(&train_raw);
                let test = encoder.transform(&test_raw);
                (encoder, train, test)
            });
            let model = tracer.span("models.fit", Some(root), id, |_| {
                let mut model = make_model(train.n_cols());
                ModelFamily::fit(&mut model, &train);
                model
            });
            let backend = tracer.span("influence.build", Some(root), id, |_| {
                M::Backend::build(model, &train, InfluenceConfig::default())
            });
            let table = tracer.span("patterns.predicates", Some(root), id, |_| {
                generate_predicates(&train_raw, MAX_BINS)
            });
            let (coverage, index) = tracer.span("patterns.index", Some(root), id, |_| {
                let coverage = CoverageCache::with_capacity_cap(DEFAULT_COVERAGE_CACHE_CAP);
                let index = PredicateIndex::build(&table, &coverage);
                (coverage, index)
            });
            Replica {
                tracer,
                threads,
                train_raw,
                encoder,
                train,
                test,
                backend,
                table,
                index,
                coverage,
                structures: Vec::new(),
                sweeps_done: HashMap::new(),
                precomp: HashMap::new(),
                sweeps: SweepTotals::default(),
                update_fallbacks: 0,
            }
        })
    }

    /// Answers one request through the layer calls.
    pub fn explain(&mut self, request: &ExplainRequest, id: u32) -> Answer {
        let tracer = self.tracer;
        let root = tracer.open("core.explain", None, id);
        let metric = request.metric;
        if !self.precomp.contains_key(&metric) {
            let precomp = tracer.span("influence.precompute", Some(root), id, |_| {
                self.backend.precompute(metric, &self.test)
            });
            self.precomp.insert(metric, precomp);
        }
        let precomp = self.precomp[&metric].clone();
        let sweep_key = format!("{:?}", request.clone().with_k(1).with_ground_truth(false));
        let mut scored = Vec::new();
        if !self.sweeps_done.contains_key(&sweep_key) {
            let candidates = self.sweep(request, precomp.clone(), root, id, &mut scored);
            self.sweeps_done.insert(sweep_key.clone(), candidates);
        }
        let this = &*self;
        let candidates = &this.sweeps_done[&sweep_key];
        let top = tracer.span("patterns.topk", Some(root), id, |_| {
            topk::top_k(candidates, request.k, request.containment_threshold)
        });
        let ground_truth = request.ground_truth_for_topk.then(|| {
            let subsets: Vec<Vec<u32>> = top.iter().map(|c| c.coverage.to_indices()).collect();
            let models = tracer.span("influence.ground_truth", Some(root), id, |_| {
                this.backend.ground_truth_models(
                    &this.train,
                    &subsets,
                    this.threads.min(subsets.len()),
                )
            });
            tracer.span("fairness.bias", Some(root), id, |_| {
                gopher_fairness::bias(metric, this.backend.model(), &this.test)
            });
            models
                .iter()
                .map(|m| {
                    tracer.span("fairness.bias", Some(root), id, |_| {
                        gopher_fairness::bias(metric, m, &this.test)
                    })
                })
                .collect()
        });
        tracer.close(root);
        if !scored.is_empty() {
            let mismatches = M::replay(self, request, &precomp, &scored, id);
            self.sweeps.replayed += scored.len();
            self.sweeps.replay_mismatches += mismatches;
        }
        Answer {
            top,
            ground_truth,
            span: root,
        }
    }

    /// One lattice sweep for `request`: the structure for its support
    /// count and depth (built on first use), then the sweep with the
    /// backend's scorer timed per candidate. Families that replay their
    /// scorer get each scored coverage and value in `scored`.
    fn sweep(
        &mut self,
        request: &ExplainRequest,
        precomp: BiasPrecomp,
        root: SpanId,
        id: u32,
        scored: &mut Vec<(Vec<u32>, f64)>,
    ) -> Vec<Candidate> {
        let tracer = self.tracer;
        let key = (
            min_count_for(request.lattice.support_threshold, self.table.n_rows()),
            request.lattice.max_predicates,
        );
        let structure = match self.structures.iter().find(|(k, _)| *k == key) {
            Some((_, s)) => Arc::clone(s),
            None => {
                let built = tracer.span("patterns.structure", Some(root), id, |_| {
                    Arc::new(SweepStructure::build(&self.index, &request.lattice))
                });
                self.structures.push((key, Arc::clone(&built)));
                built
            }
        };
        let this = &*self;
        let sweep = tracer.open("patterns.sweep", Some(root), id);
        let call = this.backend.scorer(
            &this.train,
            &this.test,
            request.metric,
            precomp,
            request.estimator,
            request.bias_eval,
        );
        let timed: ScoreFn<'_> = Box::new(move |coverage: &BitSet| {
            let rows = coverage.to_indices();
            let start = tracer.now();
            let value = call(&rows);
            tracer.record("influence.score", start, tracer.now(), Some(sweep), id);
            if M::REPLAYED {
                scored.push((rows, value));
            }
            value
        });
        let mut instrumented = [timed];
        let (candidates, stats) = lattice::compute_candidates_multi(
            &this.table,
            &mut instrumented,
            &request.lattice,
            &this.coverage,
            &structure,
            this.threads,
        )
        .pop()
        .expect("one closure in, one sweep out");
        drop(instrumented);
        tracer.close(sweep);
        self.sweeps.add(&stats);
        candidates
    }

    /// Applies a training-data delta as a session update does: patch the
    /// data, update the influence backend, patch the predicate table,
    /// rebuild the index, re-anchor or drop each cached structure.
    pub fn update(&mut self, removed: &[usize], added: &Dataset, id: u32) {
        let tracer = self.tracer;
        let root = tracer.open("core.update", None, id);
        let mut mask = vec![false; self.train_raw.n_rows()];
        for &r in removed {
            mask[r] = true;
        }
        let (new_raw, new_train) = tracer.span("data.encode", Some(root), id, |_| {
            let new_raw = self.train_raw.patched(&mask, added);
            let new_train = self.train.patched(&mask, &self.encoder.transform(added));
            (new_raw, new_train)
        });
        let keep = self.train_raw.n_rows() - removed.len();
        let removed_pairs: Vec<(&[f64], f64)> = removed
            .iter()
            .map(|&r| (self.train.x.row(r), self.train.y[r]))
            .collect();
        let added_pairs: Vec<(&[f64], f64)> = (keep..new_train.n_rows())
            .map(|r| (new_train.x.row(r), new_train.y[r]))
            .collect();
        let report = tracer.span("influence.update", Some(root), id, |_| {
            self.backend.update(
                &self.train,
                &new_train,
                removed,
                &removed_pairs,
                &added_pairs,
            )
        });
        self.update_fallbacks += usize::from(report.fell_back());
        let table = tracer.span("patterns.table_patch", Some(root), id, |_| {
            self.table.patch(&new_raw, removed)
        });
        let (coverage, index) = tracer.span("patterns.index", Some(root), id, |_| {
            let coverage = CoverageCache::with_capacity_cap(DEFAULT_COVERAGE_CACHE_CAP);
            let index = PredicateIndex::build(&table, &coverage);
            (coverage, index)
        });
        let structures = std::mem::take(&mut self.structures);
        self.structures = tracer.span("patterns.structure_patch", Some(root), id, |_| {
            structures
                .into_iter()
                .filter_map(|(key, s)| {
                    s.patched(&index, &coverage, None)
                        .map(|p| (key, Arc::new(p)))
                })
                .collect()
        });
        self.precomp.clear();
        self.sweeps_done.clear();
        self.train_raw = new_raw;
        self.train = new_train;
        self.table = table;
        self.index = index;
        self.coverage = coverage;
        tracer.close(root);
    }

    /// Merges resolved so far across the cached structures.
    pub fn merges_resolved(&self) -> usize {
        self.structures
            .iter()
            .map(|(_, s)| s.merges_resolved())
            .sum()
    }
}

/// Whether the replica's answer equals the session's: same patterns,
/// supports and estimated responsibilities, and the same ground-truth
/// biases when ground truth was asked for.
pub fn matches_session(
    session: &gopher_core::ExplainResponse,
    replica: &Answer,
) -> Result<(), String> {
    let ours = &session.report.explanations;
    if ours.len() != replica.top.len() {
        return Err(format!(
            "{} explanations vs the replica's {}",
            ours.len(),
            replica.top.len()
        ));
    }
    for (i, (e, c)) in ours.iter().zip(&replica.top).enumerate() {
        if e.candidate.pattern.ids() != c.pattern.ids()
            || e.support != c.support
            || e.est_responsibility != c.responsibility
        {
            return Err(format!("explanation {i} differs from the replica's"));
        }
    }
    if let Some(biases) = &replica.ground_truth {
        let session_biases: Vec<Option<f64>> =
            ours.iter().map(|e| e.ground_truth_new_bias).collect();
        let replica_biases: Vec<Option<f64>> = biases.iter().copied().map(Some).collect();
        if session_biases != replica_biases {
            return Err("ground-truth biases differ from the replica's".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_models::ForestConfig;
    use gopher_perfbench::seq::Key;
    use gopher_perfbench::workloads as w;

    /// A replica over German with `family`, after one explain on `key`.
    fn explained<M: Traced>(
        tracer: &Tracer,
        key: Key,
        family: impl FnOnce(usize) -> M,
    ) -> Replica<'_, M> {
        let mut replica = Replica::build(tracer, 0, 1, w::german_data, family);
        replica.explain(&key.request(3, false), 1);
        replica
    }

    #[test]
    fn a_sweep_on_a_cached_structure_adds_no_build_time() {
        let tracer = Tracer::default();
        let mut replica = explained(&tracer, w::FOREST_KEY, |n| {
            LogisticRegression::new(n, w::L2)
        });
        let other = w::FOREST_KEY
            .request(3, false)
            .with_metric(FairnessMetric::EqualOpportunity);
        replica.explain(&other, 2);
        let builds = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "patterns.structure")
            .count();
        assert_eq!(builds, 1, "the second request reuses the cached structure");

        let structure = Arc::clone(&replica.structures[0].1);
        let mut scorers: [ScoreFn<'_>; 1] = [Box::new(|c: &BitSet| c.count() as f64)];
        let (_, stats) = lattice::compute_candidates_multi(
            &replica.table,
            &mut scorers,
            &other.lattice,
            &replica.coverage,
            &structure,
            1,
        )
        .pop()
        .expect("one sweep");
        assert!(stats.levels.len() > 1);
        assert_eq!(stats.levels[0].structural, structure.build_time());
        let mut totals = SweepTotals::default();
        totals.add(&stats);
        assert_eq!(
            totals.merge_resolution + structure.build_time(),
            stats.structural_time()
        );
    }

    #[test]
    fn the_forest_replay_reproduces_the_backend_scorer() {
        let tracer = Tracer::default();
        // Singles only, to keep the unlearning sweep short.
        let singles = Key {
            depth: 1,
            ..w::FOREST_KEY
        };
        let replica = explained(&tracer, singles, |n| {
            Forest::new(n, ForestConfig::default())
        });
        let spans = tracer.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert!(replica.sweeps.replayed > 0);
        assert_eq!(replica.sweeps.replay_mismatches, 0);
        assert_eq!(count("influence.score"), replica.sweeps.replayed);
        assert_eq!(count("models.unlearn"), replica.sweeps.replayed);
        let replay = spans
            .iter()
            .position(|s| s.name == "models.replay")
            .expect("a replay span");
        assert_eq!(
            spans[replay].parent, None,
            "the replay runs outside the request's span"
        );
    }
}
