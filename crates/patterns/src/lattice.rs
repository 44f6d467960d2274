//! Lattice search for candidate explanations (paper Algorithm 1,
//! `ComputeCandidates`), staged into structural and scoring phases.
//!
//! Each level of the search runs in two explicit phases:
//!
//! 1. a **structural phase** — metric-independent: enumerate merge pairs
//!    over the *union* of all scorers' frontiers, intersect coverages, count
//!    support, and record every resolved merge in the sweep's
//!    [`SweepStructure`]. The pair space is chunked across `gopher-par`
//!    workers with deterministic, order-preserving concatenation, so the
//!    artifact is bit-identical at any thread count;
//! 2. per-scorer **scoring/pruning phases** — each scorer walks its own
//!    frontier (pruning is score-dependent), resolving every merge against
//!    the artifact instead of re-intersecting, and runs on its own worker.
//!
//! The split is what lets a session reuse the structural half across
//! metrics, estimators, and bias evaluations — see `SweepStructure`.

use crate::bitset::BitSet;
use crate::candidates::PredicateTable;
use crate::coverage::CoverageCache;
use crate::index::PredicateIndex;
use crate::pattern::Pattern;
use crate::structure::{min_count_for, SweepStructure};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeConfig {
    /// Minimum support τ (fraction of training rows a pattern must cover).
    pub support_threshold: f64,
    /// Maximum number of predicates per pattern (lattice depth).
    pub max_predicates: usize,
    /// The paper's second heuristic: only keep a merged pattern if its
    /// responsibility strictly exceeds both parents'. Disable for the
    /// ablation study (recovers more candidates at a steep cost).
    pub prune_by_responsibility: bool,
    /// Optional safety valve: keep at most this many candidates per level
    /// (the best by responsibility). `None` reproduces the paper exactly.
    pub max_level_candidates: Option<usize>,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        Self {
            support_threshold: 0.05,
            max_predicates: 4,
            prune_by_responsibility: true,
            max_level_candidates: None,
        }
    }
}

/// A boxed scoring callback: coverage bitset in, estimated responsibility
/// out. [`compute_candidates_multi`] fans one of these out per request —
/// each scorer runs on its own worker thread, hence the `Send` bound.
pub type ScoreFn<'a> = Box<dyn FnMut(&BitSet) -> f64 + Send + 'a>;

/// A scored candidate explanation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pattern (predicate ids into the table used for the search).
    pub pattern: Pattern,
    /// Rows covered by the pattern. Shared (`Arc`) so cloning candidates
    /// between lattice levels, the top-k selection, and a session's coverage
    /// cache is a refcount bump instead of an `O(n_rows)` copy.
    pub coverage: Arc<BitSet>,
    /// `Sup(φ)` — fraction of training rows covered.
    pub support: f64,
    /// Estimated causal responsibility `R_F(D(φ))` (Definition 3.2).
    pub responsibility: f64,
    /// `U(φ) = R_F(D(φ)) / Sup(φ)` (Definition 3.5).
    pub interestingness: f64,
}

/// Per-level search statistics (the paper's Table 7 columns).
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Lattice level (number of predicates).
    pub level: usize,
    /// Merge pairs that passed the structural checks and were scored.
    pub generated: usize,
    /// Candidates kept after all pruning.
    pub kept: usize,
    /// Wall-clock time of the level's *shared structural phase* (coverage
    /// intersection + support counting over the union frontier; for level 1,
    /// the artifact's build time). The same cost appears in every scorer's
    /// stats — it is what a solo run would have paid itself.
    pub structural: Duration,
    /// Wall-clock time this scorer spent on the level, including its share
    /// of the structural phase (`structural` + its own scoring pass), so
    /// reported search times stay comparable with pre-staged runs.
    pub duration: Duration,
}

/// Statistics of a whole search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// One entry per explored level.
    pub levels: Vec<LevelStats>,
    /// Total number of responsibility evaluations.
    pub total_scored: usize,
}

impl SearchStats {
    /// Total candidates kept across levels.
    pub fn total_kept(&self) -> usize {
        self.levels.iter().map(|l| l.kept).sum()
    }

    /// Wall-clock spent in the shared structural phases, summed across
    /// levels (the metric-independent part of the sweep).
    pub fn structural_time(&self) -> Duration {
        self.levels.iter().map(|l| l.structural).sum()
    }
}

/// Runs Algorithm 1: generates all candidate patterns up to
/// `config.max_predicates` predicates, scoring each coverage set with the
/// caller's `score` closure (the estimated causal responsibility — see
/// `gopher_influence::BiasInfluence::responsibility`).
///
/// Pruning, as in the paper:
/// * support `< τ` — never generated (anti-monotone: also prunes the whole
///   sub-lattice);
/// * conflicting/redundant same-feature predicate pairs — never merged;
/// * responsibility not exceeding both parents — dropped (when
///   `prune_by_responsibility` is set).
///
/// This convenience wrapper builds a transient coverage cache, predicate
/// index, and structural artifact; long-lived callers (sessions) hold their
/// own and call [`compute_candidates_multi`].
pub fn compute_candidates<F>(
    table: &PredicateTable,
    mut score: F,
    config: &LatticeConfig,
) -> (Vec<Candidate>, SearchStats)
where
    F: FnMut(&BitSet) -> f64 + Send,
{
    let cache = CoverageCache::new();
    let index = PredicateIndex::build(table, &cache);
    let structure = SweepStructure::build(&index, config);
    let mut scorer: ScoreFn<'_> = Box::new(&mut score);
    compute_candidates_multi(
        table,
        std::slice::from_mut(&mut scorer),
        config,
        &cache,
        &structure,
        1,
    )
    .pop()
    .expect("one scorer in, one result out")
}

/// The multi-query variant of [`compute_candidates`]: one staged lattice
/// sweep with the scoring callbacks fanned out per request.
///
/// All scorers share the structural work — pair enumeration over the union
/// of their frontiers, coverage intersection, and support counting — which
/// runs as a chunked parallel pass over up to `threads` workers and lands in
/// `structure`; each scorer then keeps its own frontier, pruning decisions,
/// and [`SearchStats`], running on its own worker. The result for scorer `i`
/// is **identical** to what `compute_candidates(table, scorers[i], config)`
/// would return on its own, at any thread count: per-scorer frontiers evolve
/// exactly as in a solo run (scorer `i` is always driven by exactly one
/// thread, sequentially), merged coverages are decomposition-independent
/// (the AND of a pattern's predicates, whichever parents produced it), and
/// the structural pass concatenates its chunks in serial pair order.
///
/// Both `cache` and `structure` outlive the call on purpose: an interactive
/// session passes a long-lived cache and a per-structural-config artifact,
/// so later queries — a different metric, estimator, or bias evaluation over
/// the same structural knobs — skip every intersection this sweep resolved.
///
/// # Panics
/// If `structure` was built for a different structural configuration or
/// row count than `config`/`table` describe.
pub fn compute_candidates_multi(
    table: &PredicateTable,
    scorers: &mut [ScoreFn<'_>],
    config: &LatticeConfig,
    cache: &CoverageCache,
    structure: &SweepStructure,
    threads: usize,
) -> Vec<(Vec<Candidate>, SearchStats)> {
    assert!(
        (0.0..1.0).contains(&config.support_threshold),
        "support threshold must be in [0, 1)"
    );
    assert!(
        config.max_predicates >= 1,
        "need at least one predicate per pattern"
    );
    let n = table.n_rows();
    let min_count = min_count_for(config.support_threshold, n);
    assert_eq!(
        structure.min_count(),
        min_count,
        "structural artifact was built for a different support threshold"
    );
    assert_eq!(
        structure.n_rows(),
        n,
        "structural artifact was built for a different dataset"
    );

    /// Everything one scorer owns during the sweep; fanning a level out
    /// means handing each `ScorerRun` to a worker thread.
    struct ScorerRun<'s, 'a> {
        score: &'s mut ScoreFn<'a>,
        stats: SearchStats,
        all: Vec<Candidate>,
        frontier: Vec<Candidate>,
        done: bool,
    }
    let mut runs: Vec<ScorerRun<'_, '_>> = scorers
        .iter_mut()
        .map(|score| ScorerRun {
            score,
            stats: SearchStats::default(),
            all: Vec::new(),
            frontier: Vec::new(),
            done: false,
        })
        .collect();

    // Level 1. Structural phase: the artifact's supported singles (built
    // once per structural config, from the session's predicate index).
    // Scoring phase: fan the per-scorer passes out.
    let singles = structure.singles();
    gopher_par::par_for_each_mut(threads, &mut runs, |_, run| {
        let t0 = Instant::now();
        let mut frontier: Vec<Candidate> = Vec::with_capacity(singles.len());
        for single in singles {
            let responsibility = (run.score)(&single.coverage);
            run.stats.total_scored += 1;
            let support = single.count as f64 / n as f64;
            frontier.push(Candidate {
                pattern: Pattern::singleton(single.id),
                coverage: Arc::clone(&single.coverage),
                support,
                responsibility,
                interestingness: responsibility / support,
            });
        }
        truncate_level(&mut frontier, config.max_level_candidates);
        // A solo run pays the structural pass itself, so every scorer's
        // level-1 duration includes it — keeping reported search times
        // comparable with single-query runs.
        run.stats.levels.push(LevelStats {
            level: 1,
            generated: singles.len(),
            kept: frontier.len(),
            structural: structure.build_time(),
            duration: structure.build_time() + t0.elapsed(),
        });
        run.all.extend(frontier.iter().cloned());
        run.frontier = frontier;
    });

    // Levels 2..=max: merge pairs sharing all but one predicate.
    for level in 2..=config.max_predicates {
        if runs.iter().all(|r| r.done) {
            break;
        }

        // Structural phase: resolve every merge reachable from the union of
        // the live frontiers, chunked across workers. Per-scorer
        // interestingness pruning means no single frontier is "the"
        // frontier, so the shared pass enumerates the union — a superset of
        // every scorer's own pair space. The union is collected in
        // first-seen order (runs in input order, each frontier in its own
        // order), deterministic because the frontiers themselves are.
        //
        // With a single worker the pass is skipped entirely — it exists to
        // spread coverage intersections across threads, and inline it would
        // only duplicate the enumeration the scoring phase performs anyway
        // (each scorer's `resolve` computes unseen merges lazily, exactly
        // like the pre-staged engine did). Values are identical either way;
        // skipping keeps single-threaded sweeps at their old cost.
        let t_structural = Instant::now();
        if threads > 1 {
            let mut union: Vec<UnionParent> = Vec::new();
            let mut union_index: HashMap<Vec<u16>, usize> = HashMap::new();
            for (run_idx, run) in runs
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.done && r.frontier.len() >= 2)
            {
                // Scorers beyond the mask width share the last bit: their
                // pairings become conservatively resolvable (extra work,
                // never wrong values).
                let bit = 1u64 << run_idx.min(63);
                for cand in &run.frontier {
                    match union_index.get(cand.pattern.ids()) {
                        Some(&at) => union[at].scorers |= bit,
                        None => {
                            union_index.insert(cand.pattern.ids().to_vec(), union.len());
                            union.push(UnionParent {
                                pattern: cand.pattern.clone(),
                                coverage: Arc::clone(&cand.coverage),
                                scorers: bit,
                            });
                        }
                    }
                }
            }
            resolve_union_merges(table, cache, structure, &union, threads);
        }
        let structural_cost = t_structural.elapsed();

        // Scoring phase: each scorer walks its own frontier on its own
        // worker, resolving merges against the artifact (all hits after the
        // structural pass; the fallback closure only fires for territory a
        // warm artifact has never seen).
        gopher_par::par_for_each_mut(threads, &mut runs, |_, run| {
            if run.done {
                return;
            }
            if run.frontier.len() < 2 {
                run.done = true;
                return;
            }
            let t0 = Instant::now();
            let mut next: Vec<Candidate> = Vec::new();
            let mut seen: HashSet<Vec<u16>> = HashSet::new();
            let mut generated = 0usize;
            for i in 0..run.frontier.len() {
                for j in (i + 1)..run.frontier.len() {
                    let (a, b) = (&run.frontier[i], &run.frontier[j]);
                    let Some(merged) = a.pattern.merge(&b.pattern) else {
                        continue;
                    };
                    if !seen.insert(merged.ids().to_vec()) {
                        continue;
                    }
                    if merge_conflicts(table, &a.pattern, &b.pattern) {
                        continue;
                    }
                    let record = structure.resolve(merged.ids(), cache, &a.coverage, &b.coverage);
                    if record.count < min_count {
                        continue;
                    }
                    let coverage = record
                        .coverage
                        .expect("supported merges retain their coverage");
                    generated += 1;
                    let responsibility = (run.score)(&coverage);
                    run.stats.total_scored += 1;
                    if config.prune_by_responsibility
                        && (responsibility <= a.responsibility
                            || responsibility <= b.responsibility)
                    {
                        continue;
                    }
                    let support = record.count as f64 / n as f64;
                    next.push(Candidate {
                        pattern: merged,
                        coverage,
                        support,
                        responsibility,
                        interestingness: responsibility / support,
                    });
                }
            }
            truncate_level(&mut next, config.max_level_candidates);
            run.stats.levels.push(LevelStats {
                level,
                generated,
                kept: next.len(),
                structural: structural_cost,
                duration: structural_cost + t0.elapsed(),
            });
            if next.is_empty() {
                run.done = true;
            } else {
                run.all.extend(next.iter().cloned());
                run.frontier = next;
            }
        });
    }

    runs.into_iter().map(|run| (run.all, run.stats)).collect()
}

/// A frontier pattern in the structural phase's union: the pattern, its
/// coverage, and a bitmask of which scorers hold it. The mask is what keeps
/// the shared pass *exact* rather than a blow-up: a pair is only worth
/// resolving when some scorer holds **both** parents (masks intersect) —
/// cross-scorer-only pairings would compute coverages nobody asks for.
struct UnionParent {
    pattern: Pattern,
    coverage: Arc<BitSet>,
    scorers: u64,
}

/// True when the two differing predicates of a mergeable pair conflict (the
/// shared predicates were already vetted in the parents).
fn merge_conflicts(table: &PredicateTable, a: &Pattern, b: &Pattern) -> bool {
    let da = a.difference(b);
    let db = b.difference(a);
    debug_assert_eq!(da.len(), 1);
    debug_assert_eq!(db.len(), 1);
    table
        .predicate(da[0])
        .conflicts_with(table.predicate(db[0]))
}

/// The parallel structural merge pass, in two phases over the chunked pair
/// space of the union frontier:
///
/// 1. **Enumerate** (parallel, lock-free): each chunk walks its `(i, j)`
///    pairs — mask check, merge, conflict check — filtering against a
///    *snapshot* of the artifact's resolved keys (exact for the whole pass,
///    since nothing inserts until phase 2 finishes). Chunks are then
///    concatenated in serial pair order and globally deduplicated, first
///    generating pair wins (any pair of the same pattern yields identical
///    bits).
/// 2. **Compute** (parallel): one fused and+popcount per *distinct* merge,
///    with the full AND materialized (and routed through the coverage
///    cache) only for merges that meet the artifact's support count —
///    failed merges, the majority at realistic thresholds, cost a single
///    counting pass and no allocation; records land in the artifact in the
///    deduplicated (deterministic) order.
///
/// The split keeps the hot enumeration loop free of the artifact's mutex
/// and guarantees no merged pattern is intersected twice, however many of
/// its parent decompositions straddle chunk boundaries.
fn resolve_union_merges(
    table: &PredicateTable,
    cache: &CoverageCache,
    structure: &SweepStructure,
    union: &[UnionParent],
    threads: usize,
) {
    let m = union.len();
    if m < 2 {
        return;
    }
    let known = structure.known_keys();
    let chunks = pair_chunks(m, threads);
    let found = gopher_par::par_map(threads, &chunks, |_, range| {
        let mut out: Vec<(Box<[u16]>, usize, usize)> = Vec::new();
        let mut local_seen: HashSet<Box<[u16]>> = HashSet::new();
        for i in range.clone() {
            for j in (i + 1)..m {
                let (a, b) = (&union[i], &union[j]);
                if a.scorers & b.scorers == 0 {
                    continue; // no scorer holds both parents
                }
                let Some(merged) = a.pattern.merge(&b.pattern) else {
                    continue;
                };
                let ids: Box<[u16]> = merged.ids().into();
                if known.contains(&ids) || !local_seen.insert(ids.clone()) {
                    continue;
                }
                if merge_conflicts(table, &a.pattern, &b.pattern) {
                    continue;
                }
                out.push((ids, i, j));
            }
        }
        out
    });
    let mut merges: Vec<(Box<[u16]>, usize, usize)> = Vec::new();
    let mut seen: HashSet<Box<[u16]>> = HashSet::new();
    for (ids, i, j) in found.into_iter().flatten() {
        if seen.insert(ids.clone()) {
            merges.push((ids, i, j));
        }
    }
    let records = gopher_par::par_map(threads, &merges, |_, (ids, i, j)| {
        let (a, b) = (&union[*i], &union[*j]);
        structure.compute_record(ids, cache, &a.coverage, &b.coverage)
    });
    for ((ids, _, _), record) in merges.iter().zip(records) {
        structure.insert(ids, record);
    }
}

/// Splits the upper-triangular pair space of `m` items into contiguous
/// outer-index ranges with roughly equal pair counts, a few chunks per
/// worker so `gopher-par`'s cursor can balance uneven merge costs.
fn pair_chunks(m: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let total_pairs = m * (m - 1) / 2;
    let target_chunks = (threads.max(1) * 4).min(total_pairs.max(1));
    let per_chunk = total_pairs.div_ceil(target_chunks).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..m {
        acc += m - 1 - i;
        if acc >= per_chunk {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < m {
        chunks.push(start..m);
    }
    chunks
}

/// Keeps at most `cap` candidates (the best by responsibility).
fn truncate_level(level: &mut Vec<Candidate>, cap: Option<usize>) {
    if let Some(cap) = cap {
        if level.len() > cap {
            level.sort_by(|a, b| b.responsibility.total_cmp(&a.responsibility));
            level.truncate(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_predicates;
    use gopher_data::generators::german;

    /// A deterministic toy score: fraction of covered rows that are
    /// positive-labeled (monotone enough to exercise the pruning paths).
    fn toy_score(labels: &[u8]) -> impl FnMut(&BitSet) -> f64 + '_ {
        move |cov: &BitSet| {
            let total = cov.count().max(1);
            let pos: usize = cov.iter().map(|r| labels[r as usize] as usize).sum();
            pos as f64 / total as f64
        }
    }

    #[test]
    fn all_candidates_meet_support_threshold() {
        let d = german(400, 61);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.05,
            ..Default::default()
        };
        let (cands, _) = compute_candidates(&table, toy_score(d.labels()), &config);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.support >= 0.05, "support {} below threshold", c.support);
            assert_eq!(c.coverage.count(), (c.support * 400.0).round() as usize);
        }
    }

    #[test]
    fn responsibility_pruning_enforces_strict_improvement() {
        let d = german(400, 62);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.02,
            ..Default::default()
        };
        let (cands, _) = compute_candidates(&table, toy_score(d.labels()), &config);
        // Every multi-predicate candidate must out-score every strict
        // sub-pattern present in the result (transitively guaranteed by the
        // per-merge check against both parents; we verify against all
        // single-predicate ancestors).
        let singles: std::collections::HashMap<u16, f64> = cands
            .iter()
            .filter(|c| c.pattern.len() == 1)
            .map(|c| (c.pattern.ids()[0], c.responsibility))
            .collect();
        for c in cands.iter().filter(|c| c.pattern.len() == 2) {
            for id in c.pattern.ids() {
                if let Some(&parent_resp) = singles.get(id) {
                    assert!(
                        c.responsibility > parent_resp,
                        "merged pattern does not improve on its parent"
                    );
                }
            }
        }
    }

    #[test]
    fn disabling_responsibility_pruning_yields_more_candidates() {
        let d = german(400, 63);
        let table = generate_predicates(&d, 4);
        let pruned = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        )
        .0
        .len();
        let unpruned = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                prune_by_responsibility: false,
                max_predicates: 3,
                max_level_candidates: None,
            },
        )
        .0
        .len();
        assert!(
            unpruned > pruned,
            "unpruned {unpruned} should exceed pruned {pruned}"
        );
    }

    #[test]
    fn no_duplicate_patterns() {
        let d = german(300, 64);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                prune_by_responsibility: false,
                max_predicates: 3,
                max_level_candidates: None,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            assert!(
                seen.insert(c.pattern.ids().to_vec()),
                "duplicate {:?}",
                c.pattern
            );
        }
    }

    #[test]
    fn no_conflicting_predicates_within_pattern() {
        let d = german(300, 65);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.03,
                prune_by_responsibility: false,
                max_predicates: 3,
                max_level_candidates: None,
            },
        );
        for c in &cands {
            let ids = c.pattern.ids();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    assert!(
                        !table.predicate(a).conflicts_with(table.predicate(b)),
                        "conflicting predicates in pattern {:?}",
                        c.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn stats_track_levels_and_scoring() {
        let d = german(300, 66);
        let table = generate_predicates(&d, 4);
        let (cands, stats) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        );
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.levels[0].level, 1);
        assert_eq!(stats.total_kept(), cands.len());
        assert!(stats.total_scored >= cands.len());
        // The structural share is part of every level's duration.
        for level in &stats.levels {
            assert!(level.duration >= level.structural);
        }
        assert!(stats.structural_time() <= stats.levels.iter().map(|l| l.duration).sum());
    }

    #[test]
    fn level_cap_limits_frontier() {
        let d = german(300, 67);
        let table = generate_predicates(&d, 4);
        let (_, stats) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.02,
                prune_by_responsibility: false,
                max_predicates: 3,
                max_level_candidates: Some(20),
            },
        );
        for level in &stats.levels {
            assert!(
                level.kept <= 20,
                "level {} kept {}",
                level.level,
                level.kept
            );
        }
    }

    #[test]
    fn coverage_is_intersection_of_predicate_coverages() {
        let d = german(300, 68);
        let table = generate_predicates(&d, 4);
        let (cands, _) = compute_candidates(
            &table,
            toy_score(d.labels()),
            &LatticeConfig {
                support_threshold: 0.05,
                ..Default::default()
            },
        );
        for c in cands.iter().filter(|c| c.pattern.len() >= 2) {
            let mut expected: Option<BitSet> = None;
            for &id in c.pattern.ids() {
                let cov = table.coverage(id);
                expected = Some(match expected {
                    None => cov.clone(),
                    Some(e) => e.and(cov),
                });
            }
            assert_eq!(c.coverage.as_ref(), &expected.unwrap());
        }
    }

    /// The staged multi-scorer sweep must reproduce each scorer's solo run
    /// bit for bit: same candidates (patterns, coverage bits, supports,
    /// responsibilities), same order, same stats counts — at any thread
    /// count, including oversubscription.
    #[test]
    fn multi_sweep_matches_solo_runs() {
        let d = german(400, 69);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        // Two deliberately different scores (positive rate / privileged
        // rate) so the frontiers diverge and pruning decisions differ.
        let labels = d.labels().to_vec();
        let privileged = d.privileged_mask();
        let (solo_a, stats_a) = compute_candidates(&table, toy_score(&labels), &config);
        let priv_score = |cov: &BitSet| {
            let total = cov.count().max(1);
            let p: usize = cov.iter().map(|r| privileged[r as usize] as usize).sum();
            p as f64 / total as f64
        };
        let (solo_b, stats_b) = compute_candidates(&table, priv_score, &config);

        // The sweep must be thread-count-invariant: 1 (inline), 2, and an
        // oversubscribed 8 all reproduce the solo runs bit for bit.
        for threads in [1, 2, 8] {
            let cache = CoverageCache::new();
            let index = PredicateIndex::build(&table, &cache);
            let structure = SweepStructure::build(&index, &config);
            let mut sa = toy_score(&labels);
            let mut sb = priv_score;
            let mut scorers: Vec<ScoreFn<'_>> = vec![Box::new(&mut sa), Box::new(&mut sb)];
            let mut multi = compute_candidates_multi(
                &table,
                &mut scorers,
                &config,
                &cache,
                &structure,
                threads,
            );
            let (multi_b, mstats_b) = multi.pop().unwrap();
            let (multi_a, mstats_a) = multi.pop().unwrap();

            for ((solo, stats), (multi, mstats)) in [
                ((&solo_a, &stats_a), (&multi_a, &mstats_a)),
                ((&solo_b, &stats_b), (&multi_b, &mstats_b)),
            ] {
                assert_eq!(solo.len(), multi.len());
                for (s, m) in solo.iter().zip(multi) {
                    assert_eq!(s.pattern.ids(), m.pattern.ids());
                    assert_eq!(s.coverage, m.coverage, "coverage bits must match");
                    assert_eq!(s.responsibility, m.responsibility);
                    assert_eq!(s.support, m.support);
                }
                assert_eq!(stats.total_scored, mstats.total_scored);
                assert_eq!(stats.levels.len(), mstats.levels.len());
                for (s, m) in stats.levels.iter().zip(&mstats.levels) {
                    assert_eq!(
                        (s.level, s.generated, s.kept),
                        (m.level, m.generated, m.kept)
                    );
                }
            }
            assert!(!cache.is_empty(), "sweep must populate the shared cache");
            assert!(
                structure.merges_resolved() > 0,
                "sweep must populate the structural artifact"
            );
        }
    }

    /// A second sweep over a warm artifact (fresh scorer, same structural
    /// config) must answer identically to a cold one, without its fallback
    /// closure ever intersecting coverages again.
    #[test]
    fn warm_artifact_reuses_structural_work() {
        let d = german(400, 78);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        let labels = d.labels().to_vec();
        let (solo, solo_stats) = compute_candidates(&table, toy_score(&labels), &config);

        let cache = CoverageCache::new();
        let index = PredicateIndex::build(&table, &cache);
        let structure = SweepStructure::build(&index, &config);
        let run = |cache: &CoverageCache, structure: &SweepStructure| {
            let mut s = toy_score(&labels);
            let mut scorers: Vec<ScoreFn<'_>> = vec![Box::new(&mut s)];
            compute_candidates_multi(&table, &mut scorers, &config, cache, structure, 2)
                .pop()
                .unwrap()
        };
        let (cold, _) = run(&cache, &structure);
        let resolved_after_cold = structure.merges_resolved();
        let coverage_misses_after_cold = cache.stats().misses;
        let (warm, warm_stats) = run(&cache, &structure);

        // Identical results, cold, warm, and solo.
        for (a, b) in solo.iter().zip(&cold).chain(solo.iter().zip(&warm)) {
            assert_eq!(a.pattern.ids(), b.pattern.ids());
            assert_eq!(a.coverage, b.coverage);
            assert_eq!(a.responsibility, b.responsibility);
        }
        assert_eq!(solo_stats.total_scored, warm_stats.total_scored);
        // The warm sweep resolved nothing new and intersected nothing new.
        assert_eq!(structure.merges_resolved(), resolved_after_cold);
        assert_eq!(cache.stats().misses, coverage_misses_after_cold);
    }

    /// Fan-out must keep per-level timing populated: every explored level of
    /// every scorer reports a nonzero duration even when scorers run on
    /// worker threads.
    #[test]
    fn fanned_out_level_stats_keep_durations() {
        let d = german(400, 70);
        let table = generate_predicates(&d, 4);
        let config = LatticeConfig {
            support_threshold: 0.04,
            ..Default::default()
        };
        let labels = d.labels().to_vec();
        let cache = CoverageCache::new();
        let index = PredicateIndex::build(&table, &cache);
        let structure = SweepStructure::build(&index, &config);
        let mut s1 = toy_score(&labels);
        let mut s2 = toy_score(&labels);
        let mut s3 = toy_score(&labels);
        let mut scorers: Vec<ScoreFn<'_>> =
            vec![Box::new(&mut s1), Box::new(&mut s2), Box::new(&mut s3)];
        let results =
            compute_candidates_multi(&table, &mut scorers, &config, &cache, &structure, 4);
        for (_, stats) in &results {
            assert!(!stats.levels.is_empty());
            for level in &stats.levels {
                if level.generated > 0 {
                    assert!(
                        level.duration > Duration::ZERO,
                        "level {} scored {} candidates but reports zero duration",
                        level.level,
                        level.generated
                    );
                }
                assert!(level.duration >= level.structural);
            }
        }
    }

    #[test]
    fn pair_chunks_cover_every_index_once() {
        for m in [2usize, 3, 5, 17, 64, 257] {
            for threads in [1usize, 2, 4, 9] {
                let chunks = pair_chunks(m, threads);
                let mut covered = Vec::new();
                for c in &chunks {
                    covered.extend(c.clone());
                }
                assert_eq!(covered, (0..m).collect::<Vec<_>>(), "m={m} t={threads}");
            }
        }
    }
}
