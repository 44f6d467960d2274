//! The in-process workloads, `lr-adult-analyst` and `forest-german`,
//! driven through the session API only (`sqf-serve-stream` is in
//! [`crate::serve`]).
//!
//! Each pass times the operations a user would wait for, checks every
//! timed answer outside the timed region (see [`crate::check`]), and
//! returns the samples; the binaries turn samples into metrics.

use crate::check::Checker;
use crate::report::Report;
use crate::seq::{analyst_sequence, Class, Key, COLD_KEY};
use crate::speed::{Sample, Speed};
use gopher_core::{ExplainResponse, ExplainSession, SessionBuilder};
use gopher_data::generators::{adult, german};
use gopher_data::Dataset;
use gopher_fairness::FairnessMetric;
use gopher_influence::Estimator;
use gopher_models::{Forest, ForestConfig, LogisticRegression};
use gopher_prng::Rng;

/// Held-out fraction, as the CLI and serve defaults use.
pub const TEST_FRACTION: f64 = 0.3;

/// L2 strength of the logistic regression, as the CLI and serve defaults use.
pub const L2: f64 = 1e-3;

/// Seed of every dataset, the CLI's default seed. The datasets are fixed
/// instances, as the paper's datasets are; `--seed` varies what the user
/// does with them (request order, k, schedules, deltas), so run-to-run
/// spread measures the program rather than the data.
pub const DATA_SEED: u64 = 42;

/// Seeded train/test split of `data`, the way the CLI and the serve
/// registry split.
pub fn split(data: &Dataset) -> (Dataset, Dataset) {
    let mut rng = Rng::new(DATA_SEED);
    data.train_test_split(TEST_FRACTION, &mut rng)
}

// ------------------------------------------------------- lr-adult-analyst

/// Rows of the adult data, the paper's size.
pub const ADULT_ROWS: usize = 48_000;

/// Fresh sessions built (and cold-explained) per pass; set-up and cold
/// explain report the median over them.
pub const ANALYST_SETUPS: usize = 5;

/// The analyst's data.
pub fn adult_data() -> (Dataset, Dataset) {
    split(&adult(ADULT_ROWS, DATA_SEED))
}

/// A fresh default LR session.
pub fn lr_session(train: &Dataset, test: &Dataset) -> ExplainSession<LogisticRegression> {
    SessionBuilder::new().fit(|n| LogisticRegression::new(n, L2), train, test)
}

/// One pass of `lr-adult-analyst`. Times are [`Sample`]s in ms.
pub struct AnalystPass {
    /// The session the sequence ran on.
    pub session: ExplainSession<LogisticRegression>,
    /// Set-up of each fresh session.
    pub setup: Vec<Sample>,
    /// Cold explain of each fresh session.
    pub cold_times: Vec<Sample>,
    /// The last fresh session's cold answer.
    pub cold: ExplainResponse,
    /// Requests whose scoring key is new.
    pub warm: Vec<Sample>,
    /// Ground-truth requests.
    pub ground_truth: Vec<Sample>,
    /// Requests answered by the sequence (a batch counts its members).
    pub requests: usize,
    /// Time the sequence spent waiting for answers, summed.
    pub sequence: Sample,
    /// Warm and ground-truth answers, in sequence order.
    pub answers: Vec<(Class, ExplainResponse)>,
}

/// Builds [`ANALYST_SETUPS`] fresh sessions, cold-explains each, then runs
/// the seeded analyst sequence on the last one, timing through `speed`.
pub fn analyst_pass(
    train: &Dataset,
    test: &Dataset,
    seed: u64,
    report: &mut Report,
    speed: &mut Speed,
) -> AnalystPass {
    let mut setup = Vec::new();
    let mut cold_times = Vec::new();
    let mut last = None;
    for _ in 0..ANALYST_SETUPS {
        drop(last.take());
        let (session, time) = speed.time(|| lr_session(train, test));
        setup.push(time);
        let (cold, time) = speed.time(|| session.explain(&COLD_KEY.request(3, false)));
        cold_times.push(time);
        report.op(Checker::new(&session).check(&cold));
        last = Some((session, cold));
    }
    let (session, cold) = last.expect("at least one set-up");
    let mut warm = Vec::new();
    let mut ground_truth = Vec::new();
    let mut requests = 0;
    let mut sequence = Sample {
        raw: 0.0,
        scaled: 0.0,
    };
    let mut answers = Vec::new();
    {
        let mut checker = Checker::new(&session);
        for step in analyst_sequence(seed) {
            let (responses, time) = speed.time(|| match step.requests.as_slice() {
                [one] => vec![session.explain(one)],
                many => session.explain_batch(many),
            });
            sequence.raw += time.raw;
            sequence.scaled += time.scaled;
            requests += step.requests.len();
            for response in &responses {
                report.op(checker.check(response));
            }
            match step.class {
                Class::Warm => warm.push(time),
                Class::GroundTruth => ground_truth.push(time),
                Class::Repeat | Class::Batch => continue,
            }
            answers.extend(responses.into_iter().map(|r| (step.class, r)));
        }
    }
    AnalystPass {
        session,
        setup,
        cold_times,
        cold,
        warm,
        ground_truth,
        requests,
        sequence,
        answers,
    }
}

// ---------------------------------------------------------- forest-german

/// Rows of the German credit data, the paper's size.
pub const GERMAN_ROWS: usize = 1_000;

/// Fresh forest sessions built per pass (set-up is ~10 ms, so the median
/// needs several).
pub const FOREST_SETUPS: usize = 15;

/// Ground-truth requests on the cached sweep per pass: each k in 1..=5
/// eight times, in seeded order. Passes stay short enough that two or three
/// fit in a run, so the cold explain is a median over passes.
pub const FOREST_GROUND_TRUTHS: usize = 40;

/// The seeded order of the forest workload's ground-truth k values.
pub fn forest_ground_truth_ks(seed: u64) -> Vec<usize> {
    let mut ks: Vec<usize> = (0..FOREST_GROUND_TRUTHS).map(|i| 1 + i % 5).collect();
    Rng::new(seed ^ 0xf0e5_7000).shuffle(&mut ks);
    ks
}

/// The forest workload's explain: statistical parity, τ 0.10, depth 3.
/// The unlearning backend ignores the estimator.
pub const FOREST_KEY: Key = Key {
    metric: FairnessMetric::StatisticalParity,
    estimator: Estimator::SecondOrder,
    tau: 0.10,
    depth: 3,
};

/// The forest workload's data.
pub fn german_data() -> (Dataset, Dataset) {
    split(&german(GERMAN_ROWS, DATA_SEED))
}

/// A fresh session over a default forest.
pub fn forest_session(train: &Dataset, test: &Dataset) -> ExplainSession<Forest> {
    SessionBuilder::new().fit(|n| Forest::new(n, ForestConfig::default()), train, test)
}

/// One pass of `forest-german`. Times are [`Sample`]s in ms.
pub struct ForestPass {
    /// The session the requests ran on.
    pub session: ExplainSession<Forest>,
    /// Set-up of each fresh session.
    pub setup: Vec<Sample>,
    /// The cold explain.
    pub cold_time: Sample,
    /// The cold answer.
    pub cold: ExplainResponse,
    /// Ground-truth requests on the cached sweep, with their k.
    pub ground_truth_times: Vec<(usize, Sample)>,
    /// The first ground-truth answer.
    pub ground_truth: ExplainResponse,
}

/// Builds [`FOREST_SETUPS`] fresh sessions, cold-explains the last, then
/// asks for ground truth on the cached sweep, timing through `speed`.
pub fn forest_pass(
    train: &Dataset,
    test: &Dataset,
    seed: u64,
    report: &mut Report,
    speed: &mut Speed,
) -> ForestPass {
    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..FOREST_SETUPS {
        drop(session.take());
        let (fresh, time) = speed.time(|| forest_session(train, test));
        setup.push(time);
        session = Some(fresh);
    }
    let session = session.expect("at least one set-up");
    let (cold, cold_time) = speed.time(|| session.explain(&FOREST_KEY.request(3, false)));
    let mut ground_truth_times = Vec::new();
    let mut first_ground_truth = None;
    {
        let mut checker = Checker::new(&session);
        report.op(checker.check(&cold));
        for k in forest_ground_truth_ks(seed) {
            let request = FOREST_KEY.request(k, true);
            let (response, time) = speed.time(|| session.explain(&request));
            ground_truth_times.push((k, time));
            report.op(checker.check(&response));
            first_ground_truth.get_or_insert(response);
        }
    }
    ForestPass {
        session,
        setup,
        cold_time,
        cold,
        ground_truth_times,
        ground_truth: first_ground_truth.expect("at least one ground-truth request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_ground_truth_order_is_seeded_with_a_fixed_mix() {
        let a = forest_ground_truth_ks(1);
        assert_eq!(a, forest_ground_truth_ks(1));
        assert_ne!(a, forest_ground_truth_ks(2));
        for k in 1..=5 {
            assert_eq!(
                a.iter().filter(|&&x| x == k).count(),
                FOREST_GROUND_TRUTHS / 5
            );
        }
    }
}
