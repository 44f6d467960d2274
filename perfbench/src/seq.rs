//! The `lr-adult-analyst` request sequence: a seeded walk over every
//! scoring key an analyst can turn, with the follow-up questions an analyst
//! asks once an answer is on screen.

use gopher_core::ExplainRequest;
use gopher_fairness::FairnessMetric;
use gopher_influence::Estimator;
use gopher_prng::Rng;

/// The estimators the walk visits. Newton-step is left out: one sweep takes
/// seconds and would dominate the run.
pub const ESTIMATORS: [Estimator; 3] = [
    Estimator::SecondOrder,
    Estimator::FirstOrder,
    Estimator::OneStepGd { learning_rate: 1.0 },
];

/// Support thresholds: 0.02 misses the structure cache, 0.10 can be served
/// from a looser cached artifact.
pub const TAUS: [f64; 3] = [0.02, 0.05, 0.10];

/// Lattice depths.
pub const DEPTHS: [usize; 2] = [2, 3];

/// New keys of this metric are followed by a ground-truth request, so the
/// set of ground-truth requests is the same for every seed (only their
/// order changes).
const GROUND_TRUTH_METRIC: FairnessMetric = FairnessMetric::StatisticalParity;

/// Every sixth new key is followed by a four-request batch.
const BATCH_EVERY: usize = 6;

/// The scoring identity of a request: what decides whether a sweep is new.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// Fairness metric.
    pub metric: FairnessMetric,
    /// Influence estimator.
    pub estimator: Estimator,
    /// Support threshold τ.
    pub tau: f64,
    /// Lattice depth.
    pub depth: usize,
}

impl Key {
    /// The request for this key at `k`, ground truth on or off.
    pub fn request(&self, k: usize, ground_truth: bool) -> ExplainRequest {
        ExplainRequest::default()
            .with_metric(self.metric)
            .with_estimator(self.estimator)
            .with_support_threshold(self.tau)
            .with_max_predicates(self.depth)
            .with_k(k)
            .with_ground_truth(ground_truth)
    }
}

/// The cold explain every fresh session answers first: statistical parity,
/// second-order, τ 0.05, depth 3.
pub const COLD_KEY: Key = Key {
    metric: FairnessMetric::StatisticalParity,
    estimator: Estimator::SecondOrder,
    tau: 0.05,
    depth: 3,
};

/// The latency class of a step, fixed by the generator (not by observed
/// cache behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// First appearance of a scoring key in the sequence.
    Warm,
    /// A k change or an exact repeat of a key already asked.
    Repeat,
    /// Ground truth on, over a key already asked.
    GroundTruth,
    /// A four-request `explain_batch` over keys already asked.
    Batch,
}

/// One step of the sequence.
#[derive(Debug, Clone)]
pub struct Step {
    /// The latency class.
    pub class: Class,
    /// The requests: one, or four for a batch.
    pub requests: Vec<ExplainRequest>,
}

/// Every scoring key in a fixed order, the cold key excluded (a fresh
/// session has already answered it).
pub fn all_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for metric in FairnessMetric::EXTENDED {
        for estimator in ESTIMATORS {
            for tau in TAUS {
                for depth in DEPTHS {
                    let key = Key {
                        metric,
                        estimator,
                        tau,
                        depth,
                    };
                    if key != COLD_KEY {
                        keys.push(key);
                    }
                }
            }
        }
    }
    keys
}

/// The analyst sequence for `seed`: every key once in seeded order, each
/// followed by two k changes and an exact repeat. Every new key of
/// [`GROUND_TRUTH_METRIC`] is then asked again with ground truth on, and
/// every sixth new key is followed by a four-request batch over keys
/// already asked.
pub fn analyst_sequence(seed: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0x5eed_a11a);
    let mut keys = all_keys();
    rng.shuffle(&mut keys);
    let mut seen: Vec<Key> = vec![COLD_KEY];
    let mut steps = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        seen.push(*key);
        steps.push(Step {
            class: Class::Warm,
            requests: vec![key.request(3, false)],
        });
        for _ in 0..2 {
            let k = rng.range(1, 6);
            steps.push(Step {
                class: Class::Repeat,
                requests: vec![key.request(k, false)],
            });
        }
        steps.push(Step {
            class: Class::Repeat,
            requests: vec![key.request(3, false)],
        });
        if key.metric == GROUND_TRUTH_METRIC {
            steps.push(Step {
                class: Class::GroundTruth,
                requests: vec![key.request(3, true)],
            });
        }
        if i % BATCH_EVERY == BATCH_EVERY - 1 {
            let requests = (0..4)
                .map(|_| rng.choose(&seen).request(rng.range(1, 6), false))
                .collect();
            steps.push(Step {
                class: Class::Batch,
                requests,
            });
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(steps: &[Step]) -> Vec<String> {
        steps
            .iter()
            .flat_map(|s| {
                s.requests.iter().map(move |r| {
                    format!(
                        "{:?}/{:?}/{:?}/{}/{}/{}/{}",
                        s.class,
                        r.metric,
                        r.estimator,
                        r.lattice.support_threshold,
                        r.lattice.max_predicates,
                        r.k,
                        r.ground_truth_for_topk
                    )
                })
            })
            .collect()
    }

    #[test]
    fn sequence_is_deterministic_per_seed() {
        assert_eq!(
            fingerprint(&analyst_sequence(7)),
            fingerprint(&analyst_sequence(7))
        );
    }

    #[test]
    fn sequence_differs_across_seeds() {
        assert_ne!(
            fingerprint(&analyst_sequence(7)),
            fingerprint(&analyst_sequence(8))
        );
    }

    #[test]
    fn every_key_is_warm_exactly_once_and_before_any_reuse() {
        let steps = analyst_sequence(3);
        let warm: Vec<&Step> = steps.iter().filter(|s| s.class == Class::Warm).collect();
        assert_eq!(warm.len(), all_keys().len());
        assert_eq!(all_keys().len(), 4 * 3 * 3 * 2 - 1);
        let mut seen = vec![COLD_KEY];
        for step in &steps {
            for r in &step.requests {
                let key = Key {
                    metric: r.metric,
                    estimator: r.estimator,
                    tau: r.lattice.support_threshold,
                    depth: r.lattice.max_predicates,
                };
                let known = seen.contains(&key);
                assert_eq!(known, step.class != Class::Warm, "{:?}", step.class);
                if !known {
                    seen.push(key);
                }
            }
        }
    }

    #[test]
    fn class_counts_are_fixed() {
        for seed in [1, 2, 3] {
            let steps = analyst_sequence(seed);
            let count = |c: Class| steps.iter().filter(|s| s.class == c).count();
            assert_eq!(count(Class::Warm), 71);
            assert_eq!(count(Class::GroundTruth), 17);
            assert_eq!(count(Class::Batch), 11);
            assert_eq!(count(Class::Repeat), 3 * 71);
        }
    }
}
