//! Output checks. Every timed answer is checked outside the timed region;
//! an answer that fails a check counts as a failed operation.
//!
//! In-process answers are checked against the session that produced them:
//! each returned pattern's coverage is recomputed from the predicate table,
//! its support is checked against τ, and its estimated responsibility is
//! recomputed through the backend's public scorer on the covered rows.
//! Served answers (JSON) are checked for shape, finiteness, support and
//! ranking; the daemon's final answers are compared field for field with an
//! in-process rebuild of the same session.

use gopher_core::{ExplainResponse, ExplainSession};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasPrecomp, InfluenceBackend, ModelFamily};
use gopher_json::Json;
use gopher_patterns::BitSet;
use std::collections::HashMap;

/// Checks in-process answers against one session, caching the per-metric
/// bias precomputation the scorer needs.
pub struct Checker<'s, M: ModelFamily> {
    session: &'s ExplainSession<M>,
    precomp: HashMap<FairnessMetric, BiasPrecomp>,
}

impl<'s, M: ModelFamily> Checker<'s, M> {
    /// A checker bound to `session`.
    pub fn new(session: &'s ExplainSession<M>) -> Self {
        Self {
            session,
            precomp: HashMap::new(),
        }
    }

    /// Checks one answer; `Err` names the first violated property.
    pub fn check(&mut self, response: &ExplainResponse) -> Result<(), String> {
        let request = &response.request;
        let report = &response.report;
        if !report.base_bias.is_finite() || !report.accuracy.is_finite() {
            return Err("non-finite base bias or accuracy".into());
        }
        if report.explanations.len() > request.k {
            return Err(format!(
                "{} explanations for k = {}",
                report.explanations.len(),
                request.k
            ));
        }
        let table = self.session.predicate_table();
        let n = table.n_rows();
        let tau = request.lattice.support_threshold;
        let session = self.session;
        let precomp = self
            .precomp
            .entry(request.metric)
            .or_insert_with(|| session.backend().precompute(request.metric, session.test()))
            .clone();
        let scorer = session.backend().scorer(
            session.train(),
            session.test(),
            request.metric,
            precomp,
            request.estimator,
            request.bias_eval,
        );
        let mut previous = f64::INFINITY;
        for (i, e) in report.explanations.iter().enumerate() {
            let c = &e.candidate;
            let numbers = [e.support, e.est_responsibility, c.interestingness];
            if numbers.iter().any(|v| !v.is_finite()) {
                return Err(format!("explanation {i}: non-finite number"));
            }
            if c.interestingness > previous {
                return Err(format!("explanation {i}: not ranked by interestingness"));
            }
            previous = c.interestingness;
            let ids = c.pattern.ids();
            let Some((&first, rest)) = ids.split_first() else {
                return Err(format!("explanation {i}: empty pattern"));
            };
            let mut coverage: BitSet = table.coverage(first).clone();
            for &id in rest {
                coverage = coverage.and(table.coverage(id));
            }
            if coverage != *c.coverage {
                return Err(format!("explanation {i}: coverage differs from the table"));
            }
            let count = coverage.count();
            if e.support != count as f64 / n as f64 || e.support < tau {
                return Err(format!(
                    "explanation {i}: support {} for {count} of {n} rows at τ {tau}",
                    e.support
                ));
            }
            let rescored = scorer(&coverage.to_indices());
            if rescored != e.est_responsibility {
                return Err(format!(
                    "explanation {i}: responsibility {} but the scorer gives {rescored}",
                    e.est_responsibility
                ));
            }
            if c.interestingness != e.est_responsibility / e.support {
                return Err(format!("explanation {i}: interestingness ≠ R / support"));
            }
            if e.pattern_text != c.pattern.render(table, session.train_raw().schema()) {
                return Err(format!("explanation {i}: pattern text differs"));
            }
            let ground_truth = [e.ground_truth_responsibility, e.ground_truth_new_bias];
            if request.ground_truth_for_topk {
                if ground_truth.iter().any(|g| !g.is_some_and(f64::is_finite)) {
                    return Err(format!(
                        "explanation {i}: missing or non-finite ground truth"
                    ));
                }
            } else if ground_truth.iter().any(Option::is_some) {
                return Err(format!("explanation {i}: ground truth nobody asked for"));
            }
        }
        Ok(())
    }
}

/// Checks one served explain answer: a JSON object with at most `k`
/// explanations, every number finite, support ≥ τ, and explanations ranked
/// by interestingness.
pub fn check_served(answer: &Json, k: usize, tau: f64) -> Result<(), String> {
    let number = |v: &Json, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("missing or non-finite {key:?}"))
    };
    number(answer, "base_bias")?;
    number(answer, "accuracy")?;
    let explanations = answer
        .get("explanations")
        .and_then(Json::as_arr)
        .ok_or("missing \"explanations\"")?;
    if explanations.len() > k {
        return Err(format!("{} explanations for k = {k}", explanations.len()));
    }
    let mut previous = f64::INFINITY;
    for (i, e) in explanations.iter().enumerate() {
        let support = number(e, "support")?;
        number(e, "est_responsibility")?;
        let interestingness = number(e, "interestingness")?;
        if support < tau {
            return Err(format!("explanation {i}: support {support} below τ {tau}"));
        }
        if interestingness > previous {
            return Err(format!("explanation {i}: not ranked by interestingness"));
        }
        previous = interestingness;
        if e.get("pattern").and_then(Json::as_str).is_none() {
            return Err(format!("explanation {i}: missing pattern"));
        }
    }
    Ok(())
}

/// Keys of a served answer that are wall-clock measurements, not content.
const TIMING_KEYS: [&str; 2] = ["search_ms", "query_ms"];

/// Whether two served answers agree on everything but their timings.
pub fn same_answer(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            let content = |m: &std::collections::BTreeMap<String, Json>| {
                m.iter()
                    .filter(|(k, _)| !TIMING_KEYS.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            };
            content(x) == content(y)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_core::{ExplainRequest, SessionBuilder};
    use gopher_data::generators::german;
    use gopher_models::LogisticRegression;
    use gopher_prng::Rng;
    use std::sync::Arc;

    fn session() -> ExplainSession<LogisticRegression> {
        let mut rng = Rng::new(5);
        let (train, test) = german(600, 5).train_test_split(0.3, &mut rng);
        SessionBuilder::new().fit(|n| LogisticRegression::new(n, 1e-3), &train, &test)
    }

    fn answer(s: &ExplainSession<LogisticRegression>) -> ExplainResponse {
        let response = s.explain(
            &ExplainRequest::default()
                .with_support_threshold(0.05)
                .with_max_predicates(2)
                .with_ground_truth(false),
        );
        assert!(response.report.explanations.len() >= 2, "need two answers");
        response
    }

    #[test]
    fn a_true_answer_passes_and_corrupted_answers_fail() {
        let s = session();
        let good = answer(&s);
        let mut checker = Checker::new(&s);
        assert_eq!(checker.check(&good), Ok(()));

        let mut bad = good.clone();
        bad.report.explanations[0].est_responsibility += 1e-9;
        assert!(checker.check(&bad).unwrap_err().contains("responsibility"));

        let mut bad = good.clone();
        let c = &mut bad.report.explanations[0].candidate;
        let mut coverage = (*c.coverage).clone();
        let row = (0..coverage.len())
            .find(|&r| !coverage.contains(r))
            .expect("a free row");
        coverage.insert(row);
        c.coverage = Arc::new(coverage);
        assert!(checker.check(&bad).unwrap_err().contains("coverage"));

        let mut bad = good.clone();
        bad.report.explanations.swap(0, 1);
        assert!(checker.check(&bad).is_err());

        let mut bad = good.clone();
        bad.report.base_bias = f64::NAN;
        assert!(checker.check(&bad).is_err());

        let mut bad = good;
        bad.request.k = 1;
        assert!(checker.check(&bad).is_err());
    }

    #[test]
    fn served_answers_are_checked_and_compared_without_timings() {
        let s = session();
        let good = gopher_serve::api::explain_response_json(&answer(&s));
        assert_eq!(check_served(&good, 3, 0.05), Ok(()));
        assert!(check_served(&good, 1, 0.05).is_err());
        assert!(check_served(&good, 3, 0.99).is_err());

        let Json::Obj(mut fields) = good.clone() else {
            panic!("answers are objects")
        };
        fields.insert("query_ms".into(), Json::num(123.0));
        let retimed = Json::Obj(fields.clone());
        assert!(same_answer(&good, &retimed));
        fields.insert("base_bias".into(), Json::num(0.5));
        assert!(!same_answer(&good, &Json::Obj(fields)));

        let mut swapped = good.clone();
        if let Json::Obj(m) = &mut swapped {
            if let Some(Json::Arr(items)) = m.get_mut("explanations") {
                items.swap(0, 1);
            }
        }
        assert!(check_served(&swapped, 3, 0.05).is_err());
    }
}
