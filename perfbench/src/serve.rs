//! `sqf-serve-stream`: a serve daemon holding one SQF session, driven
//! through the HTTP API.
//!
//! The run has four parts:
//!
//! 1. **Set-up.** A set-up daemon creates [`SETUPS`] sessions (`POST
//!    /sessions` until 201), each followed by its cold explain, and stops.
//!    A second daemon creates the live session the same way, so its memory
//!    holds one session, and answers [`GROUND_TRUTHS`] ground-truth
//!    requests on the cold explain's cached sweep. Its peak memory after
//!    set-up is reported beside the end-of-run peak.
//! 2. **Open loop.** Explain requests arrive at fixed rates, [`RATE_LO`]
//!    then [`RATE_HI`], with deltas interleaved every [`UPDATE_EVERY_S`]
//!    seconds. Every operation is sent on its own connection, as an
//!    independent client would, by at most `nproc` client threads. Latency
//!    is measured from each operation's due time.
//! 3. **Update burst.** [`UPDATE_BURST`] deltas back to back, for the
//!    update round trip on its own.
//! 4. **Final answers.** One answer per request type, which [`verify`]
//!    compares with an in-process rebuild of the session from the same
//!    session body and delta log. The daemon's peak memory is read here,
//!    after every request of the workload has been answered.

use crate::check::{check_served, same_answer, Checker};
use crate::daemon::Daemon;
use crate::report::Report;
use crate::sched::{fixed_rate, run_open_loop, Due, Timing};
use crate::speed::{Sample, Speed};
use gopher_json::Json;
use gopher_prng::Rng;
use gopher_serve::registry::{build_session, AnySession, SessionConfig, UpdateSpec};
use std::time::Duration;

/// Rows of the SQF data.
pub const SQF_ROWS: usize = 100_000;

/// Sessions the set-up daemon creates; set-up and cold explain report the
/// median over these and the live session.
pub const SETUPS: usize = 3;

/// Explain rate of the `lo` phase, requests per second.
pub const RATE_LO: f64 = 4.0;

/// Explain rate of the `hi` phase, requests per second.
pub const RATE_HI: f64 = 10.0;

/// Seconds between the deltas of the open loop.
pub const UPDATE_EVERY_S: f64 = 3.0;

/// Deltas sent back to back after the open loop.
pub const UPDATE_BURST: usize = 40;

/// Ground-truth requests sent before the load, on the fixed data.
pub const GROUND_TRUTHS: usize = 11;

/// The explain requests: 2 metrics × 2 values of k, everything else at the
/// server's defaults.
pub const REQUESTS: [(&str, usize); 4] = [
    ("statistical-parity", 3),
    ("statistical-parity", 5),
    ("equal-opportunity", 3),
    ("equal-opportunity", 5),
];

/// The server's default support threshold, which answers are checked
/// against.
pub const TAU: f64 = 0.05;

/// Name of the session the load runs against.
pub const LIVE: &str = "live";

/// The `POST /sessions` body: SQF at [`SQF_ROWS`] from the fixed data
/// seed, LR, default settings.
pub fn session_body(name: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"generator\":\"sqf\",\"rows\":{SQF_ROWS},\"model\":\"lr\",\"seed\":{}}}",
        crate::workloads::DATA_SEED
    )
}

/// The explain body of request type `kind`.
pub fn explain_body(kind: usize, ground_truth: bool) -> String {
    let (metric, k) = REQUESTS[kind];
    let extra = if ground_truth {
        ",\"ground_truth\":true"
    } else {
        ""
    };
    format!("{{\"metric\":\"{metric}\",\"k\":{k}{extra}}}")
}

/// One scheduled operation of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Explain request of type `kind`, in the `hi` phase or not.
    Explain {
        /// Index into [`REQUESTS`].
        kind: usize,
        /// Whether the request belongs to the `hi` phase.
        hi: bool,
    },
    /// The delta with this index.
    Update(usize),
}

/// Seeded delta bodies: each removes 1–50 seeded-random rows and adds
/// 1–50 fresh generator rows.
pub fn deltas(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let remove = rng.range(1, 51);
            let add = rng.range(1, 51);
            let seed = rng.below(1 << 40);
            format!("{{\"remove\":{remove},\"add_rows\":{add},\"seed\":{seed}}}")
        })
        .collect()
}

/// The seeded open-loop schedule: `phase` at [`RATE_LO`], then `phase` at
/// [`RATE_HI`], with a delta every [`UPDATE_EVERY_S`] seconds throughout.
/// Explains cycle through [`REQUESTS`] from a seeded start, so every delta
/// meets the same mix of requests and the stalls it causes compare across
/// seeds; the deltas themselves are seeded. Update ops index the returned
/// delta bodies.
pub fn schedule(seed: u64, phase: Duration) -> (Vec<Due<Op>>, Vec<String>) {
    let mut rng = Rng::new(seed ^ 0x5e7e_0001);
    let first = rng.range(0, REQUESTS.len());
    let mut ops: Vec<Due<Op>> = Vec::new();
    for (rate, start, hi) in [(RATE_LO, Duration::ZERO, false), (RATE_HI, phase, true)] {
        for (i, at) in fixed_rate(rate, start, phase, 0.0).into_iter().enumerate() {
            let kind = (first + i) % REQUESTS.len();
            ops.push(Due {
                at,
                op: Op::Explain { kind, hi },
            });
        }
    }
    let update_times = fixed_rate(1.0 / UPDATE_EVERY_S, Duration::ZERO, 2 * phase, 0.5);
    let bodies = deltas(&mut rng, update_times.len());
    ops.extend(update_times.into_iter().enumerate().map(|(i, at)| Due {
        at,
        op: Op::Update(i),
    }));
    ops.sort_by_key(|d| d.at);
    (ops, bodies)
}

/// What one served operation returned: status and parsed body, or why
/// there is none.
pub type Answer = Result<(u16, Json), String>;

/// Sends one `POST` on a fresh connection and parses the answer. Returns
/// the answer and the raw response body.
pub fn post(daemon: &Daemon, path: &str, body: &str) -> (Answer, String) {
    match daemon.request("POST", path, Some(body)) {
        Ok(response) => {
            let parsed = gopher_json::parse(response.body.trim())
                .map(|json| (response.status, json))
                .map_err(|e| format!("unparsable answer: {e}"));
            (parsed, response.body)
        }
        Err(e) => (Err(e.to_string()), String::new()),
    }
}

/// Status 200 and an answer that passes [`check_served`].
pub fn check_explain(answer: &Answer, kind: usize) -> Result<(), String> {
    match answer {
        Ok((200, json)) => check_served(json, REQUESTS[kind].1, TAU),
        Ok((status, json)) => Err(format!("explain: {status} {json}")),
        Err(e) => Err(format!("explain: {e}")),
    }
}

/// Everything one run measured. Closed-loop times are [`Sample`]s in ms;
/// open-loop timings are raw.
pub struct ServeRun {
    /// `POST /sessions` until 201, per created session.
    pub setup: Vec<Sample>,
    /// First explain on each fresh session.
    pub cold_times: Vec<Sample>,
    /// Open-loop explain timings, the answer's server-side `query_ms`, and
    /// whether the request was in the `hi` phase.
    pub explains: Vec<(Timing, f64, bool)>,
    /// Open-loop update timings.
    pub open_loop_updates: Vec<Timing>,
    /// Update round trips of the burst.
    pub update_times: Vec<Sample>,
    /// Deltas of the burst whose influence update fell back (a
    /// refactorization or a rebuild instead of the incremental patch).
    pub update_fallbacks: usize,
    /// Ground-truth round trips.
    pub ground_truth_times: Vec<Sample>,
    /// Open-loop operations completed per second.
    pub ops_per_s: f64,
    /// `GET /sessions/live/stats` after the run.
    pub stats: Json,
    /// Peak resident memory of the live daemon once its session is built
    /// and has answered its cold and ground-truth requests, MB.
    pub setup_peak_rss_mb: f64,
    /// Peak resident memory of the live daemon at the end of the run, MB.
    pub peak_rss_mb: f64,
    /// Delta bodies in the order the daemon applied them.
    pub applied: Vec<String>,
    /// The daemon's final answer to each request type.
    pub final_answers: Vec<Json>,
    /// Request and response bodies of the open loop.
    pub bodies: Vec<String>,
}

/// Creates session `name` (`POST /sessions` until 201) and sends its cold
/// explain, recording both times.
fn create(
    daemon: &Daemon,
    name: &str,
    speed: &mut Speed,
    run: (&mut Vec<Sample>, &mut Vec<Sample>),
    report: &mut Report,
) {
    let (setup, cold_times) = run;
    let ((created, _), time) = speed.time(|| post(daemon, "/sessions", &session_body(name)));
    setup.push(time);
    report.op(match created {
        Ok((201, _)) => Ok(()),
        Ok((status, json)) => Err(format!("POST /sessions: {status} {json}")),
        Err(e) => Err(format!("POST /sessions: {e}")),
    });
    let path = format!("/sessions/{name}/explain");
    let ((answer, _), time) = speed.time(|| post(daemon, &path, &explain_body(0, false)));
    cold_times.push(time);
    report.op(check_explain(&answer, 0));
}

/// Every explanation of a ground-truth answer carries a finite ground-truth
/// responsibility.
fn check_ground_truth(answer: &Answer) -> Result<(), String> {
    let (_, json) = answer.as_ref().map_err(Clone::clone)?;
    let explanations = json
        .get("explanations")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    explanations
        .iter()
        .all(|e| {
            e.get("ground_truth_responsibility")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite)
        })
        .then_some(())
        .ok_or_else(|| "ground truth missing".to_string())
}

/// Reads the daemon's `updates_applied` from an update answer, recording
/// the delta in `applied` at that position.
fn note_update(
    answer: &Answer,
    body: &str,
    applied: &mut Vec<(usize, String)>,
) -> Result<(), String> {
    match answer {
        Ok((200, json)) => {
            let order = json
                .get("updates_applied")
                .and_then(Json::as_f64)
                .ok_or("update answer without updates_applied")?;
            applied.push((order as usize, body.to_string()));
            Ok(())
        }
        Ok((status, json)) => Err(format!("update: {status} {json}")),
        Err(e) => Err(format!("update: {e}")),
    }
}

/// Runs the workload against fresh daemons with `nproc` workers, timing
/// the closed-loop operations through `speed`. `probe` runs against the
/// daemon after the final answers, before it stops (the traced run
/// measures extra serve-layer numbers there).
pub fn run(
    seed: u64,
    phase: Duration,
    report: &mut Report,
    speed: &mut Speed,
    probe: impl FnOnce(&Daemon, &mut Report),
) -> Result<ServeRun, String> {
    let clients = crate::host::nproc();
    let mut setup = Vec::new();
    let mut cold_times = Vec::new();
    let setup_daemon = Daemon::spawn().map_err(|e| format!("daemon: {e}"))?;
    for i in 0..SETUPS {
        let name = format!("setup{i}");
        let times = (&mut setup, &mut cold_times);
        create(&setup_daemon, &name, speed, times, report);
        let _ = setup_daemon.request("DELETE", &format!("/sessions/{name}"), None);
    }
    report.op(setup_daemon.stop().map_err(|e| format!("daemon stop: {e}")));

    let daemon = Daemon::spawn().map_err(|e| format!("daemon: {e}"))?;
    let explain_path = format!("/sessions/{LIVE}/explain");
    let update_path = format!("/sessions/{LIVE}/update");
    create(&daemon, LIVE, speed, (&mut setup, &mut cold_times), report);
    let mut ground_truth_times = Vec::new();
    for _ in 0..GROUND_TRUTHS {
        let ((answer, _), time) =
            speed.time(|| post(&daemon, &explain_path, &explain_body(0, true)));
        ground_truth_times.push(time);
        report.op(check_explain(&answer, 0).and_then(|()| check_ground_truth(&answer)));
    }
    let setup_peak_rss_mb = crate::host::peak_rss_mb(daemon.pid()).unwrap_or(0.0);

    let (ops, open_loop_deltas) = schedule(seed, phase);
    let results = run_open_loop(
        &ops,
        clients,
        || (),
        |(), op| match op {
            Op::Explain { kind, .. } => post(&daemon, &explain_path, &explain_body(*kind, false)),
            Op::Update(i) => post(&daemon, &update_path, &open_loop_deltas[*i]),
        },
    );
    let first_due = ops.first().map_or(Duration::ZERO, |d| d.at);
    let last_done = results
        .iter()
        .map(|(t, _)| t.done)
        .max()
        .unwrap_or(first_due);
    let ops_per_s = results.len() as f64 / (last_done - first_due).as_secs_f64().max(1e-9);
    let mut explains = Vec::new();
    let mut open_loop_updates = Vec::new();
    let mut applied = Vec::new();
    let mut bodies = Vec::new();
    for (due, (timing, (answer, raw))) in ops.iter().zip(results) {
        match due.op {
            Op::Explain { kind, hi } => {
                report.op(check_explain(&answer, kind));
                let query_ms = answer
                    .as_ref()
                    .ok()
                    .and_then(|(_, json)| json.get("query_ms").and_then(Json::as_f64))
                    .unwrap_or(0.0);
                explains.push((timing, query_ms, hi));
                bodies.push(explain_body(kind, false));
            }
            Op::Update(i) => {
                report.op(note_update(&answer, &open_loop_deltas[i], &mut applied));
                open_loop_updates.push(timing);
                bodies.push(open_loop_deltas[i].clone());
            }
        }
        bodies.push(raw);
    }

    let mut rng = Rng::new(seed ^ 0x5e7e_0002);
    let mut update_times = Vec::new();
    let mut update_fallbacks = 0;
    for body in deltas(&mut rng, UPDATE_BURST) {
        let ((answer, _), time) = speed.time(|| post(&daemon, &update_path, &body));
        update_times.push(time);
        if let Ok((_, json)) = &answer {
            update_fallbacks += usize::from(json.get("fell_back") == Some(&Json::Bool(true)));
        }
        report.op(note_update(&answer, &body, &mut applied));
    }
    applied.sort_by_key(|(order, _)| *order);

    let mut final_answers = Vec::new();
    for kind in 0..REQUESTS.len() {
        let (answer, _) = post(&daemon, &explain_path, &explain_body(kind, false));
        report.op(check_explain(&answer, kind));
        final_answers.push(answer.map_or(Json::Null, |(_, json)| json));
    }
    let stats = daemon
        .request("GET", &format!("/sessions/{LIVE}/stats"), None)
        .ok()
        .and_then(|r| gopher_json::parse(r.body.trim()).ok())
        .unwrap_or(Json::Null);
    let peak_rss_mb = crate::host::peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    probe(&daemon, report);
    report.op(daemon.stop().map_err(|e| format!("daemon stop: {e}")));
    Ok(ServeRun {
        setup,
        cold_times,
        explains,
        open_loop_updates,
        update_times,
        update_fallbacks,
        ground_truth_times,
        ops_per_s,
        stats,
        setup_peak_rss_mb,
        peak_rss_mb,
        applied: applied.into_iter().map(|(_, body)| body).collect(),
        final_answers,
        bodies,
    })
}

/// The session config and delta specs the daemon was given, parsed the
/// way the daemon parses them.
pub fn parse_log(applied: &[String]) -> Result<(SessionConfig, Vec<UpdateSpec>), String> {
    let parse = |body: &str| gopher_json::parse(body).map_err(|e| e.to_string());
    let config = SessionConfig::from_json(&parse(&session_body(LIVE))?)?;
    let specs = applied
        .iter()
        .map(|body| UpdateSpec::from_json(&parse(body)?))
        .collect::<Result<_, _>>()?;
    Ok((config, specs))
}

/// The explain requests of [`REQUESTS`], parsed the way the daemon parses
/// them.
pub fn requests() -> Vec<gopher_core::ExplainRequest> {
    (0..REQUESTS.len())
        .map(|kind| {
            let body = gopher_json::parse(&explain_body(kind, false)).expect("well-formed body");
            gopher_serve::api::parse_explain_request(
                &body,
                &gopher_serve::server::default_request(),
                1.0,
            )
            .expect("valid request")
        })
        .collect()
}

/// Rebuilds the served session in-process, through the serve registry,
/// from the same session body and applied delta log; checks that its answers equal
/// the daemon's final answers and pass the full in-process output checks.
pub fn verify(run: &ServeRun, report: &mut Report) {
    let rebuilt = parse_log(&run.applied).and_then(|(config, specs)| {
        let (mut session, _) = build_session(&config)?;
        for spec in &specs {
            let added = spec.build_added(&config)?;
            let removed = spec.resolve_removals(session.train_rows())?;
            session.update(&removed, added.as_ref());
        }
        Ok(session)
    });
    let session = match rebuilt {
        Ok(AnySession::Lr(session)) => session,
        Ok(_) => return report.op(Err("the served session is not LR".into())),
        Err(e) => return report.op(Err(format!("in-process rebuild: {e}"))),
    };
    let responses = session.explain_batch(&requests());
    let mut checker = Checker::new(&session);
    for (response, daemon_answer) in responses.iter().zip(&run.final_answers) {
        let local = gopher_serve::api::explain_response_json(response);
        report.op(if same_answer(&local, daemon_answer) {
            checker.check(response)
        } else {
            Err(format!(
                "daemon answer {daemon_answer} differs from the in-process rebuild {local}"
            ))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_differs_across_seeds() {
        let phase = Duration::from_secs(10);
        assert_eq!(schedule(1, phase), schedule(1, phase));
        assert_ne!(schedule(1, phase), schedule(2, phase));
    }

    #[test]
    fn schedule_has_fixed_counts_in_due_order() {
        let (ops, bodies) = schedule(9, Duration::from_secs(10));
        let count = |hi: bool| {
            ops.iter()
                .filter(|d| matches!(d.op, Op::Explain { hi: h, .. } if h == hi))
                .count()
        };
        assert_eq!(count(false), 40);
        assert_eq!(count(true), 100);
        assert_eq!(bodies.len(), 7);
        let kinds: Vec<usize> = (ops.iter())
            .filter_map(|d| match d.op {
                Op::Explain { kind, .. } => Some(kind),
                Op::Update(_) => None,
            })
            .collect();
        assert!(kinds
            .windows(2)
            .all(|w| w[1] == (w[0] + 1) % REQUESTS.len()));
        assert!(ops.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn deltas_and_bodies_parse_as_the_daemon_parses_them() {
        let bodies = deltas(&mut Rng::new(3), 20);
        let (config, specs) = parse_log(&bodies).expect("valid log");
        assert_eq!(specs.len(), 20);
        assert_eq!(config.name, LIVE);
        assert_eq!(requests().len(), REQUESTS.len());
    }
}
