//! Traced run: re-drives a workload's session build and a sample of its
//! requests through the layer crates' public calls, with a span around
//! each call, and prints the per-layer metrics.
//!
//! ```text
//! perfbench-trace --workload <name> --seed <n> --seconds <n> --trace 1 [--out-dir <dir>]
//! ```
//!
//! The workload itself runs first, untraced, through the same workload code the
//! end-to-end runner uses; its session answers the traced requests too.
//! Every traced request's replica answer must equal the session's answer,
//! or the request counts as failed. Layer times are sums over the traced
//! requests. The spans are written to `--out-dir` at the end.

mod replica;
mod spans;

use gopher_core::ExplainResponse;
use gopher_data::generators::sqf;
use gopher_json::Json;
use gopher_models::{Forest, ForestConfig, LogisticRegression};
use gopher_perfbench::args::{self, Args};
use gopher_perfbench::report::Report;
use gopher_perfbench::sched::{fixed_rate, run_open_loop, Due};
use gopher_perfbench::seq::Class;
use gopher_perfbench::speed::{self, Speed};
use gopher_perfbench::stats::{median, ratio, tail, Ratio};
use gopher_perfbench::workloads as w;
use gopher_perfbench::{daemon, host, serve};
use gopher_serve::api::session_stats_json;
use gopher_serve::registry::{build_session, AnySession};
use replica::{matches_session, Replica, Traced};
use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Every per-layer metric, in print order, with its unit. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("data.encode_ms", "ms"),
    ("models.fit_ms", "ms"),
    ("models.unlearn_ms", "ms"),
    ("models.predict_ms", "ms"),
    ("influence.build_ms", "ms"),
    ("influence.precompute_ms", "ms"),
    ("influence.score_calls", "count"),
    ("influence.score_ms", "ms"),
    ("influence.score_us_per_call", "us"),
    ("influence.ground_truth_calls", "count"),
    ("influence.ground_truth_ms", "ms"),
    ("influence.update_ms", "ms"),
    ("influence.update_fallbacks", "count"),
    ("patterns.predicates_ms", "ms"),
    ("patterns.index_ms", "ms"),
    ("patterns.structure_ms", "ms"),
    ("patterns.merges_resolved", "count"),
    ("patterns.sweep_self_ms", "ms"),
    ("patterns.candidates_generated", "count"),
    ("patterns.candidates_kept", "count"),
    ("patterns.topk_ms", "ms"),
    ("patterns.table_patch_ms", "ms"),
    ("patterns.structure_patch_ms", "ms"),
    ("fairness.bias_calls", "count"),
    ("fairness.bias_ms", "ms"),
    ("core.sweep_hit_ratio", "ratio"),
    ("core.structure_hit_ratio", "ratio"),
    ("core.coverage_hit_ratio", "ratio"),
    ("core.artifacts_survived_ratio", "ratio"),
    ("core.update_fallback_ratio", "ratio"),
    ("core.explain_overhead_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.keepalive_rtt_p50_ms", "ms"),
    ("serve.batch_ratio", "ratio"),
    ("serve.lateness_p50_ms", "ms"),
    ("serve.lateness_max_ms", "ms"),
    ("serve.explain_p50_ms.lo", "ms"),
    ("serve.explain_tail_ms.lo", "ms"),
    ("serve.explain_p50_ms.hi", "ms"),
    ("serve.explain_tail_ms.hi", "ms"),
    ("serve.update_p50_ms", "ms"),
    ("serve.update_tail_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("trace.requests_matched", "count"),
    ("trace.overhead_pct", "%"),
];

/// Measured per-layer values by name, with a note each.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, String)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.insert(name, (value, note.into()));
    }

    fn set_ratio(&mut self, name: &'static str, r: Ratio, what: &str) {
        self.set(name, r.value, format!("{} / {} {what}", r.num, r.base));
    }

    /// Moves every per-layer metric into `report`, 0 for layers the
    /// workload did not exercise.
    fn into_report(mut self, report: &mut Report) {
        for &(name, unit) in LAYER_METRICS {
            let (value, note) = self
                .0
                .remove(name)
                .unwrap_or((0.0, "not exercised by this workload".into()));
            report.metric(name, value, unit, note);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if daemon::run_if_requested(&argv) {
        return ExitCode::SUCCESS;
    }
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::default();
    let mut report = Report::default();
    let mut layers = Layers::default();
    let threads = match args.workload.as_str() {
        "lr-adult-analyst" => Ok(trace_lr_adult(&args, &tracer, &mut report, &mut layers)),
        "sqf-serve-stream" => trace_sqf_serve(&args, &tracer, &mut report, &mut layers),
        _ => Ok(trace_forest_german(
            &args,
            &tracer,
            &mut report,
            &mut layers,
        )),
    };
    let threads = match threads {
        Ok(threads) => threads,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spans = tracer.spans();
    span_metrics(&spans, &mut layers);
    if let Some(path) = args.record_path("-spans.jsonl") {
        if let Err(e) = spans::write(&spans, &path) {
            eprintln!("perfbench-trace: cannot write {}: {e}", path.display());
        }
    }
    layers.into_report(&mut report);
    report.emit(
        host::provenance(&args.workload, args.seed, threads),
        args.record_path(".json").as_deref(),
    );
    ExitCode::SUCCESS
}

/// The layer times every workload gets from its spans.
fn span_metrics(spans: &[spans::Span], layers: &mut Layers) {
    let totals = spans::totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let total_ms = |layers: &mut Layers, metric: &'static str, span: &str| {
        let t = get(span);
        if t.count > 0 {
            layers.set(metric, t.ms, format!("{} calls", t.count));
        }
    };
    total_ms(layers, "data.generate_ms", "data.generate");
    total_ms(layers, "data.encode_ms", "data.encode");
    total_ms(layers, "models.fit_ms", "models.fit");
    for (metric, span) in [
        ("models.unlearn_ms", "models.unlearn"),
        ("models.predict_ms", "models.predict"),
    ] {
        let t = get(span);
        if t.count > 0 {
            let note = format!("{} calls, replaying the scorer's steps", t.count);
            layers.set(metric, t.ms, note);
        }
    }
    total_ms(layers, "influence.build_ms", "influence.build");
    total_ms(layers, "influence.precompute_ms", "influence.precompute");
    total_ms(
        layers,
        "influence.ground_truth_ms",
        "influence.ground_truth",
    );
    total_ms(layers, "influence.update_ms", "influence.update");
    total_ms(layers, "patterns.predicates_ms", "patterns.predicates");
    total_ms(layers, "patterns.index_ms", "patterns.index");
    total_ms(layers, "patterns.topk_ms", "patterns.topk");
    total_ms(layers, "patterns.table_patch_ms", "patterns.table_patch");
    total_ms(
        layers,
        "patterns.structure_patch_ms",
        "patterns.structure_patch",
    );
    total_ms(layers, "fairness.bias_ms", "fairness.bias");
    let score = get("influence.score");
    if score.count > 0 {
        layers.set(
            "influence.score_calls",
            score.count as f64,
            "scorer calls in the traced sweeps",
        );
        layers.set(
            "influence.score_ms",
            score.ms,
            "scorer time, children included",
        );
        let per_call = ratio(score.ms * 1e3, score.count as f64);
        layers.set_ratio("influence.score_us_per_call", per_call, "µs over calls");
    }
    let ground_truth = get("influence.ground_truth");
    if ground_truth.count > 0 {
        layers.set(
            "influence.ground_truth_calls",
            ground_truth.count as f64,
            "ground_truth_models calls",
        );
    }
    let bias = get("fairness.bias");
    if bias.count > 0 {
        layers.set(
            "fairness.bias_calls",
            bias.count as f64,
            "metric evaluations",
        );
    }
    let sweep = get("patterns.sweep");
    if sweep.count > 0 {
        layers.set(
            "patterns.sweep_self_ms",
            sweep.self_ms,
            format!("{} sweeps minus their scorer time", sweep.count),
        );
    }
}

/// The replica's structural time: structure builds plus the merge
/// resolution the lattice reports from inside its sweeps, and the sweep
/// counters.
fn replica_metrics<M: Traced>(
    replica: &Replica<'_, M>,
    tracer_spans: &[spans::Span],
    layers: &mut Layers,
) {
    let builds: f64 = tracer_spans
        .iter()
        .filter(|s| s.name == "patterns.structure")
        .map(spans::Span::ms)
        .sum();
    let merges = replica.sweeps.merge_resolution.as_secs_f64() * 1e3;
    layers.set(
        "patterns.structure_ms",
        builds + merges,
        format!("{builds:.3} ms structure builds + {merges:.3} ms merge resolution in sweeps"),
    );
    layers.set(
        "patterns.merges_resolved",
        replica.merges_resolved() as f64,
        "merges in the replica's cached structures",
    );
    layers.set(
        "patterns.candidates_generated",
        replica.sweeps.generated as f64,
        "over the traced sweeps",
    );
    layers.set(
        "patterns.candidates_kept",
        replica.sweeps.kept as f64,
        "over the traced sweeps",
    );
    if replica.update_fallbacks > 0 || tracer_spans.iter().any(|s| s.name == "influence.update") {
        layers.set(
            "influence.update_fallbacks",
            replica.update_fallbacks as f64,
            "influence updates that fell back",
        );
    }
}

/// Cache hit ratios from a session's counters, in the shape of
/// `GET /sessions/{name}/stats`.
fn core_ratios(stats: &Json, layers: &mut Layers) {
    let stat = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (sh, sm) = (stat("sweep_hits"), stat("sweep_misses"));
    layers.set_ratio(
        "core.sweep_hit_ratio",
        ratio(sh, sh + sm),
        "sweep lookups hit",
    );
    let served = stat("structure_hits") + stat("structure_range_hits");
    let all = served + stat("structure_misses");
    let note = "structure lookups served (exact or range)";
    layers.set_ratio("core.structure_hit_ratio", ratio(served, all), note);
    let (ch, cm) = (stat("coverage_hits"), stat("coverage_misses"));
    layers.set_ratio(
        "core.coverage_hit_ratio",
        ratio(ch, ch + cm),
        "coverage lookups hit",
    );
}

/// The cold-explain comparison: how much of the session's time the layer
/// spans account for, and what tracing cost.
fn cold_overhead(
    session_ms: f64,
    tracer: &Tracer,
    replica_root: spans::SpanId,
    layers: &mut Layers,
) {
    let traced_ms = tracer.ms(replica_root);
    let layer_ms = tracer.children_ms(replica_root);
    layers.set(
        "core.explain_overhead_ms",
        session_ms - layer_ms,
        format!(
            "session cold explain {session_ms:.3} ms minus {layer_ms:.3} ms of replica layer spans"
        ),
    );
    layers.set(
        "trace.overhead_pct",
        100.0 * (traced_ms / session_ms - 1.0),
        format!("traced cold explain {traced_ms:.3} ms vs untraced {session_ms:.3} ms"),
    );
}

/// Compares a traced answer with the session's and counts it.
fn matched(
    report: &mut Report,
    matches: &mut usize,
    session: &ExplainResponse,
    answer: &replica::Answer,
) {
    let outcome = matches_session(session, answer);
    *matches += usize::from(outcome.is_ok());
    report.op(outcome);
}

/// Warm requests of the analyst pass that the replica re-drives.
const TRACED_WARM: usize = 8;

/// Ground-truth requests of the analyst pass that the replica re-drives.
const TRACED_GROUND_TRUTH: usize = 3;

fn trace_lr_adult(args: &Args, tracer: &Tracer, report: &mut Report, layers: &mut Layers) -> usize {
    let (train, test) = w::adult_data();
    let pass = w::analyst_pass(&train, &test, args.seed, report, &mut Speed::default());
    core_ratios(&session_stats_json(&pass.session.stats()), layers);
    let threads = pass.session.threads();
    let mut replica = Replica::build(tracer, 0, threads, w::adult_data, |n| {
        LogisticRegression::new(n, w::L2)
    });
    let mut matches = 0;
    let cold = replica.explain(&pass.cold.request, 1);
    matched(report, &mut matches, &pass.cold, &cold);
    cold_overhead(
        median(&speed::raw(&pass.cold_times)),
        tracer,
        cold.span,
        layers,
    );
    let (mut warm, mut ground_truth) = (0, 0);
    let mut id = 2;
    for (class, response) in &pass.answers {
        let take = match class {
            Class::Warm => (warm < TRACED_WARM).then(|| warm += 1),
            Class::GroundTruth => (ground_truth < TRACED_GROUND_TRUTH).then(|| ground_truth += 1),
            Class::Repeat | Class::Batch => None,
        };
        if take.is_some() {
            let answer = replica.explain(&response.request, id);
            matched(report, &mut matches, response, &answer);
            id += 1;
        }
    }
    layers.set(
        "trace.requests_matched",
        matches as f64,
        format!("of {} traced requests", id - 1),
    );
    replica_metrics(&replica, &tracer.spans(), layers);
    threads
}

fn trace_forest_german(
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
    layers: &mut Layers,
) -> usize {
    let (train, test) = w::german_data();
    let pass = w::forest_pass(&train, &test, args.seed, report, &mut Speed::default());
    core_ratios(&session_stats_json(&pass.session.stats()), layers);
    let threads = pass.session.threads();
    let mut replica = Replica::build(tracer, 0, threads, w::german_data, |n| {
        Forest::new(n, ForestConfig::default())
    });
    let mut matches = 0;
    let cold = replica.explain(&pass.cold.request, 1);
    matched(report, &mut matches, &pass.cold, &cold);
    cold_overhead(pass.cold_time.raw, tracer, cold.span, layers);
    let ground_truth = replica.explain(&pass.ground_truth.request, 2);
    matched(report, &mut matches, &pass.ground_truth, &ground_truth);
    let (replayed, mismatches) = (replica.sweeps.replayed, replica.sweeps.replay_mismatches);
    report.op(if replayed > 0 && mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} of {replayed} replayed candidates differ from the backend scorer"
        ))
    });
    layers.set(
        "trace.requests_matched",
        matches as f64,
        "of 2 traced requests",
    );
    replica_metrics(&replica, &tracer.spans(), layers);
    threads
}

/// Round trips of back-to-back cached explains on one keep-alive
/// connection.
const KEEPALIVE_REQUESTS: usize = 30;

/// Explain rates tried for capacity, requests per second.
const CAPACITY_LADDER: [f64; 5] = [25.0, 50.0, 100.0, 200.0, 400.0];

/// Seconds each capacity rung runs.
const CAPACITY_RUNG_S: f64 = 2.0;

/// A rung passes when its explain tail is at most this many ms...
const CAPACITY_TAIL_LIMIT_MS: f64 = 50.0;

/// ...and its last quarter is no later than its first quarter plus this.
const CAPACITY_LATENESS_GROWTH_MS: f64 = 10.0;

/// Serve-layer probes run against the daemon after the workload: the
/// keep-alive round trip and the capacity ladder (cached explains only).
/// Every probe answer is checked like the workload's own.
fn probe(daemon: &daemon::Daemon, report: &mut Report, layers: &mut Layers) {
    let path = format!("/sessions/{}/explain", serve::LIVE);
    if let Ok(mut conn) = daemon.connect() {
        let rtts: Vec<f64> = (0..KEEPALIVE_REQUESTS)
            .map(|i| {
                let kind = i % serve::REQUESTS.len();
                let t = Instant::now();
                let response = conn.request("POST", &path, Some(&serve::explain_body(kind, false)));
                let rtt = ms_since(t);
                report.op(response.map_err(|e| e.to_string()).and_then(|r| {
                    let json = gopher_json::parse(r.body.trim()).map_err(|e| e.to_string())?;
                    serve::check_explain(&Ok((r.status, json)), kind)
                }));
                rtt
            })
            .collect();
        layers.set(
            "serve.keepalive_rtt_p50_ms",
            median(&rtts),
            format!("{KEEPALIVE_REQUESTS} cached explains on one connection"),
        );
    }
    let mut capacity = 0.0;
    for rate in CAPACITY_LADDER {
        let ops: Vec<Due<usize>> = fixed_rate(
            rate,
            Duration::ZERO,
            Duration::from_secs_f64(CAPACITY_RUNG_S),
            0.0,
        )
        .into_iter()
        .enumerate()
        .map(|(i, at)| Due {
            at,
            op: i % serve::REQUESTS.len(),
        })
        .collect();
        let results = run_open_loop(
            &ops,
            host::nproc(),
            || (),
            |(), kind| serve::post(daemon, &path, &serve::explain_body(*kind, false)).0,
        );
        let latencies: Vec<f64> = results.iter().map(|(t, _)| t.latency_ms()).collect();
        for ((_, answer), due) in results.iter().zip(&ops) {
            report.op(serve::check_explain(answer, due.op));
        }
        let quarter = results.len() / 4;
        let lateness = |r: &[(gopher_perfbench::sched::Timing, serve::Answer)]| {
            median(&r.iter().map(|(t, _)| t.lateness_ms()).collect::<Vec<_>>())
        };
        let growth = lateness(&results[results.len() - quarter..]) - lateness(&results[..quarter]);
        let all_ok = results
            .iter()
            .all(|(_, answer)| matches!(answer, Ok((200, _))));
        let tail_ms = tail(&latencies).map_or(f64::INFINITY, |t| t.value);
        if !(all_ok && tail_ms <= CAPACITY_TAIL_LIMIT_MS && growth <= CAPACITY_LATENESS_GROWTH_MS) {
            break;
        }
        capacity = rate;
    }
    layers.set(
        "serve.capacity_rps",
        capacity,
        format!("highest of {CAPACITY_LADDER:?}/s with tail ≤ {CAPACITY_TAIL_LIMIT_MS} ms and no lateness growth"),
    );
}

fn trace_sqf_serve(
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<usize, String> {
    let phase = Duration::from_secs_f64(args.seconds / 2.0);
    let run = serve::run(
        args.seed,
        phase,
        report,
        &mut Speed::default(),
        |daemon, report| probe(daemon, report, layers),
    )?;
    serve::verify(&run, report);
    serve_metrics(&run, layers);

    let (config, specs) = serve::parse_log(&run.applied)?;
    let Ok((AnySession::Lr(mut session), _)) = build_session(&config) else {
        return Err("the served session must build as LR".into());
    };
    let threads = session.threads();
    let requests = serve::requests();
    let t = Instant::now();
    let session_cold = session.explain(&requests[0]);
    let session_cold_ms = ms_since(t);
    let generate = || w::split(&sqf(serve::SQF_ROWS, w::DATA_SEED));
    let mut replica = Replica::build(tracer, 0, threads, generate, |n| {
        LogisticRegression::new(n, w::L2)
    });
    let mut matches = 0;
    let cold = replica.explain(&requests[0], 1);
    matched(report, &mut matches, &session_cold, &cold);
    cold_overhead(session_cold_ms, tracer, cold.span, layers);
    let mut id = 2;
    for spec in &specs {
        let added = spec.build_added(&config)?.ok_or("every delta adds rows")?;
        let removed = spec.resolve_removals(session.train().n_rows())?;
        session.update(&removed, &added);
        replica.update(&removed, &added, id);
        id += 1;
    }
    let stats = session.stats();
    layers.set_ratio(
        "core.update_fallback_ratio",
        ratio(stats.factor_fallbacks as f64, stats.updates_applied as f64),
        "in-process updates fell back",
    );
    for (request, response) in requests.iter().zip(session.explain_batch(&requests)) {
        let answer = replica.explain(request, id);
        matched(report, &mut matches, &response, &answer);
        id += 1;
    }
    layers.set(
        "trace.requests_matched",
        matches as f64,
        format!("of {} traced requests", 1 + requests.len()),
    );
    replica_metrics(&replica, &tracer.spans(), layers);
    Ok(threads)
}

/// Serve-layer numbers from the untraced daemon run.
fn serve_metrics(run: &serve::ServeRun, layers: &mut Layers) {
    core_ratios(&run.stats, layers);
    let stat = |key: &str| run.stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (survived, invalidated) = (stat("artifacts_survived"), stat("artifacts_invalidated"));
    layers.set_ratio(
        "core.artifacts_survived_ratio",
        ratio(survived, survived + invalidated),
        "structural artifacts survived updates",
    );
    layers.set_ratio(
        "serve.batch_ratio",
        ratio(stat("batches_formed"), stat("requests_served")),
        "batches per request",
    );

    let overhead: Vec<f64> = run
        .explains
        .iter()
        .map(|(t, query_ms, _)| t.round_trip_ms() - query_ms)
        .collect();
    layers.set(
        "serve.overhead_p50_ms",
        median(&overhead),
        "round trip minus the server's query_ms, per explain",
    );
    let lateness: Vec<f64> = run
        .explains
        .iter()
        .map(|(t, _, _)| t.lateness_ms())
        .collect();
    layers.set(
        "serve.lateness_p50_ms",
        median(&lateness),
        "send time minus due time",
    );
    layers.set(
        "serve.lateness_max_ms",
        lateness.iter().copied().fold(0.0, f64::max),
        "",
    );
    for (hi, p50, tail_name) in [
        (false, "serve.explain_p50_ms.lo", "serve.explain_tail_ms.lo"),
        (true, "serve.explain_p50_ms.hi", "serve.explain_tail_ms.hi"),
    ] {
        let latencies: Vec<f64> = run
            .explains
            .iter()
            .filter(|e| e.2 == hi)
            .map(|(t, _, _)| t.latency_ms())
            .collect();
        layers.set(
            p50,
            median(&latencies),
            format!("{} samples from due time", latencies.len()),
        );
        if let Some(t) = tail(&latencies) {
            layers.set(
                tail_name,
                t.value,
                format!("p{:.1} of {}", t.percentile, t.samples),
            );
        }
    }
    let updates = speed::raw(&run.update_times);
    layers.set(
        "serve.update_p50_ms",
        median(&updates),
        format!("burst of {}", updates.len()),
    );
    if let Some(t) = tail(&updates) {
        layers.set(
            "serve.update_tail_ms",
            t.value,
            format!("p{:.1} of {}", t.percentile, t.samples),
        );
    }
    let (encode_us, decode_us) = json_costs(&run.bodies);
    layers.set(
        "json.decode_us",
        decode_us,
        format!(
            "per body, over {} request and response bodies",
            run.bodies.len()
        ),
    );
    layers.set(
        "json.encode_us",
        encode_us,
        format!(
            "per body, over {} request and response bodies",
            run.bodies.len()
        ),
    );
}

/// Rounds over the bodies when timing the codec.
const JSON_ROUNDS: usize = 20;

/// Median per-body encode and decode time of `gopher-json` over the
/// workload's own bodies, µs.
fn json_costs(bodies: &[String]) -> (f64, f64) {
    let parsed: Vec<Json> = bodies
        .iter()
        .filter_map(|b| gopher_json::parse(b.trim()).ok())
        .collect();
    let per_body = |total: Duration, n: usize| total.as_secs_f64() * 1e6 / n.max(1) as f64;
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    for _ in 0..JSON_ROUNDS {
        let t = Instant::now();
        let n = bodies
            .iter()
            .filter(|b| gopher_json::parse(b.trim()).is_ok())
            .count();
        decode.push(per_body(t.elapsed(), n));
        let t = Instant::now();
        let bytes: usize = parsed.iter().map(|j| j.to_string().len()).sum();
        encode.push(per_body(t.elapsed(), parsed.len()));
        std::hint::black_box(bytes);
    }
    (median(&encode), median(&decode))
}
