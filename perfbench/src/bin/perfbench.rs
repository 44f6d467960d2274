//! End-to-end runner: runs one workload with tracing off and prints its
//! end-to-end metrics, ending with the one-line JSON result.
//!
//! ```text
//! perfbench --workload <lr-adult-analyst|sqf-serve-stream|forest-german>
//!           --seed <n> --seconds <n> --trace 0 [--out-dir <dir>]
//! ```
//!
//! Every workload reports the same seven metrics (see `perfbench/README.md`
//! for what each means on each workload). Times are on the host-speed
//! scale of `gopher_perfbench::speed`, with the raw value in each note;
//! workload-specific numbers are printed as raw details.

use gopher_perfbench::args::{self, Args};
use gopher_perfbench::report::Report;
use gopher_perfbench::speed::{self, Sample, Speed};
use gopher_perfbench::stats::{median, tail};
use gopher_perfbench::workloads as w;
use gopher_perfbench::{daemon, host, serve};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if daemon::run_if_requested(&argv) {
        return ExitCode::SUCCESS;
    }
    let args = match args::parse(&argv) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("perfbench: the traced run is the perfbench-trace binary");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut speed = Speed::default();
    let threads = match args.workload.as_str() {
        "lr-adult-analyst" => Ok(lr_adult_analyst(&args, &mut report, &mut speed)),
        "sqf-serve-stream" => sqf_serve_stream(&args, &mut report, &mut speed),
        _ => Ok(forest_german(&args, &mut report, &mut speed)),
    };
    match threads {
        Ok(threads) => {
            let note = format!("median of {} probes", speed.probes());
            report.detail("host_slowness", speed.slowness(), "ratio", note);
            let provenance = host::provenance(&args.workload, args.seed, threads);
            report.emit(provenance, args.record_path(".json").as_deref());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One statistic of the same samples on the scaled and the raw times.
#[derive(Debug, Clone, Copy)]
struct Stat {
    scaled: f64,
    raw: f64,
}

impl Stat {
    fn of(samples: &[Sample], f: impl Fn(&[f64]) -> f64) -> Stat {
        Stat {
            scaled: f(&speed::scaled(samples)),
            raw: f(&speed::raw(samples)),
        }
    }

    /// The component-wise median of per-pass statistics.
    fn median(stats: &[Stat]) -> Stat {
        let pick = |f: fn(&Stat) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        Stat {
            scaled: pick(|s| s.scaled),
            raw: pick(|s| s.raw),
        }
    }
}

/// Adds a time metric: the scaled value, with the raw one in the note.
/// `per_ms` converts ms to the metric's unit.
fn time(
    report: &mut Report,
    name: &str,
    stat: Stat,
    per_ms: f64,
    unit: &'static str,
    note: String,
) {
    let raw = stat.raw * per_ms;
    report.metric(
        name,
        stat.scaled * per_ms,
        unit,
        format!("{note}; raw {raw:.4} {unit}"),
    );
}

/// Runs `pass` until another pass would overrun `seconds` (at least once);
/// returns the number of passes.
fn repeat_passes(seconds: f64, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let t = Instant::now();
        pass();
        passes += 1;
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            return passes;
        }
    }
}

/// The tail value of `samples` (0 when there are too few).
fn tail_value(samples: &[f64]) -> f64 {
    tail(samples).map_or(0.0, |t| t.value)
}

/// "p<percentile> of <n>" for a sample count.
fn tail_of(n: usize) -> String {
    match tail(&vec![0.0; n]) {
        Some(t) => format!("p{:.1} of {n}", t.percentile),
        None => format!("no tail: only {n} samples"),
    }
}

/// Requests per second of `busy` time, on both scales.
fn rate(requests: usize, busy: Sample) -> Stat {
    Stat {
        scaled: requests as f64 * 1e3 / busy.scaled,
        raw: requests as f64 * 1e3 / busy.raw,
    }
}

fn lr_adult_analyst(args: &Args, report: &mut Report, speed: &mut Speed) -> usize {
    let (train, test) = w::adult_data();
    let (mut threads, mut warm_n, mut ground_truth_n) = (0, 0, 0);
    let (mut setup, mut cold) = (Vec::new(), Vec::new());
    let (mut warm_p50, mut warm_tail, mut ground_truth, mut qps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let passes = repeat_passes(args.seconds, || {
        let pass = w::analyst_pass(&train, &test, args.seed, report, speed);
        threads = pass.session.threads();
        setup.extend(&pass.setup);
        cold.extend(&pass.cold_times);
        warm_n = pass.warm.len();
        warm_p50.push(Stat::of(&pass.warm, median));
        warm_tail.push(Stat::of(&pass.warm, tail_value));
        ground_truth_n = pass.ground_truth.len();
        ground_truth.push(Stat::of(&pass.ground_truth, median));
        qps.push(rate(pass.requests, pass.sequence));
    });
    let over = format!("median of {passes} passes");
    let fresh = format!("median of {} fresh sessions", setup.len());
    time(
        report,
        "setup_s",
        Stat::of(&setup, median),
        1e-3,
        "s",
        fresh.clone(),
    );
    time(
        report,
        "cold_explain_ms",
        Stat::of(&cold, median),
        1.0,
        "ms",
        fresh,
    );
    let warm = Stat::median(&warm_p50);
    let note = format!("warm queries (new scoring key): p50 of {warm_n}, {over}");
    time(report, "query_p50_ms", warm, 1.0, "ms", note);
    let warm_tail = Stat::median(&warm_tail);
    let note = format!("warm queries: {}, {over}", tail_of(warm_n));
    time(report, "query_tail_ms", warm_tail, 1.0, "ms", note);
    let note = format!("p50 of {ground_truth_n}, {over}");
    time(
        report,
        "ground_truth_p50_ms",
        Stat::median(&ground_truth),
        1.0,
        "ms",
        note,
    );
    let qps = Stat::median(&qps);
    let note = format!(
        "whole sequence incl. repeats and batches, {over}; raw {:.4}",
        qps.raw
    );
    report.metric("queries_per_s", qps.scaled, "1/s", note);
    let peak = host::own_peak_rss_mb().unwrap_or(0.0);
    report.metric("peak_rss_mb", peak, "MB", "VmHWM of the benchmark process");
    report.detail("warm_query_p50_ms", warm.raw, "ms", "raw query_p50_ms");
    report.detail(
        "warm_query_tail_ms",
        warm_tail.raw,
        "ms",
        "raw query_tail_ms",
    );
    threads
}

fn forest_german(args: &Args, report: &mut Report, speed: &mut Speed) -> usize {
    let (train, test) = w::german_data();
    let mut threads = 0;
    let (mut setup, mut cold) = (Vec::new(), Vec::new());
    let (mut gt_p50, mut gt_tail, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    let passes = repeat_passes(args.seconds, || {
        let pass = w::forest_pass(&train, &test, args.seed, report, speed);
        threads = pass.session.threads();
        setup.extend(&pass.setup);
        cold.push(pass.cold_time);
        let all: Vec<Sample> = pass.ground_truth_times.iter().map(|&(_, t)| t).collect();
        gt_p50.push(Stat::of(&all, median));
        gt_tail.push(Stat::of(&all, tail_value));
        let busy = all.iter().fold(pass.cold_time, |acc, t| Sample {
            raw: acc.raw + t.raw,
            scaled: acc.scaled + t.scaled,
        });
        qps.push(rate(1 + all.len(), busy));
    });
    let n = w::FOREST_GROUND_TRUTHS;
    let over = format!("median of {passes} passes");
    let fresh = format!("median of {} fresh sessions", setup.len());
    time(
        report,
        "setup_s",
        Stat::of(&setup, median),
        1e-3,
        "s",
        fresh,
    );
    let note = format!("τ 0.10, depth 3, {over}");
    time(
        report,
        "cold_explain_ms",
        Stat::of(&cold, median),
        1.0,
        "ms",
        note,
    );
    let note = format!("ground-truth requests, k 1..5: p50 of {n}, {over}");
    time(
        report,
        "query_p50_ms",
        Stat::median(&gt_p50),
        1.0,
        "ms",
        note,
    );
    let note = format!("ground-truth requests, k 1..5: {}, {over}", tail_of(n));
    time(
        report,
        "query_tail_ms",
        Stat::median(&gt_tail),
        1.0,
        "ms",
        note,
    );
    let note = format!("ground-truth requests, k 1..5: p50 of {n}, {over} (= query_p50_ms)");
    time(
        report,
        "ground_truth_p50_ms",
        Stat::median(&gt_p50),
        1.0,
        "ms",
        note,
    );
    let qps = Stat::median(&qps);
    let note = format!(
        "cold explain + ground-truth requests per second, {over}; raw {:.4}",
        qps.raw
    );
    report.metric("queries_per_s", qps.scaled, "1/s", note);
    let peak = host::own_peak_rss_mb().unwrap_or(0.0);
    report.metric("peak_rss_mb", peak, "MB", "VmHWM of the benchmark process");
    threads
}

fn sqf_serve_stream(args: &Args, report: &mut Report, speed: &mut Speed) -> Result<usize, String> {
    let phase = Duration::from_secs_f64(args.seconds / 2.0);
    let run = serve::run(args.seed, phase, report, speed, |_, _| {})?;
    serve::verify(&run, report);
    // Open-loop latencies are scaled by the run's median slowness: the
    // probes run between closed-loop operations, never under the load.
    let slowness = speed.slowness();
    let open_loop = |samples: &[f64], f: fn(&[f64]) -> f64| Stat {
        scaled: f(samples) / slowness,
        raw: f(samples),
    };
    let latencies = |hi: Option<bool>| -> Vec<f64> {
        (run.explains.iter())
            .filter(|(_, _, is_hi)| hi.is_none_or(|h| h == *is_hi))
            .map(|(t, _, _)| t.latency_ms())
            .collect()
    };
    let (both, lo, hi) = (
        latencies(None),
        latencies(Some(false)),
        latencies(Some(true)),
    );
    let note = format!("POST /sessions until 201, median of {}", run.setup.len());
    time(
        report,
        "setup_s",
        Stat::of(&run.setup, median),
        1e-3,
        "s",
        note,
    );
    let note = format!(
        "first explain of a fresh session, median of {}",
        run.cold_times.len()
    );
    time(
        report,
        "cold_explain_ms",
        Stat::of(&run.cold_times, median),
        1.0,
        "ms",
        note,
    );
    let note = format!("explain from due time, both rates: p50 of {}", both.len());
    time(
        report,
        "query_p50_ms",
        open_loop(&both, median),
        1.0,
        "ms",
        note,
    );
    let note = format!("explain from due time, both rates: {}", tail_of(both.len()));
    time(
        report,
        "query_tail_ms",
        open_loop(&both, tail_value),
        1.0,
        "ms",
        note,
    );
    let gt = Stat::of(&run.ground_truth_times, median);
    let note = format!("p50 of {}", run.ground_truth_times.len());
    time(report, "ground_truth_p50_ms", gt, 1.0, "ms", note);
    let offered = format!(
        "open-loop operations completed per second ({} then {} explains/s offered)",
        serve::RATE_LO,
        serve::RATE_HI
    );
    report.metric("queries_per_s", run.ops_per_s, "1/s", offered);
    let note = "VmHWM of the live daemon at the end of the run";
    report.metric("peak_rss_mb", run.peak_rss_mb, "MB", note);
    let note = "VmHWM of the live daemon after its session set-up";
    report.detail("setup_peak_rss_mb", run.setup_peak_rss_mb, "MB", note);
    for (name, samples, rate) in [("lo", &lo, serve::RATE_LO), ("hi", &hi, serve::RATE_HI)] {
        let note = format!("{} samples at {rate}/s", samples.len());
        report.detail(
            &format!("serve_explain_p50_ms.{name}"),
            median(samples),
            "ms",
            note,
        );
        let tail = tail_value(samples);
        report.detail(
            &format!("serve_explain_tail_ms.{name}"),
            tail,
            "ms",
            tail_of(samples.len()),
        );
    }
    let updates = speed::raw(&run.update_times);
    let note = format!("back-to-back burst of {}", updates.len());
    report.detail("update_p50_ms", median(&updates), "ms", note);
    report.detail(
        "update_tail_ms",
        tail_value(&updates),
        "ms",
        tail_of(updates.len()),
    );
    let fell_back = format!("of {} burst deltas", updates.len());
    report.detail(
        "update_fallbacks",
        run.update_fallbacks as f64,
        "count",
        fell_back,
    );
    let under_load: Vec<f64> = run
        .open_loop_updates
        .iter()
        .map(|t| t.latency_ms())
        .collect();
    let note = format!("{} deltas under load", under_load.len());
    report.detail("open_loop_update_p50_ms", median(&under_load), "ms", note);
    let lateness: Vec<f64> = run
        .explains
        .iter()
        .map(|(t, _, _)| t.lateness_ms())
        .collect();
    report.detail(
        "lateness_p50_ms",
        median(&lateness),
        "ms",
        "send time minus due time",
    );
    let max = lateness.iter().copied().fold(0.0, f64::max);
    report.detail("lateness_max_ms", max, "ms", "send time minus due time");
    let threads = run.stats.get("threads").and_then(gopher_json::Json::as_f64);
    Ok(threads.unwrap_or(0.0) as usize)
}
