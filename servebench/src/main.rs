//! `servebench` — the serving benchmark.
//!
//! ```text
//! servebench --workload closed_rps|closed_fp32|open_rps --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! Spawns `tia_serve::Server` on loopback with tia-served's defaults
//! (RPS 4–8 model, model seed 1, max batch 8, queue 1024, no batch wait,
//! native kernels, 2 shards) and drives one traffic mix at it from this
//! process. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that splits the time by layer.
//! Every run checks the answers. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the metrics and why each workload exists.
//!
//! `--spin PID` is the entry point of the idle spinner processes a run
//! starts (see [`host::IdleSpinners`]), not for use by hand.

mod host;
mod layers;
mod load;
mod stats;

use host::{peak_rss_mib, process_cpu_s, CpuTimes, IdleSpinners};
use layers::Metric;
use load::{
    check_logs, closed_loop, finish, model, open_loop, open_schedule, spawn_warm, Check, ConnLog,
    Inputs, Served, Stop, Warmup, Workload, CLOSED_CONNS, RUN_TAG,
};
use stats::{mean, median, quantile, sort, windowed};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tia_nn::Network;
use tia_serve::cli::Args;
use tia_serve::{trace, Stage};
use tia_tensor::simd;

/// Server spawns (each with its warm-up) per untraced run; `setup_s` is
/// their median. The first serves the timed phase.
const SETUP_REPEATS: usize = 5;
/// Requests per connection in one traced closed-loop window. With the
/// warm-up this stays inside the flight recorder's rings (4096 slots per
/// reader, 3 events per request; 32768 for the batcher), so no event of a
/// window is overwritten.
const WINDOW_PER_CONN: u64 = 1000;
/// Length of one traced open-loop window (~1000 arrivals at 800 req/s).
const OPEN_WINDOW_S: f64 = 1.25;
/// The untraced timed phase is cut into windows of this length; its
/// throughput and latency quantiles are medians over the windows. At
/// 800 req/s a window holds ~1200 samples, so a window's p99 has ~12
/// samples beyond it.
const WINDOW_S: f64 = 1.5;

fn main() {
    if let Err(e) = run() {
        eprintln!("servebench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(&["workload", "seed", "seconds", "trace", "spin"], &[])?;
    if let Some(parent) = args.get("spin") {
        host::spin(
            parent
                .parse()
                .map_err(|_| format!("--spin: bad pid {parent:?}"))?,
        );
    }
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let seconds: f64 = args.get_or("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let traced = match args.get_or("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let spinners = IdleSpinners::start();
    println!(
        "servebench: workload {} seed {seed} seconds {seconds} trace {} | host: nproc {}, simd {}, kernel native, idle spinners {}",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd::detect_name(),
        spinners.mode(),
    );
    let out = if traced {
        traced_run(workload, seed, seconds)?
    } else {
        untraced_run(workload, seed, seconds)?
    };
    out.print();
    drop(spinners);
    Ok(())
}

/// A finished run: its metrics and every check's outcome.
struct Outcome {
    metrics: Vec<Metric>,
    check: Check,
    problems: Vec<String>,
}

impl Outcome {
    fn print(mut self) {
        for (name, v, unit) in &self.metrics {
            println!("  {name:<34} {v:>14.4} {unit}");
            if !v.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
            }
        }
        self.problems.append(&mut self.check.problems);
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.check.sent.max(1),
            self.check.failed(),
            metrics.join(", ")
        );
    }
}

/// Drives the workload's measured traffic at `addr`: the closed loops
/// until `stop`, the open loop through its whole `schedule`.
fn drive(
    workload: Workload,
    addr: SocketAddr,
    frames: &load::Frames,
    stop: Stop,
    schedule: &[u64],
    start: Instant,
) -> Vec<ConnLog> {
    match workload {
        Workload::OpenRps => vec![open_loop(addr, frames, RUN_TAG, schedule, start)],
        Workload::ClosedRps | Workload::ClosedFp32 => {
            closed_loop(addr, frames, RUN_TAG, CLOSED_CONNS, stop, start)
        }
    }
}

/// Checks a server's warm-up answers, drains it and checks conservation.
fn retire(
    s: Served,
    inputs: &Inputs,
    verifier: &mut Network,
    problems: &mut Vec<String>,
) -> tia_engine::EngineStats {
    let warm = check_logs(&s.warm_logs, None, inputs, verifier, 0);
    if warm.failed() > 0 {
        problems.push(format!(
            "warm-up: {} of {} request(s) failed",
            warm.failed(),
            warm.sent
        ));
    }
    problems.extend(warm.problems);
    let (stats, p) = finish(s);
    problems.extend(p);
    stats
}

/// Every send's lag behind when it was due, ms, sorted.
fn lag_ms(logs: &[ConnLog]) -> Vec<f64> {
    let mut v: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.lag_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    sort(&mut v);
    v
}

fn untraced_run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed);
    let warm = Warmup::new(&inputs, workload);
    let frames = inputs.frames(&workload.wire_policy());
    let schedule = match workload {
        Workload::OpenRps => open_schedule(seed, seconds),
        _ => Vec::new(),
    };
    let mut verifier = model();
    let mut problems = Vec::new();
    let steal0 = CpuTimes::now();

    let spawn = || spawn_warm(false, &warm).map_err(|e| format!("could not spawn the server: {e}"));
    let (s, t) = spawn()?;
    let mut setups = vec![t];

    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let stop = Stop::At(start + Duration::from_secs_f64(seconds));
    let logs = drive(workload, s.server.addr(), &frames, stop, &schedule, start);
    let cpu_s = process_cpu_s() - cpu0;
    let steal = CpuTimes::now().steal_frac_since(&steal0);
    // The peak of one server's life; the set-up repeats below come after.
    let rss = peak_rss_mib();

    let check = check_logs(&logs, Some(workload), &inputs, &mut verifier, seed);
    let stats = retire(s, &inputs, &mut verifier, &mut problems);
    for _ in 1..SETUP_REPEATS {
        let (s, t) = spawn()?;
        setups.push(t);
        retire(s, &inputs, &mut verifier, &mut problems);
    }

    let windows = ((seconds / WINDOW_S) as usize).max(1);
    let win = windowed(
        logs.iter()
            .flat_map(ConnLog::answered)
            .map(|(_, d, l)| (d, l)),
        seconds,
        windows,
    );
    let lag = lag_ms(&logs);
    if win.min_samples < 1000 {
        problems.push(format!(
            "a window has only {} latency samples: p99 needs at least 1000",
            win.min_samples
        ));
    }
    let ok = check.ok as f64;
    println!(
        "  {windows} windows, >= {} samples each | sent {} ok {} failed_frac {} verified {} | send lag p99 {:.4} ms | steal {:.4} | engine mean batch {:.3}",
        win.min_samples,
        check.sent,
        check.ok,
        check.failed() as f64 / check.sent.max(1) as f64,
        check.verified,
        quantile(&lag, 0.99),
        steal,
        stats.mean_batch(),
    );
    if workload == Workload::OpenRps {
        let rt = logs.iter().all(|l| l.realtime);
        println!(
            "  open-loop client threads: {}",
            if rt { "SCHED_FIFO" } else { "normal priority" }
        );
    }
    let mut all: Vec<f64> = logs
        .iter()
        .flat_map(ConnLog::answered)
        .map(|(_, _, l)| l as f64 / 1e6)
        .collect();
    sort(&mut all);
    println!(
        "  run-wide latency over {} samples: p50 {:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms",
        all.len(),
        quantile(&all, 0.5),
        quantile(&all, 0.99),
        quantile(&all, 0.999),
    );
    let metrics = vec![
        ("throughput_rps".to_string(), win.rate, "req/s"),
        ("latency_p50_ms".to_string(), win.p50 / 1e6, "ms"),
        ("latency_p99_ms".to_string(), win.p99 / 1e6, "ms"),
        ("cpu_ms_per_req".to_string(), cpu_s * 1e3 / ok, "ms"),
        ("ok_frac".to_string(), ok / check.sent.max(1) as f64, "1"),
        ("setup_s".to_string(), median(&mut setups), "s"),
        ("rss_peak_mb".to_string(), rss, "MiB"),
    ];
    Ok(Outcome {
        metrics,
        check,
        problems,
    })
}

/// Span intervals (µs) of the traced windows, the per-cycle counts and the
/// CPU comparison between traced and untraced windows.
#[derive(Default)]
struct TraceAcc {
    intervals: [Vec<f64>; 6],
    batch_sizes: Vec<f64>,
    subbatches: Vec<f64>,
    overwritten: u64,
    incomplete: u64,
    engine_requests: usize,
    engine_batches: usize,
    /// `[untraced, traced]` CPU seconds and successful answers.
    cpu_s: [f64; 2],
    ok: [u64; 2],
}

const INTERVALS: [&str; 6] = ["admit", "queue", "window", "engine", "reply", "outside"];

impl TraceAcc {
    /// Folds in one traced window that started at `start`: its events from
    /// then on and its requests' client latencies.
    fn collect(&mut self, sink: &trace::TraceSink, start: Instant, logs: &[ConnLog]) {
        self.overwritten += sink.overwritten();
        let events = sink.drain();
        let win0 = start.saturating_duration_since(sink.epoch()).as_nanos() as u64;
        for e in events.iter().filter(|e| e.ts_ns >= win0) {
            match e.stage {
                Stage::BatchFormed => self.batch_sizes.push(f64::from(e.arg0)),
                Stage::EngineCycle => self.subbatches.push(f64::from(e.arg1)),
                _ => {}
            }
        }
        let client: HashMap<u64, u64> = logs
            .iter()
            .flat_map(ConnLog::answered)
            .map(|(id, _, l)| (id, l))
            .collect();
        for span in trace::spans(&events) {
            let Some(lat) = span.wire_id.and_then(|id| client.get(&id)) else {
                continue; // warm-up traffic
            };
            let at = |st: Stage| span.events.iter().find(|e| e.stage == st).map(|e| e.ts_ns);
            let stamps = [
                Stage::FrameDecoded,
                Stage::Enqueued,
                Stage::WindowEnter,
                Stage::EngineSubmit,
                Stage::Flushed,
                Stage::Sent,
            ]
            .map(at);
            let Some(t) = stamps
                .iter()
                .copied()
                .collect::<Option<Vec<u64>>>()
                .filter(|_| span.complete())
            else {
                self.incomplete += 1;
                continue;
            };
            for i in 0..5 {
                self.intervals[i].push(t[i + 1].saturating_sub(t[i]) as f64 / 1e3);
            }
            let served_ns = t[5].saturating_sub(t[0]);
            self.intervals[5].push((*lat as f64 - served_ns as f64) / 1e3);
        }
    }
}

fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed);
    let warm = Warmup::new(&inputs, workload);
    let frames = inputs.frames(&workload.wire_policy());
    let mut verifier = model();
    let mut problems = Vec::new();
    let mut check = Check::default();
    let mut acc = TraceAcc::default();
    let mut lag = Vec::new();
    let steal0 = CpuTimes::now();
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);

    // Rounds of four windows, untraced-traced-traced-untraced, each on a
    // fresh server so no window's events outgrow the recorder's rings.
    let mut window = 0u64;
    while window == 0 || !window.is_multiple_of(4) || Instant::now() < t_end {
        let traced = matches!(window % 4, 1 | 2);
        let (s, _) =
            spawn_warm(traced, &warm).map_err(|e| format!("could not spawn the server: {e}"))?;
        let sink = s.server.trace_handle();
        // ordering: relaxed — statistics read at a quiescent point.
        let b0 = s.metrics.batches_total.load(Ordering::Relaxed) as usize;
        let f0 = s.metrics.batch_frames_total.load(Ordering::Relaxed) as usize;
        let schedule = match workload {
            Workload::OpenRps => open_schedule(seed.wrapping_add(window), OPEN_WINDOW_S),
            _ => Vec::new(),
        };
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let logs = drive(
            workload,
            s.server.addr(),
            &frames,
            Stop::Count(WINDOW_PER_CONN),
            &schedule,
            start,
        );
        let cpu_s = process_cpu_s() - cpu0;
        let c = check_logs(
            &logs,
            Some(workload),
            &inputs,
            &mut verifier,
            seed.wrapping_add(window),
        );
        let stats = retire(s, &inputs, &mut verifier, &mut problems);
        let side = usize::from(traced);
        acc.cpu_s[side] += cpu_s;
        acc.ok[side] += c.ok;
        if let Some(sink) = sink.filter(|_| traced) {
            acc.collect(&sink, start, &logs);
            acc.engine_requests += stats.requests - f0;
            acc.engine_batches += stats.batches - b0;
        }
        check.absorb(c);
        lag.extend(lag_ms(&logs));
        window += 1;
    }
    if acc.overwritten > 0 {
        problems.push(format!("{} trace event(s) overwritten", acc.overwritten));
    }
    if acc.incomplete > 0 {
        problems.push(format!(
            "{} traced request(s) without a complete span",
            acc.incomplete
        ));
    }
    sort(&mut lag);

    let mut metrics: Vec<Metric> = Vec::new();
    for (i, name) in INTERVALS.iter().enumerate() {
        let v = &mut acc.intervals[i];
        sort(v);
        metrics.push((format!("serve.{name}_us.p50"), quantile(v, 0.5), "us"));
        metrics.push((format!("serve.{name}_us.p99"), quantile(v, 0.99), "us"));
    }
    println!(
        "  traced windows: {window} ({} spans per interval)",
        acc.intervals[0].len()
    );
    let per_req = |side: usize| acc.cpu_s[side] / acc.ok[side].max(1) as f64;
    metrics.push((
        "serve.batch_size.mean".to_string(),
        mean(&acc.batch_sizes),
        "req",
    ));
    metrics.push((
        "serve.trace_overhead_frac".to_string(),
        per_req(1) / per_req(0) - 1.0,
        "1",
    ));
    metrics.push((
        "serve.trace_overwritten".to_string(),
        acc.overwritten as f64,
        "count",
    ));

    metrics.push((
        "engine.subbatches_per_cycle.mean".to_string(),
        mean(&acc.subbatches),
        "count",
    ));
    metrics.push((
        "engine.mean_batch".to_string(),
        acc.engine_requests as f64 / acc.engine_batches.max(1) as f64,
        "req",
    ));
    metrics.push((
        "engine.serve_us_per_req".to_string(),
        layers::engine_serve_us(&inputs, workload, 256, 7),
        "us",
    ));

    let nn = layers::nn_split(&inputs, 40);
    if !nn.replica_matches {
        problems.push("layer replica logits differ from Network::forward".to_string());
    }
    metrics.extend(nn.metrics.iter().cloned());
    metrics.extend(layers::op_split(seed, 15));
    let (sim, by_bits) = layers::sim_split();
    metrics.extend(sim);
    print!("{}", layers::modeled_vs_host(&nn, &by_bits));

    metrics.push((
        "loadgen.send_lag_p99_ms".to_string(),
        quantile(&lag, 0.99),
        "ms",
    ));
    metrics.push((
        "host.steal_frac".to_string(),
        CpuTimes::now().steal_frac_since(&steal0),
        "1",
    ));
    Ok(Outcome {
        metrics,
        check,
        problems,
    })
}
