//! Seeded serving benchmark for the KalmMind fleet.
//!
//! ```text
//! perfbench --workload <serve-x2z3|decode-z46|churn-monitored> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real stack — `Fleet` shards behind an `IngestServer`, one
//! `IngestClient` connection, a closed loop — through its public API.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! pass (see `layers`) and prints the per-layer metrics. The last line of
//! standard output is the result object; the line before it records the
//! host and build. A failed entry, lifecycle call or correctness check
//! makes the run exit 1. See `README.md` beside this crate.

mod alloc;
mod layers;
mod serve;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use serve::{cpu_ticks, secs, Bench, SHARDS, WINDOW_FRAMES};
use stats::{median, quantile, samples_beyond, sorted, window_throughput};
use workload::{Churn, Inputs, Rng, Spec};

#[global_allocator]
static GLOBAL: alloc::TrackingAlloc = alloc::TrackingAlloc;

/// Set-ups per run: at least `SETUP_REPS` and until `SETUP_SECS` have been
/// spent setting up, at most `SETUP_MAX_REPS`; `setup_s` is their median
/// and the first one serves.
const SETUP_REPS: usize = 5;
const SETUP_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;
/// Fewest windows a frame metric is taken from: the steal-free ones, or
/// the least-stolen ones when fewer are steal-free.
const MIN_WINDOWS: usize = 20;
/// Share of `--seconds` the traced run spends untraced (the baseline for
/// the tracing overhead); the rest is the traced pass.
const UNTRACED_SHARE: f64 = 0.3;
/// Where the traced run writes its Chrome trace.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <serve-x2z3|decode-z46|churn-monitored> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::WORKLOADS
        );
        return ExitCode::from(2);
    };
    if spec.obs != cfg!(feature = "obs") {
        eprintln!(
            "perfbench: {} needs a build with the obs feature {}",
            spec.name,
            if spec.obs { "on" } else { "off" }
        );
        return ExitCode::from(2);
    }
    match run(&spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Metric name, value, unit — printed in this order.
type Metric = (&'static str, f64, &'static str);

fn steal_since(before: Option<stats::CpuTicks>) -> f64 {
    match (before, cpu_ticks()) {
        (Some(a), Some(b)) => stats::steal_pct(a, b),
        _ => f64::NAN,
    }
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn run(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut rng = Rng::new(args.seed);
    let inputs = Inputs::generate(spec, &mut rng);
    let slots = inputs.slots(spec, &mut rng);
    let bench_rng = Rng::new(rng.next_u64());

    // Set-up is timed `SETUP_REPS` times: the first set-up serves the run
    // on a fresh heap; the rest follow the run, once it has shut down.
    let t_run = Instant::now();
    let (mut bench, first_setup) = Bench::setup(spec, &inputs, &slots, bench_rng.clone())
        .map_err(|e| format!("set-up: {e}"))?;
    let seated = bench.program_heap() / spec.sessions as f64;
    let t_setups = secs(t_run);
    let t_warm = Instant::now();
    bench.warm_up();
    let warm = bench.program_heap() / spec.sessions as f64;
    let t_warm = secs(t_warm);

    let mut meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"obs\":{},\"shards\":{SHARDS},\"threads_per_shard\":1,\"sessions\":{},\
         \"frame_entries\":{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg!(feature = "obs"),
        spec.sessions,
        spec.frame,
    );
    let serving = if args.trace {
        args.seconds * UNTRACED_SHARE
    } else {
        args.seconds
    };
    let steal0 = cpu_ticks();
    bench.serve(serving);
    let serve_steal = steal_since(steal0);
    let peak = bench.peak_program_heap();
    let all_windows: Vec<&[f64]> = bench.times.chunks_exact(WINDOW_FRAMES).collect();
    if all_windows.is_empty() {
        return Err(format!("only {} frames served", bench.times.len()));
    }
    let measured_frames = stats::least_stolen(&all_windows, &bench.steal, MIN_WINDOWS).concat();
    let frames = sorted(&measured_frames);
    let _ = write!(
        meta,
        ",\"frames\":{},\"windows\":{},\"quiet_windows\":{},\"frames_measured\":{},\
         \"frames_beyond_p99\":{},\"steal_pct\":{serve_steal:.3},\"p50_ms_by_quarter\":{:.3?}",
        bench.times.len(),
        all_windows.len(),
        bench.steal.iter().filter(|&&t| t == 0).count(),
        frames.len(),
        samples_beyond(frames.len(), 0.99),
        bench
            .times
            .chunks(bench.times.len().div_ceil(4))
            .map(|q| 1e3 * median(q))
            .collect::<Vec<_>>(),
    );
    // A traced run makes its after-loop rounds after the traced pass, so
    // the pass replays sessions at their staggered phases (a replacement
    // restarts cold, at iteration 0).
    let t_life = Instant::now();
    if !args.trace {
        after_loop_churn(&mut bench);
    }
    let t_life = secs(t_life);
    let t_gate = Instant::now();
    let gate = bench.gate();
    let _ = write!(
        meta,
        ",\"gate\":{{\"samples\":{},\"checked_steps\":{},\"scored\":{},\"mismatches\":{}}},\
         \"phase_s\":{{\"setups\":{t_setups:.3},\"warm_up\":{t_warm:.3},\"lifecycle\":{t_life:.3},\
         \"gate\":{:.3}}}",
        bench.samples.len(),
        gate.checked_steps,
        gate.scored,
        gate.mismatches.len(),
        secs(t_gate),
    );

    let mut metrics: Vec<Metric> = if args.trace {
        let untraced_frame = median(&bench.times);
        let mut m = per_layer(&mut bench, args, seated, warm, untraced_frame, &mut meta)?;
        m.push(("frame_p99_ms", 1e3 * quantile(&frames, 0.99), "ms"));
        m
    } else {
        vec![
            (
                "steps_per_s",
                window_throughput(&measured_frames, spec.frame as f64, WINDOW_FRAMES),
                "1/s",
            ),
            ("frame_p50_ms", 1e3 * quantile(&frames, 0.5), "ms"),
            ("bytes_per_session", warm, "B"),
            ("peak_heap_mb", peak / 1e6, "MB"),
            ("max_diff_pct", gate.max_diff_pct, "%"),
        ]
    };

    let c = bench.counts;
    let _ = write!(
        meta,
        ",\"frames_attempted\":{},\"frames_failed\":{},\"entries_attempted\":{},\
         \"entries_failed\":{},\"lifecycle_attempted\":{},\"lifecycle_failed\":{},\
         \"lifecycle_rounds\":{}",
        c.frames,
        c.frames_failed,
        c.entries,
        c.entries_failed,
        c.lifecycle,
        c.lifecycle_failed,
        bench.ops.rounds,
    );
    // Median µs of each operation by session kind: what `churn_ops_per_s`
    // is made of.
    let op_us: Vec<String> = bench
        .ops
        .by_kind
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|((kind, op), v)| format!("\"{kind:?}.{op:?}\":{:.1}", 1e6 * median(v)))
        .collect();
    let _ = write!(meta, ",\"op_median_us\":{{{}}}", op_us.join(","));
    for e in bench.errors.iter().chain(&gate.mismatches) {
        eprintln!("perfbench: {e}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = c.entries_failed == 0
        && c.lifecycle_failed == 0
        && c.frames_failed == 0
        && bench.errors.is_empty()
        && gate.mismatches.is_empty()
        && finite;
    drop(bench);

    let mut setups = vec![first_setup];
    while setups.len() < SETUP_MAX_REPS
        && (setups.len() < SETUP_REPS || setups.iter().map(|s| s.total).sum::<f64>() < SETUP_SECS)
    {
        let (bench, times) = Bench::setup(spec, &inputs, &slots, bench_rng.clone())
            .map_err(|e| format!("set-up: {e}"))?;
        drop(bench);
        setups.push(times);
    }
    let setup_med =
        |f: fn(&serve::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        metrics.push(("setup.fit_s", setup_med(|s| s.fit), "s"));
        metrics.push(("setup.seat_s", setup_med(|s| s.seat), "s"));
    } else {
        metrics.push(("setup_s", setup_med(|s| s.total), "s"));
    }
    let setup_total: Vec<f64> = setups.iter().map(|s| s.total).collect();
    let _ = write!(meta, ",\"setup_s\":{setup_total:?}}}");
    println!("perfbench-meta {meta}");
    println!("{}", result_line(correct, &c, &metrics));
    Ok(correct)
}

fn result_line(correct: bool, c: &serve::Counts, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        c.entries + c.lifecycle,
        c.entries_failed + c.lifecycle_failed,
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Non-finite values are not JSON; they also make the run incorrect.
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// The lifecycle rounds of an after-loop churn workload, then one more
/// pass over the gated samples so moved and restored sessions are served.
fn after_loop_churn(bench: &mut Bench) {
    if let Churn::AfterLoop { rounds } = bench.spec.churn {
        for _ in 0..rounds {
            bench.lifecycle_round();
        }
        bench.serve_samples();
    }
}

/// Lifecycle calls per second inside them, at each operation's typical
/// cost: one round's calls over the sum, across the round's operations, of
/// their count times the median duration of that operation on that kind
/// of session over the run's rounds.
fn churn_ops_per_s(bench: &Bench) -> f64 {
    let mix: Vec<(f64, f64)> = bench
        .spec
        .round
        .iter()
        .map(|&(kind, op, count)| {
            let secs = match bench.ops.by_kind.get(&(kind, op)) {
                Some(v) if !v.is_empty() => median(v),
                _ => f64::NAN,
            };
            ((count * op.calls()) as f64, count as f64 * secs)
        })
        .collect();
    stats::typical_rate(&mix)
}

/// The traced run's per-layer metrics.
fn per_layer(
    bench: &mut Bench,
    args: &Args,
    seated: f64,
    warm: f64,
    untraced_frame: f64,
    meta: &mut String,
) -> Result<Vec<Metric>, String> {
    let spec = bench.spec;
    let degraded0 = degraded_transitions();
    let before = bench.fleet.shard_summaries();
    let traced_secs = args.seconds * (1.0 - UNTRACED_SHARE);
    let mut rec = spans::Recorder::new(Instant::now(), 1 << 16);
    let steal0 = cpu_ticks();
    let levels = layers::traced_pass(bench, traced_secs, &mut rec);
    let steal = steal_since(steal0);
    let after = bench.fleet.shard_summaries();
    after_loop_churn(bench);

    let json = rec.chrome_json();
    let summary = kalmmind_obs::validate::validate_trace(&json)
        .map_err(|e| format!("exported trace is invalid: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", spec.name, args.seed);
    std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
    let _ = write!(
        meta,
        ",\"traced_frames\":{},\"spans\":{},\"trace_file\":\"{path}\",\"traced_steal_pct\":{steal:.3}",
        levels.levels[0].len(),
        summary.events,
    );

    let first = bench.frame_slots(0);
    let kinds: Vec<workload::Kind> = first.iter().map(|&s| bench.slots[s].kind).collect();
    let n = kinds.len() as f64;
    let request = stats::request_bytes(kinds.iter().map(|k| k.dims().1)) as f64 / n;
    let reply = stats::reply_bytes(kinds.iter().map(|k| k.dims().0)) as f64 / n;
    let flops = kinds
        .iter()
        .map(|k| {
            let (x, z) = k.dims();
            stats::kf_step_flops(x, z, k.approx(), k.calc_freq())
        })
        .sum::<f64>()
        / n;

    let steps: Vec<u64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.steps - b.steps)
        .collect();
    let mean_steps = steps.iter().sum::<u64>() as f64 / steps.len() as f64;
    let skew = *steps.iter().max().unwrap_or(&0) as f64 / mean_steps;
    let queue_wait = after
        .iter()
        .map(|s| s.queue_wait_p50)
        .fold(0.0f64, f64::max);

    let level = levels.level_us_per_step();
    let own = levels.self_us_per_step();
    let ops = &bench.ops;
    let med_us = |v: &[f64]| 1e6 * median(v);
    Ok(vec![
        ("ingest.self_us_per_step", own[0], "us"),
        ("ingest.request_bytes_per_step", request, "B"),
        ("ingest.reply_bytes_per_step", reply, "B"),
        ("fleet.self_us_per_step", own[1], "us"),
        ("fleet.queue_wait_p50_us", 1e6 * queue_wait, "us"),
        ("fleet.shard_skew", skew, "ratio"),
        (
            "fleet.shed",
            after.iter().map(|s| s.shed).sum::<u64>() as f64,
            "count",
        ),
        ("bank.self_us_per_step", own[2], "us"),
        ("session.self_us_per_step", own[3], "us"),
        (
            "health.degraded_transitions",
            (degraded_transitions() - degraded0) as f64,
            "count",
        ),
        ("health.flight_dumps", flight_dumps(bench) as f64, "count"),
        (
            "obs.spans_dropped",
            kalmmind_obs::spans_dropped() as f64,
            "count",
        ),
        ("kernel.self_us_per_step", own[4], "us"),
        ("kernel.calc_step_us", med_us(&levels.calc_step), "us"),
        ("kernel.approx_step_us", med_us(&levels.approx_step), "us"),
        ("kernel.flops_per_step", flops, "flop"),
        ("store.insert_us", med_us(&ops.insert), "us"),
        ("store.remove_us", med_us(&ops.remove), "us"),
        ("snapshot.snapshot_us", med_us(&ops.snapshot), "us"),
        ("snapshot.restore_us", med_us(&ops.restore), "us"),
        (
            "snapshot.bytes_per_session",
            median(&ops.snapshot_bytes),
            "B",
        ),
        ("fleet.rebalance_us", med_us(&ops.rebalance), "us"),
        ("churn_ops_per_s", churn_ops_per_s(bench), "1/s"),
        ("memory.bytes_per_session_seated", seated, "B"),
        ("memory.bytes_per_session_warm", warm, "B"),
        ("host.steal_pct", steal, "%"),
        (
            "trace.overhead_pct",
            100.0 * (median(&levels.levels[0]) - untraced_frame) / untraced_frame,
            "%",
        ),
        ("trace.level1_us_per_step", level[0], "us"),
    ])
}

/// The program's own count of health transitions to Degraded, read from
/// its Prometheus exposition (0 when `obs` is compiled out).
fn degraded_transitions() -> u64 {
    kalmmind_obs::prometheus()
        .lines()
        .find_map(|l| l.strip_prefix("kf_health_transitions_total{to=\"degraded\"} "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// Sessions holding a flight-recorder dump.
fn flight_dumps(bench: &Bench) -> usize {
    (0..SHARDS)
        .map(|shard| {
            bench.fleet.with_bank(shard, |b| {
                b.ids()
                    .into_iter()
                    .filter(|&id| b.flight_record(id).is_some())
                    .count()
            })
        })
        .sum()
}
