//! Fleet-scale ingestion benchmark: 100k+ concurrent sessions over the
//! `kalmmind.ingest.v1` binary protocol.
//!
//! Seats at least 100 000 independent 2-state/3-channel sessions on a
//! sharded [`Fleet`], then drives every session through the wire front-end
//! in frames of ~250 sessions over a single TCP connection, measuring
//! per-frame round-trip latency client-side. Exact p50/p99/p999 come from
//! the sorted sample set (no histogram approximation on the client side).
//! Writes `BENCH_fleet.json` in the working directory.
//!
//! Run with `cargo run --release -p kalmmind-bench --bin bench_fleet`.
//! Set `KALMMIND_BENCH_QUICK=1` for a fast low-fidelity pass (used by the
//! CI bench guard); the JSON then carries `"quick": true` so quick numbers
//! are never compared against full-fidelity baselines. Quick mode still
//! seats the full 100k sessions — it only trims the number of passes.
//! `KALMMIND_BENCH_SESSIONS` overrides the fleet size: the nightly soak
//! sets it to 1_000_000 for the million-session profile (sweep passes
//! scale down so total work stays roughly constant).
//!
//! Beyond latency/throughput, the bench measures **storage**: a
//! byte-tracking global allocator yields heap bytes per seated session
//! (and the same figure for a boxed-dyn control group, the pre-slab
//! layout), `/proc/self/status` yields peak RSS, and the per-shard store
//! census proves the homogeneous fleet seated in the typed mono pools.
//! All of it lands in the JSON's `memory` and `store` blocks, baselined
//! under `ci/bench-baselines/` and gated by `scripts/bench_guard`.
//!
//! On any entry failure the bench dumps the offending sessions'
//! flight-recorder rings to `FLIGHT_fleet_session<id>.json` and exits 1,
//! so the nightly soak can upload them as artifacts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kalmmind::gain::InverseGain;
use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
use kalmmind::{FilterSession, KalmanFilter, KalmanModel, KalmanState, SessionBackend};
use kalmmind_linalg::Matrix;
use kalmmind_runtime::{EntryStatus, Fleet, FleetConfig, IngestClient, IngestServer, StoreCensus};

/// Environment variable selecting the fast low-fidelity mode.
const QUICK_ENV: &str = "KALMMIND_BENCH_QUICK";

/// Environment variable overriding the session count (the nightly soak
/// sets it to 1_000_000 for the million-session profile).
const SESSIONS_ENV: &str = "KALMMIND_BENCH_SESSIONS";

/// Default concurrent sessions — the acceptance floor even in quick mode.
const DEFAULT_SESSIONS: usize = 100_000;

/// Byte-tracking allocator: the storage-cost instrument. `LIVE` follows
/// every alloc/dealloc/realloc (requested sizes, all threads), so the
/// delta across the seating loop divided by the session count is the true
/// heap bytes each resident session costs — arenas, index pages, boxes,
/// slack and all. Relaxed ordering: the measurement points are
/// single-threaded quiesce points; per-op counting only needs atomicity.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn track_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            track_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak resident set (VmHWM) from `/proc/self/status`, in bytes. `None`
/// off Linux or when the file is unreadable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn session_count() -> usize {
    std::env::var(SESSIONS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_SESSIONS)
}

/// Sessions per wire frame. 250 entries × (8 id + 4 len + 24 payload)
/// bytes ≈ 9 KiB per request frame: large enough to amortize syscalls,
/// small enough to keep per-frame latency a meaningful tail statistic.
const FRAME_SESSIONS: usize = 250;

fn quick_mode() -> bool {
    std::env::var(QUICK_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn small_model() -> KalmanModel<f64> {
    KalmanModel::new(
        Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).expect("F"),
        Matrix::identity(2).scale(1e-3),
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).expect("H"),
        Matrix::identity(3).scale(0.2),
    )
    .expect("model")
}

fn small_filter() -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
    KalmanFilter::new(
        small_model(),
        KalmanState::zeroed(2),
        InverseGain::new(strat),
    )
}

fn measurement(t: usize) -> [f64; 3] {
    let pos = 0.1 * t as f64;
    [pos, 1.0, pos + 1.0]
}

/// Exact quantile from an ascending-sorted sample set (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Minimal blocking HTTP GET against the fleet's own endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// Dumps the flight-recorder rings of `failed` sessions (capped at 16) to
/// `FLIGHT_fleet_session<id>.json` for artifact upload, then exits 1.
fn bail_with_flight_dumps(fleet: &Fleet, failed: &[(u64, EntryStatus)]) -> ! {
    eprintln!(
        "bench_fleet: {} entries failed; dumping flight records",
        failed.len()
    );
    for &(id, status) in failed.iter().take(16) {
        eprintln!("  session {id}: {status:?}");
        let shard = fleet.shard_of(id);
        let dump = fleet.with_bank(shard, |bank| {
            bank.ids()
                .into_iter()
                .find(|sid| sid.as_u64() == id)
                .and_then(|sid| bank.flight_record(sid).map(String::from))
        });
        if let Some(dump) = dump {
            let path = format!("FLIGHT_fleet_session{id}.json");
            std::fs::write(&path, &dump).expect("write flight dump");
            eprintln!("  wrote {path}");
        }
    }
    std::process::exit(1);
}

fn main() {
    let quick = quick_mode();
    let sessions = session_count();
    // Scale work to the fleet size so the million-session profile sweeps
    // fewer times instead of 10x longer: ~4M total steps either way.
    let passes = if quick {
        2
    } else {
        (4_000_000 / sessions.max(1)).clamp(2, 20)
    };
    let shards = 4usize;

    // Boxed-baseline control: what each session cost under the
    // pre-slab storage, where every session — monomorphized or not — was
    // a `Box<dyn SessionBackend>` in a slot vector. Measured live, on a
    // sample, so the comparison tracks the current session layout instead
    // of a stale hardcoded constant.
    let control_n = 10_000.min(sessions);
    let control_before = live_bytes();
    let control: Vec<Box<dyn SessionBackend>> = (0..control_n)
        .map(|_| Box::new(FilterSession::new(small_filter())) as Box<dyn SessionBackend>)
        .collect();
    let boxed_bytes_per_session =
        live_bytes().saturating_sub(control_before) as f64 / control_n as f64;
    drop(control);

    let config = FleetConfig {
        shards,
        queue_capacity: 256,
        threads_per_shard: 1,
    };
    println!(
        "seating {sessions} sessions on {shards} shards \
         (queue capacity {}, {} thread/shard)...",
        config.queue_capacity, config.threads_per_shard
    );
    let fleet = Fleet::start(config);
    let seat_start = Instant::now();
    let live_before_seating = live_bytes();
    let ids: Vec<u64> = (0..sessions)
        .map(|_| fleet.add_filter(small_filter()))
        .collect();
    let seat_s = seat_start.elapsed().as_secs_f64();
    let bytes_per_session =
        live_bytes().saturating_sub(live_before_seating) as f64 / sessions as f64;
    assert_eq!(fleet.session_count(), sessions);
    println!(
        "seated in {seat_s:.2}s ({:.0} sessions/s)",
        sessions as f64 / seat_s
    );

    // Where did everyone land? A homogeneous 2x3 fleet must seat entirely
    // in the typed mono pools; sessions leaking into the boxed overflow
    // pool is exactly the storage regression this bench exists to catch.
    let mut census = StoreCensus::default();
    for shard in 0..shards {
        let c = fleet.with_bank(shard, |bank| bank.store_census());
        census.mono_2x3 += c.mono_2x3;
        census.mono_6x46 += c.mono_6x46;
        census.overflow += c.overflow;
        census.slots += c.slots;
    }
    assert_eq!(
        census.mono(),
        sessions,
        "homogeneous mono fleet must seat inline (overflow: {})",
        census.overflow
    );
    let reduction = boxed_bytes_per_session / bytes_per_session.max(1.0);
    println!(
        "storage: {bytes_per_session:.0} B/session pooled vs {boxed_bytes_per_session:.0} \
         B/session boxed ({reduction:.2}x reduction); {} mono / {} overflow / {} slots",
        census.mono(),
        census.overflow,
        census.slots
    );

    let server = IngestServer::serve(Arc::clone(&fleet), "127.0.0.1:0").expect("bind ingest");
    let mut client = IngestClient::connect(server.addr()).expect("connect ingest");
    client.ping().expect("ping");

    // Warm-up: one frame through the whole stack before timing.
    let warm = measurement(0);
    let warm_frame: Vec<(u64, &[f64])> = ids[..FRAME_SESSIONS]
        .iter()
        .map(|&id| (id, &warm[..]))
        .collect();
    client.push(&warm_frame).expect("warm-up frame");
    // Drain the warm-up frame's phase-timer spans so the rings start the
    // timed region empty; the per-frame drains below then keep every ring
    // under its capacity, which is what holds `obs_spans_dropped_total`
    // at 0 for the whole run (asserted by CI in quick mode).
    let _ = kalmmind_obs::take_spans();

    // Timed region: `passes` full sweeps over all sessions, one frame of
    // FRAME_SESSIONS entries per wire round-trip. Every session is
    // concurrently seated and serving throughout — "concurrent sessions"
    // here means resident filters multiplexed over one connection, which
    // is the paper's implant-side deployment shape (one radio link, many
    // decoders).
    let frames_per_pass = ids.len().div_ceil(FRAME_SESSIONS);
    println!("driving {passes} passes x {frames_per_pass} frames x {FRAME_SESSIONS} sessions...");
    let mut latencies_us: Vec<f64> = Vec::with_capacity(passes * frames_per_pass);
    let mut ok_steps: u64 = 0;
    let mut failed: Vec<(u64, EntryStatus)> = Vec::new();
    let run_start = Instant::now();
    for pass in 0..passes {
        // Pass index 1.. keeps warm-up step 0 distinct from the sweep.
        let z = measurement(pass + 1);
        for chunk in ids.chunks(FRAME_SESSIONS) {
            let frame: Vec<(u64, &[f64])> = chunk.iter().map(|&id| (id, &z[..])).collect();
            let t0 = Instant::now();
            let outcomes = client.push(&frame).expect("push frame");
            latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            for outcome in outcomes {
                if outcome.status == EntryStatus::Ok {
                    ok_steps += 1;
                } else {
                    failed.push((outcome.id, outcome.status));
                }
            }
            // One frame leaves ~3 phase-timer spans per step in the shard
            // workers' rings; draining between frames (workers are idle —
            // the client is serial) bounds every ring well under capacity.
            let _ = kalmmind_obs::take_spans();
        }
    }
    let elapsed_s = run_start.elapsed().as_secs_f64();
    if !failed.is_empty() {
        bail_with_flight_dumps(&fleet, &failed);
    }

    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = quantile(&latencies_us, 0.50);
    let p99 = quantile(&latencies_us, 0.99);
    let p999 = quantile(&latencies_us, 0.999);
    let throughput = ok_steps as f64 / elapsed_s;

    let summaries = fleet.shard_summaries();
    let admitted: u64 = summaries.iter().map(|s| s.admitted).sum();
    let shed: u64 = summaries.iter().map(|s| s.shed).sum();

    println!();
    println!(
        "fleet ingest, {sessions} sessions, {} frames total:",
        latencies_us.len()
    );
    println!("  frame latency p50:  {p50:>10.1} us");
    println!("  frame latency p99:  {p99:>10.1} us");
    println!("  frame latency p999: {p999:>10.1} us");
    println!("  throughput:         {throughput:>10.0} steps/s");
    println!("  admitted {admitted} entries, shed {shed}");

    // Endpoint self-probe: the fleet roll-up route must serve valid JSON
    // while all 100k sessions are resident.
    let mut rollup = fleet.serve_on("127.0.0.1:0").expect("bind fleet endpoint");
    let (fleet_code, fleet_body) = http_get(rollup.addr(), "/fleet");
    assert_eq!(fleet_code, 200, "GET /fleet: {fleet_body}");
    kalmmind_obs::validate::validate_json(&fleet_body).expect("/fleet must be valid JSON");
    let (healthz_code, _) = http_get(rollup.addr(), "/healthz");
    assert_eq!(healthz_code, 200, "GET /healthz");
    println!("fleet endpoint self-probe: /fleet 200, /healthz 200");

    // Trace self-probe: head-sample one extra frame end to end, fetch the
    // Chrome trace export over HTTP, validate it, and attribute the frame's
    // server-side round trip to its queue_wait/dispatch/step/reply_write
    // phases. The probe frame is routed to shard 0 only: with a single
    // shard the phases are strictly serial sub-intervals of the root span,
    // so their sum over the root duration is a true attribution ratio (a
    // multi-shard frame overlaps shards and the ratio loses meaning).
    let mut trace_events_exported = 0usize;
    let mut trace_ratio: Option<f64> = None;
    let trace_validated;
    if kalmmind_obs::is_enabled() {
        // A single probe frame is at the mercy of one scheduler hiccup, so
        // (like the bench guard's best-across-runs comparison) take the
        // best attribution out of three attempts before judging it.
        let mut best_ratio = 0.0f64;
        for attempt in 0..3usize {
            kalmmind_obs::set_trace_sampling(1);
            let z = measurement(passes + 1 + attempt);
            let probe: Vec<(u64, &[f64])> = ids
                .iter()
                .filter(|&&id| fleet.shard_of(id) == 0)
                .take(FRAME_SESSIONS)
                .map(|&id| (id, &z[..]))
                .collect();
            assert!(!probe.is_empty(), "shard 0 holds no sessions");
            let outcomes = client.push(&probe).expect("trace probe frame");
            assert!(
                outcomes.iter().all(|o| o.status == EntryStatus::Ok),
                "trace probe frame had non-Ok entries"
            );
            kalmmind_obs::set_trace_sampling(0);
            let _ = kalmmind_obs::take_spans();

            // Trace ids are allocated from a monotone counter, so the
            // probe just pushed owns the highest-id root in the sink. The
            // server records that root *after* writing the reply the
            // client just read, so give the ingest thread a bounded
            // moment to land it before declaring it missing.
            let deadline = Instant::now() + std::time::Duration::from_millis(500);
            let events = loop {
                let events = kalmmind_obs::trace_events();
                let rooted = events
                    .iter()
                    .any(|e| e.label == "ingest_frame" && e.parent == 0);
                if rooted || Instant::now() >= deadline {
                    break events;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            };
            let root = events
                .iter()
                .filter(|e| e.label == "ingest_frame" && e.parent == 0)
                .max_by_key(|e| e.trace)
                .expect("probe frame must record a root span");
            let mut phase_nanos: u64 = 0;
            println!("  trace probe attempt {}:", attempt + 1);
            for label in ["queue_wait", "dispatch", "step", "reply_write"] {
                let nanos: u64 = events
                    .iter()
                    .filter(|e| e.trace == root.trace && e.label == label)
                    .map(|e| e.dur_nanos)
                    .sum();
                phase_nanos += nanos;
                println!("    {label:<12} {:>8} us", nanos / 1_000);
            }
            println!("    {:<12} {:>8} us", "(root)", root.dur_nanos / 1_000);
            let ratio = phase_nanos as f64 / root.dur_nanos as f64;
            best_ratio = best_ratio.max(ratio);
            if best_ratio >= 0.90 {
                break;
            }
        }
        assert!(
            (0.90..=1.0).contains(&best_ratio),
            "phases cover only {:.1}% of the probe frame's root span",
            best_ratio * 100.0
        );
        trace_ratio = Some(best_ratio);

        let (trace_code, trace_text) = http_get(rollup.addr(), "/trace");
        assert_eq!(trace_code, 200, "GET /trace");
        let summary = kalmmind_obs::validate::validate_trace(&trace_text)
            .expect("/trace must export a Perfetto-loadable document");
        trace_events_exported = summary.events;
        trace_validated = true;
        println!(
            "trace self-probe: {} events exported, phases cover {:.1}% of the sampled frame",
            summary.events,
            best_ratio * 100.0
        );
    } else {
        // The obs-disabled build still serves a valid (empty) document.
        let (trace_code, trace_text) = http_get(rollup.addr(), "/trace");
        trace_validated =
            trace_code == 200 && kalmmind_obs::validate::validate_trace(&trace_text).is_ok();
        println!("trace self-probe: obs disabled, /trace serves an empty document");
    }
    rollup.stop();

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"model\": \"2-state/3-channel motor\",");
    let _ = writeln!(json, "  \"sessions\": {sessions},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"frame_sessions\": {FRAME_SESSIONS},");
    let _ = writeln!(json, "  \"passes\": {passes},");
    let _ = writeln!(json, "  \"frames\": {},", latencies_us.len());
    let _ = writeln!(json, "  \"seating_s\": {seat_s:.2},");
    let _ = writeln!(json, "  \"elapsed_s\": {elapsed_s:.3},");
    let _ = writeln!(json, "  \"latency\": {{");
    let _ = writeln!(json, "    \"p50_us\": {p50:.1},");
    let _ = writeln!(json, "    \"p99_us\": {p99:.1},");
    let _ = writeln!(json, "    \"p999_us\": {p999:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"throughput_steps_per_s\": {throughput:.0},");
    let _ = writeln!(json, "  \"ingest\": {{");
    let _ = writeln!(json, "    \"admitted\": {admitted},");
    let _ = writeln!(json, "    \"shed\": {shed}");
    let _ = writeln!(json, "  }},");
    let peak_tracked = PEAK.load(Ordering::Relaxed);
    let _ = writeln!(json, "  \"memory\": {{");
    let _ = writeln!(json, "    \"bytes_per_session\": {bytes_per_session:.1},");
    let _ = writeln!(
        json,
        "    \"boxed_bytes_per_session\": {boxed_bytes_per_session:.1},"
    );
    let _ = writeln!(json, "    \"reduction\": {reduction:.3},");
    let _ = writeln!(json, "    \"peak_tracked_bytes\": {peak_tracked},");
    match peak_rss_bytes() {
        Some(rss) => {
            let _ = writeln!(json, "    \"peak_rss_bytes\": {rss}");
        }
        None => {
            let _ = writeln!(json, "    \"peak_rss_bytes\": null");
        }
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"store\": {{");
    let _ = writeln!(json, "    \"mono\": {},", census.mono());
    let _ = writeln!(json, "    \"mono_2x3\": {},", census.mono_2x3);
    let _ = writeln!(json, "    \"overflow\": {},", census.overflow);
    let _ = writeln!(json, "    \"slots\": {}", census.slots);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"per_shard\": [");
    for (i, s) in summaries.iter().enumerate() {
        let comma = if i + 1 < summaries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"shard\": {}, \"sessions\": {}, \"steps\": {}, \"batches\": {}, \
             \"latency_p99_s\": {:.6} }}{comma}",
            s.shard, s.sessions, s.steps, s.batches, s.latency_p99
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"endpoint\": {{");
    let _ = writeln!(json, "    \"fleet_code\": {fleet_code},");
    let _ = writeln!(json, "    \"healthz_code\": {healthz_code}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"trace\": {{");
    let _ = writeln!(json, "    \"validated\": {trace_validated},");
    let _ = writeln!(json, "    \"events\": {trace_events_exported},");
    match trace_ratio {
        Some(r) => {
            let _ = writeln!(json, "    \"attribution_ratio\": {r:.4}");
        }
        None => {
            let _ = writeln!(json, "    \"attribution_ratio\": null");
        }
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"metrics\": {}", kalmmind_obs::json_snapshot());
    json.push_str("}\n");

    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!();
    println!("wrote BENCH_fleet.json");
    drop(client);
    drop(server);
}
