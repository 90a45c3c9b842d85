//! Fleet-level integration: bit-exact shard rebalance and end-to-end
//! ingest over the binary protocol.
//!
//! The rebalance proof mirrors `snapshot_replay.rs`'s oracle: a session
//! migrated between shards mid-trajectory must land on **byte-identical**
//! final snapshot documents with an unmigrated control driven through the
//! same measurements — covering state and covariance bits, seed history,
//! and health bookkeeping, not just the final estimate.

use std::sync::Arc;

use kalmmind::gain::InverseGain;
use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
use kalmmind::{KalmanFilter, KalmanModel, KalmanState};
use kalmmind_linalg::Matrix;
use kalmmind_runtime::{EntryStatus, Fleet, FleetConfig, IngestClient, IngestServer};

fn model() -> KalmanModel<f64> {
    KalmanModel::new(
        Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
        Matrix::identity(2).scale(1e-3),
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
        Matrix::identity(3).scale(0.2),
    )
    .unwrap()
}

fn filter() -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
    KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat))
}

fn measurement(t: usize) -> Vec<f64> {
    let pos = 0.1 * t as f64;
    vec![pos, 1.0, pos + 1.0]
}

fn start_fleet(shards: usize) -> Arc<Fleet> {
    Fleet::start(FleetConfig {
        shards,
        queue_capacity: 32,
        threads_per_shard: 1,
    })
}

/// Steps session `id` through `fleet` for `range`, asserting every step
/// lands Ok, and returns the per-step state estimates.
fn drive(fleet: &Fleet, id: u64, range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
    range
        .map(|t| {
            let outcomes = fleet.push_batch(vec![(id, measurement(t))]);
            assert_eq!(
                outcomes[0].status,
                EntryStatus::Ok,
                "step {t}: {outcomes:?}"
            );
            outcomes[0].state.clone()
        })
        .collect()
}

#[test]
fn rebalanced_session_trajectory_is_bit_identical_to_control() {
    // Two fleets allocate the same global id 0 for their first session, so
    // the snapshot documents (which embed the id as `label`) are
    // byte-comparable. `migrated` is moved between shards mid-trajectory;
    // `control` never moves.
    let migrated_fleet = start_fleet(4);
    let control_fleet = start_fleet(4);
    let migrated = migrated_fleet.add_filter(filter());
    let control = control_fleet.add_filter(filter());
    assert_eq!(migrated, control, "both fleets must allocate id 0");

    let pre_m = drive(&migrated_fleet, migrated, 0..10);
    let pre_c = drive(&control_fleet, control, 0..10);

    let home = migrated_fleet.shard_of(migrated);
    let target = (home + 1) % migrated_fleet.shard_count();
    migrated_fleet.rebalance(migrated, target).unwrap();
    assert_eq!(migrated_fleet.shard_of(migrated), target);

    let post_m = drive(&migrated_fleet, migrated, 10..40);
    let post_c = drive(&control_fleet, control, 10..40);

    // Every estimate along the way, before and after the move, must match
    // to the bit.
    for (t, (m, c)) in pre_m
        .iter()
        .chain(&post_m)
        .zip(pre_c.iter().chain(&post_c))
        .enumerate()
    {
        assert_eq!(m.len(), c.len());
        for (a, b) in m.iter().zip(c) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "estimate diverged at step {t}: {a:?} vs {b:?}"
            );
        }
    }

    // The strongest oracle: final snapshot documents byte-identical.
    let snap_m = migrated_fleet.with_bank(target, |b| {
        let sid = b.ids()[0];
        b.snapshot_session(sid).unwrap()
    });
    let snap_c = control_fleet.with_bank(control_fleet.shard_of(control), |b| {
        let sid = b.ids()[0];
        b.snapshot_session(sid).unwrap()
    });
    assert_eq!(snap_m, snap_c, "migrated session's snapshot drifted");
}

#[test]
fn rebalance_failure_leaves_the_session_serving_in_place() {
    let fleet = start_fleet(2);
    let id = fleet.add_filter(filter());
    drive(&fleet, id, 0..3);
    // Out-of-range target: rejected up front, nothing moved.
    assert!(fleet.rebalance(id, 7).is_err());
    let outcomes = fleet.push_batch(vec![(id, measurement(3))]);
    assert_eq!(outcomes[0].status, EntryStatus::Ok);
}

#[test]
fn ingest_round_trip_matches_direct_push() {
    let fleet = start_fleet(2);
    let ids: Vec<u64> = (0..8).map(|_| fleet.add_filter(filter())).collect();
    let server = IngestServer::serve(Arc::clone(&fleet), "127.0.0.1:0").unwrap();
    let mut client = IngestClient::connect(server.addr()).unwrap();
    client.ping().unwrap();

    for t in 0..5 {
        let z = measurement(t);
        let batch: Vec<(u64, &[f64])> = ids.iter().map(|&id| (id, z.as_slice())).collect();
        let outcomes = client.push(&batch).unwrap();
        assert_eq!(outcomes.len(), ids.len());
        for (outcome, &id) in outcomes.iter().zip(&ids) {
            assert_eq!(outcome.id, id);
            assert_eq!(outcome.status, EntryStatus::Ok, "step {t}: {outcome:?}");
            assert_eq!(outcome.state.len(), 2);
        }
    }

    // The wire estimates must be the banked states, bit for bit: drive a
    // control session through the same measurements directly.
    let control_fleet = start_fleet(2);
    let control = control_fleet.add_filter(filter());
    let states = drive(&control_fleet, control, 0..5);
    let z = measurement(5);
    let via_wire = client.push(&[(ids[0], z.as_slice())]).unwrap();
    let direct = control_fleet.push_batch(vec![(control, z.clone())]);
    assert_eq!(direct[0].status, EntryStatus::Ok);
    for (a, b) in via_wire[0].state.iter().zip(&direct[0].state) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    drop(states);
}

#[test]
fn fleet_http_rollup_reflects_ingest_traffic() {
    use std::io::{Read as _, Write as _};
    let fleet = start_fleet(2);
    let ids: Vec<u64> = (0..4).map(|_| fleet.add_filter(filter())).collect();
    let ingest = IngestServer::serve(Arc::clone(&fleet), "127.0.0.1:0").unwrap();
    let metrics = fleet.serve_on("127.0.0.1:0").unwrap();

    let mut client = IngestClient::connect(ingest.addr()).unwrap();
    let z = measurement(0);
    let batch: Vec<(u64, &[f64])> = ids.iter().map(|&id| (id, z.as_slice())).collect();
    client.push(&batch).unwrap();

    let mut stream = std::net::TcpStream::connect(metrics.addr()).unwrap();
    stream
        .write_all(b"GET /fleet HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split_once("\r\n\r\n").unwrap().1;
    kalmmind_obs::validate::validate_json(body).unwrap();
    assert!(body.contains("\"totals\""), "{body}");
    // All four entries were admitted and stepped somewhere.
    assert!(body.contains("\"steps\":"), "{body}");
    let steps: u64 = fleet.shard_summaries().iter().map(|s| s.steps).sum();
    assert_eq!(steps, 4);
}

#[test]
fn shed_is_an_explicit_wire_status_while_other_shards_serve() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let fleet = Fleet::start(FleetConfig {
        shards: 2,
        queue_capacity: 1,
        threads_per_shard: 1,
    });
    // One session per shard.
    let mut by_shard = std::collections::HashMap::new();
    while by_shard.len() < 2 {
        let id = fleet.add_filter(filter());
        by_shard.entry(fleet.shard_of(id)).or_insert(id);
    }
    let stalled = by_shard[&0];
    let healthy = by_shard[&1];

    let server = IngestServer::serve(Arc::clone(&fleet), "127.0.0.1:0").unwrap();

    // Stall shard 0 by holding its bank lock from another thread.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(AtomicBool::new(false));
    let holder = {
        let fleet = Arc::clone(&fleet);
        let barrier = Arc::clone(&barrier);
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            fleet.with_bank(0, |_bank| {
                barrier.wait();
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
    };
    barrier.wait();

    // Fill shard 0 deterministically: the first job is popped by the
    // worker (which then blocks on the held bank lock) — wait for the
    // queue to drain to prove it — and the second job fills the
    // capacity-1 queue. The wire push after that must come back Shed.
    let z = measurement(0);
    // NOTE: only `queue_depths()` is safe to poll here — `shard_summaries`
    // locks every bank, and the holder thread owns shard 0's bank lock.
    let in_flight = fleet.push_batch_async(vec![(stalled, z.clone())]);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fleet.queue_depths()[0] > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never picked up the stall job"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = fleet.push_batch_async(vec![(stalled, z.clone())]);
    assert_eq!(fleet.queue_depths()[0], 1);

    let mut client = IngestClient::connect(server.addr()).unwrap();
    // Sample every frame so the shed frame's root span records alongside
    // its terminal shed instant (instants record regardless of sampling).
    if kalmmind_obs::is_enabled() {
        kalmmind_obs::set_trace_sampling(1);
    }
    let outcomes = client
        .push(&[(stalled, z.as_slice()), (healthy, z.as_slice())])
        .unwrap();
    if kalmmind_obs::is_enabled() {
        kalmmind_obs::set_trace_sampling(0);
        // The shed is attributable end to end: the terminal shed instant
        // carries the same trace id as the frame's root span, recorded on
        // a different thread than the healthy shard's phase spans. The
        // server records the frame's `reply_write` and root spans after the
        // reply has left, so wait (bounded) for the root span to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let events = loop {
            let events = kalmmind_obs::trace_events();
            let shed = events.iter().find(|e| e.label == "shed");
            let rooted = shed.is_some_and(|shed| {
                events
                    .iter()
                    .any(|e| e.label == "ingest_frame" && e.parent == 0 && e.trace == shed.trace)
            });
            if rooted || std::time::Instant::now() >= deadline {
                break events;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let shed = events
            .iter()
            .find(|e| e.label == "shed")
            .expect("shed frame must leave a terminal shed event");
        assert_ne!(shed.trace, 0);
        assert!(
            events
                .iter()
                .any(|e| e.label == "ingest_frame" && e.parent == 0 && e.trace == shed.trace),
            "no root span shares the shed event's trace id: {events:?}"
        );
        // The healthy entry's phases attribute to the same frame.
        for phase in ["queue_wait", "dispatch", "step", "reply_write"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.label == phase && e.trace == shed.trace),
                "missing {phase} span for the shed frame's trace: {events:?}"
            );
        }
    }
    assert_eq!(
        outcomes[0].status,
        EntryStatus::Shed,
        "stalled shard must shed: {outcomes:?}"
    );
    assert_eq!(
        outcomes[1].status,
        EntryStatus::Ok,
        "healthy shard must keep serving: {outcomes:?}"
    );

    release.store(true, Ordering::Release);
    holder.join().unwrap();
    for outcome in in_flight.wait().into_iter().chain(queued.wait()) {
        assert_eq!(outcome.status, EntryStatus::Ok, "{outcome:?}");
    }
    assert!(fleet.shard_summaries()[0].shed >= 1);
    assert_eq!(fleet.shard_summaries()[1].shed, 0);
    drop(server);
}
