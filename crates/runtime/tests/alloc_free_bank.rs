//! Proof that *routed* bank dispatch is allocation-free in steady state.
//!
//! The core crate already pins the raw `step_with` kernel as alloc-free
//! (`crates/core/tests/alloc_free.rs`). This binary pins the full
//! [`FilterBank::step_batch`] path on top of it: id lookup through the
//! paged index, epoch-mark routing into the persistent `route_buf`,
//! inline single-thread dispatch, and report assembly. Historically
//! routing built a fresh `Vec<Option<&Z>>` (dense) or `Vec` + `HashSet`
//! (sparse) per batch; the slab refactor replaced both with reused
//! buffers and per-slot epoch marks, and this test keeps them honest.
//!
//! Counts per thread (the shared `support/thread_alloc.rs` of the core
//! crate's tests), so a second test in this binary could not leak its
//! warm-up into the count; the test asserts that its batches ran inline on
//! its own thread, so the count sees every step. Lives in its own
//! integration-test binary because `#[global_allocator]` is process-wide.

#[path = "../../core/tests/support/thread_alloc.rs"]
mod thread_alloc;

use std::sync::Arc;

use kalmmind::gain::InverseGain;
use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
use kalmmind::{KalmanFilter, KalmanModel, KalmanState};
use kalmmind_exec::WorkerPool;
use kalmmind_linalg::Matrix;
use kalmmind_runtime::{FilterBank, SessionId};
use thread_alloc::{count_allocations, ThreadCountingAlloc};

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

fn model() -> KalmanModel<f64> {
    KalmanModel::new(
        Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
        Matrix::identity(2).scale(1e-3),
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
        Matrix::identity(3).scale(0.2),
    )
    .unwrap()
}

/// Newton-only schedule (`calc_freq: 0`, previous-iteration seed): the one
/// inverse configuration whose steady state touches no heap even inside
/// the kernel, so any allocation the test observes belongs to the bank's
/// routing/dispatch machinery.
fn newton_only_filter() -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 0, SeedPolicy::PreviousIteration);
    KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat))
}

fn measurement(t: usize) -> Vec<f64> {
    let pos = 0.1 * t as f64;
    vec![pos, 1.0, pos + 1.0]
}

#[test]
fn routed_step_batch_is_alloc_free_in_steady_state() {
    const SESSIONS: usize = 64;
    // Past the obs flight-recorder ring capacity (64): the ring fills —
    // and stops growing — during warmup, like every other cold-start
    // allocation.
    const WARMUP: usize = 80;
    const STEPS: usize = 200;

    // One thread → zero workers → the exec pool's inline serial path, the
    // configuration a per-shard fleet bank runs in production.
    let pool = Arc::new(WorkerPool::new(1));
    let mut bank = FilterBank::with_pool(pool);
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|_| bank.insert_filter(newton_only_filter()))
        .collect();
    assert_eq!(
        bank.store_census().mono_2x3,
        SESSIONS,
        "fixture must exercise the typed-pool fast path"
    );

    // Pre-build every batch so the measurement storage itself is not
    // counted against the dispatch path.
    let zs: Vec<Vec<f64>> = (0..WARMUP + STEPS).map(measurement).collect();
    let mut batch: Vec<(SessionId, &[f64])> = Vec::with_capacity(SESSIONS);

    for z in &zs[..WARMUP] {
        batch.clear();
        batch.extend(ids.iter().map(|&id| (id, z.as_slice())));
        bank.step_batch(&batch).expect("warmup batch");
    }

    let mut reports = Vec::with_capacity(STEPS);
    let ((), allocations) = count_allocations(|| {
        for z in &zs[WARMUP..] {
            batch.clear();
            batch.extend(ids.iter().map(|&id| (id, z.as_slice())));
            reports.push(bank.step_batch(&batch).expect("steady-state batch"));
        }
    });

    assert_eq!(
        allocations, 0,
        "routed dispatch allocated in steady state ({allocations} allocations across {STEPS} batches)"
    );
    for report in &reports {
        assert_eq!(report.steps, SESSIONS);
        // The per-thread count sees only this thread: every session must
        // have stepped inline here, none on a pool worker.
        assert_eq!(report.pool.inline_sessions, SESSIONS as u64);
        assert_eq!(report.pool.worker_sessions, 0);
    }
    // Every session really stepped every batch.
    for &id in &ids {
        assert_eq!(bank.steps_ok(id), Some(WARMUP + STEPS));
    }
}
