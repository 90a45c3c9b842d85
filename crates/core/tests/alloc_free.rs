//! Proof that the workspace step path performs zero heap allocations in
//! steady state.
//!
//! A counting global allocator wraps the system allocator; after a short
//! warmup (cold-start seeds and history slots are allowed to allocate
//! once), the test asserts that a long run of `step_with` calls performs
//! no allocation at all. This is the software analogue of the paper's
//! claim that the accelerator's PLM working set is fixed at configuration
//! time — the hot loop never touches the (heap) memory allocator.
//!
//! The counter is per thread (`support/thread_alloc.rs`): only allocations
//! the measuring test thread makes while armed are counted, so tests of
//! this binary running in parallel cannot count each other's warm-up. It
//! lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide.

#[path = "support/thread_alloc.rs"]
mod thread_alloc;

use kalmmind::gain::InverseGain;
use kalmmind::inverse::{CalcMethod, InterleavedInverse, NewtonInverse, SeedPolicy};
use kalmmind::{KalmanFilter, KalmanModel, KalmanState};
use kalmmind_linalg::{Matrix, Vector};
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

fn measurement(t: usize) -> Vector<f64> {
    let pos = 0.1 * t as f64;
    Vector::from_vec(vec![pos, 1.0, pos + 1.0])
}

/// Warm up `steps` iterations, then assert a further `steps` iterations
/// allocate nothing.
fn assert_steady_state_is_alloc_free<G: kalmmind::gain::GainStrategy<f64>>(
    mut kf: KalmanFilter<f64, G>,
    warmup: usize,
    steps: usize,
) {
    let mut ws = kf.workspace();
    let zs: Vec<Vector<f64>> = (0..warmup + steps).map(measurement).collect();
    for z in &zs[..warmup] {
        kf.step_with(z, &mut ws).expect("warmup step");
    }
    let ((), allocations) = count_allocations(|| {
        for z in &zs[warmup..] {
            kf.step_with(z, &mut ws).expect("steady-state step");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state step_with must not touch the heap ({allocations} allocations over {steps} steps)"
    );
}

#[test]
fn interleaved_newton_only_steady_state_allocates_nothing() {
    // calc_freq = 0: after the warmup the filter runs Newton refinement
    // only — the paper's lowest-energy configuration.
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 0, SeedPolicy::PreviousIteration);
    let kf = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
    assert_steady_state_is_alloc_free(kf, 3, 50);
}

#[test]
fn interleaved_periodic_calc_allocates_only_on_calc_iterations() {
    // calc_freq = 4: every fourth iteration takes Path A, whose exact
    // factorization allocates by design. Every Newton iteration in between
    // must stay off the heap.
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
    let mut kf = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
    let mut ws = kf.workspace();
    let zs: Vec<Vector<f64>> = (0..46).map(measurement).collect();
    for z in &zs[..6] {
        kf.step_with(z, &mut ws).expect("warmup step");
    }
    for (t, z) in zs.iter().enumerate().skip(6) {
        let calc_iteration = InterleavedInverse::<f64>::is_calc_iteration(4, t);
        let (result, delta) = count_allocations(|| kf.step_with(z, &mut ws).map(|_| ()));
        result.expect("step");
        if !calc_iteration {
            assert_eq!(delta, 0, "Newton iteration {t} allocated {delta} times");
        }
    }
}

#[test]
fn newton_inverse_steady_state_allocates_nothing() {
    let kf = KalmanFilter::new(
        model(),
        KalmanState::zeroed(2),
        InverseGain::new(NewtonInverse::new(2)),
    );
    assert_steady_state_is_alloc_free(kf, 3, 50);
}

#[test]
fn allocating_step_does_allocate_as_a_control() {
    // Control experiment: the classic step() allocates every iteration, so
    // the counter itself is demonstrably wired up.
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 0, SeedPolicy::PreviousIteration);
    let mut kf = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
    for t in 0..3 {
        kf.step(&measurement(t)).expect("warmup");
    }
    let ((), allocations) = count_allocations(|| {
        for t in 3..10 {
            kf.step(&measurement(t)).expect("step");
        }
    });
    assert!(allocations > 0, "the control must allocate");
}
