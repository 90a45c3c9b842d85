//! Dynamic vs monomorphized step-kernel comparison.
//!
//! For every shape in `kalmmind::small::MONO_SHAPES` this builds the same
//! interleaved filter behind both backends and times two comparisons:
//!
//! * **session level** — the heap-backed dynamic `FilterSession` vs the
//!   const-generic `SmallFilterSession` selected by `try_small_session`,
//!   both stepped through the erased `SessionBackend` boundary (health
//!   monitoring and diagnostics included, as a bank runs them);
//! * **raw kernel level** — the dynamic workspace step
//!   (`KalmanFilter::step_with`, the `workspace_ns_per_step` instrument of
//!   `BENCH_filterbank.json`) vs the monomorphized
//!   `SmallFilterSession::step_raw`, neither carrying session-layer
//!   diagnostics.
//!
//! The two kernels execute the identical floating-point sequence, so the
//! run also asserts full `to_bits` equality of the final session states and
//! records it as `"bit_identical"` in the JSON.
//!
//! Run with `cargo run --release -p kalmmind-bench --bin bench_smallmatrix`.
//! Set `KALMMIND_BENCH_QUICK=1` for a fast low-fidelity pass (used by the
//! CI bench guard); the JSON then carries `"quick": true` so quick numbers
//! are never compared against full-fidelity baselines.

use std::fmt::Write as _;
use std::time::Instant;

use kalmmind::gain::{GainStrategy, InverseGain};
use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
use kalmmind::small::{SmallFilterSession, MONO_SHAPES};
use kalmmind::{FilterSession, KalmanFilter, KalmanModel, KalmanState, SessionBackend};
use kalmmind_linalg::{Matrix, Vector};
use std::hint::black_box;

/// Environment variable selecting the fast low-fidelity mode.
const QUICK_ENV: &str = "KALMMIND_BENCH_QUICK";

fn quick_mode() -> bool {
    std::env::var(QUICK_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Deterministic model for one monomorphized shape: the workspace's 2-state
/// motor fixture for (2, 3), and the paper's x = 6 kinematic state observed
/// through z neural channels for the BCI shapes (same generator as the
/// golden cross-check in `crates/runtime/tests/erased_golden.rs`).
fn model_for(x: usize, z: usize) -> KalmanModel<f64> {
    if (x, z) == (2, 3) {
        return KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).expect("F"),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).expect("H"),
            Matrix::identity(3).scale(0.2),
        )
        .expect("model");
    }
    let f = Matrix::from_fn(x, x, |r, c| {
        if r == c {
            1.0
        } else if c == r + 2 {
            0.02 // position <- velocity, velocity <- acceleration coupling
        } else {
            0.0
        }
    });
    let q = Matrix::identity(x).scale(1e-3);
    let h = Matrix::from_fn(z, x, |r, c| 0.05 + 0.9 / (1.0 + ((r * x + c) % 17) as f64));
    let r = Matrix::identity(z).scale(0.5);
    KalmanModel::new(f, q, h, r).expect("model")
}

fn filter_for(x: usize, z: usize) -> KalmanFilter<f64, InverseGain<InterleavedInverse<f64>>> {
    let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
    KalmanFilter::new(
        model_for(x, z),
        KalmanState::zeroed(x),
        InverseGain::new(strat),
    )
}

fn measurements(z: usize, steps: usize) -> Vec<Vec<f64>> {
    (0..steps)
        .map(|t| {
            (0..z)
                .map(|c| 0.1 * t as f64 + ((c % 7) as f64) * 0.01)
                .collect()
        })
        .collect()
}

/// Best-of-`repeats` ns/step for `pass` run over `zs`; `pass` must rebuild
/// its filter each call so the interleaved calc/approx schedule starts from
/// iteration 0 every repeat.
fn time_pass(mut pass: impl FnMut(&[Vec<f64>]), zs: &[Vec<f64>], repeats: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        pass(zs);
        let ns = start.elapsed().as_nanos() as f64 / zs.len() as f64;
        best = best.min(ns);
    }
    best
}

struct Row {
    shape: String,
    x: usize,
    z: usize,
    steps: usize,
    dynamic_ns: f64,
    mono_ns: f64,
    speedup: f64,
    workspace_ns: f64,
    mono_raw_ns: f64,
    raw_speedup: f64,
    identical: bool,
}

/// Times all four legs for one const-generic shape and verifies session-level
/// bit identity.
fn bench_shape<const X: usize, const Z: usize>(quick: bool, repeats: usize) -> Row {
    // The per-step cost scales with the z x z inverse work, so the BCI
    // shape runs fewer steps to keep wall-clock bounded.
    let steps = match (Z, quick) {
        (..=9, false) => 20_000,
        (..=9, true) => 2_000,
        (_, false) => 2_000,
        (_, true) => 200,
    };
    let zs = measurements(Z, steps);

    let mono = || -> SmallFilterSession<f64, X, Z> {
        let kf = filter_for(X, Z);
        let spec = kf.gain().interleaved_spec().expect("fresh interleaved");
        SmallFilterSession::from_parts(kf.model(), kf.state(), spec).expect("shape matches")
    };

    // Session level: both backends behind the erased boundary, health
    // monitoring included.
    let dynamic_ns = time_pass(
        |zs| {
            let mut s: Box<dyn SessionBackend> = Box::new(FilterSession::new(filter_for(X, Z)));
            for z in zs {
                black_box(s.step(black_box(z)).expect("step"));
            }
        },
        &zs,
        repeats,
    );
    let mono_ns = time_pass(
        |zs| {
            let mut s: Box<dyn SessionBackend> = Box::new(mono());
            for z in zs {
                black_box(s.step(black_box(z)).expect("step"));
            }
        },
        &zs,
        repeats,
    );

    // Raw kernel level: the dynamic workspace step vs the monomorphized
    // unmonitored step — the like-for-like comparison against the
    // workspace_ns_per_step instrument of BENCH_filterbank.json.
    let vecs: Vec<Vector<f64>> = zs.iter().map(|z| Vector::from_vec(z.clone())).collect();
    let workspace_ns = time_pass(
        |zs| {
            let mut kf = filter_for(X, Z);
            let mut ws = kf.workspace();
            for (i, _) in zs.iter().enumerate() {
                black_box(kf.step_with(black_box(&vecs[i]), &mut ws).expect("step"));
            }
        },
        &zs,
        repeats,
    );
    let mono_raw_ns = time_pass(
        |zs| {
            let mut s = mono();
            for z in zs {
                s.step_raw(black_box(z)).expect("step");
                black_box(&s);
            }
        },
        &zs,
        repeats,
    );

    // Bit-exactness: the monitored session paths must land on identical
    // final bits.
    let mut dynamic: Box<dyn SessionBackend> = Box::new(FilterSession::new(filter_for(X, Z)));
    let mut mono_s: Box<dyn SessionBackend> = Box::new(mono());
    for z in &zs {
        dynamic.step(z).expect("dynamic step");
        mono_s.step(z).expect("mono step");
    }
    let (ds, ms) = (dynamic.state(), mono_s.state());
    let identical = (0..X).all(|i| ds.x()[i].to_bits() == ms.x()[i].to_bits())
        && (0..X).all(|i| (0..X).all(|j| ds.p()[(i, j)].to_bits() == ms.p()[(i, j)].to_bits()));
    assert!(identical, "x{X}z{Z}: mono kernel drifted from dynamic bits");

    Row {
        shape: format!("x{X}z{Z}"),
        x: X,
        z: Z,
        steps,
        dynamic_ns,
        mono_ns,
        speedup: dynamic_ns / mono_ns,
        workspace_ns,
        mono_raw_ns,
        raw_speedup: workspace_ns / mono_raw_ns,
        identical,
    }
}

fn main() {
    let quick = quick_mode();
    let repeats = if quick { 2 } else { 5 };

    let rows = [
        bench_shape::<2, 3>(quick, repeats),
        bench_shape::<6, 46>(quick, repeats),
    ];
    assert_eq!(
        rows.iter().map(|r| (r.x, r.z)).collect::<Vec<_>>(),
        MONO_SHAPES.to_vec(),
        "bench must cover every monomorphized shape"
    );

    println!("dynamic vs monomorphized step kernel (best of {repeats}):");
    println!(
        "  {:>8} {:>7} {:>13} {:>13} {:>8} {:>13} {:>13} {:>8} {:>6}",
        "shape",
        "steps",
        "session ns",
        "mono ns",
        "speedup",
        "workspace ns",
        "raw ns",
        "speedup",
        "bits"
    );
    for r in &rows {
        println!(
            "  {:>8} {:>7} {:>13.1} {:>13.1} {:>7.2}x {:>13.1} {:>13.1} {:>7.2}x {:>6}",
            r.shape,
            r.steps,
            r.dynamic_ns,
            r.mono_ns,
            r.speedup,
            r.workspace_ns,
            r.mono_raw_ns,
            r.raw_speedup,
            r.identical
        );
    }

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"shapes\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"shape\": \"{}\", \"x\": {}, \"z\": {}, \"steps\": {}, \
             \"dynamic_ns_per_step\": {:.1}, \"mono_ns_per_step\": {:.1}, \
             \"speedup\": {:.3}, \"workspace_ns_per_step\": {:.1}, \
             \"mono_raw_ns_per_step\": {:.1}, \"raw_speedup\": {:.3}, \
             \"bit_identical\": {} }}{comma}",
            r.shape,
            r.x,
            r.z,
            r.steps,
            r.dynamic_ns,
            r.mono_ns,
            r.speedup,
            r.workspace_ns,
            r.mono_raw_ns,
            r.raw_speedup,
            r.identical
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"metrics\": {}", kalmmind_obs::json_snapshot());
    json.push_str("}\n");

    std::fs::write("BENCH_smallmatrix.json", &json).expect("write BENCH_smallmatrix.json");
    println!();
    println!("wrote BENCH_smallmatrix.json");
}
