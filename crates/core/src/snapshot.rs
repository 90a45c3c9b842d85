//! Versioned session snapshot/restore — `kalmmind.session_snapshot.v1`.
//!
//! A snapshot is a dependency-free JSON document capturing *everything* a
//! [`FilterSession`] needs to continue its trajectory **bit-exactly**: the
//! constant model, the state pair `(x, P)`, the interleaved-gain registers
//! and seed-history matrices, the iteration counter, and the health bundle
//! (monitor window in storage order, latched statuses, flight-recorder
//! ring). Restoring a snapshot and replaying the remaining measurements
//! produces `to_bits`-identical states — and identical health transitions —
//! to the uninterrupted live run; `crates/runtime/tests/snapshot_replay.rs`
//! pins this for every scalar type and backend.
//!
//! # Wire encoding
//!
//! JSON numbers parse as `f64`, which silently loses `u64` bit patterns
//! above 2^53 — so every bit-exact payload (matrix/vector elements, health
//! thresholds, NIS window values, flight diagnostics, the session label,
//! telemetry counters) is a **lowercase hex string** naming the raw bit
//! pattern of the element: `f64`/`q32.32` use all 64 bits, `f32`/`q16.16`
//! the low 32. Small counts (dimensions, iteration, register values,
//! ring cursors) stay plain JSON numbers. The format is validated by
//! [`kalmmind_obs::validate::validate_snapshot`], which is normative.
//!
//! # Restore dispatch
//!
//! [`restore`] rebuilds a boxed [`SessionBackend`] from a document:
//! `"software"` snapshots restore onto the dynamic [`FilterSession`] path
//! for any of the four scalars, `"software-mono"` onto the monomorphized
//! [`small`](crate::small) path. Other backends (the accelerator simulator
//! lives downstream of this crate) restore through
//! [`restore_filter_session`], which rebuilds the typed inner session for
//! an adapter to wrap.

use kalmmind_fixed::{Q16_16, Q32_32};
use kalmmind_linalg::bits::{matrix_bits, matrix_from_bits, vector_bits, vector_from_bits};
use kalmmind_linalg::Scalar;
use kalmmind_obs::validate::{self, JsonValue, SESSION_SNAPSHOT_SCHEMA};

use crate::gain::GainStrategy;
use crate::gain::InverseGain;
use crate::health::{
    json_escape, FlightRecorder, HealthConfig, HealthMonitor, HealthStatus, StepSnapshot,
};
use crate::inverse::{CalcMethod, InterleavedInverse, InterleavedState, InversePath, SeedPolicy};
use crate::session::{FilterSession, SessionBackend, SessionHealth};
use crate::{KalmanError, KalmanFilter, KalmanModel, KalmanState, Result};

/// Bit-pattern encoding of the four constant model matrices (row-major).
#[derive(Debug, Clone)]
pub struct ModelBits {
    /// State-transition model `F` (`x_dim²` elements).
    pub f: Vec<u64>,
    /// Process-noise covariance `Q` (`x_dim²` elements).
    pub q: Vec<u64>,
    /// Observation model `H` (`z_dim·x_dim` elements).
    pub h: Vec<u64>,
    /// Observation-noise covariance `R` (`z_dim²` elements).
    pub r: Vec<u64>,
}

/// The interleaved-gain registers, path counters, and seed history.
#[derive(Debug, Clone)]
pub struct GainBits {
    /// Path A calculation method.
    pub calc: CalcMethod,
    /// Newton internal-iteration count (the `approx` register).
    pub approx: usize,
    /// Calculation schedule (the `calc_freq` register).
    pub calc_freq: u32,
    /// Seed equation (the `policy` register).
    pub policy: SeedPolicy,
    /// Calculation-path steps taken (diagnostics only).
    pub calc_count: usize,
    /// Approximation-path steps taken (diagnostics only).
    pub approx_count: usize,
    /// Non-finite-recovery fallbacks taken (diagnostics only).
    pub fallback_count: usize,
    /// Bits of the most recently calculated `S⁻¹` (the Eq. 5 seed).
    pub last_calculated: Option<Vec<u64>>,
    /// Bits of the previous iteration's `S⁻¹` (the Eq. 4 seed).
    pub previous: Option<Vec<u64>>,
}

/// The health bundle: monitor configuration and window, latched statuses,
/// and the flight-recorder ring.
#[derive(Debug, Clone)]
pub struct HealthBits {
    /// Monitor thresholds (restored verbatim — the NIS bound is recomputed
    /// from `z_dim` and these, so it is not serialized).
    pub config: HealthConfig,
    /// NIS ring in **storage order** (`f64` bit patterns): the window mean
    /// is an order-dependent floating-point sum, so a reordered restore
    /// would change future health transitions.
    pub window: Vec<u64>,
    /// Write cursor into the NIS ring.
    pub next: usize,
    /// Current monitor status.
    pub status: HealthStatus,
    /// Worst status ever assessed (drives dump-on-worsening).
    pub worst: HealthStatus,
    /// Reason for the most recent Degraded/Diverged transition.
    pub reason: String,
    /// The most recent flight-record dump, if one fired.
    pub dump: Option<String>,
    /// Flight-recorder ring capacity.
    pub flight_capacity: usize,
    /// Total steps the recorder has seen (≥ ring length).
    pub flight_total: u64,
    /// Ring contents, oldest first.
    pub flight: Vec<StepSnapshot>,
}

/// Accelerator telemetry carried by `"accel-sim"` snapshots so a restored
/// accelerator session keeps its lifetime cycle/energy accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelTelemetry {
    /// Table 3 design-point name (restores the design from the catalog).
    pub design: String,
    /// The `chunks` DMA register.
    pub chunks: usize,
    /// The `batches` DMA register.
    pub batches: usize,
    /// Cycles spent loading operands.
    pub load_cycles: u64,
    /// Cycles spent storing results.
    pub store_cycles: u64,
    /// Cycles spent in the compute datapath.
    pub compute_cycles: u64,
    /// DMA transactions issued.
    pub dma_transactions: u64,
    /// Words streamed in over DMA.
    pub dma_words_in: u64,
    /// Words streamed out over DMA.
    pub dma_words_out: u64,
    /// Cycles the DMA engine was busy.
    pub dma_cycles: u64,
}

/// A parsed (or captured) `kalmmind.session_snapshot.v1` document with all
/// bit-exact payloads held as raw `u64` patterns, scalar-erased.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Backend the session ran on (`software`, `software-mono`, `accel-sim`).
    pub backend: String,
    /// Element-type label (`f64`, `f32`, `q16.16`, `q32.32`).
    pub scalar: String,
    /// Gain-strategy label (e.g. `gauss/newton`).
    pub strategy: String,
    /// Stable session label (the bank's `SessionId`), full `u64` width.
    pub label: u64,
    /// State dimension.
    pub x_dim: usize,
    /// Measurement dimension (channel count).
    pub z_dim: usize,
    /// Completed KF iterations at capture time.
    pub iteration: usize,
    /// The constant model.
    pub model: ModelBits,
    /// State estimate `x` bits (`x_dim` elements).
    pub state_x: Vec<u64>,
    /// Covariance `P` bits (`x_dim²` elements, row-major).
    pub state_p: Vec<u64>,
    /// Gain registers and seed history.
    pub gain: GainBits,
    /// Health bundle.
    pub health: HealthBits,
    /// Accelerator telemetry (`Some` iff `backend == "accel-sim"`).
    pub accel: Option<AccelTelemetry>,
}

fn bad(reason: impl Into<String>) -> KalmanError {
    KalmanError::BadSnapshot {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------------

/// Captures a [`FilterSession`] as a [`SessionSnapshot`].
///
/// `backend` is the label the restore dispatch will route on; adapters that
/// wrap an inner `FilterSession` (the accelerator simulator) pass their own
/// backend name plus their telemetry as `accel`.
///
/// # Errors
///
/// [`KalmanError::BadSnapshot`] when the session's gain strategy does not
/// expose an interleaved state (only [`InterleavedInverse`]-backed sessions
/// can resume their calc/approx schedule bit-exactly).
pub fn capture_filter_session<T: Scalar, G: GainStrategy<T> + 'static>(
    session: &FilterSession<T, G>,
    backend: &str,
    accel: Option<AccelTelemetry>,
) -> Result<SessionSnapshot> {
    let filter = session.filter();
    let gain_state = filter.gain().interleaved_state().ok_or_else(|| {
        bad(format!(
            "strategy {} does not expose interleaved state; only interleaved sessions snapshot",
            filter.strategy_name()
        ))
    })?;
    let model = filter.model();
    Ok(SessionSnapshot {
        backend: backend.to_string(),
        scalar: T::NAME.to_string(),
        strategy: filter.strategy_name().to_string(),
        label: session.health().label(),
        x_dim: model.x_dim(),
        z_dim: model.z_dim(),
        iteration: filter.iteration(),
        model: ModelBits {
            f: matrix_bits(model.f()),
            q: matrix_bits(model.q()),
            h: matrix_bits(model.h()),
            r: matrix_bits(model.r()),
        },
        state_x: vector_bits(filter.state().x()),
        state_p: matrix_bits(filter.state().p()),
        gain: GainBits {
            calc: gain_state.calc,
            approx: gain_state.approx,
            calc_freq: gain_state.calc_freq,
            policy: gain_state.policy,
            calc_count: gain_state.calc_count,
            approx_count: gain_state.approx_count,
            fallback_count: gain_state.fallback_count,
            last_calculated: gain_state.last_calculated.as_ref().map(matrix_bits),
            previous: gain_state.previous.as_ref().map(matrix_bits),
        },
        health: capture_health(session.health()),
        accel,
    })
}

/// Captures a [`SessionHealth`] bundle as its snapshot encoding (shared by
/// the dynamic and monomorphized capture paths).
pub(crate) fn capture_health(health: &SessionHealth) -> HealthBits {
    let (window, next) = health.monitor().window_raw();
    let recorder = health.recorder();
    HealthBits {
        config: health.monitor().config().clone(),
        window: window.iter().map(|v| v.to_bits()).collect(),
        next,
        status: health.monitor().status(),
        worst: health.worst(),
        reason: health.monitor().reason().to_string(),
        dump: health.flight_record().map(str::to_string),
        flight_capacity: recorder.capacity(),
        flight_total: recorder.total_recorded(),
        flight: recorder.snapshots(),
    }
}

// ---------------------------------------------------------------------------
// JSON emit
// ---------------------------------------------------------------------------

fn push_hex_array(out: &mut String, bits: &[u64]) {
    out.push('[');
    for (i, b) in bits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{b:x}\""));
    }
    out.push(']');
}

fn push_opt_hex_array(out: &mut String, bits: Option<&Vec<u64>>) {
    match bits {
        Some(bits) => push_hex_array(out, bits),
        None => out.push_str("null"),
    }
}

fn opt_f64_hex(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("\"{:x}\"", v.to_bits()),
        None => "null".to_string(),
    }
}

impl SessionSnapshot {
    /// Renders the snapshot as its canonical JSON document. The output
    /// round-trips through [`SessionSnapshot::from_json`] losslessly and
    /// validates under [`kalmmind_obs::validate::validate_snapshot`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 20 * (self.state_p.len() + self.model.f.len()));
        out.push_str(&format!(
            "{{\"schema\":\"{SESSION_SNAPSHOT_SCHEMA}\",\"backend\":\"{}\",\
             \"scalar\":\"{}\",\"strategy\":\"{}\",\"label\":\"{:x}\",\
             \"x_dim\":{},\"z_dim\":{},\"iteration\":{},",
            json_escape(&self.backend),
            json_escape(&self.scalar),
            json_escape(&self.strategy),
            self.label,
            self.x_dim,
            self.z_dim,
            self.iteration,
        ));

        out.push_str("\"model\":{");
        for (i, (key, bits)) in [
            ("f", &self.model.f),
            ("q", &self.model.q),
            ("h", &self.model.h),
            ("r", &self.model.r),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":"));
            push_hex_array(&mut out, bits);
        }
        out.push_str("},\"state\":{\"x\":");
        push_hex_array(&mut out, &self.state_x);
        out.push_str(",\"p\":");
        push_hex_array(&mut out, &self.state_p);
        out.push_str("},");

        let g = &self.gain;
        out.push_str(&format!(
            "\"gain\":{{\"calc\":\"{}\",\"approx\":{},\"calc_freq\":{},\
             \"policy\":{},\"calc_count\":{},\"approx_count\":{},\
             \"fallback_count\":{},\"last_calculated\":",
            g.calc.name(),
            g.approx,
            g.calc_freq,
            g.policy.to_register(),
            g.calc_count,
            g.approx_count,
            g.fallback_count,
        ));
        push_opt_hex_array(&mut out, g.last_calculated.as_ref());
        out.push_str(",\"previous\":");
        push_opt_hex_array(&mut out, g.previous.as_ref());
        out.push_str("},");

        let h = &self.health;
        let c = &h.config;
        out.push_str(&format!(
            "\"health\":{{\"config\":{{\"window\":{},\
             \"nis_confidence_z\":\"{:x}\",\"nis_diverged_factor\":\"{:x}\",\
             \"cond_degraded\":\"{:x}\",\"cond_diverged\":\"{:x}\",\
             \"residual_degraded\":\"{:x}\",\"residual_diverged\":\"{:x}\",\
             \"symmetry_tol\":\"{:x}\",\"psd_tol\":\"{:x}\"}},\"window\":",
            c.window,
            c.nis_confidence_z.to_bits(),
            c.nis_diverged_factor.to_bits(),
            c.cond_degraded.to_bits(),
            c.cond_diverged.to_bits(),
            c.residual_degraded.to_bits(),
            c.residual_diverged.to_bits(),
            c.symmetry_tol.to_bits(),
            c.psd_tol.to_bits(),
        ));
        push_hex_array(&mut out, &h.window);
        out.push_str(&format!(
            ",\"next\":{},\"status\":\"{}\",\"worst\":\"{}\",\"reason\":\"{}\",\"dump\":",
            h.next,
            h.status.as_str(),
            h.worst.as_str(),
            json_escape(&h.reason),
        ));
        match &h.dump {
            Some(dump) => out.push_str(&format!("\"{}\"", json_escape(dump))),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"flight\":{{\"capacity\":{},\"total\":\"{:x}\",\"snapshots\":[",
            h.flight_capacity, h.flight_total,
        ));
        for (i, s) in h.flight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"iteration\":{},\"path\":\"{}\",\"status\":\"{}\",\
                 \"innovation_norm\":{},\"nis\":{},\"cond_s\":{},\
                 \"newton_residual\":{},\"min_p_diag\":{}}}",
                s.iteration,
                s.path.as_str(),
                s.status.as_str(),
                opt_f64_hex(Some(s.innovation_norm)),
                opt_f64_hex(s.nis),
                opt_f64_hex(s.cond_s),
                opt_f64_hex(s.newton_residual),
                opt_f64_hex(Some(s.min_p_diag)),
            ));
        }
        out.push_str("]}},\"accel\":");
        match &self.accel {
            None => out.push_str("null"),
            Some(a) => out.push_str(&format!(
                "{{\"design\":\"{}\",\"chunks\":{},\"batches\":{},\
                 \"load_cycles\":\"{:x}\",\"store_cycles\":\"{:x}\",\
                 \"compute_cycles\":\"{:x}\",\"dma\":{{\"transactions\":\"{:x}\",\
                 \"words_in\":\"{:x}\",\"words_out\":\"{:x}\",\"cycles\":\"{:x}\"}}}}",
                json_escape(&a.design),
                a.chunks,
                a.batches,
                a.load_cycles,
                a.store_cycles,
                a.compute_cycles,
                a.dma_transactions,
                a.dma_words_in,
                a.dma_words_out,
                a.dma_cycles,
            )),
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// JSON parse
// ---------------------------------------------------------------------------

fn parse_hex(v: &JsonValue) -> Option<u64> {
    let s = v.as_str()?;
    if s.is_empty() || s.len() > 16 || s.bytes().any(|b| !b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn get<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue> {
    doc.get(key)
        .ok_or_else(|| bad(format!("snapshot missing {key:?}")))
}

fn get_str(doc: &JsonValue, key: &str) -> Result<String> {
    get(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("snapshot field {key:?} must be a string")))
}

fn get_count(doc: &JsonValue, key: &str) -> Result<usize> {
    let v = get(doc, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("snapshot field {key:?} must be a number")))?;
    if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
        return Err(bad(format!("snapshot field {key:?} must be a count")));
    }
    Ok(v as usize)
}

fn get_hex(doc: &JsonValue, key: &str) -> Result<u64> {
    get(doc, key)
        .ok()
        .and_then(parse_hex)
        .ok_or_else(|| bad(format!("snapshot field {key:?} must be a hex string")))
}

fn get_bits(doc: &JsonValue, key: &str) -> Result<Vec<u64>> {
    let items = get(doc, key)?
        .as_array()
        .ok_or_else(|| bad(format!("snapshot field {key:?} must be an array")))?;
    items
        .iter()
        .map(|v| parse_hex(v).ok_or_else(|| bad(format!("snapshot array {key:?} holds non-hex"))))
        .collect()
}

fn get_opt_bits(doc: &JsonValue, key: &str) -> Result<Option<Vec<u64>>> {
    match doc.get(key) {
        Some(JsonValue::Null) => Ok(None),
        Some(_) => Ok(Some(get_bits(doc, key)?)),
        None => Err(bad(format!("snapshot missing {key:?}"))),
    }
}

fn get_opt_f64(doc: &JsonValue, key: &str) -> Result<Option<f64>> {
    match doc.get(key) {
        Some(JsonValue::Null) => Ok(None),
        Some(v) => parse_hex(v)
            .map(|bits| Some(f64::from_bits(bits)))
            .ok_or_else(|| bad(format!("flight field {key:?} must be hex or null"))),
        None => Err(bad(format!("flight entry missing {key:?}"))),
    }
}

fn get_f64_hex(doc: &JsonValue, key: &str) -> Result<f64> {
    Ok(f64::from_bits(get_hex(doc, key)?))
}

impl SessionSnapshot {
    /// Parses and validates a `kalmmind.session_snapshot.v1` document.
    ///
    /// The document is first run through the normative
    /// [`kalmmind_obs::validate::validate_snapshot`] (schema marker, hex
    /// encodings, shape-consistent element counts), then decoded.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadSnapshot`] naming the violated invariant.
    pub fn from_json(text: &str) -> Result<Self> {
        validate::validate_snapshot(text).map_err(bad)?;
        let doc = validate::parse_json(text).map_err(bad)?;

        let x_dim = get_count(&doc, "x_dim")?;
        let z_dim = get_count(&doc, "z_dim")?;
        let model = get(&doc, "model")?;
        let state = get(&doc, "state")?;
        let gain = get(&doc, "gain")?;

        let calc = get_str(gain, "calc")?;
        let calc = CalcMethod::parse(&calc)
            .ok_or_else(|| bad(format!("unknown calculation method {calc:?}")))?;
        let policy = SeedPolicy::from_register(get_count(gain, "policy")? as u32)
            .map_err(|e| bad(e.to_string()))?;

        let health = get(&doc, "health")?;
        let config_doc = get(health, "config")?;
        let config = HealthConfig {
            window: get_count(config_doc, "window")?,
            nis_confidence_z: get_f64_hex(config_doc, "nis_confidence_z")?,
            nis_diverged_factor: get_f64_hex(config_doc, "nis_diverged_factor")?,
            cond_degraded: get_f64_hex(config_doc, "cond_degraded")?,
            cond_diverged: get_f64_hex(config_doc, "cond_diverged")?,
            residual_degraded: get_f64_hex(config_doc, "residual_degraded")?,
            residual_diverged: get_f64_hex(config_doc, "residual_diverged")?,
            symmetry_tol: get_f64_hex(config_doc, "symmetry_tol")?,
            psd_tol: get_f64_hex(config_doc, "psd_tol")?,
        };
        let window = get_bits(health, "window")?;
        let next = get_count(health, "next")?;
        let cap = config.window.max(1);
        if window.len() > cap || next >= cap {
            return Err(bad(format!(
                "health window {} entries / cursor {next} exceed configured window {cap}",
                window.len()
            )));
        }
        let status_of = |doc: &JsonValue, key: &str| -> Result<HealthStatus> {
            let s = get_str(doc, key)?;
            HealthStatus::parse(&s).ok_or_else(|| bad(format!("unknown health {key} {s:?}")))
        };
        let dump = match health.get("dump") {
            Some(JsonValue::Null) => None,
            Some(v) => v.as_str().map(str::to_string),
            None => None,
        };
        let flight_doc = get(health, "flight")?;
        let mut flight = Vec::new();
        for entry in get(flight_doc, "snapshots")?
            .as_array()
            .ok_or_else(|| bad("flight \"snapshots\" must be an array"))?
        {
            let path = get_str(entry, "path")?;
            flight.push(StepSnapshot {
                iteration: get_count(entry, "iteration")?,
                path: InversePath::parse(&path)
                    .ok_or_else(|| bad(format!("unknown inverse path {path:?}")))?,
                status: status_of(entry, "status")?,
                innovation_norm: get_opt_f64(entry, "innovation_norm")?.unwrap_or(f64::NAN),
                nis: get_opt_f64(entry, "nis")?,
                cond_s: get_opt_f64(entry, "cond_s")?,
                newton_residual: get_opt_f64(entry, "newton_residual")?,
                min_p_diag: get_opt_f64(entry, "min_p_diag")?.unwrap_or(f64::NAN),
            });
        }

        let accel = match doc.get("accel") {
            Some(JsonValue::Null) | None => None,
            Some(a) => {
                let dma = get(a, "dma")?;
                Some(AccelTelemetry {
                    design: get_str(a, "design")?,
                    chunks: get_count(a, "chunks")?,
                    batches: get_count(a, "batches")?,
                    load_cycles: get_hex(a, "load_cycles")?,
                    store_cycles: get_hex(a, "store_cycles")?,
                    compute_cycles: get_hex(a, "compute_cycles")?,
                    dma_transactions: get_hex(dma, "transactions")?,
                    dma_words_in: get_hex(dma, "words_in")?,
                    dma_words_out: get_hex(dma, "words_out")?,
                    dma_cycles: get_hex(dma, "cycles")?,
                })
            }
        };

        Ok(Self {
            backend: get_str(&doc, "backend")?,
            scalar: get_str(&doc, "scalar")?,
            strategy: get_str(&doc, "strategy")?,
            label: get_hex(&doc, "label")?,
            x_dim,
            z_dim,
            iteration: get_count(&doc, "iteration")?,
            model: ModelBits {
                f: get_bits(model, "f")?,
                q: get_bits(model, "q")?,
                h: get_bits(model, "h")?,
                r: get_bits(model, "r")?,
            },
            state_x: get_bits(state, "x")?,
            state_p: get_bits(state, "p")?,
            gain: GainBits {
                calc,
                approx: get_count(gain, "approx")?,
                calc_freq: get_count(gain, "calc_freq")? as u32,
                policy,
                calc_count: get_count(gain, "calc_count")?,
                approx_count: get_count(gain, "approx_count")?,
                fallback_count: get_count(gain, "fallback_count")?,
                last_calculated: get_opt_bits(gain, "last_calculated")?,
                previous: get_opt_bits(gain, "previous")?,
            },
            health: HealthBits {
                config,
                window,
                next,
                status: status_of(health, "status")?,
                worst: status_of(health, "worst")?,
                reason: get_str(health, "reason")?,
                dump,
                flight_capacity: get_count(flight_doc, "capacity")?,
                flight_total: get_hex(flight_doc, "total")?,
                flight,
            },
            accel,
        })
    }
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

fn decode_matrix<T: Scalar>(
    rows: usize,
    cols: usize,
    bits: &[u64],
    what: &str,
) -> Result<kalmmind_linalg::Matrix<T>> {
    matrix_from_bits(rows, cols, bits).ok_or_else(|| {
        bad(format!(
            "snapshot {what} bits do not decode as {} {rows}x{cols} elements",
            T::NAME
        ))
    })
}

/// Rebuilds the typed model, state, and interleaved-strategy state from a
/// scalar-erased snapshot (shared by the dynamic, mono, and accelerator
/// restore paths).
pub(crate) fn rebuild_parts<T: Scalar>(
    snap: &SessionSnapshot,
) -> Result<(KalmanModel<T>, KalmanState<T>, InterleavedState<T>)> {
    if snap.scalar != T::NAME {
        return Err(bad(format!(
            "snapshot scalar {:?} does not match requested {:?}",
            snap.scalar,
            T::NAME
        )));
    }
    let (x_dim, z_dim) = (snap.x_dim, snap.z_dim);
    let model = KalmanModel::new(
        decode_matrix(x_dim, x_dim, &snap.model.f, "F")?,
        decode_matrix(x_dim, x_dim, &snap.model.q, "Q")?,
        decode_matrix(z_dim, x_dim, &snap.model.h, "H")?,
        decode_matrix(z_dim, z_dim, &snap.model.r, "R")?,
    )?;
    let x = vector_from_bits(&snap.state_x).ok_or_else(|| {
        bad(format!(
            "snapshot state bits do not decode as {} elements",
            T::NAME
        ))
    })?;
    if x.len() != x_dim {
        return Err(bad("snapshot state length disagrees with x_dim"));
    }
    let state = KalmanState::new(x, decode_matrix(x_dim, x_dim, &snap.state_p, "P")?);
    let g = &snap.gain;
    let gain_state = InterleavedState {
        calc: g.calc,
        approx: g.approx,
        calc_freq: g.calc_freq,
        policy: g.policy,
        calc_count: g.calc_count,
        approx_count: g.approx_count,
        fallback_count: g.fallback_count,
        last_calculated: g
            .last_calculated
            .as_ref()
            .map(|bits| decode_matrix(z_dim, z_dim, bits, "last_calculated seed"))
            .transpose()?,
        previous: g
            .previous
            .as_ref()
            .map(|bits| decode_matrix(z_dim, z_dim, bits, "previous seed"))
            .transpose()?,
    };
    Ok((model, state, gain_state))
}

/// Rebuilds the health bundle (monitor window in storage order, flight
/// ring, latched statuses) from a snapshot.
pub(crate) fn rebuild_health(snap: &SessionSnapshot) -> SessionHealth {
    let h = &snap.health;
    let monitor = HealthMonitor::restore(
        snap.z_dim,
        h.config.clone(),
        h.window.iter().map(|b| f64::from_bits(*b)).collect(),
        h.next,
        h.status,
        h.reason.clone(),
    );
    let recorder = FlightRecorder::restore(h.flight_capacity, h.flight.clone(), h.flight_total);
    SessionHealth::restore(monitor, recorder, h.worst, h.dump.clone(), snap.label)
}

/// Rebuilds a typed dynamic-path [`FilterSession`] from a snapshot — the
/// workhorse behind [`restore`], also used by adapters (the accelerator
/// simulator) that wrap an inner session under their own backend name.
///
/// # Errors
///
/// [`KalmanError::BadSnapshot`] when the snapshot's scalar label is not
/// `T`'s, or any bit payload fails to decode at `T`'s width.
pub fn restore_filter_session<T: Scalar>(
    snap: &SessionSnapshot,
) -> Result<FilterSession<T, Box<dyn GainStrategy<T>>>> {
    let (model, state, gain_state) = rebuild_parts::<T>(snap)?;
    let gain: Box<dyn GainStrategy<T>> =
        Box::new(InverseGain::new(InterleavedInverse::restore(gain_state)));
    let filter = KalmanFilter::restore(model, state, gain, snap.iteration);
    Ok(FilterSession::from_restored(filter, rebuild_health(snap)))
}

/// Restores a snapshot onto the dynamic `"software"` backend, whatever
/// backend label it carries, dispatching on its scalar label.
pub(crate) fn restore_dynamic_session(snap: &SessionSnapshot) -> Result<Box<dyn SessionBackend>> {
    match snap.scalar.as_str() {
        "f64" => Ok(Box::new(restore_filter_session::<f64>(snap)?)),
        "f32" => Ok(Box::new(restore_filter_session::<f32>(snap)?)),
        "q16.16" => Ok(Box::new(restore_filter_session::<Q16_16>(snap)?)),
        "q32.32" => Ok(Box::new(restore_filter_session::<Q32_32>(snap)?)),
        other => Err(bad(format!("unknown snapshot scalar {other:?}"))),
    }
}

/// Restores a snapshot into a boxed [`SessionBackend`], dispatching on the
/// document's backend and scalar labels. Handles the `"software"` (dynamic)
/// and `"software-mono"` (monomorphized) backends over all four scalar
/// types; other backends — e.g. the accelerator simulator, which lives in a
/// downstream crate — must be restored by their own adapters (the bank
/// keeps a restorer registry for exactly this).
///
/// # Errors
///
/// [`KalmanError::BadSnapshot`] for malformed documents, unknown
/// backend/scalar labels, or bit payloads that do not decode.
pub fn restore(text: &str) -> Result<Box<dyn SessionBackend>> {
    restore_snapshot(&SessionSnapshot::from_json(text)?)
}

/// [`restore`] for an already-parsed snapshot.
///
/// # Errors
///
/// Same as [`restore`], minus the parse failures.
pub fn restore_snapshot(snap: &SessionSnapshot) -> Result<Box<dyn SessionBackend>> {
    match snap.backend.as_str() {
        "software" => restore_dynamic_session(snap),
        "software-mono" => crate::small::restore_mono_session(snap),
        other => Err(bad(format!(
            "no built-in restorer for backend {other:?}; register one with the bank"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::SeedPolicy;
    use crate::session::StepOutcome;
    use kalmmind_linalg::Matrix;

    fn model() -> KalmanModel<f64> {
        KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Matrix::identity(3).scale(0.2),
        )
        .unwrap()
    }

    fn measurement(t: usize) -> Vec<f64> {
        let pos = 0.1 * t as f64;
        vec![pos, 1.0, pos + 1.0]
    }

    fn session() -> FilterSession<f64, InverseGain<InterleavedInverse<f64>>> {
        let gain = InverseGain::new(InterleavedInverse::new(
            CalcMethod::Gauss,
            2,
            4,
            SeedPolicy::LastCalculated,
        ));
        FilterSession::new(KalmanFilter::new(model(), KalmanState::zeroed(2), gain))
    }

    #[test]
    fn snapshot_validates_and_round_trips() {
        let mut live = session();
        live.health_mut().set_label(0xdead_beef_cafe);
        for t in 0..13 {
            live.step(&measurement(t)).unwrap();
        }
        let json = live.snapshot().unwrap();
        let summary = validate::validate_snapshot(&json).expect("snapshot must validate");
        assert_eq!(summary.backend, "software");
        assert_eq!(summary.scalar, "f64");
        assert_eq!(summary.label, 0xdead_beef_cafe);
        assert_eq!(summary.iteration, 13);

        let snap = SessionSnapshot::from_json(&json).unwrap();
        assert_eq!(snap.to_json(), json, "emit/parse must be a fixed point");
    }

    #[test]
    fn restored_session_replays_bit_exactly() {
        let mut live = session();
        for t in 0..10 {
            live.step(&measurement(t)).unwrap();
        }
        let json = live.snapshot().unwrap();
        let mut restored = restore(&json).unwrap();
        assert_eq!(restored.iteration(), 10);
        assert_eq!(restored.backend_name(), "software");
        for t in 10..40 {
            assert!(matches!(
                live.step(&measurement(t)).unwrap(),
                StepOutcome::Ok
            ));
            restored.step(&measurement(t)).unwrap();
            let a = live.state();
            let b = restored.state();
            assert_eq!(vector_bits(a.x()), vector_bits(b.x()), "x diverged at {t}");
            assert_eq!(matrix_bits(a.p()), matrix_bits(b.p()), "P diverged at {t}");
        }
    }

    #[test]
    fn restore_rejects_scalar_mismatch_and_unknown_backend() {
        let mut live = session();
        live.step(&measurement(0)).unwrap();
        let json = live.snapshot().unwrap();
        let snap = SessionSnapshot::from_json(&json).unwrap();

        let err = restore_filter_session::<f32>(&snap).unwrap_err();
        assert!(matches!(err, KalmanError::BadSnapshot { .. }), "{err}");

        let mut alien = snap.clone();
        alien.backend = "fpga".to_string();
        let err = restore_snapshot(&alien).unwrap_err();
        assert!(err.to_string().contains("fpga"), "{err}");
    }

    #[test]
    fn non_interleaved_sessions_refuse_to_snapshot() {
        let gain = InverseGain::new(crate::inverse::CalcInverse::new(CalcMethod::Lu));
        let sess = FilterSession::new(KalmanFilter::new(model(), KalmanState::zeroed(2), gain));
        let err = sess.snapshot().unwrap_err();
        assert!(matches!(err, KalmanError::BadSnapshot { .. }), "{err}");
    }
}
