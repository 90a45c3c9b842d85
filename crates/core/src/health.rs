//! Per-filter numerical health monitoring — the live signal telling an
//! operator whether a chosen `calc_freq`/`approx`/`policy` configuration is
//! still numerically safe for a session.
//!
//! The PR 3 counters say *how often* the approximation path ran; this module
//! says *how well*. After every [`KalmanFilter::step_with`] the workspace
//! still holds the step's intermediates (innovation `y`, innovation
//! covariance `S`, its inverse `S⁻¹`, the updated covariance `P`), so a
//! [`HealthMonitor`] can compute classical KF consistency statistics as
//! **read-only `f64` probes** — never touching the filter's own arithmetic,
//! which is what keeps the golden bit-exactness tests of
//! `tests/obs_invariance.rs` valid:
//!
//! * **NIS** (normalized innovation squared, `yᵀ·S⁻¹·y`) against rolling
//!   chi-square window bounds — the standard innovation consistency check;
//! * a cheap **condition estimate** of `S`, `κ_∞ ≈ ‖S‖_∞·‖S⁻¹‖_∞`, free
//!   because both factors are already in the workspace;
//! * the **Newton residual** `‖S·S⁻¹ − I‖_F` on approximation-path steps —
//!   the direct measure of how much accuracy the `approx` register is
//!   giving up (a residual ≥ 1 means the Newton iteration left its
//!   convergence basin, paper Eq. 3);
//! * **covariance drift** probes: symmetry defect and the most negative
//!   diagonal entry of `P` (a PSD necessary condition).
//!
//! Each diagnostic feeds a process-wide `Lazy*` instrument (no-ops unless
//! the `obs` feature is on) and a per-session [`HealthStatus`]. A
//! [`FlightRecorder`] keeps a fixed-capacity ring of recent
//! [`StepSnapshot`]s so a Degraded/Diverged/Failed transition can be dumped
//! as structured JSON (`kalmmind.flight_record.v1`, validated by
//! [`kalmmind_obs::validate::validate_flight_record`]) without a rerun.
//!
//! [`KalmanFilter::step_with`]: crate::KalmanFilter::step_with

use kalmmind_linalg::dense::Dense;
use kalmmind_linalg::Scalar;
use kalmmind_obs as obs;

use crate::inverse::InversePath;
use crate::workspace::{StepBuffers, StepWorkspace, Storage};
use crate::KalmanState;

// Health instruments (no-ops unless `obs` is enabled). Process-global
// aggregates across every monitored session.
static OBS_NIS: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_health_nis",
    "Normalized innovation squared per step (chi-square distributed when the filter is consistent)",
    &[
        0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0, 16384.0,
    ],
);
static OBS_COND: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_health_cond_s",
    "Condition estimate of the innovation covariance S (inf-norm based)",
    &[1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16],
);
static OBS_RESIDUAL: obs::LazyHistogram = obs::LazyHistogram::new(
    "kf_health_newton_residual",
    "Frobenius residual of S*S_inv - I on approximation-path steps",
    &[1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 1e-1, 0.5, 1.0, 2.0, 10.0],
);
static OBS_TO_DEGRADED: obs::LazyCounter = obs::LazyCounter::labeled(
    "kf_health_transitions_total",
    "Per-session health status transitions",
    "to",
    "degraded",
);
static OBS_TO_DIVERGED: obs::LazyCounter = obs::LazyCounter::labeled(
    "kf_health_transitions_total",
    "Per-session health status transitions",
    "to",
    "diverged",
);
static OBS_RECOVERED: obs::LazyCounter = obs::LazyCounter::labeled(
    "kf_health_transitions_total",
    "Per-session health status transitions",
    "to",
    "recovered",
);

/// Per-session numerical health, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthStatus {
    /// All diagnostics within bounds.
    #[default]
    Healthy,
    /// At least one diagnostic out of bounds; the filter still produces
    /// finite output and may recover.
    Degraded,
    /// The configuration is numerically unsafe for this session (non-finite
    /// output, NIS far outside its chi-square bounds, or a Newton iteration
    /// outside its convergence basin). Latched: a Diverged session stays
    /// Diverged until [`HealthMonitor::reset`].
    Diverged,
}

impl HealthStatus {
    /// Lowercase name used in JSON dumps and the `/healthz` endpoint.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Diverged => "diverged",
        }
    }

    /// Inverse of [`Self::as_str`], used when decoding session snapshots.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "healthy" => Some(HealthStatus::Healthy),
            "degraded" => Some(HealthStatus::Degraded),
            "diverged" => Some(HealthStatus::Diverged),
            _ => None,
        }
    }
}

/// Thresholds for the [`HealthMonitor`] state machine.
///
/// Defaults are deliberately loose: they flag configurations that are
/// *numerically* unsafe (broken seeds, ill-conditioned `S`, inconsistent
/// innovations), not configurations that are merely inaccurate.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Rolling window length (in steps) for the NIS consistency check. NIS
    /// is only judged once the window is full, which also skips the
    /// filter's initial transient.
    pub window: usize,
    /// One-sided normal quantile used for the chi-square window bound via
    /// the Wilson–Hilferty approximation. The default 3.29 corresponds to
    /// ≈ 99.95 % — under a consistent filter a full window exceeds the
    /// bound about once in 2000 windows.
    pub nis_confidence_z: f64,
    /// The window-mean NIS is Diverged when it exceeds the Degraded bound
    /// by this factor.
    pub nis_diverged_factor: f64,
    /// Condition estimate of `S` above which the session is Degraded.
    pub cond_degraded: f64,
    /// Condition estimate of `S` above which the session is Diverged.
    pub cond_diverged: f64,
    /// Newton residual above which the session is Degraded.
    pub residual_degraded: f64,
    /// Newton residual above which the session is Diverged (≥ 1 means the
    /// Newton–Schulz iteration is outside its convergence basin, Eq. 3).
    pub residual_diverged: f64,
    /// Relative symmetry defect of `P` above which the session is Degraded.
    /// The filter symmetrizes `P` every step, so any defect signals a
    /// kernel bug rather than ordinary round-off.
    pub symmetry_tol: f64,
    /// Relative tolerance for negative diagonal entries of `P` (a PSD
    /// necessary condition) before the session is Degraded.
    pub psd_tol: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            window: 32,
            nis_confidence_z: 3.29,
            nis_diverged_factor: 8.0,
            cond_degraded: 1e8,
            cond_diverged: 1e13,
            residual_degraded: 0.5,
            residual_diverged: 1.0,
            symmetry_tol: 1e-9,
            psd_tol: 1e-9,
        }
    }
}

/// Upper-tail chi-square quantile via the Wilson–Hilferty cube
/// approximation: `χ²_p(ν) ≈ ν·(1 − 2/(9ν) + z_p·√(2/(9ν)))³`, where `z_p`
/// is the standard-normal quantile. Accurate to a few percent for ν ≥ 3 —
/// plenty for an alerting bound, and dependency-free.
pub fn chi_square_quantile(dof: f64, z: f64) -> f64 {
    let a = 2.0 / (9.0 * dof);
    dof * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Read-only `f64` diagnostics of one completed KF step.
///
/// Produced by [`StepDiagnostics::from_step`] from the workspace buffers the
/// step just filled; computing them never mutates filter state, so monitored
/// and unmonitored trajectories are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct StepDiagnostics {
    /// Zero-based KF iteration this step ran as.
    pub iteration: usize,
    /// Inversion datapath the gain strategy reported for this step.
    pub path: InversePath,
    /// Euclidean norm of the innovation `y = z − H·x̂`.
    pub innovation_norm: f64,
    /// Normalized innovation squared `yᵀ·S⁻¹·y`; `None` when the gain
    /// strategy did not expose `S`/`S⁻¹` (non-inversion strategies).
    pub nis: Option<f64>,
    /// Condition estimate `‖S‖_∞·‖S⁻¹‖_∞`; `None` without `S`/`S⁻¹`.
    pub cond_s: Option<f64>,
    /// Frobenius norm of `S·S⁻¹ − I`; computed only on approximation-path
    /// steps (on calculation steps it is machine-epsilon noise).
    pub newton_residual: Option<f64>,
    /// Maximum absolute asymmetry `max |P_ij − P_ji|` of the updated
    /// covariance, relative to its largest diagonal entry.
    pub symmetry_drift: f64,
    /// Most negative diagonal entry of the updated covariance (negative
    /// values violate positive semi-definiteness).
    pub min_p_diag: f64,
    /// `false` when the state vector or covariance contains NaN/∞.
    pub state_finite: bool,
}

impl StepDiagnostics {
    /// Probes the workspace and state left by a completed
    /// [`KalmanFilter::step_with`] call. `iteration` is the index the step
    /// ran as (i.e. `filter.iteration() - 1` right after the call).
    ///
    /// [`KalmanFilter::step_with`]: crate::KalmanFilter::step_with
    pub fn from_step<T: Scalar>(
        ws: &StepWorkspace<T>,
        state: &KalmanState<T>,
        iteration: usize,
    ) -> Self {
        Self::probe(ws, state.x(), state.p(), iteration)
    }

    /// [`StepDiagnostics::from_step`] over either storage layout: reads the
    /// buffers the step just filled (`y`, `S`, `S⁻¹`, the path tag) and the
    /// updated state `x`, `p`; never writes anything.
    pub(crate) fn probe<T: Scalar, S: Storage<T>>(
        ws: &StepBuffers<T, S>,
        x: &S::VX,
        p: &S::XX,
        iteration: usize,
    ) -> Self {
        let y = ws.y.as_slice();
        let mut innovation_sq = 0.0f64;
        for v in y {
            let v = v.to_f64();
            innovation_sq += v * v;
        }
        let innovation_norm = innovation_sq.sqrt();

        let path = ws.gain.inv.last_path;
        let (nis, cond_s, newton_residual) = if ws.gain.s_filled {
            let (s, s_inv) = (&ws.gain.s, &ws.gain.s_inv);
            let n = s.shape().0;
            let (sv, iv) = (s.as_slice(), s_inv.as_slice());
            let mut nis = 0.0f64;
            for i in 0..n {
                let yi = y[i].to_f64();
                for j in 0..n {
                    nis += yi * iv[i * n + j].to_f64() * y[j].to_f64();
                }
            }
            let cond = s.inf_norm() * s_inv.inf_norm();
            let residual = if path == InversePath::Approx {
                let mut acc = 0.0f64;
                for i in 0..n {
                    for j in 0..n {
                        let mut dot = 0.0f64;
                        for k in 0..n {
                            dot += sv[i * n + k].to_f64() * iv[k * n + j].to_f64();
                        }
                        let d = dot - if i == j { 1.0 } else { 0.0 };
                        acc += d * d;
                    }
                }
                Some(acc.sqrt())
            } else {
                None
            };
            (Some(nis), Some(cond), residual)
        } else {
            (None, None, None)
        };

        let n = p.shape().0;
        let pv = p.as_slice();
        let mut max_diag = 0.0f64;
        let mut min_p_diag = f64::INFINITY;
        let mut asym = 0.0f64;
        for i in 0..n {
            let d = pv[i * n + i].to_f64();
            min_p_diag = min_p_diag.min(d);
            max_diag = max_diag.max(d.abs());
            for j in (i + 1)..n {
                asym = asym.max((pv[i * n + j].to_f64() - pv[j * n + i].to_f64()).abs());
            }
        }
        if n == 0 {
            min_p_diag = 0.0;
        }
        let symmetry_drift = asym / (1.0 + max_diag);

        Self {
            iteration,
            path,
            innovation_norm,
            nis,
            cond_s,
            newton_residual,
            symmetry_drift,
            min_p_diag,
            state_finite: x.all_finite() && p.all_finite(),
        }
    }
}

/// Rolling health state machine for one filter session.
///
/// Feed it one [`StepDiagnostics`] per step ([`HealthMonitor::observe`]);
/// read [`HealthMonitor::status`]. `Diverged` latches until
/// [`HealthMonitor::reset`]; `Degraded` recovers on its own when the
/// diagnostics return inside bounds.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    /// Ring of the most recent NIS values (length ≤ `config.window`).
    nis_window: Vec<f64>,
    next: usize,
    status: HealthStatus,
    reason: String,
    /// Cached [`Self::nis_mean_upper_bound`]: `config` and `dof` are fixed
    /// at construction, so the chi-square quantile never changes.
    nis_bound: f64,
}

impl HealthMonitor {
    /// Creates a monitor for a `z_dim`-channel filter with default bounds.
    pub fn new(z_dim: usize) -> Self {
        Self::with_config(z_dim, HealthConfig::default())
    }

    /// Rebuilds a monitor mid-trajectory from snapshot state: the ring is
    /// restored *in storage order* with its write cursor, because the
    /// window mean is an order-dependent floating-point sum — restoring a
    /// reordered window would change future health transitions.
    pub(crate) fn restore(
        z_dim: usize,
        config: HealthConfig,
        window: Vec<f64>,
        next: usize,
        status: HealthStatus,
        reason: String,
    ) -> Self {
        let mut mon = Self::with_config(z_dim, config);
        mon.nis_window = window;
        mon.next = next;
        mon.status = status;
        mon.reason = reason;
        mon
    }

    /// The NIS ring in storage order plus the write cursor — the exact
    /// state a snapshot must carry to reproduce future window means.
    pub(crate) fn window_raw(&self) -> (&[f64], usize) {
        (&self.nis_window, self.next)
    }

    /// Creates a monitor with explicit bounds.
    pub fn with_config(z_dim: usize, config: HealthConfig) -> Self {
        let window = config.window.max(1);
        // Chi-square degrees of freedom per step: the measurement dimension.
        let dof = z_dim.max(1);
        let w = window as f64;
        let nis_bound = chi_square_quantile(w * dof as f64, config.nis_confidence_z) / w;
        Self {
            config,
            // Filled lazily by `observe` (bounded by `config.window`), so
            // constructing a monitor for a never-stepped session stays
            // allocation-free.
            nis_window: Vec::new(),
            next: 0,
            status: HealthStatus::Healthy,
            reason: String::new(),
            nis_bound,
        }
    }

    /// Current status.
    pub fn status(&self) -> HealthStatus {
        self.status
    }

    /// Human-readable reason for the most recent Degraded/Diverged
    /// transition (empty while Healthy since the start).
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// The configured bounds.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Mean NIS over the rolling window; `None` until the window is full.
    pub fn window_mean_nis(&self) -> Option<f64> {
        if self.nis_window.len() < self.config.window.max(1) {
            return None;
        }
        Some(self.nis_window.iter().sum::<f64>() / self.nis_window.len() as f64)
    }

    /// Degraded bound for the window-mean NIS: the mean of `window`
    /// independent chi-square(`dof`) variates stays below
    /// `χ²_p(window·dof)/window` with confidence `p` (see
    /// [`chi_square_quantile`]).
    pub fn nis_mean_upper_bound(&self) -> f64 {
        self.nis_bound
    }

    /// Ingests one step's diagnostics, updates the instruments, and returns
    /// the (possibly changed) status.
    pub fn observe(&mut self, d: &StepDiagnostics) -> HealthStatus {
        if let Some(nis) = d.nis {
            OBS_NIS.observe(nis);
            if nis.is_finite() {
                let cap = self.config.window.max(1);
                if self.nis_window.len() < cap {
                    self.nis_window.push(nis);
                } else {
                    self.nis_window[self.next] = nis;
                    self.next = (self.next + 1) % cap;
                }
            }
        }
        if let Some(cond) = d.cond_s {
            OBS_COND.observe(cond);
        }
        if let Some(res) = d.newton_residual {
            OBS_RESIDUAL.observe(res);
        }

        let (assessed, reason) = self.assess(d);
        self.transition(assessed, reason);
        self.status
    }

    /// Forces the monitor to Diverged (used by the runtime when the filter
    /// itself failed — error return or non-finite state — so the session's
    /// terminal health matches its terminal status).
    pub fn mark_diverged(&mut self, reason: &str) {
        self.transition(HealthStatus::Diverged, reason.to_string());
    }

    /// Returns the monitor to Healthy with an empty window.
    pub fn reset(&mut self) {
        self.nis_window.clear();
        self.next = 0;
        self.status = HealthStatus::Healthy;
        self.reason.clear();
    }

    fn assess(&self, d: &StepDiagnostics) -> (HealthStatus, String) {
        let c = &self.config;

        if !d.state_finite || !d.innovation_norm.is_finite() {
            return (
                HealthStatus::Diverged,
                "non-finite state or innovation".to_string(),
            );
        }
        if let Some(nis) = d.nis {
            if !nis.is_finite() {
                return (HealthStatus::Diverged, "non-finite NIS".to_string());
            }
        }
        if let Some(res) = d.newton_residual {
            if !res.is_finite() || res >= c.residual_diverged {
                return (
                    HealthStatus::Diverged,
                    format!(
                        "newton residual {res:.3e} at or beyond the convergence bound {:.3e}",
                        c.residual_diverged
                    ),
                );
            }
        }
        if let Some(cond) = d.cond_s {
            if !cond.is_finite() || cond >= c.cond_diverged {
                return (
                    HealthStatus::Diverged,
                    format!("cond(S) {cond:.3e} beyond {:.3e}", c.cond_diverged),
                );
            }
        }
        let bound = self.nis_mean_upper_bound();
        // One window sum per step: the same mean feeds both the diverged
        // and the degraded comparison below.
        let window_mean = self.window_mean_nis();
        if let Some(mean) = window_mean {
            if mean > bound * c.nis_diverged_factor {
                return (
                    HealthStatus::Diverged,
                    format!(
                        "window-mean NIS {mean:.3e} beyond {:.1}x chi-square bound {bound:.3e}",
                        c.nis_diverged_factor
                    ),
                );
            }
        }

        if let Some(res) = d.newton_residual {
            if res >= c.residual_degraded {
                return (
                    HealthStatus::Degraded,
                    format!(
                        "newton residual {res:.3e} above {:.3e}",
                        c.residual_degraded
                    ),
                );
            }
        }
        if let Some(cond) = d.cond_s {
            if cond >= c.cond_degraded {
                return (
                    HealthStatus::Degraded,
                    format!("cond(S) {cond:.3e} above {:.3e}", c.cond_degraded),
                );
            }
        }
        if let Some(mean) = window_mean {
            if mean > bound {
                return (
                    HealthStatus::Degraded,
                    format!("window-mean NIS {mean:.3e} above chi-square bound {bound:.3e}"),
                );
            }
        }
        if d.symmetry_drift > c.symmetry_tol {
            return (
                HealthStatus::Degraded,
                format!("covariance symmetry drift {:.3e}", d.symmetry_drift),
            );
        }
        if d.min_p_diag < -c.psd_tol * (1.0 + d.min_p_diag.abs()) {
            return (
                HealthStatus::Degraded,
                format!("negative covariance diagonal {:.3e}", d.min_p_diag),
            );
        }

        (HealthStatus::Healthy, String::new())
    }

    fn transition(&mut self, assessed: HealthStatus, reason: String) {
        // Diverged latches: a session that was ever unsafe stays flagged.
        if self.status == HealthStatus::Diverged {
            return;
        }
        if assessed == self.status {
            return;
        }
        match assessed {
            HealthStatus::Diverged => OBS_TO_DIVERGED.inc(),
            HealthStatus::Degraded => OBS_TO_DEGRADED.inc(),
            HealthStatus::Healthy => OBS_RECOVERED.inc(),
        }
        self.status = assessed;
        if assessed == HealthStatus::Healthy {
            self.reason.clear();
        } else {
            self.reason = reason;
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One recorded step in a [`FlightRecorder`] ring.
#[derive(Debug, Clone, Copy)]
pub struct StepSnapshot {
    /// Zero-based KF iteration.
    pub iteration: usize,
    /// Inversion datapath taken.
    pub path: InversePath,
    /// Health status *after* this step was assessed.
    pub status: HealthStatus,
    /// See [`StepDiagnostics::innovation_norm`].
    pub innovation_norm: f64,
    /// See [`StepDiagnostics::nis`].
    pub nis: Option<f64>,
    /// See [`StepDiagnostics::cond_s`].
    pub cond_s: Option<f64>,
    /// See [`StepDiagnostics::newton_residual`].
    pub newton_residual: Option<f64>,
    /// See [`StepDiagnostics::min_p_diag`].
    pub min_p_diag: f64,
}

/// Fixed-capacity ring of recent [`StepSnapshot`]s for post-mortem dumps.
///
/// Recording overwrites the oldest snapshot once full — bounded memory, no
/// allocation in steady state. [`FlightRecorder::dump_json`] renders the
/// ring (oldest first) as a `kalmmind.flight_record.v1` document.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Vec<StepSnapshot>,
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// Default ring capacity: enough context to see a divergence build up
    /// without bloating per-session memory.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a recorder holding the last `capacity` steps (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            // Grows lazily toward `capacity` as steps are recorded: a
            // fleet seats 100k+ sessions, and preallocating every ring up
            // front costs ~0.5 GB before a single step runs.
            ring: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    /// Records one step.
    pub fn record(&mut self, d: &StepDiagnostics, status: HealthStatus) {
        let snap = StepSnapshot {
            iteration: d.iteration,
            path: d.path,
            status,
            innovation_norm: d.innovation_norm,
            nis: d.nis,
            cond_s: d.cond_s,
            newton_residual: d.newton_residual,
            min_p_diag: d.min_p_diag,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(snap);
        } else {
            self.ring[self.head] = snap;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Total steps recorded since creation (≥ the ring length).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Ring capacity the recorder was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuilds a recorder from snapshot state. `snapshots` is oldest
    /// first (the [`Self::snapshots`] order); storing it with `head = 0`
    /// reproduces an equivalent ring — the next `record` overwrites the
    /// oldest entry exactly as it would have in the live recorder.
    pub(crate) fn restore(capacity: usize, snapshots: Vec<StepSnapshot>, total: u64) -> Self {
        let capacity = capacity.max(1);
        let mut ring = snapshots;
        ring.truncate(capacity);
        Self {
            capacity,
            ring,
            head: 0,
            total,
        }
    }

    /// Snapshots currently in the ring, oldest first.
    pub fn snapshots(&self) -> Vec<StepSnapshot> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Renders the ring as a structured JSON flight record
    /// (`kalmmind.flight_record.v1`). `status` is the session health that
    /// triggered the dump (`"degraded"`, `"diverged"`, or `"failed"`);
    /// non-finite diagnostics serialize as `null` (JSON has no NaN).
    /// `session` is a `u64` — the full width of a bank `SessionId` — so the
    /// dump names the right session even past `u32::MAX` on 32-bit targets.
    pub fn dump_json(
        &self,
        session: u64,
        strategy: &str,
        status: &str,
        reason: &str,
        steps_total: u64,
    ) -> String {
        let mut out = String::with_capacity(256 + self.ring.len() * 160);
        out.push_str(&format!(
            "{{\"schema\":\"{}\",\"session\":{session},\"strategy\":\"{}\",\
             \"status\":\"{}\",\"reason\":\"{}\",\"steps_total\":{steps_total},\
             \"steps_recorded\":{},\"snapshots\":[",
            obs::validate::FLIGHT_RECORD_SCHEMA,
            json_escape(strategy),
            json_escape(status),
            json_escape(reason),
            self.total,
        ));
        for (i, s) in self.snapshots().iter().enumerate() {
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
                json_num(Some(s.innovation_norm)),
                json_num(s.nis),
                json_num(s.cond_s),
                json_num(s.newton_residual),
                json_num(Some(s.min_p_diag)),
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalmmind_obs::validate::validate_flight_record;

    fn diag(nis: f64) -> StepDiagnostics {
        StepDiagnostics {
            iteration: 0,
            path: InversePath::Calc,
            innovation_norm: nis.sqrt(),
            nis: Some(nis),
            cond_s: Some(10.0),
            newton_residual: None,
            symmetry_drift: 0.0,
            min_p_diag: 0.1,
            state_finite: true,
        }
    }

    #[test]
    fn wilson_hilferty_matches_known_quantiles() {
        // chi-square 0.995 quantiles (z = 2.5758): nu=10 -> 25.19,
        // nu=100 -> 140.17 (tables). The approximation is within ~1 %.
        let q10 = chi_square_quantile(10.0, 2.5758);
        assert!((q10 - 25.19).abs() / 25.19 < 0.02, "q10 = {q10}");
        let q100 = chi_square_quantile(100.0, 2.5758);
        assert!((q100 - 140.17).abs() / 140.17 < 0.01, "q100 = {q100}");
    }

    #[test]
    fn consistent_nis_stays_healthy() {
        let mut mon = HealthMonitor::new(3);
        // E[NIS] = dof = 3 for a consistent filter.
        for i in 0..200 {
            let nis = 3.0 + ((i * 7) % 5) as f64 * 0.3 - 0.6;
            assert_eq!(mon.observe(&diag(nis)), HealthStatus::Healthy);
        }
        assert!(mon.reason().is_empty());
    }

    #[test]
    fn inflated_nis_degrades_then_diverges() {
        let mut mon = HealthMonitor::new(3);
        for _ in 0..mon.config().window {
            mon.observe(&diag(3.0));
        }
        assert_eq!(mon.status(), HealthStatus::Healthy);
        let bound = mon.nis_mean_upper_bound();

        // Push the window mean just above the bound -> Degraded.
        for _ in 0..mon.config().window {
            mon.observe(&diag(bound * 1.5));
        }
        assert_eq!(mon.status(), HealthStatus::Degraded);
        assert!(mon.reason().contains("NIS"));

        // Far above -> Diverged, and it latches.
        for _ in 0..mon.config().window {
            mon.observe(&diag(bound * 100.0));
        }
        assert_eq!(mon.status(), HealthStatus::Diverged);
        for _ in 0..mon.config().window * 2 {
            mon.observe(&diag(3.0));
        }
        assert_eq!(mon.status(), HealthStatus::Diverged, "Diverged must latch");

        mon.reset();
        assert_eq!(mon.status(), HealthStatus::Healthy);
    }

    #[test]
    fn degraded_recovers_when_diagnostics_return_in_bounds() {
        let mut mon = HealthMonitor::new(3);
        let mut d = diag(3.0);
        d.newton_residual = Some(0.7); // above degraded (0.5), below diverged (1.0)
        assert_eq!(mon.observe(&d), HealthStatus::Degraded);
        assert_eq!(mon.observe(&diag(3.0)), HealthStatus::Healthy);
    }

    #[test]
    fn newton_residual_past_basin_diverges() {
        let mut mon = HealthMonitor::new(3);
        let mut d = diag(3.0);
        d.path = InversePath::Approx;
        d.newton_residual = Some(1.5);
        assert_eq!(mon.observe(&d), HealthStatus::Diverged);
        assert!(mon.reason().contains("newton residual"));
    }

    #[test]
    fn non_finite_state_diverges_immediately() {
        let mut mon = HealthMonitor::new(3);
        let mut d = diag(3.0);
        d.state_finite = false;
        assert_eq!(mon.observe(&d), HealthStatus::Diverged);
    }

    #[test]
    fn ill_conditioned_s_degrades() {
        let mut mon = HealthMonitor::new(3);
        let mut d = diag(3.0);
        d.cond_s = Some(1e9);
        assert_eq!(mon.observe(&d), HealthStatus::Degraded);
        assert!(mon.reason().contains("cond"));
    }

    #[test]
    fn flight_recorder_ring_overwrites_oldest() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10 {
            let mut d = diag(3.0);
            d.iteration = i;
            rec.record(&d, HealthStatus::Healthy);
        }
        let snaps = rec.snapshots();
        assert_eq!(snaps.len(), 4);
        assert_eq!(
            snaps.iter().map(|s| s.iteration).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(rec.total_recorded(), 10);
    }

    #[test]
    fn flight_dump_round_trips_the_validator() {
        let mut rec = FlightRecorder::new(8);
        for i in 0..12 {
            let mut d = diag(3.0 + i as f64);
            d.iteration = i;
            if i > 8 {
                d.nis = Some(f64::NAN); // must serialize as null, not NaN
            }
            rec.record(
                &d,
                if i > 8 {
                    HealthStatus::Diverged
                } else {
                    HealthStatus::Healthy
                },
            );
        }
        let json = rec.dump_json(2, "gauss/newton", "diverged", "it \"broke\"\n badly", 12);
        let summary = validate_flight_record(&json).expect("dump must validate");
        assert_eq!(summary.session, 2);
        assert_eq!(summary.status, "diverged");
        assert_eq!(summary.snapshots, 8);
    }

    #[test]
    fn flight_dump_keeps_session_labels_above_u32_max() {
        // The bank's SessionId is a u64; a dump must round-trip the full
        // width instead of truncating through a 32-bit usize.
        let mut rec = FlightRecorder::new(4);
        let mut d = diag(3.0);
        d.iteration = 1;
        rec.record(&d, HealthStatus::Diverged);
        let big = u64::from(u32::MAX) + 7;
        let json = rec.dump_json(big, "gauss/newton", "failed", "label width", 1);
        assert!(json.contains(&format!("\"session\":{big}")), "{json}");
        let summary = validate_flight_record(&json).expect("dump must validate");
        assert_eq!(summary.session, big);
    }
}
