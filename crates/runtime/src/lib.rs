//! Batched multi-session Kalman-filter execution over erased backends.
//!
//! A deployed BCI decoder stack rarely runs a single filter — and rarely
//! runs *identical* filters: the paper's accelerator serves differently
//! configured sessions from one fabric, with datatype and gain schedule as
//! per-design knobs. [`FilterBank`] packages that pattern: it owns N
//! independent sessions erased behind
//! [`SessionBackend`] — `f64`/`f32` software
//! filters, `Q16.16`/`Q32.32` fixed-point filters, and cycle/energy
//! accounted accelerator-model sessions from `kalmmind-accel` side by side —
//! and steps them over measurement batches on a persistent [`WorkerPool`].
//!
//! Sessions have a **lifecycle**: [`FilterBank::insert`] returns a stable
//! [`SessionId`] that keeps identifying the session across
//! [`FilterBank::remove`]s of its neighbors, measurements are routed per
//! session via [`FilterBank::step_batch`] (no lockstep positional slices),
//! and an [`EvictionPolicy`] can automatically remove diverged sessions,
//! leaving an [`EvictedSession`] record behind.
//!
//! The pool is the scaling substrate: workers are spawned once (at pool
//! construction), so steady-state [`FilterBank::step_batch`] and
//! [`FilterBank::run`] spawn **zero** OS threads, and sessions are claimed
//! dynamically one at a time, so one slow session delays only itself rather
//! than a static chunk.
//!
//! Error isolation is the load-bearing guarantee: one session hitting a
//! singular `S`, diverging to a non-finite state, or even *panicking* is
//! marked [`SessionStatus::Failed`] and parked, while every other session
//! keeps stepping. A batch is never poisoned by its worst member.
//!
//! # Example
//!
//! ```
//! use kalmmind::{KalmanFilter, KalmanModel, KalmanState};
//! use kalmmind_linalg::Matrix;
//! use kalmmind_runtime::FilterBank;
//!
//! # fn main() -> Result<(), kalmmind::KalmanError> {
//! let model = KalmanModel::new(
//!     Matrix::<f64>::identity(1),
//!     Matrix::identity(1).scale(1e-4),
//!     Matrix::identity(1),
//!     Matrix::identity(1).scale(0.5),
//! )?;
//! let mut bank = FilterBank::new();
//! let ids: Vec<_> = (0..4)
//!     .map(|_| bank.insert_filter(KalmanFilter::gauss(model.clone(), KalmanState::zeroed(1))))
//!     .collect();
//! let batch: Vec<(_, &[f64])> = ids.iter().map(|&id| (id, [1.0].as_slice())).collect();
//! let report = bank.step_batch(&batch)?;
//! assert_eq!(bank.active_count(), 4);
//! assert_eq!(report.steps, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod server;

pub mod net;

mod fleet;
mod ingest;
mod store;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kalmmind::gain::GainStrategy;
use kalmmind::health::HealthStatus;
use kalmmind::session::NON_FINITE_REASON;
use kalmmind::snapshot::SessionSnapshot;
use kalmmind::{
    FilterSession, KalmanError, KalmanFilter, KalmanState, SessionBackend, SessionTelemetry,
    StepOutcome,
};
use kalmmind_exec::WorkerPool;
use kalmmind_linalg::Scalar;
use kalmmind_obs as obs;

mod tape;

pub use fleet::{BatchOutcome, BatchTicket, EntryStatus, Fleet, FleetConfig, ShardSummary};
pub use ingest::{IngestClient, IngestError, IngestServer, MAX_FRAME_BYTES};
pub use server::{MetricsServer, SessionHealthSnapshot};
pub use store::StoreCensus;
pub use tape::MeasurementTape;

use store::{Handle, SessionStore, SlotMeta};

// Bank-level observability (no-ops unless `obs` is enabled).
static OBS_BATCHES: obs::LazyCounter = obs::LazyCounter::new(
    "bank_batches_total",
    "FilterBank batch dispatches (step_batch or run calls)",
);
static OBS_BATCH_SECONDS: obs::LazyHistogram = obs::LazyHistogram::new(
    "bank_batch_seconds",
    "Wall time of one FilterBank batch dispatch",
    obs::LATENCY_SECONDS_BUCKETS,
);
static OBS_BANK_STEPS: obs::LazyCounter = obs::LazyCounter::new(
    "bank_steps_total",
    "Successful session steps executed across all FilterBank batches",
);
static OBS_FAIL_DIVERGED: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_session_failures_total",
    "Session transitions to the Failed state, by cause",
    "cause",
    "diverged",
);
static OBS_FAIL_ERROR: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_session_failures_total",
    "Session transitions to the Failed state, by cause",
    "cause",
    "error",
);
static OBS_FAIL_PANIC: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_session_failures_total",
    "Session transitions to the Failed state, by cause",
    "cause",
    "panic",
);
static OBS_EVICTED: obs::LazyCounter = obs::LazyCounter::new(
    "bank_sessions_evicted_total",
    "Sessions removed by the evict-on-diverge policy",
);
// Per-backend / per-scalar step counters. The registry supports one static
// label pair per handle, so the known backend and scalar labels each get a
// dedicated counter; unknown scalar names (a custom Scalar impl) are simply
// not broken out.
static OBS_STEPS_SOFTWARE: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_backend_steps_total",
    "Successful steps by executing backend",
    "backend",
    "software",
);
static OBS_STEPS_ACCEL: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_backend_steps_total",
    "Successful steps by executing backend",
    "backend",
    "accel-sim",
);
static OBS_STEPS_MONO: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_backend_steps_total",
    "Successful steps by executing backend",
    "backend",
    "software-mono",
);
static OBS_STEPS_F64: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_scalar_steps_total",
    "Successful steps by session element type",
    "scalar",
    "f64",
);
static OBS_STEPS_F32: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_scalar_steps_total",
    "Successful steps by session element type",
    "scalar",
    "f32",
);
static OBS_STEPS_Q16: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_scalar_steps_total",
    "Successful steps by session element type",
    "scalar",
    "q16.16",
);
static OBS_STEPS_Q32: obs::LazyCounter = obs::LazyCounter::labeled(
    "bank_scalar_steps_total",
    "Successful steps by session element type",
    "scalar",
    "q32.32",
);

fn note_step_labels(backend: &'static str, scalar: &'static str) {
    match backend {
        "accel-sim" => OBS_STEPS_ACCEL.inc(),
        "software-mono" => OBS_STEPS_MONO.inc(),
        _ => OBS_STEPS_SOFTWARE.inc(),
    }
    match scalar {
        "f64" => OBS_STEPS_F64.inc(),
        "f32" => OBS_STEPS_F32.inc(),
        "q16.16" => OBS_STEPS_Q16.inc(),
        "q32.32" => OBS_STEPS_Q32.inc(),
        _ => {}
    }
}

/// Stable identifier of one session inside a [`FilterBank`].
///
/// Issued by [`FilterBank::insert`] and never reused by that bank: removing
/// or evicting other sessions does not invalidate it, and a lookup with the
/// id of a removed session cleanly reports absence instead of silently
/// addressing a neighbor (the failure mode of positional indexing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id (as stamped into flight dumps and `/healthz`).
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Lifecycle of one session inside a [`FilterBank`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session is healthy and will be stepped by the next batch call.
    Active,
    /// The session failed and is parked; its state is frozen as of the
    /// failing step (for a divergence failure that state is non-finite —
    /// the `iteration` field records the last healthy step count).
    Failed {
        /// Zero-based KF iteration at which the failure occurred.
        iteration: usize,
        /// Human-readable failure cause (error display, divergence note, or
        /// `panicked: …` for a caught panic).
        reason: String,
    },
}

impl SessionStatus {
    /// `true` for [`SessionStatus::Active`].
    pub fn is_active(&self) -> bool {
        matches!(self, Self::Active)
    }
}

/// What to do with sessions the health layer has condemned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Keep diverged/failed sessions in the bank, parked (the default —
    /// post-mortem accessors stay addressable).
    #[default]
    Keep,
    /// After each batch, remove every session that is parked Failed or
    /// whose health monitor has latched Diverged, recording an
    /// [`EvictedSession`] (reason + final flight dump) in
    /// [`FilterBank::evictions`]. This is the supervisor loop a deployed
    /// bank wants: a condemned session stops consuming pool slots at once.
    EvictOnDiverge,
}

/// Post-mortem record of a session removed by
/// [`EvictionPolicy::EvictOnDiverge`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedSession {
    /// The evicted session's stable id.
    pub id: SessionId,
    /// Why it was condemned (status reason or health-monitor reason).
    pub reason: String,
    /// Its last flight-recorder dump, if one was emitted.
    pub flight_record: Option<String>,
    /// Final `kalmmind.session_snapshot.v1` document captured at eviction —
    /// the full post-mortem (and the resurrection path: feed it back through
    /// [`FilterBank::restore_session`]). `None` when the backend does not
    /// support snapshots (non-interleaved gain strategies).
    pub snapshot: Option<String>,
}

/// A function that rebuilds a boxed session from a parsed snapshot, keyed by
/// the snapshot's `backend` label. Registered with
/// [`FilterBank::register_restorer`] for backends the core crate cannot
/// restore itself (e.g. `kalmmind-accel`'s `"accel-sim"`).
pub type SessionRestorer =
    Box<dyn Fn(&SessionSnapshot) -> Result<Box<dyn SessionBackend>, KalmanError> + Send + Sync>;

/// Steps one seated session once, demoting it to `Failed` on any error or
/// on a non-finite state. The backend feeds its own health monitor and
/// dumps its own flight recorder; the slot meta only keeps status
/// bookkeeping and bank-level counters. A failed session is left untouched.
fn step_slot(meta: &mut SlotMeta, backend: &mut dyn SessionBackend, z: &[f64]) {
    if !meta.status.is_active() {
        return;
    }
    let iteration = backend.iteration();
    match backend.step(z) {
        Ok(StepOutcome::Ok) => {
            meta.steps_ok += 1;
            note_step_labels(backend.backend_name(), backend.scalar_name());
        }
        Ok(StepOutcome::NonFinite) => {
            OBS_FAIL_DIVERGED.inc();
            meta.status = SessionStatus::Failed {
                iteration,
                reason: NON_FINITE_REASON.to_string(),
            };
        }
        Err(err) => {
            OBS_FAIL_ERROR.inc();
            meta.status = SessionStatus::Failed {
                iteration,
                reason: err.to_string(),
            };
        }
    }
}

/// Snapshot for the `/healthz` board: a Failed session reports `failed`,
/// otherwise the backend monitor's current status.
fn slot_health_snapshot(meta: &SlotMeta, backend: &dyn SessionBackend) -> SessionHealthSnapshot {
    let health = backend.health();
    let (status, reason) = match &meta.status {
        SessionStatus::Failed { reason, .. } => ("failed".to_string(), reason.clone()),
        SessionStatus::Active => (
            health.status().as_str().to_string(),
            health.reason().to_string(),
        ),
    };
    SessionHealthSnapshot {
        id: meta.id,
        status,
        backend: backend.backend_name().to_string(),
        scalar: backend.scalar_name().to_string(),
        strategy: backend.strategy_name().to_string(),
        steps_ok: meta.steps_ok,
        reason,
    }
}

/// `true` when the session should be removed under
/// [`EvictionPolicy::EvictOnDiverge`].
fn slot_condemned(meta: &SlotMeta, backend: &dyn SessionBackend) -> bool {
    !meta.status.is_active() || backend.health().status() == HealthStatus::Diverged
}

/// Marks a panicking session Failed after the dispatch (panics are caught
/// per item by the pool and reported, never propagated).
fn park_panicked(meta: &mut SlotMeta, backend: &mut dyn SessionBackend, message: &str) {
    if meta.status.is_active() {
        OBS_FAIL_PANIC.inc();
        let reason = format!("panicked: {message}");
        let strategy = backend.strategy_name();
        let steps_total = backend.iteration() as u64;
        backend.health_mut().fail(&reason, strategy, steps_total);
        meta.status = SessionStatus::Failed {
            iteration: backend.iteration(),
            reason,
        };
    }
}

/// How the pool executed one [`FilterBank`] batch.
///
/// `spawned_threads` is the pool's lifetime spawn count: it is fixed at
/// pool construction, so comparing it across batches demonstrates the
/// zero-spawn steady state. `worker_sessions`/`inline_sessions` split the
/// batch's sessions by where they ran (pool workers vs the calling thread),
/// the utilization signal for sizing `KALMMIND_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolUtilization {
    /// Parallelism degree of the pool (spawned workers + calling thread).
    pub threads: usize,
    /// Long-lived workers the pool spawned at construction (constant).
    pub spawned_threads: usize,
    /// Sessions of this batch executed on pool worker threads.
    pub worker_sessions: u64,
    /// Sessions of this batch executed inline on the calling thread.
    pub inline_sessions: u64,
}

/// Aggregate outcome of a [`FilterBank::step_batch`] or [`FilterBank::run`]
/// batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BankReport {
    /// Number of sessions in the bank when the batch ran.
    pub sessions: usize,
    /// Sessions still active (and still in the bank) after the batch.
    pub active_sessions: usize,
    /// Sessions in the failed state after the batch (evicted ones are in
    /// `evicted` instead).
    pub failed_sessions: usize,
    /// Successful steps executed across all sessions during this batch.
    pub steps: usize,
    /// Wall-clock duration of this batch (one `step_batch` call or one
    /// whole `run`).
    pub elapsed: Duration,
    /// Sessions removed by [`EvictionPolicy::EvictOnDiverge`] at the end of
    /// this batch (full records in [`FilterBank::evictions`]).
    pub evicted: Vec<SessionId>,
    /// Pool-side execution counters for this batch.
    pub pool: PoolUtilization,
}

impl BankReport {
    /// Aggregate throughput in successful steps per second across the bank.
    ///
    /// This is the multi-session scaling figure of merit: on a machine with
    /// `c` cores it should grow near-linearly with the session count up to
    /// `c`, and stay flat (not degrade) beyond. A zero-duration batch (a
    /// timer too coarse to resolve an empty or trivial dispatch) reports
    /// `0.0`, never infinity.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }
}

/// N independent, heterogeneous Kalman-filter sessions stepped together on
/// a persistent worker pool, with stable ids, a session lifecycle, and
/// per-session error isolation.
///
/// Every session is a boxed [`SessionBackend`], so one bank can mix element
/// types and executing backends freely — the measurement boundary is always
/// `f64` slices:
///
/// ```
/// use kalmmind::{FilterSession, KalmanFilter, KalmanModel, KalmanState};
/// use kalmmind_fixed::Q16_16;
/// use kalmmind_linalg::Matrix;
/// use kalmmind_runtime::FilterBank;
///
/// # fn main() -> Result<(), kalmmind::KalmanError> {
/// let model = KalmanModel::new(
///     Matrix::<f64>::identity(1),
///     Matrix::identity(1).scale(1e-4),
///     Matrix::identity(1),
///     Matrix::identity(1).scale(0.5),
/// )?;
/// let mut bank = FilterBank::new();
/// // An f64 session and a Q16.16 session of the same model, side by side.
/// let a = bank.insert_filter(KalmanFilter::gauss(model.clone(), KalmanState::zeroed(1)));
/// let b = bank.insert_filter(KalmanFilter::gauss(
///     model.cast::<Q16_16>(),
///     KalmanState::zeroed(1),
/// ));
/// bank.step_batch(&[(a, [1.0].as_slice()), (b, [1.0].as_slice())])?;
/// assert_eq!(bank.scalar_name(a), Some("f64"));
/// assert_eq!(bank.scalar_name(b), Some("q16.16"));
/// # Ok(())
/// # }
/// ```
///
/// The indirection cost is one virtual call per session step — negligible
/// next to the matrix work behind it (the homogeneous-`f64` path is proved
/// bit-identical to the concrete filter in this crate's golden-bit tests).
///
/// **Storage.** Sessions live in a generational-slab session store:
/// monomorphized `f64` sessions are stored *inline* in typed arena pools
/// (one per [`kalmmind::small::MONO_SHAPES`] shape, stepping through
/// per-thread shared scratch buffers), every other backend stays boxed in
/// an overflow pool, and ids resolve through an O(1) paged direct-map
/// index — no side `HashMap`, no index rebuild on removal. See
/// [`FilterBank::store_census`] for where the current population sits.
pub struct FilterBank {
    store: SessionStore,
    next_id: u64,
    pool: Arc<WorkerPool>,
    policy: EvictionPolicy,
    evicted: Vec<EvictedSession>,
    /// Routing epoch: pre-incremented per routed batch; a slot whose mark
    /// equals the current epoch is already claimed by this batch
    /// (duplicate detection without a per-batch set).
    epoch: u64,
    /// Reused routing work list (handles in batch order) — persistent so
    /// steady-state `step_batch` allocates nothing.
    route_buf: Vec<Handle>,
    /// Health board shared with a running [`MetricsServer`], if
    /// [`FilterBank::serve_on`] was called. Republished after every batch.
    board: Option<Arc<server::HealthBoard>>,
    /// Snapshot restorers for backends core cannot rebuild, by backend label.
    restorers: HashMap<String, SessionRestorer>,
    /// Measurement tape recording routed batches while armed.
    tape: Option<MeasurementTape>,
}

impl fmt::Debug for FilterBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterBank")
            .field("store", &self.store)
            .field("next_id", &self.next_id)
            .field("policy", &self.policy)
            .field("evicted", &self.evicted.len())
            .field("restorers", &self.restorers.keys().collect::<Vec<_>>())
            .field("taping", &self.tape.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for FilterBank {
    fn default() -> Self {
        Self::new()
    }
}

impl FilterBank {
    /// Creates an empty bank on the process-wide [`WorkerPool::global`]
    /// pool (sized by `KALMMIND_THREADS`, falling back to
    /// `available_parallelism`).
    pub fn new() -> Self {
        Self::with_pool(Arc::clone(WorkerPool::global()))
    }

    /// Creates an empty bank on an explicit pool handle. Use this to size
    /// the pool privately or to share one pool across several banks without
    /// touching the global instance.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            store: SessionStore::new(),
            next_id: 0,
            pool,
            policy: EvictionPolicy::Keep,
            evicted: Vec::new(),
            epoch: 0,
            route_buf: Vec::new(),
            board: None,
            restorers: HashMap::new(),
            tape: None,
        }
    }

    /// The pool this bank dispatches batches onto.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Sets what happens to diverged/failed sessions after each batch.
    pub fn set_eviction_policy(&mut self, policy: EvictionPolicy) {
        self.policy = policy;
    }

    /// The current eviction policy.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Inserts an erased session, returning its stable id. The bank labels
    /// the session's flight dumps with that id. Monomorphized `f64`
    /// sessions are seated inline in their typed pool; everything else
    /// stays boxed in the overflow pool.
    pub fn insert(&mut self, mut backend: Box<dyn SessionBackend>) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        backend.health_mut().set_label(id.0);
        self.store.seat(id.0, backend);
        id
    }

    /// Inserts an erased session under a caller-chosen stable id.
    ///
    /// This is how a [`Fleet`] keeps ids globally unique across shards:
    /// the fleet allocates from one id sequence and seats each session in
    /// its shard's bank under that id, so a session can later migrate
    /// between banks without collision. The bank's own id sequence is
    /// advanced past `id`, preserving never-reuse for plain
    /// [`FilterBank::insert`] calls on the same bank.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadSession`] when the bank already holds `id`.
    pub fn insert_with_id(
        &mut self,
        id: u64,
        mut backend: Box<dyn SessionBackend>,
    ) -> Result<SessionId, KalmanError> {
        if self.store.lookup(id).is_some() {
            return Err(KalmanError::BadSession {
                id,
                reason: "id is already present in the bank",
            });
        }
        self.next_id = self.next_id.max(id.saturating_add(1));
        backend.health_mut().set_label(id);
        self.store.seat(id, backend);
        Ok(SessionId(id))
    }

    /// Convenience: wraps `filter` in a session backend and inserts it.
    ///
    /// A fresh filter with an interleaved gain schedule on one of the known
    /// model shapes (see [`kalmmind::small::MONO_SHAPES`]) is routed onto
    /// the monomorphized `"software-mono"` backend — bit-identical for `f64`
    /// but compiled on const-generic dimensions. Everything else runs as an
    /// erased [`FilterSession`] (`"software"`). Use [`FilterBank::insert`]
    /// directly to force a specific backend.
    pub fn insert_filter<T: Scalar, G: GainStrategy<T> + 'static>(
        &mut self,
        filter: KalmanFilter<T, G>,
    ) -> SessionId {
        match kalmmind::small::try_small_session(filter) {
            Ok(backend) => self.insert(backend),
            Err(filter) => self.insert(Box::new(FilterSession::new(filter))),
        }
    }

    /// Removes the session `id`, returning its backend (with final state,
    /// health, and telemetry intact — an inline mono session is re-boxed
    /// on the way out). `None` if the bank does not hold `id`. Other
    /// sessions keep their ids; the vacated slot is recycled with a new
    /// generation, so nothing is moved and no index is rebuilt.
    pub fn remove(&mut self, id: SessionId) -> Option<Box<dyn SessionBackend>> {
        self.store.remove(id.0)
    }

    /// Removes every session, returning `(id, backend)` pairs in pool-scan
    /// order (typed pools first, then overflow, each in slot order).
    pub fn drain(&mut self) -> Vec<(SessionId, Box<dyn SessionBackend>)> {
        self.store
            .drain()
            .into_iter()
            .map(|(id, backend)| (SessionId(id), backend))
            .collect()
    }

    /// Ids of all sessions currently in the bank, in ascending id order.
    pub fn ids(&self) -> Vec<SessionId> {
        let mut ids = Vec::with_capacity(self.store.len());
        self.store.for_each(|meta, _| ids.push(SessionId(meta.id)));
        ids.sort_unstable();
        ids
    }

    /// `true` while the bank holds session `id`.
    pub fn contains(&self, id: SessionId) -> bool {
        self.store.lookup(id.0).is_some()
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when the bank has no sessions.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Number of sessions still active (O(1): the store keeps the count
    /// of failed sessions).
    pub fn active_count(&self) -> usize {
        self.store.len() - self.store.failed()
    }

    /// Where the bank's sessions are stored, by pool: inline typed mono
    /// arenas vs the boxed overflow pool. Benches and CI assert through
    /// this that homogeneous mono fleets actually take the inline path.
    pub fn store_census(&self) -> StoreCensus {
        self.store.census()
    }

    fn seat_ref(&self, id: SessionId) -> Option<(&SlotMeta, &dyn SessionBackend)> {
        let handle = self.store.lookup(id.0)?;
        let meta = self.store.meta(handle)?;
        let backend = self.store.backend(handle)?;
        Some((meta, backend))
    }

    /// Erased view of session `id`'s backend (state, dims, telemetry, …).
    pub fn backend(&self, id: SessionId) -> Option<&dyn SessionBackend> {
        let handle = self.store.lookup(id.0)?;
        self.store.backend(handle)
    }

    /// Status of session `id`, or `None` if the bank does not hold it.
    pub fn status(&self, id: SessionId) -> Option<&SessionStatus> {
        self.seat_ref(id).map(|(meta, _)| &meta.status)
    }

    /// Current state of session `id`, cast to `f64` at the boundary
    /// (bit-exact for `f64` sessions; frozen as of the failing step for a
    /// failed session).
    pub fn state(&self, id: SessionId) -> Option<KalmanState<f64>> {
        self.seat_ref(id).map(|(_, backend)| backend.state())
    }

    /// Successful step count of session `id`.
    pub fn steps_ok(&self, id: SessionId) -> Option<usize> {
        self.seat_ref(id).map(|(meta, _)| meta.steps_ok)
    }

    /// Numerical-health status of session `id` as assessed by its backend's
    /// [`HealthMonitor`](kalmmind::health::HealthMonitor). Always
    /// [`HealthStatus::Healthy`] when the `obs` feature is disabled (the
    /// monitor is never fed).
    pub fn health(&self, id: SessionId) -> Option<HealthStatus> {
        self.seat_ref(id)
            .map(|(_, backend)| backend.health().status())
    }

    /// Human-readable reason for session `id`'s current non-healthy status
    /// (empty while healthy).
    pub fn health_reason(&self, id: SessionId) -> Option<&str> {
        self.seat_ref(id)
            .map(|(_, backend)| backend.health().reason())
    }

    /// The most recent flight-recorder JSON dump for session `id`, emitted
    /// when it transitioned to Degraded, Diverged, or Failed. `None` while
    /// the session has stayed healthy (and always `None` without `obs`) —
    /// and `None` when the bank does not hold `id`.
    pub fn flight_record(&self, id: SessionId) -> Option<&str> {
        self.seat_ref(id)
            .and_then(|(_, backend)| backend.health().flight_record())
    }

    /// The backend label of session `id` (`"software"`, `"software-mono"`,
    /// `"accel-sim"`).
    pub fn backend_name(&self, id: SessionId) -> Option<&'static str> {
        self.seat_ref(id).map(|(_, backend)| backend.backend_name())
    }

    /// The element-type label of session `id` (`"f64"`, `"q16.16"`, …).
    pub fn scalar_name(&self, id: SessionId) -> Option<&'static str> {
        self.seat_ref(id).map(|(_, backend)| backend.scalar_name())
    }

    /// Modeled cost totals of session `id` (all zero for software
    /// sessions).
    pub fn telemetry(&self, id: SessionId) -> Option<SessionTelemetry> {
        self.seat_ref(id).map(|(_, backend)| backend.telemetry())
    }

    /// Records of sessions removed by [`EvictionPolicy::EvictOnDiverge`]
    /// since the last [`FilterBank::take_evictions`].
    pub fn evictions(&self) -> &[EvictedSession] {
        &self.evicted
    }

    /// Drains and returns the accumulated eviction records.
    pub fn take_evictions(&mut self) -> Vec<EvictedSession> {
        std::mem::take(&mut self.evicted)
    }

    /// Captures session `id` as a versioned `kalmmind.session_snapshot.v1`
    /// JSON document, `label`ed with the session's stable id so
    /// [`FilterBank::restore_session`] can re-seat it under the same id.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadSession`] when the bank does not hold `id`;
    /// [`KalmanError::BadSnapshot`] when the backend does not support
    /// snapshots (non-interleaved gain strategies).
    pub fn snapshot_session(&self, id: SessionId) -> Result<String, KalmanError> {
        let (_, backend) = self.seat_ref(id).ok_or(KalmanError::BadSession {
            id: id.0,
            reason: "unknown session id",
        })?;
        backend.snapshot()
    }

    /// Captures every session, in ascending id order. Sessions whose backend
    /// cannot snapshot carry the error instead of a document, so a fleet
    /// checkpoint reports exactly which sessions were left behind.
    pub fn snapshot_all(&self) -> Vec<(SessionId, Result<String, KalmanError>)> {
        let mut all = Vec::with_capacity(self.store.len());
        self.store
            .for_each(|meta, backend| all.push((SessionId(meta.id), backend.snapshot())));
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }

    /// Registers a restorer for snapshots whose `backend` label the core
    /// crate cannot rebuild (e.g.
    /// `kalmmind_accel::session::restore_accel_session` for `"accel-sim"`).
    /// A registered restorer takes precedence over the built-in dispatch for
    /// its label.
    pub fn register_restorer(
        &mut self,
        backend: impl Into<String>,
        restorer: impl Fn(&SessionSnapshot) -> Result<Box<dyn SessionBackend>, KalmanError>
            + Send
            + Sync
            + 'static,
    ) {
        self.restorers.insert(backend.into(), Box::new(restorer));
    }

    /// Restores a snapshot into this bank **under its original stable id**
    /// (the document's `label`), so measurement routing — including a
    /// recorded [`MeasurementTape`] — keeps addressing it after a
    /// remove→restore migration. The id sequence is advanced past the
    /// restored id, preserving the bank's never-reuse guarantee for future
    /// inserts.
    ///
    /// Dispatch order: a restorer registered for the document's backend
    /// label wins; otherwise the built-in
    /// [`kalmmind::snapshot::restore_snapshot`] handles the `"software"`
    /// and `"software-mono"` backends.
    ///
    /// # Errors
    ///
    /// [`KalmanError::BadSession`] when the bank already holds a session
    /// with the snapshot's id; [`KalmanError::BadSnapshot`] for malformed
    /// documents or backends nobody can restore.
    pub fn restore_session(&mut self, json: &str) -> Result<SessionId, KalmanError> {
        let snap = SessionSnapshot::from_json(json)?;
        if self.store.lookup(snap.label).is_some() {
            return Err(KalmanError::BadSession {
                id: snap.label,
                reason: "snapshot id is already present in the bank",
            });
        }
        let mut backend = match self.restorers.get(snap.backend.as_str()) {
            Some(restorer) => restorer(&snap)?,
            None => kalmmind::snapshot::restore_snapshot(&snap)?,
        };
        let id = SessionId(snap.label);
        backend.health_mut().set_label(id.0);
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        let steps_ok = backend.iteration();
        let handle = self.store.seat(id.0, backend);
        if let Some(meta) = self.store.meta_mut(handle) {
            meta.steps_ok = steps_ok;
        }
        Ok(id)
    }

    /// Starts recording every routed measurement batch to a fresh
    /// [`MeasurementTape`] (any tape already recording is discarded). The
    /// tape plus a [`FilterBank::snapshot_all`] checkpoint is a complete
    /// replayable history: restore the snapshots into a fresh bank and
    /// [`MeasurementTape::replay_into`] it to reproduce the live states to
    /// the bit.
    pub fn start_tape(&mut self) {
        self.tape = Some(MeasurementTape::new());
    }

    /// Stops recording and returns the tape (`None` when
    /// [`FilterBank::start_tape`] was never called).
    pub fn take_tape(&mut self) -> Option<MeasurementTape> {
        self.tape.take()
    }

    /// `true` when any session is health-Diverged or parked as Failed —
    /// the same predicate `/healthz` uses to answer 503.
    pub fn any_diverged(&self) -> bool {
        let mut any = false;
        self.store.for_each(|meta, backend| {
            any = any || slot_condemned(meta, backend);
        });
        any
    }

    /// Starts a metrics/health HTTP endpoint on `addr` (use port `0` for an
    /// ephemeral port; read the bound address from
    /// [`MetricsServer::addr`]). The server runs on one dedicated
    /// [`kalmmind_exec::spawn_service`] thread and serves:
    ///
    /// * `GET /metrics` — Prometheus text exposition of the process-wide
    ///   registry (including the per-backend and per-scalar bank step
    ///   counters),
    /// * `GET /metrics.json` — the same registry as JSON,
    /// * `GET /sessions` — the session inventory as JSON: stable id,
    ///   backend, scalar, gain strategy, and current health state,
    /// * `GET /healthz` — per-session health keyed by stable [`SessionId`],
    ///   with backend and scalar labels; `503` while any session is
    ///   diverged or failed, and the body's `diverged` array names the
    ///   offending ids.
    ///
    /// The bank republishes session health to the endpoint after every
    /// [`FilterBank::step_batch`] / [`FilterBank::run`] batch. Dropping the
    /// returned server stops the thread and releases the port.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from binding the listener.
    pub fn serve_on(
        &mut self,
        addr: impl std::net::ToSocketAddrs + Clone,
    ) -> std::io::Result<MetricsServer> {
        let board = Arc::new(server::HealthBoard::default());
        self.board = Some(Arc::clone(&board));
        self.publish_health();
        server::serve(addr, board)
    }

    /// Pushes the current per-session health snapshots to the board read by
    /// the serving thread, if one is attached.
    fn publish_health(&self) {
        if let Some(board) = &self.board {
            let mut snapshots = Vec::with_capacity(self.store.len());
            self.store
                .for_each(|meta, backend| snapshots.push(slot_health_snapshot(meta, backend)));
            board.publish(snapshots);
        }
    }

    /// Steps each routed session once: `batch` pairs a [`SessionId`] with
    /// its measurement (one `f64` per channel). Sessions not named in the
    /// batch are not stepped; sessions that fail — or panic — are parked
    /// (or evicted, per policy), not propagated. The returned report
    /// carries the batch wall time and pool-utilization counters.
    ///
    /// Routing and dispatch reuse the bank's persistent work buffers, so a
    /// steady-state batch on a single-threaded pool allocates nothing (see
    /// the `alloc_free_bank` integration test).
    ///
    /// # Errors
    ///
    /// Returns [`KalmanError::BadSession`] when `batch` names an id the
    /// bank does not hold or routes two measurements to one session (the
    /// only whole-batch errors; per-session failures are recorded in each
    /// session's status).
    pub fn step_batch(&mut self, batch: &[(SessionId, &[f64])]) -> Result<BankReport, KalmanError> {
        self.route_sparse(batch)?;
        if let Some(tape) = &mut self.tape {
            tape.record(batch.iter().map(|(id, z)| (id.0, z.to_vec())));
        }
        Ok(self.dispatch_sparse(batch))
    }

    /// Claims the sessions named in `batch` for a fresh routing epoch,
    /// filling `route_buf` with one handle per batch position — O(batch)
    /// work independent of bank size, the hot path for a [`Fleet`] shard
    /// serving a small frame out of a bank holding tens of thousands of
    /// sessions. Duplicates are detected by the epoch mark on each slot
    /// (`mark == epoch` means "already claimed this batch"), replacing the
    /// per-call `HashSet` with a branch; unknown ids and duplicates leave
    /// stale marks behind, which the next epoch increment invalidates
    /// wholesale.
    fn route_sparse(&mut self, batch: &[(SessionId, &[f64])]) -> Result<(), KalmanError> {
        self.epoch += 1;
        self.route_buf.clear();
        self.route_buf.reserve(batch.len());
        for (k, (id, _)) in batch.iter().enumerate() {
            let handle = self.store.lookup(id.0).ok_or(KalmanError::BadSession {
                id: id.0,
                reason: "unknown session id",
            })?;
            let meta = self
                .store
                .meta_mut(handle)
                .expect("index handles are current");
            if meta.mark == self.epoch {
                return Err(KalmanError::BadSession {
                    id: id.0,
                    reason: "duplicate measurement in one batch",
                });
            }
            meta.mark = self.epoch;
            meta.arg = k as u32;
            self.route_buf.push(handle);
        }
        Ok(())
    }

    /// Steps the slots routed into `route_buf` (which is in `batch`
    /// order), so a small batch against a huge bank costs O(batch), not
    /// O(bank). The eviction-policy scan (O(bank)) runs only when a
    /// touched session became condemnable this batch; the health board,
    /// when attached, is republished unconditionally so `/healthz`
    /// freshness matches the dense path.
    fn dispatch_sparse(&mut self, batch: &[(SessionId, &[f64])]) -> BankReport {
        let sessions = self.store.len();
        let before = self.routed_tally();
        let start = Instant::now();
        let bases = self.store.pool_bases_mut();
        let route_buf = &self.route_buf;
        let scope = self.pool.for_each_index(route_buf.len(), |k| {
            let handle = route_buf[k];
            let z = batch[k].1;
            // SAFETY: routing rejected duplicate ids, so each claimed `k`
            // addresses a distinct slot; `for_each_index` blocks until
            // every index is done, and the store receives no structural
            // mutation while the dispatch is in flight.
            unsafe {
                store::with_slot_raw(&bases, handle.pool, handle.index, |meta, backend| {
                    if let Some(backend) = backend {
                        step_slot(meta, backend, z);
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        // Reuses the timing already taken for the batch histogram; with
        // sampling off (or `obs` off) this is a no-op.
        obs::trace_child(&obs::current_trace(), "bank_step", start, elapsed);
        for p in &scope.panics {
            let handle = self.route_buf[p.index];
            if let Some((meta, backend)) = self.store.slot_mut(handle) {
                park_panicked(meta, backend, &p.message);
            }
        }
        let steps = self.settle_routed(before);
        // Only a slot touched this batch can have newly become condemned —
        // parked failed *or* health-diverged, the same predicate the policy
        // scan applies (previous dispatches already evicted their own
        // casualties) — so the full O(bank) scan is skipped while everyone
        // stays healthy.
        let any_condemned = self.route_buf.iter().any(|&handle| {
            matches!(
                (self.store.meta(handle), self.store.backend(handle)),
                (Some(meta), Some(backend)) if slot_condemned(meta, backend)
            )
        });
        let evicted = if any_condemned {
            self.apply_eviction_policy()
        } else {
            Vec::new()
        };
        self.finish_batch(sessions, steps, elapsed, evicted, &scope)
    }

    /// `(steps_ok sum, failed count)` over the currently routed handles —
    /// O(batch), taken before and after a dispatch.
    fn routed_tally(&self) -> (usize, usize) {
        self.route_buf
            .iter()
            .filter_map(|&handle| self.store.meta(handle))
            .fold((0, 0), |(steps, failed), meta| {
                (
                    steps + meta.steps_ok,
                    failed + usize::from(!meta.status.is_active()),
                )
            })
    }

    /// Closes a dispatch that started at tally `before`: records the
    /// sessions it failed in the store's count (before any eviction removes
    /// them) and returns its step count.
    fn settle_routed(&mut self, before: (usize, usize)) -> usize {
        let (steps, failed) = self.routed_tally();
        self.store.note_failed(failed - before.1);
        steps - before.0
    }

    /// Shared tail of both dispatch paths: batch-level obs instruments,
    /// health republish, and report assembly.
    fn finish_batch(
        &mut self,
        sessions: usize,
        steps: usize,
        elapsed: Duration,
        evicted: Vec<SessionId>,
        scope: &kalmmind_exec::ScopeReport,
    ) -> BankReport {
        self.publish_health();
        OBS_BATCHES.inc();
        OBS_BATCH_SECONDS.observe_duration(elapsed);
        OBS_BANK_STEPS.add(steps as u64);
        BankReport {
            sessions,
            active_sessions: self.active_count(),
            failed_sessions: self.store.failed(),
            steps,
            elapsed,
            evicted,
            pool: PoolUtilization {
                threads: self.pool.threads(),
                spawned_threads: self.pool.spawned_threads(),
                worker_sessions: scope.worker_items,
                inline_sessions: scope.inline_items,
            },
        }
    }

    /// Runs each routed session over its whole measurement sequence, all
    /// sessions in parallel, and reports aggregate throughput.
    ///
    /// Sequences may have different lengths; a session that fails mid-way
    /// skips the rest of its sequence.
    ///
    /// # Errors
    ///
    /// Same contract as [`FilterBank::step_batch`].
    pub fn run(
        &mut self,
        sequences: &[(SessionId, Vec<Vec<f64>>)],
    ) -> Result<BankReport, KalmanError> {
        self.route_run(sequences)?;
        if let Some(tape) = &mut self.tape {
            // Per-session order is what replay must preserve, so the tape
            // linearizes the sequences positionally: batch `t` carries every
            // session's `t`-th measurement.
            let longest = sequences.iter().map(|(_, seq)| seq.len()).max();
            for t in 0..longest.unwrap_or(0) {
                tape.record(
                    sequences
                        .iter()
                        .filter_map(|(id, seq)| seq.get(t).map(|z| (id.0, z.clone()))),
                );
            }
        }
        Ok(self.dispatch_run(sequences))
    }

    /// Dense routing for [`FilterBank::run`]: marks each named session
    /// with the sequence position feeding it, then collects every seated
    /// session into the work list (the dense dispatch claims the whole
    /// bank; unmarked sessions are visited but not stepped, matching the
    /// historical dense semantics).
    fn route_run(&mut self, sequences: &[(SessionId, Vec<Vec<f64>>)]) -> Result<(), KalmanError> {
        self.epoch += 1;
        for (k, (id, _)) in sequences.iter().enumerate() {
            let handle = self.store.lookup(id.0).ok_or(KalmanError::BadSession {
                id: id.0,
                reason: "unknown session id",
            })?;
            let meta = self
                .store
                .meta_mut(handle)
                .expect("index handles are current");
            if meta.mark == self.epoch {
                return Err(KalmanError::BadSession {
                    id: id.0,
                    reason: "duplicate measurement in one batch",
                });
            }
            meta.mark = self.epoch;
            meta.arg = k as u32;
        }
        self.route_buf.clear();
        self.store.collect_handles(&mut self.route_buf);
        Ok(())
    }

    /// Dense dispatch for [`FilterBank::run`]: every seated session is
    /// claimed once (dynamic one-session claiming, zero thread spawns);
    /// sessions marked by [`FilterBank::route_run`] step over their whole
    /// sequence. Caught panics become parked [`SessionStatus::Failed`]
    /// sessions, the eviction policy runs unconditionally, and the batch
    /// report is assembled as usual.
    fn dispatch_run(&mut self, sequences: &[(SessionId, Vec<Vec<f64>>)]) -> BankReport {
        let sessions = self.store.len();
        let before = self.routed_tally();
        let start = Instant::now();
        let epoch = self.epoch;
        let bases = self.store.pool_bases_mut();
        let route_buf = &self.route_buf;
        let scope = self.pool.for_each_index(route_buf.len(), |k| {
            let handle = route_buf[k];
            // SAFETY: `route_buf` holds every seated session exactly once
            // (collected under `&self`), `for_each_index` blocks until all
            // indices are done, and the store receives no structural
            // mutation while the dispatch is in flight.
            unsafe {
                store::with_slot_raw(&bases, handle.pool, handle.index, |meta, backend| {
                    let Some(backend) = backend else { return };
                    if meta.mark != epoch {
                        return;
                    }
                    let (_, seq) = &sequences[meta.arg as usize];
                    for z in seq {
                        if !meta.status.is_active() {
                            break;
                        }
                        step_slot(meta, backend, z);
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        for p in &scope.panics {
            let handle = self.route_buf[p.index];
            if let Some((meta, backend)) = self.store.slot_mut(handle) {
                park_panicked(meta, backend, &p.message);
            }
        }
        // Count steps before eviction removes any slot, so a session that
        // stepped this batch and was then evicted is not undercounted.
        let steps = self.settle_routed(before);
        let evicted = self.apply_eviction_policy();
        self.finish_batch(sessions, steps, elapsed, evicted, &scope)
    }

    /// Removes condemned sessions when the policy says so, recording them.
    /// Condemned handles are collected first and removed after the scan —
    /// removal never moves another session (free-list recycling, no
    /// `swap_remove`), so the collected handles stay valid throughout.
    fn apply_eviction_policy(&mut self) -> Vec<SessionId> {
        if self.policy != EvictionPolicy::EvictOnDiverge {
            return Vec::new();
        }
        let mut condemned: Vec<(Handle, u64)> = Vec::new();
        self.store.for_each_handle(|handle, meta, backend| {
            if slot_condemned(meta, backend) {
                condemned.push((handle, meta.id));
            }
        });
        let mut evicted_ids = Vec::with_capacity(condemned.len());
        for (handle, id) in condemned {
            let Some(meta) = self.store.meta(handle) else {
                continue;
            };
            let reason = match &meta.status {
                SessionStatus::Failed { reason, .. } => reason.clone(),
                SessionStatus::Active => self
                    .store
                    .backend(handle)
                    .map(|b| b.health().reason().to_string())
                    .unwrap_or_default(),
            };
            let (flight_record, snapshot) = match self.store.backend(handle) {
                // Best-effort final checkpoint: a non-snapshotting backend
                // leaves `None`, never blocks the eviction.
                Some(b) => (
                    b.health().flight_record().map(String::from),
                    b.snapshot().ok(),
                ),
                None => (None, None),
            };
            if self.store.remove(id).is_none() {
                continue;
            }
            OBS_EVICTED.inc();
            evicted_ids.push(SessionId(id));
            self.evicted.push(EvictedSession {
                id: SessionId(id),
                reason,
                flight_record,
                snapshot,
            });
        }
        evicted_ids.sort_unstable();
        evicted_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalmmind::gain::{GainContext, InverseGain, SskfGain};
    use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
    use kalmmind::KalmanModel;
    use kalmmind_linalg::{Matrix, Vector};

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

    fn lockstep(ids: &[SessionId], zs: &[Vec<f64>]) -> Vec<(SessionId, Vec<Vec<f64>>)> {
        ids.iter().map(|&id| (id, zs.to_vec())).collect()
    }

    fn batch_of<'z>(ids: &[SessionId], z: &'z [f64]) -> Vec<(SessionId, &'z [f64])> {
        ids.iter().map(|&id| (id, z)).collect()
    }

    #[test]
    fn bank_sessions_match_standalone_filters() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..4).map(|_| bank.insert_filter(filter())).collect();
        let mut solo = filter();
        for t in 0..5 {
            let z = measurement(t);
            let batch: Vec<_> = ids.iter().map(|&id| (id, z.as_slice())).collect();
            let report = bank.step_batch(&batch).unwrap();
            assert_eq!(report.sessions, 4);
            assert_eq!(report.active_sessions, 4);
            assert_eq!(report.steps, 4);
            solo.step(&Vector::from_vec(z)).unwrap();
        }
        for &id in &ids {
            let state = bank.state(id).unwrap();
            // The erased f64 path is bit-identical to the concrete filter.
            assert_eq!(state.x(), solo.state().x());
            assert_eq!(state.p(), solo.state().p());
            assert_eq!(bank.steps_ok(id), Some(5));
            // The 2-state interleaved fixture lands on the monomorphized
            // backend, which stays bit-identical to the concrete filter.
            assert_eq!(bank.backend_name(id), Some("software-mono"));
            assert_eq!(bank.scalar_name(id), Some("f64"));
        }
    }

    #[test]
    fn session_ids_survive_removal_of_neighbors() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..4).map(|_| bank.insert_filter(filter())).collect();
        let z = measurement(0);
        bank.step_batch(&batch_of(&ids, &z)).unwrap();

        // Remove the first session; the others keep their ids and state.
        let removed = bank.remove(ids[0]).expect("id 0 must be present");
        assert_eq!(removed.iteration(), 1);
        assert!(!bank.contains(ids[0]));
        assert_eq!(bank.len(), 3);
        for &id in &ids[1..] {
            assert!(bank.contains(id));
            assert_eq!(bank.steps_ok(id), Some(1));
        }
        // A stale id is absence, not a neighbor's data and not a panic.
        assert_eq!(bank.state(ids[0]), None);
        assert_eq!(bank.status(ids[0]), None);
        assert!(bank.remove(ids[0]).is_none());

        // Routing to a removed session is a whole-batch error.
        let err = bank.step_batch(&batch_of(&ids, &z)).unwrap_err();
        assert!(
            matches!(err, KalmanError::BadSession { id, reason: "unknown session id" } if id == ids[0].as_u64())
        );

        // Ids are never reused: a new insert continues the sequence.
        let fresh = bank.insert_filter(filter());
        assert!(fresh > ids[3]);

        // Drain empties the bank and hands the backends back.
        let drained = bank.drain();
        assert_eq!(drained.len(), 4);
        assert!(bank.is_empty());
        assert!(drained.iter().any(|(id, _)| *id == fresh));
    }

    #[test]
    fn sessions_not_named_in_the_batch_are_not_stepped() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..3).map(|_| bank.insert_filter(filter())).collect();
        let z = measurement(0);
        let report = bank.step_batch(&[(ids[1], z.as_slice())]).unwrap();
        assert_eq!(report.steps, 1);
        assert_eq!(bank.steps_ok(ids[0]), Some(0));
        assert_eq!(bank.steps_ok(ids[1]), Some(1));
        assert_eq!(bank.steps_ok(ids[2]), Some(0));
    }

    #[test]
    fn duplicate_measurement_for_one_session_is_rejected() {
        let mut bank = FilterBank::new();
        let id = bank.insert_filter(filter());
        let z = measurement(0);
        let err = bank
            .step_batch(&[(id, z.as_slice()), (id, z.as_slice())])
            .unwrap_err();
        assert!(matches!(
            err,
            KalmanError::BadSession {
                reason: "duplicate measurement in one batch",
                ..
            }
        ));
        // The rejected batch stepped nothing.
        assert_eq!(bank.steps_ok(id), Some(0));
    }

    #[test]
    fn diverged_session_does_not_poison_the_batch() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..4).map(|_| bank.insert_filter(filter())).collect();
        for t in 0..10 {
            let good = measurement(t);
            let poison = vec![f64::NAN, 1.0, 1.0];
            let batch: Vec<(SessionId, &[f64])> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    if i == 1 && t >= 5 {
                        (id, poison.as_slice())
                    } else {
                        (id, good.as_slice())
                    }
                })
                .collect();
            bank.step_batch(&batch).unwrap();
        }
        match bank.status(ids[1]).unwrap() {
            SessionStatus::Failed { iteration, reason } => {
                assert_eq!(*iteration, 5);
                assert!(reason.contains("non-finite"), "reason: {reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(bank.steps_ok(ids[1]), Some(5));
        assert_eq!(bank.active_count(), 3);
        assert!(bank.any_diverged());
        for (i, &id) in ids.iter().enumerate() {
            if i != 1 {
                assert!(bank.status(id).unwrap().is_active());
                assert_eq!(bank.steps_ok(id), Some(10));
            }
        }
    }

    #[test]
    fn erroring_strategy_is_isolated_too() {
        let mut bank = FilterBank::new();
        let healthy = bank.insert_filter(filter());
        // An untrained SSKF gain errors on its first use.
        let broken = bank.insert_filter(KalmanFilter::new(
            model(),
            KalmanState::zeroed(2),
            SskfGain::<f64>::new(),
        ));
        let z = measurement(0);
        bank.step_batch(&batch_of(&[healthy, broken], &z)).unwrap();
        assert!(bank.status(healthy).unwrap().is_active());
        match bank.status(broken).unwrap() {
            SessionStatus::Failed { reason, .. } => {
                assert!(reason.contains("sskf"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    /// The failed-session count the O(1) `active_count` reads must always
    /// equal a full scan of the slot statuses.
    fn assert_failed_count_matches_scan(bank: &FilterBank, after: &str) {
        let mut scanned = 0;
        bank.store
            .for_each(|meta, _| scanned += usize::from(!meta.status.is_active()));
        assert_eq!(bank.store.failed(), scanned, "after {after}");
        assert_eq!(bank.active_count(), bank.len() - scanned, "after {after}");
    }

    #[test]
    fn failed_count_tracks_every_lifecycle_operation() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..5).map(|_| bank.insert_filter(filter())).collect();
        assert_failed_count_matches_scan(&bank, "seat");
        let (z, short) = (measurement(0), vec![1.0]);
        let report = bank
            .step_batch(&[
                (ids[0], z.as_slice()),
                (ids[1], short.as_slice()),
                (ids[2], short.as_slice()),
            ])
            .unwrap();
        assert_eq!(report.failed_sessions, 2);
        assert_failed_count_matches_scan(&bank, "step_batch");
        // Re-routing a parked session does not count it twice.
        bank.step_batch(&[(ids[1], z.as_slice())]).unwrap();
        assert_failed_count_matches_scan(&bank, "re-routed failure");
        let snapshot = bank.snapshot_session(ids[2]).unwrap();
        bank.remove(ids[2]).unwrap();
        assert_failed_count_matches_scan(&bank, "remove of a failed session");
        bank.remove(ids[3]).unwrap();
        assert_failed_count_matches_scan(&bank, "remove of an active session");
        bank.restore_session(&snapshot).unwrap();
        assert_failed_count_matches_scan(&bank, "restore");
        bank.run(&lockstep(&[ids[0], ids[4]], std::slice::from_ref(&short)))
            .unwrap();
        assert_failed_count_matches_scan(&bank, "run");
        bank.set_eviction_policy(EvictionPolicy::EvictOnDiverge);
        let report = bank.step_batch(&[(ids[2], short.as_slice())]).unwrap();
        assert!(!report.evicted.is_empty());
        assert_failed_count_matches_scan(&bank, "evict");
        bank.drain();
        assert_failed_count_matches_scan(&bank, "drain");
        assert_eq!(bank.active_count(), 0);
    }

    #[test]
    fn wrong_measurement_length_parks_only_that_session() {
        let mut bank = FilterBank::new();
        let good = bank.insert_filter(filter());
        let bad = bank.insert_filter(filter());
        let z = measurement(0);
        let short = vec![1.0];
        bank.step_batch(&[(good, z.as_slice()), (bad, short.as_slice())])
            .unwrap();
        assert!(bank.status(good).unwrap().is_active());
        match bank.status(bad).unwrap() {
            SessionStatus::Failed { reason, .. } => {
                assert!(reason.contains("length"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    /// A gain that works for `calls_before_panic` calls, then panics.
    #[derive(Debug)]
    struct PanickingGain {
        inner: InverseGain<InterleavedInverse<f64>>,
        calls: usize,
        calls_before_panic: usize,
    }

    impl PanickingGain {
        fn new(calls_before_panic: usize) -> Self {
            let strat =
                InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
            Self {
                inner: InverseGain::new(strat),
                calls: 0,
                calls_before_panic,
            }
        }
    }

    impl kalmmind::gain::GainStrategy<f64> for PanickingGain {
        fn gain(&mut self, ctx: GainContext<'_, f64>) -> kalmmind::Result<Matrix<f64>> {
            self.calls += 1;
            if self.calls > self.calls_before_panic {
                panic!("injected gain panic");
            }
            self.inner.gain(ctx)
        }

        fn name(&self) -> &'static str {
            "panicking"
        }

        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    #[test]
    fn panicking_session_is_parked_and_the_rest_stay_active() {
        let mut bank = FilterBank::new();
        let ids = vec![
            bank.insert_filter(filter()),
            bank.insert_filter(KalmanFilter::new(
                model(),
                KalmanState::zeroed(2),
                PanickingGain::new(2),
            )),
            bank.insert_filter(filter()),
            bank.insert_filter(filter()),
        ];
        for t in 0..5 {
            let z = measurement(t);
            bank.step_batch(&batch_of(&ids, &z)).unwrap();
        }
        let steps: Vec<_> = ids.iter().map(|&id| bank.steps_ok(id).unwrap()).collect();
        assert_eq!(steps, vec![5, 2, 5, 5]);
        match bank.status(ids[1]).unwrap() {
            SessionStatus::Failed { iteration, reason } => {
                assert_eq!(*iteration, 2);
                assert!(reason.contains("panicked"), "reason: {reason}");
                assert!(reason.contains("injected gain panic"), "reason: {reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(bank.active_count(), 3);
    }

    #[test]
    fn evict_on_diverge_removes_the_condemned_session() {
        let mut bank = FilterBank::new();
        bank.set_eviction_policy(EvictionPolicy::EvictOnDiverge);
        let ids: Vec<_> = (0..3).map(|_| bank.insert_filter(filter())).collect();
        let poison = vec![f64::NAN, 1.0, 1.0];
        let z = measurement(0);
        let report = bank
            .step_batch(&[
                (ids[0], z.as_slice()),
                (ids[1], poison.as_slice()),
                (ids[2], z.as_slice()),
            ])
            .unwrap();
        assert_eq!(report.evicted, vec![ids[1]]);
        assert_eq!(bank.len(), 2);
        assert!(!bank.contains(ids[1]));
        assert!(bank.contains(ids[0]) && bank.contains(ids[2]));
        assert!(!bank.any_diverged());
        // The eviction record preserves the failure reason.
        let records = bank.take_evictions();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, ids[1]);
        assert!(records[0].reason.contains("non-finite"));
        assert!(bank.evictions().is_empty());
        // The evicted session's step still counted in the batch report.
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn take_evictions_drains_in_eviction_order_with_snapshots() {
        let mut bank = FilterBank::new();
        bank.set_eviction_policy(EvictionPolicy::EvictOnDiverge);
        let ids: Vec<_> = (0..3).map(|_| bank.insert_filter(filter())).collect();
        let poison = vec![f64::NAN, 1.0, 1.0];
        let z = measurement(0);
        // Two separate batches condemn ids[2] then ids[0]: the records must
        // come back in eviction order (not insertion or id order), each
        // carrying the condemned session's final snapshot.
        bank.step_batch(&[(ids[0], z.as_slice()), (ids[2], poison.as_slice())])
            .unwrap();
        bank.step_batch(&[(ids[0], poison.as_slice()), (ids[1], z.as_slice())])
            .unwrap();
        let records = bank.take_evictions();
        let order: Vec<_> = records.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![ids[2], ids[0]]);
        for r in &records {
            let snap = r.snapshot.as_deref().expect("post-mortem snapshot");
            let parsed = kalmmind::snapshot::SessionSnapshot::from_json(snap).unwrap();
            assert_eq!(SessionId(parsed.label), r.id);
        }
        // Draining clears: a second take returns nothing, and the live
        // accessor agrees.
        assert!(bank.take_evictions().is_empty());
        assert!(bank.evictions().is_empty());
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn steady_state_stepping_spawns_zero_threads() {
        let pool = Arc::new(WorkerPool::new(4));
        assert_eq!(pool.spawned_threads(), 3);
        let mut bank = FilterBank::with_pool(Arc::clone(&pool));
        let ids: Vec<_> = (0..8).map(|_| bank.insert_filter(filter())).collect();
        let dispatches_before = pool.counters().dispatches;
        for t in 0..100 {
            let z = measurement(t);
            let report = bank.step_batch(&batch_of(&ids, &z)).unwrap();
            assert_eq!(report.pool.spawned_threads, 3);
            assert_eq!(report.pool.worker_sessions + report.pool.inline_sessions, 8);
        }
        assert_eq!(pool.spawned_threads(), 3, "steady state must not spawn");
        assert_eq!(pool.counters().dispatches, dispatches_before + 100);
    }

    #[test]
    fn run_reports_aggregate_throughput() {
        let mut bank = FilterBank::new();
        let ids: Vec<_> = (0..4).map(|_| bank.insert_filter(filter())).collect();
        let zs: Vec<Vec<f64>> = (0..50).map(measurement).collect();
        let report = bank.run(&lockstep(&ids, &zs)).unwrap();
        assert_eq!(report.steps, 200);
        assert_eq!(report.active_sessions, 4);
        assert!(report.throughput() > 0.0);
        for &id in &ids {
            assert_eq!(bank.steps_ok(id), Some(50));
        }
    }

    #[test]
    fn zero_duration_batch_reports_zero_throughput() {
        // Regression: a timer too coarse to resolve a trivial batch used to
        // make throughput() return +inf, which poisons JSON serialization
        // and any downstream averaging.
        let report = BankReport {
            sessions: 1,
            active_sessions: 1,
            failed_sessions: 0,
            steps: 5,
            elapsed: Duration::ZERO,
            evicted: Vec::new(),
            pool: PoolUtilization {
                threads: 1,
                spawned_threads: 0,
                worker_sessions: 0,
                inline_sessions: 1,
            },
        };
        assert_eq!(report.throughput(), 0.0);
        assert!(report.throughput().is_finite());
    }

    #[test]
    fn empty_bank_is_fine() {
        let mut bank = FilterBank::new();
        assert!(bank.is_empty());
        assert_eq!(bank.ids(), Vec::new());
        let report = bank.step_batch(&[]).unwrap();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.steps, 0);
        let report = bank.run(&[]).unwrap();
        assert_eq!(report.steps, 0);
        assert!(!bank.any_diverged());
    }
}
