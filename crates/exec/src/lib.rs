//! Persistent worker-pool execution layer.
//!
//! The paper's throughput argument — gain computation overlapped with
//! measurement processing so one KF iteration costs tens of microseconds —
//! only survives at fleet scale if the software runtime stops paying
//! thread-spawn and static-chunking costs on every batch. Before this crate
//! existed, `FilterBank::step_all` and the DSE sweep each re-spawned OS
//! threads through `std::thread::scope` on *every* call and split work into
//! `div_ceil` static chunks, so one slow item stalled its whole chunk.
//!
//! [`WorkerPool`] replaces both patterns with the batching discipline the
//! hardware side already follows:
//!
//! * **Long-lived threads.** Workers are spawned once (pool construction)
//!   and parked on a channel; steady-state dispatch spawns nothing. The
//!   process-wide spawn counter ([`total_spawned_threads`]) makes that
//!   property testable.
//! * **Dynamic work distribution.** Items are claimed one index at a time
//!   from a shared atomic counter, so a slow item delays only itself — no
//!   static chunk to stall.
//! * **Panic isolation per item.** A panicking item is caught, recorded in
//!   the [`ScopeReport`], and neither kills the worker nor poisons the
//!   batch's other items.
//! * **Scoped borrowing.** [`WorkerPool::for_each_mut`] hands each worker a
//!   disjoint `&mut` into the caller's slice and blocks until every claimed
//!   index has finished, so non-`'static` borrows stay sound — a drop-in
//!   replacement for the `thread::scope` loops it retires.
//! * **Graceful shutdown.** Dropping the pool closes the submission
//!   channels; workers drain and exit, and `Drop` joins them.
//!
//! Pool sizing honors the `KALMMIND_THREADS` environment variable (see
//! [`WorkerPool::from_env`]); `KALMMIND_THREADS=1` degrades to a pure
//! serial inline path with zero spawned threads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use kalmmind_obs as obs;

/// Environment variable overriding the pool's parallelism degree.
pub const THREADS_ENV: &str = "KALMMIND_THREADS";

// Observability handles — zero-sized no-ops unless the `obs` feature is on.
static OBS_DISPATCHES: obs::LazyCounter = obs::LazyCounter::new(
    "exec_dispatches_total",
    "Scoped dispatches submitted to worker pools",
);
static OBS_ITEMS_WORKER: obs::LazyCounter = obs::LazyCounter::labeled(
    "exec_items_total",
    "Items executed by pooled dispatches, by executing thread kind",
    "site",
    "worker",
);
static OBS_ITEMS_INLINE: obs::LazyCounter = obs::LazyCounter::labeled(
    "exec_items_total",
    "Items executed by pooled dispatches, by executing thread kind",
    "site",
    "inline",
);
static OBS_ITEM_PANICS: obs::LazyCounter = obs::LazyCounter::new(
    "exec_item_panics_total",
    "Items whose closure panicked during a pooled dispatch",
);
static OBS_ACTIVE_DISPATCHES: obs::LazyGauge = obs::LazyGauge::new(
    "exec_active_dispatches",
    "Scoped dispatches currently executing",
);
static OBS_POOL_THREADS: obs::LazyGauge = obs::LazyGauge::new(
    "exec_pool_threads",
    "Parallelism degree of the most recently constructed pool",
);
static OBS_SPAWNED_THREADS: obs::LazyCounter = obs::LazyCounter::new(
    "exec_spawned_threads_total",
    "OS threads spawned by worker pools since process start",
);
static OBS_ENV_INVALID: obs::LazyCounter = obs::LazyCounter::new(
    "exec_threads_env_invalid_total",
    "Times KALMMIND_THREADS was set but unusable and sizing fell back to available_parallelism",
);
static OBS_SERVICE_THREADS: obs::LazyGauge = obs::LazyGauge::new(
    "exec_service_threads",
    "Long-lived service threads (spawn_service) currently running",
);

/// Process-wide count of OS threads ever spawned by this crate.
static SPAWNED_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Threads this crate spawned on behalf of the current thread.
    static SPAWNED_HERE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one spawn, process-wide, per calling thread and in `obs`.
fn note_spawn() {
    SPAWNED_THREADS.fetch_add(1, Ordering::Relaxed);
    SPAWNED_HERE.with(|n| n.set(n.get() + 1));
    OBS_SPAWNED_THREADS.inc();
}

/// Total OS threads ever spawned by any [`WorkerPool`] in this process.
///
/// The zero-spawn steady-state guarantee is phrased against this counter:
/// after a pool is warm, repeated dispatches must leave it unchanged.
pub fn total_spawned_threads() -> u64 {
    SPAWNED_THREADS.load(Ordering::Relaxed)
}

/// OS threads this crate spawned from the calling thread (pool workers it
/// built, services it started). Unlike [`total_spawned_threads`] it does not
/// see spawns made by other threads, so a spawn count taken by one test is
/// not moved by tests running in parallel.
pub fn spawned_by_current_thread() -> u64 {
    SPAWNED_HERE.with(std::cell::Cell::get)
}

/// One caught panic from a pooled item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose closure invocation panicked.
    pub index: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

/// Outcome of one scoped dispatch ([`WorkerPool::for_each_mut`] /
/// [`WorkerPool::for_each_index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeReport {
    /// Number of items in the dispatch.
    pub items: usize,
    /// Items executed on pool worker threads.
    pub worker_items: u64,
    /// Items executed inline on the submitting thread (the caller always
    /// participates in claiming, so a busy pool never blocks a dispatch).
    pub inline_items: u64,
    /// Panics caught during the dispatch, in claim order. Empty on a clean
    /// run; the corresponding items are left however the closure left them
    /// at the unwind point.
    pub panics: Vec<TaskPanic>,
}

impl ScopeReport {
    fn empty() -> Self {
        Self {
            items: 0,
            worker_items: 0,
            inline_items: 0,
            panics: Vec::new(),
        }
    }
}

/// Cumulative counters of a pool since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    /// Scoped dispatches submitted.
    pub dispatches: u64,
    /// Items executed across all dispatches.
    pub items: u64,
    /// Items that ran on pool worker threads.
    pub worker_items: u64,
    /// Items that ran inline on submitting threads.
    pub inline_items: u64,
}

/// Lifetime-erased pointer to the dispatch closure.
///
/// Soundness contract: the pointee outlives every dereference because the
/// submitting thread does not return from `run_task` until the task's
/// `pending` count reaches zero, and workers only dereference after
/// claiming an index `< len` (each of which is accounted in `pending`).
struct ErasedFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the lifetime
// contract above guarantees validity for as long as any worker can reach it.
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

/// One in-flight scoped dispatch, shared by the caller and every worker.
struct Task {
    func: ErasedFn,
    len: usize,
    /// Trace context of the submitting frame, re-installed on every thread
    /// that claims items so spans recorded inside pooled closures attribute
    /// to the right request across the dispatch hop. Zero-sized with `obs`
    /// off.
    ctx: obs::TraceCtx,
    /// Next unclaimed index — the dynamic-distribution counter.
    next: AtomicUsize,
    /// Indices claimed but not yet finished, initialized to `len`.
    pending: AtomicUsize,
    worker_items: AtomicU64,
    panics: Mutex<Vec<TaskPanic>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Task {
    /// Claims and executes indices until the counter runs out. Each item is
    /// wrapped in `catch_unwind`, so a panic is recorded and the loop (and
    /// the worker thread running it) continues.
    fn execute(&self, on_worker: bool) {
        // Adopt the submitter's trace context for the life of the claim
        // loop and restore the thread's own afterwards, so long-lived
        // workers never leak one dispatch's context into the next.
        let prev = obs::set_current_trace(self.ctx);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            // SAFETY: see `ErasedFn` — the submitter blocks until
            // `pending == 0`, which cannot happen before this call returns.
            let func = unsafe { &*self.func.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(i))) {
                let message = panic_message(payload.as_ref());
                self.panics
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(TaskPanic { index: i, message });
            }
            if on_worker {
                self.worker_items.fetch_add(1, Ordering::Relaxed);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = true;
                self.done_cv.notify_all();
            }
        }
        obs::set_current_trace(prev);
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A persistent pool of worker threads with dynamic work claiming.
///
/// Construct once (or share the process-wide [`WorkerPool::global`]), then
/// dispatch scoped batches through [`WorkerPool::for_each_mut`]. The
/// submitting thread always participates in execution, so a pool of degree
/// `n` uses `n - 1` spawned workers plus the caller, and degree 1 is a
/// fully inline serial path.
pub struct WorkerPool {
    senders: Vec<Sender<Arc<Task>>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    dispatches: AtomicU64,
    items: AtomicU64,
    worker_items: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned_threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of parallelism degree `threads` (clamped to at least
    /// 1), spawning `threads - 1` long-lived workers now and never again.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx): (Sender<Arc<Task>>, Receiver<Arc<Task>>) = mpsc::channel();
            senders.push(tx);
            note_spawn();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("kalmmind-exec-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task.execute(true);
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        OBS_POOL_THREADS.set(threads as i64);
        Self {
            senders,
            handles,
            threads,
            dispatches: AtomicU64::new(0),
            items: AtomicU64::new(0),
            worker_items: AtomicU64::new(0),
        }
    }

    /// Creates a pool sized from the environment: `KALMMIND_THREADS` when
    /// set to a positive integer, otherwise
    /// `std::thread::available_parallelism()`.
    ///
    /// A set-but-unusable override (`0`, negative, or non-numeric) is *not*
    /// silently ignored: it falls back like an unset variable but also
    /// prints a stderr warning and increments the
    /// `exec_threads_env_invalid_total` obs counter, so a fleet operator
    /// who fat-fingers a deployment variable finds out.
    pub fn from_env() -> Self {
        Self::new(Self::threads_from_env())
    }

    /// The parallelism degree [`WorkerPool::from_env`] would use.
    pub fn threads_from_env() -> usize {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => match Self::parse_threads_override(&raw) {
                Ok(n) => n,
                Err(reason) => {
                    OBS_ENV_INVALID.inc();
                    eprintln!(
                        "warning: {THREADS_ENV}={raw:?} is {reason}; \
                         falling back to available_parallelism"
                    );
                    Self::default_parallelism()
                }
            },
            Err(_) => Self::default_parallelism(),
        }
    }

    /// Parses a `KALMMIND_THREADS` override. Returns the degree for a
    /// positive integer (surrounding whitespace tolerated), or a
    /// human-readable reason why the value is unusable.
    ///
    /// Exposed so the parse contract is unit-testable without mutating the
    /// process environment (tests run in parallel threads).
    pub fn parse_threads_override(raw: &str) -> Result<usize, &'static str> {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Err("empty");
        }
        match trimmed.parse::<usize>() {
            Ok(0) => Err("zero"),
            Ok(n) => Ok(n),
            Err(_) if trimmed.starts_with('-') && trimmed[1..].parse::<u64>().is_ok() => {
                Err("negative")
            }
            Err(_) => Err("not an integer"),
        }
    }

    fn default_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// The process-wide shared pool, lazily constructed via
    /// [`WorkerPool::from_env`] on first use. Every execution site that does
    /// not need private sizing (the DSE sweep, default [`FilterBank`]
    /// construction) routes through this instance, so the whole process
    /// holds one set of worker threads.
    ///
    /// [`FilterBank`]: https://docs.rs/kalmmind-runtime
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(WorkerPool::from_env()))
    }

    /// Parallelism degree: spawned workers plus the participating caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Long-lived worker threads this pool spawned at construction. Constant
    /// for the pool's whole lifetime — the pool never spawns after `new`.
    pub fn spawned_threads(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot of the pool's cumulative dispatch counters.
    pub fn counters(&self) -> PoolCounters {
        let items = self.items.load(Ordering::Relaxed);
        let worker_items = self.worker_items.load(Ordering::Relaxed);
        PoolCounters {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            items,
            worker_items,
            inline_items: items - worker_items,
        }
    }

    /// Applies `f` to every element of `items` (receiving the element and
    /// its index), distributing elements dynamically over the pool. Blocks
    /// until every element has been processed; panics inside `f` are caught
    /// per element and returned in the report instead of propagating.
    ///
    /// This is the drop-in replacement for the retired
    /// `std::thread::scope` chunk loops: borrows in `f` and `items` need
    /// not be `'static` because the call does not return while any worker
    /// can still touch them.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F) -> ScopeReport
    where
        T: Send,
        F: Fn(&mut T, usize) + Sync,
    {
        let base = items.as_mut_ptr() as usize;
        self.for_each_index(items.len(), move |i| {
            // SAFETY: `for_each_index` claims each index exactly once, so
            // every invocation gets a disjoint element, and the slice
            // outlives the dispatch because `for_each_index` blocks until
            // all indices are done.
            let item = unsafe { &mut *(base as *mut T).add(i) };
            f(item, i);
        })
    }

    /// Index-space variant of [`WorkerPool::for_each_mut`]: applies `f` to
    /// every index in `0..len` with the same distribution, blocking, and
    /// panic-isolation semantics.
    pub fn for_each_index<F>(&self, len: usize, f: F) -> ScopeReport
    where
        F: Fn(usize) + Sync,
    {
        if len == 0 {
            return ScopeReport::empty();
        }
        if self.senders.is_empty() {
            // Single-threaded pool: no workers to fan out to, so skip the
            // shared-task machinery entirely. Same per-item panic isolation
            // and the same counters as the fan-out path, but allocation-free
            // in the no-panic case — which lets a `WorkerPool::new(1)` bank
            // run fully alloc-free batches.
            OBS_ACTIVE_DISPATCHES.inc();
            let mut panics = Vec::new();
            for i in 0..len {
                if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    panics.push(TaskPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
            self.dispatches.fetch_add(1, Ordering::Relaxed);
            self.items.fetch_add(len as u64, Ordering::Relaxed);
            OBS_ACTIVE_DISPATCHES.dec();
            OBS_DISPATCHES.inc();
            OBS_ITEMS_INLINE.add(len as u64);
            OBS_ITEM_PANICS.add(panics.len() as u64);
            return ScopeReport {
                items: len,
                worker_items: 0,
                inline_items: len as u64,
                panics,
            };
        }
        OBS_ACTIVE_DISPATCHES.inc();
        // SAFETY: lifetime erasure only — layout is unchanged. The erased
        // reference is never dereferenced after this function returns (see
        // the `ErasedFn` contract), so the shortened borrow is respected.
        let func: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
        };
        let task = Arc::new(Task {
            func: ErasedFn(func),
            len,
            ctx: obs::current_trace(),
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(len),
            worker_items: AtomicU64::new(0),
            panics: Mutex::new(Vec::new()),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // Only wake as many workers as there are items beyond the caller's
        // own share; a dispatch of 1 item never leaves the calling thread.
        let fan = self.senders.len().min(len.saturating_sub(1));
        for tx in &self.senders[..fan] {
            // A send can only fail if the worker exited, which only happens
            // during pool drop; the caller then completes the task inline.
            let _ = tx.send(Arc::clone(&task));
        }
        task.execute(false);
        task.wait();

        let worker_items = task.worker_items.load(Ordering::Relaxed);
        let panics = std::mem::take(&mut *task.panics.lock().unwrap_or_else(|e| e.into_inner()));
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(len as u64, Ordering::Relaxed);
        self.worker_items.fetch_add(worker_items, Ordering::Relaxed);
        OBS_ACTIVE_DISPATCHES.dec();
        OBS_DISPATCHES.inc();
        OBS_ITEMS_WORKER.add(worker_items);
        OBS_ITEMS_INLINE.add(len as u64 - worker_items);
        OBS_ITEM_PANICS.add(panics.len() as u64);
        ScopeReport {
            items: len,
            worker_items,
            inline_items: len as u64 - worker_items,
            panics,
        }
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: closing the submission channels lets each worker
    /// drain its queue and exit; the drop then joins every worker so no
    /// thread outlives the pool.
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Handle to a long-lived service thread started with [`spawn_service`].
///
/// Dropping the handle requests a stop and joins the thread, so a service
/// can never outlive the component that started it.
#[derive(Debug)]
pub struct ServiceHandle {
    name: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The name the service thread was spawned with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` until the service body has returned.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Requests a stop (sets the flag the service body polls) without
    /// waiting for the thread to exit.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Requests a stop and joins the service thread.
    pub fn stop(&mut self) {
        self.request_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            OBS_SERVICE_THREADS.dec();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns a named long-lived *service* thread — the execution-layer home for
/// background work that is not batch-shaped (metrics endpoints, watchdogs).
///
/// Unlike a [`WorkerPool`] dispatch, the body runs detached from any batch:
/// it receives the handle's stop flag and must poll it, returning promptly
/// once the flag reads `true` (services that block forever also block the
/// handle's drop). The spawn is accounted in [`total_spawned_threads`] and
/// the obs spawn counter like any pool worker — services are expected to be
/// started once at setup, before any steady-state zero-spawn window a
/// benchmark freezes.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_service<F>(name: &str, body: F) -> ServiceHandle
where
    F: FnOnce(&AtomicBool) + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    note_spawn();
    OBS_SERVICE_THREADS.inc();
    let handle = std::thread::Builder::new()
        .name(format!("kalmmind-svc-{name}"))
        .spawn(move || {
            // A panicking service must not abort the process; the handle's
            // `is_running` flips false and the owner can inspect/restart.
            let _ = catch_unwind(AssertUnwindSafe(|| body(&flag)));
        })
        .expect("spawn service thread");
    ServiceHandle {
        name: name.to_string(),
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn processes_every_item_exactly_once() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u32; 1000];
        let report = pool.for_each_mut(&mut items, |item, i| *item = i as u32 + 1);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        assert_eq!(report.items, 1000);
        assert_eq!(report.worker_items + report.inline_items, 1000);
        assert!(report.panics.is_empty());
    }

    #[test]
    fn degree_one_pool_is_fully_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.spawned_threads(), 0);
        let mut items = vec![0u8; 64];
        let report = pool.for_each_mut(&mut items, |item, _| *item = 1);
        assert_eq!(report.inline_items, 64);
        assert_eq!(report.worker_items, 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.for_each_index(3, |_| {}).items, 3);
    }

    #[test]
    fn empty_dispatch_is_a_no_op() {
        let pool = WorkerPool::new(4);
        let before = pool.counters();
        let report = pool.for_each_mut::<u8, _>(&mut [], |_, _| unreachable!());
        assert_eq!(report.items, 0);
        assert_eq!(pool.counters(), before);
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = (0..100).collect();
        let report = pool.for_each_mut(&mut items, |item, i| {
            if i == 17 || i == 63 {
                panic!("boom at {i}");
            }
            *item += 1;
        });
        let mut panicked: Vec<usize> = report.panics.iter().map(|p| p.index).collect();
        panicked.sort_unstable();
        assert_eq!(panicked, vec![17, 63]);
        assert!(report.panics.iter().any(|p| p.message.contains("boom at")));
        // Every other item was still processed.
        for (i, &v) in items.iter().enumerate() {
            if i != 17 && i != 63 {
                assert_eq!(v, i as u32 + 1, "item {i}");
            }
        }
        // The pool survives and the next dispatch is clean.
        let report = pool.for_each_mut(&mut items, |item, _| *item = 0);
        assert!(report.panics.is_empty());
        assert_eq!(report.items, 100);
    }

    #[test]
    fn steady_state_dispatches_spawn_no_threads() {
        let pool = WorkerPool::new(4);
        let spawned = spawned_by_current_thread();
        let mut items = vec![0u64; 256];
        for round in 0..50 {
            pool.for_each_mut(&mut items, |item, _| *item += round);
        }
        assert_eq!(
            spawned_by_current_thread(),
            spawned,
            "steady state must not spawn"
        );
        assert_eq!(pool.counters().dispatches, 50);
        assert_eq!(pool.counters().items, 50 * 256);
    }

    #[test]
    fn workers_actually_participate() {
        let pool = WorkerPool::new(4);
        // Enough slow-ish items that the three workers must claim some.
        let counter = AtomicU32::new(0);
        let report = pool.for_each_index(64, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(
            report.worker_items > 0,
            "expected workers to claim items: {report:?}"
        );
    }

    #[test]
    fn concurrent_dispatches_from_many_threads_complete() {
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let mut items = vec![0u32; 200];
                    for _ in 0..20 {
                        let report = pool.for_each_mut(&mut items, |item, _| *item += 1);
                        assert!(report.panics.is_empty());
                    }
                    assert!(items.iter().all(|&v| v == 20));
                });
            }
        });
    }

    #[test]
    fn drop_joins_all_workers() {
        let spawned = spawned_by_current_thread();
        {
            let pool = WorkerPool::new(3);
            pool.for_each_index(10, |_| {});
        } // Drop: channels close, workers drain and join.
        assert_eq!(spawned_by_current_thread(), spawned + 2);
    }

    #[test]
    fn service_thread_runs_until_stopped() {
        let counter = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&counter);
        let mut svc = spawn_service("ticker", move |stop| {
            while !stop.load(Ordering::Acquire) {
                c.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        assert_eq!(svc.name(), "ticker");
        while counter.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        assert!(svc.is_running());
        svc.stop();
        assert!(!svc.is_running());
        let after = counter.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(
            counter.load(Ordering::Relaxed),
            after,
            "service kept running"
        );
    }

    #[test]
    fn service_spawn_is_counted() {
        let before = spawned_by_current_thread();
        let svc = spawn_service("noop", |stop| {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        assert_eq!(spawned_by_current_thread(), before + 1);
        drop(svc); // drop requests stop and joins
    }

    #[test]
    fn panicking_service_is_contained() {
        let mut svc = spawn_service("boom", |_| panic!("service failure"));
        // Join via stop(); the panic must not propagate or abort.
        svc.stop();
        assert!(!svc.is_running());
    }

    #[test]
    fn dispatch_propagates_trace_context_to_workers() {
        // With `obs` off the context types are inert ZSTs; nothing to check.
        if !obs::is_enabled() {
            return;
        }
        let ctx = obs::trace_begin();
        let prev = obs::set_current_trace(ctx);
        let want = ctx.trace_id();
        assert_ne!(want, 0);

        let pool = WorkerPool::new(4);
        let seen = Mutex::new(Vec::new());
        let report = pool.for_each_index(64, |_| {
            seen.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(obs::current_trace().trace_id());
            // Slow the items enough that spawned workers claim some, so the
            // cross-thread handoff is actually exercised.
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert!(
            report.worker_items > 0,
            "workers must participate: {report:?}"
        );
        let seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(seen.len(), 64);
        assert!(
            seen.iter().all(|&t| t == want),
            "every pooled item must see the submitting frame's trace id"
        );

        // The caller's own context survives the dispatch, and restoring the
        // previous context leaves the thread clean.
        assert_eq!(obs::current_trace().trace_id(), want);
        obs::set_current_trace(prev);
        assert_eq!(obs::current_trace().trace_id(), prev.trace_id());
    }

    #[test]
    fn env_sizing_parses_positive_integers_only() {
        // Avoid mutating the process environment (other tests run in
        // parallel); exercise the parse contract via the public fallback.
        let n = WorkerPool::threads_from_env();
        assert!(n >= 1);
    }

    #[test]
    fn threads_override_accepts_positive_integers() {
        assert_eq!(WorkerPool::parse_threads_override("1"), Ok(1));
        assert_eq!(WorkerPool::parse_threads_override("8"), Ok(8));
        assert_eq!(WorkerPool::parse_threads_override("  16  "), Ok(16));
        assert_eq!(WorkerPool::parse_threads_override("\t4\n"), Ok(4));
    }

    #[test]
    fn threads_override_rejects_zero() {
        assert_eq!(WorkerPool::parse_threads_override("0"), Err("zero"));
        assert_eq!(WorkerPool::parse_threads_override(" 0 "), Err("zero"));
    }

    #[test]
    fn threads_override_rejects_negative() {
        assert_eq!(WorkerPool::parse_threads_override("-1"), Err("negative"));
        assert_eq!(WorkerPool::parse_threads_override("-32"), Err("negative"));
    }

    #[test]
    fn threads_override_rejects_garbage() {
        for garbage in ["", "   ", "four", "4.0", "0x8", "8 threads", "-"] {
            let err = WorkerPool::parse_threads_override(garbage)
                .expect_err(&format!("{garbage:?} must be rejected"));
            assert!(
                matches!(err, "empty" | "not an integer"),
                "{garbage:?} -> {err}"
            );
        }
    }
}
