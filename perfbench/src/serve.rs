//! The serving engine: set-up, warm-up, the closed loop over one ingest
//! connection, lifecycle calls between frames, and the correctness gate —
//! all through the stack's public API.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use kalmmind::accuracy::compare;
use kalmmind::reference_filter;
use kalmmind_linalg::Vector;
use kalmmind_runtime::{
    BatchOutcome, EntryStatus, Fleet, FleetConfig, IngestClient, IngestError, IngestServer,
    SessionId,
};

use crate::alloc;
use crate::stats::{median, parse_proc_stat, CpuTicks};
use crate::workload::{AddTo, Churn, Inputs, Kind, Models, Op, Replay, Rng, Slot, Spec, CALC_FREQ};

/// Shards, one worker thread each: with one generator thread and one
/// ingest connection, at most two threads are runnable — the host's two
/// vCPUs.
pub const SHARDS: usize = 2;
/// Per-shard admission bound. The closed loop keeps one frame in flight,
/// so nothing is ever shed at this depth.
const QUEUE_CAPACITY: usize = 64;
/// Ordinary frames at the end of warm-up, so even the small workloads
/// fill caches and finish lazy set-up on the timed path before timing.
const WARM_FRAMES: usize = 400;
/// Largest frame of the staggered warm-up rounds (well under the wire's
/// frame cap); large frames keep warming 200k sessions to seconds.
const WARM_CHUNK: usize = 5000;
/// Frames per measurement window: the unit of the median-window rate and
/// of the steal check.
pub const WINDOW_FRAMES: usize = 20;
/// Failure messages kept for the report.
const MAX_ERRORS: usize = 8;
/// Frame timings reserved up front, so the buffer rarely grows while the
/// heap is being measured (its growth is excluded either way).
const TIMES_CAPACITY: usize = 1 << 17;
/// Lifecycle call timings reserved up front, per kind of call.
const OPS_CAPACITY: usize = 1 << 14;

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Aggregate CPU tick counters now (`None` where `/proc/stat` is absent).
pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Steal ticks between two readings (0 when steal cannot be read).
fn stolen(before: Option<CpuTicks>, after: Option<CpuTicks>) -> u64 {
    match (before, after) {
        (Some(a), Some(b)) => b.steal.saturating_sub(a.steal),
        _ => 0,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Attempted and failed counts of every kind of call the run makes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub frames: usize,
    pub frames_failed: usize,
    pub entries: usize,
    pub entries_failed: usize,
    pub lifecycle: usize,
    pub lifecycle_failed: usize,
}

/// Per-call durations (seconds) of each lifecycle call, and the durations
/// of whole operations by session kind.
#[derive(Debug)]
pub struct OpStats {
    pub insert: Vec<f64>,
    pub remove: Vec<f64>,
    pub snapshot: Vec<f64>,
    pub snapshot_bytes: Vec<f64>,
    pub restore: Vec<f64>,
    pub rebalance: Vec<f64>,
    /// Rounds run so far.
    pub rounds: usize,
    pub by_kind: BTreeMap<(Kind, Op), Vec<f64>>,
}

impl OpStats {
    fn new(spec: &Spec) -> Self {
        let reserve = || Vec::with_capacity(OPS_CAPACITY);
        Self {
            insert: reserve(),
            remove: reserve(),
            snapshot: reserve(),
            snapshot_bytes: reserve(),
            restore: reserve(),
            rebalance: reserve(),
            rounds: 0,
            by_kind: spec
                .round
                .iter()
                .map(|&(kind, op, _)| ((kind, op), reserve()))
                .collect(),
        }
    }

    fn vecs(&self) -> impl Iterator<Item = &Vec<f64>> {
        [
            &self.insert,
            &self.remove,
            &self.snapshot,
            &self.snapshot_bytes,
            &self.restore,
            &self.rebalance,
        ]
        .into_iter()
        .chain(self.by_kind.values())
    }
}

/// One recorded session: its slot as first seated and the states the wire
/// served it, up to `limit` steps. Gate samples record every step and are
/// replayed bit-for-bit; accuracy samples record a prefix only.
#[derive(Debug)]
pub struct Sample {
    pub slot: usize,
    pub origin: Slot,
    pub served: Vec<Vec<f64>>,
    pub limit: usize,
}

impl Sample {
    pub fn gated(&self) -> bool {
        self.limit == usize::MAX
    }
}

#[derive(Debug)]
pub struct SetupTimes {
    pub total: f64,
    pub fit: f64,
    pub seat: f64,
}

#[derive(Debug)]
pub struct GateReport {
    pub mismatches: Vec<String>,
    pub checked_steps: usize,
    /// Median over the scored samples of each one's `max_diff_pct`.
    pub max_diff_pct: f64,
    pub scored: usize,
}

const NO_SAMPLE: u32 = u32::MAX;

pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub models: Models,
    pub fleet: Arc<Fleet>,
    pub client: IngestClient,
    _server: IngestServer,
    pub slots: Vec<Slot>,
    sample_of: Vec<u32>,
    pub samples: Vec<Sample>,
    /// `SessionId` by fleet id. The fleet has no public remove and
    /// `SessionId` no public constructor, so ids are resolved from the
    /// banks' `ids()` — outside every timed call.
    sids: Vec<Option<SessionId>>,
    rng: Rng,
    /// Lifecycle targets per (kind, op) and a cursor cycling through them.
    candidates: BTreeMap<(Kind, Op), (Vec<usize>, usize)>,
    pub counts: Counts,
    pub errors: Vec<String>,
    pub ops: OpStats,
    /// Next frame in sweep order.
    frame_no: usize,
    /// Slots seated on each shard, in slot order (`per_shard` frames).
    shard_lists: Vec<Vec<usize>>,
    /// Each slot's offset in the calc/approx schedule after warm-up.
    phase: Vec<usize>,
    /// Round-trip time of each frame of the last `serve` call.
    pub times: Vec<f64>,
    /// Per window of `WINDOW_FRAMES` frames in `times`: CPU steal ticks.
    pub steal: Vec<u64>,
    /// Reused slot and entry lists of the frame being sent, sized for the
    /// largest frame so they never grow (and are left out of
    /// `generator_heap`, which runs while they are taken).
    slot_buf: Vec<usize>,
    batch_buf: Vec<(u64, &'a [f64])>,
    /// Heap of the recorded states (`Sample::served`), kept as they grow.
    served_bytes: usize,
    /// Program heap when the fleet started, and the generator's own heap
    /// then: every generator buffer is allocated before the fleet starts,
    /// so only their growth is declared to the allocator afterwards.
    heap_base: usize,
    generator_base: usize,
}

/// The generator's buffers, allocated before the fleet starts so the
/// program heap never includes them.
struct Buffers<'a> {
    times: Vec<f64>,
    steal: Vec<u64>,
    shard_lists: Vec<Vec<usize>>,
    phase: Vec<usize>,
    slot_buf: Vec<usize>,
    batch_buf: Vec<(u64, &'a [f64])>,
    sids: Vec<Option<SessionId>>,
    ops: OpStats,
}

impl Buffers<'_> {
    fn new(spec: &Spec) -> Self {
        let n = spec.sessions;
        Self {
            times: Vec::with_capacity(TIMES_CAPACITY),
            steal: Vec::with_capacity(TIMES_CAPACITY / WINDOW_FRAMES),
            shard_lists: (0..SHARDS).map(|_| Vec::with_capacity(n)).collect(),
            phase: vec![0; n],
            slot_buf: Vec::with_capacity(n),
            batch_buf: Vec::with_capacity(spec.frame.max(WARM_CHUNK)),
            // Room for ids past the seated ones: replacements add more.
            sids: Vec::with_capacity(2 * n + 4096),
            ops: OpStats::new(spec),
        }
    }
}

impl<'a> Bench<'a> {
    /// Set-up as a user pays it: model fit, fleet start, ingest bind,
    /// seating every session, and the client connect. Input generation
    /// happened before.
    pub fn setup(
        spec: &'a Spec,
        inputs: &'a Inputs,
        slots: &[Slot],
        mut rng: Rng,
    ) -> io::Result<(Self, SetupTimes)> {
        let mut slots = slots.to_vec();
        let (samples, sample_of) = choose_samples(spec, &slots, &mut rng);
        let gated: Vec<bool> = sample_of
            .iter()
            .map(|&i| i != NO_SAMPLE && samples[i as usize].gated())
            .collect();
        let candidates = choose_candidates(spec, &gated, &mut rng);
        let mut buf = Buffers::new(spec);
        let t0 = Instant::now();
        let models = Models::fit(inputs);
        let fit = secs(t0);
        alloc::set_generator(0);
        let heap_base = alloc::live();
        alloc::reset_peak();
        let fleet = Fleet::start(FleetConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            threads_per_shard: 1,
        });
        let server = IngestServer::serve(Arc::clone(&fleet), "127.0.0.1:0")?;
        let t_seat = Instant::now();
        for slot in &mut slots {
            slot.id = models.with_filter(slot, AddTo(&fleet));
        }
        let seat = secs(t_seat);
        let client = IngestClient::connect(server.addr())?;
        let total = secs(t0);

        let cf = CALC_FREQ as usize;
        let (shard_lists, phase) = (&mut buf.shard_lists, &mut buf.phase);
        for (s, slot) in slots.iter().enumerate() {
            let shard = fleet.shard_of(slot.id);
            let list = &mut shard_lists[shard];
            // Phases follow frame order, so each frame's run of `cf`
            // consecutive sessions (per shard, for per-shard frames) holds
            // every phase once: one calc step and `cf - 1` approx steps.
            phase[s] = if spec.per_shard {
                list.len() % cf
            } else {
                s % cf
            };
            list.push(s);
        }
        assert!(
            !spec.per_shard || shard_lists.iter().all(|l| !l.is_empty()),
            "a shard holds no session"
        );
        let mut bench = Self {
            spec,
            inputs,
            models,
            fleet,
            client,
            _server: server,
            slots,
            sample_of,
            samples,
            sids: buf.sids,
            rng,
            candidates,
            counts: Counts::default(),
            errors: Vec::new(),
            ops: buf.ops,
            frame_no: 0,
            shard_lists: buf.shard_lists,
            phase: buf.phase,
            times: buf.times,
            steal: buf.steal,
            slot_buf: buf.slot_buf,
            batch_buf: buf.batch_buf,
            served_bytes: 0,
            heap_base,
            generator_base: 0,
        };
        bench.generator_base = bench.generator_heap();
        Ok((bench, SetupTimes { total, fit, seat }))
    }

    /// Heap held by the generator's own growable buffers, from their
    /// capacities.
    fn generator_heap(&self) -> usize {
        use std::mem::size_of;
        let usizes =
            self.shard_lists.iter().map(Vec::capacity).sum::<usize>() + self.phase.capacity();
        self.served_bytes
            + self.ops.vecs().map(|v| v.capacity() * 8).sum::<usize>()
            + (self.steal.capacity() + self.times.capacity() + usizes) * 8
            + self.sids.capacity() * size_of::<Option<SessionId>>()
            + self.errors.iter().map(|e| e.capacity()).sum::<usize>()
            + self.errors.capacity() * size_of::<String>()
    }

    /// Generator-only work between program calls (see `alloc::off_peak`),
    /// declaring the generator's growth when it is done.
    fn off_peak<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        alloc::off_peak(|| {
            let r = f(self);
            let growth = self.generator_heap().checked_sub(self.generator_base);
            alloc::set_generator(growth.expect("generator buffers only grow"));
            r
        })
    }

    /// Program heap now, above the fleet-start baseline.
    pub fn program_heap(&self) -> f64 {
        alloc::live() as f64 - self.heap_base as f64
    }

    /// Peak program heap since the fleet started, above the same baseline.
    pub fn peak_program_heap(&self) -> f64 {
        alloc::peak() as f64 - self.heap_base as f64
    }

    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Slot `s`'s offset in the calc/approx schedule after warm-up.
    pub fn phase(&self, s: usize) -> usize {
        self.phase[s]
    }

    /// Slots of frame `f` in sweep order, into `out`.
    pub fn fill_frame_slots(&self, f: usize, out: &mut Vec<usize>) {
        out.clear();
        if self.spec.per_shard {
            let k = self.spec.frame / SHARDS;
            for l in &self.shard_lists {
                out.extend((0..k).map(|j| l[(f * k + j) % l.len()]));
            }
        } else {
            let start = (f % self.spec.frames_per_sweep()) * self.spec.frame;
            out.extend(start..start + self.spec.frame);
        }
    }

    pub fn frame_slots(&self, f: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.spec.frame);
        self.fill_frame_slots(f, &mut out);
        out
    }

    /// The `(id, measurement)` entries of a frame over `slots`, into `out`.
    pub fn fill_entries(&self, slots: &[usize], out: &mut Vec<(u64, &'a [f64])>) {
        let inputs = self.inputs;
        out.clear();
        out.extend(slots.iter().map(|&s| {
            let slot = &self.slots[s];
            (slot.id, inputs.z(slot, slot.steps as usize))
        }));
    }

    /// Pushes one frame through the ingest client and checks every reply.
    /// Returns the round-trip time when every entry came back `Ok`.
    pub fn push_frame(&mut self, slots: &[usize]) -> Option<f64> {
        let mut batch = std::mem::take(&mut self.batch_buf);
        self.fill_entries(slots, &mut batch);
        let (res, dt) = timed(|| self.client.push(&batch));
        let n = batch.len();
        self.batch_buf = batch;
        self.off_peak(|b| b.check_frame(slots, n, res).then_some(dt))
    }

    /// Counts a frame's outcomes and records the sampled states; `true`
    /// when every entry came back `Ok`.
    fn check_frame(
        &mut self,
        slots: &[usize],
        n: usize,
        res: Result<Vec<BatchOutcome>, IngestError>,
    ) -> bool {
        self.counts.frames += 1;
        self.counts.entries += n;
        let outcomes = match res {
            Ok(outcomes) => outcomes,
            Err(e) => {
                self.counts.frames_failed += 1;
                self.counts.entries_failed += n;
                self.fail(format!("frame push: {e}"));
                return false;
            }
        };
        let mut all_ok = true;
        for (&s, o) in slots.iter().zip(&outcomes) {
            let slot = self.slots[s];
            if o.id != slot.id || o.status != EntryStatus::Ok || o.state.len() != slot.kind.dims().0
            {
                all_ok = false;
                self.counts.entries_failed += 1;
                self.fail(format!(
                    "session {} ({:?}): {:?}",
                    slot.id, slot.kind, o.status
                ));
                continue;
            }
            let si = self.sample_of[s];
            if si != NO_SAMPLE {
                let sample = &mut self.samples[si as usize];
                if sample.served.len() < sample.limit {
                    let cap = sample.served.capacity();
                    let state = o.state.clone();
                    let bytes = state.capacity() * 8;
                    sample.served.push(state);
                    let grown = sample.served.capacity() - cap;
                    self.served_bytes += bytes + grown * std::mem::size_of::<Vec<f64>>();
                }
            }
            self.slots[s].steps += 1;
        }
        if !all_ok {
            self.counts.frames_failed += 1;
        }
        all_ok
    }

    /// Staggered warm-up: session `s` takes `CALC_FREQ + phase[s]` steps,
    /// so sessions sit at every phase of the calc/approx schedule and each
    /// frame carries the same mix. The staggered rounds go out in frames of
    /// up to `WARM_CHUNK` entries; then `WARM_FRAMES` ordinary frames.
    pub fn warm_up(&mut self) {
        let cf = CALC_FREQ as usize;
        let mut part = std::mem::take(&mut self.slot_buf);
        for round in 0..2 * cf - 1 {
            part.clear();
            part.extend((0..self.slots.len()).filter(|&s| round < cf + self.phase[s]));
            for chunk in part.chunks(self.spec.frame.max(WARM_CHUNK)) {
                self.push_frame(chunk);
            }
        }
        self.slot_buf = part;
        for _ in 0..WARM_FRAMES {
            self.next_frame();
        }
    }

    fn next_frame(&mut self) -> Option<f64> {
        let mut slots = std::mem::take(&mut self.slot_buf);
        self.fill_frame_slots(self.frame_no, &mut slots);
        self.frame_no += 1;
        let dt = self.push_frame(&slots);
        self.slot_buf = slots;
        dt
    }

    /// The closed loop: frame after frame for `secs` seconds, keeping each
    /// frame's round-trip time in `times`. On an in-loop churn workload, a
    /// lifecycle round runs after each of the first sweeps (outside the
    /// frame timings).
    pub fn serve(&mut self, secs: f64) {
        self.times.clear();
        self.steal.clear();
        let rounds = match self.spec.churn {
            Churn::InLoop { rounds } => rounds,
            Churn::AfterLoop { .. } => 0,
        };
        let start = Instant::now();
        let mut mark = self.off_peak(|_| cpu_ticks());
        while start.elapsed().as_secs_f64() < secs {
            if let Some(dt) = self.next_frame() {
                self.off_peak(|b| {
                    b.times.push(dt);
                    if b.times.len().is_multiple_of(WINDOW_FRAMES) {
                        let now = cpu_ticks();
                        b.steal.push(stolen(mark, now));
                        mark = now;
                    }
                });
            }
            if self.ops.rounds < rounds
                && self.frame_no.is_multiple_of(self.spec.frames_per_sweep())
            {
                self.lifecycle_round();
                mark = self.off_peak(|_| cpu_ticks());
            }
        }
    }

    /// Serves every gated sample once more, so moved and restored
    /// sessions are served again before the gate replays them.
    pub fn serve_samples(&mut self) {
        let fps = self.spec.frames_per_sweep();
        for f in 0..fps {
            let slots = self.frame_slots(f);
            let gated = |s: usize| {
                let i = self.sample_of[s];
                i != NO_SAMPLE && self.samples[i as usize].gated()
            };
            if slots.iter().any(|&s| gated(s)) {
                self.push_frame(&slots);
            }
        }
    }

    /// Resolves every seated session's `SessionId` through the banks'
    /// `ids()`: generator work, kept off the peak.
    fn refresh_sids(&mut self) {
        self.off_peak(|b| {
            for shard in 0..SHARDS {
                for sid in b.fleet.with_bank(shard, |bank| bank.ids()) {
                    let i = sid.as_u64() as usize;
                    if i >= b.sids.len() {
                        b.sids.resize(i + 1, None);
                    }
                    b.sids[i] = Some(sid);
                }
            }
        });
    }

    /// The bank-level id of fleet session `id`.
    pub fn sid(&mut self, id: u64) -> Option<SessionId> {
        let known = |sids: &[Option<SessionId>]| sids.get(id as usize).copied().flatten();
        if known(&self.sids).is_none() {
            self.refresh_sids();
        }
        known(&self.sids)
    }

    fn next_candidate(&mut self, kind: Kind, op: Op) -> usize {
        let (list, cursor) = self
            .candidates
            .get_mut(&(kind, op))
            .expect("every round entry has candidates");
        let s = list[*cursor % list.len()];
        *cursor += 1;
        s
    }

    /// One lifecycle round: the spec's calls, each timed on its own.
    pub fn lifecycle_round(&mut self) {
        let spec = self.spec;
        for &(kind, op, count) in &spec.round {
            for _ in 0..count {
                let s = self.next_candidate(kind, op);
                let result = match op {
                    Op::Replace => self.replace(s),
                    Op::Rebalance => self.rebalance(s),
                    Op::Snapshot => self.snapshot(s).map(|(_, dt)| dt),
                    Op::Restore => self.restore(s),
                };
                self.counts.lifecycle += op.calls();
                match result {
                    Ok(dt) => self.ops.by_kind.entry((kind, op)).or_default().push(dt),
                    Err(e) => {
                        self.counts.lifecycle_failed += 1;
                        self.fail(format!("{op:?} on {kind:?}: {e}"));
                    }
                }
            }
        }
        self.ops.rounds += 1;
        // Declares any growth of the generator's buffers.
        self.off_peak(|_| ());
    }

    fn remove(&mut self, s: usize) -> Result<f64, String> {
        let id = self.slots[s].id;
        let sid = self.sid(id).ok_or(format!("no bank id for {id}"))?;
        let shard = self.fleet.shard_of(id);
        let (removed, dt) = timed(|| self.fleet.with_bank(shard, |b| b.remove(sid)));
        removed.ok_or(format!("remove {id}: not in shard {shard}"))?;
        self.ops.remove.push(dt);
        Ok(dt)
    }

    fn replace(&mut self, s: usize) -> Result<f64, String> {
        let removed = self.remove(s)?;
        // An accuracy sample keeps the prefix its first session was served.
        if let Some(sample) = self.samples.get_mut(self.sample_of[s] as usize) {
            sample.limit = sample.served.len();
        }
        let cold = self.inputs.cold(&self.slots[s], &mut self.rng);
        let (id, added) = timed(|| self.models.with_filter(&cold, AddTo(&self.fleet)));
        self.ops.insert.push(added);
        self.slots[s] = Slot { id, ..cold };
        Ok(removed + added)
    }

    fn rebalance(&mut self, s: usize) -> Result<f64, String> {
        let id = self.slots[s].id;
        let target = (self.fleet.shard_of(id) + 1) % SHARDS;
        let (r, dt) = timed(|| self.fleet.rebalance(id, target));
        r.map_err(|e| format!("rebalance {id}: {e}"))?;
        self.ops.rebalance.push(dt);
        Ok(dt)
    }

    fn snapshot(&mut self, s: usize) -> Result<(String, f64), String> {
        let id = self.slots[s].id;
        let sid = self.sid(id).ok_or(format!("no bank id for {id}"))?;
        let shard = self.fleet.shard_of(id);
        let (r, dt) = timed(|| self.fleet.with_bank(shard, |b| b.snapshot_session(sid)));
        let json = r.map_err(|e| format!("snapshot {id}: {e}"))?;
        self.ops.snapshot.push(dt);
        self.ops.snapshot_bytes.push(json.len() as f64);
        Ok((json, dt))
    }

    fn restore(&mut self, s: usize) -> Result<f64, String> {
        let (json, snapped) = self.snapshot(s)?;
        let removed = self.remove(s)?;
        let id = self.slots[s].id;
        let shard = self.fleet.shard_of(id);
        let (r, dt) = timed(|| self.fleet.with_bank(shard, |b| b.restore_session(&json)));
        let sid = r.map_err(|e| format!("restore {id}: {e}"))?;
        self.sids[id as usize] = Some(sid);
        self.ops.restore.push(dt);
        Ok(snapped + removed + dt)
    }

    /// Replays every gate sample in process through `KalmanFilter::step`
    /// and requires the served states to match to the bit; scores every
    /// scored sample's first `acc_steps` against the f64 LU reference.
    pub fn gate(&self) -> GateReport {
        let mut mismatches = Vec::new();
        let mut diffs = Vec::new();
        let mut checked_steps = 0;
        for sample in &self.samples {
            let slot = &sample.origin;
            let zs: Vec<&[f64]> = (0..sample.served.len())
                .map(|t| self.inputs.z(slot, t))
                .collect();
            if sample.gated() {
                let replay = Replay {
                    zs: &zs,
                    served: &sample.served,
                };
                match self.models.with_filter(slot, replay) {
                    Ok(()) => checked_steps += zs.len(),
                    Err(e) => mismatches.push(format!(
                        "session {} ({:?}): {e}",
                        self.slots[sample.slot].id, slot.kind
                    )),
                }
            }
            if slot.kind.scored() && !zs.is_empty() {
                let n = self.spec.acc_steps.min(zs.len());
                let (model, init) = self.models.reference_parts(slot);
                let measurements: Vec<Vector<f64>> =
                    zs[..n].iter().map(|z| Vector::from_slice(z)).collect();
                let served: Vec<Vector<f64>> = sample.served[..n]
                    .iter()
                    .map(|x| Vector::from_slice(x))
                    .collect();
                match reference_filter(model, &init, &measurements) {
                    Ok(reference) => diffs.push(compare(&served, &reference).max_diff_pct),
                    Err(e) => mismatches.push(format!("reference for slot {}: {e}", sample.slot)),
                }
            }
        }
        if diffs.is_empty() {
            mismatches.push("no scored sample was served".to_string());
        }
        GateReport {
            mismatches,
            checked_steps,
            max_diff_pct: if diffs.is_empty() {
                f64::NAN
            } else {
                median(&diffs)
            },
            scored: diffs.len(),
        }
    }
}

/// The recorded sessions. Gate samples: one slot of every kind the
/// workload runs, then seeded picks up to `spec.sample`. Accuracy samples:
/// seeded picks among the scored kinds up to `spec.acc_sample` (gate
/// samples of those kinds count), recording `acc_steps` each.
fn choose_samples(spec: &Spec, slots: &[Slot], rng: &mut Rng) -> (Vec<Sample>, Vec<u32>) {
    let mut order: Vec<usize> = (0..spec.sessions).collect();
    rng.shuffle(&mut order);
    let mut gated: Vec<usize> = Vec::with_capacity(spec.sample);
    let mut kinds: Vec<Kind> = spec.pattern.clone();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        if let Some(&s) = order.iter().find(|&&s| spec.kind_of(s) == kind) {
            gated.push(s);
        }
    }
    for &s in &order {
        if gated.len() >= spec.sample {
            break;
        }
        if !gated.contains(&s) {
            gated.push(s);
        }
    }
    let mut picked: Vec<(usize, usize)> = gated.iter().map(|&s| (s, usize::MAX)).collect();
    let mut scored = gated.iter().filter(|&&s| spec.kind_of(s).scored()).count();
    for &s in &order {
        if scored >= spec.acc_sample {
            break;
        }
        if spec.kind_of(s).scored() && !gated.contains(&s) {
            picked.push((s, spec.acc_steps));
            scored += 1;
        }
    }
    let mut sample_of = vec![NO_SAMPLE; spec.sessions];
    let samples = picked
        .iter()
        .enumerate()
        .map(|(i, &(slot, limit))| {
            sample_of[slot] = i as u32;
            Sample {
                slot,
                origin: slots[slot],
                served: Vec::new(),
                limit,
            }
        })
        .collect();
    (samples, sample_of)
}

/// Lifecycle targets: replacements never touch a gate sample (its history
/// would restart); moves and restores take the gate samples first, so the
/// gate covers sessions that were rebalanced and restored.
fn choose_candidates(
    spec: &Spec,
    gated: &[bool],
    rng: &mut Rng,
) -> BTreeMap<(Kind, Op), (Vec<usize>, usize)> {
    let mut out = BTreeMap::new();
    for &(kind, op, _) in &spec.round {
        assert!(
            op == Op::Replace || kind.snapshots(),
            "{kind:?} cannot snapshot"
        );
        let mut rest: Vec<usize> = (0..spec.sessions)
            .filter(|&s| spec.kind_of(s) == kind && !gated[s])
            .collect();
        rng.shuffle(&mut rest);
        let list = match op {
            Op::Replace => rest,
            _ => {
                let mut list: Vec<usize> = (0..spec.sessions)
                    .filter(|&s| spec.kind_of(s) == kind && gated[s])
                    .collect();
                list.extend(rest);
                list
            }
        };
        assert!(!list.is_empty(), "no {kind:?} session for {op:?}");
        out.insert((kind, op), (list, 0));
    }
    out
}
