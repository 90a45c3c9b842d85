//! The traced pass: the same frames replayed down the stack, one level
//! after another within each frame, each call timed from outside.
//!
//! 1. `IngestClient::push` — the whole wire round trip;
//! 2. `Fleet::push_batch` — routing, shard queues, workers, outcomes;
//! 3. `FilterBank::step_batch` on each shard's bank, one shard at a time;
//! 4. `SessionBackend::step` on detached sessions from the same
//!    constructors (health monitor and flight recorder included) — for the
//!    kinds the bank keeps in its typed pools, the body of that call,
//!    `SmallSessionCore::step_with`, on bare cores;
//! 5. the bare kernel: `SmallSessionCore::step_raw`,
//!    `SmallFilterSession::step_raw` or `KalmanFilter::step_with`.
//!
//! Levels 4 and 5 store every kind as the bank does: typed-pool cores share
//! one step scratch per shard, as they share one per bank worker, so the
//! detached levels touch the same memory per step as the bank.
//!
//! Level 2 runs the shards concurrently, so levels 3–5 are timed per
//! shard and a frame's time at those levels is its slowest shard's: every
//! level is then a critical-path time and the levels nest. A layer's self
//! time is its level's median minus the next level's.

use std::time::Instant;

use kalmmind::StepOutcome;
use kalmmind_runtime::SessionId;

use crate::serve::{secs, Bench, SHARDS};
use crate::spans::Recorder;
use crate::stats::{median, self_times};
use crate::workload::{DetachedSession, Kernel, Scratch, CALC_FREQ};

/// Per-frame level times (seconds) and the kernel split, as measured.
#[derive(Debug, Default)]
pub struct LevelTimes {
    /// `levels[i][f]`: level `i + 1` time of traced frame `f`.
    pub levels: [Vec<f64>; 5],
    /// Per frame: seconds per calc step and per approx step at level 5.
    pub calc_step: Vec<f64>,
    pub approx_step: Vec<f64>,
    pub steps_per_frame: usize,
}

impl LevelTimes {
    /// Median of each level, in µs per step.
    pub fn level_us_per_step(&self) -> [f64; 5] {
        let n = self.steps_per_frame as f64;
        std::array::from_fn(|i| 1e6 * median(&self.levels[i]) / n)
    }

    /// Self time of each layer (ingest, fleet, bank, session, kernel) in
    /// µs per step; they sum to the level-1 time.
    pub fn self_us_per_step(&self) -> Vec<f64> {
        self_times(&self.level_us_per_step())
    }
}

/// Detached sessions of level 4 and kernels of level 5, one per detached
/// slot, built from the constructors of slots `0..spec.detached` and
/// brought to those slots' staggered schedule phases, and one
/// shared scratch per shard.
struct DetachedPool {
    sessions: Vec<DetachedSession>,
    kernels: Vec<Kernel>,
    scratch: [Scratch; SHARDS],
}

impl DetachedPool {
    fn new(bench: &Bench) -> Self {
        let cf = CALC_FREQ as usize;
        let mut sessions = Vec::with_capacity(bench.spec.detached);
        let mut kernels = Vec::with_capacity(bench.spec.detached);
        let mut scratch: [Scratch; SHARDS] = Default::default();
        let ws = &mut scratch[0];
        for d in 0..bench.spec.detached {
            let slot = &bench.slots[d];
            let mut session = bench.models.detached(slot);
            let mut kernel = bench.models.kernel(slot);
            for t in 0..cf + bench.phase(d) {
                let z = bench.inputs.z(slot, t);
                session.step(z, ws).expect("detached warm-up step");
                kernel.step(z, ws).expect("kernel warm-up step");
            }
            sessions.push(session);
            kernels.push(kernel);
        }
        Self {
            sessions,
            kernels,
            scratch,
        }
    }
}

/// Runs the traced pass for `secs` seconds. Every entry at every level
/// must succeed; failures are counted on the bench like any other.
pub fn traced_pass(bench: &mut Bench, run_secs: f64, rec: &mut Recorder) -> LevelTimes {
    let mut pool = DetachedPool::new(bench);
    let mut out = LevelTimes {
        steps_per_frame: bench.spec.frame,
        ..LevelTimes::default()
    };
    let dcap = bench.spec.detached;
    let start = Instant::now();
    let mut frame_id: u64 = 0;
    while secs(start) < run_secs {
        frame_id += 1;
        let slots = bench.frame_slots(frame_id as usize - 1);
        let mut batch = Vec::with_capacity(slots.len());
        bench.fill_entries(&slots, &mut batch);
        let owned: Vec<(u64, Vec<f64>)> = batch.iter().map(|&(id, z)| (id, z.to_vec())).collect();
        // Per-shard partitions: bank ids for level 3, detached indices
        // for levels 4 and 5.
        let mut by_shard: [Vec<(SessionId, &[f64])>; SHARDS] = Default::default();
        let mut detached: [Vec<(usize, &[f64])>; SHARDS] = Default::default();
        for (&s, &(id, z)) in slots.iter().zip(&batch) {
            let shard = bench.fleet.shard_of(id);
            let sid = bench.sid(id).expect("every served session has a bank id");
            by_shard[shard].push((sid, z));
            detached[shard].push((s % dcap, z));
        }
        bench.counts.frames += 2;
        bench.counts.entries += 2 * batch.len();

        let t_frame = Instant::now();
        let root = rec.record("frame", t_frame, t_frame, 0, frame_id);

        // Level 1: the wire.
        let t = Instant::now();
        let reply = bench.client.push(&batch);
        let t_end = Instant::now();
        rec.record("ingest.push", t, t_end, root, frame_id);
        out.levels[0].push((t_end - t).as_secs_f64());
        let ok1 = reply.map(|o| {
            o.iter()
                .all(|o| o.status == kalmmind_runtime::EntryStatus::Ok)
        });

        // Level 2: the fleet, in process.
        let t = Instant::now();
        let outcomes = bench.fleet.push_batch(owned);
        let t_end = Instant::now();
        rec.record("fleet.push_batch", t, t_end, root, frame_id);
        out.levels[1].push((t_end - t).as_secs_f64());
        let ok2 = outcomes
            .iter()
            .all(|o| o.status == kalmmind_runtime::EntryStatus::Ok);
        for (ok, level) in [(ok1.unwrap_or(false), 1), (ok2, 2)] {
            if !ok {
                bench.counts.frames_failed += 1;
                bench.counts.entries_failed += batch.len();
                bench.fail(format!("traced level {level}: an entry failed"));
            }
        }

        // Level 3: each shard's bank, one at a time.
        let mut l3 = 0.0f64;
        for (shard, sub) in by_shard.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let t = Instant::now();
            let report = bench.fleet.with_bank(shard, |b| b.step_batch(sub));
            let t_end = Instant::now();
            rec.record("bank.step_batch", t, t_end, root, frame_id);
            l3 = l3.max((t_end - t).as_secs_f64());
            if report.map(|r| r.steps) != Ok(sub.len()) {
                bench.counts.entries_failed += sub.len();
                bench.fail(format!("traced level 3: shard {shard} failed"));
            }
        }
        bench.counts.entries += batch.len();
        out.levels[2].push(l3);

        // Level 4: detached sessions.
        let mut l4 = 0.0f64;
        let mut failed = 0;
        for (part, ws) in detached.iter().zip(&mut pool.scratch) {
            if part.is_empty() {
                continue;
            }
            let t = Instant::now();
            for &(d, z) in part {
                if !matches!(pool.sessions[d].step(z, ws), Ok(StepOutcome::Ok)) {
                    failed += 1;
                }
            }
            let t_end = Instant::now();
            rec.record("session.step", t, t_end, root, frame_id);
            l4 = l4.max((t_end - t).as_secs_f64());
        }
        out.levels[3].push(l4);

        // Level 5: bare kernels, calc-path and approx-path steps timed
        // as two groups per shard.
        let mut l5 = 0.0f64;
        let (mut calc_s, mut calc_n, mut approx_s, mut approx_n) = (0.0, 0usize, 0.0, 0usize);
        for (part, ws) in detached.iter().zip(&mut pool.scratch) {
            let (calc, approx): (Vec<_>, Vec<_>) = part
                .iter()
                .partition(|&&(d, _)| pool.kernels[d].next_is_calc());
            let mut shard_time = 0.0;
            for (group, name) in [(calc, "kernel.calc"), (approx, "kernel.approx")] {
                if group.is_empty() {
                    continue;
                }
                let t = Instant::now();
                for &(d, z) in &group {
                    if pool.kernels[d].step(z, ws).is_err() {
                        failed += 1;
                    }
                }
                let t_end = Instant::now();
                rec.record(name, t, t_end, root, frame_id);
                let dt = (t_end - t).as_secs_f64();
                shard_time += dt;
                if name == "kernel.calc" {
                    calc_s += dt;
                    calc_n += group.len();
                } else {
                    approx_s += dt;
                    approx_n += group.len();
                }
            }
            l5 = l5.max(shard_time);
        }
        out.levels[4].push(l5);
        if calc_n > 0 {
            out.calc_step.push(calc_s / calc_n as f64);
        }
        if approx_n > 0 {
            out.approx_step.push(approx_s / approx_n as f64);
        }
        bench.counts.entries += 2 * batch.len();
        if failed > 0 {
            bench.counts.entries_failed += failed;
            bench.fail(format!("traced levels 4-5: {failed} steps failed"));
        }
        rec.set_end(root, Instant::now());
        for &s in &slots {
            bench.slots[s].steps += 1;
        }
    }
    out
}
