//! The three workloads: session kinds, seeded inputs, and the constructors
//! every level of the stack shares (fleet sessions, detached sessions,
//! bare kernels and the in-process replay all build from one filter).

use kalmmind::gain::{GainStrategy, InverseGain};
use kalmmind::inverse::{CalcInverse, CalcMethod, InterleavedInverse, InterleavedSpec, SeedPolicy};
use kalmmind::small::{try_small_session, SmallFilterSession, SmallSessionCore, SmallStepScratch};
use kalmmind::{
    FilterSession, KalmanFilter, KalmanModel, KalmanState, SessionBackend, StepOutcome,
    StepWorkspace,
};
use kalmmind_fixed::Q16_16;
use kalmmind_linalg::{Matrix, Scalar, Vector};
use kalmmind_neural::{presets, Dataset};

/// Calculation schedule of every interleaved session: Gauss every 4th
/// iteration, Newton–Schulz otherwise.
pub const CALC_FREQ: u32 = 4;
/// Newton–Schulz iterations on approximation steps, (2,3) sessions.
pub const X23_APPROX: usize = 2;
/// Newton–Schulz iterations on approximation steps, (6,46) sessions.
pub const Z46_APPROX: usize = 3;
/// Distinct (2,3) measurement traces; sessions share them at seeded offsets.
const X23_TRACES: usize = 256;
/// Length of each (2,3) trace: one period of its sinusoid, so wrapping
/// around continues the motion without a jump.
const X23_TRACE_LEN: usize = 256;
/// Length of each hippocampus test recording (steps wrap around it).
const Z46_RECORDING_LEN: usize = 1000;
/// The hippocampus recordings are a fixed catalogue — recording `r` is
/// generated from dataset seed `RECORDING_SEED_BASE + r` whatever the run
/// seed — because the accuracy of the approximation differs between
/// recordings by orders of magnitude; with a fixed catalogue,
/// `max_diff_pct` compares like with like across runs.
const RECORDING_SEED_BASE: u64 = 1000;
/// Measurement noise of the (2,3) traces: the model's `R = 0.2 I`.
const X23_NOISE_SD: f64 = 0.447_213_595_499_958;

/// What one session runs, which fixes its constructor, its store pool and
/// whether it can snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// (2,3) f64, interleaved: the typed inline pool.
    X23F64,
    /// (2,3) f32, interleaved: boxed in the overflow pool.
    X23F32,
    /// (2,3) Q16.16, interleaved: boxed in the overflow pool.
    X23Q16,
    /// (2,3) f64 with exact Gauss inversion every step: not interleaved,
    /// so the dynamic `software` backend, and it cannot snapshot.
    X23Gauss,
    /// (6,46) f64 hippocampus decoder, interleaved: the typed pool.
    Z46,
}

impl Kind {
    pub fn dims(self) -> (usize, usize) {
        match self {
            Kind::Z46 => (6, 46),
            _ => (2, 3),
        }
    }

    pub fn approx(self) -> usize {
        match self {
            Kind::Z46 => Z46_APPROX,
            Kind::X23Gauss => 0,
            _ => X23_APPROX,
        }
    }

    pub fn calc_freq(self) -> u32 {
        match self {
            Kind::X23Gauss => 1,
            _ => CALC_FREQ,
        }
    }

    pub fn snapshots(self) -> bool {
        self != Kind::X23Gauss
    }

    /// Interleaved f64 sessions: the ones scored against the reference.
    pub fn scored(self) -> bool {
        matches!(self, Kind::X23F64 | Kind::Z46)
    }
}

/// A lifecycle call kind, as the churn generator issues them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `remove` then `add_filter` of a cold session of the same kind.
    Replace,
    /// `Fleet::rebalance` to the other shard.
    Rebalance,
    /// `snapshot_session`.
    Snapshot,
    /// `snapshot_session`, `remove`, `restore_session`.
    Restore,
}

impl Op {
    /// Lifecycle calls one operation makes.
    pub fn calls(self) -> usize {
        match self {
            Op::Replace => 2,
            Op::Restore => 3,
            Op::Rebalance | Op::Snapshot => 1,
        }
    }
}

/// One workload: its traffic shape and the lifecycle mix of one round.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Whether the workload runs with the `obs` feature compiled in.
    pub obs: bool,
    pub sessions: usize,
    /// Entries per frame; divides `sessions`, so a sweep is whole frames.
    pub frame: usize,
    /// Frames take `frame / SHARDS` consecutive sessions from each shard's
    /// list instead of consecutive slots, so every frame splits evenly
    /// across shards.
    pub per_shard: bool,
    /// Slot `i` runs `pattern[i % pattern.len()]`; a frame holds whole
    /// periods, so every frame carries the same mix.
    pub pattern: Vec<Kind>,
    /// Distinct hippocampus recordings (and fitted models) for Z46 slots.
    pub recordings: usize,
    /// Sessions replayed bit-for-bit by the correctness gate.
    pub sample: usize,
    /// Interleaved f64 sessions scored against the reference.
    pub acc_sample: usize,
    /// Steps of each scored session compared against the reference.
    pub acc_steps: usize,
    /// Calls of one lifecycle round, by kind and operation.
    pub round: Vec<(Kind, Op, usize)>,
    /// When the lifecycle rounds run.
    pub churn: Churn,
    /// Detached sessions per level in the traced pass (a multiple of the
    /// pattern period, so slot `i` maps to a detached session of its kind).
    pub detached: usize,
}

/// When a workload's lifecycle rounds run. Every run makes the same number
/// of rounds, whatever the host's speed: churn changes the store's layout,
/// so a round count that followed the host's speed would feed the host's
/// noise back into the frame times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// One round after each of the first `rounds` sweeps while serving, so
    /// store writes run beside reads.
    InLoop { rounds: usize },
    /// `rounds` rounds back to back after the timed loop, which stays free
    /// of lifecycle calls; the rounds move and restore the gate samples
    /// before the gate replays them.
    AfterLoop { rounds: usize },
}

impl Spec {
    pub fn kind_of(&self, slot: usize) -> Kind {
        self.pattern[slot % self.pattern.len()]
    }

    pub fn frames_per_sweep(&self) -> usize {
        self.sessions / self.frame
    }
}

pub fn spec(name: &str) -> Option<Spec> {
    use Kind::*;
    use Op::*;
    Some(match name {
        "serve-x2z3" => Spec {
            name: "serve-x2z3",
            obs: false,
            sessions: 200_000,
            frame: 250,
            per_shard: false,
            pattern: vec![X23F64],
            recordings: 0,
            sample: 64,
            acc_sample: 1024,
            acc_steps: 12,
            round: vec![
                (X23F64, Replace, 64),
                (X23F64, Rebalance, 64),
                (X23F64, Snapshot, 64),
                (X23F64, Restore, 32),
            ],
            churn: Churn::AfterLoop { rounds: 40 },
            detached: 4000,
        },
        "decode-z46" => Spec {
            name: "decode-z46",
            obs: false,
            sessions: 32,
            frame: 8,
            per_shard: true,
            pattern: vec![Z46],
            recordings: 32,
            sample: 1,
            acc_sample: 32,
            acc_steps: 50,
            round: vec![
                (Z46, Replace, 1),
                (Z46, Rebalance, 2),
                (Z46, Snapshot, 2),
                (Z46, Restore, 1),
            ],
            churn: Churn::AfterLoop { rounds: 600 },
            detached: 32,
        },
        "churn-monitored" => {
            // Per 100 slots: 93 (2,3) f64, 2 each of f32, Q16.16 and
            // non-interleaved, 1 hippocampus decoder.
            let mut pattern = vec![X23F64; 100];
            for (i, kind) in [
                (0, Z46),
                (10, X23Gauss),
                (20, X23F32),
                (40, X23Q16),
                (60, X23Gauss),
                (70, X23F32),
                (90, X23Q16),
            ] {
                pattern[i] = kind;
            }
            Spec {
                name: "churn-monitored",
                obs: true,
                sessions: 20_000,
                frame: 200,
                per_shard: false,
                pattern,
                recordings: 8,
                sample: 24,
                acc_sample: 1024,
                acc_steps: 12,
                round: vec![
                    (X23F64, Replace, 16),
                    (X23F32, Replace, 1),
                    (X23Q16, Replace, 1),
                    (X23Gauss, Replace, 1),
                    (Z46, Replace, 1),
                    (X23F64, Rebalance, 16),
                    (X23F32, Rebalance, 1),
                    (X23Q16, Rebalance, 1),
                    (Z46, Rebalance, 1),
                    (X23F64, Snapshot, 16),
                    (X23F32, Snapshot, 1),
                    (X23Q16, Snapshot, 1),
                    (Z46, Snapshot, 1),
                    (X23F64, Restore, 8),
                    (X23F32, Restore, 1),
                    (X23Q16, Restore, 1),
                ],
                churn: Churn::InLoop { rounds: 48 },
                detached: 4000,
            }
        }
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 3] = ["serve-x2z3", "decode-z46", "churn-monitored"];

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One session's place in the generator: what it runs, which input it
/// reads, its current fleet id and how many steps it has been served.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub kind: Kind,
    /// Trace (2,3) or recording (6,46) index.
    pub source: u32,
    /// Starting position in that input.
    pub offset: u32,
    pub id: u64,
    pub steps: u32,
}

/// Every measurement the run will send, generated from the seed before
/// anything is timed.
#[derive(Debug)]
pub struct Inputs {
    /// `X23_TRACES` traces × `X23_TRACE_LEN` steps × 3 channels.
    x23: Vec<f64>,
    /// Hippocampus datasets: train split for the fit, test split replayed.
    pub recordings: Vec<Dataset>,
}

impl Inputs {
    pub fn generate(spec: &Spec, rng: &mut Rng) -> Self {
        // Each trace is a noisy observation of one period of a sinusoidal
        // (position, velocity) track that the constant-velocity model
        // follows within its process noise.
        let mut x23 = Vec::with_capacity(X23_TRACES * X23_TRACE_LEN * 3);
        for _ in 0..X23_TRACES {
            let amp = 0.5 + 1.5 * rng.unit();
            let cycles = 1 + rng.below(3);
            let phase = std::f64::consts::TAU * rng.unit();
            let w = std::f64::consts::TAU * cycles as f64 / X23_TRACE_LEN as f64;
            for t in 0..X23_TRACE_LEN {
                let arg = w * t as f64 + phase;
                let pos = amp * arg.sin();
                let vel = amp * w / 0.1 * arg.cos();
                x23.push(pos + X23_NOISE_SD * rng.normal());
                x23.push(vel + X23_NOISE_SD * rng.normal());
                x23.push(pos + vel + X23_NOISE_SD * rng.normal());
            }
        }
        let recordings = (0..spec.recordings)
            .map(|r| {
                let mut ds = presets::hippocampus(RECORDING_SEED_BASE + r as u64);
                ds.test_len = Z46_RECORDING_LEN;
                ds.generate().expect("hippocampus preset generates")
            })
            .collect();
        Self { x23, recordings }
    }

    /// The measurement `slot` receives on its `t`-th step.
    pub fn z(&self, slot: &Slot, t: usize) -> &[f64] {
        let at = slot.offset as usize + t;
        match slot.kind {
            Kind::Z46 => {
                let rec = self.recordings[slot.source as usize].test_measurements();
                rec[at % rec.len()].as_slice()
            }
            _ => {
                let i = (slot.source as usize * X23_TRACE_LEN + at % X23_TRACE_LEN) * 3;
                &self.x23[i..i + 3]
            }
        }
    }

    fn input_len(&self, kind: Kind) -> usize {
        match kind {
            Kind::Z46 => Z46_RECORDING_LEN,
            _ => X23_TRACE_LEN,
        }
    }

    /// The slot table: kinds by pattern, inputs spread over sources at
    /// seeded offsets (ids are filled in when sessions are seated).
    pub fn slots(&self, spec: &Spec, rng: &mut Rng) -> Vec<Slot> {
        let mut ordinal = [0u32; 5];
        (0..spec.sessions)
            .map(|i| {
                let kind = spec.kind_of(i);
                let n = &mut ordinal[kind as usize];
                let sources = match kind {
                    Kind::Z46 => spec.recordings as u32,
                    _ => X23_TRACES as u32,
                };
                let source = *n % sources;
                *n += 1;
                // Decoders start at the beginning of their recording (the
                // paper's protocol), so `max_diff_pct` on the fixed
                // catalogue does not depend on the seed.
                let offset = match kind {
                    Kind::Z46 => 0,
                    _ => rng.below(self.input_len(kind)) as u32,
                };
                Slot {
                    kind,
                    source,
                    offset,
                    id: 0,
                    steps: 0,
                }
            })
            .collect()
    }

    /// A cold replacement for `slot`: same kind and source, fresh offset.
    pub fn cold(&self, slot: &Slot, rng: &mut Rng) -> Slot {
        Slot {
            offset: rng.below(self.input_len(slot.kind)) as u32,
            id: 0,
            steps: 0,
            ..*slot
        }
    }
}

/// The shared (2,3) model: constant velocity observed through position,
/// velocity and their sum.
fn x23_model() -> KalmanModel<f64> {
    KalmanModel::new(
        Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).expect("F"),
        Matrix::identity(2).scale(1e-3),
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).expect("H"),
        Matrix::identity(3).scale(0.2),
    )
    .expect("x23 model")
}

/// Models and initial states: the set-up's "fit" step.
#[derive(Debug)]
pub struct Models {
    x23: KalmanModel<f64>,
    x23_f32: KalmanModel<f32>,
    x23_q16: KalmanModel<Q16_16>,
    /// Per recording: the fitted model and the ground-truth kinematics a
    /// session starting at a given offset takes as its initial state.
    z46: Vec<(KalmanModel<f64>, Vec<Vector<f64>>)>,
}

/// Something built from a session's filter, whatever its scalar and gain
/// type: a fleet session, a detached session, or a replay.
pub trait Build {
    type Out;
    fn build<T: Scalar, G: GainStrategy<T> + 'static>(
        self,
        filter: KalmanFilter<T, G>,
    ) -> Self::Out;
}

fn interleaved<T: Scalar>(
    model: KalmanModel<T>,
    init: KalmanState<T>,
    approx: usize,
) -> KalmanFilter<T, InverseGain<InterleavedInverse<T>>> {
    let inverse = InterleavedInverse::new(
        CalcMethod::Gauss,
        approx,
        CALC_FREQ,
        SeedPolicy::LastCalculated,
    );
    KalmanFilter::new(model, init, InverseGain::new(inverse))
}

fn spec_of(kind: Kind) -> InterleavedSpec {
    InterleavedSpec {
        calc: CalcMethod::Gauss,
        approx: kind.approx(),
        calc_freq: CALC_FREQ,
        policy: SeedPolicy::LastCalculated,
    }
}

impl Models {
    pub fn fit(inputs: &Inputs) -> Self {
        let x23 = x23_model();
        Self {
            x23_f32: x23.cast(),
            x23_q16: x23.cast(),
            x23,
            z46: inputs
                .recordings
                .iter()
                .map(|ds| {
                    let model = ds.fit_model().expect("hippocampus model fits");
                    (model, ds.test_states().to_vec())
                })
                .collect(),
        }
    }

    /// The initial state of `slot`: (2,3) sessions start at rest with unit
    /// covariance; a decoder starts from the kinematics at its offset in
    /// the recording with the customary `0.01 I` covariance (as
    /// `Dataset::initial_state` does at offset 0).
    fn init(&self, slot: &Slot) -> KalmanState<f64> {
        match slot.kind {
            Kind::Z46 => {
                let states = &self.z46[slot.source as usize].1;
                let x0 = states[slot.offset as usize % states.len()].clone();
                KalmanState::new(x0, Matrix::identity(6).scale(0.01))
            }
            _ => KalmanState::zeroed(2),
        }
    }

    fn z46_model(&self, slot: &Slot) -> &KalmanModel<f64> {
        &self.z46[slot.source as usize].0
    }

    /// Builds the filter of `slot` (fresh, iteration 0) and hands it to `b`.
    pub fn with_filter<B: Build>(&self, slot: &Slot, b: B) -> B::Out {
        let init = self.init(slot);
        match slot.kind {
            Kind::X23F64 => b.build(interleaved(self.x23.clone(), init, X23_APPROX)),
            Kind::X23F32 => b.build(interleaved(self.x23_f32.clone(), init.cast(), X23_APPROX)),
            Kind::X23Q16 => b.build(interleaved(self.x23_q16.clone(), init.cast(), X23_APPROX)),
            Kind::X23Gauss => b.build(KalmanFilter::gauss(self.x23.clone(), init)),
            Kind::Z46 => b.build(interleaved(self.z46_model(slot).clone(), init, Z46_APPROX)),
        }
    }

    /// The f64 model and initial state the reference filter runs for `slot`.
    pub fn reference_parts(&self, slot: &Slot) -> (&KalmanModel<f64>, KalmanState<f64>) {
        let model = match slot.kind {
            Kind::Z46 => self.z46_model(slot),
            _ => &self.x23,
        };
        (model, self.init(slot))
    }

    /// The monomorphized session of a mono-shaped `slot`.
    fn mono<T: Scalar, const X: usize, const Z: usize>(
        &self,
        model: &KalmanModel<T>,
        init: &KalmanState<T>,
        slot: &Slot,
    ) -> SmallFilterSession<T, X, Z> {
        SmallFilterSession::from_parts(model, init, spec_of(slot.kind)).expect("mono session")
    }

    /// The level-4 session of `slot`, stored the way the bank stores its
    /// kind: a bare core for the typed-pool kinds, boxed otherwise.
    pub fn detached(&self, slot: &Slot) -> DetachedSession {
        let init = self.init(slot);
        match slot.kind {
            Kind::X23F64 => DetachedSession::X23(self.mono(&self.x23, &init, slot).into_core()),
            Kind::Z46 => DetachedSession::Z46(Box::new(
                self.mono(self.z46_model(slot), &init, slot).into_core(),
            )),
            _ => DetachedSession::Boxed(self.with_filter(slot, Boxed)),
        }
    }

    /// The bare kernel for `slot`: the monomorphized session stepped
    /// through `step_raw`, or the dynamic filter through `step_with`.
    pub fn kernel(&self, slot: &Slot) -> Kernel {
        let init = self.init(slot);
        match slot.kind {
            Kind::X23F64 => Kernel::X23F64(self.mono(&self.x23, &init, slot).into_core()),
            Kind::X23F32 => Kernel::X23F32(self.mono(&self.x23_f32, &init.cast(), slot)),
            Kind::X23Q16 => Kernel::X23Q16(self.mono(&self.x23_q16, &init.cast(), slot)),
            Kind::X23Gauss => {
                let kf = KalmanFilter::gauss(self.x23.clone(), init);
                let ws = kf.workspace();
                Kernel::Gauss(Box::new((kf, ws, Vector::zeros(3))))
            }
            Kind::Z46 => Kernel::Z46(Box::new(
                self.mono(self.z46_model(slot), &init, slot).into_core(),
            )),
        }
    }
}

/// Seats the filter on the fleet exactly as a serving caller would.
pub struct AddTo<'a>(pub &'a kalmmind_runtime::Fleet);

impl Build for AddTo<'_> {
    type Out = u64;
    fn build<T: Scalar, G: GainStrategy<T> + 'static>(self, filter: KalmanFilter<T, G>) -> u64 {
        self.0.add_filter(filter)
    }
}

/// A boxed session from the same constructor the fleet uses.
pub struct Boxed;

impl Build for Boxed {
    type Out = Box<dyn SessionBackend>;
    fn build<T: Scalar, G: GainStrategy<T> + 'static>(
        self,
        filter: KalmanFilter<T, G>,
    ) -> Box<dyn SessionBackend> {
        match try_small_session(filter) {
            Ok(backend) => backend,
            Err(filter) => Box::new(FilterSession::new(filter)),
        }
    }
}

/// In-process replay through the public `KalmanFilter::step`: the served
/// states must match it to the bit.
pub struct Replay<'a> {
    pub zs: &'a [&'a [f64]],
    pub served: &'a [Vec<f64>],
}

impl Build for Replay<'_> {
    type Out = Result<(), String>;
    fn build<T: Scalar, G: GainStrategy<T> + 'static>(
        self,
        mut filter: KalmanFilter<T, G>,
    ) -> Result<(), String> {
        for (t, (z, served)) in self.zs.iter().zip(self.served).enumerate() {
            let z = Vector::from_vec(z.iter().map(|&v| T::from_f64(v)).collect());
            let state = filter
                .step(&z)
                .map_err(|e| format!("replay step {t}: {e}"))?;
            let same = state.x().len() == served.len()
                && state
                    .x()
                    .iter()
                    .zip(served)
                    .all(|(a, b)| a.to_f64().to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "step {t}: served {served:?}, replay {:?}",
                    state.x()
                ));
            }
        }
        Ok(())
    }
}

/// One step scratch per shape of the bank's typed pools, shared by the
/// detached cores of one shard the way a bank worker shares its own.
#[derive(Debug, Default)]
pub struct Scratch {
    x23: SmallStepScratch<f64, 2, 3>,
    z46: Box<SmallStepScratch<f64, 6, 46>>,
}

/// Level 4 of the traced pass, one per detached slot: the typed-pool kinds
/// as bare cores stepped through `SmallSessionCore::step_with` (the body of
/// their `SessionBackend::step`) with the shard's shared scratch, the other
/// kinds boxed and stepped through `SessionBackend::step`, as the bank's
/// overflow pool holds them. Cores sit inline, contiguous in the pool's
/// `Vec` as in the typed pool, so the variants differ in size.
#[allow(clippy::large_enum_variant)]
pub enum DetachedSession {
    X23(SmallSessionCore<f64, 2, 3>),
    Z46(Box<SmallSessionCore<f64, 6, 46>>),
    Boxed(Box<dyn SessionBackend>),
}

impl DetachedSession {
    pub fn step(&mut self, z: &[f64], ws: &mut Scratch) -> kalmmind::Result<StepOutcome> {
        match self {
            DetachedSession::X23(c) => c.step_with(z, &mut ws.x23),
            DetachedSession::Z46(c) => c.step_with(z, &mut ws.z46),
            DetachedSession::Boxed(s) => s.step(z),
        }
    }
}

/// A non-interleaved filter with its workspace and measurement buffer.
type GaussKernel = (
    KalmanFilter<f64, InverseGain<CalcInverse>>,
    StepWorkspace<f64>,
    Vector<f64>,
);

/// The innermost level of the traced pass: one bare kernel per detached
/// slot, concrete types so the call is what the session wrapper calls.
/// Typed-pool kinds step through the shard's shared scratch; the boxed
/// monomorphized kinds through their own, as in the overflow pool.
#[derive(Debug)]
pub enum Kernel {
    X23F64(SmallSessionCore<f64, 2, 3>),
    X23F32(SmallFilterSession<f32, 2, 3>),
    X23Q16(SmallFilterSession<Q16_16, 2, 3>),
    Gauss(Box<GaussKernel>),
    Z46(Box<SmallSessionCore<f64, 6, 46>>),
}

impl Kernel {
    /// `true` when the next step takes the calculation path.
    pub fn next_is_calc(&self) -> bool {
        let iteration = match self {
            Kernel::X23F64(c) => c.iterations(),
            Kernel::X23F32(s) => s.iteration(),
            Kernel::X23Q16(s) => s.iteration(),
            Kernel::Gauss(_) => return true,
            Kernel::Z46(c) => c.iterations(),
        };
        InterleavedInverse::<f64>::is_calc_iteration(CALC_FREQ, iteration)
    }

    pub fn step(&mut self, z: &[f64], ws: &mut Scratch) -> kalmmind::Result<()> {
        match self {
            Kernel::X23F64(c) => c.step_raw(z, &mut ws.x23),
            Kernel::X23F32(s) => s.step_raw(z),
            Kernel::X23Q16(s) => s.step_raw(z),
            Kernel::Z46(c) => c.step_raw(z, &mut ws.z46),
            Kernel::Gauss(parts) => {
                let (kf, ws, zv) = &mut **parts;
                zv.as_mut_slice().copy_from_slice(z);
                kf.step_with(zv, ws).map(|_| ())
            }
        }
    }
}
