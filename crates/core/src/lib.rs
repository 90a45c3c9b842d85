//! KalmMind: a configurable Kalman Filter with tunable accuracy and latency
//! for brain-computer interfaces.
//!
//! This crate is a software reproduction of the architecture presented in
//! *"An Energy-Efficient Kalman Filter Architecture with Tunable Accuracy for
//! Brain-Computer Interfaces"* (DAC 2025). It implements:
//!
//! * the classic Kalman Filter recursion ([`KalmanFilter`]), reorganized as
//!   in the paper so that the Kalman-gain computation is an isolated,
//!   swappable module ([`gain::GainStrategy`]);
//! * every matrix-inversion path evaluated in the paper — exact
//!   *calculation* ([`inverse::CalcMethod`]: Gauss, LU, Cholesky, QR) and
//!   Newton–Schulz *approximation* ([`inverse::NewtonInverse`]) — plus the
//!   paper's contribution, the **interleaved** calculation/approximation
//!   schedule with the two seed policies of Eq. 4 and Eq. 5
//!   ([`inverse::InterleavedInverse`]);
//! * the comparison baselines of Table I: steady-state KF
//!   ([`gain::SskfGain`]), Taylor-expansion gain ([`gain::TaylorGain`]), and
//!   the inverse-free KF ([`inverse::IfkfInverse`]);
//! * model training by the least-squares method of Wu et al. ([`train`]);
//! * the accuracy metrics of the evaluation ([`accuracy`]) and a
//!   design-space-exploration sweep driver ([`sweep`]).
//!
//! # Quickstart
//!
//! ```
//! use kalmmind::{KalmanFilter, KalmanModel, KalmanState, KalmMindConfig};
//! use kalmmind_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), kalmmind::KalmanError> {
//! // A 1-state / 1-measurement filter tracking a constant.
//! let model = KalmanModel::new(
//!     Matrix::identity(1),                       // F
//!     Matrix::identity(1).scale(1e-4),           // Q
//!     Matrix::identity(1),                       // H
//!     Matrix::identity(1).scale(0.25),           // R
//! )?;
//! let init = KalmanState::new(Vector::zeros(1), Matrix::identity(1));
//! let config = KalmMindConfig::builder().approx(2).calc_freq(4).build()?;
//! let mut kf = KalmanFilter::with_config(model, init, &config)?;
//! for z in [1.1_f64, 0.9, 1.05, 0.98] {
//!     kf.step(&Vector::from_vec(vec![z]))?;
//! }
//! assert!((kf.state().x()[0] - 1.0).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod filter;
mod kernel;
mod model;
mod state;

pub mod accuracy;
pub mod adaptive;
pub mod gain;
pub mod health;
pub mod inverse;
pub mod session;
pub mod small;
pub mod snapshot;
pub mod sweep;
pub mod train;
pub mod workspace;

pub use config::{KalmMindConfig, KalmMindConfigBuilder, MAX_APPROX, MAX_CALC_FREQ};
pub use error::KalmanError;
pub use filter::{reference_filter, KalmanFilter};
pub use health::{
    FlightRecorder, HealthConfig, HealthMonitor, HealthStatus, StepDiagnostics, StepSnapshot,
};
/// Re-export of the persistent worker-pool execution layer, so downstream
/// users can size or share the pool the sweep dispatches onto without
/// depending on `kalmmind-exec` directly.
pub use kalmmind_exec as exec;
pub use model::KalmanModel;
pub use session::{FilterSession, SessionBackend, SessionHealth, SessionTelemetry, StepOutcome};
pub use state::KalmanState;
pub use workspace::{GainWorkspace, InverseWorkspace, StepWorkspace};

/// Convenience result alias used across the crate.
pub type Result<T, E = KalmanError> = std::result::Result<T, E>;
