//! Monte-Carlo and statistics toolkit for the STT-RAM sensing reproduction.
//!
//! The paper's headline result (Fig. 11) is statistical: across a 16 kb chip
//! with large bit-to-bit MTJ variation, conventional sensing misreads ~1 % of
//! bits while both self-reference schemes read every bit correctly. This
//! crate provides the machinery those experiments need, built on `rand`'s
//! uniform source (the Rust circuit/statistics ecosystem is thin — see
//! DESIGN.md — so the distributions, yield analysis and regression are
//! implemented here from first principles):
//!
//! * [`dist`] — Normal / LogNormal / Uniform sampling (Box–Muller), plus the
//!   standard normal CDF and quantile for analytic cross-checks.
//! * [`summary`] — streaming moments (Welford), order statistics and
//!   histograms.
//! * [`p2`] — fixed-memory streaming quantiles (the P² algorithm), for
//!   telemetry that cannot afford to retain every sample.
//! * [`yields`] — pass/fail counting with Wilson confidence intervals.
//! * [`regression`] — least-squares line fits (used to extract roll-off
//!   slopes from simulated sweeps).
//! * [`mc`] — deterministic, parallel Monte-Carlo trial runner.
//! * [`table`] — minimal CSV/console table export for the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod mc;
pub mod p2;
pub mod regression;
pub mod summary;
pub mod table;
pub mod yields;

pub use dist::{LogNormal, Normal, Uniform};
pub use mc::{fan_out, fill_indexed, resume_panic, run_trial_batches, run_trials, trial_rng};
pub use p2::P2Quantile;
pub use regression::{pearson, LinearFit};
pub use summary::{quantile, Histogram, Summary};
pub use table::Table;
pub use yields::{WilsonInterval, YieldCount};
