//! Strongly-typed units shared by every strandfs crate.
//!
//! The continuity model of Rangan & Vin (SOSP '91) mixes quantities with
//! very different dimensions — seconds of scattering, bits of frame data,
//! frames per second of recording rate, bits per second of disk transfer.
//! Mixing these up silently is the classic source of off-by-10⁶ bugs in
//! storage models, so each dimension gets its own newtype:
//!
//! * [`Nanos`] / [`Instant`] — discrete-event virtual time (integer
//!   nanoseconds; exact, totally ordered, overflow-checked in debug).
//! * [`Seconds`] — analytic-model time (f64), used by the continuity
//!   equations where fractional seconds are natural.
//! * [`Bytes`] / [`Bits`] — data sizes.
//! * [`BitRate`], [`FrameRate`], [`SampleRate`] — rates.
//! * [`Prng`] — a seeded, dependency-free xoshiro256** generator used by
//!   every synthetic device and workload for reproducible experiments.
//! * [`fnv1a`] / [`Checksum`] — the one checksum every integrity check
//!   uses (a word-wise FNV-1a variant over four lanes, one-shot and
//!   streaming).
//!
//! Conversions between the exact and analytic domains are explicit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod prng;
mod rate;
mod size;
mod time;

pub use checksum::{fnv1a, Checksum};
pub use prng::Prng;
pub use rate::{BitRate, FrameRate, SampleRate};
pub use size::{Bits, Bytes};
pub use time::{Instant, Nanos, Seconds};
