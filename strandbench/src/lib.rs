//! The strandfs benchmark: three feasible workloads driven through the
//! public API, each checking its own outputs, with end-to-end metrics
//! from untraced runs and a per-layer ledger from a separate traced run.

pub mod common;
pub mod heap;
pub mod ingest;
pub mod ledger;
pub mod serve;
pub mod trace;
pub mod vod_cluster;
pub mod vod_volume;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use common::Outcome;
use trace::Spans;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["ingest", "vod_volume", "vod_cluster"];

/// Run `workload` at full size: untraced (end-to-end metrics) or traced
/// (per-layer metrics, spans into `spans`).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    match (workload, spans) {
        ("ingest", None) => ingest::run(&ingest::Config::FULL, seed, seconds),
        ("ingest", Some(s)) => ingest::run_traced(&ingest::Config::FULL, seed, seconds, s),
        ("vod_volume", None) => vod_volume::run(&vod_volume::Config::FULL, seed, seconds),
        ("vod_volume", Some(s)) => {
            vod_volume::run_traced(&vod_volume::Config::FULL, seed, seconds, s)
        }
        ("vod_cluster", None) => vod_cluster::run(&vod_cluster::Config::FULL, seed, seconds),
        ("vod_cluster", Some(s)) => {
            vod_cluster::run_traced(&vod_cluster::Config::FULL, seed, seconds, s)
        }
        (w, _) => Err(format!(
            "unknown workload {w:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
