//! The per-layer sheet of the traced run: the catalog of per-layer
//! metrics, and ns/op micro-timings of each layer's public functions on
//! inputs taken from the workload. Multiplied by the workload's op
//! counts they attribute the traced wall time to layers; what they do
//! not explain is the residual.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_cluster::{Cluster, ClusterConfig};
use strandfs_core::admission::{AdmissionController, RequestSpec, ServiceEnv};
use strandfs_core::journal::fnv1a;
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::{RequestId, StrandId};
use strandfs_disk::trace::DiskStats;
use strandfs_disk::{AccessKind, AllocPolicy, Allocator, DiskGeometry, Extent, SeekModel, SimDisk};
use strandfs_media::silence::SilenceDetector;
use strandfs_obs::{
    AccessDir, Event, MonitorConfig, ObsSink, RingRecorder, SloRule, WindowedMonitor,
};
use strandfs_sim::ClipSpec;
use strandfs_units::{Instant, Nanos};

use crate::common::{Metric, Samples};
use crate::trace::{DiskOpRec, Spans, WallRecorder};

/// Every per-layer metric, with its unit, in report order. A traced run
/// reports all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("disk.reads", "count"),
    ("disk.writes", "count"),
    ("disk.sectors", "count"),
    ("disk.seek_ms", "ms"),
    ("disk.rotation_ms", "ms"),
    ("disk.transfer_ms", "ms"),
    ("disk.access_ns", "ns"),
    ("disk.store_ns_per_kb", "ns/KB"),
    ("disk.fetch_sum_ns_per_kb", "ns/KB"),
    ("alloc.calls", "count"),
    ("alloc.wraps", "count"),
    ("alloc.failures", "count"),
    ("alloc.ns_per_call", "ns"),
    ("checksum.bytes_hashed", "B"),
    ("checksum.ns_per_kb", "ns/KB"),
    ("msm.bytes_copied", "B"),
    ("msm.append_us", "us"),
    ("msm.read_timed_ns.verify_off", "ns"),
    ("msm.read_timed_ns.verify_on", "ns"),
    ("journal.records", "count"),
    ("journal.checkpoints", "count"),
    ("journal.sectors", "count"),
    ("index.sectors", "count"),
    ("index.lba_probes", "count"),
    ("index.probe_ns", "ns"),
    ("admission.admits", "count"),
    ("admission.releases", "count"),
    ("admission.try_admit_us", "us"),
    ("mrs.play_us", "us"),
    ("mrs.schedule_items", "count"),
    ("mrs.resolve_silence_us", "us"),
    ("media.silence_blocks", "count"),
    ("media.classify_ns", "ns"),
    ("sim.rounds", "count"),
    ("sim.stream_services", "count"),
    ("sim.round_wall_us.p50", "us"),
    ("sim.round_wall_us.p99", "us"),
    ("sim.phase.bookkeeping_ms", "ms"),
    ("sim.phase.sort_ms", "ms"),
    ("sim.phase.admission_ms", "ms"),
    ("sim.phase.service_ms", "ms"),
    ("cluster.rounds", "count"),
    ("cluster.round_wall_us.p50", "us"),
    ("cluster.round_wall_us.p99", "us"),
    ("cluster.member_idle_ratio", "ratio"),
    ("cluster.scrubbed", "count"),
    ("cluster.hedges", "count"),
    ("cluster.max_title_s", "s"),
    ("obs.events", "count"),
    ("obs.events.disk_op", "count"),
    ("obs.events.alloc", "count"),
    ("obs.events.admit", "count"),
    ("obs.events.release", "count"),
    ("obs.events.round_start", "count"),
    ("obs.events.stream_service", "count"),
    ("obs.events.round_end", "count"),
    ("obs.events.display_start", "count"),
    ("obs.events.deadline", "count"),
    ("obs.events.journal", "count"),
    ("obs.events.scrub", "count"),
    ("obs.events.fault", "count"),
    ("obs.emit_ns.noop", "ns"),
    ("obs.emit_ns.ring", "ns"),
    ("obs.emit_ns.monitor", "ns"),
    ("obs.monitor_overhead_ratio", "ratio"),
    ("heap.allocs_per_block", "count"),
    ("heap.bytes_per_block", "B"),
    ("ledger.wall_ms", "ms"),
    ("ledger.disk_model_ms", "ms"),
    ("ledger.disk_store_ms", "ms"),
    ("ledger.checksum_ms", "ms"),
    ("ledger.pad_copy_ms", "ms"),
    ("ledger.alloc_ms", "ms"),
    ("ledger.index_ms", "ms"),
    ("ledger.msm_read_ms", "ms"),
    ("ledger.media_ms", "ms"),
    ("ledger.mrs_open_ms", "ms"),
    ("ledger.sim_loop_ms", "ms"),
    ("ledger.obs_ms", "ms"),
    ("residual_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// The layer attributions summed into the ledger.
const ATTRIBUTIONS: &[&str] = &[
    "ledger.disk_model_ms",
    "ledger.disk_store_ms",
    "ledger.checksum_ms",
    "ledger.pad_copy_ms",
    "ledger.alloc_ms",
    "ledger.index_ms",
    "ledger.msm_read_ms",
    "ledger.media_ms",
    "ledger.mrs_open_ms",
    "ledger.sim_loop_ms",
    "ledger.obs_ms",
];

/// A traced run's per-layer values, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    /// Set `name`; panics on a name missing from [`PER_LAYER`] (a typo
    /// in the benchmark, not a runtime condition).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .0;
        self.0.insert(key, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Close the ledger against the traced wall time: the residual is
    /// the share of `wall_ms` no attribution explains.
    pub fn close_ledger(&mut self, wall_ms: f64) {
        self.set("ledger.wall_ms", wall_ms);
        let explained: f64 = ATTRIBUTIONS.iter().map(|n| self.get(n)).sum();
        self.set(
            "residual_ratio",
            1.0 - explained / wall_ms.max(f64::MIN_POSITIVE),
        );
    }

    /// Every catalog metric, unset ones as 0.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(n, u)| Metric {
                name: n.to_string(),
                value: self.get(n),
                unit: u,
            })
            .collect()
    }
}

/// Median ns per operation of `f`, which performs `ops` operations per
/// call, over five calls.
pub fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..5 {
        let t0 = Wall::now();
        f();
        s.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    s.median()
}

/// `SimDisk::access` over the workload's captured operation sequence.
pub fn access_ns(geometry: DiskGeometry, seek: SeekModel, ops: &[DiskOpRec]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    ns_per_op(ops.len(), || {
        let mut disk = SimDisk::new(geometry, seek);
        for op in ops {
            let kind = if op.read {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            black_box(disk.access(op.issued, Extent::new(op.lba, op.sectors), kind));
        }
    })
}

/// Blocks of the given byte sizes laid out back to back, with payloads.
fn blocks_of(sizes: &[usize], sector: usize) -> Vec<(Extent, Vec<u8>)> {
    let mut lba = 0;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let sectors = n.div_ceil(sector).max(1);
            let e = Extent::new(lba, sectors as u64);
            lba += sectors as u64;
            (e, vec![i as u8 | 1; sectors * sector])
        })
        .collect()
}

/// `SimDisk::store_data` per KB over blocks of the workload's sizes.
pub fn store_ns_per_kb(geometry: DiskGeometry, seek: SeekModel, sizes: &[usize]) -> f64 {
    let sector = geometry.sector_size.get() as usize;
    let blocks = blocks_of(sizes, sector);
    let kb = blocks.iter().map(|(_, d)| d.len()).sum::<usize>() as f64 / 1024.0;
    ns_per_op(1, || {
        let mut disk = SimDisk::new(geometry, seek);
        for (e, d) in &blocks {
            disk.store_data(*e, d);
        }
        black_box(&disk);
    }) / kb.max(1.0)
}

/// `SimDisk::fetch_sum` (the verified-read hash) per KB over blocks of
/// the workload's sizes.
pub fn fetch_sum_ns_per_kb(geometry: DiskGeometry, seek: SeekModel, sizes: &[usize]) -> f64 {
    let sector = geometry.sector_size.get() as usize;
    let blocks = blocks_of(sizes, sector);
    let kb = blocks.iter().map(|(_, d)| d.len()).sum::<usize>() as f64 / 1024.0;
    let mut disk = SimDisk::new(geometry, seek);
    for (e, d) in &blocks {
        disk.store_data(*e, d);
    }
    ns_per_op(1, || {
        for (e, _) in &blocks {
            black_box(disk.fetch_sum(*e));
        }
    }) / kb.max(1.0)
}

/// `journal::fnv1a` per KB over padded blocks of the workload's sizes.
pub fn fnv_ns_per_kb(sizes: &[usize], sector: usize) -> f64 {
    let blocks = blocks_of(sizes, sector);
    let kb = blocks.iter().map(|(_, d)| d.len()).sum::<usize>() as f64 / 1024.0;
    ns_per_op(1, || {
        for (_, d) in &blocks {
            black_box(fnv1a(black_box(d)));
        }
    }) / kb.max(1.0)
}

/// The append path's zero-pad copy (`to_vec` + `resize`) per KB of
/// padded block.
pub fn pad_copy_ns_per_kb(sizes: &[usize], sector: usize) -> f64 {
    let payloads: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![7u8; n]).collect();
    let kb = sizes
        .iter()
        .map(|n| n.div_ceil(sector).max(1) * sector)
        .sum::<usize>() as f64
        / 1024.0;
    ns_per_op(1, || {
        for p in &payloads {
            let mut v = black_box(p).to_vec();
            v.resize(p.len().div_ceil(sector).max(1) * sector, 0);
            black_box(v);
        }
    }) / kb.max(1.0)
}

/// `Allocator::allocate_after` chained over the workload's block sizes
/// (in sectors) under the volume's constrained policy.
pub fn alloc_ns(total_sectors: u64, policy: AllocPolicy, seed: u64, sectors: &[u64]) -> f64 {
    if sectors.is_empty() {
        return 0.0;
    }
    ns_per_op(sectors.len(), || {
        let mut a = Allocator::new(total_sectors, policy.clone(), seed);
        let mut prev: Option<Extent> = None;
        for &s in sectors {
            let e = match prev {
                Some(p) => a.allocate_after(p, s),
                None => a.allocate_first(s),
            };
            prev = e.ok().or(prev);
        }
        black_box(a.stats());
    })
}

/// `Msm::append_block` on a fresh journaled volume, in µs per block, for
/// payloads of the workload's sizes.
pub fn append_us(
    geometry: DiskGeometry,
    seek: SeekModel,
    config: &MsmConfig,
    sizes: &[usize],
) -> f64 {
    let payloads: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![3u8; n]).collect();
    let meta = crate::ingest::video_meta();
    ns_per_op(payloads.len(), || {
        let mut msm = Msm::new(SimDisk::new(geometry, seek), config.clone());
        let id = msm.begin_strand(meta);
        let mut t = Instant::EPOCH;
        for p in &payloads {
            if let Ok((_, op)) = msm.append_block(id, t, p, 3) {
                t = op.completed;
            }
        }
        black_box(&msm);
    }) / 1e3
}

/// `Msm::read_block_timed` over `blocks` of a recorded volume, with
/// verification off or on.
pub fn read_timed_ns(msm: &mut Msm, blocks: &[(StrandId, u64)], verify: bool) -> f64 {
    if blocks.is_empty() {
        return 0.0;
    }
    let was = msm.verify_reads();
    msm.set_verify_reads(verify);
    let ns = ns_per_op(blocks.len(), || {
        let mut t = Instant::EPOCH;
        for &(s, b) in blocks {
            if let Ok(Some(op)) = msm.read_block_timed(s, b, t) {
                t = op.completed;
            }
        }
    });
    msm.set_verify_reads(was);
    ns
}

/// One strand-index lookup (`Msm::strand` + `Strand::block`), the
/// service loop's next-LBA probe.
pub fn probe_ns(msm: &Msm, blocks: &[(StrandId, u64)]) -> f64 {
    if blocks.is_empty() {
        return 0.0;
    }
    ns_per_op(blocks.len(), || {
        for &(s, b) in blocks {
            black_box(msm.strand(s).ok().and_then(|st| st.block(b).ok()));
        }
    })
}

/// `AdmissionController::try_admit` up to `n` streams of `spec` and
/// back, in µs per admission (release included).
pub fn try_admit_us(env: ServiceEnv, spec: RequestSpec, n: usize) -> f64 {
    let n = n.max(1);
    ns_per_op(n * 200, || {
        let mut c = AdmissionController::new(env);
        for rep in 0..200u64 {
            for i in 0..n as u64 {
                black_box(c.try_admit(RequestId::from_raw(rep * 64 + i), spec).is_ok());
            }
            for i in 0..n as u64 {
                black_box(c.release(RequestId::from_raw(rep * 64 + i)).is_ok());
            }
        }
    }) / 1e3
}

/// `SilenceDetector::classify` on the workload's audio blocks.
pub fn classify_ns(chunks: &[&[i32]]) -> f64 {
    if chunks.is_empty() {
        return 0.0;
    }
    let d = SilenceDetector::telephone();
    ns_per_op(chunks.len(), || {
        for c in chunks {
            black_box(d.classify(black_box(c)));
        }
    })
}

fn sample_event(i: u64) -> Event {
    Event::DiskOp {
        dir: AccessDir::Read,
        lba: i * 64,
        sectors: 64,
        cylinder: i,
        cyl_distance: 1,
        issued: Instant::from_nanos(i * 1_000_000),
        seek: Nanos::from_nanos(1_000),
        rotation: Nanos::from_nanos(2_000),
        transfer: Nanos::from_nanos(3_000),
    }
}

/// `ObsSink::emit` through the noop, ring and monitor sinks, ns/event.
pub fn emit_ns() -> (f64, f64, f64) {
    const N: usize = 20_000;
    let run = |sink: &ObsSink| {
        ns_per_op(N, || {
            for i in 0..N as u64 {
                sink.emit(|| sample_event(i));
            }
        })
    };
    let noop = run(&ObsSink::noop());
    let ring = Rc::new(RefCell::new(RingRecorder::new(4096)));
    let ring_ns = run(&ObsSink::shared(&ring));
    let mon = Rc::new(RefCell::new(WindowedMonitor::new(monitor_config())));
    let mon_ns = run(&ObsSink::shared(&mon));
    (noop, ring_ns, mon_ns)
}

/// The cluster monitor: two-round windows and the `volume-down`
/// tripwire (any media fault on a healthy cluster means a dead member).
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::rounds(2)
        .retain(64)
        .max_dumps(1)
        .rule(SloRule::FaultStorm {
            label: "volume-down",
            max_faults: 0,
        })
}

/// The longest whole-second video title a fresh cluster member accepts
/// through `Cluster::ingest` (bounded by the member's journal slots,
/// since nothing checkpoints mid-recording).
pub fn max_title_s(limit: u64) -> f64 {
    let accepts = |secs: u64| {
        let mut c = match Cluster::new(ClusterConfig::round_robin(1, 1)) {
            Ok(c) => c,
            Err(_) => return false,
        };
        c.ingest("probe", &ClipSpec::video_seconds(secs as f64), 0.0)
            .is_ok()
    };
    let (mut lo, mut hi) = (0u64, limit + 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f64
}

/// `after − before` of two disk-counter snapshots.
pub fn stats_diff(before: &DiskStats, after: &DiskStats) -> DiskStats {
    DiskStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        sectors_transferred: after.sectors_transferred - before.sectors_transferred,
        seek_time: after.seek_time - before.seek_time,
        rotation_time: after.rotation_time - before.rotation_time,
        transfer_time: after.transfer_time - before.transfer_time,
    }
}

/// The `disk.*` counters and virtual busy-time split.
pub fn fill_disk(sh: &mut Sheet, st: &DiskStats) {
    sh.set("disk.reads", st.reads as f64);
    sh.set("disk.writes", st.writes as f64);
    sh.set("disk.sectors", st.sectors_transferred as f64);
    sh.set("disk.seek_ms", st.seek_time.as_nanos() as f64 / 1e6);
    sh.set("disk.rotation_ms", st.rotation_time.as_nanos() as f64 / 1e6);
    sh.set("disk.transfer_ms", st.transfer_time.as_nanos() as f64 / 1e6);
}

/// The `obs.events*` counts and `sim.stream_services` from the
/// recorder's captured prefix.
pub fn fill_obs_counts(sh: &mut Sheet, rec: &WallRecorder) {
    sh.set("obs.events", rec.events as f64);
    for (name, _) in PER_LAYER {
        if let Some(kind) = name.strip_prefix("obs.events.") {
            sh.set(name, rec.kind(kind) as f64);
        }
    }
    sh.set("sim.stream_services", rec.kind("stream_service") as f64);
}

/// Mean `Mrs::play` and `resolve_silence` wall per call, from spans.
pub fn fill_spans(sh: &mut Sheet, spans: &Spans) {
    let t = spans.times_ms();
    let per = |k: &str| t.get(k).map_or(0.0, |&(ms, n)| ms * 1e3 / n.max(1) as f64);
    sh.set("mrs.play_us", per("mrs.play"));
    sh.set("mrs.resolve_silence_us", per("mrs.resolve_silence"));
}

/// `ObsSink::emit` into the traced run's own recorder, ns/event: the
/// cost the tracing itself adds per event.
pub fn wall_recorder_emit_ns() -> f64 {
    const N: usize = 20_000;
    let rec = Rc::new(RefCell::new(WallRecorder::new(ObsSink::noop())));
    let sink = ObsSink::shared(&rec);
    ns_per_op(N, || {
        for i in 0..N as u64 {
            sink.emit(|| sample_event(i));
        }
    })
}
