//! `vod_volume`: the single-volume round engine at admitted capacity.
//! One `projected_fast` volume (`sim::volume_on`) holds a library of CBR
//! video titles. Each session opens exactly `n_max` viewers through
//! `Mrs::play` + `resolve_silence`, serves them with `simulate_playback`
//! (CSCAN, strict, verification off, noop sink) and stops them. No
//! checksum, obs or cluster work runs here: it is the control for those
//! layers.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_core::admission::{Aggregates, RequestSpec};
use strandfs_core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs_core::msm::MsmConfig;
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_core::{RopeId, StrandId};
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel};
use strandfs_media::VideoCodec;
use strandfs_obs::{ObsSink, ProfSink, WindowedMonitor, PHASES};
use strandfs_sim::volume_on;
use strandfs_units::Instant;

use crate::common::{
    ensure, rng, since, us, Fingerprint, Outcome, RefOp, Reference, Samples, WindowRate,
    SETUP_REF_OPS,
};
use crate::heap;
use crate::ingest::video_meta;
use crate::ledger::{self, Sheet};
use crate::serve;
use crate::trace::{Spans, WallRecorder};

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// CBR titles in the library.
    pub titles: usize,
    /// Shortest title, in tenths of a second.
    pub min_tenths: u64,
    /// Longest title, in tenths of a second.
    pub max_tenths: u64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// Sessions whose virtual-time outcome is reported and fingerprinted
    /// (the run always completes them).
    pub prefix_sessions: usize,
    /// Wall-clock window of the delivered-rate median, in seconds.
    pub window_s: f64,
}

impl Config {
    /// The benchmark's size.
    pub const FULL: Config = Config {
        titles: 12,
        min_tenths: 150,
        max_tenths: 250,
        setup_reps: 5,
        prefix_sessions: 120,
        window_s: 0.25,
    };

    /// A reduced size for smoke tests.
    pub const SMOKE: Config = Config {
        titles: 10,
        min_tenths: 20,
        max_tenths: 40,
        setup_reps: 1,
        prefix_sessions: 2,
        window_s: 0.001,
    };
}

fn geometry() -> (DiskGeometry, SeekModel) {
    (DiskGeometry::projected_fast(), SeekModel::projected_fast())
}

const GAP_MAX: u64 = 40_000;

/// The recorded library.
pub struct Library {
    /// The volume.
    pub mrs: Mrs,
    /// One rope per title.
    pub ropes: Vec<RopeId>,
    payload_bytes: u64,
    record_wall: f64,
    fingerprint: u64,
}

/// The reference spec of the library's streams.
pub fn video_spec() -> RequestSpec {
    let m = video_meta();
    RequestSpec {
        q: m.granularity,
        unit_bits: m.unit_bits,
        unit_rate: m.unit_rate,
    }
}

/// Build the volume and record the library, timing every recording
/// call (block-flushing ones into `flush_us`).
pub fn setup(cfg: &Config, seed: u64, flush_us: &mut Samples) -> Result<Library, String> {
    let (g, s) = geometry();
    let config = MsmConfig::constrained(
        GapBounds {
            min_sectors: 0,
            max_sectors: GAP_MAX,
        },
        seed,
    );
    let (mut mrs, _) = volume_on(g, s, config, &[]).map_err(|e| e.to_string())?;
    let mut r = rng(seed, 10);
    // Lengths evenly spaced over the range, in seeded order: every seed
    // records and serves the same amount of media.
    let span = cfg.max_tenths - cfg.min_tenths;
    let last = cfg.titles.saturating_sub(1).max(1) as u64;
    let mut lengths: Vec<u64> = (0..cfg.titles as u64)
        .map(|i| cfg.min_tenths + span * i / last)
        .collect();
    r.shuffle(&mut lengths);
    let mut ropes = Vec::with_capacity(cfg.titles);
    let (mut payload_bytes, mut record_wall) = (0u64, 0.0);
    for tenths in lengths {
        let codec = VideoCodec::uvc_ntsc(r.next_u64());
        let frames: Vec<Vec<u8>> = (0..3 * tenths)
            .map(|f| codec.frame_payload(f, codec.frame_bits(f).to_bytes_ceil().get() as usize))
            .collect();
        payload_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        let opts = RecordOpts {
            video: Some(TrackOpts {
                meta: video_meta(),
                silence: None,
            }),
            audio: None,
        };
        let c = Wall::now();
        let req = mrs.record("library", opts).map_err(|e| e.to_string())?;
        record_wall += since(c);
        let mut t = Instant::EPOCH;
        for f in &frames {
            let c = Wall::now();
            let op = mrs
                .record_video_frame(req, t, f)
                .map_err(|e| e.to_string())?;
            let d = c.elapsed();
            record_wall += d.as_secs_f64();
            if let Some(op) = op {
                t = op.completed;
                flush_us.push(us(d));
            }
        }
        let c = Wall::now();
        let rope = mrs
            .stop(req, t)
            .map_err(|e| e.to_string())?
            .ok_or("no rope")?;
        record_wall += since(c);
        ropes.push(rope);
    }
    let mut fp = Fingerprint::default();
    for id in mrs.msm().strand_ids() {
        let st = mrs.msm().strand(id).map_err(|e| e.to_string())?;
        for (n, e) in st.stored_iter() {
            fp.add(n);
            fp.add(e.start);
            fp.add(e.sectors);
        }
    }
    Ok(Library {
        mrs,
        ropes,
        payload_bytes,
        record_wall,
        fingerprint: fp.get(),
    })
}

/// Eq. 17 capacity of the volume for the library's streams.
pub fn n_max(mrs: &Mrs) -> usize {
    Aggregates::compute(mrs.msm().admission_ref().env(), &[video_spec()])
        .map(|a| a.n_max())
        .unwrap_or(0)
}

/// Session `j`'s viewers: `n` distinct titles (with repeats only when
/// the library is smaller than `n`).
pub fn plan(lib: &Library, seed: u64, j: u64, n: usize) -> Vec<RopeId> {
    let mut r = rng(seed, 1_000 + j);
    let mut idx: Vec<usize> = (0..lib.ropes.len()).collect();
    r.shuffle(&mut idx);
    (0..n).map(|i| lib.ropes[idx[i % idx.len()]]).collect()
}

/// One more `Mrs::play` than `n_max` must be refused, with the first
/// `n_max` admitted; all are released afterwards.
pub fn check_refusal(mrs: &mut Mrs, ropes: &[RopeId], n: usize) -> Result<(), String> {
    let mut reqs = Vec::new();
    for (i, &r) in ropes.iter().cycle().take(n + 1).enumerate() {
        let dur = mrs.rope(r).map_err(|e| e.to_string())?.duration();
        match mrs.play("probe", r, MediaSel::Video, Interval::whole(dur)) {
            Ok((req, _)) if i < n => reqs.push(req),
            Ok(_) => {
                return Err(format!(
                    "PLAY number {} beyond n_max={n} was admitted",
                    i + 1
                ))
            }
            Err(e) if i < n => return Err(format!("PLAY {} of n_max={n} refused: {e}", i + 1)),
            Err(_) => {}
        }
    }
    for req in reqs {
        mrs.stop(req, Instant::EPOCH).map_err(|e| e.to_string())?;
    }
    ensure(mrs.msm().admission_ref().active() == 0, || {
        "admission slots leaked".into()
    })
}

/// Run the workload for `seconds` and report the end-to-end metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut flush_us = Samples::default();
    let mut setup_s = Samples::default();
    let mut mbps = Samples::default();
    let mut setup_ref = Reference::default();
    let mut lib: Option<Library> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        let prev = lib.take().map(|l| l.fingerprint);
        let t0 = Wall::now();
        let l = setup(cfg, seed, &mut flush_us)?;
        setup_s.push(since(t0));
        for _ in 0..SETUP_REF_OPS {
            setup_ref.op(RefOp::Hash);
        }
        check_stamps(&l)?;
        mbps.push(l.payload_bytes as f64 / 1e6 / l.record_wall);
        if let Some(p) = prev {
            ensure(p == l.fingerprint, || {
                "set-up is not deterministic for one seed".into()
            })?;
        }
        lib = Some(l);
    }
    let mut lib = lib.expect("one set-up");
    let n = n_max(&lib.mrs);
    ensure(n > 0, || "the volume admits no stream".into())?;
    check_refusal(&mut lib.mrs, &lib.ropes, n)?;

    let mut open_us = Samples::default();
    let mut startup = Samples::default();
    let mut delivered = WindowRate::new(cfg.window_s);
    let mut sessions_ref = Reference::default();
    let (mut busy_ns, mut prefix_blocks, mut attempted) = (0u64, 0u64, 0u64);
    let mut fp = Fingerprint::default();
    fp.add(lib.fingerprint);
    let mut spans = Spans::off();
    let mut streams = 0;
    let mut k = 0;
    let t0 = Wall::now();
    let mut j = 0u64;
    while (j as usize) < cfg.prefix_sessions || since(t0) < seconds {
        let viewers = plan(&lib, seed, j, n);
        let s = serve::session(
            &mut lib.mrs,
            &viewers,
            MediaSel::Video,
            &mut open_us,
            &mut spans,
        )?;
        sessions_ref.op(RefOp::Sort);
        delivered.add(s.delivered as f64, s.wall_s);
        attempted += s.items;
        if (j as usize) < cfg.prefix_sessions {
            for st in &s.report.streams {
                startup.push(st.start_latency.as_nanos() as f64 / 1e6);
            }
            busy_ns += s.report.disk_busy.as_nanos();
            prefix_blocks += s.delivered;
            serve::fingerprint(&mut fp, &s.report);
            streams = s.streams;
            k = s.k;
        }
        j += 1;
    }
    let mut o = Outcome {
        attempted,
        failed: 0,
        fingerprint: fp.get(),
        ..Outcome::default()
    };
    let hash = setup_ref.speed(RefOp::Hash);
    o.push_time_at("setup_s", setup_s.median(), "s", hash);
    o.push_rate_at("ingest_mb_per_s", mbps.median(), "MB/s", hash);
    o.push_median_at("record_block_us", &flush_us, "us", hash);
    let sort = sessions_ref.speed(RefOp::Sort);
    o.push_rate_at("delivered_blocks_per_s", delivered.median(), "1/s", sort);
    o.push_median_at("play_open_us", &open_us, "us", sort);
    o.push_quantiles("startup_ms", &startup, "ms");
    o.push("streams_per_volume", streams as f64, "count");
    o.push(
        "disk_ms_per_block",
        busy_ns as f64 / 1e6 / prefix_blocks as f64,
        "ms",
    );
    o.push("space_amplification", space_amplification(&lib)?, "ratio");
    o.push("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    o.notes.push(format!(
        "sessions={j} n_max={n} k={k} windows={} library_mb={:.1}",
        delivered.windows(),
        lib.payload_bytes as f64 / 1e6
    ));
    Ok(o)
}

/// Check that every stored block's stamp verifies.
fn check_stamps(lib: &Library) -> Result<(), String> {
    for id in lib.mrs.msm().strand_ids() {
        let st = lib.mrs.msm().strand(id).map_err(|e| e.to_string())?;
        for (n, _) in st.stored_iter() {
            let ok = lib
                .mrs
                .msm()
                .check_block_sum(id, n)
                .map_err(|e| e.to_string())?;
            ensure(ok == Some(true), || {
                format!("{id} block {n}: stamp check {ok:?}")
            })?;
        }
    }
    Ok(())
}

/// Allocated media + index bytes per recorded payload byte.
fn space_amplification(lib: &Library) -> Result<f64, String> {
    let msm = lib.mrs.msm();
    let sector = msm.disk().geometry().sector_size.get();
    let mut bytes = 0u64;
    for id in msm.strand_ids() {
        let st = msm.strand(id).map_err(|e| e.to_string())?;
        bytes += st.data_sectors() * sector;
        bytes += st.index_extents().iter().map(|e| e.sectors).sum::<u64>() * sector;
    }
    Ok(bytes as f64 / lib.payload_bytes as f64)
}

/// Every stored block of the library, in strand order.
fn library_blocks(lib: &Library) -> Vec<(StrandId, u64)> {
    let msm = lib.mrs.msm();
    msm.strand_ids()
        .into_iter()
        .filter_map(|id| msm.strand(id).ok().map(|s| (id, s)))
        .flat_map(|(id, s)| {
            s.stored_iter()
                .map(move |(n, _)| (id, n))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The traced run (see `ingest::run_traced`).
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut lib = setup(cfg, seed, &mut Samples::default())?;
    check_stamps(&lib)?;
    let n = n_max(&lib.mrs);
    let half = seconds / 2.0;
    let mut open = Samples::default();
    let mut off = Spans::off();

    let (mut base_wall, mut base_blocks) = (0.0, 0u64);
    let t0 = Wall::now();
    let mut j = 0u64;
    while j == 0 || since(t0) < half {
        let viewers = plan(&lib, seed, j, n);
        let s = serve::session(&mut lib.mrs, &viewers, MediaSel::Video, &mut open, &mut off)?;
        base_wall += s.wall_s;
        base_blocks += s.delivered;
        j += 1;
    }

    let rec = Rc::new(RefCell::new(WallRecorder::new(ObsSink::noop())));
    lib.mrs.set_obs(ObsSink::shared(&rec));
    let (prof_sink, prof) = ProfSink::fresh();
    strandfs_sim::set_profiler(prof_sink);
    let stats0 = lib.mrs.msm().disk().stats().clone();
    let probes0 = strandfs_sim::playback::lba_probe_count();
    let (a0, b0) = heap::snapshot();
    let (mut wall, mut blocks, mut items, mut rounds) = (0.0, 0u64, 0u64, 0u64);
    let mut prefix_blocks = 0u64;
    let mut prefix_stats = None;
    let mut prefix_probes = 0;
    let mut traced = 0usize;
    let mut open_traced = Samples::default();
    let t0 = Wall::now();
    while traced < cfg.prefix_sessions || since(t0) < half {
        rec.borrow_mut().capture = traced < cfg.prefix_sessions;
        heap::set_counting(traced < cfg.prefix_sessions);
        let viewers = plan(&lib, seed, traced as u64, n);
        let r = serve::session(
            &mut lib.mrs,
            &viewers,
            MediaSel::Video,
            &mut open_traced,
            spans,
        );
        heap::set_counting(false);
        let s = r?;
        wall += s.wall_s;
        blocks += s.delivered;
        if traced < cfg.prefix_sessions {
            items += s.items;
            rounds += s.report.rounds;
            prefix_blocks += s.delivered;
        }
        traced += 1;
        if traced == cfg.prefix_sessions {
            prefix_stats = Some(lib.mrs.msm().disk().stats().clone());
            prefix_probes = strandfs_sim::playback::lba_probe_count() - probes0;
        }
    }
    let (a1, b1) = heap::snapshot();
    strandfs_sim::set_profiler(ProfSink::noop());
    lib.mrs.set_obs(ObsSink::noop());
    let stats1 = lib.mrs.msm().disk().stats().clone();
    let probes_all = strandfs_sim::playback::lba_probe_count() - probes0;
    let rec = rec.borrow();

    let mut sh = Sheet::default();
    let prefix = prefix_stats.expect("prefix completed");
    ledger::fill_disk(&mut sh, &ledger::stats_diff(&stats0, &prefix));
    sh.set("index.lba_probes", prefix_probes as f64);
    sh.set("mrs.schedule_items", items as f64);
    sh.set("sim.rounds", rounds as f64);
    sh.set("admission.admits", rec.kind("admit") as f64);
    sh.set("admission.releases", rec.kind("release") as f64);
    ledger::fill_obs_counts(&mut sh, &rec);
    ledger::fill_spans(&mut sh, spans);
    let p = prof.borrow();
    for ph in PHASES {
        sh.set(
            &format!("sim.phase.{}_ms", ph.label()),
            p.stats(ph).total.as_nanos() as f64 / 1e6,
        );
    }
    sh.set("sim.round_wall_us.p50", rec.round_wall_us.median());
    sh.set("sim.round_wall_us.p99", rec.round_wall_us.quantile(0.99));
    sh.set(
        "heap.allocs_per_block",
        (a1 - a0) as f64 / prefix_blocks as f64,
    );
    sh.set(
        "heap.bytes_per_block",
        (b1 - b0) as f64 / prefix_blocks as f64,
    );

    let (g, sk) = geometry();
    let access = ledger::access_ns(g, sk, &rec.disk_ops);
    sh.set("disk.access_ns", access);
    let sector = g.sector_size.get() as usize;
    let sizes: Vec<usize> = library_blocks(&lib)
        .iter()
        .take(2_000)
        .filter_map(|&(id, n)| lib.mrs.msm().strand(id).ok()?.block(n).ok()?)
        .map(|e| e.sectors as usize * sector)
        .collect();
    sh.set(
        "disk.store_ns_per_kb",
        ledger::store_ns_per_kb(g, sk, &sizes),
    );
    sh.set(
        "disk.fetch_sum_ns_per_kb",
        ledger::fetch_sum_ns_per_kb(g, sk, &sizes),
    );
    sh.set("checksum.ns_per_kb", ledger::fnv_ns_per_kb(&sizes, sector));
    let sample: Vec<(StrandId, u64)> = library_blocks(&lib)
        .into_iter()
        .step_by(7)
        .take(2_000)
        .collect();
    sh.set(
        "msm.read_timed_ns.verify_off",
        ledger::read_timed_ns(lib.mrs.msm_mut(), &sample, false),
    );
    sh.set(
        "msm.read_timed_ns.verify_on",
        ledger::read_timed_ns(lib.mrs.msm_mut(), &sample, true),
    );
    let probe = ledger::probe_ns(lib.mrs.msm(), &sample);
    sh.set("index.probe_ns", probe);
    let env = *lib.mrs.msm().admission_ref().env();
    sh.set(
        "admission.try_admit_us",
        ledger::try_admit_us(env, video_spec(), n),
    );
    let (noop, ring, monitor) = ledger::emit_ns();
    sh.set("obs.emit_ns.noop", noop);
    sh.set("obs.emit_ns.ring", ring);
    sh.set("obs.emit_ns.monitor", monitor);
    sh.set(
        "obs.monitor_overhead_ratio",
        monitor_overhead(&mut lib, seed, n)?,
    );

    let reads = (stats1.reads - stats0.reads) as f64;
    sh.set("ledger.disk_model_ms", access * reads / 1e6);
    // The MSM read entry point's own cost: a timed read minus the disk
    // model inside it.
    let msm_read = (sh.get("msm.read_timed_ns.verify_off") - access).max(0.0);
    sh.set("ledger.msm_read_ms", msm_read * reads / 1e6);
    sh.set("ledger.index_ms", probe * probes_all as f64 / 1e6);
    sh.set(
        "ledger.mrs_open_ms",
        sh.get("mrs.play_us") * open_traced.len() as f64 / 1e3
            + sh.get("mrs.resolve_silence_us") * open_traced.len() as f64 / 1e3,
    );
    let loop_ms: f64 = ["bookkeeping", "sort", "admission"]
        .iter()
        .map(|ph| sh.get(&format!("sim.phase.{ph}_ms")))
        .sum();
    sh.set("ledger.sim_loop_ms", loop_ms);
    sh.set(
        "ledger.obs_ms",
        ledger::wall_recorder_emit_ns() * rec.events_all as f64 / 1e6,
    );
    sh.close_ledger(wall * 1e3);
    sh.set(
        "trace.overhead_ratio",
        (wall / blocks as f64) / (base_wall / base_blocks as f64),
    );
    let mut o = Outcome {
        attempted: items,
        ..Outcome::default()
    };
    o.metrics = sh.metrics();
    Ok(o)
}

/// Serving wall with a windowed monitor attached over the noop sink,
/// median ratio of alternating batches.
fn monitor_overhead(lib: &mut Library, seed: u64, n: usize) -> Result<f64, String> {
    let mut ratios = Samples::default();
    let mut spans = Spans::off();
    let mut open = Samples::default();
    for rep in 0..5u64 {
        let mut walls = [0.0f64; 2];
        for (side, wall) in walls.iter_mut().enumerate() {
            if side == 1 {
                let mon = Rc::new(RefCell::new(WindowedMonitor::new(ledger::monitor_config())));
                lib.mrs.set_obs(ObsSink::shared(&mon));
            }
            for j in 0..20 {
                let viewers = plan(lib, seed, rep * 20 + j, n);
                *wall += serve::session(
                    &mut lib.mrs,
                    &viewers,
                    MediaSel::Video,
                    &mut open,
                    &mut spans,
                )?
                .wall_s;
            }
            lib.mrs.set_obs(ObsSink::noop());
        }
        ratios.push(walls[1] / walls[0]);
    }
    Ok(ratios.median())
}
