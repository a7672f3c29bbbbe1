//! `vod_cluster`: the feasible cluster headline. Four members under
//! popularity placement (hot titles get two replicas) hold titles
//! recorded by `Cluster::ingest` in set-up. Each session admits every
//! viewer on the member it will be served from (`Mrs::play` +
//! `resolve_silence` on that member), so every member carries exactly
//! its `n_max`; then one `simulate_cluster` call serves them with
//! verified reads, hedging, a slack-budgeted scrubber and a windowed
//! monitor carrying the `volume-down` rule.
//!
//! Titles are short because a member's journal (256 slots) cannot hold
//! one recording longer than its slots: nothing checkpoints
//! mid-recording (see `cluster.max_title_s` in the traced run).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_cluster::{
    simulate_cluster, Cluster, ClusterConfig, ClusterPlayback, ClusterReport, Placement, TitleId,
};
use strandfs_core::admission::Aggregates;
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_core::{RequestId, RopeId, StrandId};
use strandfs_disk::trace::DiskStats;
use strandfs_disk::{DiskGeometry, SeekModel};
use strandfs_media::VideoCodec;
use strandfs_obs::{ObsSink, WindowedMonitor};
use strandfs_sim::ClipSpec;
use strandfs_units::Instant;

use crate::common::{
    ensure, rng, since, us, Fingerprint, Outcome, RefOp, Reference, Samples, WindowRate,
    SETUP_REF_OPS,
};
use crate::heap;
use crate::ledger::{self, Sheet};
use crate::trace::{Spans, WallRecorder};
use crate::vod_volume::video_spec;

/// Member volumes.
const VOLUMES: usize = 4;

/// Scrub budget per volume per round, in blocks.
const SCRUB_BLOCKS: u64 = 2;

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Hot titles (two replicas each).
    pub hot: usize,
    /// Cold titles (one replica each).
    pub cold: usize,
    /// Range of the title length in tenths of a second. The seed picks
    /// one length for all titles, so every member fetches the same number
    /// of blocks while the layout (and with it startup) follows the seed.
    pub tenths: (u64, u64),
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// Sessions whose virtual-time outcome is reported and fingerprinted.
    pub prefix_sessions: usize,
    /// Wall-clock window of the delivered-rate median, in seconds.
    pub window_s: f64,
}

impl Config {
    /// The benchmark's size.
    pub const FULL: Config = Config {
        hot: 6,
        cold: 6,
        tenths: (38, 42),
        setup_reps: 15,
        prefix_sessions: 130,
        window_s: 0.5,
    };

    /// A reduced size for smoke tests.
    pub const SMOKE: Config = Config {
        hot: 3,
        cold: 3,
        tenths: (8, 12),
        setup_reps: 1,
        prefix_sessions: 2,
        window_s: 0.001,
    };
}

/// The ingested cluster.
pub struct Library {
    /// The cluster.
    pub cluster: Cluster,
    /// Titles in ingest order.
    pub titles: Vec<TitleId>,
    /// Per title (catalog id), the rope of each replica on its member.
    ropes: Vec<Vec<RopeId>>,
    payload_bytes: u64,
    ingest_wall: f64,
    fingerprint: u64,
}

/// Payload bytes of one replica of a CBR clip (what `record_clip` feeds).
fn clip_payload(clip: &ClipSpec) -> u64 {
    let codec = VideoCodec::uvc_ntsc(clip.seed);
    let frames = (30.0 * clip.seconds).round() as u64;
    (0..frames)
        .map(|i| codec.frame_bits(i).to_bytes_ceil().get())
        .sum()
}

/// Build the cluster and ingest the titles; each `Cluster::ingest`
/// call's wall per recorded block goes to `block_us`.
pub fn setup(cfg: &Config, seed: u64, block_us: &mut Samples) -> Result<Library, String> {
    let err = |e: strandfs_core::FsError| e.to_string();
    let mut cluster = Cluster::new(ClusterConfig {
        volumes: VOLUMES,
        placement: Placement::Popularity {
            hot_threshold: 0.5,
            extra: 1,
        },
        base_replicas: 1,
        seed,
    })
    .map_err(err)?;
    cluster.set_verify_reads(true);
    let mut r = rng(seed, 20);
    let mut order: Vec<bool> = (0..cfg.hot + cfg.cold).map(|i| i < cfg.hot).collect();
    r.shuffle(&mut order);
    let tenths = r.gen_range(cfg.tenths.0..=cfg.tenths.1);
    let mut titles = Vec::new();
    let mut ropes: Vec<Vec<RopeId>> = Vec::new();
    let (mut payload_bytes, mut ingest_wall) = (0u64, 0.0);
    for (i, hot) in order.into_iter().enumerate() {
        let clip = ClipSpec::video_seconds(tenths as f64 / 10.0).with_seed(r.next_u64());
        let popularity = if hot { 0.9 } else { 0.1 };
        let c = Wall::now();
        let id = cluster
            .ingest(&format!("title-{i}"), &clip, popularity)
            .map_err(err)?;
        let d = c.elapsed();
        ingest_wall += d.as_secs_f64();
        let reps = &cluster.catalog().title(id).replicas;
        block_us.push(us(d) / (reps.len() as u64 * tenths) as f64);
        payload_bytes += reps.len() as u64 * clip_payload(&clip);
        let per: Vec<RopeId> = reps
            .iter()
            .map(|rep| {
                let ids = cluster.members()[rep.volume].mrs().rope_ids();
                ids.last()
                    .copied()
                    .ok_or("member holds no rope".to_string())
            })
            .collect::<Result<_, _>>()?;
        if ropes.len() <= id {
            ropes.resize(id + 1, Vec::new());
        }
        ropes[id] = per;
        titles.push(id);
    }
    let mut fp = Fingerprint::default();
    for &t in &titles {
        for rep in &cluster.catalog().title(t).replicas {
            fp.add(rep.volume as u64);
            for loc in &rep.strands {
                fp.add(loc.strand.raw());
                fp.add(loc.blocks);
            }
        }
    }
    for m in cluster.members() {
        fp.add(m.mrs().msm().disk().stats().busy_time().as_nanos());
    }
    Ok(Library {
        cluster,
        titles,
        ropes,
        payload_bytes,
        ingest_wall,
        fingerprint: fp.get(),
    })
}

/// Eq. 17 capacity of one member for the titles' streams.
fn member_n_max(lib: &Library) -> usize {
    Aggregates::compute(
        lib.cluster.members()[0].mrs().msm().admission_ref().env(),
        &[video_spec()],
    )
    .map(|a| a.n_max())
    .unwrap_or(0)
}

/// Session `j`'s viewers: viewer `i` starts on replica `i % replicas`
/// of its title (the service loop's rule), and titles are chosen so
/// that every member serves exactly `per` viewers.
pub fn plan(lib: &Library, seed: u64, j: u64, per: usize) -> Result<Vec<TitleId>, String> {
    let mut r = rng(seed, 2_000 + j);
    let volumes = lib.cluster.members().len();
    'attempt: for _ in 0..256 {
        let mut slots: Vec<usize> = (0..volumes)
            .flat_map(|v| std::iter::repeat_n(v, per))
            .collect();
        r.shuffle(&mut slots);
        let mut viewers = Vec::with_capacity(slots.len());
        for (i, &v) in slots.iter().enumerate() {
            let cands: Vec<TitleId> = lib
                .titles
                .iter()
                .copied()
                .filter(|&t| {
                    let reps = &lib.cluster.catalog().title(t).replicas;
                    reps[i % reps.len()].volume == v
                })
                .collect();
            match r.choose(&cands) {
                Some(&t) => viewers.push(t),
                None => continue 'attempt,
            }
        }
        return Ok(viewers);
    }
    Err("no viewer placement puts n_max viewers on every member".into())
}

/// Where a session's events go.
pub enum Sink {
    /// No sink: the cluster's members run uninstrumented.
    Noop,
    /// The per-session monitor only.
    Monitor,
    /// The traced recorder, forwarding to the per-session monitor.
    Traced(Rc<RefCell<WallRecorder>>),
}

/// One served session.
pub struct Served {
    /// The cluster report.
    pub report: ClusterReport,
    /// Wall seconds for admit + serve + release.
    pub wall_s: f64,
    /// On-time blocks delivered.
    pub delivered: u64,
    /// Schedule items across viewers.
    pub items: u64,
    /// Round size.
    pub k: u64,
}

/// Admit, serve and release one session's viewers, then check it.
pub fn session(
    lib: &mut Library,
    viewers: &[TitleId],
    sink: &Sink,
    open_us: &mut Samples,
    spans: &mut Spans,
) -> Result<Served, String> {
    let err = |e: strandfs_core::FsError| e.to_string();
    let t0 = Wall::now();
    let sess = spans.begin("cluster.session", 0);
    let monitor = match sink {
        Sink::Noop => None,
        Sink::Monitor | Sink::Traced(_) => Some(Rc::new(RefCell::new(WindowedMonitor::new(
            ledger::monitor_config(),
        )))),
    };
    match (sink, &monitor) {
        (Sink::Traced(rec), Some(m)) => {
            rec.borrow_mut().set_forward(ObsSink::shared(m));
            lib.cluster.set_obs(&ObsSink::shared(rec));
        }
        (_, Some(m)) => lib.cluster.set_obs(&ObsSink::shared(m)),
        _ => lib.cluster.set_obs(&ObsSink::noop()),
    }
    let mut opened: Vec<(usize, RequestId)> = Vec::with_capacity(viewers.len());
    let mut expect = Vec::with_capacity(viewers.len());
    for (i, &t) in viewers.iter().enumerate() {
        let reps = &lib.cluster.catalog().title(t).replicas;
        let ri = i % reps.len();
        let v = reps[ri].volume;
        expect.push(reps[ri].schedule.fetch_count() as u64);
        let rope = lib.ropes[t][ri];
        let c = Wall::now();
        let mrs = lib.cluster.member_mut(v).mrs_mut();
        let dur = mrs.rope(rope).map_err(err)?.duration();
        let sp = spans.begin("mrs.play", sess);
        let (req, mut sched) = mrs
            .play("viewer", rope, MediaSel::Video, Interval::whole(dur))
            .map_err(|e| format!("member {v} refused viewer {i}: {e}"))?;
        spans.end(sp);
        let sp = spans.begin("mrs.resolve_silence", sess);
        mrs.resolve_silence(&mut sched).map_err(err)?;
        spans.end(sp);
        open_us.push(us(c.elapsed()));
        opened.push((v, req));
    }
    let k = lib
        .cluster
        .members()
        .iter()
        .map(|m| m.mrs().msm().admission_ref().k())
        .max()
        .unwrap_or(1);
    let play = ClusterPlayback::with_k(k).scrub(SCRUB_BLOCKS).hedged();
    let sp = spans.begin("cluster.simulate_cluster", sess);
    let report = simulate_cluster(&mut lib.cluster, viewers, &[], &play).map_err(err)?;
    spans.end(sp);
    let alerts = monitor.as_ref().map_or(0, |m| {
        m.borrow_mut().finish();
        m.borrow().alerts().len()
    });
    let sp = spans.begin("mrs.stop", sess);
    for (v, req) in opened {
        lib.cluster
            .member_mut(v)
            .mrs_mut()
            .stop(req, Instant::EPOCH)
            .map_err(err)?;
    }
    spans.end(sp);
    spans.end(sess);
    let wall_s = since(t0);
    check(&report, &expect, alerts)?;
    Ok(Served {
        delivered: expect.iter().sum(),
        items: report.sim.streams.iter().map(|s| s.blocks).sum(),
        report,
        wall_s,
        k,
    })
}

/// The session checks: continuity, integrity, no defense fired, no
/// alert, and equal per-member fetch counts.
pub fn check(report: &ClusterReport, expect: &[u64], alerts: usize) -> Result<(), String> {
    let sim = &report.sim;
    ensure(sim.total_violations() == 0, || {
        format!("{} late blocks", sim.total_violations())
    })?;
    ensure(sim.total_dropped() == 0, || {
        format!("{} dropped blocks", sim.total_dropped())
    })?;
    for (i, (s, want)) in sim.streams.iter().zip(expect).enumerate() {
        ensure(s.fetched == *want, || {
            format!(
                "viewer {i} fetched {} of {want} scheduled blocks",
                s.fetched
            )
        })?;
    }
    ensure(report.scrub_corrupt == 0, || {
        format!("{} scrub-corrupt blocks", report.scrub_corrupt)
    })?;
    ensure(report.read_repairs == 0, || {
        format!("{} read repairs", report.read_repairs)
    })?;
    ensure(report.corrupt_served == 0, || {
        format!("{} corrupt blocks served", report.corrupt_served)
    })?;
    ensure(report.hedges == 0, || {
        format!("{} hedged reads", report.hedges)
    })?;
    ensure(alerts == 0, || format!("{alerts} monitor alerts"))?;
    let f0 = report.volumes.first().map_or(0, |v| v.fetched);
    ensure(report.volumes.iter().all(|v| v.fetched == f0), || {
        let f: Vec<u64> = report.volumes.iter().map(|v| v.fetched).collect();
        format!("unequal per-member fetch counts {f:?}")
    })
}

fn fingerprint(fp: &mut Fingerprint, r: &ClusterReport) {
    crate::serve::fingerprint(fp, &r.sim);
    fp.add(r.scrubbed_blocks);
    for v in &r.volumes {
        fp.add(v.fetched);
        fp.add(v.scrubbed);
    }
}

/// Set up `reps` times (the last one is kept), checking determinism,
/// with reference operations after each repetition.
fn setup_reps(
    cfg: &Config,
    seed: u64,
    block_us: &mut Samples,
    setup_ref: &mut Reference,
) -> Result<(Library, Samples, Samples), String> {
    let mut secs = Samples::default();
    let mut mbps = Samples::default();
    let mut lib: Option<Library> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        let prev = lib.take().map(|l| l.fingerprint);
        let t0 = Wall::now();
        let l = setup(cfg, seed, block_us)?;
        secs.push(since(t0));
        for _ in 0..SETUP_REF_OPS {
            setup_ref.op(RefOp::Hash);
        }
        mbps.push(l.payload_bytes as f64 / 1e6 / l.ingest_wall);
        if let Some(p) = prev {
            ensure(p == l.fingerprint, || {
                "set-up is not deterministic for one seed".into()
            })?;
        }
        lib = Some(l);
    }
    Ok((lib.expect("one set-up"), secs, mbps))
}

/// Run the workload for `seconds` and report the end-to-end metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut block_us = Samples::default();
    let mut setup_ref = Reference::default();
    let (mut lib, setup, mbps) = setup_reps(cfg, seed, &mut block_us, &mut setup_ref)?;
    let per = member_n_max(&lib);
    ensure(per > 0, || "a member admits no stream".into())?;

    let mut open_us = Samples::default();
    let mut startup = Samples::default();
    let mut delivered = WindowRate::new(cfg.window_s);
    let mut sessions_ref = Reference::default();
    let (mut busy_ns, mut prefix_blocks, mut attempted) = (0u64, 0u64, 0u64);
    let mut fp = Fingerprint::default();
    fp.add(lib.fingerprint);
    let mut spans = Spans::off();
    let mut k = 0;
    let t0 = Wall::now();
    let mut j = 0u64;
    while (j as usize) < cfg.prefix_sessions || since(t0) < seconds {
        let viewers = plan(&lib, seed, j, per)?;
        let s = session(&mut lib, &viewers, &Sink::Monitor, &mut open_us, &mut spans)?;
        sessions_ref.op(RefOp::Sort);
        sessions_ref.op(RefOp::Hash);
        delivered.add(s.delivered as f64, s.wall_s);
        attempted += s.items;
        if (j as usize) < cfg.prefix_sessions {
            for st in &s.report.sim.streams {
                startup.push(st.start_latency.as_nanos() as f64 / 1e6);
            }
            busy_ns += s.report.sim.disk_busy.as_nanos();
            prefix_blocks += s.delivered;
            fingerprint(&mut fp, &s.report);
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
    o.push_time_at("setup_s", setup.median(), "s", hash);
    o.push_rate_at("ingest_mb_per_s", mbps.median(), "MB/s", hash);
    o.push_median_at("record_block_us", &block_us, "us", hash);
    // Verified reads and the scrubber hash most of a session's time.
    let (sort, hash) = (
        sessions_ref.speed(RefOp::Sort),
        sessions_ref.speed(RefOp::Hash),
    );
    o.push_rate_at("delivered_blocks_per_s", delivered.median(), "1/s", hash);
    o.push_median_at("play_open_us", &open_us, "us", sort);
    o.push_quantiles("startup_ms", &startup, "ms");
    o.push("streams_per_volume", per as f64, "count");
    o.push(
        "disk_ms_per_block",
        busy_ns as f64 / 1e6 / prefix_blocks as f64,
        "ms",
    );
    o.push("space_amplification", space_amplification(&lib)?, "ratio");
    o.push("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    o.notes.push(format!(
        "sessions={j} per_member_n_max={per} k={k} windows={}",
        delivered.windows()
    ));
    Ok(o)
}

/// Allocated media + index bytes on every member per payload byte.
fn space_amplification(lib: &Library) -> Result<f64, String> {
    let mut bytes = 0u64;
    for m in lib.cluster.members() {
        let msm = m.mrs().msm();
        let sector = msm.disk().geometry().sector_size.get();
        for id in msm.strand_ids() {
            let st = msm.strand(id).map_err(|e| e.to_string())?;
            bytes += st.data_sectors() * sector;
            bytes += st.index_extents().iter().map(|e| e.sectors).sum::<u64>() * sector;
        }
    }
    Ok(bytes as f64 / lib.payload_bytes as f64)
}

fn member_stats(lib: &Library) -> Vec<DiskStats> {
    lib.cluster
        .members()
        .iter()
        .map(|m| m.mrs().msm().disk().stats().clone())
        .collect()
}

fn sum_diff(a: &[DiskStats], b: &[DiskStats]) -> DiskStats {
    let mut out = DiskStats::default();
    for (x, y) in a.iter().zip(b) {
        let d = ledger::stats_diff(x, y);
        out.reads += d.reads;
        out.writes += d.writes;
        out.sectors_transferred += d.sectors_transferred;
        out.seek_time += d.seek_time;
        out.rotation_time += d.rotation_time;
        out.transfer_time += d.transfer_time;
    }
    out
}

/// The traced run (see `ingest::run_traced`).
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut lib = setup(cfg, seed, &mut Samples::default())?;
    let per = member_n_max(&lib);
    let half = seconds / 2.0;
    let mut off = Spans::off();
    let mut open = Samples::default();

    let (mut base_wall, mut base_blocks) = (0.0, 0u64);
    let t0 = Wall::now();
    let mut j = 0u64;
    while j == 0 || since(t0) < half {
        let v = plan(&lib, seed, j, per)?;
        let s = session(&mut lib, &v, &Sink::Monitor, &mut open, &mut off)?;
        base_wall += s.wall_s;
        base_blocks += s.delivered;
        j += 1;
    }

    let rec = Rc::new(RefCell::new(WallRecorder::new(ObsSink::noop())));
    let sink = Sink::Traced(Rc::clone(&rec));
    let stats0 = member_stats(&lib);
    let (a0, b0) = heap::snapshot();
    let (mut wall, mut blocks, mut items, mut rounds, mut scrubbed, mut hedges) =
        (0.0, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut busy_ns, mut elapsed_ns) = (0u64, 0u64);
    let mut scrubbed_all = 0u64;
    let mut prefix_blocks = 0u64;
    let mut open_traced = Samples::default();
    let mut prefix_stats = None;
    let mut traced = 0usize;
    let t0 = Wall::now();
    while traced < cfg.prefix_sessions || since(t0) < half {
        let capture = traced < cfg.prefix_sessions;
        rec.borrow_mut().capture = capture;
        let v = plan(&lib, seed, traced as u64, per)?;
        heap::set_counting(capture);
        let r = session(&mut lib, &v, &sink, &mut open_traced, spans);
        heap::set_counting(false);
        let s = r?;
        wall += s.wall_s;
        blocks += s.delivered;
        scrubbed_all += s.report.scrubbed_blocks;
        if capture {
            prefix_blocks += s.delivered;
            items += s.items;
            rounds += s.report.sim.rounds;
            scrubbed += s.report.scrubbed_blocks;
            hedges += s.report.hedges;
            busy_ns += s.report.sim.disk_busy.as_nanos();
            elapsed_ns += rec.borrow_mut().take_last_round_end();
        }
        traced += 1;
        if traced == cfg.prefix_sessions {
            prefix_stats = Some(member_stats(&lib));
        }
    }
    let (a1, b1) = heap::snapshot();
    lib.cluster.set_obs(&ObsSink::noop());
    let stats1 = member_stats(&lib);
    let rec = rec.borrow();

    let mut sh = Sheet::default();
    let prefix = sum_diff(&stats0, &prefix_stats.expect("prefix completed"));
    ledger::fill_disk(&mut sh, &prefix);
    let all = sum_diff(&stats0, &stats1);
    let sector = DiskGeometry::vintage_1991().sector_size.get();
    let scrub_bytes: u64 = rec
        .scrubs
        .iter()
        .filter_map(|&(v, s, b)| {
            let msm = lib.cluster.members()[v].mrs().msm();
            msm.strand(StrandId::from_raw(s)).ok()?.block(b).ok()?
        })
        .map(|e| e.sectors * sector)
        .sum();
    sh.set(
        "checksum.bytes_hashed",
        (prefix.sectors_transferred * sector + scrub_bytes) as f64,
    );
    sh.set("mrs.schedule_items", items as f64);
    sh.set("admission.admits", rec.kind("admit") as f64);
    sh.set("admission.releases", rec.kind("release") as f64);
    ledger::fill_obs_counts(&mut sh, &rec);
    ledger::fill_spans(&mut sh, spans);
    sh.set("cluster.rounds", rounds as f64);
    sh.set("cluster.round_wall_us.p50", rec.round_wall_us.median());
    sh.set(
        "cluster.round_wall_us.p99",
        rec.round_wall_us.quantile(0.99),
    );
    let members = lib.cluster.members().len() as f64;
    sh.set(
        "cluster.member_idle_ratio",
        1.0 - busy_ns as f64 / (members * elapsed_ns.max(1) as f64),
    );
    sh.set("cluster.scrubbed", scrubbed as f64);
    sh.set("cluster.hedges", hedges as f64);
    sh.set("cluster.max_title_s", ledger::max_title_s(64));
    sh.set(
        "heap.allocs_per_block",
        (a1 - a0) as f64 / prefix_blocks as f64,
    );
    sh.set(
        "heap.bytes_per_block",
        (b1 - b0) as f64 / prefix_blocks as f64,
    );

    let (g, sk) = (DiskGeometry::vintage_1991(), SeekModel::vintage_1991());
    let reads: Vec<_> = rec.disk_ops.iter().copied().filter(|o| o.read).collect();
    let access = ledger::access_ns(g, sk, &reads);
    sh.set("disk.access_ns", access);
    let block_bytes = reads.first().map_or(0, |o| o.sectors * sector) as usize;
    let sizes = vec![block_bytes; 2_000];
    sh.set(
        "disk.store_ns_per_kb",
        ledger::store_ns_per_kb(g, sk, &sizes),
    );
    let fetch_sum = ledger::fetch_sum_ns_per_kb(g, sk, &sizes);
    sh.set("disk.fetch_sum_ns_per_kb", fetch_sum);
    sh.set(
        "checksum.ns_per_kb",
        ledger::fnv_ns_per_kb(&sizes, sector as usize),
    );
    let sample: Vec<(StrandId, u64)> = {
        let msm = lib.cluster.members()[0].mrs().msm();
        msm.strand_ids()
            .into_iter()
            .flat_map(|id| (0..cfg.tenths.0).map(move |n| (id, n)))
            .collect()
    };
    let m0 = lib.cluster.member_mut(0).mrs_mut().msm_mut();
    sh.set(
        "msm.read_timed_ns.verify_off",
        ledger::read_timed_ns(m0, &sample, false),
    );
    sh.set(
        "msm.read_timed_ns.verify_on",
        ledger::read_timed_ns(m0, &sample, true),
    );
    sh.set(
        "index.probe_ns",
        ledger::probe_ns(lib.cluster.members()[0].mrs().msm(), &sample),
    );
    let env = *lib.cluster.members()[0].mrs().msm().admission_ref().env();
    sh.set(
        "admission.try_admit_us",
        ledger::try_admit_us(env, video_spec(), per),
    );
    let (noop, ring, monitor) = ledger::emit_ns();
    sh.set("obs.emit_ns.noop", noop);
    sh.set("obs.emit_ns.ring", ring);
    sh.set("obs.emit_ns.monitor", monitor);
    sh.set(
        "obs.monitor_overhead_ratio",
        monitor_overhead(&mut lib, seed, per)?,
    );

    let hashed_kb =
        (all.sectors_transferred * sector + scrubbed_all * block_bytes as u64) as f64 / 1024.0;
    sh.set("ledger.checksum_ms", fetch_sum * hashed_kb / 1e6);
    sh.set("ledger.disk_model_ms", access * all.reads as f64 / 1e6);
    // The MSM read entry point's own cost beyond the disk model; the
    // verification hash is in `ledger.checksum_ms`.
    let msm_read = (sh.get("msm.read_timed_ns.verify_off") - access).max(0.0);
    sh.set("ledger.msm_read_ms", msm_read * all.reads as f64 / 1e6);
    sh.set(
        "ledger.mrs_open_ms",
        (sh.get("mrs.play_us") + sh.get("mrs.resolve_silence_us")) * open_traced.len() as f64 / 1e3,
    );
    sh.set(
        "ledger.obs_ms",
        (ledger::wall_recorder_emit_ns() + monitor) * rec.events_all as f64 / 1e6,
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

/// Serving wall with the monitor over the noop sink, median ratio of
/// alternating batches.
fn monitor_overhead(lib: &mut Library, seed: u64, per: usize) -> Result<f64, String> {
    let mut ratios = Samples::default();
    let mut spans = Spans::off();
    let mut open = Samples::default();
    for rep in 0..3u64 {
        let mut walls = [0.0f64; 2];
        for (side, sink) in [Sink::Noop, Sink::Monitor].iter().enumerate() {
            for j in 0..4 {
                let v = plan(lib, seed, rep * 4 + j, per)?;
                walls[side] += session(lib, &v, sink, &mut open, &mut spans)?.wall_s;
            }
        }
        ratios.push(walls[1] / walls[0]);
    }
    Ok(ratios.median())
}
