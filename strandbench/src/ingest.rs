//! `ingest`: the write path alone. Each session records the seeded
//! library — CBR video, VBR video, and AV titles with audio silence
//! elimination — onto a fresh journaled volume through `Mrs::record`,
//! `record_video_frame`, `record_audio_samples` and `stop`. Payloads are
//! generated in set-up, so only the recording calls are timed.
//!
//! After each session (untimed for the ingest metrics) the checks run:
//! every stored block's stamp verifies, sampled `read_block` payloads
//! equal the input, `fsck::check_volume` is clean, and the library plays
//! back continuously with every title open at once — the playback
//! metrics of this workload come from that last check.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_core::fsck;
use strandfs_core::journal::JournalConfig;
use strandfs_core::mrs::{Mrs, RecordOpts, TrackOpts};
use strandfs_core::msm::{Msm, MsmConfig};
use strandfs_core::rope::edit::MediaSel;
use strandfs_core::strand::StrandMeta;
use strandfs_core::{RopeId, StrandId};
use strandfs_disk::trace::DiskStats;
use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
use strandfs_media::silence::{BlockClass, SilenceDetector, TalkSpurtSource};
use strandfs_media::VideoCodec;
use strandfs_obs::{ObsSink, ProfSink, WindowedMonitor, PHASES};
use strandfs_sim::scenario::{standard_audio_meta, standard_video_meta};
use strandfs_units::Instant;

use crate::common::{
    ensure, rng, since, us, Fingerprint, Outcome, RefOp, Reference, Samples, WindowRate,
    SETUP_REF_OPS,
};
use crate::heap;
use crate::ledger::{self, Sheet};
use crate::serve;
use crate::trace::{Spans, WallRecorder};

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Titles in the library (kinds cycle CBR, VBR, AV).
    pub titles: usize,
    /// Title length in tenths of a second. Fixed, so the seed varies
    /// content (payload bytes, VBR frame sizes, talk spurts) but not the
    /// layout's shape, and the playback check's startup stays comparable
    /// across seeds.
    pub tenths: u64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// `read_block` payload comparisons per title per session.
    pub sampled_reads: usize,
    /// Sessions run even when the time is up.
    pub min_sessions: usize,
    /// Times each session's playback check plays the whole library.
    pub check_plays: usize,
}

impl Config {
    /// The benchmark's size.
    pub const FULL: Config = Config {
        titles: 6,
        tenths: 180,
        setup_reps: 15,
        sampled_reads: 8,
        min_sessions: 5,
        check_plays: 4,
    };

    /// A reduced size for smoke tests.
    pub const SMOKE: Config = Config {
        titles: 3,
        tenths: 15,
        setup_reps: 1,
        sampled_reads: 2,
        min_sessions: 1,
        check_plays: 2,
    };
}

/// Video strand metadata (NTSC, 3 frames per 100 ms block).
pub fn video_meta() -> StrandMeta {
    standard_video_meta()
}

fn geometry() -> (DiskGeometry, SeekModel) {
    (DiskGeometry::projected_fast(), SeekModel::projected_fast())
}

/// Gap bound of the constrained allocator, in sectors.
const GAP_MAX: u64 = 40_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cbr,
    Vbr,
    Av,
}

/// One title's captured input.
#[derive(Debug)]
pub struct Title {
    kind: Kind,
    frames: Vec<Vec<u8>>,
    samples: Vec<i32>,
}

impl Title {
    /// 100 ms blocks in the title.
    fn blocks(&self) -> usize {
        self.frames.len().div_ceil(3)
    }
}

/// The generated library.
#[derive(Debug)]
pub struct Library {
    titles: Vec<Title>,
    /// Bytes handed to the record calls (frames + one byte per sample).
    pub payload_bytes: u64,
}

/// Generate the library from the seed.
pub fn generate(cfg: &Config, seed: u64) -> Library {
    let mut r = rng(seed, 1);
    let titles: Vec<Title> = (0..cfg.titles)
        .map(|i| {
            let kind = [Kind::Cbr, Kind::Vbr, Kind::Av][i % 3];
            let s = r.next_u64();
            let codec = if kind == Kind::Vbr {
                VideoCodec::uvc_ntsc_vbr(s)
            } else {
                VideoCodec::uvc_ntsc(s)
            };
            let frames = (0..3 * cfg.tenths)
                .map(|f| {
                    let bytes = codec.frame_bits(f).to_bytes_ceil().get() as usize;
                    codec.frame_payload(f, bytes)
                })
                .collect();
            let samples = if kind == Kind::Av {
                TalkSpurtSource::telephone(r.next_u64()).generate(800 * cfg.tenths as usize)
            } else {
                Vec::new()
            };
            Title {
                kind,
                frames,
                samples,
            }
        })
        .collect();
    let payload_bytes = titles
        .iter()
        .map(|t| t.frames.iter().map(|f| f.len() as u64).sum::<u64>() + t.samples.len() as u64)
        .sum();
    Library {
        titles,
        payload_bytes,
    }
}

/// The journaled volume configuration sized for `lib`.
pub fn volume_config(lib: &Library, seed: u64) -> MsmConfig {
    // No checkpoint lands mid-recording, so the journal must hold every
    // record of the longest title (video + audio blocks) plus slack.
    let longest = lib
        .titles
        .iter()
        .map(|t| 2 * t.blocks() as u64)
        .max()
        .unwrap_or(0);
    MsmConfig::constrained(
        GapBounds {
            min_sectors: 0,
            max_sectors: GAP_MAX,
        },
        seed,
    )
    .with_journal(JournalConfig {
        slots: longest + 64,
        ckpt_sectors: 64,
    })
}

fn fresh_volume(lib: &Library, seed: u64) -> Mrs {
    let (g, s) = geometry();
    Mrs::new(Msm::new(SimDisk::new(g, s), volume_config(lib, seed)))
}

fn audio_payload(chunk: &[i32]) -> Vec<u8> {
    chunk
        .iter()
        .map(|&s| s.clamp(-128, 127) as i8 as u8)
        .collect()
}

/// Record the whole library; returns the wall seconds spent inside the
/// recording calls, the ropes, and the virtual end time. Every
/// block-flushing call's latency goes to `flush_us`.
fn record_library(
    mrs: &mut Mrs,
    lib: &Library,
    flush_us: &mut Samples,
    spans: &mut Spans,
) -> Result<(f64, Vec<RopeId>, Instant), String> {
    let err = |e: strandfs_core::FsError| e.to_string();
    let mut wall = 0.0;
    let mut t = Instant::EPOCH;
    let mut ropes = Vec::with_capacity(lib.titles.len());
    for title in &lib.titles {
        let sp = spans.begin("mrs.record_title", 0);
        let opts = RecordOpts {
            video: Some(TrackOpts {
                meta: video_meta(),
                silence: None,
            }),
            audio: (title.kind == Kind::Av).then(|| TrackOpts {
                meta: standard_audio_meta(),
                silence: Some(SilenceDetector::telephone()),
            }),
        };
        let c = Wall::now();
        let req = mrs.record("studio", opts).map_err(err)?;
        wall += since(c);
        for b in 0..title.blocks() {
            for f in &title.frames[3 * b..(3 * b + 3).min(title.frames.len())] {
                let c = Wall::now();
                let flushed = mrs.record_video_frame(req, t, f).map_err(err)?;
                let d = c.elapsed();
                wall += d.as_secs_f64();
                if let Some(op) = flushed {
                    t = op.completed;
                    flush_us.push(us(d));
                }
            }
            if title.kind == Kind::Av {
                let chunk = &title.samples[800 * b..800 * (b + 1)];
                let c = Wall::now();
                let ops = mrs.record_audio_samples(req, t, chunk).map_err(err)?;
                let d = c.elapsed();
                wall += d.as_secs_f64();
                if let Some(op) = ops.last() {
                    t = op.completed;
                    flush_us.push(us(d));
                }
            }
        }
        let c = Wall::now();
        let rope = mrs
            .stop(req, t)
            .map_err(err)?
            .ok_or("recording produced no rope")?;
        wall += since(c);
        spans.end(sp);
        ropes.push(rope);
    }
    Ok((wall, ropes, t))
}

/// The recorded strands of each title: `(video, audio)`.
fn strands_of(mrs: &Mrs, ropes: &[RopeId]) -> Result<Vec<(StrandId, Option<StrandId>)>, String> {
    ropes
        .iter()
        .map(|&r| {
            let rope = mrs.rope(r).map_err(|e| e.to_string())?;
            ensure(rope.segments.len() == 1, || {
                format!("{r}: expected one segment")
            })?;
            let seg = &rope.segments[0];
            let v = seg.video.ok_or(format!("{r}: no video track"))?.strand;
            Ok((v, seg.audio.map(|a| a.strand)))
        })
        .collect()
}

/// Layout facts of a recorded session, and its fingerprint.
#[derive(Debug, Default)]
struct Layout {
    stored_blocks: u64,
    media_bytes: u64,
    index_bytes: u64,
    silence_blocks: u64,
    fingerprint: u64,
}

fn layout(mrs: &Mrs, strands: &[(StrandId, Option<StrandId>)]) -> Result<Layout, String> {
    let msm = mrs.msm();
    let sector = msm.disk().geometry().sector_size.get();
    let mut l = Layout::default();
    let mut fp = Fingerprint::default();
    for (v, a) in strands {
        for id in std::iter::once(*v).chain(*a) {
            let s = msm.strand(id).map_err(|e| e.to_string())?;
            for (n, e) in s.stored_iter() {
                l.stored_blocks += 1;
                l.media_bytes += e.sectors * sector;
                fp.add(n);
                fp.add(e.start);
                fp.add(e.sectors);
            }
            for sum in s.sums() {
                fp.add(*sum);
            }
            l.silence_blocks += s.block_count() - s.stored_blocks();
            l.index_bytes += s
                .index_extents()
                .iter()
                .map(|e| e.sectors * sector)
                .sum::<u64>();
        }
    }
    let st = msm.disk().stats();
    fp.add(st.reads);
    fp.add(st.writes);
    fp.add(st.busy_time().as_nanos());
    l.fingerprint = fp.get();
    Ok(l)
}

/// The post-ingest integrity checks: stamps, sampled payloads, fsck.
fn check_session(
    mrs: &mut Mrs,
    lib: &Library,
    strands: &[(StrandId, Option<StrandId>)],
    cfg: &Config,
    seed: u64,
    now: Instant,
) -> Result<(), String> {
    let mut r = rng(seed, 2);
    let detector = SilenceDetector::telephone();
    for (title, (v, a)) in lib.titles.iter().zip(strands) {
        let msm = mrs.msm();
        let vs = msm.strand(*v).map_err(|e| e.to_string())?;
        ensure(vs.block_count() == title.blocks() as u64, || {
            format!(
                "{v}: {} blocks, recorded {}",
                vs.block_count(),
                title.blocks()
            )
        })?;
        for id in std::iter::once(*v).chain(*a) {
            let s = msm.strand(id).map_err(|e| e.to_string())?;
            for (n, _) in s.stored_iter() {
                let ok = msm.check_block_sum(id, n).map_err(|e| e.to_string())?;
                ensure(ok == Some(true), || {
                    format!("{id} block {n}: stamp check {ok:?}")
                })?;
            }
        }
        if let Some(a) = a {
            let s = msm.strand(*a).map_err(|e| e.to_string())?;
            for n in 0..s.block_count() {
                let chunk = &title.samples[800 * n as usize..800 * (n as usize + 1)];
                let hole = s.block(n).map_err(|e| e.to_string())?.is_none();
                let silent = detector.classify(chunk) == BlockClass::Silent;
                ensure(hole == silent, || {
                    format!("{a} block {n}: hole={hole} silent={silent}")
                })?;
            }
        }
        for _ in 0..cfg.sampled_reads {
            let n = r.bounded_u64(title.blocks() as u64);
            let want: Vec<u8> =
                title.frames[3 * n as usize..(3 * n as usize + 3).min(title.frames.len())].concat();
            compare_read(mrs, *v, n, &want, now)?;
            if let Some(a) = a {
                let chunk = &title.samples[800 * n as usize..800 * (n as usize + 1)];
                if detector.classify(chunk) != BlockClass::Silent {
                    compare_read(mrs, *a, n, &audio_payload(chunk), now)?;
                }
            }
        }
    }
    let report = fsck::check_volume(mrs, now);
    ensure(report.clean(), || format!("fsck: {:?}", report.findings))
}

/// `read_block` must return `want` followed by zero padding.
fn compare_read(
    mrs: &mut Mrs,
    id: StrandId,
    n: u64,
    want: &[u8],
    now: Instant,
) -> Result<(), String> {
    let (data, _) = mrs
        .msm_mut()
        .read_block(id, n, now)
        .map_err(|e| format!("{id} block {n}: {e}"))?;
    let data = data.ok_or(format!("{id} block {n}: read a hole"))?;
    ensure(
        data.len() >= want.len()
            && data[..want.len()] == *want
            && data[want.len()..].iter().all(|&b| b == 0),
        || format!("{id} block {n}: payload differs from the recorded input"),
    )
}

/// Everything one session measured.
struct Session {
    record_wall: f64,
    /// Disk counters of the recording alone (checks excluded).
    record_disk: DiskStats,
    layout: Layout,
    /// The first playback check.
    served: serve::Served,
    /// Blocks delivered and wall seconds over every playback check.
    play_delivered: u64,
    play_wall: f64,
    /// Virtual startup of every stream of every playback check, in ms.
    startup_ms: Vec<f64>,
}

fn run_session(
    lib: &Library,
    cfg: &Config,
    seed: u64,
    flush_us: &mut Samples,
    open_us: &mut Samples,
    spans: &mut Spans,
    obs: Option<ObsSink>,
) -> Result<(Session, Mrs), String> {
    let mut mrs = fresh_volume(lib, seed);
    if let Some(o) = obs {
        mrs.set_obs(o);
    }
    // Traced sessions (spans on) count heap use of the recording calls.
    heap::set_counting(spans.is_on());
    let recorded = record_library(&mut mrs, lib, flush_us, spans);
    heap::set_counting(false);
    let (record_wall, ropes, end) = recorded?;
    let record_disk = mrs.msm().disk().stats().clone();
    let strands = strands_of(&mrs, &ropes)?;
    let layout = layout(&mrs, &strands)?;
    let sp = spans.begin("check.integrity", 0);
    check_session(&mut mrs, lib, &strands, cfg, seed, end)?;
    spans.end(sp);
    let served = serve::session(&mut mrs, &ropes, MediaSel::Both, open_us, spans)?;
    let (mut play_delivered, mut play_wall) = (served.delivered, served.wall_s);
    let startup = |r: &strandfs_sim::SimReport| -> Vec<f64> {
        r.streams
            .iter()
            .map(|st| st.start_latency.as_nanos() as f64 / 1e6)
            .collect()
    };
    let mut startup_ms = startup(&served.report);
    for _ in 1..cfg.check_plays {
        let again = serve::session(&mut mrs, &ropes, MediaSel::Both, open_us, spans)?;
        play_delivered += again.delivered;
        play_wall += again.wall_s;
        startup_ms.extend(startup(&again.report));
    }
    Ok((
        Session {
            record_wall,
            record_disk,
            layout,
            served,
            play_delivered,
            play_wall,
            startup_ms,
        },
        mrs,
    ))
}

/// Session fingerprint: layout plus the playback check's outcome.
fn session_fingerprint(s: &Session) -> u64 {
    let mut fp = Fingerprint::default();
    fp.add(s.layout.fingerprint);
    serve::fingerprint(&mut fp, &s.served.report);
    fp.get()
}

/// Run the workload for `seconds` and report the end-to-end metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_fps = Vec::new();
    let mut lib = None;
    let mut setup = Samples::default();
    let mut setup_ref = Reference::default();
    for _ in 0..cfg.setup_reps.max(1) {
        let t0 = Wall::now();
        let l = generate(cfg, seed);
        setup.push(since(t0));
        for _ in 0..SETUP_REF_OPS {
            setup_ref.op(RefOp::Hash);
        }
        let mut fp = Fingerprint::default();
        for t in &l.titles {
            fp.add(t.frames.len() as u64);
            fp.add(strandfs_core::journal::fnv1a(&t.frames[0]));
        }
        fp.add(l.payload_bytes);
        setup_fps.push(fp.get());
        lib = Some(l);
    }
    ensure(setup_fps.windows(2).all(|w| w[0] == w[1]), || {
        "set-up is not deterministic for one seed".into()
    })?;
    let lib = lib.expect("at least one set-up");

    let mut flush_us = Samples::default();
    let mut open_us = Samples::default();
    let mut mbps = Samples::default();
    let mut delivered = WindowRate::new(0.0);
    let mut sessions_ref = Reference::default();
    let mut spans = Spans::off();
    let mut first: Option<(Session, u64)> = None;
    let mut attempted = 0u64;
    let t0 = Wall::now();
    let mut sessions = 0;
    while sessions < cfg.min_sessions || since(t0) < seconds {
        let (s, _) = run_session(
            &lib,
            cfg,
            seed,
            &mut flush_us,
            &mut open_us,
            &mut spans,
            None,
        )?;
        sessions_ref.op(RefOp::Sort);
        sessions_ref.op(RefOp::Hash);
        let fp = session_fingerprint(&s);
        if let Some((_, f0)) = &first {
            ensure(*f0 == fp, || {
                format!("session {sessions} diverged from session 0")
            })?;
        }
        mbps.push(lib.payload_bytes as f64 / 1e6 / s.record_wall);
        delivered.add(s.play_delivered as f64, s.play_wall);
        attempted += s.layout.stored_blocks + s.layout.silence_blocks + s.served.items;
        if first.is_none() {
            first = Some((s, fp));
        }
        sessions += 1;
    }
    let (s0, fp) = first.expect("at least one session");
    let mut startup = Samples::default();
    for ms in &s0.startup_ms {
        startup.push(*ms);
    }
    let mut o = Outcome {
        attempted,
        failed: 0,
        fingerprint: fp,
        ..Outcome::default()
    };
    o.push_time_at("setup_s", setup.median(), "s", setup_ref.speed(RefOp::Hash));
    let (sort, hash) = (
        sessions_ref.speed(RefOp::Sort),
        sessions_ref.speed(RefOp::Hash),
    );
    o.push_rate_at("ingest_mb_per_s", mbps.median(), "MB/s", hash);
    o.push_median_at("record_block_us", &flush_us, "us", hash);
    o.push_rate_at("delivered_blocks_per_s", delivered.median(), "1/s", sort);
    // Opening AV titles with silence resolution follows neither
    // reference in step (about half the `sort` swing), so it stays as
    // measured.
    o.push_median_at("play_open_us", &open_us, "us", 1.0);
    o.push_quantiles("startup_ms", &startup, "ms");
    o.push("streams_per_volume", s0.served.streams as f64, "count");
    o.push(
        "disk_ms_per_block",
        s0.record_disk.busy_time().as_nanos() as f64 / 1e6 / s0.layout.stored_blocks as f64,
        "ms",
    );
    o.push(
        "space_amplification",
        (s0.layout.media_bytes + s0.layout.index_bytes) as f64 / lib.payload_bytes as f64,
        "ratio",
    );
    o.push("peak_rss_mb", crate::common::peak_rss_mb(), "MB");
    o.notes.push(format!(
        "sessions={sessions} payload_mb={:.1} blocks/session={} k={}",
        lib.payload_bytes as f64 / 1e6,
        s0.layout.stored_blocks,
        s0.served.k
    ));
    Ok(o)
}

/// The traced run: an untraced half for the overhead baseline, then a
/// traced half with the wall-stamping recorder, the `sim` profiler, the
/// counting allocator and spans; then the micro-timings.
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let lib = generate(cfg, seed);
    let mut flush = Samples::default();
    let mut open = Samples::default();
    let half = seconds / 2.0;

    let mut off = Spans::off();
    let (mut base_wall, mut base_blocks) = (0.0, 0u64);
    let t0 = Wall::now();
    while base_blocks == 0 || since(t0) < half {
        let (s, _) = run_session(&lib, cfg, seed, &mut flush, &mut open, &mut off, None)?;
        base_wall += s.record_wall;
        base_blocks += s.layout.stored_blocks + s.layout.silence_blocks;
    }

    let rec = Rc::new(RefCell::new(WallRecorder::new(ObsSink::noop())));
    let (prof_sink, prof) = ProfSink::fresh();
    strandfs_sim::set_profiler(prof_sink);
    let (mut wall, mut blocks, mut sessions) = (0.0, 0u64, 0u64);
    let (a0, b0) = heap::snapshot();
    let (mut a1, mut b1) = (a0, b0);
    let mut first: Option<(Session, Mrs, u64)> = None;
    let t0 = Wall::now();
    while sessions == 0 || since(t0) < half {
        rec.borrow_mut().capture = sessions == 0;
        let probes = strandfs_sim::playback::lba_probe_count();
        let (s, mrs) = run_session(
            &lib,
            cfg,
            seed,
            &mut flush,
            &mut open,
            spans,
            Some(ObsSink::shared(&rec)),
        )?;
        wall += s.record_wall;
        blocks += s.layout.stored_blocks + s.layout.silence_blocks;
        if first.is_none() {
            (a1, b1) = heap::snapshot();
            first = Some((s, mrs, strandfs_sim::playback::lba_probe_count() - probes));
        }
        sessions += 1;
    }
    strandfs_sim::set_profiler(ProfSink::noop());
    let (s0, mut mrs, probes) = first.expect("one traced session");
    mrs.set_obs(ObsSink::noop());
    let rec = rec.borrow();

    let mut sh = Sheet::default();
    let msm = mrs.msm();
    let st = s0.record_disk.clone();
    ledger::fill_disk(&mut sh, &st);
    let a = msm.allocator().stats();
    sh.set("alloc.calls", (a.allocations + a.failures) as f64);
    sh.set("alloc.wraps", a.wraps as f64);
    sh.set("alloc.failures", a.failures as f64);
    let sector = msm.disk().geometry().sector_size.get() as usize;
    sh.set("checksum.bytes_hashed", s0.layout.media_bytes as f64);
    sh.set("journal.records", rec.journal_records as f64);
    sh.set("journal.checkpoints", rec.checkpoints as f64);
    let jr = msm.journal_region();
    let jsectors: u64 = rec
        .disk_ops
        .iter()
        .filter(|op| !op.read && jr.is_some_and(|j| op.lba >= j.start && op.lba < j.end()))
        .map(|op| op.sectors)
        .sum();
    sh.set("journal.sectors", jsectors as f64);
    sh.set(
        "index.sectors",
        (s0.layout.index_bytes / sector as u64) as f64,
    );
    sh.set("index.lba_probes", probes as f64);
    sh.set("admission.admits", rec.kind("admit") as f64);
    sh.set("admission.releases", rec.kind("release") as f64);
    sh.set("media.silence_blocks", s0.layout.silence_blocks as f64);
    sh.set("mrs.schedule_items", s0.served.items as f64);
    sh.set("sim.rounds", s0.served.report.rounds as f64);
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
    let first_blocks = (s0.layout.stored_blocks + s0.layout.silence_blocks) as f64;
    sh.set("heap.allocs_per_block", (a1 - a0) as f64 / first_blocks);
    sh.set("heap.bytes_per_block", (b1 - b0) as f64 / first_blocks);

    // Micro-timings on this workload's inputs.
    let (g, sk) = geometry();
    // Payload sizes of the stored blocks (eliminated silence stores
    // nothing).
    let detector = SilenceDetector::telephone();
    let sizes: Vec<usize> = lib
        .titles
        .iter()
        .flat_map(|t| {
            let video = t
                .frames
                .chunks(3)
                .map(|c| c.iter().map(Vec::len).sum::<usize>());
            let audio = t
                .samples
                .chunks(800)
                .filter(|c| detector.classify(c) != BlockClass::Silent)
                .map(<[i32]>::len);
            video.chain(audio).collect::<Vec<_>>()
        })
        .collect();
    let writes: Vec<_> = rec.disk_ops.iter().copied().filter(|o| !o.read).collect();
    let access = ledger::access_ns(g, sk, &writes);
    sh.set("disk.access_ns", access);
    let store = ledger::store_ns_per_kb(g, sk, &sizes);
    sh.set("disk.store_ns_per_kb", store);
    sh.set(
        "disk.fetch_sum_ns_per_kb",
        ledger::fetch_sum_ns_per_kb(g, sk, &sizes),
    );
    let config = volume_config(&lib, seed);
    let sectors: Vec<u64> = sizes
        .iter()
        .map(|n| n.div_ceil(sector).max(1) as u64)
        .collect();
    let alloc = ledger::alloc_ns(g.total_sectors(), config.policy.clone(), seed, &sectors);
    sh.set("alloc.ns_per_call", alloc);
    let fnv = ledger::fnv_ns_per_kb(&sizes, sector);
    sh.set("checksum.ns_per_kb", fnv);
    let unaligned: Vec<usize> = sizes.iter().copied().filter(|n| n % sector != 0).collect();
    let copied: u64 = unaligned
        .iter()
        .map(|n| (n.div_ceil(sector) * sector) as u64)
        .sum();
    sh.set("msm.bytes_copied", copied as f64);
    let pad = ledger::pad_copy_ns_per_kb(&unaligned, sector);
    sh.set(
        "msm.append_us",
        ledger::append_us(g, sk, &config, &sizes[..sizes.len().min(400)]),
    );
    let blocks_sample: Vec<(StrandId, u64)> = {
        let strands = strands_of(&mrs, &mrs.rope_ids())?;
        strands
            .iter()
            .flat_map(|(v, _)| (0..40).map(move |n| (*v, n)))
            .collect()
    };
    sh.set(
        "msm.read_timed_ns.verify_off",
        ledger::read_timed_ns(mrs.msm_mut(), &blocks_sample, false),
    );
    sh.set(
        "msm.read_timed_ns.verify_on",
        ledger::read_timed_ns(mrs.msm_mut(), &blocks_sample, true),
    );
    sh.set(
        "index.probe_ns",
        ledger::probe_ns(mrs.msm(), &blocks_sample),
    );
    let spec = strandfs_core::admission::RequestSpec {
        q: 3,
        unit_bits: video_meta().unit_bits,
        unit_rate: video_meta().unit_rate,
    };
    let env = *mrs.msm().admission_ref().env();
    let admit = ledger::try_admit_us(env, spec, s0.served.streams);
    sh.set("admission.try_admit_us", admit);
    let chunks: Vec<&[i32]> = lib
        .titles
        .iter()
        .flat_map(|t| t.samples.chunks(800))
        .collect();
    let classify = ledger::classify_ns(&chunks);
    sh.set("media.classify_ns", classify);
    let (noop, ring, monitor) = ledger::emit_ns();
    sh.set("obs.emit_ns.noop", noop);
    sh.set("obs.emit_ns.ring", ring);
    sh.set("obs.emit_ns.monitor", monitor);
    sh.set(
        "obs.monitor_overhead_ratio",
        monitor_overhead(&lib, cfg, seed)?,
    );

    // The ledger: per-session op counts × ns/op, over every traced
    // session (they are identical), against the traced recording wall.
    let n = sessions as f64;
    let kb_media = s0.layout.media_bytes as f64 / 1024.0;
    let rec_writes = st.writes as f64;
    sh.set("ledger.disk_model_ms", access * rec_writes * n / 1e6);
    sh.set("ledger.disk_store_ms", store * kb_media * n / 1e6);
    sh.set("ledger.checksum_ms", fnv * kb_media * n / 1e6);
    sh.set("ledger.pad_copy_ms", pad * copied as f64 / 1024.0 * n / 1e6);
    sh.set("ledger.alloc_ms", alloc * sh.get("alloc.calls") * n / 1e6);
    sh.set("ledger.media_ms", classify * chunks.len() as f64 * n / 1e6);
    let record_events = (rec.events as f64 - playback_events(&rec)).max(0.0);
    sh.set(
        "ledger.obs_ms",
        ledger::wall_recorder_emit_ns() * record_events * n / 1e6,
    );
    sh.close_ledger(wall * 1e3);
    sh.set(
        "trace.overhead_ratio",
        (wall / blocks as f64) / (base_wall / base_blocks as f64),
    );
    let mut o = Outcome {
        attempted: blocks,
        ..Outcome::default()
    };
    o.metrics = sh.metrics();
    Ok(o)
}

/// Events the playback check emitted (excluded from the recording
/// ledger).
fn playback_events(rec: &WallRecorder) -> f64 {
    [
        "round_start",
        "round_end",
        "stream_service",
        "display_start",
        "deadline",
        "round_idle",
    ]
    .iter()
    .map(|k| rec.kind(k) as f64)
    .sum::<f64>()
        + rec.disk_ops.iter().filter(|o| o.read).count() as f64
}

/// Recording wall with a windowed monitor attached over recording with
/// the noop sink, median of three alternating pairs.
fn monitor_overhead(lib: &Library, cfg: &Config, seed: u64) -> Result<f64, String> {
    let mut ratios = Samples::default();
    let mut spans = Spans::off();
    for _ in 0..3 {
        let mut sink = Samples::default();
        let (bare, _) = run_session(
            lib,
            cfg,
            seed,
            &mut sink,
            &mut Samples::default(),
            &mut spans,
            None,
        )?;
        let mon = Rc::new(RefCell::new(WindowedMonitor::new(ledger::monitor_config())));
        let (watched, _) = run_session(
            lib,
            cfg,
            seed,
            &mut sink,
            &mut Samples::default(),
            &mut spans,
            Some(ObsSink::shared(&mon)),
        )?;
        ratios.push(watched.record_wall / bare.record_wall);
    }
    Ok(ratios.median())
}

/// Record `lib` onto `mrs` (any volume), returning the ropes and the
/// virtual end time.
pub fn record(mrs: &mut Mrs, lib: &Library) -> Result<(Vec<RopeId>, Instant), String> {
    let (_, ropes, end) = record_library(mrs, lib, &mut Samples::default(), &mut Spans::off())?;
    Ok((ropes, end))
}

/// The post-ingest integrity checks over recorded `ropes`.
pub fn verify(
    mrs: &mut Mrs,
    lib: &Library,
    ropes: &[RopeId],
    cfg: &Config,
    seed: u64,
    now: Instant,
) -> Result<(), String> {
    let strands = strands_of(mrs, ropes)?;
    check_session(mrs, lib, &strands, cfg, seed, now)
}
