//! One single-volume playback session through the public API:
//! `Mrs::play` + `resolve_silence` per viewer, `simulate_playback`
//! under CSCAN, `Mrs::stop`, and the continuity checks.

use std::time::Instant as Wall;

use strandfs_core::mrs::Mrs;
use strandfs_core::rope::edit::{Interval, MediaSel};
use strandfs_core::RopeId;
use strandfs_sim::{simulate_playback, PlaybackConfig, SimReport};
use strandfs_units::Instant;

use crate::common::{ensure, since, us, Fingerprint, Samples};
use crate::trace::Spans;

/// What a served session produced.
#[derive(Debug)]
pub struct Served {
    /// The simulator's report (virtual time).
    pub report: SimReport,
    /// Wall seconds for open + serve + stop.
    pub wall_s: f64,
    /// On-time non-silence blocks delivered.
    pub delivered: u64,
    /// Streams held admitted at once.
    pub streams: usize,
    /// Schedule items across all viewers (silence included).
    pub items: u64,
    /// The round size admission settled on.
    pub k: u64,
}

/// Open one viewer per rope, serve them to completion and stop them.
/// Fails on any refused open, late or dropped block, or a fetch count
/// that differs from the schedule's non-silence items.
pub fn session(
    mrs: &mut Mrs,
    ropes: &[RopeId],
    sel: MediaSel,
    open_us: &mut Samples,
    spans: &mut Spans,
) -> Result<Served, String> {
    let t0 = Wall::now();
    let sess = spans.begin("session", 0);
    let mut reqs = Vec::with_capacity(ropes.len());
    let mut scheds = Vec::with_capacity(ropes.len());
    let mut expect = Vec::with_capacity(ropes.len());
    for &rope in ropes {
        let c = Wall::now();
        let dur = mrs.rope(rope).map_err(|e| e.to_string())?.duration();
        let sp = spans.begin("mrs.play", sess);
        let (req, mut sched) = mrs
            .play("viewer", rope, sel, Interval::whole(dur))
            .map_err(|e| format!("PLAY {rope} refused: {e}"))?;
        spans.end(sp);
        let sp = spans.begin("mrs.resolve_silence", sess);
        mrs.resolve_silence(&mut sched).map_err(|e| e.to_string())?;
        spans.end(sp);
        open_us.push(us(c.elapsed()));
        expect.push(sched.fetch_count() as u64);
        reqs.push(req);
        scheds.push(sched);
    }
    let streams = mrs.msm().admission_ref().active();
    let k = mrs.msm().admission_ref().k();
    let items = scheds.iter().map(|s| s.items.len() as u64).sum();
    let sp = spans.begin("sim.simulate_playback", sess);
    let report = simulate_playback(mrs, scheds, PlaybackConfig::with_k(k).cscan())
        .map_err(|e| format!("playback failed: {e}"))?;
    spans.end(sp);
    let sp = spans.begin("mrs.stop", sess);
    for req in reqs {
        mrs.stop(req, Instant::EPOCH).map_err(|e| e.to_string())?;
    }
    spans.end(sp);
    spans.end(sess);
    let wall_s = since(t0);
    ensure(report.total_violations() == 0, || {
        format!("{} late blocks", report.total_violations())
    })?;
    ensure(report.total_dropped() == 0, || {
        format!("{} dropped blocks", report.total_dropped())
    })?;
    for (i, (s, want)) in report.streams.iter().zip(&expect).enumerate() {
        ensure(s.fetched == *want, || {
            format!(
                "stream {i} fetched {} of {want} scheduled blocks",
                s.fetched
            )
        })?;
    }
    Ok(Served {
        delivered: expect.iter().sum(),
        report,
        wall_s,
        streams,
        items,
        k,
    })
}

/// Fold a simulator report's virtual-time outcome into `fp`.
pub fn fingerprint(fp: &mut Fingerprint, r: &SimReport) {
    fp.add(r.rounds);
    fp.add(r.disk_busy.as_nanos());
    for s in &r.streams {
        fp.add(s.fetched);
        fp.add(s.start_latency.as_nanos());
        fp.add(s.max_buffered);
        fp.add(s.violations);
    }
}
