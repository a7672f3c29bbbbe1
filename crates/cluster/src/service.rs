//! The cluster service loop: synchronized rounds across member
//! volumes, with mid-playback failover to surviving replicas.
//!
//! Time model: all volumes start round `r` at the same instant `T_r`
//! and serve their pinned streams on their own disks concurrently
//! (each volume has its own clock within the round); `T_{r+1}` is the
//! latest clock when every volume — and the round's background
//! re-replication budget — is done. Deadlines stay coherent across a
//! failover because replica schedules are structurally identical: a
//! stream switching volumes keeps its epochs, completions and item
//! offsets, only the strand/block addresses change.
//!
//! Each stream's turn runs through the same [`StreamState`] and
//! [`serve_turn`] step as the single-volume loop
//! (`strandfs_sim::playback`): epochs, deadlines, the drop → revoke
//! step, display start, re-admission and the final outcome are shared.
//! This loop brings only what is its own — replica pins, failover,
//! hedging, read-around repair, scrub, restore and quarantine — with
//! the per-item fetch passed into the turn step as a closure.

use crate::catalog::TitleId;
use crate::cluster::{Cluster, RejoinReport};
use strandfs_core::msm::{BlockFetch, FetchFailure};
use strandfs_core::FsError;
use strandfs_obs::{Event, ObsSink};
use strandfs_sim::metrics::SimReport;
use strandfs_sim::stream::{serve_turn, Fetched, StreamState};
use strandfs_units::{Instant, Nanos};

/// Configuration of a cluster playback run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterPlayback {
    /// Blocks per stream per round (the paper's `k`).
    pub k: u64,
    /// Blocks buffered before a stream's display starts — and the
    /// bound on the glitch a failover can cost a replicated stream.
    pub read_ahead: u64,
    /// Drops a stream tolerates (since admission) before revocation.
    pub revoke_after_drops: u64,
    /// Consecutive fault-free rounds before revoked streams return.
    pub readmit_clean_rounds: u64,
    /// Background re-replication budget per round, in media blocks
    /// (0 disables the restore pass).
    pub restore_blocks_per_round: u64,
    /// Background scrub budget per volume per round, in blocks
    /// (0 disables the scrubber). Scrub probes verify checksum stamps
    /// in place and are charged against spare round slack only — they
    /// never extend a round or move the disk arm.
    pub scrub_blocks_per_round: u64,
    /// Race a replica when a primary fetch exceeds its block's play
    /// duration (the fail-slow defense): the hedge read issues at the
    /// threshold and the earlier completion wins.
    pub hedge: bool,
    /// Consecutive rounds a volume fires hedges before it is
    /// quarantined — taken out of placement and serving while it is
    /// probed (0 disables quarantine).
    pub quarantine_after_rounds: u64,
    /// Consecutive on-time probes before a quarantined volume is
    /// re-admitted.
    pub readmit_probe_rounds: u64,
    /// Audit every payload served to a viewer against its checksum
    /// stamp (an untimed oracle for experiments; counts what silent
    /// corruption actually reached the audience).
    pub audit_integrity: bool,
    /// Hard bound on simulated rounds (a stuck-scenario backstop).
    pub max_rounds: u64,
}

impl ClusterPlayback {
    /// The standard configuration: read-ahead equal to the round size,
    /// a short ladder, restore off.
    pub fn with_k(k: u64) -> ClusterPlayback {
        ClusterPlayback {
            k,
            read_ahead: k,
            revoke_after_drops: 3,
            readmit_clean_rounds: 2,
            restore_blocks_per_round: 0,
            scrub_blocks_per_round: 0,
            hedge: false,
            quarantine_after_rounds: 3,
            readmit_probe_rounds: 2,
            audit_integrity: false,
            max_rounds: 100_000,
        }
    }

    /// Enable the per-round background restore budget.
    pub fn restore(mut self, blocks_per_round: u64) -> ClusterPlayback {
        self.restore_blocks_per_round = blocks_per_round;
        self
    }

    /// Enable the slack-budgeted background scrubber.
    pub fn scrub(mut self, blocks_per_round: u64) -> ClusterPlayback {
        self.scrub_blocks_per_round = blocks_per_round;
        self
    }

    /// Enable hedged reads against fail-slow members.
    pub fn hedged(mut self) -> ClusterPlayback {
        self.hedge = true;
        self
    }

    /// Enable the served-payload integrity audit.
    pub fn audited(mut self) -> ClusterPlayback {
        self.audit_integrity = true;
        self
    }
}

/// A scripted membership change.
#[derive(Clone, Copy, Debug)]
pub enum ClusterAction {
    /// Arm a whole-device fault plan on the member (failure is then
    /// *detected* by the read path, not announced).
    Kill(usize),
    /// Rejoin the member with surviving media (`Msm::recover` + fsck +
    /// catalog reconciliation).
    Rejoin(usize),
    /// Rejoin the member with fresh media (all its replicas lost, to
    /// be re-replicated in the background).
    RejoinWiped(usize),
}

/// A membership change scheduled for the start of a round.
#[derive(Clone, Copy, Debug)]
pub struct ScriptedAction {
    /// The round at whose start the action fires.
    pub at_round: u64,
    /// What happens.
    pub action: ClusterAction,
}

/// Per-volume service statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct VolumeStats {
    /// Media blocks fetched from the volume for playback.
    pub fetched: u64,
    /// Rounds the volume spent marked down.
    pub rounds_down: u64,
    /// Blocks the background scrubber verified on the volume.
    pub scrubbed: u64,
    /// Hedged reads fired because this volume's fetch ran slow.
    pub hedged: u64,
}

/// The result of a cluster playback run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The per-stream outcomes and totals, in viewer order — the same
    /// shape single-volume simulations report, so SLO tooling applies.
    pub sim: SimReport,
    /// Per stream: did its title have ≥ 2 replicas at start?
    pub replicated: Vec<bool>,
    /// Per stream: the longest consecutive run of schedule items that
    /// were dropped or arrived late — the visible glitch length.
    pub miss_bursts: Vec<u64>,
    /// Mid-playback replica switches across all streams.
    pub failovers: u64,
    /// Rejoin reports, in script order.
    pub rejoins: Vec<RejoinReport>,
    /// Media blocks copied by background re-replication.
    pub restored_blocks: u64,
    /// Replicas brought back live by background re-replication.
    pub restored_replicas: u64,
    /// Restore jobs dropped because their source held a block that
    /// failed its stamp (the copy is unwound; see
    /// [`Cluster::re_replicate`]).
    pub restore_refusals: u64,
    /// Blocks the background scrubber verified.
    pub scrubbed_blocks: u64,
    /// Corrupt blocks the scrubber detected.
    pub scrub_corrupt: u64,
    /// Corrupt blocks rewritten in place from a clean replica.
    pub scrub_repaired: u64,
    /// Replicas the scrubber invalidated for re-replication (the
    /// fallback when no in-place repair source exists).
    pub scrub_invalidated: u64,
    /// Corrupt blocks a viewer read detected and repaired in place via
    /// read-around (served from a clean replica, rewritten locally).
    pub read_repairs: u64,
    /// Payloads served to viewers that failed the integrity audit
    /// (only counted with `audit_integrity`).
    pub corrupt_served: u64,
    /// Hedged reads issued.
    pub hedges: u64,
    /// Hedged reads the replica won.
    pub hedge_wins: u64,
    /// Members quarantined for breaching the read-latency SLO.
    pub quarantines: u64,
    /// Quarantined members re-admitted after clean probes.
    pub quarantine_readmits: u64,
    /// Per-volume service statistics.
    pub volumes: Vec<VolumeStats>,
}

impl ClusterReport {
    /// Blocks dropped by streams of replicated titles (0 is the
    /// failover guarantee).
    pub fn replicated_dropped(&self) -> u64 {
        self.zip_dropped(true)
    }

    /// Blocks dropped by streams of single-replica titles.
    pub fn unreplicated_dropped(&self) -> u64 {
        self.zip_dropped(false)
    }

    fn zip_dropped(&self, replicated: bool) -> u64 {
        self.sim
            .streams
            .iter()
            .zip(&self.replicated)
            .filter(|(_, r)| **r == replicated)
            .map(|(s, _)| s.dropped_blocks)
            .sum()
    }

    /// The worst glitch any replicated stream saw, in schedule items.
    pub fn replicated_miss_burst(&self) -> u64 {
        self.miss_bursts
            .iter()
            .zip(&self.replicated)
            .filter(|(_, r)| **r)
            .map(|(b, _)| *b)
            .max()
            .unwrap_or(0)
    }
}

/// A viewer stream: the shared service state plus its replica pin.
struct CStream {
    title: TitleId,
    replica: usize,
    failovers: u64,
    state: StreamState,
}

impl AsMut<StreamState> for CStream {
    fn as_mut(&mut self) -> &mut StreamState {
        &mut self.state
    }
}

/// The first live replica of `title` on an up, unquarantined member,
/// excluding `not`.
fn find_replica(
    cluster: &Cluster,
    quarantined: &[bool],
    title: TitleId,
    not: Option<usize>,
) -> Option<usize> {
    cluster
        .catalog()
        .live_replica(title, not, |v| cluster.is_up(v) && !quarantined[v])
}

/// Any live replica on an up member — the fallback when every healthy
/// copy is quarantined (serving slow beats not serving at all).
fn find_replica_any(cluster: &Cluster, title: TitleId, not: Option<usize>) -> Option<usize> {
    cluster
        .catalog()
        .live_replica(title, not, |v| cluster.is_up(v))
}

/// One scrub probe on volume `v`: verify the next stamped block under
/// the cursor `(strand raw id, block)`. Verification re-hashes the
/// stored payload in place — no device access, no arm movement, no
/// virtual time of its own (the caller charges slack). Returns `None`
/// when the cursor wrapped: one full pass over the member's strands is
/// complete.
fn scrub_step(
    cluster: &Cluster,
    v: usize,
    cursor: &mut (u64, u64),
) -> Option<(strandfs_core::StrandId, u64, bool)> {
    loop {
        let msm = cluster.members()[v].mrs().msm();
        let ids = msm.strand_ids();
        let Some(id) = ids.iter().copied().find(|id| id.raw() >= cursor.0) else {
            *cursor = (0, 0);
            return None;
        };
        if id.raw() != cursor.0 {
            *cursor = (id.raw(), 0);
        }
        let Ok(strand) = msm.strand(id) else {
            *cursor = (id.raw() + 1, 0);
            continue;
        };
        if cursor.1 >= strand.block_count() {
            *cursor = (id.raw() + 1, 0);
            continue;
        }
        let n = cursor.1;
        cursor.1 += 1;
        match msm.check_block_sum(id, n) {
            Ok(Some(ok)) => return Some((id, n, ok)),
            // Silence holes and unstamped blocks verify nothing and
            // cost no slack; keep walking within this budget unit.
            _ => continue,
        }
    }
}

/// What the scrubber did about a corrupt block.
enum ScrubRepair {
    /// The block was rewritten in place from a clean replica.
    Repaired,
    /// In-place repair was impossible; the whole replica was
    /// invalidated for background re-replication, re-pinning `switched`
    /// viewer streams off it.
    Invalidated { switched: u64 },
    /// No live copy to repair from: detected, not repairable.
    Skipped,
}

/// Scrub found a corrupt block on volume `v`: repair it surgically by
/// fetching the true payload of the same block from a clean live
/// replica and rewriting the corrupt extent in place — viewers stay
/// pinned, nothing moves. Only when no source payload hashes to the
/// stamped checksum (a diverged or doubly-corrupt copy) does the
/// repair fall back to invalidating the whole replica so background
/// re-replication rebuilds it — the same path a wiped rejoin uses.
fn repair_corrupt_block(
    cluster: &mut Cluster,
    quarantined: &[bool],
    streams: &mut [CStream],
    vol_t: &mut [Instant],
    v: usize,
    strand: strandfs_core::StrandId,
    block: u64,
) -> Result<ScrubRepair, FsError> {
    let mut owner = None;
    for (t, title) in cluster.catalog().titles().iter().enumerate() {
        for (i, r) in title.replicas.iter().enumerate() {
            if r.volume == v
                && r.state == crate::catalog::ReplicaState::Live
                && r.strands.iter().any(|l| l.strand == strand)
            {
                let slot = r
                    .strands
                    .iter()
                    .position(|l| l.strand == strand)
                    .expect("just matched");
                owner = Some((t, i, slot));
            }
        }
    }
    let Some((title, rep, slot)) = owner else {
        return Ok(ScrubRepair::Skipped);
    };
    // Candidate sources: every other live copy on an up member,
    // healthy ones before quarantined ones.
    let mut sources: Vec<(usize, strandfs_core::StrandId)> = cluster
        .catalog()
        .title(title)
        .replicas
        .iter()
        .enumerate()
        .filter(|&(r, rp)| {
            r != rep && rp.state == crate::catalog::ReplicaState::Live && cluster.is_up(rp.volume)
        })
        .map(|(_, rp)| (rp.volume, rp.strands[slot].strand))
        .collect();
    if sources.is_empty() {
        return Ok(ScrubRepair::Skipped);
    }
    sources.sort_by_key(|&(sv, _)| quarantined[sv]);
    for (sv, src_strand) in sources {
        // Refuse a source whose own copy of the block fails (or cannot
        // pass) verification — repair must never launder corruption.
        let src = cluster.members()[sv].mrs().msm();
        if !matches!(src.check_block_sum(src_strand, block), Ok(Some(true))) {
            continue;
        }
        let fetched = cluster
            .member_mut(sv)
            .mrs_mut()
            .msm_mut()
            .read_block(src_strand, block, vol_t[sv]);
        let Ok((Some(payload), Some(src_op))) = fetched else {
            continue;
        };
        vol_t[sv] = src_op.completed;
        let rewrite = cluster
            .member_mut(v)
            .mrs_mut()
            .msm_mut()
            .rewrite_block(strand, block, vol_t[v], &payload);
        // A stamp mismatch here means the copies diverged — try the
        // next source, or fall through to wholesale rebuild.
        if let Ok(op) = rewrite {
            vol_t[v] = op.completed;
            return Ok(ScrubRepair::Repaired);
        }
    }
    // Every source is unreadable or diverged: rebuild the replica
    // wholesale through the restore path.
    let mut switched = 0;
    for s in streams.iter_mut() {
        if s.title != title || s.replica != rep || s.state.finished() {
            continue;
        }
        if let Some(r) = find_replica(cluster, quarantined, title, Some(rep))
            .or_else(|| find_replica_any(cluster, title, Some(rep)))
        {
            switch_schedule(cluster, s, r)?;
            s.failovers += 1;
            switched += 1;
        }
    }
    cluster.invalidate_replica(title, rep)?;
    Ok(ScrubRepair::Invalidated { switched })
}

/// A viewer read hit a corrupt payload: serve that one block from
/// another live replica and rewrite the corrupt extent in place
/// (read-around repair). The stream keeps its pin — one corrupt block
/// costs one remote read instead of a permanent switch onto whatever
/// replica remains, which may sit on a quarantined fail-slow member.
/// Returns the serving volume and completion time, or `None` when no
/// other replica holds a verifiable copy of the block.
fn read_around_repair(
    cluster: &mut Cluster,
    quarantined: &[bool],
    title: TitleId,
    rep: usize,
    j: usize,
    not_before: Instant,
    vol_t: &mut [Instant],
) -> Result<Option<(usize, Instant)>, FsError> {
    let t = cluster.catalog().title(title);
    let (dst_vol, dst_item) = (t.replicas[rep].volume, t.replicas[rep].schedule.items[j]);
    let mut sources: Vec<(usize, _)> = t
        .replicas
        .iter()
        .enumerate()
        .filter(|&(r, rp)| {
            r != rep && rp.state == crate::catalog::ReplicaState::Live && cluster.is_up(rp.volume)
        })
        .map(|(_, rp)| (rp.volume, rp.schedule.items[j]))
        .collect();
    sources.sort_by_key(|&(sv, _)| quarantined[sv]);
    for (sv, src_item) in sources {
        if src_item.silence {
            continue;
        }
        // Same rule as the scrubber: never serve or launder a copy that
        // cannot pass verification itself.
        let src = cluster.members()[sv].mrs().msm();
        if !matches!(
            src.check_block_sum(src_item.strand, src_item.block),
            Ok(Some(true))
        ) {
            continue;
        }
        // The remote read cannot be issued before the corrupt local
        // read failed — `not_before` keeps completions monotonic.
        let issue = vol_t[sv].max(not_before);
        let fetched = cluster.member_mut(sv).mrs_mut().msm_mut().read_block(
            src_item.strand,
            src_item.block,
            issue,
        );
        let Ok((Some(payload), Some(op))) = fetched else {
            continue;
        };
        vol_t[sv] = op.completed;
        // Best effort: a failed rewrite (diverged stamp) still served a
        // verified payload; the scrubber deals with the bad copy later.
        if let Ok(wop) = cluster
            .member_mut(dst_vol)
            .mrs_mut()
            .msm_mut()
            .rewrite_block(dst_item.strand, dst_item.block, vol_t[dst_vol], &payload)
        {
            vol_t[dst_vol] = wop.completed;
        }
        return Ok(Some((sv, op.completed)));
    }
    Ok(None)
}

/// Totals the scrubber accumulates across rounds.
#[derive(Default)]
struct ScrubCounters {
    scrubbed: u64,
    corrupt: u64,
    repaired: u64,
    invalidated: u64,
}

/// One budgeted scrub pass over every up volume, charged strictly
/// against the slack between each volume's clock and `t_next` — the
/// round end playback already decided — so scrub can never extend a
/// round or perturb a deadline. Returns the stream re-pins repairs
/// forced.
#[allow(clippy::too_many_arguments)]
fn scrub_pass(
    cluster: &mut Cluster,
    cfg: &ClusterPlayback,
    obs: &ObsSink,
    quarantined: &[bool],
    streams: &mut [CStream],
    vol_t: &mut [Instant],
    t_next: Instant,
    scrub_cost: &[Nanos],
    scrub_cursor: &mut [(u64, u64)],
    scrub_passes: &mut [u64],
    stats: &mut [VolumeStats],
    counters: &mut ScrubCounters,
) -> Result<u64, FsError> {
    let mut switched_total = 0u64;
    for v in 0..vol_t.len() {
        if !cluster.is_up(v) {
            continue;
        }
        let mut budget = cfg.scrub_blocks_per_round;
        while budget > 0 && vol_t[v] + scrub_cost[v] <= t_next {
            match scrub_step(cluster, v, &mut scrub_cursor[v]) {
                None => {
                    scrub_passes[v] += 1;
                    break;
                }
                Some((strand, block, ok)) => {
                    budget -= 1;
                    vol_t[v] += scrub_cost[v];
                    counters.scrubbed += 1;
                    stats[v].scrubbed += 1;
                    let (at, sid) = (vol_t[v], strand.raw());
                    obs.emit(|| Event::Scrub {
                        volume: v,
                        strand: sid,
                        block,
                        ok,
                        at,
                    });
                    if !ok {
                        counters.corrupt += 1;
                        match repair_corrupt_block(
                            cluster,
                            quarantined,
                            streams,
                            vol_t,
                            v,
                            strand,
                            block,
                        )? {
                            ScrubRepair::Repaired => counters.repaired += 1,
                            ScrubRepair::Invalidated { switched } => {
                                counters.invalidated += 1;
                                switched_total += switched;
                                // The replica's strands just vanished
                                // from under the cursor; resume next
                                // round.
                                break;
                            }
                            ScrubRepair::Skipped => {}
                        }
                    }
                }
            }
        }
    }
    Ok(switched_total)
}

/// Probe quarantined members on their own clocks and re-admit after
/// enough consecutive on-time probes. A probe that surfaces a media
/// error converts the quarantine into a detected failure (`Down`).
fn probe_quarantined(
    cluster: &mut Cluster,
    cfg: &ClusterPlayback,
    obs: &ObsSink,
    quarantined: &mut [bool],
    clean_probes: &mut [u64],
    readmits: &mut u64,
    now: Instant,
) -> Result<(), FsError> {
    for v in 0..quarantined.len() {
        if !quarantined[v] {
            continue;
        }
        if !cluster.is_up(v) {
            // Down supersedes quarantine; rejoin handles the return.
            quarantined[v] = false;
            continue;
        }
        // Probe target: the first stored block of a live replica.
        let target = cluster.catalog().titles().iter().find_map(|t| {
            t.replicas
                .iter()
                .find(|r| r.volume == v && r.state == crate::catalog::ReplicaState::Live)
                .and_then(|r| r.schedule.items.iter().find(|i| !i.silence).copied())
        });
        if let Some(item) = target {
            match cluster
                .member_mut(v)
                .mrs_mut()
                .msm_mut()
                .read_block(item.strand, item.block, now)
            {
                Ok((_, Some(op))) => {
                    if op.completed - now <= item.duration {
                        clean_probes[v] += 1;
                    } else {
                        clean_probes[v] = 0;
                    }
                }
                Ok(_) => clean_probes[v] += 1,
                Err(FsError::ChecksumMismatch { .. }) => clean_probes[v] = 0,
                Err(_) => {
                    cluster.mark_down(v);
                    quarantined[v] = false;
                    continue;
                }
            }
        } else {
            // Nothing servable to probe; an empty member is harmless.
            clean_probes[v] += 1;
        }
        if clean_probes[v] >= cfg.readmit_probe_rounds.max(1) {
            quarantined[v] = false;
            *readmits += 1;
            let rounds = clean_probes[v];
            obs.emit(|| Event::Quarantine {
                volume: v,
                entered: false,
                rounds,
                at: now,
            });
        }
    }
    Ok(())
}

/// Re-pin a stream to replica `r`: swap in the replica's schedule in
/// place, keeping every completion, epoch and item offset.
fn switch_schedule(cluster: &Cluster, s: &mut CStream, r: usize) -> Result<(), FsError> {
    let rep = &cluster.catalog().title(s.title).replicas[r];
    s.state.switch_schedule(rep.schedule.clone())?;
    s.replica = r;
    Ok(())
}

/// Simulate cluster playback: one viewer stream per entry of
/// `viewers` (each a catalog title), with `script` driving member
/// kills and rejoins at round boundaries.
///
/// Viewers of a multi-replica title are spread across its replicas
/// round-robin. Install a shared sink via [`Cluster::set_obs`] before
/// calling to observe the whole cluster in one monitor.
pub fn simulate_cluster(
    cluster: &mut Cluster,
    viewers: &[TitleId],
    script: &[ScriptedAction],
    cfg: &ClusterPlayback,
) -> Result<ClusterReport, FsError> {
    let obs = cluster.obs();
    let volumes = cluster.members().len();
    let replicated: Vec<bool> = viewers
        .iter()
        .map(|&t| cluster.catalog().title(t).replicas.len() >= 2)
        .collect();
    let mut streams: Vec<CStream> = Vec::with_capacity(viewers.len());
    for (i, &title) in viewers.iter().enumerate() {
        let nrep = cluster.catalog().title(title).replicas.len();
        let start = i % nrep.max(1);
        let replica = (0..nrep)
            .map(|d| (start + d) % nrep)
            .find(|&r| {
                let rep = &cluster.catalog().title(title).replicas[r];
                rep.state == crate::catalog::ReplicaState::Live && cluster.is_up(rep.volume)
            })
            .ok_or(FsError::InvalidScenario {
                reason: "viewer title has no live replica on an up member",
            })?;
        let schedule = cluster.catalog().title(title).replicas[replica]
            .schedule
            .clone();
        streams.push(CStream {
            title,
            replica,
            failovers: 0,
            state: StreamState::new(schedule, cfg.read_ahead.max(1)),
        });
    }

    let mut vol_t: Vec<Instant> = vec![Instant::EPOCH; volumes];
    let mut busy_mark: Vec<Nanos> = (0..volumes)
        .map(|v| cluster.members()[v].mrs().msm().disk().stats().busy_time())
        .collect();
    let mut disk_busy = Nanos::ZERO;
    let mut stats = vec![VolumeStats::default(); volumes];
    let mut rejoins = Vec::new();
    let mut applied = vec![false; script.len()];
    let mut failovers = 0u64;
    let mut restored_blocks = 0u64;
    let mut restored_replicas = 0u64;
    let mut restore_refusals = 0u64;
    let mut t = Instant::EPOCH;
    let mut round = 0u64;
    let mut clean_streak = 0u64;
    let k = cfg.k.max(1);

    // Integrity and fail-slow defense state.
    let mut quarantined = vec![false; volumes];
    let mut clean_probes = vec![0u64; volumes];
    let mut hedged_rounds = vec![0u64; volumes];
    let mut round_hedges = vec![0u64; volumes];
    let mut scrub_cursor = vec![(0u64, 0u64); volumes];
    let mut scrub_passes = vec![0u64; volumes];
    // The conservative slack charge for one scrub probe: worst-case
    // positioning plus one revolution. Scrub only runs while the
    // volume's clock plus this charge stays inside the already-decided
    // round end, so it can never extend a round.
    let scrub_cost: Vec<Nanos> = (0..volumes)
        .map(|v| {
            let d = cluster.members()[v].mrs().msm().disk();
            (d.max_positioning_time() + d.geometry().rotation_time()).to_nanos()
        })
        .collect();
    let mut scrub = ScrubCounters::default();
    let mut corrupt_served = 0u64;
    let mut read_repairs = 0u64;
    let mut hedges = 0u64;
    let mut hedge_wins = 0u64;
    let mut quarantines = 0u64;
    let mut quarantine_readmits = 0u64;

    loop {
        // Scripted membership changes due at this round boundary.
        for (si, a) in script.iter().enumerate() {
            if applied[si] || a.at_round > round {
                continue;
            }
            applied[si] = true;
            match a.action {
                ClusterAction::Kill(v) => {
                    cluster.kill(v);
                }
                ClusterAction::Rejoin(v) => {
                    rejoins.push(cluster.rejoin(v, t)?);
                    // Recovery I/O is mount work, not playback service.
                    busy_mark[v] = cluster.members()[v].mrs().msm().disk().stats().busy_time();
                }
                ClusterAction::RejoinWiped(v) => {
                    rejoins.push(cluster.rejoin_wiped(v));
                    busy_mark[v] = cluster.members()[v].mrs().msm().disk().stats().busy_time();
                }
            }
        }
        // Ladder re-admission: the fault window stayed clear long
        // enough AND the stream has somewhere live to play from.
        if clean_streak >= cfg.readmit_clean_rounds {
            for (idx, s) in streams.iter_mut().enumerate() {
                if !s.state.revoked() || s.state.finished() {
                    continue;
                }
                let Some(r) = find_replica(cluster, &quarantined, s.title, None)
                    .or_else(|| find_replica_any(cluster, s.title, None))
                else {
                    continue;
                };
                if r != s.replica {
                    switch_schedule(cluster, s, r)?;
                }
                s.state.readmit(idx, round, t, &obs);
            }
        }
        let active: Vec<usize> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.state.finished() && !s.state.revoked())
            .map(|(i, _)| i)
            .collect();
        let script_pending = applied.iter().any(|done| !done);
        let restore_pending = cfg.restore_blocks_per_round > 0 && cluster.restorable_lost();
        let scrub_pending = cfg.scrub_blocks_per_round > 0
            && (0..volumes).any(|v| cluster.is_up(v) && scrub_passes[v] == 0);
        if active.is_empty() {
            let revoked: Vec<&CStream> = streams
                .iter()
                .filter(|s| !s.state.finished() && s.state.revoked())
                .collect();
            let can_return = revoked
                .iter()
                .any(|s| find_replica_any(cluster, s.title, None).is_some());
            if !script_pending
                && !restore_pending
                && !scrub_pending
                && (revoked.is_empty() || !can_return)
            {
                break;
            }
            // Idle round: no I/O, but revoked viewers' displays sit
            // frozen while it passes — advance the clock so recovery
            // accounting sees the outage.
            let min_dur = revoked
                .iter()
                .map(|s| s.state.next_item().duration)
                .min()
                .unwrap_or(Nanos::from_millis(100));
            let advanced = Nanos::from_nanos(k.saturating_mul(min_dur.as_nanos()));
            obs.emit(|| Event::RoundIdle {
                round,
                at: t,
                advanced,
            });
            // Idle rounds belong to the scrubber and the quarantine
            // probes: the whole advanced window is spare slack.
            if cfg.scrub_blocks_per_round > 0 {
                for clock in vol_t.iter_mut() {
                    *clock = t;
                }
                failovers += scrub_pass(
                    cluster,
                    cfg,
                    &obs,
                    &quarantined,
                    &mut streams,
                    &mut vol_t,
                    t + advanced,
                    &scrub_cost,
                    &mut scrub_cursor,
                    &mut scrub_passes,
                    &mut stats,
                    &mut scrub,
                )?;
            }
            probe_quarantined(
                cluster,
                cfg,
                &obs,
                &mut quarantined,
                &mut clean_probes,
                &mut quarantine_readmits,
                t,
            )?;
            t += advanced;
            if cfg.restore_blocks_per_round > 0 {
                let p = cluster.re_replicate(t, cfg.restore_blocks_per_round)?;
                restored_blocks += p.copied_blocks;
                restored_replicas += p.completed_replicas;
                restore_refusals += p.refused;
                t = t.max(p.finished_at);
            }
            clean_streak += 1;
            round += 1;
            if round >= cfg.max_rounds {
                break;
            }
            continue;
        }
        obs.emit(|| Event::RoundStart {
            round,
            active: active.len(),
            k,
            at: t,
        });
        for item in vol_t.iter_mut() {
            *item = t;
        }
        for h in round_hedges.iter_mut() {
            *h = 0;
        }
        let mut round_faults = false;
        for &idx in &active {
            let s = &mut streams[idx];
            let mut vol = cluster.catalog().title(s.title).replicas[s.replica].volume;
            let begin = vol_t[vol];
            let fetch = |s: &mut CStream, j: usize| {
                // Fetch, failing over across replicas on a media error —
                // the glitch stays bounded by read-ahead because the
                // re-fetch happens in the same round.
                let mut retries = 0u64;
                let mut resident = None;
                let mut fail_at = vol_t[vol].max(s.state.last_completion());
                for _attempt in 0..=volumes {
                    if cluster.is_up(vol) {
                        let item = s.state.schedule().items[j];
                        let issue = vol_t[vol].max(fail_at);
                        let deadline = s.state.deadline_of(j);
                        match cluster.member_mut(vol).mrs_mut().msm_mut().fetch_block(
                            item.strand,
                            item.block,
                            issue,
                            item.duration,
                            deadline,
                        )? {
                            BlockFetch::Silence => {
                                return Err(FsError::InvalidScenario {
                                    reason: "non-silence schedule item resolves to a silence hole",
                                })
                            }
                            BlockFetch::Data { op, retries: r } => {
                                vol_t[vol] = op.completed;
                                round_faults |= r > 0;
                                retries += r as u64;
                                stats[vol].fetched += 1;
                                let mut done = op.completed;
                                let mut served = (vol, item);
                                let lat = op.completed - issue;
                                // Fail-slow defense: a fetch slower than
                                // its block's play duration cannot sustain
                                // continuity — race a replica from the
                                // moment the threshold passed, earliest
                                // completion wins.
                                if cfg.hedge && lat > item.duration {
                                    round_hedges[vol] += 1;
                                    stats[vol].hedged += 1;
                                    if let Some(r) = find_replica(
                                        cluster,
                                        &quarantined,
                                        s.title,
                                        Some(s.replica),
                                    ) {
                                        let (hv, h_item) = {
                                            let rep = &cluster.catalog().title(s.title).replicas[r];
                                            (rep.volume, rep.schedule.items[j])
                                        };
                                        let h_issue = vol_t[hv].max(issue + item.duration);
                                        let h = cluster
                                            .member_mut(hv)
                                            .mrs_mut()
                                            .msm_mut()
                                            .fetch_block(
                                                h_item.strand,
                                                h_item.block,
                                                h_issue,
                                                item.duration,
                                                deadline,
                                            )?;
                                        hedges += 1;
                                        let mut won = false;
                                        if let BlockFetch::Data { op: h_op, .. } = h {
                                            vol_t[hv] = h_op.completed;
                                            if h_op.completed < done {
                                                won = true;
                                                done = h_op.completed;
                                                served = (hv, h_item);
                                                stats[hv].fetched += 1;
                                                hedge_wins += 1;
                                            }
                                        }
                                        let at = done;
                                        obs.emit(|| Event::Hedge {
                                            stream: idx,
                                            volume: vol,
                                            hedge_volume: hv,
                                            primary: lat,
                                            won,
                                            at,
                                        });
                                        if won {
                                            // Stay on the faster copy for
                                            // the rest of the run.
                                            switch_schedule(cluster, s, r)?;
                                            s.failovers += 1;
                                            failovers += 1;
                                            vol = hv;
                                        }
                                    }
                                }
                                if cfg.audit_integrity
                                    && matches!(
                                        cluster.members()[served.0]
                                            .mrs()
                                            .msm()
                                            .check_block_sum(served.1.strand, served.1.block),
                                        Ok(Some(false))
                                    )
                                {
                                    corrupt_served += 1;
                                }
                                resident = Some(done);
                                break;
                            }
                            BlockFetch::Failed {
                                reason,
                                at,
                                retries: r,
                            } => {
                                round_faults = true;
                                retries += r as u64;
                                fail_at = fail_at.max(at);
                                vol_t[vol] = vol_t[vol].max(at);
                                match reason {
                                    // Volume-failure detection: the read
                                    // path, not an oracle.
                                    FetchFailure::Media => cluster.mark_down(vol),
                                    // The deadline is gone on every volume
                                    // — drop, don't failover.
                                    FetchFailure::Abandoned => break,
                                    FetchFailure::RetriesExhausted => {}
                                    // A corrupt payload is a replica
                                    // problem, not a member problem: serve
                                    // this one block from a clean copy and
                                    // rewrite the bad extent in place,
                                    // keeping the stream's pin. Only when
                                    // no verifiable copy exists does the
                                    // stream switch replicas below.
                                    FetchFailure::Corrupt => {
                                        if let Some((sv, done)) = read_around_repair(
                                            cluster,
                                            &quarantined,
                                            s.title,
                                            s.replica,
                                            j,
                                            fail_at,
                                            &mut vol_t,
                                        )? {
                                            stats[sv].fetched += 1;
                                            read_repairs += 1;
                                            // The stream's next fetch is
                                            // issued after this serve (its
                                            // last completion) — the
                                            // volume's own clock is not
                                            // charged for the remote read.
                                            resident = Some(done);
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    match find_replica(cluster, &quarantined, s.title, Some(s.replica))
                        .or_else(|| find_replica_any(cluster, s.title, Some(s.replica)))
                    {
                        Some(r) => {
                            switch_schedule(cluster, s, r)?;
                            vol = cluster.catalog().title(s.title).replicas[r].volume;
                            s.failovers += 1;
                            failovers += 1;
                        }
                        None => break,
                    }
                }
                round_faults |= resident.is_none();
                Ok(Fetched {
                    at: resident.unwrap_or(vol_t[vol].max(fail_at)),
                    dropped: resident.is_none(),
                    retries,
                    clock: vol_t[vol],
                })
            };
            // A stream's service starts at the round start.
            serve_turn(
                s,
                idx,
                round,
                k,
                t,
                begin,
                Some(cfg.revoke_after_drops),
                &obs,
                fetch,
            )?;
        }
        // The cluster round ends when the slowest volume — and the
        // round's background restore budget — is done.
        let mut t_next = vol_t.iter().copied().max().unwrap_or(t);
        if cfg.restore_blocks_per_round > 0 {
            let p = cluster.re_replicate(t_next, cfg.restore_blocks_per_round)?;
            restored_blocks += p.copied_blocks;
            restored_replicas += p.completed_replicas;
            restore_refusals += p.refused;
            t_next = t_next.max(p.finished_at);
        }
        // The round end is decided; whatever slack remains on each
        // volume's clock belongs to the scrubber.
        if cfg.scrub_blocks_per_round > 0 {
            failovers += scrub_pass(
                cluster,
                cfg,
                &obs,
                &quarantined,
                &mut streams,
                &mut vol_t,
                t_next,
                &scrub_cost,
                &mut scrub_cursor,
                &mut scrub_passes,
                &mut stats,
                &mut scrub,
            )?;
        }
        obs.emit(|| Event::RoundEnd { round, at: t_next });
        t = t_next;
        // Fail-slow quarantine: a member that kept firing hedges sits
        // out — no placement, no serving where an alternative exists —
        // until probes come back on time.
        if cfg.quarantine_after_rounds > 0 {
            for v in 0..volumes {
                if quarantined[v] {
                    continue;
                }
                if round_hedges[v] > 0 {
                    hedged_rounds[v] += 1;
                } else {
                    hedged_rounds[v] = 0;
                }
                if hedged_rounds[v] >= cfg.quarantine_after_rounds && cluster.is_up(v) {
                    quarantined[v] = true;
                    quarantines += 1;
                    clean_probes[v] = 0;
                    let rounds = hedged_rounds[v];
                    obs.emit(|| Event::Quarantine {
                        volume: v,
                        entered: true,
                        rounds,
                        at: t,
                    });
                    hedged_rounds[v] = 0;
                    // Walk every pinned stream off the slow member;
                    // sole-copy streams stay as a fallback.
                    for s2 in streams.iter_mut() {
                        if s2.state.finished() {
                            continue;
                        }
                        if cluster.catalog().title(s2.title).replicas[s2.replica].volume != v {
                            continue;
                        }
                        if let Some(r) =
                            find_replica(cluster, &quarantined, s2.title, Some(s2.replica))
                        {
                            switch_schedule(cluster, s2, r)?;
                            s2.failovers += 1;
                            failovers += 1;
                        }
                    }
                }
            }
            probe_quarantined(
                cluster,
                cfg,
                &obs,
                &mut quarantined,
                &mut clean_probes,
                &mut quarantine_readmits,
                t,
            )?;
        }
        for v in 0..volumes {
            let busy = cluster.members()[v].mrs().msm().disk().stats().busy_time();
            disk_busy += busy - busy_mark[v];
            busy_mark[v] = busy;
            if !cluster.is_up(v) {
                stats[v].rounds_down += 1;
            }
        }
        if round_faults {
            clean_streak = 0;
        } else {
            clean_streak += 1;
        }
        round += 1;
        if round >= cfg.max_rounds {
            break;
        }
    }

    Ok(ClusterReport {
        sim: SimReport {
            streams: streams
                .iter()
                .enumerate()
                .map(|(i, s)| s.state.outcome(i, &obs))
                .collect(),
            disk_busy,
            rounds: round,
        },
        replicated,
        miss_bursts: streams.iter().map(|s| s.state.miss_burst()).collect(),
        failovers: streams
            .iter()
            .map(|s| s.failovers)
            .sum::<u64>()
            .max(failovers),
        rejoins,
        restored_blocks,
        restored_replicas,
        restore_refusals,
        scrubbed_blocks: scrub.scrubbed,
        scrub_corrupt: scrub.corrupt,
        scrub_repaired: scrub.repaired,
        read_repairs,
        scrub_invalidated: scrub.invalidated,
        corrupt_served,
        hedges,
        hedge_wins,
        quarantines,
        quarantine_readmits,
        volumes: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ReplicaState;
    use crate::cluster::{ClusterConfig, MemberState};
    use crate::placement::Placement;
    use strandfs_disk::FaultPlan;
    use strandfs_sim::scenario::ClipSpec;

    fn cluster(volumes: usize, base_replicas: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            volumes,
            placement: Placement::RoundRobin,
            base_replicas,
            seed: 42,
        })
        .expect("cluster")
    }

    #[test]
    fn clean_cluster_plays_every_stream_continuously() {
        let mut c = cluster(2, 1);
        let a = c
            .ingest("a", &ClipSpec::video_seconds(1.0).with_seed(1), 0.0)
            .unwrap();
        let b = c
            .ingest("b", &ClipSpec::video_seconds(1.0).with_seed(2), 0.0)
            .unwrap();
        let report =
            simulate_cluster(&mut c, &[a, b], &[], &ClusterPlayback::with_k(3)).expect("sim");
        assert!(report.sim.all_continuous());
        assert_eq!(report.sim.total_dropped(), 0);
        assert_eq!(report.failovers, 0);
        // Each title landed on its own volume; both volumes served.
        assert!(report.volumes.iter().all(|v| v.fetched > 0));
    }

    #[test]
    fn replicated_stream_survives_a_volume_kill_without_losing_blocks() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(5), 1.0)
            .unwrap();
        let script = [ScriptedAction {
            at_round: 2,
            action: ClusterAction::Kill(0),
        }];
        let report =
            simulate_cluster(&mut c, &[id, id], &script, &ClusterPlayback::with_k(3)).expect("sim");
        assert_eq!(
            report.replicated_dropped(),
            0,
            "failover must lose 0 blocks"
        );
        assert!(report.failovers >= 1, "the kill must force a failover");
        // The glitch is bounded by the read-ahead.
        assert!(
            report.replicated_miss_burst() <= 3,
            "miss burst {} exceeds read-ahead",
            report.replicated_miss_burst()
        );
        // Detection happened through the read path.
        assert_eq!(c.members()[0].state(), MemberState::Down);
        assert!(report.volumes[0].rounds_down > 0);
    }

    #[test]
    fn unreplicated_stream_rides_the_ladder_and_returns_after_rejoin() {
        let mut c = cluster(2, 1);
        let a = c
            .ingest("solo", &ClipSpec::video_seconds(2.0).with_seed(3), 0.0)
            .unwrap();
        // Volume 0 holds "solo"; kill it early, rejoin later.
        let script = [
            ScriptedAction {
                at_round: 1,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 6,
                action: ClusterAction::Rejoin(0),
            },
        ];
        let mut cfg = ClusterPlayback::with_k(3);
        cfg.revoke_after_drops = 2;
        cfg.readmit_clean_rounds = 1;
        let report = simulate_cluster(&mut c, &[a], &script, &cfg).expect("sim");
        let s = &report.sim.streams[0];
        assert!(s.dropped_blocks > 0, "the unreplicated stream must drop");
        assert!(s.revokes >= 1, "the ladder must revoke it");
        assert!(
            s.recovery_time > Nanos::ZERO,
            "revocation must cost recovery time"
        );
        // After the rejoin it finished its schedule.
        assert_eq!(s.blocks, s.dropped_blocks + report.sim.streams[0].fetched);
        assert_eq!(report.rejoins.len(), 1);
        assert_eq!(report.rejoins[0].fsck_findings, 0);
        assert_eq!(report.rejoins[0].reconcile.lost, 0);
    }

    /// Flip one bit in each of the first `blocks` stored blocks of the
    /// title's replica on volume 0, invisibly to the device.
    fn corrupt_first_blocks(c: &mut Cluster, id: crate::catalog::TitleId, blocks: u64) {
        let loc = {
            let rep = &c.catalog().title(id).replicas[0];
            assert_eq!(rep.volume, 0);
            rep.strands[0]
        };
        let mut plan = FaultPlan::clean();
        for n in 0..blocks.min(loc.blocks) {
            let e = c.members()[0]
                .mrs()
                .msm()
                .strand(loc.strand)
                .expect("strand")
                .block(n)
                .expect("block")
                .expect("stored block");
            plan = plan.with_silent_corruption(e);
        }
        assert!(c.arm_member_faults(0, plan));
    }

    #[test]
    fn display_starts_only_once_the_read_ahead_has_arrived() {
        // The pinned replica's whole read-ahead is corrupt and the only
        // clean copy sits on a fail-slow member, so each read-around
        // serve completes long after the pinned volume's own clock.
        // Display must not start before the block that filled the
        // read-ahead has arrived.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        let cfg = ClusterPlayback::with_k(3);
        corrupt_first_blocks(&mut c, id, cfg.read_ahead);
        assert!(c.arm_member_faults(1, FaultPlan::clean().with_fail_slow(10.0)));
        let (sink, rec) = ObsSink::ring(1 << 16);
        c.set_obs(&sink);
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert_eq!(report.read_repairs, cfg.read_ahead);
        let rec = rec.borrow();
        let display = rec
            .events()
            .find_map(|e| match e {
                Event::DisplayStart { stream: 0, at, .. } => Some(*at),
                _ => None,
            })
            .expect("display started");
        let read_ahead: Vec<Instant> = rec
            .events()
            .filter_map(|e| match e {
                Event::Deadline {
                    stream: 0,
                    item,
                    completed,
                    ..
                } if *item < cfg.read_ahead => Some(*completed),
                _ => None,
            })
            .collect();
        assert_eq!(read_ahead.len() as u64, cfg.read_ahead);
        for done in read_ahead {
            assert!(display >= done, "display at {display:?} before {done:?}");
        }
    }

    #[test]
    fn one_member_cluster_serves_like_the_single_volume_loop() {
        // Both loops run the same turn step. On identically built
        // volumes at a drop-free load they agree on everything but the
        // start anchor: the cluster measures start latency from the
        // round start, the single-volume loop from the stream's own
        // first turn — so the two differ by exactly that wait.
        use strandfs_sim::playback::{simulate_playback, DegradeMode, PlaybackConfig};
        let build = || {
            let mut c = cluster(1, 1);
            let ids: Vec<TitleId> = (0..2)
                .map(|i| {
                    c.ingest(
                        &format!("t{i}"),
                        &ClipSpec::video_seconds(2.0).with_seed(31 + i),
                        0.0,
                    )
                    .unwrap()
                })
                .collect();
            (c, ids)
        };
        for k in [1, 2, 3, 5] {
            let (mut c, ids) = build();
            let cluster = simulate_cluster(&mut c, &ids, &[], &ClusterPlayback::with_k(k))
                .expect("cluster sim")
                .sim;
            let (mut c, ids) = build();
            let schedules = ids
                .iter()
                .map(|&t| c.catalog().title(t).replicas[0].schedule.clone())
                .collect();
            let (sink, rec) = ObsSink::ring(1 << 16);
            let mrs = c.member_mut(0).mrs_mut();
            mrs.set_obs(sink);
            let cfg = PlaybackConfig::with_k(k).degraded(DegradeMode::Ladder {
                revoke_after_drops: 3,
                readmit_clean_rounds: 2,
            });
            let single = simulate_playback(mrs, schedules, cfg).expect("single sim");
            assert_eq!(cluster.total_dropped(), 0, "k = {k}");
            let first_turn = |stream: usize| {
                rec.borrow()
                    .events()
                    .find_map(|e| match e {
                        Event::StreamService {
                            stream: s, begin, ..
                        } if *s == stream => Some(*begin - Instant::EPOCH),
                        _ => None,
                    })
                    .expect("stream was served")
            };
            for (i, (a, b)) in cluster.streams.iter().zip(&single.streams).enumerate() {
                assert_eq!(a.start_latency - b.start_latency, first_turn(i), "k = {k}");
            }
            assert_eq!(first_turn(0), Nanos::ZERO);
            let masked = |mut r: SimReport| {
                for s in &mut r.streams {
                    s.start_latency = Nanos::ZERO;
                }
                r
            };
            assert_eq!(masked(cluster), masked(single), "k = {k}");
        }
    }

    #[test]
    fn scrub_detects_repairs_and_keeps_viewers_clean() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).scrub(4).restore(2).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert!(report.scrubbed_blocks > 0);
        // The viewer reaches the bad run before the scrub cursor does:
        // each verified read detects the flip, serves the clean copy and
        // rewrites the extent in place — scrub then finds nothing left.
        assert_eq!(report.read_repairs, 3, "read-around must repair each flip");
        assert_eq!(report.scrub_corrupt, 0, "nothing left for the scrubber");
        assert_eq!(report.scrub_invalidated, 0, "no wholesale rebuild needed");
        assert_eq!(
            report.corrupt_served, 0,
            "verified reads must keep corrupt payloads off the wire"
        );
        assert_eq!(report.replicated_dropped(), 0);
        assert!(c.is_up(0), "silent corruption must not down the member");
        // The corrupt copy was rebuilt from the live replica and the
        // member converged to fsck-clean.
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }

    #[test]
    fn scrubber_repairs_in_place_without_viewer_traffic() {
        // No viewers: only the slack-budgeted scrubber walks the
        // extents, so the detection and in-place repair are entirely
        // its own.
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).scrub(4).restore(2).audited();
        let report = simulate_cluster(&mut c, &[], &[], &cfg).expect("sim");
        assert!(report.scrubbed_blocks > 0);
        assert_eq!(report.scrub_corrupt, 3, "scrub must detect every bit flip");
        assert_eq!(report.scrub_repaired, 3, "each block is rewritten in place");
        assert_eq!(report.scrub_invalidated, 0, "no wholesale rebuild needed");
        assert_eq!(report.read_repairs, 0, "no viewer reads, no read-around");
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }

    #[test]
    fn without_scrub_or_verification_corruption_reaches_viewers() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(21), 1.0)
            .unwrap();
        corrupt_first_blocks(&mut c, id, 3);
        let cfg = ClusterPlayback::with_k(3).audited();
        let report = simulate_cluster(&mut c, &[id], &[], &cfg).expect("sim");
        assert!(
            report.corrupt_served > 0,
            "with defenses off the audience gets the bit flips"
        );
        assert_eq!(report.scrubbed_blocks, 0);
        assert_eq!(report.replicated_dropped(), 0, "nothing even notices");
    }

    #[test]
    fn hedged_reads_ride_out_a_fail_slow_member() {
        let fail_slow = FaultPlan::clean().with_fail_slow(10.0);
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
            .unwrap();
        assert!(c.arm_member_faults(0, fail_slow.clone()));
        let mut cfg = ClusterPlayback::with_k(3).hedged();
        cfg.quarantine_after_rounds = 1;
        let hedged = simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("sim");
        assert!(hedged.hedges > 0, "slow primaries must fire hedges");
        assert!(hedged.hedge_wins > 0, "the healthy replica must win");
        assert!(hedged.quarantines >= 1, "the slow member must sit out");
        assert_eq!(hedged.replicated_dropped(), 0);
        assert!(c.is_up(0), "fail-slow is gray: the member never errors");
        // The same scenario without hedging: the round barrier waits on
        // the 10x member every round and deadlines collapse.
        let mut c2 = cluster(2, 2);
        let id2 = c2
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(23), 1.0)
            .unwrap();
        assert!(c2.arm_member_faults(0, fail_slow));
        let bare =
            simulate_cluster(&mut c2, &[id2, id2], &[], &ClusterPlayback::with_k(3)).expect("sim");
        assert!(
            bare.sim.total_violations() > hedged.sim.total_violations(),
            "non-hedged must miss more deadlines ({} vs {})",
            bare.sim.total_violations(),
            hedged.sim.total_violations()
        );
    }

    #[test]
    fn scrub_off_vs_on_is_zero_perturbation_for_healthy_streams() {
        // Identical clusters, identical viewers; the only difference is
        // the scrub budget. Per-stream completion times must match
        // exactly: scrub runs strictly inside slack the round already
        // paid for.
        let run = |scrub: u64| {
            let mut c = cluster(2, 2);
            let id = c
                .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(29), 1.0)
                .unwrap();
            c.set_verify_reads(true);
            let cfg = if scrub > 0 {
                ClusterPlayback::with_k(3).scrub(scrub)
            } else {
                ClusterPlayback::with_k(3)
            };
            simulate_cluster(&mut c, &[id, id], &[], &cfg).expect("sim")
        };
        let off = run(0);
        let on = run(4);
        assert!(on.scrubbed_blocks > 0);
        assert_eq!(on.sim.total_violations(), off.sim.total_violations());
        assert_eq!(on.sim.total_dropped(), off.sim.total_dropped());
        for (a, b) in off.sim.streams.iter().zip(&on.sim.streams) {
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.start_latency, b.start_latency);
            assert_eq!(a.max_lateness, b.max_lateness);
        }
    }

    #[test]
    fn wiped_member_is_rebuilt_in_the_background_during_service() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(9), 1.0)
            .unwrap();
        let script = [
            ScriptedAction {
                at_round: 1,
                action: ClusterAction::Kill(0),
            },
            ScriptedAction {
                at_round: 3,
                action: ClusterAction::RejoinWiped(0),
            },
        ];
        // Restore budget small enough for the round slack to absorb —
        // restore I/O extends rounds, and a saturating budget would
        // push playback past its deadlines.
        let cfg = ClusterPlayback::with_k(3).restore(2);
        let report = simulate_cluster(&mut c, &[id], &script, &cfg).expect("sim");
        assert_eq!(report.replicated_dropped(), 0);
        assert!(report.restored_blocks > 0, "restore must copy blocks");
        assert_eq!(report.restored_replicas, 1);
        // The rebuilt replica is live and fsck finds the member clean.
        assert!(!c.restorable_lost());
        assert!(c
            .catalog()
            .title(id)
            .replicas
            .iter()
            .all(|r| r.state == crate::catalog::ReplicaState::Live));
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }

    #[test]
    fn a_corrupt_restore_source_is_refused_without_ending_the_run() {
        let mut c = cluster(2, 2);
        let id = c
            .ingest("hot", &ClipSpec::video_seconds(2.0).with_seed(9), 1.0)
            .unwrap();
        c.set_verify_reads(true);
        c.kill(0);
        c.mark_down(0);
        c.rejoin_wiped(0);
        // Rot a block of the only live copy, on volume 1.
        let src = c.catalog().title(id).replicas[1].strands[0].strand;
        let bad = {
            let s = c.members()[1].mrs().msm().strand(src).unwrap();
            s.block(s.blocks().len() as u64 / 2).unwrap().unwrap()
        };
        assert!(c.arm_member_faults(1, FaultPlan::clean().with_silent_corruption(bad)));
        let cfg = ClusterPlayback::with_k(3).restore(2);
        let report = simulate_cluster(&mut c, &[], &[], &cfg).expect("a refusal degrades");
        assert_eq!(report.restore_refusals, 1);
        assert_eq!(report.restored_replicas, 0);
        assert!(
            report.restored_blocks > 0,
            "the copy ran up to the bad block"
        );
        // Nothing was laundered: the replica stays lost and its
        // half-written copy is gone.
        assert!(!c.restorable_lost());
        assert_eq!(c.catalog().title(id).replicas[0].state, ReplicaState::Lost);
        assert!(c.members()[0].mrs().msm().strand_ids().is_empty());
        assert!(c.fsck_member(0, Instant::from_nanos(u64::MAX / 4)).clean());
    }
}
