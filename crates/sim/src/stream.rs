//! Per-stream service state and the per-item turn step, shared by the
//! single-volume round loop ([`crate::playback`]) and the cluster loop
//! (`strandfs_cluster::service`).
//!
//! A stream's turn fetches up to `k` schedule items. What the loops do
//! differently — how a block is fetched (one disk, or failover, hedging
//! and read-around across replicas), the retry budget, the service-start
//! anchor — comes in through [`serve_turn`]'s arguments; everything else
//! is here: epochs, deadlines, live [`Event::Deadline`] emission, the
//! drop → revoke step, the display-start check, the readmit step and the
//! final [`StreamOutcome`].

use crate::metrics::{NanosSummary, RoundSample, StreamOutcome};
use strandfs_core::mrs::{PlayItem, PlaySchedule};
use strandfs_core::FsError;
use strandfs_obs::{DegradeAction, Event, ObsSink};
use strandfs_units::{Instant, Nanos};

/// Signed deadline margin in nanoseconds: positive = early, negative =
/// late (the same convention as [`Event::deadline_margin`]).
fn signed_margin(deadline: Instant, done: Instant) -> i64 {
    if done <= deadline {
        (deadline - done).as_nanos() as i64
    } else {
        -((done - deadline).as_nanos() as i64)
    }
}

/// One display epoch: the open-loop display clock restarts whenever a
/// revoked stream is re-admitted, so deadlines are measured against the
/// epoch covering the item, not a single global display start.
pub(crate) struct Epoch {
    /// First schedule item served under this epoch.
    pub(crate) first_item: usize,
    /// When the epoch's display started (after its read-ahead filled);
    /// `None` while buffering or if the simulation ended first.
    pub(crate) display_start: Option<Instant>,
    /// When the epoch entered service: the re-admission instant for
    /// post-revocation epochs, `None` for the initial epoch (whose
    /// anchor is the stream's service start). Display start minus this
    /// anchor is the viewer-visible time-to-first-frame.
    pub(crate) resumed_at: Option<Instant>,
}

/// The service state of one viewer stream.
pub struct StreamState {
    /// The compiled schedule being served; item `j` of every vector
    /// below is item `j` of this schedule.
    pub(crate) schedule: PlaySchedule,
    /// Fetch completion instant per item, filled in service order.
    pub(crate) completions: Vec<Instant>,
    /// The round whose service fetched each item, parallel to
    /// `completions` — lets a deadline violation be attributed to the
    /// specific round that fetched the late block.
    pub(crate) fetch_rounds: Vec<u64>,
    /// Parallel to `completions`: the item was dropped (a degradation
    /// hole was spliced in), so its "completion" is the drop decision
    /// instant and it is exempt from deadline accounting.
    pub(crate) dropped: Vec<bool>,
    pub(crate) next: usize,
    pub(crate) read_ahead: u64,
    pub(crate) service_start: Option<Instant>,
    /// Display epochs, oldest first; always non-empty.
    pub(crate) epochs: Vec<Epoch>,
    /// Transient-fault retries spent on this stream's fetches.
    retries: u64,
    /// Drops since the stream was (re-)admitted — the revocation
    /// trigger.
    drops_since_admit: u64,
    /// Set while the stream is revoked: when it happened.
    pub(crate) revoked_at: Option<Instant>,
    /// Times the stream was revoked.
    revokes: u64,
    /// Total virtual time spent revoked (revoke → re-admit).
    recovery_time: Nanos,
    /// Items `0..deadline_emitted` have had their [`Event::Deadline`]
    /// emitted live (or been skipped for good: dropped, or covered by
    /// an epoch that never started displaying). The live-emission
    /// pointer lets windowed monitors see misses in the round that
    /// produced them instead of in one end-of-run burst.
    deadline_emitted: usize,
    /// Memoized SCAN key of the single-volume loop: `(lba, item)` — the
    /// disk address of the stream's first non-silence schedule item at
    /// or after `item` (`u64::MAX`/`usize::MAX` once only silence
    /// remains). Valid while `next <= item`: every item between the
    /// position the key was computed at and `item` was silence, so
    /// advancing `next` through that run cannot change which block the
    /// arm would seek to. One index probe per *consumed stored block*,
    /// instead of the O(n log n) probes per round a sort key
    /// re-invocation costs.
    pub(crate) lba_cache: Option<(u64, usize)>,
}

/// How the loop's fetch step served one non-silence item of a turn.
#[derive(Clone, Copy, Debug)]
pub struct Fetched {
    /// When the block became resident — or, if `dropped`, when the
    /// fetch was given up. The shared step never lets it fall before
    /// the stream's previous completion.
    pub at: Instant,
    /// The fetch failed: the item becomes a drop (a silence hole).
    pub dropped: bool,
    /// Transient retries spent on the item.
    pub retries: u64,
    /// The loop's clock for this stream after the fetch: where a
    /// following silence item completes and where the turn ends.
    pub clock: Instant,
}

impl StreamState {
    /// A stream about to enter service that buffers `read_ahead` items
    /// before its display starts.
    pub fn new(schedule: PlaySchedule, read_ahead: u64) -> Self {
        let n = schedule.items.len();
        StreamState {
            schedule,
            completions: Vec::with_capacity(n),
            fetch_rounds: Vec::with_capacity(n),
            dropped: Vec::with_capacity(n),
            next: 0,
            read_ahead,
            service_start: None,
            epochs: vec![Epoch {
                first_item: 0,
                display_start: None,
                resumed_at: None,
            }],
            retries: 0,
            drops_since_admit: 0,
            revoked_at: None,
            revokes: 0,
            recovery_time: Nanos::ZERO,
            deadline_emitted: 0,
            lba_cache: None,
        }
    }

    /// The compiled schedule being served.
    pub fn schedule(&self) -> &PlaySchedule {
        &self.schedule
    }

    /// Serve the rest of the stream from `schedule`, a structurally
    /// identical copy of the current one (same items, other strand and
    /// block addresses — a replica's schedule on failover). Completions,
    /// epochs and item offsets carry over unchanged.
    pub fn switch_schedule(&mut self, schedule: PlaySchedule) -> Result<(), FsError> {
        if schedule.items.len() != self.schedule.items.len() {
            return Err(FsError::InvalidScenario {
                reason: "replica schedules are not structurally identical",
            });
        }
        self.schedule = schedule;
        Ok(())
    }

    /// Every schedule item has been served (or dropped).
    pub fn finished(&self) -> bool {
        self.next >= self.schedule.items.len()
    }

    /// The stream is revoked and waits for re-admission.
    pub fn revoked(&self) -> bool {
        self.revoked_at.is_some()
    }

    /// The next item to serve; the stream must not be finished.
    pub fn next_item(&self) -> &PlayItem {
        &self.schedule.items[self.next]
    }

    /// The stream's last completion ([`Instant::EPOCH`] before its
    /// first): no later item may complete before it.
    pub fn last_completion(&self) -> Instant {
        self.completions.last().copied().unwrap_or(Instant::EPOCH)
    }

    /// Playback deadline of item `j` under its covering epoch; `None`
    /// while that epoch's display has not started.
    pub fn deadline_of(&self, j: usize) -> Option<Instant> {
        let ep = self.epochs.iter().rev().find(|e| e.first_item <= j)?;
        let ds = ep.display_start?;
        let base = self.schedule.items[ep.first_item].at;
        Some(ds + (self.schedule.items[j].at - base))
    }

    /// Re-admit a revoked stream at `at`: charge the outage to
    /// `recovery_time`, reset the drop count and open a fresh display
    /// epoch (the viewer resumes from where the freeze left off). A
    /// no-op for a stream that is not revoked.
    pub fn readmit(&mut self, stream: usize, round: u64, at: Instant, obs: &ObsSink) {
        let Some(since) = self.revoked_at.take() else {
            return;
        };
        self.recovery_time += at - since;
        self.drops_since_admit = 0;
        self.epochs.push(Epoch {
            first_item: self.next,
            display_start: None,
            resumed_at: Some(at),
        });
        let item = self.next as u64;
        obs.emit(|| Event::Degrade {
            stream,
            round,
            item,
            action: DegradeAction::Readmit,
            at,
        });
    }

    /// Emit [`Event::Deadline`]s for every serviced item whose deadline
    /// has become known, advancing the live-emission pointer. Called at
    /// the end of each service turn; the values emitted are identical
    /// to the end-of-run emission [`StreamState::outcome`] used to do —
    /// an item's covering epoch (and hence its deadline) is fixed once
    /// the item is serviced, because later epochs start at `next`,
    /// past every recorded item.
    fn emit_due_deadlines(&mut self, stream: usize, obs: &ObsSink) {
        if !obs.is_enabled() {
            return;
        }
        while self.deadline_emitted < self.completions.len() {
            let j = self.deadline_emitted;
            if self.dropped[j] {
                self.deadline_emitted += 1;
                continue;
            }
            let pos = self
                .epochs
                .iter()
                .rposition(|e| e.first_item <= j)
                .expect("epoch 0 covers every item");
            match self.epochs[pos].display_start {
                Some(_) => {
                    let deadline = self.deadline_of(j).expect("covering epoch has started");
                    let done = self.completions[j];
                    let round = self.fetch_rounds[j];
                    obs.emit(|| Event::Deadline {
                        stream,
                        item: j as u64,
                        round,
                        deadline,
                        completed: done,
                    });
                    self.deadline_emitted += 1;
                }
                // The covering epoch's display has not started. The
                // live (last) epoch still may — wait here; a superseded
                // epoch never will — skip the item for good.
                None if pos + 1 == self.epochs.len() => break,
                None => self.deadline_emitted += 1,
            }
        }
    }

    /// Longest run of dropped-or-late schedule items (trailing
    /// never-serviced items count as dropped) — the visible glitch.
    pub fn miss_burst(&self) -> u64 {
        let serviced = self.completions.len();
        let mut burst = 0u64;
        let mut run = 0u64;
        for j in 0..self.schedule.items.len() {
            let missed = if j >= serviced || self.dropped[j] {
                true
            } else {
                self.deadline_of(j)
                    .map(|d| self.completions[j] > d)
                    .unwrap_or(false)
            };
            if missed {
                run += 1;
                burst = burst.max(run);
            } else {
                run = 0;
            }
        }
        burst
    }

    /// The stream's final accounting, emitting any [`Event::Deadline`]
    /// the live pointer had not reached yet.
    pub fn outcome(&self, stream: usize, obs: &ObsSink) -> StreamOutcome {
        let items = &self.schedule.items;
        let serviced = self.completions.len();
        // Completions are filled in virtual-time order by the round
        // loop; the backlog computation below depends on that.
        debug_assert!(
            self.completions.windows(2).all(|w| w[0] <= w[1]),
            "fetch completions must be non-decreasing"
        );
        // Items the simulation never serviced (a stream revoked to the
        // end) are holes too: the open-loop display played past them.
        let mut dropped_blocks = (items.len() - serviced) as u64;
        let mut fetched = 0u64;
        let mut violations = 0u64;
        let mut lateness = Vec::new();
        let mut first_violation = None;
        let first_display = self.epochs.first().and_then(|e| e.display_start);
        for (j, item) in items.iter().enumerate().take(serviced) {
            if self.dropped[j] {
                dropped_blocks += 1;
                continue;
            }
            if !item.silence {
                fetched += 1;
            }
            let Some(deadline) = self.deadline_of(j) else {
                continue;
            };
            let done = self.completions[j];
            // Items past the live-emission pointer were never flushed
            // by `emit_due_deadlines` (possible only when the loop
            // ended mid-buffer); emit them now so the event set is
            // complete. Items before it already went out live.
            if j >= self.deadline_emitted {
                obs.emit(|| Event::Deadline {
                    stream,
                    item: j as u64,
                    round: self.fetch_rounds[j],
                    deadline,
                    completed: done,
                });
            }
            if done > deadline {
                violations += 1;
                lateness.push(done - deadline);
                if first_violation.is_none() {
                    if let Some(ds) = first_display {
                        first_violation = Some(deadline - ds);
                    }
                }
            }
        }
        // The per-round time series: group items by the round that
        // fetched them (`fetch_rounds` is non-decreasing by
        // construction), take the tightest margin in each group, and
        // measure the backlog right after the group's last fetch.
        // Dropped items have no fetch to measure and are skipped.
        let mut series = Vec::new();
        let mut j = 0;
        while j < serviced {
            let round = self.fetch_rounds[j];
            let mut worst = i64::MAX;
            let mut last = j;
            while last < serviced && self.fetch_rounds[last] == round {
                if !self.dropped[last] {
                    if let Some(deadline) = self.deadline_of(last) {
                        worst = worst.min(signed_margin(deadline, self.completions[last]));
                    }
                }
                last += 1;
            }
            if worst == i64::MAX {
                // The round fetched only drops or pre-display items.
                worst = 0;
            }
            let turn_end = self.completions[last - 1];
            // Items consumed by `turn_end`: deadlines are non-decreasing
            // within an epoch; count them epoch-free via the first
            // display clock (good enough for the backlog gauge).
            let consumed = match first_display {
                Some(ds) => items.partition_point(|it| ds + it.at <= turn_end),
                None => 0,
            };
            series.push(RoundSample {
                round,
                blocks: (last - j) as u64,
                worst_margin_ns: worst,
                buffered: (last as u64).saturating_sub(consumed as u64),
            });
            j = last;
        }
        // Required buffering: completions are non-decreasing, so the
        // backlog when item j starts playing is (#completions ≤ its
        // deadline) − j. The subtraction saturates by design: a starved
        // stream can reach item j's play instant with fewer than j
        // fetches resident (open-loop display consumes items whether or
        // not they arrived), and its backlog is then 0, not negative.
        let mut max_buffered = 0u64;
        for j in 0..serviced {
            let Some(deadline) = self.deadline_of(j) else {
                continue;
            };
            let fetched_by = self.completions.partition_point(|c| *c <= deadline);
            max_buffered = max_buffered.max((fetched_by as u64).saturating_sub(j as u64));
        }
        StreamOutcome {
            blocks: items.len() as u64,
            fetched,
            violations,
            max_lateness: lateness.iter().copied().max().unwrap_or(Nanos::ZERO),
            lateness: NanosSummary::of(lateness),
            start_latency: match (first_display, self.service_start) {
                (Some(ds), Some(ss)) => ds - ss,
                _ => Nanos::ZERO,
            },
            max_buffered,
            series,
            first_violation,
            dropped_blocks,
            retries: self.retries,
            revokes: self.revokes,
            recovery_time: self.recovery_time,
        }
    }
}

impl AsMut<StreamState> for StreamState {
    fn as_mut(&mut self) -> &mut StreamState {
        self
    }
}

/// Serve one stream's turn of round `round`: up to `k` schedule items,
/// stopping early when the stream finishes or is revoked.
///
/// `s` is the stream (a bare [`StreamState`], or a loop's wrapper around
/// one); `fetch(s, j)` serves non-silence item `j` the loop's way.
/// Silence items complete at the loop clock without a fetch. `start` is
/// the service-start anchor recorded on the stream's first turn, `begin`
/// the loop clock as the turn begins. A dropped item counts toward
/// revocation after `revoke_after` drops (`None`: never revoke).
///
/// Emits the turn's `Degrade`, `DisplayStart` and `Deadline` events and
/// its closing `StreamService`.
#[allow(clippy::too_many_arguments)]
pub fn serve_turn<S: AsMut<StreamState>>(
    s: &mut S,
    stream: usize,
    round: u64,
    k: u64,
    start: Instant,
    begin: Instant,
    revoke_after: Option<u64>,
    obs: &ObsSink,
    mut fetch: impl FnMut(&mut S, usize) -> Result<Fetched, FsError>,
) -> Result<(), FsError> {
    s.as_mut().service_start.get_or_insert(start);
    let mut clock = begin;
    let mut blocks = 0u64;
    for _ in 0..k {
        let state = s.as_mut();
        if state.finished() || state.revoked() {
            break;
        }
        let j = state.next;
        let (at, dropped) = if state.schedule.items[j].silence {
            (clock, false)
        } else {
            let f = fetch(s, j)?;
            s.as_mut().retries += f.retries;
            clock = f.clock;
            (f.at, f.dropped)
        };
        let state = s.as_mut();
        let at = at.max(state.last_completion());
        state.completions.push(at);
        state.dropped.push(dropped);
        if dropped {
            state.drops_since_admit += 1;
            obs.emit(|| Event::Degrade {
                stream,
                round,
                item: j as u64,
                action: DegradeAction::DropBlock,
                at,
            });
            if revoke_after.is_some_and(|n| state.drops_since_admit >= n.max(1)) {
                state.revoked_at = Some(at);
                state.revokes += 1;
                obs.emit(|| Event::Degrade {
                    stream,
                    round,
                    item: j as u64,
                    action: DegradeAction::Revoke,
                    at,
                });
            }
        }
        state.fetch_rounds.push(round);
        state.next += 1;
        blocks += 1;
        let finished = state.finished();
        let ep = state.epochs.last_mut().expect("epochs never empty");
        if ep.display_start.is_none()
            && ((state.next - ep.first_item) as u64 >= state.read_ahead || finished)
        {
            // Display starts once the read-ahead is resident: at the
            // completion that filled it.
            ep.display_start = Some(at);
            // Time-to-first-frame: how long the viewer waited since the
            // epoch entered service — the service start for the initial
            // epoch, re-admission for later ones.
            let anchor = ep.resumed_at.or(state.service_start).unwrap_or(at);
            obs.emit(|| Event::DisplayStart {
                stream,
                at,
                latency: at - anchor,
            });
        }
    }
    s.as_mut().emit_due_deadlines(stream, obs);
    obs.emit(|| Event::StreamService {
        stream,
        round,
        begin,
        end: clock,
        blocks,
    });
    Ok(())
}
