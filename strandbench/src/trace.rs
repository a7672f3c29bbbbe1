//! Tracing from outside the program: wall-clock spans around the
//! benchmark's own calls, and an `obs::Recorder` that stamps the event
//! stream with wall time before forwarding it to the workload's sink.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant as Wall;

use strandfs_obs::{AccessDir, Event, JournalOp, ObsSink, Recorder};
use strandfs_units::Instant;

use crate::common::Samples;

/// One closed span.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span log; disabled logs record nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Wall,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A log that records nothing (the timed runs).
    pub fn off() -> Spans {
        Spans {
            on: false,
            t0: Wall::now(),
            spans: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// A log keeping up to `cap` spans.
    pub fn on(cap: usize) -> Spans {
        Spans {
            on: true,
            t0: Wall::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span under `parent` (0 = root); returns its id (0 when
    /// the log is off or full).
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.spans.len() as u32
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = now.saturating_sub(s.start_ns);
    }

    /// Total milliseconds and count of the recorded spans per name.
    pub fn times_ms(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Write the log as a Chrome trace (`chrome://tracing`, Perfetto),
    /// with `counters` as metadata.
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        counters: &[(String, f64)],
    ) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                i + 1,
                s.parent
            );
        }
        out.push_str("],\"metadata\":{");
        let _ = write!(out, "\"dropped_spans\":{}", self.dropped);
        for (k, v) in counters {
            if v.is_finite() {
                let _ = write!(out, ",\"{k}\":{v}");
            }
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One captured disk operation.
#[derive(Clone, Copy, Debug)]
pub struct DiskOpRec {
    /// Read (true) or write.
    pub read: bool,
    /// First sector.
    pub lba: u64,
    /// Sector count.
    pub sectors: u64,
    /// Virtual issue time.
    pub issued: Instant,
}

/// Counts the event stream, wall-stamps round boundaries, and forwards
/// every event to the workload's own sink.
pub struct WallRecorder {
    forward: ObsSink,
    /// Count exact per-kind totals and capture disk ops only while set
    /// (the deterministic prefix of a run).
    pub capture: bool,
    /// Events seen while capturing.
    pub events: u64,
    /// Events seen in all.
    pub events_all: u64,
    /// Events per kind while capturing.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Journal records (checkpoints excluded) while capturing.
    pub journal_records: u64,
    /// Journal checkpoints while capturing.
    pub checkpoints: u64,
    /// Disk operations while capturing.
    pub disk_ops: Vec<DiskOpRec>,
    /// Scrub probes `(volume, strand, block)` while capturing.
    pub scrubs: Vec<(usize, u64, u64)>,
    /// Wall time of every round, start to end, in microseconds.
    pub round_wall_us: Samples,
    round_open: Option<Wall>,
    last_round_end: Instant,
}

impl WallRecorder {
    /// A recorder forwarding to `forward` (pass `ObsSink::noop()` when
    /// the workload runs without a sink).
    pub fn new(forward: ObsSink) -> WallRecorder {
        WallRecorder {
            forward,
            capture: false,
            events: 0,
            events_all: 0,
            kinds: BTreeMap::new(),
            journal_records: 0,
            checkpoints: 0,
            disk_ops: Vec::new(),
            scrubs: Vec::new(),
            round_wall_us: Samples::default(),
            round_open: None,
            last_round_end: Instant::EPOCH,
        }
    }

    /// Replace the sink events are forwarded to.
    pub fn set_forward(&mut self, forward: ObsSink) {
        self.forward = forward;
    }

    /// Virtual nanoseconds from the epoch to the latest round end seen
    /// since the last call (a session's elapsed virtual time).
    pub fn take_last_round_end(&mut self) -> u64 {
        let at = std::mem::replace(&mut self.last_round_end, Instant::EPOCH);
        (at - Instant::EPOCH).as_nanos()
    }

    /// Events of one kind seen while capturing.
    pub fn kind(&self, k: &str) -> u64 {
        self.kinds.get(k).copied().unwrap_or(0)
    }
}

impl Recorder for WallRecorder {
    fn record(&mut self, event: Event) {
        self.events_all += 1;
        match event {
            Event::RoundStart { .. } => self.round_open = Some(Wall::now()),
            Event::RoundEnd { at, .. } => {
                self.last_round_end = self.last_round_end.max(at);
                if let Some(t) = self.round_open.take() {
                    self.round_wall_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            _ => {}
        }
        if self.capture {
            self.events += 1;
            *self.kinds.entry(event.kind()).or_default() += 1;
            match event {
                Event::Journal { op, .. } => {
                    if op == JournalOp::Checkpoint {
                        self.checkpoints += 1;
                    } else {
                        self.journal_records += 1;
                    }
                }
                Event::DiskOp {
                    dir,
                    lba,
                    sectors,
                    issued,
                    ..
                } => self.disk_ops.push(DiskOpRec {
                    read: dir == AccessDir::Read,
                    lba,
                    sectors,
                    issued,
                }),
                Event::Scrub {
                    volume,
                    strand,
                    block,
                    ..
                } => self.scrubs.push((volume, strand, block)),
                _ => {}
            }
        }
        self.forward.emit(|| event);
    }
}
