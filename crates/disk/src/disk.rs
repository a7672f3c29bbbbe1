//! The simulated disk: a single actuator, a spinning platter, and a sparse
//! sector store.

use crate::geometry::{DiskGeometry, Extent, Lba};
use crate::seek::SeekModel;
use crate::trace::DiskStats;
use std::collections::BTreeMap;
use std::ops::Bound::Excluded;
use strandfs_obs::{AccessDir, Event, ObsSink};
use strandfs_units::{Checksum, Instant, Nanos, Seconds};

pub use strandfs_units::fnv1a;

/// Whether an access reads or writes the medium.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Transfer from medium to host.
    Read,
    /// Transfer from host to medium.
    Write,
}

/// The fully-decomposed timing of one disk operation.
#[derive(Clone, Copy, Debug)]
pub struct DiskOp {
    /// The extent accessed.
    pub extent: Extent,
    /// Read or write.
    pub kind: AccessKind,
    /// When the operation was issued.
    pub issued: Instant,
    /// Arm movement time.
    pub seek: Nanos,
    /// Rotational delay waiting for the first sector.
    pub rotation: Nanos,
    /// Media transfer time (including head/track switches).
    pub transfer: Nanos,
    /// Completion instant (`issued + seek + rotation + transfer`).
    pub completed: Instant,
}

impl DiskOp {
    /// Total service time of the operation.
    #[inline]
    pub fn service_time(&self) -> Nanos {
        self.completed - self.issued
    }

    /// Positioning overhead (seek + rotation), the paper's per-block
    /// "scattering" cost.
    #[inline]
    pub fn positioning(&self) -> Nanos {
        self.seek + self.rotation
    }
}

/// A simulated disk drive.
///
/// The drive is deterministic: given the same sequence of `(issue time,
/// extent)` accesses it produces the same service times. The platter's
/// angular position is derived from the issue time (`rpm` revolutions per
/// minute since t=0), the arm position is the cylinder of the last access,
/// and transfer crosses track/cylinder boundaries paying head-switch and
/// track-to-track seek costs.
///
/// Sector payloads are stored sparsely as written runs: one buffer per
/// stretch of sectors written by one store, keyed by its first LBA.
/// Runs never overlap; a store inside a run overwrites it in place, and
/// a store or discard that straddles run boundaries splits the runs it
/// cuts. Unwritten sectors read back as zeroes, like a freshly-formatted
/// drive.
#[derive(Debug)]
pub struct SimDisk {
    geometry: DiskGeometry,
    seek_model: SeekModel,
    head_cylinder: u64,
    /// Written runs by first LBA; each buffer is a whole number of
    /// sectors long.
    store: BTreeMap<Lba, Box<[u8]>>,
    stats: DiskStats,
    obs: ObsSink,
}

impl SimDisk {
    /// A new disk with the head parked at cylinder 0 and observability
    /// disabled.
    pub fn new(geometry: DiskGeometry, seek_model: SeekModel) -> Self {
        SimDisk {
            geometry,
            seek_model,
            head_cylinder: 0,
            store: BTreeMap::new(),
            stats: DiskStats::default(),
            obs: ObsSink::noop(),
        }
    }

    /// The disk's geometry.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The disk's seek model.
    #[inline]
    pub fn seek_model(&self) -> &SeekModel {
        &self.seek_model
    }

    /// The cylinder the arm currently rests on.
    #[inline]
    pub fn head_cylinder(&self) -> u64 {
        self.head_cylinder
    }

    /// Cumulative operation statistics.
    #[inline]
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Route this disk's [`Event::DiskOp`] stream into `obs`.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Worst-case positioning time: full-stroke seek plus one full
    /// rotation — the paper's `l_seek_max` (seek *and* latency maximum).
    pub fn max_positioning_time(&self) -> Seconds {
        self.seek_model.max_seek(self.geometry.cylinders) + self.geometry.rotation_time()
    }

    /// Expected positioning time for a move of `cylinder_distance`
    /// cylinders: seek plus average (half-rotation) latency. This is the
    /// deterministic gap-time estimate the allocators and the analytic
    /// model share.
    pub fn positioning_time(&self, cylinder_distance: u64) -> Seconds {
        self.seek_model.seek_time(cylinder_distance) + self.geometry.rotation_time() / 2.0
    }

    /// Expected gap time between two extents: positioning from the end of
    /// `from` to the start of `to`.
    pub fn gap_time(&self, from: Extent, to: Extent) -> Seconds {
        let d = self
            .geometry
            .cylinder_distance(from.end().saturating_sub(1), to.start);
        self.positioning_time(d)
    }

    /// Perform a timed access of `extent`, returning its decomposed
    /// timing. Panics if the extent is off-device (a file-system bug, not
    /// an I/O error — real drivers validate requests before issue).
    pub fn access(&mut self, now: Instant, extent: Extent, kind: AccessKind) -> DiskOp {
        assert!(
            self.geometry.extent_valid(extent),
            "access beyond device: {extent:?} on {} sectors",
            self.geometry.total_sectors()
        );

        let target_cyl = self.geometry.cylinder_of(extent.start);
        let distance = target_cyl.abs_diff(self.head_cylinder);
        let seek = self.seek_model.seek_time(distance).to_nanos();

        // Rotational delay: the platter angle is a pure function of time.
        let at_cylinder = now + seek;
        let rotation = self.rotational_delay(at_cylinder, extent.start);

        let transfer = self.transfer_time(extent);

        let completed = at_cylinder + rotation + transfer;
        self.head_cylinder = self.geometry.cylinder_of(extent.end() - 1);

        let op = DiskOp {
            extent,
            kind,
            issued: now,
            seek,
            rotation,
            transfer,
            completed,
        };
        self.stats.record(&op);
        self.obs.emit(|| Event::DiskOp {
            dir: match kind {
                AccessKind::Read => AccessDir::Read,
                AccessKind::Write => AccessDir::Write,
            },
            lba: extent.start,
            sectors: extent.sectors,
            cylinder: target_cyl,
            cyl_distance: distance,
            issued: now,
            seek,
            rotation,
            transfer,
        });
        op
    }

    /// Rotational wait from `at` until sector `lba` first passes under the
    /// head.
    ///
    /// Nanosecond quantization can make a head that is exactly on the
    /// target sector appear a few nanoseconds past it, turning a zero wait
    /// into a full revolution; waits within `ROT_EPSILON_NS` of a full
    /// revolution are therefore treated as zero.
    fn rotational_delay(&self, at: Instant, lba: Lba) -> Nanos {
        const ROT_EPSILON_NS: u64 = 256;
        let rot_ns = self.geometry.rotation_time().to_nanos().as_nanos();
        if rot_ns == 0 {
            return Nanos::ZERO;
        }
        let spt = self.geometry.sectors_per_track;
        let target_angle_ns =
            (self.geometry.sector_of(lba) as f64 / spt as f64 * rot_ns as f64) as u64;
        let now_angle_ns = at.as_nanos() % rot_ns;
        let wait = if target_angle_ns >= now_angle_ns {
            target_angle_ns - now_angle_ns
        } else {
            rot_ns - (now_angle_ns - target_angle_ns)
        };
        if wait + ROT_EPSILON_NS >= rot_ns {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(wait)
        }
    }

    /// Media transfer time for `extent`, paying a head switch at every
    /// track boundary and a track-to-track seek at every cylinder boundary.
    fn transfer_time(&self, extent: Extent) -> Nanos {
        let g = &self.geometry;
        let sector = g.sector_time().to_nanos();
        let mut total = sector.mul_u64(extent.sectors);
        // Boundary crossings within the run.
        let first_track = extent.start / g.sectors_per_track;
        let last_track = (extent.end() - 1) / g.sectors_per_track;
        let track_switches = last_track - first_track;
        let first_cyl = g.cylinder_of(extent.start);
        let last_cyl = g.cylinder_of(extent.end() - 1);
        let cyl_switches = last_cyl - first_cyl;
        total += g.head_switch.to_nanos().mul_u64(track_switches);
        total += self
            .seek_model
            .seek_time(1)
            .to_nanos()
            .mul_u64(cyl_switches);
        total
    }

    fn sector_bytes(&self) -> usize {
        self.geometry.sector_size.get() as usize
    }

    /// The written bytes inside `extent`, one slice per run, in address
    /// order, each with the LBA it starts at.
    fn runs_in(&self, extent: Extent) -> impl Iterator<Item = (Lba, &[u8])> + '_ {
        let ss = self.sector_bytes();
        let (s, e) = (extent.start, extent.end());
        let first = self.store.range(..=s).next_back();
        // A block read back whole is one run: skip the second search.
        let covered = first.is_some_and(|(&rs, buf)| rs + (buf.len() / ss) as u64 >= e);
        let rest = (!covered && e > s + 1)
            .then(|| self.store.range((Excluded(s), Excluded(e))))
            .into_iter()
            .flatten();
        first.into_iter().chain(rest).filter_map(move |(&rs, buf)| {
            let (lo, hi) = (rs.max(s), (rs + (buf.len() / ss) as u64).min(e));
            (lo < hi).then(|| (lo, &buf[(lo - rs) as usize * ss..(hi - rs) as usize * ss]))
        })
    }

    /// Write `data` into `extent`. Only the payload store is touched; use
    /// [`Self::access`] for timing.
    ///
    /// `data` may stop short of the extent's end by less than one sector
    /// (a one-sector extent takes any payload up to a sector, the empty
    /// one included); the rest of the extent is zero-filled.
    pub fn store_data(&mut self, extent: Extent, data: &[u8]) {
        let ss = self.sector_bytes();
        let len = ss * extent.sectors as usize;
        assert!(
            data.len() <= len && (len - data.len() < ss || extent.sectors == 1),
            "payload length must reach the extent's last sector"
        );
        if extent.sectors == 0 {
            return;
        }
        let (s, e) = (extent.start, extent.end());
        // The last run starting before `e` is the only candidate to
        // contain the extent, and if it ends by `s` nothing overlaps.
        if let Some((&rs, buf)) = self.store.range_mut(..e).next_back() {
            let rend = rs + (buf.len() / ss) as u64;
            if rs <= s && rend >= e {
                let off = (s - rs) as usize * ss;
                buf[off..off + data.len()].copy_from_slice(data);
                buf[off + data.len()..off + len].fill(0);
                return;
            }
            if rend > s {
                self.discard_data(extent);
            }
        }
        let mut run = Vec::with_capacity(len);
        run.extend_from_slice(data);
        run.resize(len, 0);
        self.store.insert(s, run.into_boxed_slice());
    }

    /// Read the payload of `extent`, or `None` if any part of the extent
    /// lies off the device. The checked variant the storage manager uses:
    /// a corrupt on-disk pointer surfaces as an error, not a panic or a
    /// silent zero-fill.
    pub fn try_fetch(&self, extent: Extent) -> Option<Vec<u8>> {
        if !self.geometry.extent_valid(extent) {
            return None;
        }
        Some(self.fetch_data(extent))
    }

    /// Read the payload of `extent`; unwritten sectors come back zeroed.
    pub fn fetch_data(&self, extent: Extent) -> Vec<u8> {
        let ss = self.sector_bytes();
        let mut out = vec![0u8; ss * extent.sectors as usize];
        for (lba, bytes) in self.runs_in(extent) {
            let off = (lba - extent.start) as usize * ss;
            out[off..off + bytes.len()].copy_from_slice(bytes);
        }
        out
    }

    /// Checksum ([`fnv1a`]) of the payload of `extent`, unwritten
    /// sectors counting as zeroes, or `None` off-device: the sum of
    /// [`SimDisk::try_fetch`] without materializing the copy. The
    /// verified-read and scrub paths call this per block, so it must
    /// not allocate.
    pub fn fetch_sum(&self, extent: Extent) -> Option<u64> {
        if !self.geometry.extent_valid(extent) {
            return None;
        }
        let ss = self.sector_bytes();
        let mut h = Checksum::new();
        let mut at = extent.start;
        for (lba, bytes) in self.runs_in(extent) {
            h.write_zeros((lba - at) as usize * ss);
            h.write(bytes);
            at = lba + (bytes.len() / ss) as u64;
        }
        h.write_zeros((extent.end() - at) as usize * ss);
        Some(h.finish())
    }

    /// Drop the payload of `extent` (models discard; timing-neutral),
    /// splitting the runs that straddle its ends.
    pub fn discard_data(&mut self, extent: Extent) {
        let ss = self.sector_bytes();
        let (s, e) = (extent.start, extent.end());
        if s == e {
            return;
        }
        let sectors = |buf: &[u8]| (buf.len() / ss) as u64;
        if let Some((&rs, buf)) = self.store.range(..s).next_back() {
            if rs + sectors(buf) > s {
                let mut head = self.store.remove(&rs).expect("run just found").into_vec();
                if rs + sectors(&head) > e {
                    let tail = head[(e - rs) as usize * ss..].into();
                    self.store.insert(e, tail);
                }
                head.truncate((s - rs) as usize * ss);
                self.store.insert(rs, head.into_boxed_slice());
            }
        }
        while let Some((&rs, _)) = self.store.range(s..e).next() {
            let buf = self.store.remove(&rs).expect("run just found");
            if rs + sectors(&buf) > e {
                self.store.insert(e, buf[(e - rs) as usize * ss..].into());
            }
        }
    }

    /// Number of sectors currently holding written payloads.
    pub fn sectors_written(&self) -> usize {
        self.store.values().map(|b| b.len()).sum::<usize>() / self.sector_bytes()
    }

    /// Checksum over every written sector in address order, each as its
    /// LBA (little-endian) followed by its bytes: a stable fingerprint
    /// of the device image for byte-identity assertions (crash-point
    /// determinism — same plan, seed and access sequence must freeze
    /// byte-identical post-crash images). How the sectors are split
    /// into runs does not enter the sum.
    pub fn content_hash(&self) -> u64 {
        let ss = self.sector_bytes();
        let mut h = Checksum::new();
        for (&rs, buf) in &self.store {
            for (lba, sector) in (rs..).zip(buf.chunks_exact(ss)) {
                h.write(&lba.to_le_bytes());
                h.write(sector);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991())
    }

    #[test]
    fn access_timing_decomposes() {
        let mut d = disk();
        let op = d.access(Instant::EPOCH, Extent::new(0, 4), AccessKind::Read);
        assert_eq!(op.seek, Nanos::ZERO, "head starts at cylinder 0");
        assert_eq!(
            op.completed,
            Instant::EPOCH + op.seek + op.rotation + op.transfer
        );
        assert_eq!(op.service_time(), op.seek + op.rotation + op.transfer);
        // 4 sectors at tiny geometry: 4 * (1/60/16) s, up to per-sector
        // nanosecond rounding.
        let expect = Seconds::new(4.0 / 60.0 / 16.0).to_nanos();
        let delta = expect.max(op.transfer) - expect.min(op.transfer);
        assert!(delta < Nanos::from_nanos(16), "delta = {delta}");
    }

    #[test]
    fn seek_charged_for_cylinder_moves() {
        let mut d = disk();
        let far = d.geometry().sectors_per_cylinder() * 40; // cylinder 40
        let op = d.access(Instant::EPOCH, Extent::new(far, 1), AccessKind::Read);
        assert!(op.seek > Nanos::ZERO);
        assert_eq!(d.head_cylinder(), 40);
        // Returning to cylinder 40 is then free of seek.
        let op2 = d.access(op.completed, Extent::new(far + 1, 1), AccessKind::Read);
        assert_eq!(op2.seek, Nanos::ZERO);
    }

    #[test]
    fn rotation_bounded_by_one_revolution() {
        let mut d = disk();
        let rev = d.geometry().rotation_time().to_nanos();
        let mut t = Instant::EPOCH;
        for i in 0..50 {
            let lba = (i * 7) % d.geometry().total_sectors();
            let op = d.access(t, Extent::new(lba, 1), AccessKind::Read);
            assert!(op.rotation < rev, "rotation {} >= rev {}", op.rotation, rev);
            t = op.completed;
        }
    }

    #[test]
    fn rotation_is_time_dependent_but_deterministic() {
        let mut d1 = disk();
        let mut d2 = disk();
        let e = Extent::new(5, 1);
        let a = d1.access(
            Instant::EPOCH + Nanos::from_micros(123),
            e,
            AccessKind::Read,
        );
        let b = d2.access(
            Instant::EPOCH + Nanos::from_micros(123),
            e,
            AccessKind::Read,
        );
        assert_eq!(a.rotation, b.rotation);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn sequential_same_track_reads_have_zero_rotation_gap() {
        // After reading sector s, sector s+1 is immediately under the head.
        let mut d = disk();
        let op1 = d.access(Instant::EPOCH, Extent::new(0, 1), AccessKind::Read);
        let op2 = d.access(op1.completed, Extent::new(1, 1), AccessKind::Read);
        assert_eq!(op2.rotation, Nanos::ZERO);
        assert_eq!(op2.seek, Nanos::ZERO);
    }

    #[test]
    fn transfer_pays_track_and_cylinder_switches() {
        let mut d = disk();
        let g = *d.geometry();
        // Span one full cylinder boundary: start on last track of cyl 0.
        let start = g.sectors_per_cylinder() - 2;
        let op = d.access(Instant::EPOCH, Extent::new(start, 4), AccessKind::Read);
        let plain = g.sector_time().to_nanos().mul_u64(4);
        assert!(op.transfer > plain, "boundary crossing must cost extra");
    }

    #[test]
    #[should_panic(expected = "access beyond device")]
    fn off_device_access_panics() {
        let mut d = disk();
        let total = d.geometry().total_sectors();
        d.access(Instant::EPOCH, Extent::new(total - 1, 2), AccessKind::Read);
    }

    #[test]
    fn payload_round_trip_and_zero_fill() {
        let mut d = disk();
        let e = Extent::new(10, 2);
        let data = vec![0xAB; 1024];
        d.store_data(e, &data);
        assert_eq!(d.fetch_data(e), data);
        // Unwritten sector reads back zeroed.
        let z = d.fetch_data(Extent::new(12, 1));
        assert!(z.iter().all(|&b| b == 0));
        d.discard_data(e);
        assert_eq!(d.sectors_written(), 0);
        assert!(d.fetch_data(e).iter().all(|&b| b == 0));
    }

    #[test]
    fn fetch_sum_matches_fnv_of_fetched_bytes() {
        let mut d = disk();
        let e = Extent::new(20, 3);
        let mut data = vec![0u8; 3 * 512];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        d.store_data(e, &data);
        assert_eq!(d.fetch_sum(e), Some(fnv1a(&data)));
        // Partially-written extents hash the zero-fill, same as fetch.
        let partial = Extent::new(21, 4);
        assert_eq!(
            d.fetch_sum(partial),
            Some(fnv1a(&d.fetch_data(partial))),
            "unwritten sectors hash as zeroes"
        );
        // Off-device is a corrupt pointer, not a panic.
        let total = d.geometry().total_sectors();
        assert_eq!(d.fetch_sum(Extent::new(total - 1, 2)), None);
    }

    #[test]
    fn run_splits_do_not_enter_sums_or_images() {
        let data: Vec<u8> = (0..8 * 512).map(|i| (i % 253) as u8).collect();
        let e = Extent::new(40, 8);
        let mut whole = disk();
        whole.store_data(e, &data);
        let mut pieces = disk();
        for (i, sector) in data.chunks(512).enumerate().rev() {
            pieces.store_data(Extent::new(40 + i as u64, 1), sector);
        }
        assert_eq!(whole.content_hash(), pieces.content_hash());
        assert_eq!(whole.fetch_sum(e), pieces.fetch_sum(e));
        assert_eq!(whole.fetch_data(e), pieces.fetch_data(e));
        assert_eq!(pieces.sectors_written(), 8);
        // A discard through the middle splits the run; rewriting the
        // hole restores the image exactly.
        whole.discard_data(Extent::new(42, 3));
        assert_eq!(whole.sectors_written(), 5);
        assert_ne!(whole.content_hash(), pieces.content_hash());
        whole.store_data(Extent::new(42, 3), &data[2 * 512..5 * 512]);
        assert_eq!(whole.content_hash(), pieces.content_hash());
    }

    #[test]
    fn short_payload_is_zero_filled_to_the_extent() {
        let mut d = disk();
        let e = Extent::new(7, 2);
        d.store_data(e, &vec![0xFF; 2 * 512]);
        d.store_data(e, &[0xAB; 600]);
        let mut want = vec![0xAB; 600];
        want.resize(1024, 0);
        assert_eq!(d.fetch_data(e), want);
        assert_eq!(d.fetch_sum(e), Some(fnv1a(&want)));
        d.store_data(Extent::new(30, 1), &[]);
        assert_eq!(d.sectors_written(), 3, "an empty payload fills one sector");
    }

    #[test]
    #[should_panic(expected = "payload length must reach the extent's last sector")]
    fn payload_a_sector_short_is_refused() {
        disk().store_data(Extent::new(0, 2), &[1; 512]);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        let op1 = d.access(Instant::EPOCH, Extent::new(0, 2), AccessKind::Read);
        let _ = d.access(op1.completed, Extent::new(100, 2), AccessKind::Write);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().sectors_transferred, 4);
    }

    #[test]
    fn obs_events_mirror_ops_exactly() {
        let (sink, recorder) = ObsSink::ring(16);
        let mut d = disk();
        d.set_obs(sink);
        let op1 = d.access(Instant::EPOCH, Extent::new(0, 2), AccessKind::Read);
        let op2 = d.access(op1.completed, Extent::new(100, 2), AccessKind::Write);
        let r = recorder.borrow();
        let events: Vec<_> = r.events().collect();
        assert_eq!(events.len(), 2);
        match events[1] {
            Event::DiskOp {
                dir,
                lba,
                sectors,
                seek,
                rotation,
                transfer,
                ..
            } => {
                assert_eq!(*dir, AccessDir::Write);
                assert_eq!(*lba, 100);
                assert_eq!(*sectors, 2);
                assert_eq!(*seek + *rotation + *transfer, op2.service_time());
            }
            e => panic!("unexpected event {e:?}"),
        }
        // Cumulative obs metrics agree with the disk's own stats.
        assert_eq!(r.disk_service_total(), d.stats().busy_time());
    }

    #[test]
    fn gap_time_uses_cylinder_distance() {
        let d = disk();
        let g = *d.geometry();
        let a = Extent::new(0, 2);
        let near = Extent::new(4, 2);
        let far = Extent::new(g.sectors_per_cylinder() * 50, 2);
        assert!(d.gap_time(a, near) < d.gap_time(a, far));
        // Worst case bounded by max positioning.
        assert!(d.gap_time(a, far) <= d.max_positioning_time());
    }
}
