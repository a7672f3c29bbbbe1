//! Property-based tests over the core invariants: index encoding,
//! rope-edit algebra, allocator constraints, admission monotonicity.
//!
//! Runs on the in-tree `strandfs-testkit` harness: inputs are drawn from
//! a seeded deterministic PRNG (`STRANDFS_TEST_SEED` to replay,
//! `STRANDFS_TEST_CASES` to rescale) and failures are shrunk before
//! being reported.

use std::collections::BTreeMap;
use strandfs::core::admission::{Aggregates, RequestSpec, ServiceEnv};
use strandfs::core::rope::edit::{self, Interval, MediaSel};
use strandfs::core::rope::{Rope, Segment, StrandRef};
use strandfs::core::strand::index::{
    build_primaries, HeaderBlock, IndexPtr, PrimaryBlock, PrimaryEntry, SecondaryBlock,
    SecondaryEntry,
};
use strandfs::core::{RopeId, StrandId};
use strandfs::disk::{
    AccessKind, AllocPolicy, Allocator, BlockDevice, DiskGeometry, Extent, FaultInjector,
    FaultPlan, GapBounds, SeekModel, SimDisk,
};
use strandfs::units::{fnv1a, BitRate, Bits, Checksum, Instant, Nanos, Seconds};
use strandfs_testkit::{
    any_bool, check, check_with, prop_assert, prop_assert_eq, prop_assume, vec as prop_vec,
    CaseError, Config,
};

// ---------- index encoding ----------

/// `(silence, sector, sector_count)` → a [`PrimaryEntry`]; stored
/// entries carry a sector-derived payload checksum stamp.
fn primary_entry((silence, sector, sector_count): (bool, u64, u32)) -> PrimaryEntry {
    if silence {
        PrimaryEntry::SILENCE
    } else {
        PrimaryEntry {
            sector,
            sector_count,
            sum: sector ^ 0x00C0_FFEE,
        }
    }
}

#[test]
fn primary_block_round_trips() {
    check(
        "primary_block_round_trips",
        prop_vec((any_bool(), 0u64..1 << 40, 1u32..1 << 16), 0..25),
        |raw| {
            let pb = PrimaryBlock {
                entries: raw.iter().copied().map(primary_entry).collect(),
            };
            let bytes = pb.encode(512);
            prop_assert_eq!(bytes.len(), 512);
            prop_assert_eq!(PrimaryBlock::decode(&bytes).unwrap(), pb);
            Ok(())
        },
    );
}

#[test]
fn secondary_block_round_trips() {
    check(
        "secondary_block_round_trips",
        prop_vec(
            (0u64..1 << 40, 1u32..1 << 16, 0u64..1 << 40, 1u32..8),
            0..21,
        ),
        |raw| {
            let sb = SecondaryBlock {
                entries: raw
                    .iter()
                    .map(
                        |&(start_block, block_count, sector, sector_count)| SecondaryEntry {
                            start_block,
                            block_count,
                            sector,
                            sector_count,
                        },
                    )
                    .collect(),
            };
            let bytes = sb.encode(512);
            prop_assert_eq!(SecondaryBlock::decode(&bytes).unwrap(), sb);
            Ok(())
        },
    );
}

#[test]
fn header_block_round_trips() {
    check(
        "header_block_round_trips",
        (
            1.0f64..100_000.0,
            1u64..10_000,
            1u64..1 << 24,
            0u64..1 << 40,
            0u64..1 << 32,
            prop_vec((0u64..1 << 40, 1u32..8), 0..30),
            any_bool(),
        ),
        |(rate, granularity, unit_bits, unit_count, block_count, ptrs, audio)| {
            let hb = HeaderBlock {
                medium: if *audio {
                    strandfs::media::Medium::Audio
                } else {
                    strandfs::media::Medium::Video
                },
                unit_rate: *rate,
                granularity: *granularity,
                unit_bits: *unit_bits,
                unit_count: *unit_count,
                block_count: *block_count,
                secondaries: ptrs
                    .iter()
                    .map(|&(sector, sector_count)| IndexPtr {
                        sector,
                        sector_count,
                    })
                    .collect(),
            };
            let bytes = hb.encode(512);
            prop_assert_eq!(HeaderBlock::decode(&bytes).unwrap(), hb);
            Ok(())
        },
    );
}

#[test]
fn build_primaries_preserves_every_block() {
    check(
        "build_primaries_preserves_every_block",
        (
            prop_vec((any_bool(), 0u64..1 << 30, 1u64..64), 0..400),
            1usize..64,
        ),
        |(raw, per_primary)| {
            let blocks: Vec<Option<Extent>> = raw
                .iter()
                .map(|&(hole, s, n)| if hole { None } else { Some(Extent::new(s, n)) })
                .collect();
            let sums: Vec<u64> = raw.iter().map(|&(_, s, _)| s ^ 0x5AFE).collect();
            let (pbs, coverage) = build_primaries(&blocks, &sums, *per_primary);
            let rebuilt: Vec<Option<Extent>> = pbs
                .iter()
                .flat_map(|pb| pb.entries.iter().map(|e| e.extent()))
                .collect();
            prop_assert_eq!(&rebuilt, &blocks);
            // Stored entries carry their stamped sums at the right offsets.
            let flat: Vec<PrimaryEntry> = pbs
                .iter()
                .flat_map(|pb| pb.entries.iter().copied())
                .collect();
            for (i, e) in flat.iter().enumerate() {
                if !e.is_silence() {
                    prop_assert_eq!(e.sum, sums[i]);
                }
            }
            // Coverage tiles the block range exactly.
            let mut next = 0u64;
            for (start, count) in &coverage {
                prop_assert_eq!(*start, next);
                next += *count as u64;
            }
            prop_assert_eq!(next, blocks.len() as u64);
            Ok(())
        },
    );
}

// ---------- rope edit algebra ----------

fn test_rope(video_units: u64, audio_units: u64) -> Rope {
    let mut rope = Rope::new(RopeId::from_raw(1), "p");
    rope.segments.push(Segment::new(
        Some(StrandRef {
            strand: StrandId::from_raw(1),
            start_unit: 0,
            len_units: video_units,
            unit_rate: 30.0,
            granularity: 3,
        }),
        Some(StrandRef {
            strand: StrandId::from_raw(2),
            start_unit: 0,
            len_units: audio_units,
            unit_rate: 8_000.0,
            granularity: 800,
        }),
    ));
    rope
}

#[test]
fn substring_length_is_interval_length() {
    check(
        "substring_length_is_interval_length",
        (30u64..3_000, 0u64..10_000, 100u64..10_000),
        |&(frames, start_ms, len_ms)| {
            let rope = test_rope(frames, frames * 8_000 / 30);
            let dur_ms = rope.duration().as_nanos() / 1_000_000;
            prop_assume!(start_ms + len_ms <= dur_ms);
            let iv = Interval::new(Nanos::from_millis(start_ms), Nanos::from_millis(len_ms));
            let sub = edit::substring(&rope, MediaSel::Both, iv).unwrap();
            sub.check_invariants().unwrap();
            let got = sub.duration().as_nanos() as i128;
            let want = iv.len.as_nanos() as i128;
            // Exact to within one media unit of rounding.
            prop_assert!((got - want).abs() <= 34_000_000, "got {got} want {want}");
            Ok(())
        },
    );
}

#[test]
fn insert_then_delete_restores_duration() {
    check(
        "insert_then_delete_restores_duration",
        (60u64..1_500, 30u64..600, 0u64..2_000),
        |&(frames, clip_frames, pos_ms)| {
            let base = test_rope(frames, frames * 8_000 / 30);
            let clip = test_rope(clip_frames, clip_frames * 8_000 / 30);
            let base_dur = base.duration();
            prop_assume!(Nanos::from_millis(pos_ms) <= base_dur);
            let clip_dur = clip.duration();
            let inserted = edit::insert(
                &base,
                Nanos::from_millis(pos_ms),
                MediaSel::Both,
                &clip,
                Interval::whole(clip_dur),
            )
            .unwrap();
            inserted.check_invariants().unwrap();
            let grew = inserted.duration().as_nanos() as i128 - base_dur.as_nanos() as i128;
            prop_assert!((grew - clip_dur.as_nanos() as i128).abs() <= 34_000_000);
            let removed = edit::delete(
                &inserted,
                MediaSel::Both,
                Interval::new(Nanos::from_millis(pos_ms), clip_dur),
            )
            .unwrap();
            removed.check_invariants().unwrap();
            let back = removed.duration().as_nanos() as i128 - base_dur.as_nanos() as i128;
            prop_assert!(back.abs() <= 67_000_000, "off by {back}");
            Ok(())
        },
    );
}

#[test]
fn concat_duration_is_sum() {
    check(
        "concat_duration_is_sum",
        (30u64..1_000, 30u64..1_000),
        |&(f1, f2)| {
            let a = test_rope(f1, f1 * 8_000 / 30);
            let b = test_rope(f2, f2 * 8_000 / 30);
            let joined = edit::concat(&a, &b);
            joined.check_invariants().unwrap();
            let got = joined.duration().as_nanos() as i128;
            let want = (a.duration() + b.duration()).as_nanos() as i128;
            prop_assert!((got - want).abs() <= 2);
            Ok(())
        },
    );
}

#[test]
fn edits_never_invent_strands() {
    check(
        "edits_never_invent_strands",
        (60u64..1_000, 0u64..1_000, 100u64..1_000),
        |&(frames, start_ms, len_ms)| {
            let rope = test_rope(frames, frames * 8_000 / 30);
            let dur_ms = rope.duration().as_nanos() / 1_000_000;
            prop_assume!(start_ms + len_ms <= dur_ms);
            let iv = Interval::new(Nanos::from_millis(start_ms), Nanos::from_millis(len_ms));
            let ids = rope.strand_ids();
            for edited in [
                edit::substring(&rope, MediaSel::Both, iv).unwrap(),
                edit::delete(&rope, MediaSel::Both, iv).unwrap(),
                edit::insert(
                    &rope,
                    Nanos::from_millis(start_ms),
                    MediaSel::Both,
                    &rope,
                    iv,
                )
                .unwrap(),
            ] {
                prop_assert!(edited.strand_ids().is_subset(&ids));
            }
            Ok(())
        },
    );
}

// ---------- multi-segment rope algebra ----------

/// A rope of `n` segments, each from distinct strand pairs, with varied
/// lengths.
fn multi_rope(seg_frames: &[u64]) -> Rope {
    let mut rope = Rope::new(RopeId::from_raw(9), "p");
    for (i, &frames) in seg_frames.iter().enumerate() {
        rope.segments.push(Segment::new(
            Some(StrandRef {
                strand: StrandId::from_raw(100 + i as u64),
                start_unit: 0,
                len_units: frames,
                unit_rate: 30.0,
                granularity: 3,
            }),
            Some(StrandRef {
                strand: StrandId::from_raw(200 + i as u64),
                start_unit: 0,
                len_units: frames * 8_000 / 30,
                unit_rate: 8_000.0,
                granularity: 800,
            }),
        ));
    }
    rope
}

/// The multi-segment cut/splice property, shared by the generated cases
/// and the pinned regression below.
fn multi_segment_property(
    seg_frames: &[u64],
    cut_start_pct: u64,
    cut_len_pct: u64,
) -> Result<(), CaseError> {
    let rope = multi_rope(seg_frames);
    rope.check_invariants().unwrap();
    let dur = rope.duration();
    let start = Nanos::from_nanos(dur.as_nanos() * cut_start_pct / 100);
    let len = Nanos::from_nanos(dur.as_nanos() * cut_len_pct / 100);
    let iv = Interval::new(start, len);

    let sub = edit::substring(&rope, MediaSel::Both, iv).unwrap();
    sub.check_invariants().unwrap();
    prop_assert!(sub.strand_ids().is_subset(&rope.strand_ids()));

    let cut = edit::delete(&rope, MediaSel::Both, iv).unwrap();
    cut.check_invariants().unwrap();
    // substring + remainder conserve total duration to unit rounding.
    let total = sub.duration() + cut.duration();
    let delta = total.as_nanos() as i128 - dur.as_nanos() as i128;
    prop_assert!(delta.abs() <= 67_000_000, "off by {delta} ns");

    // Re-inserting the substring at the cut point restores duration.
    let restored = edit::insert(
        &cut,
        start,
        MediaSel::Both,
        &sub,
        Interval::whole(sub.duration()),
    )
    .unwrap();
    restored.check_invariants().unwrap();
    let delta2 = restored.duration().as_nanos() as i128 - dur.as_nanos() as i128;
    prop_assert!(delta2.abs() <= 134_000_000, "off by {delta2} ns");
    Ok(())
}

#[test]
fn multi_segment_edits_hold_invariants() {
    check(
        "multi_segment_edits_hold_invariants",
        (prop_vec(30u64..600, 2..5), 0u64..80, 5u64..20),
        |(seg_frames, cut_start_pct, cut_len_pct)| {
            multi_segment_property(seg_frames, *cut_start_pct, *cut_len_pct)
        },
    );
}

/// Pinned regression (formerly `tests/proptests.proptest-regressions`):
/// a three-segment cut landing on a segment boundary once double-counted
/// the boundary unit. Shrunk input preserved verbatim.
#[test]
fn multi_segment_regression_boundary_cut() {
    multi_segment_property(&[107, 74, 73], 8, 6).unwrap();
}

#[test]
fn single_medium_delete_preserves_duration_multi() {
    check(
        "single_medium_delete_preserves_duration_multi",
        (prop_vec(60u64..300, 2..4), 0u64..70, 5u64..25),
        |(seg_frames, start_pct, len_pct)| {
            let rope = multi_rope(seg_frames);
            let dur = rope.duration();
            let iv = Interval::new(
                Nanos::from_nanos(dur.as_nanos() * start_pct / 100),
                Nanos::from_nanos(dur.as_nanos() * len_pct / 100),
            );
            let out = edit::delete(&rope, MediaSel::Audio, iv).unwrap();
            out.check_invariants().unwrap();
            prop_assert_eq!(out.duration(), dur, "blanking must not change length");
            // Video track untouched: same total video units.
            let vu = |r: &Rope| -> u64 {
                r.segments
                    .iter()
                    .filter_map(|s| s.video.map(|v| v.len_units))
                    .sum()
            };
            prop_assert_eq!(vu(&out), vu(&rope));
            Ok(())
        },
    );
}

// ---------- allocator constraints ----------

#[test]
fn constrained_allocator_always_honours_bounds() {
    check_with(
        &Config::with_cases(64),
        "constrained_allocator_always_honours_bounds",
        (0u64..128, 1u64..512, 1u64..48, 1usize..200, 0u64..1_000),
        |&(min_gap, extra, block, blocks, seed)| {
            let max_gap = min_gap + extra;
            let bounds = GapBounds {
                min_sectors: min_gap,
                max_sectors: max_gap,
            };
            let mut a = Allocator::new(
                1 << 20,
                AllocPolicy::Constrained {
                    bounds,
                    allow_wrap: false,
                },
                seed,
            );
            let mut prev = a.allocate_first(block).unwrap();
            for _ in 1..blocks {
                match a.allocate_after(prev, block) {
                    Ok(next) => {
                        let gap = next.start - prev.end();
                        prop_assert!(
                            bounds.admits(gap),
                            "gap {gap} outside [{min_gap},{max_gap}]"
                        );
                        prev = next;
                    }
                    Err(_) => break, // ran off the device without wrap: fine
                }
            }
            Ok(())
        },
    );
}

#[test]
fn freed_space_is_reusable() {
    check(
        "freed_space_is_reusable",
        (1usize..100, 1u64..32, 0u64..1_000),
        |&(blocks, block, seed)| {
            let mut a = Allocator::new(1 << 16, AllocPolicy::Random, seed);
            let mut held = Vec::new();
            for _ in 0..blocks {
                match a.allocate_anywhere(block) {
                    Ok(e) => held.push(e),
                    Err(_) => break,
                }
            }
            let used = a.freemap().used();
            prop_assert_eq!(used, held.len() as u64 * block);
            for e in held {
                a.release(e);
            }
            prop_assert_eq!(a.freemap().used(), 0);
            Ok(())
        },
    );
}

// ---------- admission monotonicity ----------

#[test]
fn admission_k_and_nmax_behave() {
    check(
        "admission_k_and_nmax_behave",
        (1.0f64..100.0, 0.05f64..1.0, 1u64..32, 8u64..2_000),
        |&(l_seek_ms, l_avg_frac, q, frame_kbit)| {
            let env = ServiceEnv {
                r_dt: BitRate::mbit_per_sec(60.0),
                l_seek_max: Seconds::from_millis(l_seek_ms),
                l_ds_avg: Seconds::from_millis(l_seek_ms * l_avg_frac),
            };
            let spec = RequestSpec {
                q,
                unit_bits: Bits::new(frame_kbit * 1_000),
                unit_rate: 30.0,
            };
            let agg = Aggregates::compute(&env, &[spec]).unwrap();
            let n_max = agg.n_max();
            // Feasibility boundary is exactly n_max.
            if n_max > 0 {
                prop_assert!(agg.k_transient(n_max).is_some());
            }
            prop_assert!(agg.k_transient(n_max + 1).is_none());
            // k is monotone and Eq.18 dominates Eq.16.
            let mut prev = 0u64;
            for n in 1..=n_max.min(20) {
                let ks = agg.k_steady(n).unwrap();
                let kt = agg.k_transient(n).unwrap();
                prop_assert!(kt >= ks);
                prop_assert!(kt >= prev);
                prev = kt;
                // And the feasibility predicates agree with the formulas.
                prop_assert!(agg.steady_feasible(n, ks));
                prop_assert!(agg.transient_feasible(n, kt));
            }
            Ok(())
        },
    );
}

// ---------- checksum and sector store ----------

/// `(zeros, len, seed)` pieces: a zero run or `len` patterned bytes.
fn piece_bytes(&(zeros, len, seed): &(bool, usize, u8)) -> Vec<u8> {
    if zeros {
        vec![0; len]
    } else {
        (0..len)
            .map(|i| seed.wrapping_add((i as u8).wrapping_mul(67)))
            .collect()
    }
}

#[test]
fn checksum_is_split_invariant() {
    check(
        "checksum_is_split_invariant",
        prop_vec((any_bool(), 0usize..90, 0u8..=255), 0..10),
        |pieces| {
            let mut h = Checksum::new();
            let mut whole = Vec::new();
            for p in pieces {
                let bytes = piece_bytes(p);
                if p.0 {
                    h.write_zeros(bytes.len());
                } else {
                    h.write(&bytes);
                }
                whole.extend(bytes);
            }
            prop_assert_eq!(h.finish(), fnv1a(&whole));
            Ok(())
        },
    );
}

#[test]
fn checksum_detects_bit_flips_and_sector_swaps() {
    check(
        "checksum_detects_bit_flips_and_sector_swaps",
        (0u8..=255, 0usize..2 * 512 * 8, 0usize..2 * 512 * 8),
        |&(seed, bit, other)| {
            // Two distinct sectors, so that swapping them changes the bytes.
            let mut block = piece_bytes(&(false, 512, seed));
            block.extend(piece_bytes(&(false, 512, seed.wrapping_add(1))));
            let clean = fnv1a(&block);
            let mut flipped = block.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(fnv1a(&flipped) != clean);
            if other != bit {
                flipped[other / 8] ^= 1 << (other % 8);
                prop_assert!(fnv1a(&flipped) != clean);
            }
            let mut swapped = block[512..].to_vec();
            swapped.extend_from_slice(&block[..512]);
            prop_assert!(fnv1a(&swapped) != clean);
            Ok(())
        },
    );
}

/// The per-sector reference the run store is checked against.
fn model_bytes(model: &BTreeMap<u64, Vec<u8>>, e: Extent) -> Vec<u8> {
    (e.start..e.end())
        .flat_map(|lba| model.get(&lba).cloned().unwrap_or(vec![0; 512]))
        .collect()
}

#[test]
fn sector_runs_match_a_per_sector_model() {
    // `(kind, start, sectors, short, fill)`: kind 0 stores anywhere
    // (gaps, straddles), 1 stores inside the previous store's extent,
    // 2 discards, 3 stores and times the write — torn inside [96, 112).
    check(
        "sector_runs_match_a_per_sector_model",
        prop_vec((0u8..4, 0u64..120, 1u64..9, 0usize..512, 0u8..=255), 1..40),
        |ops| {
            let torn = Extent::new(96, 16);
            let disk = SimDisk::new(DiskGeometry::tiny_test(), SeekModel::vintage_1991());
            let mut dev = FaultInjector::new(disk, FaultPlan::clean().with_torn_extent(torn), 1);
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let mut last = Extent::new(0, 8);
            let mut t = Instant::EPOCH;
            for &(kind, start, sectors, short, fill) in ops {
                let e = if kind == 1 {
                    let off = start % last.sectors;
                    Extent::new(last.start + off, 1 + sectors % (last.sectors - off))
                } else {
                    Extent::new(start, sectors)
                };
                if kind == 2 {
                    dev.discard_data(e);
                    for lba in e.start..e.end() {
                        model.remove(&lba);
                    }
                } else {
                    let len = (e.sectors as usize * 512 - short).max(1);
                    let data = piece_bytes(&(false, len, fill));
                    let had = model.range(e.start..e.end()).count();
                    let before = dev.sectors_written();
                    dev.store_data(e, &data);
                    let mut padded = data.clone();
                    padded.resize(e.sectors as usize * 512, 0);
                    for (lba, s) in (e.start..).zip(padded.chunks(512)) {
                        model.insert(lba, s.to_vec());
                    }
                    if kind == 3 {
                        match dev.access(t, e, AccessKind::Write) {
                            Ok(op) => t = op.completed,
                            Err(f) => {
                                t = f.op.completed;
                                let kept = (dev.sectors_written() + had - before) as u64;
                                prop_assert!(kept < e.sectors);
                                for lba in e.start + kept..e.end() {
                                    model.remove(&lba);
                                }
                            }
                        }
                    }
                    last = e;
                }
                for x in [e, Extent::new(0, 128)] {
                    prop_assert_eq!(dev.try_fetch(x), Some(model_bytes(&model, x)));
                    prop_assert_eq!(dev.fetch_sum(x), Some(fnv1a(&model_bytes(&model, x))));
                }
                prop_assert_eq!(dev.sectors_written(), model.len());
                let mut h = Checksum::new();
                for (lba, s) in &model {
                    h.write(&lba.to_le_bytes());
                    h.write(s);
                }
                prop_assert_eq!(dev.content_hash(), h.finish());
            }
            Ok(())
        },
    );
}
