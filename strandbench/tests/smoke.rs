//! Smoke tests: every workload at reduced size passes its checks and
//! reports exactly the metrics `BENCHMARK.json` lists; fingerprints
//! repeat per seed; and corrupted output makes the checkers fail.

use strandbench::common::Outcome;
use strandbench::ledger::PER_LAYER;
use strandbench::trace::Spans;
use strandbench::{ingest, vod_cluster, vod_volume};
use strandfs_core::mrs::Mrs;
use strandfs_core::msm::Msm;
use strandfs_disk::{DiskGeometry, FaultInjector, FaultPlan, SeekModel, SimDisk};

const SECS: f64 = 0.01;

/// The `name` values of one top-level section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_end_to_end(o: &Outcome) {
    assert_eq!(names(o), listed("end_to_end"));
    for m in &o.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    assert!(o.attempted > 0);
    assert_eq!(o.failed, 0);
    o.result_line().expect("a printable result line");
}

#[test]
fn ingest_passes_its_checks() {
    assert_end_to_end(&ingest::run(&ingest::Config::SMOKE, 3, SECS).expect("ingest"));
}

#[test]
fn vod_volume_passes_its_checks() {
    assert_end_to_end(&vod_volume::run(&vod_volume::Config::SMOKE, 3, SECS).expect("vod_volume"));
}

#[test]
fn vod_cluster_passes_its_checks() {
    assert_end_to_end(
        &vod_cluster::run(&vod_cluster::Config::SMOKE, 3, SECS).expect("vod_cluster"),
    );
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let catalog: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(catalog, listed("per_layer"));
    let runs = [
        ingest::run_traced(&ingest::Config::SMOKE, 4, SECS, &mut Spans::on(10_000)),
        vod_volume::run_traced(&vod_volume::Config::SMOKE, 4, SECS, &mut Spans::on(10_000)),
        vod_cluster::run_traced(&vod_cluster::Config::SMOKE, 4, SECS, &mut Spans::on(10_000)),
    ];
    for r in runs {
        let o = r.expect("traced run");
        assert_eq!(names(&o), catalog);
        assert!(o.metrics.iter().all(|m| m.value.is_finite()));
        let wall = o
            .metrics
            .iter()
            .find(|m| m.name == "ledger.wall_ms")
            .expect("wall");
        assert!(wall.value > 0.0);
    }
}

#[test]
fn fingerprints_repeat_per_seed_and_differ_across_seeds() {
    let fp = |w: usize, seed: u64| -> u64 {
        let o = match w {
            0 => ingest::run(&ingest::Config::SMOKE, seed, SECS),
            1 => vod_volume::run(&vod_volume::Config::SMOKE, seed, SECS),
            _ => vod_cluster::run(&vod_cluster::Config::SMOKE, seed, SECS),
        };
        o.expect("run").fingerprint
    };
    for w in 0..3 {
        assert_eq!(fp(w, 5), fp(w, 5), "workload {w} repeats");
        assert_ne!(fp(w, 5), fp(w, 6), "workload {w} follows the seed");
    }
}

#[test]
fn a_corrupted_block_fails_the_ingest_check() {
    let cfg = ingest::Config::SMOKE;
    let lib = ingest::generate(&cfg, 9);
    let disk = SimDisk::new(DiskGeometry::projected_fast(), SeekModel::projected_fast());
    let injector = FaultInjector::new(disk, FaultPlan::clean(), 9);
    let mut mrs = Mrs::new(Msm::new(injector, ingest::volume_config(&lib, 9)));
    let (ropes, end) = ingest::record(&mut mrs, &lib).expect("record");
    ingest::verify(&mut mrs, &lib, &ropes, &cfg, 9, end).expect("a clean volume verifies");

    let strand = mrs.rope(ropes[0]).expect("rope").segments[0]
        .video
        .expect("video")
        .strand;
    let (_, extent) = mrs
        .msm()
        .strand(strand)
        .expect("strand")
        .stored_iter()
        .nth(1)
        .expect("block");
    assert!(mrs
        .msm_mut()
        .arm_faults(FaultPlan::clean().with_silent_corruption(extent)));
    assert_eq!(mrs.msm().disk().fault_stats().corrupted, 1);
    let err = ingest::verify(&mut mrs, &lib, &ropes, &cfg, 9, end).expect_err("the rot is caught");
    assert!(err.contains("stamp check"), "{err}");
}

#[test]
fn a_tampered_cluster_report_fails_the_cluster_check() {
    let cfg = vod_cluster::Config::SMOKE;
    let mut lib = vod_cluster::setup(&cfg, 2, &mut Default::default()).expect("setup");
    let viewers = vod_cluster::plan(&lib, 2, 0, 2).expect("plan");
    let served = vod_cluster::session(
        &mut lib,
        &viewers,
        &vod_cluster::Sink::Monitor,
        &mut Default::default(),
        &mut Spans::off(),
    )
    .expect("a healthy session passes");
    let expect: Vec<u64> = served
        .report
        .sim
        .streams
        .iter()
        .map(|s| s.fetched)
        .collect();
    vod_cluster::check(&served.report, &expect, 0).expect("untampered report passes");

    let mut late = served.report.clone();
    late.sim.streams[0].violations = 1;
    assert!(vod_cluster::check(&late, &expect, 0).is_err());
    let mut rotten = served.report.clone();
    rotten.corrupt_served = 1;
    assert!(vod_cluster::check(&rotten, &expect, 0).is_err());
    let mut short = served.report.clone();
    short.sim.streams[1].fetched -= 1;
    assert!(vod_cluster::check(&short, &expect, 0).is_err());
    assert!(
        vod_cluster::check(&served.report, &expect, 1).is_err(),
        "an alert fails"
    );
}

#[test]
fn one_play_beyond_n_max_is_refused() {
    let lib =
        vod_volume::setup(&vod_volume::Config::SMOKE, 1, &mut Default::default()).expect("setup");
    let mut mrs = lib.mrs;
    let n = vod_volume::n_max(&mrs);
    vod_volume::check_refusal(&mut mrs, &lib.ropes, n).expect("n_max admitted, one more refused");
    assert!(vod_volume::check_refusal(&mut mrs, &lib.ropes, n + 1).is_err());
}

#[test]
fn wall_clock_metrics_are_stated_at_reference_speed() {
    use strandbench::common::{RefOp, Reference, Samples};
    let mut o = Outcome::default();
    o.push_rate_at("rate", 300.0, "1/s", 2.0);
    o.push_time_at("time", 3.0, "s", 2.0);
    let mut s = Samples::default();
    for v in [1.0, 2.0, 3.0] {
        s.push(v);
    }
    o.push_median_at("lat", &s, "us", 2.0);
    assert_eq!(o.get("rate"), Some(150.0));
    assert_eq!(o.get("time"), Some(6.0));
    assert_eq!(o.get("lat.p50"), Some(4.0));
    let mut r = Reference::default();
    assert_eq!(r.speed(RefOp::Sort), 1.0, "no operation ran yet");
    r.op(RefOp::Sort);
    r.op(RefOp::Hash);
    for op in [RefOp::Sort, RefOp::Hash] {
        let v = r.speed(op);
        assert!(v.is_finite() && v > 0.0, "{op:?} speed {v}");
    }
}

#[test]
fn the_trace_flag_takes_only_0_or_1() {
    for bad in ["2", "true", ""] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_strandbench"))
            .args(["--workload", "ingest", "--seed", "1", "--seconds", "1"])
            .args(["--trace", bad])
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "--trace {bad:?}");
        assert!(out.stdout.is_empty(), "--trace {bad:?} printed a result");
    }
}
