//! Self-test of the benchmark's own accounting on a tiny configuration:
//! the counting sink agrees with the engine's report, the calendar
//! counters add up to what the traced run attributes, the replays
//! reproduce the recorded outcomes, and the layer shares fit in the loop.

use std::time::Duration;

use ccbench::layers::{replay_locks, traced_points, LANE_TOLERANCE, SHARE_TOLERANCE};
use ccbench::sim::{run_point, Point, SIX};
use ccbench::sink::counting_sink;
use ccbench::util::Clock;
use ccbench::Outcome;
use ccsim_core::{CcAlgorithm, MetricsConfig, Params, ResourceSpec, SimConfig, Simulator};
use ccsim_des::SimDuration;

fn tiny(algo: CcAlgorithm, resources: ResourceSpec) -> Point {
    let mut params = Params::paper_baseline().with_resources(resources);
    params.db_size = 200;
    params.num_terms = 30;
    params.mpl = 15;
    let mut m = MetricsConfig::quick();
    m.warmup_batches = 0;
    m.batches = 3;
    m.batch_time = SimDuration::from_secs(20);
    Point {
        algo,
        cfg: SimConfig::new(algo)
            .with_params(params)
            .with_metrics(m)
            .with_seed(11)
            .with_workers(1),
        ceiling: false,
    }
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn sink_counts_equal_the_report() {
    for algo in SIX {
        for res in [ResourceSpec::Infinite, ResourceSpec::ONE_CPU_TWO_DISKS] {
            let p = tiny(algo, res);
            let (sink, handle) = counting_sink(false);
            let mut sim = Simulator::new(p.cfg.clone()).expect("valid tiny config");
            sim.add_sink(Box::new(sink));
            let report = sim.run_to_completion().expect("tiny run completes");
            let c = handle.take();
            assert!(report.commits > 0, "{algo}: no commits");
            assert_eq!(c.commit, report.commits, "{algo}: commits");
            assert_eq!(c.restart, report.restarts, "{algo}: restarts");
        }
    }
}

#[test]
fn calendar_counters_add_up() {
    for algo in SIX {
        let s = run_point(&tiny(algo, ResourceSpec::ONE_CPU_TWO_DISKS)).expect("tiny run");
        let cal = s.outcome.perf.calendar;
        assert_eq!(cal.pops, s.events, "{algo}: one pop per handled event");
        assert_eq!(cal.lane_pops + cal.heap_pops, cal.pops, "{algo}: pop split");
        assert_eq!(
            cal.lane_schedules + cal.heap_schedules,
            cal.schedules,
            "{algo}: schedule split"
        );
        let again = run_point(&tiny(algo, ResourceSpec::ONE_CPU_TWO_DISKS)).expect("rerun");
        assert_eq!(s.digest, again.digest, "{algo}: digest is deterministic");
    }
}

#[test]
fn lock_replay_reproduces_the_recorded_outcomes() {
    let clock = Clock::calibrate();
    for algo in [CcAlgorithm::Blocking, CcAlgorithm::ImmediateRestart] {
        let p = tiny(algo, ResourceSpec::Infinite);
        let (sink, handle) = counting_sink(true);
        let mut sim = Simulator::new(p.cfg.clone()).expect("valid tiny config");
        sim.add_sink(Box::new(sink));
        sim.run_to_completion().expect("tiny run completes");
        let c = handle.take();
        if algo == CcAlgorithm::Blocking {
            assert!(
                c.block > 0 && c.deadlock > 0,
                "tiny blocking run is contended"
            );
        }
        let r = replay_locks(&c.lock_ops, &p.cfg.params, &clock);
        assert_eq!(r.mismatches, 0, "{algo}: replay diverged");
        assert_eq!(r.request.calls, c.acquire + c.block, "{algo}: requests");
        assert_eq!(r.release_all.calls, c.locks_released, "{algo}: releases");
    }
}

#[test]
fn traced_run_attributes_exactly_and_shares_fit() {
    for res in [ResourceSpec::Infinite, ResourceSpec::ONE_CPU_TWO_DISKS] {
        let points: Vec<Point> = SIX.iter().map(|&a| tiny(a, res)).collect();
        let out = traced_points("tiny", &points, 11, Duration::from_millis(200))
            .expect("tiny traced run");
        assert_eq!(out.failed, 0, "replays must match: {:?}", out.errors);
        for m in &out.metrics {
            assert!(
                ccbench::PER_LAYER.contains(&(m.name.as_str(), m.unit)),
                "{} ({}) is not a per-layer metric of the manifest",
                m.name,
                m.unit
            );
        }
        let (mut ops, mut schedules, mut lane) = (0u64, 0u64, 0u64);
        for p in &points {
            let cal = run_point(p).expect("tiny run").outcome.perf.calendar;
            ops += cal.schedules + cal.pops;
            schedules += cal.schedules;
            lane += cal.lane_schedules;
        }
        assert_eq!(metric(&out, "calendar.ops"), ops as f64);
        let engine_lane = lane as f64 / schedules as f64;
        let replay_lane = metric(&out, "calendar.replay_lane_frac");
        assert!(
            (replay_lane - engine_lane).abs() <= LANE_TOLERANCE,
            "replay lane share {replay_lane} against the engine's {engine_lane}"
        );
        let mut shares = 0.0;
        for m in out.metrics.iter().filter(|m| m.name.ends_with(".share")) {
            assert!(m.value >= 0.0, "{} is negative", m.name);
            shares += m.value;
        }
        assert!(
            shares <= 1.0 + SHARE_TOLERANCE,
            "layer shares sum to {shares}"
        );
        let residual = metric(&out, "engine.residual_frac");
        assert!((residual - (1.0 - shares)).abs() < 1e-9);
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let out = Outcome {
        attempted: 3,
        failed: 0,
        metrics: vec![ccbench::Metric::new("setup_s", 0.5, "s")],
        errors: Vec::new(),
    };
    let line = out.result_line();
    assert_eq!(
        line,
        "{\"correct\":true,\"attempted\":3,\"failed\":0,\
         \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
    );
}

#[test]
fn resubmits_to_a_daemon_without_cache_entries_fail_and_return() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ccsim_serve::ServerConfig::new(&dir);
    cfg.threads = 1;
    let handle = ccsim_serve::start(cfg).expect("daemon starts");
    let specs = vec![ccsim_serve::JobSpec::quick("exp3")];
    // The daemon has never run the spec, so it answers with a cold,
    // uncached sweep: the resubmit fails and the phase ends at once.
    let mut out = Outcome::default();
    let r = ccbench::serve::resubmit(
        handle.addr(),
        &specs,
        &[None],
        Duration::from_secs(60),
        None,
        &mut out,
    )
    .expect("no daemon start is timed");
    handle.drain();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.failed > 0, "the uncached answer must count as failed");
    assert_eq!(out.attempted, 1, "the first failure ends the phase");
    assert!(r.hits.is_empty());
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn manifest_metrics(section: &str) -> Vec<(String, String)> {
    use ccsim_experiments::json::{parse, Value};
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(manifest_metrics("end_to_end"), own(&ccbench::END_TO_END));
    assert_eq!(manifest_metrics("per_layer"), own(&ccbench::PER_LAYER));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    // Blocking alone on infinite resources leaves the validators and the
    // pools unexercised: their metrics read 0, in the manifest's units.
    let points = vec![tiny(CcAlgorithm::Blocking, ResourceSpec::Infinite)];
    let mut out =
        traced_points("tiny", &points, 11, Duration::from_millis(100)).expect("tiny traced run");
    out.fill_absent(&ccbench::PER_LAYER);
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, ccbench::PER_LAYER.to_vec());
    assert!(metric(&out, "lockmgr.requests") > 0.0);
    assert_eq!(metric(&out, "occ.validate_ns"), 0.0);
    assert_eq!(metric(&out, "engine.events_per_sec.tictoc"), 0.0);
}

#[test]
fn an_unmeasured_end_to_end_metric_fails_the_run() {
    let mut out = Outcome {
        attempted: 1,
        metrics: vec![ccbench::Metric::new("setup_s", 0.5, "s")],
        ..Outcome::default()
    };
    out.require(&ccbench::END_TO_END);
    assert_eq!(out.failed as usize, ccbench::END_TO_END.len() - 1);
    assert!(out.result_line().starts_with("{\"correct\":false"));
}
