//! Golden-trace regression harness: a small contended run of every
//! concurrency control algorithm (plus one blocking run with the non-default
//! knobs switched on) is serialized to a stable text form and compared
//! line-by-line against the checked-in files in `tests/golden/`. Any change
//! to engine scheduling, conflict resolution, or seeding shows up here as a
//! readable diff instead of a silent drift in summary statistics.
//!
//! To bless an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then review the trace diffs like any other code change.

use std::path::PathBuf;

use ccsim_audit::golden::{check_or_update, serialize_trace};
use ccsim_core::{
    run_with_trace, CcAlgorithm, Confidence, MetricsConfig, Params, SimConfig, VictimPolicy,
};
use ccsim_des::SimDuration;

/// The fixed scenario behind every golden file: a dozen terminals hammering
/// a 50-page database with half the accesses writing, so all three
/// algorithms block/restart/validate within a 5-second horizon — short
/// enough that the full event stream fits in a reviewable text file.
fn golden_config(algo: CcAlgorithm) -> SimConfig {
    let mut params = Params::paper_baseline();
    params.db_size = 50;
    params.min_size = 2;
    params.max_size = 6;
    params.write_prob = 0.5;
    params.num_terms = 12;
    params.mpl = 4;
    params.ext_think_time = SimDuration::from_secs(1);
    SimConfig::new(algo)
        .with_params(params)
        .with_metrics(MetricsConfig {
            warmup_batches: 0,
            batches: 1,
            batch_time: SimDuration::from_secs(5),
            confidence: Confidence::Ninety,
        })
        .with_seed(0x601D)
}

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.trace"))
}

/// Every algorithm, the deliberately unsafe `NoCc` baseline included.
fn tracked_algorithms() -> impl Iterator<Item = CcAlgorithm> {
    CcAlgorithm::ALL
        .into_iter()
        .chain(std::iter::once(CcAlgorithm::NoCc))
}

/// Blocking with every knob off its default: a CPU charge per
/// concurrency-control request (the high-priority CPU class), the Fig. 11
/// restart delay applied to deadlock victims, and the fewest-locks victim.
fn blocking_knobs_config() -> SimConfig {
    let mut cfg = golden_config(CcAlgorithm::Blocking);
    cfg.params.cc_cpu = SimDuration::from_millis(2);
    cfg.restart_delay_for_all = true;
    cfg.victim = VictimPolicy::FewestLocks;
    cfg
}

/// Every golden scenario: `(file label, configuration)`.
fn golden_cases() -> Vec<(&'static str, SimConfig)> {
    tracked_algorithms()
        .map(|algo| (algo.label(), golden_config(algo)))
        .chain(std::iter::once(("blocking-knobs", blocking_knobs_config())))
        .collect()
}

#[test]
fn paper_trio_traces_match_golden_files() {
    for (label, cfg) in golden_cases() {
        let (report, trace) = run_with_trace(cfg.clone(), 1_000_000).unwrap();
        assert_eq!(trace.dropped(), 0, "{label} golden trace overflowed");
        assert!(!trace.is_empty(), "{label} golden run recorded nothing");
        let text = serialize_trace(&cfg, &trace, &report);
        if let Err(msg) = check_or_update(&golden_path(label), &text) {
            panic!("{label}: {msg}");
        }
    }
}

#[test]
fn golden_traces_match_with_elision_forced_off() {
    // The uncontended fast path is a pure cost optimization: with it
    // forced off, the very same checked-in golden files must still match
    // byte-for-byte (never UPDATE_GOLDEN through this test — it checks
    // against the files the elided runs produce).
    for (label, cfg) in golden_cases() {
        let cfg = cfg.with_elision(false);
        let (report, trace) = run_with_trace(cfg.clone(), 1_000_000).unwrap();
        let text = serialize_trace(&cfg, &trace, &report);
        let expected = std::fs::read_to_string(golden_path(label))
            .expect("golden file exists (run the elided test first)");
        assert_eq!(
            text, expected,
            "{label}: disabling elision changed the golden trace"
        );
    }
}

#[test]
fn golden_serialization_is_bit_stable() {
    // Two fresh runs of the same scenario must serialize byte-identically —
    // the property that lets the files above act as regression anchors.
    let cfg = golden_config(CcAlgorithm::Blocking);
    let (ra, ta) = run_with_trace(cfg.clone(), 1_000_000).unwrap();
    let (rb, tb) = run_with_trace(cfg.clone(), 1_000_000).unwrap();
    assert_eq!(
        serialize_trace(&cfg, &ta, &ra),
        serialize_trace(&cfg, &tb, &rb)
    );
}
