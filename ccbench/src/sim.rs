//! The three simulation workloads and their untraced measurement: set-up
//! time, host-time event and commit rates, and the output digests that
//! check every run against the other runs of the same configuration.

use std::time::{Duration, Instant};

use ccsim_core::{
    BudgetKind, CcAlgorithm, MetricsConfig, Params, Report, ResourceSpec, RunBudget, RunError,
    RunOutcome, SimConfig, Simulator,
};
use ccsim_des::SimDuration;

use crate::sink::{counting_sink, Counts};
use crate::util::{fault_ref_s, fnv1a, median, HostRef, NOMINAL_REF_RATE};

/// The six main protocols, in the order every multi-protocol workload
/// runs them.
pub const SIX: [CcAlgorithm; 6] = [
    CcAlgorithm::Blocking,
    CcAlgorithm::ImmediateRestart,
    CcAlgorithm::Optimistic,
    CcAlgorithm::MvccSi,
    CcAlgorithm::SiloOcc,
    CcAlgorithm::TicToc,
];

/// Event ceiling of one `exp-scale` run: the run is stopped there, by
/// design, after a few seconds of host time, once the lock table holds
/// its steady ~6.5×10^5 locks.
pub const SCALE_EVENTS: u64 = 3_000_000;

/// A simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// exp1 low-conflict reference point: db 10 000, mpl 50, 1 CPU / 2 disks.
    Paper1x2,
    /// exp2 high-conflict point: db 1 000, infinite resources, mpl 200.
    ContentionInf,
    /// The million-scale closed network, stopped by an event ceiling.
    ExpScale,
}

/// One configuration a workload runs.
#[derive(Debug, Clone)]
pub struct Point {
    pub algo: CcAlgorithm,
    pub cfg: SimConfig,
    /// True when the event ceiling, not the horizon, is meant to end the
    /// run (`exp-scale`).
    pub ceiling: bool,
}

impl SimWorkload {
    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<SimWorkload> {
        match name {
            "paper-1x2" => Some(SimWorkload::Paper1x2),
            "contention-inf" => Some(SimWorkload::ContentionInf),
            "exp-scale" => Some(SimWorkload::ExpScale),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Paper1x2 => "paper-1x2",
            SimWorkload::ContentionInf => "contention-inf",
            SimWorkload::ExpScale => "exp-scale",
        }
    }

    /// The workload's configurations, all driven by `seed`. Simulations
    /// run on one thread (`workers` = 1).
    #[must_use]
    pub fn points(self, seed: u64) -> Vec<Point> {
        let (params, metrics, algos, budget): (Params, MetricsConfig, &[CcAlgorithm], _) =
            match self {
                SimWorkload::Paper1x2 => {
                    let mut p = Params::low_conflict();
                    p.mpl = 50;
                    (p, horizon(8, 150), &SIX, RunBudget::default())
                }
                SimWorkload::ContentionInf => {
                    let mut p = Params::paper_baseline().with_resources(ResourceSpec::Infinite);
                    p.mpl = 200;
                    (p, horizon(8, 5), &SIX, RunBudget::default())
                }
                SimWorkload::ExpScale => {
                    // The ceiling, not the horizon, ends the run; short
                    // batches let the stopped run still carry its counts.
                    let mut m = horizon(400, 1);
                    m.batch_time = SimDuration::from_millis(250);
                    (
                        Params::exp_scale(),
                        m,
                        &[CcAlgorithm::Blocking],
                        RunBudget::unlimited().with_max_events(SCALE_EVENTS),
                    )
                }
            };
        algos
            .iter()
            .map(|&algo| Point {
                algo,
                cfg: SimConfig::new(algo)
                    .with_params(params.clone())
                    .with_metrics(metrics)
                    .with_seed(seed)
                    .with_budget(budget)
                    .with_workers(1),
                ceiling: self == SimWorkload::ExpScale,
            })
            .collect()
    }

    /// How many set-ups one run measures.
    #[must_use]
    pub fn setup_reps(self) -> usize {
        match self {
            SimWorkload::ExpScale => 7,
            _ => 21,
        }
    }
}

/// A fixed simulated horizon without warmup, so the report's counts cover
/// every commit the loop made.
fn horizon(batches: u32, batch_secs: u64) -> MetricsConfig {
    let mut m = MetricsConfig::quick();
    m.warmup_batches = 0;
    m.batches = batches;
    m.batch_time = SimDuration::from_secs(batch_secs);
    m
}

/// Why a run counts as failed: an error other than the intended event
/// ceiling.
#[must_use]
pub fn unexpected_stop(p: &Point, stopped: Option<&RunError>) -> Option<String> {
    match stopped {
        None => None,
        Some(RunError::BudgetExhausted {
            exceeded: BudgetKind::Events,
            ..
        }) if p.ceiling => None,
        Some(e) => Some(format!("{}: {e}", p.algo.label())),
    }
}

/// Digest of a run's observable output: its report and its event count.
#[must_use]
pub fn digest(report: &Report, events: u64) -> u64 {
    fnv1a(format!("{report:?}|events={events}").as_bytes())
}

/// Host time from configuration to first event: `Simulator::new` plus
/// the initial arrivals (measured as the loop wall of a run stopped
/// after its first event).
///
/// # Errors
/// Returns a description if the configuration is rejected.
pub fn setup_once(p: &Point) -> Result<Duration, String> {
    let cfg = p
        .cfg
        .clone()
        .with_budget(RunBudget::unlimited().with_max_events(1));
    let t0 = Instant::now();
    let sim = Simulator::new(cfg).map_err(|e| format!("{}: {e}", p.algo.label()))?;
    let built = t0.elapsed();
    let out = sim.run_collecting();
    Ok(built + out.perf.wall)
}

/// Summed set-up time of every point, seconds.
fn setup_sum(points: &[Point]) -> Result<f64, String> {
    let mut sum = Duration::ZERO;
    for p in points {
        sum += setup_once(p)?;
    }
    Ok(sum.as_secs_f64())
}

/// Nominal host time of [`fault_ref_s`], that page-fault-bound set-up is
/// scaled to.
pub const NOMINAL_FAULT_S: f64 = 0.01;

/// Median over `reps` of the set-up time scaled to a nominal host: each
/// set-up is multiplied by `NOMINAL_FAULT_S` over the page-fault
/// reference timed just before it. Set-up is mostly fresh memory being
/// faulted in (all of it at million scale, the allocator's returned heap
/// at the small points), whose cost on a shared host more than doubled
/// between minutes while the CPU-bound reference loop barely moved.
/// Returns the scaled and the raw median.
///
/// # Errors
/// Propagates configuration errors.
pub fn measure_setup_scaled(points: &[Point], reps: usize) -> Result<(f64, f64), String> {
    let (mut scaled, mut raw) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let host = fault_ref_s() / NOMINAL_FAULT_S;
        let t = setup_sum(points)?;
        raw.push(t);
        scaled.push(t / host);
    }
    Ok((median(&scaled), median(&raw)))
}

/// One run of one point, as the untraced loop sees it.
pub struct RunSample {
    pub events: u64,
    pub commits: u64,
    /// Event-loop wall.
    pub wall: Duration,
    /// Configuration to report: `Simulator::new` plus the run.
    pub total: Duration,
    pub digest: u64,
    pub outcome: RunOutcome,
}

/// Run one point untraced.
///
/// # Errors
/// Returns a description for an invalid configuration or an unexpected
/// budget stop.
pub fn run_point(p: &Point) -> Result<RunSample, String> {
    let t0 = Instant::now();
    let outcome = Simulator::new(p.cfg.clone())
        .map_err(|e| format!("{}: {e}", p.algo.label()))?
        .run_collecting();
    let total = t0.elapsed();
    if let Some(why) = unexpected_stop(p, outcome.stopped.as_ref()) {
        return Err(why);
    }
    Ok(RunSample {
        events: outcome.perf.events,
        commits: outcome.report.commits,
        wall: outcome.perf.wall,
        total,
        digest: digest(&outcome.report, outcome.perf.events),
        outcome,
    })
}

/// Run one point with a counting sink attached (and, with
/// `record_locks`, the lock op stream recorded).
///
/// # Errors
/// As [`run_point`].
pub fn run_counted(p: &Point, record_locks: bool) -> Result<(RunOutcome, Counts), String> {
    let (sink, handle) = counting_sink(record_locks);
    let mut sim = Simulator::new(p.cfg.clone()).map_err(|e| format!("{}: {e}", p.algo.label()))?;
    sim.add_sink(Box::new(sink));
    let outcome = sim.run_collecting();
    if let Some(why) = unexpected_stop(p, outcome.stopped.as_ref()) {
        return Err(why);
    }
    Ok((outcome, handle.take()))
}

/// What the untraced loop measured over all its passes.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per pass: summed events over summed loop wall, scaled to the
    /// nominal host speed (see [`HostRef`]).
    pub pass_events_per_sec: Vec<f64>,
    /// Per pass: summed commits over summed loop wall, scaled likewise.
    pub pass_commits_per_sec: Vec<f64>,
    /// Per pass: configuration to report of the pass's first point, and
    /// of the whole pass, seconds, scaled likewise.
    pub first_point_s: Vec<f64>,
    pub sweep_s: Vec<f64>,
    /// Configuration to report of every run after the first pass (each
    /// repeats a configuration already answered), seconds, scaled likewise.
    pub repeat_s: Vec<f64>,
    /// Per pass: the same two rates as measured, unscaled.
    pub raw_events_per_sec: Vec<f64>,
    pub raw_commits_per_sec: Vec<f64>,
    /// With `with_sink`, per run: 1 − the untraced loop wall over the
    /// loop wall of the counting-sink run that followed it.
    pub sink_overheads: Vec<f64>,
    /// Per pass: host speed over nominal (reference rate around the pass).
    pub host_factor: Vec<f64>,
    /// Per point: loop wall of every pass, seconds.
    pub point_walls: Vec<Vec<f64>>,
    /// Per point: the digest of the first pass.
    pub digests: Vec<Option<u64>>,
    /// Per point: events of the first pass.
    pub events: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Run whole passes over `points` until `budget` has elapsed (at least
/// `min_passes`). With `with_sink`, every untraced run of a point is
/// followed by one with a counting sink, so that the two rates are
/// measured alternately. Every run of a point must reproduce the first
/// run's digest; a run that does not, or that stops unexpectedly, is a
/// failed operation.
#[must_use]
pub fn run_loop(
    points: &[Point],
    budget: Duration,
    min_passes: usize,
    with_sink: bool,
) -> LoopResult {
    let mut r = LoopResult {
        point_walls: vec![Vec::new(); points.len()],
        digests: vec![None; points.len()],
        events: vec![0; points.len()],
        ..LoopResult::default()
    };
    let start = Instant::now();
    let mut passes = 0usize;
    let mut host_ref = HostRef::new();
    let mut ref_before = host_ref.rate();
    while passes < min_passes || start.elapsed() < budget {
        let (mut events, mut commits, mut wall) = (0u64, 0u64, Duration::ZERO);
        let mut totals = Vec::with_capacity(points.len());
        let mut pass_ok = true;
        for (i, p) in points.iter().enumerate() {
            r.attempted += 1;
            let s = run_point(p).and_then(|s| {
                let first = *r.digests[i].get_or_insert(s.digest);
                same_digest(p, first, s.digest).map(|()| s)
            });
            let untraced_wall = match s {
                Ok(s) => {
                    r.events[i] = s.events;
                    events += s.events;
                    commits += s.commits;
                    wall += s.wall;
                    totals.push(s.total.as_secs_f64());
                    r.point_walls[i].push(s.wall.as_secs_f64());
                    s.wall
                }
                Err(e) => {
                    r.failed += 1;
                    pass_ok = false;
                    r.errors.push(e);
                    continue;
                }
            };
            if with_sink {
                r.attempted += 1;
                let counted = run_counted(p, false).and_then(|(o, _)| {
                    let d = digest(&o.report, o.perf.events);
                    same_digest(p, r.digests[i].unwrap_or(d), d).map(|()| o.perf.wall)
                });
                match counted {
                    Ok(w) => r
                        .sink_overheads
                        .push(1.0 - untraced_wall.as_secs_f64() / w.as_secs_f64()),
                    Err(e) => {
                        r.failed += 1;
                        pass_ok = false;
                        r.errors.push(e);
                    }
                }
            }
        }
        passes += 1;
        let ref_after = host_ref.rate();
        let host = (ref_before + ref_after) / 2.0 / NOMINAL_REF_RATE;
        ref_before = ref_after;
        let secs = wall.as_secs_f64();
        if pass_ok && secs > 0.0 {
            let (eps, cps) = (events as f64 / secs, commits as f64 / secs);
            r.raw_events_per_sec.push(eps);
            r.raw_commits_per_sec.push(cps);
            r.host_factor.push(host);
            r.pass_events_per_sec.push(eps / host);
            r.pass_commits_per_sec.push(cps / host);
            r.first_point_s.push(totals[0] * host);
            r.sweep_s.push(totals.iter().sum::<f64>() * host);
            if passes > 1 {
                r.repeat_s.extend(totals.iter().map(|t| t * host));
            }
        }
        if r.failed > 0 && passes >= min_passes {
            break;
        }
    }
    r
}

/// A run's digest must equal the first run's.
fn same_digest(p: &Point, first: u64, d: u64) -> Result<(), String> {
    if d == first {
        Ok(())
    } else {
        Err(format!(
            "{}: digest {d:016x} differs from {first:016x}",
            p.algo.label()
        ))
    }
}
