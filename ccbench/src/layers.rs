//! End-to-end (untraced) and per-layer (traced) measurement of the
//! simulation workloads.
//!
//! The traced run first repeats the untraced loop for a reference wall
//! time, then runs every point once more with a counting [`EventSink`]
//! attached (exact counts, the lock op stream) and once with history
//! recording (validator inputs). Each layer's traffic is then replayed
//! through that layer's public API and timed from here: recorded op
//! streams where the events carry enough information (lock manager,
//! validators), traffic shaped by the workload's parameters and measured
//! peaks otherwise (calendar, variates, workload generator, object map,
//! resource pools, streaming quantiles). A layer's share is its ns/op
//! times its op count over the untraced loop wall; the engine's residual
//! is what the named layers leave.
//!
//! [`EventSink`]: ccsim_core::EventSink

use std::time::{Duration, Instant};

use ccsim_core::{run_with_history, CcAlgorithm, History, LockMode, ObjId, Params, ResourceSpec};
use ccsim_des::{Calendar, ExpBlock, SimDuration, SimTime, UniformBlock, Xoshiro256StarStar};
use ccsim_lockmgr::{LockManager, RequestOutcome};
use ccsim_mvcc::MvccManager;
use ccsim_occ::{SiloValidator, Validator};
use ccsim_resources::{DiskArray, Priority, Request, ServerPool};
use ccsim_stats::P2Quantile;
use ccsim_tso::{TicTocManager, TtWord};
use ccsim_workload::{Generator, ObjMap};

use crate::sim::{self, Point, SimWorkload};
use crate::sink::{Counts, LockOp};
use crate::util::{median, peak_rss_mib, quantile, tail_quantile_level, Clock, Span};
use crate::{Metric, Outcome};

/// The untraced run: set-up time, then passes over the workload's points
/// for `budget`, reporting the median pass rates and times.
///
/// # Errors
/// Returns a description if a configuration is rejected.
pub fn run_untraced(w: SimWorkload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let points = w.points(seed);
    let (scaled_setup_s, raw_setup_s) = sim::measure_setup_scaled(&points, w.setup_reps())?;
    // The page-fault reference narrows the small points' set-up spread
    // across runs but not the scale point's, which is reported raw.
    let setup_s = if w == SimWorkload::ExpScale {
        raw_setup_s
    } else {
        scaled_setup_s
    };
    let lr = sim::run_loop(&points, budget, 3, false);
    print_digests(w.name(), seed, &points, &lr);
    println!(
        "{{\"raw\":{{\"events_per_sec\":{},\"commits_per_sec\":{},\"scaled_events_per_sec\":{},\"setup_s\":{raw_setup_s},\"scaled_setup_s\":{scaled_setup_s},\"host_factor\":{},\"passes\":{}}}}}",
        median(&lr.raw_events_per_sec),
        median(&lr.raw_commits_per_sec),
        median(&lr.pass_events_per_sec),
        median(&lr.host_factor),
        lr.host_factor.len()
    );
    let repeat = &lr.repeat_s;
    let metrics = vec![
        Metric::new(
            "events_per_sec",
            median(&lr.pass_events_per_sec),
            "events/s",
        ),
        Metric::new(
            "commits_per_sec",
            median(&lr.pass_commits_per_sec),
            "commits/s",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
        Metric::new("first_point_ms", median(&lr.first_point_s) * 1e3, "ms"),
        Metric::new("sweep_s", median(&lr.sweep_s), "s"),
        Metric::new("repeat_ms.p50", median(repeat) * 1e3, "ms"),
        Metric::new(
            "repeat_ms.p95",
            quantile(repeat, tail_quantile_level(repeat.len(), 0.95)) * 1e3,
            "ms",
        ),
    ];
    Ok(Outcome {
        attempted: lr.attempted,
        failed: lr.failed,
        metrics,
        errors: lr.errors,
    })
}

fn print_digests(name: &str, seed: u64, points: &[Point], lr: &sim::LoopResult) {
    for (i, p) in points.iter().enumerate() {
        if let Some(d) = lr.digests[i] {
            println!(
                "{{\"digest\":\"{d:016x}\",\"workload\":\"{name}\",\"protocol\":\"{}\",\"seed\":{seed},\"events\":{}}}",
                p.algo.label(),
                lr.events[i]
            );
        }
    }
}

/// Whether the protocol's commit path goes through a validator.
fn validates(algo: CcAlgorithm) -> bool {
    matches!(
        algo,
        CcAlgorithm::Optimistic | CcAlgorithm::MvccSi | CcAlgorithm::SiloOcc | CcAlgorithm::TicToc
    )
}

fn uses_locks(algo: CcAlgorithm) -> bool {
    matches!(algo, CcAlgorithm::Blocking | CcAlgorithm::ImmediateRestart)
}

/// Lock-manager spans from replaying one recorded op stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockReplay {
    pub request: Span,
    pub release_all: Span,
    pub find_deadlock: Span,
    /// Ops whose outcome differed from the recorded one.
    pub mismatches: u64,
}

impl LockReplay {
    fn total_ns(&self) -> f64 {
        self.request.ns + self.release_all.ns + self.find_deadlock.ns
    }
}

/// Replay a recorded lock op stream through a fresh `LockManager` sized
/// like the engine's, checking every outcome against the recording.
#[must_use]
pub fn replay_locks(ops: &[LockOp], params: &Params, clock: &Clock) -> LockReplay {
    let mut lm = LockManager::with_capacity(params.db_size as usize, params.num_terms as usize);
    let mut r = LockReplay::default();
    let mut grants = Vec::new();
    for op in ops {
        match op {
            LockOp::Granted(t, o, m) => {
                let t0 = clock.start();
                let out = lm.request(*t, *o, *m);
                clock.stop(t0, &mut r.request);
                r.mismatches += u64::from(out != RequestOutcome::Granted);
            }
            LockOp::Queued(t, o) => {
                let mode = if lm.holds(*t, *o) == Some(LockMode::Read) {
                    LockMode::Write
                } else {
                    LockMode::Read
                };
                let t0 = clock.start();
                let out = lm.request(*t, *o, mode);
                clock.stop(t0, &mut r.request);
                r.mismatches += u64::from(out != RequestOutcome::Queued);
            }
            LockOp::FindDeadlock(t, found) => {
                let t0 = clock.start();
                let cycle = lm.find_deadlock(*t);
                clock.stop(t0, &mut r.find_deadlock);
                r.mismatches += u64::from(cycle.is_some() != *found);
            }
            LockOp::ReleaseAll {
                txn,
                held,
                grants: expected,
            } => {
                r.mismatches += u64::from(lm.locks_held(*txn) as u64 != u64::from(*held));
                grants.clear();
                let t0 = clock.start();
                lm.release_all_into(*txn, &mut grants);
                clock.stop(t0, &mut r.release_all);
                let same = grants.len() == expected.len()
                    && grants
                        .iter()
                        .zip(expected)
                        .all(|(g, e)| (g.txn, g.obj, g.mode) == *e);
                r.mismatches += u64::from(!same);
            }
        }
    }
    r
}

/// Replay a committed history through the protocol's validator in
/// commit-point order. Every committed transaction passed validation in
/// the engine, so every replayed validation must pass too; the count of
/// those that do not is returned with the span.
#[must_use]
pub fn replay_validator(algo: CcAlgorithm, h: &History, db: usize, clock: &Clock) -> (Span, u64) {
    let mut txns: Vec<_> = h.txns().iter().collect();
    txns.sort_by_key(|t| t.commit_at);
    let mut span = Span::default();
    let mut bad = 0u64;
    match algo {
        CcAlgorithm::Optimistic => {
            let mut v = Validator::with_capacity(db);
            let mut reads: Vec<ObjId> = Vec::new();
            for t in txns {
                reads.clear();
                reads.extend(t.reads.iter().map(|r| r.0));
                let t0 = clock.start();
                let ok = v.validate(t.start, &reads).is_ok();
                clock.stop(t0, &mut span);
                bad += u64::from(!ok);
                v.commit(t.commit_at, t.writes.iter().copied());
            }
        }
        CcAlgorithm::SiloOcc => {
            let mut v = SiloValidator::new(SiloValidator::DEFAULT_EPOCH);
            for t in txns {
                let t0 = clock.start();
                let ok = v.validate(&t.reads).is_ok();
                clock.stop(t0, &mut span);
                bad += u64::from(!ok);
                v.commit(t.commit_at, t.writes.iter().copied());
            }
        }
        CcAlgorithm::TicToc => {
            // The history does not carry TicToc's observed words; each read
            // observes the word as the replay left it.
            let mut m = TicTocManager::new();
            let mut obs: Vec<(ObjId, TtWord)> = Vec::new();
            for t in txns {
                obs.clear();
                obs.extend(t.reads.iter().map(|r| (r.0, m.word(r.0))));
                let t0 = clock.start();
                let ok = m.validate_and_commit(&obs, &t.writes).is_ok();
                clock.stop(t0, &mut span);
                bad += u64::from(!ok);
            }
        }
        CcAlgorithm::MvccSi => {
            let mut m = MvccManager::new();
            for t in txns {
                let t0 = clock.start();
                let ok = m
                    .check_and_install(t.start, t.commit_at, t.id, &t.writes)
                    .is_ok();
                clock.stop(t0, &mut span);
                bad += u64::from(!ok);
            }
        }
        _ => {}
    }
    (span, bad)
}

/// Gaps shorter than this land in the calendar's near lane (~268 ms
/// horizon); gaps of at least [`FAR_GAP`] land in its overflow heap.
const NEAR_GAP: SimDuration = SimDuration::from_millis(250);
const FAR_GAP: SimDuration = SimDuration::from_millis(300);

/// How far the replay's lane share of schedules may stray from the
/// engine's before the replay counts as a failure.
pub const LANE_TOLERANCE: f64 = 0.05;

/// What the calendar replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct CalendarReplay {
    pub schedule: Span,
    pub pop: Span,
    /// Share of the replay's schedules that landed in the near lane.
    pub lane_frac: f64,
}

/// Calendar spans under a hold model: `population` pending events, each
/// pop rescheduled one gap later, timed in batches of 64 pops and 64
/// schedules. With probability `lane_frac` a gap is near (exponential of
/// mean `near_mean`, redrawn until it is inside the near lane) and
/// otherwise far (the lane horizon plus an exponential of mean
/// `far_mean`), so that the replay splits its schedules between lane and
/// heap as the engine did.
#[must_use]
pub fn replay_calendar(
    population: usize,
    lane_frac: f64,
    near_mean: SimDuration,
    far_mean: SimDuration,
    ops: u64,
) -> CalendarReplay {
    const B: usize = 64;
    let mut cal: Calendar<u32> = Calendar::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xCA1E);
    let (mut near, mut far) = (ExpBlock::new(near_mean), ExpBlock::new(far_mean));
    let threshold = (lane_frac.clamp(0.0, 1.0) * 2f64.powi(64)) as u64;
    let mut gap = move |rng: &mut Xoshiro256StarStar| {
        if rng.next_u64() < threshold {
            loop {
                let g = near.sample(rng);
                if g < NEAR_GAP {
                    return g;
                }
            }
        }
        FAR_GAP + far.sample(rng)
    };
    for i in 0..population.max(B) {
        cal.schedule(SimTime::ZERO + gap(&mut rng), i as u32);
    }
    let filled = cal.stats();
    let (mut sched, mut pop) = (Span::default(), Span::default());
    let mut popped = [(SimTime::ZERO, 0u32); B];
    let mut gaps = [SimDuration::ZERO; B];
    while sched.calls + pop.calls < ops {
        let t0 = Instant::now();
        for slot in &mut popped {
            *slot = cal.pop().expect("population stays at least one batch");
        }
        pop.add_batch(t0, B as u64);
        for g in &mut gaps {
            *g = gap(&mut rng);
        }
        // Pops come out in time order, so the last one is the clock.
        let now = popped[B - 1].0;
        let t0 = Instant::now();
        for (&(_, ev), &g) in popped.iter().zip(&gaps) {
            cal.schedule(now + g, ev);
        }
        sched.add_batch(t0, B as u64);
        std::hint::black_box(&cal);
    }
    let done = cal.stats();
    let lane = done.lane_schedules - filled.lane_schedules;
    let all = done.schedules - filled.schedules;
    CalendarReplay {
        schedule: sched,
        pop,
        lane_frac: lane as f64 / all.max(1) as f64,
    }
}

/// Time `n` calls of `f` as one batch.
fn time_batch(n: u64, mut f: impl FnMut()) -> Span {
    let mut s = Span::default();
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    s.add_batch(t0, n);
    s
}

/// Shaped per-call costs of the layers whose traffic is not recorded.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShapedCosts {
    pub exp_ns: f64,
    pub uniform_ns: f64,
    pub next_spec_ns: f64,
    pub probe_ns: f64,
    pub cpu_ns: f64,
    pub disk_ns: f64,
    pub p2_ns: f64,
}

/// Measure the shaped layers for `params`, with `live_locks` keys in the
/// probed object map.
#[must_use]
pub fn shaped_costs(params: &Params, live_locks: usize, n: u64) -> ShapedCosts {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED);
    let mut exp = ExpBlock::new(params.ext_think_time);
    let exp_ns = time_batch(n, || {
        std::hint::black_box(exp.sample(&mut rng));
    })
    .per_call();
    let mut uni = UniformBlock::new(params.db_size);
    let uniform_ns = time_batch(n, || {
        std::hint::black_box(uni.sample(&mut rng));
    })
    .per_call();

    let mut gen = Generator::new(params, Xoshiro256StarStar::seed_from_u64(0x6E4));
    let mut bufs = Some((Vec::new(), Vec::new()));
    let next_spec_ns = time_batch(n / 4, || {
        let (r, w) = bufs.take().expect("buffers are returned every call");
        let (_, spec) = gen.next_spec_with_class_reusing(r, w);
        bufs = Some(std::hint::black_box(spec).into_parts());
    })
    .per_call();

    let live = live_locks.max(1);
    let mut map: ObjMap<u32> = ObjMap::with_capacity(live);
    let mut keys = UniformBlock::new(params.db_size);
    while map.len() < live.min(params.db_size as usize) {
        map.insert(ObjId(keys.sample(&mut rng)), 1);
    }
    let probe_ns = time_batch(n, || {
        std::hint::black_box(map.get(ObjId(keys.sample(&mut rng))));
    })
    .per_call()
        - uniform_ns;

    let (cpu_ns, disk_ns) = match params.resources {
        ResourceSpec::Infinite => (0.0, 0.0),
        ResourceSpec::Physical {
            num_cpus,
            num_disks,
        } => {
            let mut pool: ServerPool<u32> = ServerPool::new(num_cpus as usize);
            let mut now = SimTime::ZERO;
            let cpu_ns = time_batch(n / 4, || {
                let req = Request {
                    payload: 0,
                    duration: params.obj_cpu,
                    priority: Priority::Normal,
                };
                let s = pool.submit(now, req).expect("an idle pool starts at once");
                now = s.completes_at;
                std::hint::black_box(pool.complete(now, s.server));
            })
            .per_call();
            let mut disks: DiskArray<u32> = DiskArray::new(num_disks as usize);
            let mut obj = 0u64;
            let disk_ns = time_batch(n / 4, || {
                obj = obj.wrapping_add(0x9E37_79B9);
                let d = disks.route(obj);
                let s = disks
                    .submit(now, d, 0, params.obj_io)
                    .expect("an idle disk starts at once");
                now = s.completes_at;
                std::hint::black_box(disks.complete(now, s.disk));
            })
            .per_call();
            (cpu_ns, disk_ns)
        }
    };

    let mut p2 = P2Quantile::new(0.95);
    let mut x = 0.5f64;
    let p2_ns = time_batch(n, || {
        x = (x * 1.618_033_988_7).fract();
        p2.add(x);
    })
    .per_call();
    std::hint::black_box(p2.count());

    ShapedCosts {
        exp_ns,
        uniform_ns,
        next_spec_ns,
        probe_ns: probe_ns.max(0.0),
        cpu_ns,
        disk_ns,
        p2_ns,
    }
}

/// Everything the traced run learns about one point.
struct Traced {
    algo: CcAlgorithm,
    counts: Counts,
    perf: ccsim_core::PerfStats,
    locks: Option<LockReplay>,
    validate: Option<(Span, u64)>,
}

/// How far the named layers' shares may add up past the whole loop: the
/// shaped replays estimate, they do not partition, the loop's time.
pub const SHARE_TOLERANCE: f64 = 0.25;

/// The traced run: per-layer metrics for a simulation workload.
///
/// # Errors
/// Returns a description if a configuration is rejected.
pub fn run_traced(w: SimWorkload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    traced_points(w.name(), &w.points(seed), seed, budget)
}

/// The traced run over any set of points (the self-test uses a tiny one).
///
/// # Errors
/// Returns a description if a configuration is rejected.
pub fn traced_points(
    name: &str,
    points: &[Point],
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    let clock = Clock::calibrate();
    // Untraced reference: the loop wall every share is taken against,
    // alternating with counting-sink runs for the tracing overhead.
    let lr = sim::run_loop(points, budget.mul_f64(0.4), 3, true);
    let mut out = Outcome {
        attempted: lr.attempted,
        failed: lr.failed,
        errors: lr.errors.clone(),
        ..Outcome::default()
    };
    print_digests(name, seed, points, &lr);
    let walls: Vec<f64> = lr.point_walls.iter().map(|v| median(v)).collect();
    let wall_total: f64 = walls.iter().sum();

    let mut traced = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        out.attempted += 1;
        let (o, counts) = match sim::run_counted(p, uses_locks(p.algo)) {
            Ok(r) => r,
            Err(why) => {
                out.failed += 1;
                out.errors.push(why);
                continue;
            }
        };
        let d = sim::digest(&o.report, o.perf.events);
        if lr.digests[i].is_some_and(|first| first != d) {
            out.failed += 1;
            out.errors.push(format!(
                "{}: traced digest {d:016x} differs from the untraced run",
                p.algo.label()
            ));
        }
        let locks =
            uses_locks(p.algo).then(|| replay_locks(&counts.lock_ops, &p.cfg.params, &clock));
        if let Some(r) = &locks {
            out.attempted += 1;
            if r.mismatches > 0 {
                out.failed += 1;
                out.errors.push(format!(
                    "{}: lock replay diverged from the recorded outcomes in {} ops",
                    p.algo.label(),
                    r.mismatches
                ));
            }
        }
        let validate = if validates(p.algo) {
            let (_, h) = run_with_history(p.cfg.clone()).map_err(|e| e.to_string())?;
            let v = replay_validator(p.algo, &h, p.cfg.params.db_size as usize, &clock);
            out.attempted += 1;
            if v.1 > 0 {
                out.failed += 1;
                out.errors.push(format!(
                    "{}: {} committed transactions failed validation on replay",
                    p.algo.label(),
                    v.1
                ));
            }
            Some(v)
        } else {
            None
        };
        traced.push(Traced {
            algo: p.algo,
            counts: Counts {
                lock_ops: Vec::new(),
                ..counts
            },
            perf: o.perf,
            locks,
            validate,
        });
    }
    if traced.len() != points.len() {
        return Ok(out);
    }

    let params = &points[0].cfg.params;
    let sum = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>();
    let m = &mut out.metrics;

    // Core engine.
    for (i, t) in traced.iter().enumerate() {
        m.push(Metric::new(
            format!("engine.events_per_sec.{}", t.algo.label()),
            lr.events[i] as f64 / walls[i],
            "events/s",
        ));
    }
    let commits = sum(&|t| t.counts.commit as f64);
    m.push(Metric::new(
        "engine.events_per_commit",
        sum(&|t| t.perf.events as f64) / commits,
        "events",
    ));
    m.push(Metric::new(
        "engine.restarts_per_commit",
        sum(&|t| t.counts.restart as f64) / commits,
        "restarts",
    ));

    // Calendar: hold-model replay at the largest measured population,
    // splitting its schedules between lane and heap as the engine did.
    let peak = traced
        .iter()
        .map(|t| t.perf.peak_calendar)
        .max()
        .unwrap_or(1);
    let schedules = sum(&|t| t.perf.calendar.schedules as f64);
    let lane_sched = sum(&|t| t.perf.calendar.lane_schedules as f64) / schedules.max(1.0);
    let cal_ops = sum(&|t| (t.perf.calendar.schedules + t.perf.calendar.pops) as f64);
    let cal = replay_calendar(
        peak,
        lane_sched,
        params.obj_io,
        params.ext_think_time,
        (cal_ops as u64).clamp(200_000, 4_000_000),
    );
    out.attempted += 1;
    if (cal.lane_frac - lane_sched).abs() > LANE_TOLERANCE {
        out.failed += 1;
        out.errors.push(format!(
            "calendar replay sent {:.3} of its schedules to the lane, the engine {lane_sched:.3}",
            cal.lane_frac
        ));
    }
    let (sched, pop) = (cal.schedule, cal.pop);
    let lane = sum(&|t| (t.perf.calendar.lane_schedules + t.perf.calendar.lane_pops) as f64);
    let cal_share = (sched.per_call() * schedules
        + pop.per_call() * sum(&|t| t.perf.calendar.pops as f64))
        / 1e9
        / wall_total;
    m.push(Metric::new("calendar.schedule_ns", sched.per_call(), "ns"));
    m.push(Metric::new("calendar.pop_ns", pop.per_call(), "ns"));
    m.push(Metric::new("calendar.ops", cal_ops, "count"));
    m.push(Metric::new(
        "calendar.lane_frac",
        lane / cal_ops.max(1.0),
        "fraction",
    ));
    m.push(Metric::new(
        "calendar.replay_lane_frac",
        cal.lane_frac,
        "fraction",
    ));
    m.push(Metric::new("calendar.peak", peak as f64, "count"));
    m.push(Metric::new("calendar.share", cal_share, "fraction"));

    // Shaped layers.
    let peak_locks = traced
        .iter()
        .map(|t| t.perf.peak_lock_table)
        .max()
        .unwrap_or(0);
    let c = shaped_costs(params, peak_locks, 2_000_000);
    let exp_draws = sum(&|t| (t.counts.arrive + t.counts.restart) as f64);
    let disk_served = sum(&|t| {
        t.counts
            .flow
            .and_then(|f| f.disk)
            .map_or(0.0, |d| d.served as f64)
    });
    let cpu_served = sum(&|t| {
        t.counts
            .flow
            .and_then(|f| f.cpu)
            .map_or(0.0, |d| d.served as f64)
    });
    let variate_share = (c.exp_ns * exp_draws + c.uniform_ns * disk_served) / 1e9 / wall_total;
    m.push(Metric::new("variate.exp_ns", c.exp_ns, "ns"));
    m.push(Metric::new("variate.uniform_ns", c.uniform_ns, "ns"));
    m.push(Metric::new("variate.share", variate_share, "fraction"));
    m.push(Metric::new("workload.next_spec_ns", c.next_spec_ns, "ns"));
    m.push(Metric::new(
        "workload.specs",
        sum(&|t| t.counts.arrive as f64),
        "count",
    ));
    m.push(Metric::new("objmap.probe_ns", c.probe_ns, "ns"));
    m.push(Metric::new("stats.p2_observe_ns", c.p2_ns, "ns"));

    // Lock manager: recorded streams of the lock-using protocols.
    let lockers: Vec<&Traced> = traced.iter().filter(|t| t.locks.is_some()).collect();
    let mut lock_share = 0.0;
    if !lockers.is_empty() {
        let mut all = LockReplay::default();
        for t in &lockers {
            let r = t.locks.expect("filtered on replayed locks");
            for (a, b) in [
                (&mut all.request, r.request),
                (&mut all.release_all, r.release_all),
                (&mut all.find_deadlock, r.find_deadlock),
            ] {
                a.ns += b.ns;
                a.calls += b.calls;
            }
            lock_share += r.total_ns();
        }
        lock_share = lock_share / 1e9 / wall_total;
        let requests: f64 = lockers
            .iter()
            .map(|t| (t.counts.acquire + t.counts.block) as f64)
            .sum();
        let blocks: f64 = lockers.iter().map(|t| t.counts.block as f64).sum();
        m.push(Metric::new(
            "lockmgr.request_ns",
            all.request.per_call(),
            "ns",
        ));
        m.push(Metric::new(
            "lockmgr.release_all_ns",
            all.release_all.per_call(),
            "ns",
        ));
        m.push(Metric::new(
            "lockmgr.find_deadlock_ns",
            all.find_deadlock.per_call(),
            "ns",
        ));
        m.push(Metric::new("lockmgr.requests", requests, "count"));
        m.push(Metric::new(
            "lockmgr.block_ratio",
            blocks / requests.max(1.0),
            "fraction",
        ));
        m.push(Metric::new(
            "lockmgr.deadlocks",
            lockers.iter().map(|t| t.counts.deadlock as f64).sum(),
            "count",
        ));
        m.push(Metric::new(
            "lockmgr.peak_locks",
            peak_locks as f64,
            "count",
        ));
        m.push(Metric::new("lockmgr.share", lock_share, "fraction"));
    }

    // Validators: committed histories replayed; failed validations are
    // charged at the same per-call cost.
    let mut validate_share = 0.0;
    if traced.iter().any(|t| t.validate.is_some()) {
        for (algo, name) in [
            (CcAlgorithm::Optimistic, "occ.validate_ns"),
            (CcAlgorithm::SiloOcc, "silo.validate_ns"),
            (CcAlgorithm::TicToc, "tictoc.validate_ns"),
            (CcAlgorithm::MvccSi, "mvcc.install_ns"),
        ] {
            if let Some(t) = traced.iter().find(|t| t.algo == algo) {
                let (span, _) = t.validate.expect("validating protocol was replayed");
                m.push(Metric::new(name, span.per_call(), "ns"));
            }
        }
        for t in traced.iter().filter(|t| t.validate.is_some()) {
            let (span, _) = t.validate.expect("filtered on replayed validators");
            let tries = (t.counts.commit + t.counts.validation_failure) as f64;
            m.push(Metric::new(
                format!("validate.fail_ratio.{}", t.algo.label()),
                t.counts.validation_failure as f64 / tries.max(1.0),
                "fraction",
            ));
            validate_share += span.per_call() * tries;
        }
        validate_share = validate_share / 1e9 / wall_total;
        m.push(Metric::new("validate.share", validate_share, "fraction"));
    }

    // Resources: only physical configurations have pools.
    let mut resource_share = 0.0;
    if !params.resources.is_infinite() {
        let elided = sum(&|t| (t.perf.elided_cpu_hops + t.perf.elided_disk_hops) as f64);
        resource_share = (c.cpu_ns * cpu_served + c.disk_ns * disk_served) / 1e9 / wall_total;
        m.push(Metric::new("cpu_pool.submit_complete_ns", c.cpu_ns, "ns"));
        m.push(Metric::new("disks.submit_complete_ns", c.disk_ns, "ns"));
        m.push(Metric::new(
            "resources.elided_frac",
            elided / (cpu_served + disk_served).max(1.0),
            "fraction",
        ));
        m.push(Metric::new("resources.share", resource_share, "fraction"));
    }

    let residual = 1.0 - cal_share - variate_share - lock_share - validate_share - resource_share;
    m.push(Metric::new("engine.residual_frac", residual, "fraction"));
    // Every untraced run is followed by the same point with the counting
    // sink, so each pair sees nearly the same host speed. The median pair
    // is printed for information: on the scale point its three long pairs
    // drift by more than the sink costs.
    let o = &lr.sink_overheads;
    println!(
        "{{\"trace_overhead\":{{\"pairs\":{},\"median\":{},\"quartile_spread\":{}}}}}",
        o.len(),
        median(o),
        quantile(o, 0.75) - quantile(o, 0.25)
    );
    Ok(out)
}
