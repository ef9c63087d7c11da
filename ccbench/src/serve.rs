//! The `serve-repeat` workload: an in-process sweep daemon on loopback
//! with a fresh state directory, driven by one closed-loop client. The
//! client submits cold `exp3` quick sweeps, each with its own seed derived
//! from the run's seed, then resubmits them so that they hit the result
//! cache. Every cached answer must be byte-identical to its cold result.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ccsim_des::derive_seed;
use ccsim_experiments::json::{self, Value};
use ccsim_serve::{start, JobSpec, ServerConfig};

use crate::util::{
    fnv1a, median, peak_rss_mib, quantile, syscall_ref_s, tail_quantile_level, HostRef,
    NOMINAL_REF_RATE,
};
use crate::{Metric, Outcome};

/// Cold sweeps per run: enough that their median holds steady, few
/// enough to leave most of the run to cached resubmits.
pub const COLD_SWEEPS: u64 = 16;
/// Cached resubmits per run, at least: enough that the 95th percentile
/// has ten samples beyond it.
pub const MIN_HITS: usize = 200;
/// One daemon start-up is timed for `setup_s` every this many cached
/// resubmits, so that the median spans the run's host states.
const SETUP_EVERY: usize = 8;
/// Nominal host time of [`syscall_ref_s`], that daemon set-up is scaled to.
const NOMINAL_SYSCALL_S: f64 = 100e-6;
/// Longest wait for one line from the daemon; a quick sweep answers
/// within a second.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Host-time marks of one submission, relative to the moment before
/// connecting.
#[derive(Debug, Default)]
struct Submission {
    ack: Option<Duration>,
    points: Vec<Duration>,
    done: Option<Duration>,
    /// The terminal line, parsed.
    terminal: Option<Value>,
    failure: Option<String>,
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> Submission {
    let mut s = Submission::default();
    let t0 = Instant::now();
    let stream = match TcpStream::connect(addr) {
        Ok(st) => st,
        Err(e) => {
            s.failure = Some(format!("connect: {e}"));
            return s;
        }
    };
    // A daemon that stops answering becomes a failed submission, not a
    // hung run.
    if let Err(e) = stream.set_read_timeout(Some(READ_TIMEOUT)) {
        s.failure = Some(format!("socket: {e}"));
        return s;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            s.failure = Some(format!("socket: {e}"));
            return s;
        }
    };
    let req = format!("{{\"op\":\"submit\",\"spec\":{}}}\n", spec.to_json());
    if let Err(e) = writer.write_all(req.as_bytes()) {
        s.failure = Some(format!("send: {e}"));
        return s;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                s.failure = Some("connection closed before a terminal event".to_string());
                return s;
            }
            Ok(_) => {}
            Err(e) => {
                s.failure = Some(format!("read: {e}"));
                return s;
            }
        }
        let at = t0.elapsed();
        let v = match json::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                s.failure = Some(format!("bad event line: {e}"));
                return s;
            }
        };
        match v.get("event").and_then(Value::as_str) {
            Some("ack") => s.ack = Some(at),
            Some("point") => s.points.push(at),
            Some("warning") => {}
            Some("done") => {
                s.done = Some(at);
                s.terminal = Some(v);
                return s;
            }
            other => {
                s.failure = Some(format!(
                    "daemon answered {}: {}",
                    other.unwrap_or("?"),
                    line.trim()
                ));
                return s;
            }
        }
    }
}

/// One `status` round trip. A cold submission that follows it finds the
/// accept loop at the start of its poll sleep, as every back-to-back
/// request of a closed-loop client does, so the accept wait it measures
/// is the full poll interval rather than a random share of it.
fn ping(addr: SocketAddr) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    stream
        .write_all(b"{\"op\":\"status\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    if line.contains("\"event\":\"status\"") {
        Ok(())
    } else {
        Err(format!("unexpected status reply: {}", line.trim()))
    }
}

fn flag(v: &Value, key: &str) -> Option<bool> {
    v.get(key).and_then(Value::as_bool)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Check a `done` line and return its result file's bytes.
fn check_done(s: &Submission, want_cached: bool) -> Result<Vec<u8>, String> {
    if let Some(f) = &s.failure {
        return Err(f.clone());
    }
    let v = s.terminal.as_ref().ok_or("no terminal event")?;
    if flag(v, "cached") != Some(want_cached) {
        return Err(format!("expected cached={want_cached}"));
    }
    if flag(v, "fully_measured") != Some(true) {
        return Err("result is not fully measured".to_string());
    }
    if v.get("failures").and_then(Value::as_f64) != Some(0.0) {
        return Err("sweep reported failed points".to_string());
    }
    let charged = v.get("events_charged").and_then(Value::as_f64);
    if want_cached && charged != Some(0.0) {
        return Err("a cache hit was charged simulated events".to_string());
    }
    if !want_cached && !charged.is_some_and(|e| e > 0.0) {
        return Err("a cold sweep was charged no simulated events".to_string());
    }
    let path = v
        .get("result")
        .and_then(Value::as_str)
        .ok_or("done carries no result path")?;
    std::fs::read(path).map_err(|e| format!("cannot read result {path}: {e}"))
}

/// A cold sweep's simulated events (as charged by the daemon) and the
/// commits its result reports, summed over its points.
fn sweep_counts(s: &Submission, result: &[u8]) -> (f64, f64) {
    let events = s
        .terminal
        .as_ref()
        .and_then(|v| v.get("events_charged"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let commits = std::str::from_utf8(result)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|v| {
            v.get("points").and_then(Value::as_arr).map(|ps| {
                ps.iter()
                    .filter_map(|p| p.get("commits").and_then(Value::as_f64))
                    .sum()
            })
        })
        .unwrap_or(0.0);
    (events, commits)
}

fn daemon_config(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::new(dir);
    // Sweeps run their points on one thread.
    cfg.threads = 1;
    cfg
}

/// Run the workload.
///
/// # Errors
/// Returns a description if the daemon cannot start.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let root = PathBuf::from(".bench_state").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(&root, seed, budget, trace);
    let _ = std::fs::remove_dir_all(&root);
    if std::fs::read_dir(".bench_state").is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(".bench_state");
    }
    result
}

fn run_in(root: &Path, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let handle = start(daemon_config(&root.join("daemon")))?;
    let addr = handle.addr();
    let began = Instant::now();
    let mut out = Outcome::default();
    let specs: Vec<JobSpec> = (0..COLD_SWEEPS)
        .map(|k| JobSpec {
            client: "bench".to_string(),
            base_seed: derive_seed(seed, &[k]),
            ..JobSpec::quick("exp3")
        })
        .collect();

    let mut cold_results: Vec<Option<Vec<u8>>> = Vec::new();
    let (mut first_point, mut sweep, mut ack_first, mut intervals, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut events_rate, mut commits_rate) = (Vec::new(), Vec::new());
    let (mut raw_sweep, mut raw_events_rate) = (Vec::new(), Vec::new());
    let mut host_ref = HostRef::new();
    for spec in &specs {
        out.attempted += 1;
        let ref_before = host_ref.rate();
        let s = match ping(addr) {
            Ok(()) => submit(addr, spec),
            Err(e) => Submission {
                failure: Some(format!("status: {e}")),
                ..Submission::default()
            },
        };
        match check_done(&s, false) {
            Ok(b) => {
                println!(
                    "{{\"digest\":\"{:016x}\",\"workload\":\"serve-repeat\",\"sweep_seed\":{},\"result_bytes\":{}}}",
                    fnv1a(&b),
                    spec.base_seed,
                    b.len()
                );
                bytes.push(b.len() as f64);
                if let (Some(ack), Some(&p0), Some(done)) = (s.ack, s.points.first(), s.done) {
                    // The daemon's compute (ack → done) is scaled to the
                    // nominal host like the simulation rates; the wait
                    // for the accept loop before the ack is a sleep.
                    let host = (ref_before + host_ref.rate()) / 2.0 / NOMINAL_REF_RATE;
                    let took = ack.as_secs_f64() + (done - ack).as_secs_f64() * host;
                    first_point.push(ms(p0));
                    sweep.push(took);
                    raw_sweep.push(done.as_secs_f64());
                    let (events, commits) = sweep_counts(&s, &b);
                    events_rate.push(events / took);
                    raw_events_rate.push(events / done.as_secs_f64());
                    commits_rate.push(commits / took);
                    ack_first.push(ms(p0 - ack));
                    intervals.extend(s.points.windows(2).map(|w| ms(w[1] - w[0])));
                }
                cold_results.push(Some(b));
            }
            Err(e) => {
                out.failed += 1;
                out.errors
                    .push(format!("cold sweep seed {}: {e}", spec.base_seed));
                cold_results.push(None);
            }
        }
    }

    let rest = budget.saturating_sub(began.elapsed());
    let r = resubmit(addr, &specs, &cold_results, rest, Some(root), &mut out)?;
    handle.drain();

    let rss = peak_rss_mib().unwrap_or(0.0);
    println!(
        "{{\"raw\":{{\"setup_s\":{},\"sweep_s\":{},\"events_per_sec\":{}}}}}",
        median(&r.raw_setups),
        median(&raw_sweep),
        median(&raw_events_rate)
    );
    out.metrics = if trace {
        vec![
            Metric::new("serve.connect_to_ack_ms", median(&r.connect_ack), "ms"),
            Metric::new("serve.ack_to_done_ms", median(&r.ack_done), "ms"),
            Metric::new("serve.ack_to_first_point_ms", median(&ack_first), "ms"),
            Metric::new("serve.point_interval_ms", median(&intervals), "ms"),
            Metric::new("serve.result_bytes", median(&bytes), "bytes"),
            Metric::new(
                "serve.cache_hit_ratio",
                r.hits.len() as f64 / r.tried.max(1) as f64,
                "fraction",
            ),
        ]
    } else {
        vec![
            Metric::new("events_per_sec", median(&events_rate), "events/s"),
            Metric::new("commits_per_sec", median(&commits_rate), "commits/s"),
            Metric::new("setup_s", median(&r.setups), "s"),
            Metric::new("peak_rss_mib", rss, "MiB"),
            Metric::new("first_point_ms", median(&first_point), "ms"),
            Metric::new("sweep_s", median(&sweep), "s"),
            Metric::new("repeat_ms.p50", median(&r.hits), "ms"),
            Metric::new(
                "repeat_ms.p95",
                quantile(&r.hits, tail_quantile_level(r.hits.len(), 0.95)),
                "ms",
            ),
        ]
    };
    Ok(out)
}

/// What the cached-resubmit phase measured.
#[derive(Debug, Default)]
pub struct Resubmits {
    /// Submit → `done` of every cached resubmit whose result matched, ms.
    pub hits: Vec<f64>,
    pub connect_ack: Vec<f64>,
    pub ack_done: Vec<f64>,
    /// Resubmits sent.
    pub tried: usize,
    /// Daemon start-ups, scaled and raw, seconds.
    pub setups: Vec<f64>,
    pub raw_setups: Vec<f64>,
}

/// Resubmit `specs` round-robin to the daemon at `addr` until `budget`
/// has passed since the call and at least [`MIN_HITS`] hits were taken.
/// Each answer must be a cache hit byte-identical to `cold[k]`. The first
/// failed resubmit (recorded in `out`) ends the phase, whatever the hit
/// count. With `setup_root`, a second daemon's start-up is timed there
/// every [`SETUP_EVERY`] resubmits.
///
/// # Errors
/// Returns a description if a timed daemon start fails.
pub fn resubmit(
    addr: SocketAddr,
    specs: &[JobSpec],
    cold: &[Option<Vec<u8>>],
    budget: Duration,
    setup_root: Option<&Path>,
    out: &mut Outcome,
) -> Result<Resubmits, String> {
    let began = Instant::now();
    let mut r = Resubmits::default();
    while r.hits.len() < MIN_HITS || began.elapsed() < budget {
        if let Some(root) = setup_root.filter(|_| r.tried.is_multiple_of(SETUP_EVERY)) {
            // Set-up: a second daemon's start until it is listening, on
            // fresh state, scaled by the same operations done with std just
            // before (their cost drifts by half between minutes on a
            // shared host); then a status round trip re-aligns the client
            // with the measured daemon's accept loop.
            let host = syscall_ref_s(root)? / NOMINAL_SYSCALL_S;
            let dir = root.join("setup");
            let t0 = Instant::now();
            let h = start(daemon_config(&dir))?;
            let took = t0.elapsed().as_secs_f64();
            r.raw_setups.push(took);
            r.setups.push(took / host);
            h.drain();
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = ping(addr) {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(format!("status: {e}"));
                break;
            }
        }
        let k = r.tried % specs.len();
        r.tried += 1;
        out.attempted += 1;
        let s = submit(addr, &specs[k]);
        let failure = match check_done(&s, true) {
            Ok(b) if cold[k].as_ref() != Some(&b) => {
                Some(format!("cached result {k} differs from its cold result"))
            }
            Ok(_) => match (s.ack, s.done) {
                (Some(ack), Some(done)) => {
                    r.hits.push(ms(done));
                    r.connect_ack.push(ms(ack));
                    r.ack_done.push(ms(done - ack));
                    None
                }
                _ => Some(format!("resubmit {k}: no ack before done")),
            },
            Err(e) => Some(format!("resubmit {k}: {e}")),
        };
        if let Some(e) = failure {
            out.failed += 1;
            out.errors.push(e);
            break;
        }
    }
    Ok(r)
}
