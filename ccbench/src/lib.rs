//! The repository benchmark: host-time throughput of the closed model at
//! the paper point, under contention and at million scale, plus the sweep
//! daemon's latency. It drives the simulator only through the public
//! crate APIs; per-layer numbers come from timing the benchmark's own
//! calls into each layer, so the engine carries no instrumentation.

pub mod layers;
pub mod serve;
pub mod sim;
pub mod sink;
pub mod util;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json`'s order.
/// Every workload measures every one of them (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("events_per_sec", "events/s"),
    ("commits_per_sec", "commits/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("first_point_ms", "ms"),
    ("sweep_s", "s"),
    ("repeat_ms.p50", "ms"),
    ("repeat_ms.p95", "ms"),
];

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json`'s order
/// (`--trace 1`). A workload reports 0 for every metric of a layer (or a
/// protocol) it does not exercise.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("engine.events_per_sec.blocking", "events/s"),
    ("engine.events_per_sec.immediate-restart", "events/s"),
    ("engine.events_per_sec.optimistic", "events/s"),
    ("engine.events_per_sec.mvcc-si", "events/s"),
    ("engine.events_per_sec.silo-occ", "events/s"),
    ("engine.events_per_sec.tictoc", "events/s"),
    ("engine.residual_frac", "fraction"),
    ("engine.events_per_commit", "events"),
    ("engine.restarts_per_commit", "restarts"),
    ("calendar.schedule_ns", "ns"),
    ("calendar.pop_ns", "ns"),
    ("calendar.ops", "count"),
    ("calendar.lane_frac", "fraction"),
    ("calendar.replay_lane_frac", "fraction"),
    ("calendar.peak", "count"),
    ("calendar.share", "fraction"),
    ("variate.exp_ns", "ns"),
    ("variate.uniform_ns", "ns"),
    ("variate.share", "fraction"),
    ("workload.next_spec_ns", "ns"),
    ("workload.specs", "count"),
    ("objmap.probe_ns", "ns"),
    ("lockmgr.request_ns", "ns"),
    ("lockmgr.release_all_ns", "ns"),
    ("lockmgr.find_deadlock_ns", "ns"),
    ("lockmgr.requests", "count"),
    ("lockmgr.block_ratio", "fraction"),
    ("lockmgr.deadlocks", "count"),
    ("lockmgr.peak_locks", "count"),
    ("lockmgr.share", "fraction"),
    ("occ.validate_ns", "ns"),
    ("silo.validate_ns", "ns"),
    ("tictoc.validate_ns", "ns"),
    ("mvcc.install_ns", "ns"),
    ("validate.fail_ratio.optimistic", "fraction"),
    ("validate.fail_ratio.mvcc-si", "fraction"),
    ("validate.fail_ratio.silo-occ", "fraction"),
    ("validate.fail_ratio.tictoc", "fraction"),
    ("validate.share", "fraction"),
    ("cpu_pool.submit_complete_ns", "ns"),
    ("disks.submit_complete_ns", "ns"),
    ("resources.elided_frac", "fraction"),
    ("resources.share", "fraction"),
    ("stats.p2_observe_ns", "ns"),
    ("serve.connect_to_ack_ms", "ms"),
    ("serve.ack_to_done_ms", "ms"),
    ("serve.ack_to_first_point_ms", "ms"),
    ("serve.point_interval_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.cache_hit_ratio", "fraction"),
];

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable failure descriptions (printed before the result).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Put `names` in order: each named metric the run measured, and 0
    /// for each one it did not (a layer the workload does not exercise).
    /// Metrics outside `names` are dropped.
    pub fn fill_absent(&mut self, names: &[(&'static str, &'static str)]) {
        let mut measured = std::mem::take(&mut self.metrics);
        for &(name, unit) in names {
            let m = match measured.iter().position(|m| m.name == name) {
                Some(i) => measured.swap_remove(i),
                None => Metric::new(name, 0.0, unit),
            };
            self.metrics.push(m);
        }
    }

    /// Check that the run measured each of `names` in its unit, as a
    /// finite number above 0; each one it did not is a failure.
    pub fn require(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            let ok = self
                .metrics
                .iter()
                .any(|m| m.name == name && m.unit == unit && m.value.is_finite() && m.value > 0.0);
            if !ok {
                self.failed += 1;
                self.errors.push(format!(
                    "end-to-end metric {name} ({unit}) was not measured"
                ));
            }
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`. A metric that is not a finite
    /// number makes the run incorrect and is left out.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if m.value.is_finite() {
                body.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    util::escape(&m.name),
                    m.value,
                    m.unit
                ));
            } else {
                correct = false;
            }
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}
