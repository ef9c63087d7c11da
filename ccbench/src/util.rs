//! Small helpers shared by the workloads: order statistics, digests,
//! process memory, span clocks, and provenance.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q` quantile of `v` by linear interpolation between order
/// statistics (q in [0, 1]).
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, capped at `cap` (e.g. 0.95).
#[must_use]
pub fn tail_quantile_level(n: usize, cap: f64) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(cap)
}

/// FNV-1a, 64-bit: the digest of a run's observable output.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Process high-water resident set (`VmHWM`) in MiB; `None` off Linux.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Reference speed of the host, in reference ops per second, that the
/// normalised rates are scaled to.
pub const NOMINAL_REF_RATE: f64 = 10.0e6;

/// A fixed reference loop that shares no code with the simulator, used to
/// track the speed of a shared host. Its mix resembles an event loop: a
/// 200-entry binary-heap hold model, probes of a 16 Ki-slot open-addressing
/// table under a multiplicative hash, and a short pointer chase through a
/// 256 KiB random cycle. On a shared host the speed available to one
/// thread can drift by a quarter within seconds; the simulator's rate
/// divided by this loop's rate, measured around the same pass, cancels
/// most of that drift.
pub struct HostRef {
    cycle: Vec<u32>,
    table: Vec<u64>,
}

impl Default for HostRef {
    fn default() -> Self {
        HostRef::new()
    }
}

impl HostRef {
    /// Build the reference's fixed data.
    #[must_use]
    pub fn new() -> HostRef {
        const N: usize = 1 << 16;
        let mut order: Vec<u32> = (0..N as u32).collect();
        let mut x = 12_345u64;
        for i in (1..N).rev() {
            x = xorshift(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut cycle = vec![0u32; N];
        for i in 0..N {
            cycle[order[i] as usize] = order[(i + 1) % N];
        }
        HostRef {
            cycle,
            table: vec![0; 1 << 14],
        }
    }

    /// Reference ops per second over one ~15 ms chunk.
    pub fn rate(&mut self) -> f64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        const ITERS: u64 = 150_000;
        let t = Instant::now();
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(256);
        for i in 0..200u32 {
            heap.push(Reverse(((u64::from(i) * 7919) % 1000, i)));
        }
        let mask = self.table.len() as u64 - 1;
        let (mut x, mut p, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u32, 0u64);
        for _ in 0..ITERS {
            x = xorshift(x);
            let Reverse((at, ev)) = heap.pop().expect("the heap stays at 200 entries");
            heap.push(Reverse((at + x % 1000, ev)));
            let key = x % 4096 + 1;
            let mut h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & mask;
            while self.table[h as usize] != 0 && self.table[h as usize] != key {
                h = (h + 1) & mask;
            }
            self.table[h as usize] = if x & 3 == 0 { 0 } else { key };
            for _ in 0..4 {
                p = self.cycle[p as usize];
            }
            if (u64::from(p) ^ x) & 1 == 0 {
                acc = acc.wrapping_add(at);
            } else {
                acc ^= u64::from(ev);
            }
        }
        std::hint::black_box(acc);
        ITERS as f64 / t.elapsed().as_secs_f64()
    }
}

/// Host time of the operations a daemon start performs — three nested
/// directories, a file, a loopback listener and a thread — done with the
/// standard library in `scratch`, so that daemon set-up can be scaled to
/// a nominal host the way the rates are.
///
/// # Errors
/// Returns a description when the scratch directory cannot be used.
pub fn syscall_ref_s(scratch: &std::path::Path) -> Result<f64, String> {
    let dir = scratch.join("ref");
    let t0 = Instant::now();
    std::fs::create_dir_all(dir.join("a").join("b")).map_err(|e| e.to_string())?;
    std::fs::File::create(dir.join("f")).map_err(|e| e.to_string())?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(|| {});
    let took = t0.elapsed();
    thread
        .join()
        .map_err(|_| "reference thread panicked".to_string())?;
    drop(listener);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(took.as_secs_f64())
}

/// Host time to fault in 16 MiB of fresh zeroed memory, one write per
/// page: the kind of work that dominates a simulation's set-up. Each MiB
/// is touched in its own 64 MiB allocation, which is above glibc's largest
/// dynamic mmap threshold, so the pages are new every time and no more
/// than 1 MiB of them is resident at once.
#[must_use]
pub fn fault_ref_s() -> f64 {
    const MAP: usize = 64 << 20;
    const TOUCH: usize = 1 << 20;
    let t0 = Instant::now();
    for _ in 0..16 {
        let mut v: Vec<u8> = vec![0; MAP];
        for i in (0..TOUCH).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
    }
    t0.elapsed().as_secs_f64()
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A cheap cycle-counter clock for per-call spans, calibrated against
/// `Instant`. On x86-64 it reads the time-stamp counter (a few ns per read,
/// against ~20 ns for `Instant::now`); elsewhere it falls back to `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ns_per_tick: f64,
    /// Ticks an empty span reads, subtracted from every span.
    overhead_ticks: f64,
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: RDTSC is available on every x86-64 processor and only
    // reads the time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Clock {
    /// Calibrate the tick rate over ~20 ms and the cost of an empty span.
    #[must_use]
    pub fn calibrate() -> Clock {
        let (i0, t0) = (Instant::now(), ticks());
        while i0.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (ns, tk) = (i0.elapsed().as_nanos() as f64, ticks() - t0);
        let ns_per_tick = ns / (tk.max(1) as f64);
        let mut samples = Vec::with_capacity(9);
        for _ in 0..9 {
            let n = 100_000u64;
            let mut acc = 0u64;
            for _ in 0..n {
                let a = ticks();
                acc = acc.wrapping_add(std::hint::black_box(ticks() - a));
            }
            samples.push(acc as f64 / n as f64);
        }
        Clock {
            ns_per_tick,
            overhead_ticks: median(&samples),
        }
    }

    /// Start a span.
    #[inline(always)]
    #[must_use]
    pub fn start(&self) -> u64 {
        ticks()
    }

    /// Close a span started at `t0` into `span`.
    #[inline(always)]
    pub fn stop(&self, t0: u64, span: &mut Span) {
        let t = (ticks().wrapping_sub(t0) as f64 - self.overhead_ticks).max(0.0);
        span.ns += t * self.ns_per_tick;
        span.calls += 1;
    }
}

/// A sum of spans with the clock's own cost removed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ns: f64,
    pub calls: u64,
}

impl Span {
    /// Record a batch of `calls` timed as one span (batches are long
    /// enough that `Instant` costs nothing measurable).
    pub fn add_batch(&mut self, t0: Instant, calls: u64) {
        self.ns += t0.elapsed().as_nanos() as f64;
        self.calls += calls;
    }

    /// Mean nanoseconds per call (0 when nothing was recorded).
    #[must_use]
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Where a result came from, so that numbers are only compared like with
/// like: core count, CPU model, compiler, and the code's identity.
#[must_use]
pub fn provenance_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a checkout's own `.git`: git would otherwise search the
    // directories above the checkout.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let commit = commit.map_or_else(|| "null".to_string(), |c| format!("\"{}\"", escape(&c)));
    format!(
        "{{\"provenance\":{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\
         \"git_commit\":{commit},\"source_digest\":\"{:016x}\"}}}}",
        escape(&cpu),
        escape(env!("CCBENCH_RUSTC_VERSION")),
        source_digest()
    )
}

/// FNV-1a over every Rust source and manifest under `crates/` (sorted by
/// path): identifies the simulator's code where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        if let Ok(b) = std::fs::read(&f) {
            bytes.extend_from_slice(&b);
        }
    }
    fnv1a(&bytes)
}

/// Minimal JSON string escaping for the benchmark's own output.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert!((tail_quantile_level(400, 0.95) - 0.95).abs() < 1e-12);
        assert!((tail_quantile_level(100, 0.95) - 0.9).abs() < 1e-12);
    }
}
