//! `ccsim-serve` — the sweep-as-a-service daemon and its client modes.
//!
//! ```text
//! ccsim-serve serve  --state DIR [--addr HOST:PORT] [--threads N]
//!                    [--max-queue N] [--client-events N] [--retries N]
//! ccsim-serve submit --addr HOST:PORT --experiment ID [--client NAME]
//!                    [--quick] [--seed N] [--replications N] [--audit]
//!                    [--mpls A,B,C]
//! ccsim-serve watch  --addr HOST:PORT --hash HEX
//! ccsim-serve status --addr HOST:PORT
//! ```
//!
//! `serve` prints `listening on ADDR` once bound (useful with port 0),
//! runs until SIGTERM/SIGINT, then drains: in-flight grid points finish
//! and are checkpointed, watchers get `paused`, and a restart with the
//! same `--state` resumes every unfinished job to byte-identical output.
//!
//! The client modes speak the daemon's line-delimited JSON protocol and
//! relay each event line to stdout. `submit` exits 0 on `done`, 3 on
//! `rejected` (retryable), 4 on `paused` (re-`watch` after the daemon
//! restarts), 1 on `error`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use ccsim_experiments::RetryPolicy;
use ccsim_serve::{start, JobSpec, ServerConfig};

mod shutdown {
    use std::sync::atomic::AtomicBool;

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() {
        use std::sync::atomic::Ordering;
        extern "C" fn on_signal(_sig: i32) {
            REQUESTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is libc's `sighandler_t signal(int,
        // sighandler_t)`; both `sighandler_t` and `usize` are
        // pointer-sized, and the handler is a `'static` `extern "C"
        // fn(i32)`, the ABI the kernel calls. The handler is
        // async-signal-safe: it only stores to a lock-free `AtomicBool`
        // (no allocation, no locks, no I/O). A failed install (`SIG_ERR`,
        // ignored here) leaves the default disposition, which terminates
        // the process as it would have without this handler.
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: ccsim-serve <serve|submit|watch|status> [flags]  (--help for details)");
        return ExitCode::from(2);
    }
    let mode = args.remove(0);
    let run = match mode.as_str() {
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "watch" => cmd_watch(&args),
        "status" => cmd_status(&args),
        "--help" | "-h" | "help" => {
            println!("{}", HELP.trim());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown mode {other:?} (--help for usage)")),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ccsim-serve: {e}");
            ExitCode::from(2)
        }
    }
}

const HELP: &str = r#"
ccsim-serve — sweep-as-a-service daemon for the ccsim reproduction

  serve  --state DIR [--addr HOST:PORT] [--threads N] [--max-queue N]
         [--client-events N] [--retries N]
         Run the daemon. Prints "listening on ADDR" once bound; SIGTERM
         or SIGINT drains (checkpoints in-flight points) and exits.

  submit --addr HOST:PORT --experiment ID [--client NAME] [--quick]
         [--seed N] [--replications N] [--audit] [--mpls A,B,C]
         Submit a sweep and stream its events until done.

  watch  --addr HOST:PORT --hash HEX
         Re-attach to a job's event stream by config hash.

  status --addr HOST:PORT
         Print the job table.
"#;

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut state: Option<PathBuf> = None;
    let mut cfg_addr: Option<String> = None;
    let mut threads = 0usize;
    let mut max_queue = 16usize;
    let mut client_events = None;
    let mut retries = 3u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--state" => state = Some(PathBuf::from(take_value(args, &mut i, "--state")?)),
            "--addr" => cfg_addr = Some(take_value(args, &mut i, "--addr")?),
            "--threads" => {
                threads = take_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--max-queue" => {
                max_queue = take_value(args, &mut i, "--max-queue")?
                    .parse()
                    .map_err(|e| format!("bad --max-queue: {e}"))?;
            }
            "--client-events" => {
                client_events = Some(
                    take_value(args, &mut i, "--client-events")?
                        .parse()
                        .map_err(|e| format!("bad --client-events: {e}"))?,
                );
            }
            "--retries" => {
                retries = take_value(args, &mut i, "--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?;
                if retries == 0 {
                    return Err("--retries must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
        i += 1;
    }
    let state = state.ok_or("serve needs --state DIR")?;
    let mut cfg = ServerConfig::new(&state);
    if let Some(addr) = cfg_addr {
        cfg.addr = addr;
    }
    cfg.threads = threads;
    cfg.max_queue = max_queue;
    cfg.client_events = client_events;
    cfg.retry = RetryPolicy::retries(retries);

    shutdown::install();
    let handle = start(cfg)?;
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    while !shutdown::REQUESTED.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("ccsim-serve: draining (in-flight points will be checkpointed)");
    handle.drain();
    eprintln!("ccsim-serve: drained; restart with the same --state to resume");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut experiment = None;
    let mut spec_overrides: Vec<(&str, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--experiment" => experiment = Some(take_value(args, &mut i, "--experiment")?),
            "--client" => spec_overrides.push(("client", take_value(args, &mut i, "--client")?)),
            "--quick" => spec_overrides.push(("fidelity", "quick".to_string())),
            "--paper" => spec_overrides.push(("fidelity", "paper".to_string())),
            "--seed" => spec_overrides.push(("seed", take_value(args, &mut i, "--seed")?)),
            "--replications" => {
                spec_overrides.push(("replications", take_value(args, &mut i, "--replications")?));
            }
            "--audit" => spec_overrides.push(("audit", "true".to_string())),
            "--mpls" => spec_overrides.push(("mpls", take_value(args, &mut i, "--mpls")?)),
            other => return Err(format!("unknown submit flag {other:?}")),
        }
        i += 1;
    }
    let addr = addr.ok_or("submit needs --addr HOST:PORT")?;
    let experiment = experiment.ok_or("submit needs --experiment ID")?;
    let mut spec = JobSpec::quick(&experiment);
    spec.fidelity = ccsim_experiments::Fidelity::Quick;
    for (key, value) in spec_overrides {
        match key {
            "client" => spec.client = value,
            "fidelity" => {
                spec.fidelity = if value == "paper" {
                    ccsim_experiments::Fidelity::Paper
                } else {
                    ccsim_experiments::Fidelity::Quick
                };
            }
            "seed" => spec.base_seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "replications" => {
                spec.replications = value
                    .parse()
                    .map_err(|e| format!("bad --replications: {e}"))?;
            }
            "audit" => spec.audit = true,
            "mpls" => {
                let mut mpls = Vec::new();
                for part in value.split(',') {
                    mpls.push(
                        part.trim()
                            .parse()
                            .map_err(|e| format!("bad --mpls: {e}"))?,
                    );
                }
                spec.mpls = Some(mpls);
            }
            _ => unreachable!(),
        }
    }
    let request = format!("{{\"op\":\"submit\",\"spec\":{}}}", spec.to_json());
    relay(&addr, &request)
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut hash = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            "--hash" => hash = Some(take_value(args, &mut i, "--hash")?),
            other => return Err(format!("unknown watch flag {other:?}")),
        }
        i += 1;
    }
    let addr = addr.ok_or("watch needs --addr HOST:PORT")?;
    let hash = hash.ok_or("watch needs --hash HEX")?;
    relay(&addr, &format!("{{\"op\":\"watch\",\"hash\":\"{hash}\"}}"))
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?),
            other => return Err(format!("unknown status flag {other:?}")),
        }
        i += 1;
    }
    let addr = addr.ok_or("status needs --addr HOST:PORT")?;
    relay(&addr, "{\"op\":\"status\"}")
}

/// Send one request line, relay every response line to stdout, and map
/// the terminal event to an exit code.
fn relay(addr: &str, request: &str) -> Result<ExitCode, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut code = ExitCode::SUCCESS;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection lost: {e}"))?;
        println!("{line}");
        if line.starts_with("{\"event\":\"error\"") {
            code = ExitCode::from(1);
        } else if line.starts_with("{\"event\":\"rejected\"") {
            code = ExitCode::from(3);
        } else if line.starts_with("{\"event\":\"paused\"") {
            code = ExitCode::from(4);
        }
    }
    Ok(code)
}
