//! `submit` — the client for the `campaignd` service (`serve`).
//!
//! One request per connection, one line each way:
//!
//! - `submit --socket S submit [--trials N] [--seed N] [--priority P]
//!   [--tag T] [--idempotency-key K] [--wait] [--wait-timeout SECS]
//!   [--retry-budget N]` — submit a table4 job. Prints `accepted <id>`.
//!   With `--idempotency-key K` the submit is safe to retry verbatim: a
//!   key the server has already seen answers with the existing job's id
//!   instead of enqueueing a duplicate, so a retry after a wait timeout
//!   (exit 10) never double-runs work. With `--wait`, opens a `watch`
//!   stream and follows the server's sequence-numbered `event` frames
//!   (and liveness heartbeats) until the job is terminal, then exits
//!   with the job's own recorded exit code. A dropped stream (server
//!   restart, read timeout) reconnects with deterministic jittered
//!   exponential backoff *from the last-seen sequence number*, so no
//!   transition is re-delivered; `--retry-budget N` (default 32) bounds
//!   *consecutive* failed reconnects and `--wait-timeout SECS` (default
//!   300, `0` = forever) bounds the whole wait. Either bound trips
//!   [`EXIT_WAIT_TIMEOUT`] (10).
//! - `submit --socket S status <id>` — print the job's status line.
//! - `submit --socket S cancel <id> [--wait]` (or `--cancel <id>`) —
//!   cancel a job: dequeued immediately if still queued, preempted at
//!   the engine's next claim boundary if running. With `--wait`, follow
//!   the job to its terminal state (normally `cancelled`, exit 11 —
//!   unless it finished first).
//! - `submit --socket S ping` / `shutdown` — liveness probe / ask the
//!   server to drain (the same graceful path as SIGTERM).
//!
//! Every socket carries read/write timeouts, so a wedged server can
//! stall a request only briefly — never hang the client.
//!
//! Typed exit codes: 8 (`EXIT_QUEUE_FULL`) when the submission was
//! rejected by backpressure, 9 (`EXIT_DEGRADED`) when the job was shed
//! under overload, 10 (`EXIT_WAIT_TIMEOUT`) when the client stopped
//! waiting, 11 (`EXIT_CANCELLED`) when the job was cancelled, otherwise
//! the job's recorded campaign exit code.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use sectlb_bench::cli;
use sectlb_bench::exit::{
    usage, EXIT_CANCELLED, EXIT_DEGRADED, EXIT_QUEUE_FULL, EXIT_SETUP, EXIT_WAIT_TIMEOUT,
};
use sectlb_secbench::codec::Word;
use sectlb_secbench::run::splitmix64;
use sectlb_secbench::service::{JobSpec, JobState, Request, Response};

/// Per-socket read/write timeout. Generous next to the server's
/// heartbeat cadence, so an idle-but-healthy watch stream never trips it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Connects with both directions' timeouts armed.
fn connect(socket: &Path) -> std::io::Result<UnixStream> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Sends one request and reads the one-line response.
fn roundtrip(socket: &Path, request: &Request) -> std::io::Result<Response> {
    let mut stream = connect(socket)?;
    writeln!(stream, "{}", request.encode())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Response::decode(line.trim_end())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Deterministic jittered exponential backoff: doubling from 50ms,
/// capped at 2s, with up to a quarter-period of seed-derived jitter so
/// reconnecting clients don't stampede in lockstep — yet a fixed
/// `(job, attempt)` pair always sleeps the same amount (reproducible
/// transcripts).
fn backoff(job: u64, attempt: u32) -> Duration {
    let base: u64 = (50u64 << attempt.min(5)).min(2000);
    let jitter = splitmix64(job ^ u64::from(attempt)) % (base / 4 + 1);
    Duration::from_millis(base + jitter)
}

/// The fallback exit code for a terminal state whose event carried none.
fn state_exit_code(state: JobState, exit: Option<i32>) -> i32 {
    exit.unwrap_or(match state {
        JobState::Shed => EXIT_DEGRADED,
        JobState::Cancelled => EXIT_CANCELLED,
        _ => 1,
    })
}

/// Follows a submitted job to a terminal state via the server's `watch`
/// stream, tolerating restarts and timeouts by reconnecting under a
/// bounded retry budget. Each reconnect resumes from the last-seen
/// sequence number, so a transition the client already printed is never
/// delivered twice.
fn wait_for(socket: &Path, job: u64, wait_timeout: Duration, retry_budget: u32) -> ! {
    let deadline = (wait_timeout > Duration::ZERO).then(|| Instant::now() + wait_timeout);
    let mut failures: u32 = 0;
    let mut last_seen: u64 = 0;
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            eprintln!(
                "submit: wait timeout: job {job} not terminal after {}s",
                wait_timeout.as_secs()
            );
            std::process::exit(EXIT_WAIT_TIMEOUT);
        }
        match watch_once(socket, job, deadline, &mut last_seen) {
            // Terminal transition: report and exit with the job's code.
            Ok(Response::Event { state, exit, .. }) if state.is_terminal() => {
                println!("job {job} {}", state.name());
                std::process::exit(state_exit_code(state, exit));
            }
            // A pre-event server answering the watch with a one-shot
            // terminal status line gets the same treatment.
            Ok(Response::Status { state, exit, .. }) if state.is_terminal() => {
                println!("job {job} {}", state.name());
                std::process::exit(state_exit_code(state, exit));
            }
            Ok(Response::UnknownJob { .. }) => {
                eprintln!("submit: job {job} vanished from the server");
                std::process::exit(1);
            }
            // Draining: the server is shutting down but its manifest
            // carries the job across a restart — keep waiting.
            Ok(Response::Draining) | Ok(_) => failures = 0,
            // Connect/read errors: the server may be mid-restart. A
            // deadline expiry mid-stream is not a failure — loop back to
            // the top, which reports it and exits.
            Err(_) if deadline.is_some_and(|d| Instant::now() >= d) => continue,
            Err(_) => {
                failures += 1;
                if failures > retry_budget {
                    eprintln!(
                        "submit: retry budget exhausted: {failures} consecutive failures \
                         reaching campaignd at {}",
                        socket.display()
                    );
                    std::process::exit(EXIT_WAIT_TIMEOUT);
                }
            }
        }
        std::thread::sleep(backoff(job, failures));
    }
}

/// One `watch` stream, resuming from `*last_seen`: reads heartbeat and
/// `event` frames, advancing the cursor past every delivered transition,
/// until a terminal event, another final line, an error, or the wait
/// deadline. Heartbeats only prove liveness so the read timeout doesn't
/// fire mid-wait — the deadline must be enforced here too, or a healthy
/// stream would heartbeat straight past it.
fn watch_once(
    socket: &Path,
    job: u64,
    deadline: Option<Instant>,
    last_seen: &mut u64,
) -> std::io::Result<Response> {
    let mut stream = connect(socket)?;
    let watch = Request::Watch {
        job,
        from: *last_seen,
    };
    writeln!(stream, "{}", watch.encode())?;
    let mut reader = BufReader::new(stream);
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "wait deadline passed",
            ));
        }
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("watch stream closed"));
        }
        let response = Response::decode(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        match response {
            Response::Heartbeat { .. } => {}
            Response::Event { seq, state, .. } => {
                *last_seen = (*last_seen).max(seq);
                if state.is_terminal() {
                    return Ok(response);
                }
            }
            other => return Ok(other),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(
        &args,
        &[
            "--socket",
            "--cancel",
            "--wait-timeout",
            "--retry-budget",
            "--trials",
            "--seed",
            "--priority",
            "--tag",
            "--idempotency-key",
            "--wait",
        ],
    );
    let socket = cli::value_flag(&args, "--socket")
        .map(Path::new)
        .unwrap_or_else(|| usage("submit: --socket PATH is required"));
    let command = args
        .iter()
        .skip(1)
        .find(|a| ["submit", "status", "cancel", "ping", "shutdown"].contains(&a.as_str()))
        .map(String::as_str)
        // `--cancel ID` is sugar for the `cancel ID` command.
        .or_else(|| cli::value_flag(&args, "--cancel").map(|_| "cancel"))
        .unwrap_or_else(|| {
            usage("submit: need a command: submit | status ID | cancel ID | ping | shutdown")
        });

    let wait_timeout = Duration::from_secs(cli::num_flag(&args, "--wait-timeout", 300));
    let retry_budget: u32 = cli::num_flag(&args, "--retry-budget", 32);

    let request = match command {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "status" => {
            let id = args
                .iter()
                .skip_while(|a| *a != "status")
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage("submit: status needs a job id"));
            Request::Status(id)
        }
        "cancel" => {
            let id = args
                .iter()
                .skip_while(|a| *a != "cancel" && *a != "--cancel")
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage("submit: cancel needs a job id"));
            Request::Cancel(id)
        }
        _ => {
            let defaults = JobSpec::default();
            let spec = JobSpec {
                trials: cli::num_flag(&args, "--trials", defaults.trials),
                seed: cli::num_flag(&args, "--seed", defaults.seed),
                priority: cli::num_flag(&args, "--priority", defaults.priority),
                tag: cli::value_flag(&args, "--tag")
                    .unwrap_or(&defaults.tag)
                    .to_owned(),
                key: cli::value_flag(&args, "--idempotency-key").map(str::to_owned),
                ..defaults
            };
            if let Err(e) = spec.validate() {
                usage(format!("submit: {e}"));
            }
            Request::Submit(spec)
        }
    };

    let response = roundtrip(socket, &request).unwrap_or_else(|e| {
        eprintln!(
            "submit: cannot reach campaignd at {}: {e}",
            socket.display()
        );
        std::process::exit(EXIT_SETUP);
    });
    match response {
        Response::Accepted { job } => {
            println!("accepted {job}");
            if args.iter().any(|a| a == "--wait") {
                wait_for(socket, job, wait_timeout, retry_budget);
            }
        }
        Response::Rejected { reason } if reason == "queue-full" => {
            eprintln!("submit: rejected: queue full (backpressure) — resubmit later");
            std::process::exit(EXIT_QUEUE_FULL);
        }
        Response::Rejected { reason } => usage(format!("submit: rejected: {reason}")),
        Response::Status { job, state, exit } => {
            match exit {
                Some(code) => println!("job {job} {} exit {code}", state.name()),
                None => println!("job {job} {}", state.name()),
            }
            // A cancel of a running job is asynchronous — the engine
            // preempts at its next claim boundary. `--wait` follows it
            // to the terminal state (normally `cancelled`, exit 11).
            if command == "cancel" && !state.is_terminal() && args.iter().any(|a| a == "--wait") {
                wait_for(socket, job, wait_timeout, retry_budget);
            }
        }
        Response::UnknownJob { job } => {
            eprintln!("submit: no such job {job}");
            std::process::exit(1);
        }
        Response::Pong => println!("pong"),
        Response::Draining => println!("draining"),
        Response::Heartbeat { job } | Response::Event { job, .. } => {
            // Only a `watch` stream emits heartbeats and events; seeing
            // one as a one-shot reply means the protocol desynchronized.
            eprintln!("submit: unexpected stream frame for job {job}");
            std::process::exit(1);
        }
        Response::Error(e) => usage(format!("submit: server error: {e}")),
    }
}
