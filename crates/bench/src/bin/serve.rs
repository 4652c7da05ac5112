//! `campaignd` — the long-running campaign service.
//!
//! Listens on a unix domain socket for one-line requests (see
//! `sectlb_secbench::service`), multiplexes accepted jobs over a shared
//! worker budget, and keeps every promise crash-safe:
//!
//! - **Backpressure**: submissions beyond `--queue-capacity` are
//!   rejected with `rejected queue-full`; the `submit` client exits 8.
//! - **Load shedding**: once the backlog crosses `--shed-watermark`, the
//!   lowest-priority queued jobs are shed (status `shed`, exit 9 for
//!   their waiting clients) instead of starving silently.
//! - **Graceful drain**: the first SIGTERM/SIGINT (or a `shutdown`
//!   request) stops accepting connections, lets every in-flight job
//!   drain through the engine's signal-safe claim boundary — flushing
//!   its per-job checkpoint — and persists the job manifest. A restarted
//!   server re-enqueues every non-terminal job, and the determinism
//!   contract makes the resumed outputs bitwise identical to jobs that
//!   were never interrupted.
//! - **Hardened transport**: every accepted connection runs on its own
//!   thread with `--io-timeout-ms` read/write timeouts and a bounded
//!   request line, so a wedged or malicious client stalls only its own
//!   connection — never the accept loop, pings, or other jobs. A
//!   `watch <id>` request streams `heartbeat` lines every
//!   [`HEARTBEAT_INTERVAL`] until the job is terminal.
//! - **Checksummed, recoverable manifest**: the manifest is sealed in
//!   the CRC frame and written atomically with a previous-good
//!   generation; a corrupt manifest on startup falls back to the
//!   previous generation (or a fresh state dir) with a warning instead
//!   of refusing to start.
//! - **Hard-crash recovery**: a `kill -9` needs no goodbye. On startup
//!   the server reaps orphaned `*.tmp.*` staging files, then walks the
//!   manifest: terminal entries keep their recorded state and exit,
//!   non-terminal entries are checked against their per-job terminal
//!   marker (`done.txt`, written atomically *before* the manifest flush)
//!   — a marker means the job actually finished and is restored terminal
//!   instead of re-run; everything else re-enters the queue and resumes
//!   from its checkpoint, bitwise identical by the determinism contract
//!   (the recovery state machine is DESIGN.md §12).
//! - **Idempotent submission**: a submit carrying `key=<k>` when some
//!   job already holds idempotency key `k` is answered with that job's
//!   id — a client retrying a timed-out `submit --wait` verbatim never
//!   double-runs work.
//! - **Cancellation**: `cancel <id>` dequeues a still-queued job, or
//!   trips the running job's per-run [`CancelFlag`] so the engine
//!   preempts it at the same graceful-stop boundary a SIGTERM drains
//!   through. Cancelled is terminal (exit 11) and survives restarts.
//! - **Resumable watch streams**: every state transition is sequence-
//!   numbered and persisted; `watch <id> <seq>` replays the transitions
//!   the client missed, then streams heartbeats until the next one.
//!
//! Per job, under `--state DIR/jobs/<id>/`: `ck.txt` (crash-safe
//! checkpoint), `events.jsonl` (the job's own telemetry stream, including
//! the scheduler's steal/stall/death events), `output.txt` (the rendered
//! table), `summary.txt` (pool counters plus any stall reports) and
//! `done.txt` (the terminal marker).
//!
//! Usage: `serve --socket PATH --state DIR [--queue-capacity N]
//! [--shed-watermark N] [--max-active N] [--workers N|auto]
//! [--events PATH] [--io-timeout-ms N] [--inject-io KIND[:PM]]
//! [--inject-panics PM] [--inject-stall PM] [--inject-stall-ms MS]
//! [--inject-worker-death W:K] [--fault-seed S]` — the engine-level
//! injectors reach every job's run policy, so the chaos harness can
//! compose them with server kills and transport faults.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::num::NonZeroUsize;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use sectlb_bench::cli;
use sectlb_bench::exit::{usage, EXIT_CANCELLED, EXIT_DEGRADED, EXIT_SETUP};
use sectlb_secbench::codec::Word;
use sectlb_secbench::iofault::{self, IoInjector};
use sectlb_secbench::report::build_table4_resilient_observed_for;
use sectlb_secbench::resilience::{FaultPlan, RunPolicy};
use sectlb_secbench::run::TrialSettings;
use sectlb_secbench::service::{
    decode_manifest_stored, decode_terminal_marker, encode_manifest, encode_terminal_marker,
    JobQueue, JobSpec, JobState, ManifestEntry, QueuedJob, Request, Response, ServiceError,
    SubmitError, HEARTBEAT_INTERVAL,
};
use sectlb_secbench::supervisor::{self, BudgetPolicy, CancelFlag, StopReason, Supervisor};
use sectlb_secbench::telemetry::{duration_ns, Event, Telemetry};
use sectlb_secbench::CheckpointPolicy;
use sectlb_sim::machine::TlbDesign;

/// Longest request line the server will read; anything longer is a
/// malformed frame rejected on that one connection.
const MAX_REQUEST_LINE: u64 = 4096;

/// Everything the accept loop, runners, and drain path share.
struct ServerState {
    queue: JobQueue,
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    draining: bool,
}

#[derive(Clone)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    exit: Option<i32>,
    /// Sequence number of the latest state transition. Persisted in the
    /// manifest so watch streams stay monotone across server restarts.
    seq: u64,
    /// Every `(seq, state, exit)` transition this server knows about, in
    /// order — the replay source for `watch <id> <from>`. Bounded: a job
    /// makes at most a handful of transitions in its life.
    history: Vec<(u64, JobState, Option<i32>)>,
    /// Armed while the job is running; `cancel <id>` trips it and the
    /// engine preempts at the next graceful-stop claim boundary.
    cancel: Option<CancelFlag>,
}

impl JobRecord {
    fn new(spec: JobSpec, state: JobState, exit: Option<i32>, seq: u64) -> JobRecord {
        JobRecord {
            spec,
            state,
            exit,
            seq,
            history: vec![(seq, state, exit)],
            cancel: None,
        }
    }
}

/// Advances a job to its next state under the caller's lock, assigning
/// the transition the next sequence number and appending it to the
/// replay history.
fn transition(state: &mut ServerState, id: u64, to: JobState, exit: Option<i32>) {
    if let Some(r) = state.jobs.get_mut(&id) {
        r.seq += 1;
        r.state = to;
        r.exit = exit;
        r.history.push((r.seq, to, exit));
    }
}

struct Server {
    state: Mutex<ServerState>,
    wake: Condvar,
    state_dir: PathBuf,
    job_workers: NonZeroUsize,
    telemetry: Telemetry,
    io_timeout: Duration,
    injector: IoInjector,
    job_faults: Option<FaultPlan>,
}

impl Server {
    fn manifest_text(&self, state: &ServerState) -> String {
        let mut ids: Vec<u64> = state.jobs.keys().copied().collect();
        ids.sort_unstable();
        let entries: Vec<ManifestEntry> = ids
            .into_iter()
            .map(|id| {
                let r = &state.jobs[&id];
                ManifestEntry {
                    id,
                    state: r.state,
                    seq: r.seq,
                    exit: r.exit,
                    spec: r.spec.clone(),
                }
            })
            .collect();
        encode_manifest(state.next_id, &entries)
    }

    /// Writes the manifest crash-safely: sealed in the CRC frame, staged
    /// through a temp file + atomic rename + directory fsync, rotating a
    /// valid current manifest to `manifest.txt.prev` first — exactly the
    /// checkpoint layer's discipline, and through the same `--inject-io`
    /// seam. A failed flush costs recoverability, not the server.
    fn flush_manifest(&self, state: &ServerState) {
        let path = self.state_dir.join("manifest.txt");
        let sealed = iofault::seal(&self.manifest_text(state));
        let wrote = iofault::write_generations(&path, sealed.as_bytes(), &self.injector, |text| {
            decode_manifest_stored(text).is_ok()
        });
        if let Err(e) = wrote {
            eprintln!("campaignd: warning: manifest flush failed: {e}");
        }
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.state_dir.join("jobs").join(id.to_string())
    }

    /// Runs one job to completion (or to a graceful-drain interruption,
    /// or a client cancellation) and records the outcome. Returns `true`
    /// if the job reached a terminal state.
    fn run_job(&self, job: &QueuedJob, cancel: &CancelFlag) -> bool {
        let dir = self.job_dir(job.id);
        if std::fs::create_dir_all(&dir).is_err() {
            self.finish_job(job.id, JobState::Failed, EXIT_SETUP);
            return true;
        }
        let ck = dir.join("ck.txt");
        let settings = TrialSettings {
            trials: job.spec.trials,
            base_seed: job.spec.seed,
            workers: Some(self.job_workers),
            ..TrialSettings::default()
        };
        let policy = RunPolicy {
            checkpoint: Some(CheckpointPolicy {
                path: ck.clone(),
                every: 4,
            }),
            // A missing checkpoint is a fresh start, so resume is
            // idempotent: first runs and restarts share one policy.
            resume: Some(ck),
            // `--inject-io` reaches the per-job checkpoints too: job
            // saves tear/fail and job resumes recover through the
            // generation chain, with output unchanged byte for byte.
            faults: self.job_faults,
            // `cancel <id>` trips this flag; the engine preempts at the
            // same claim boundary the drain latch uses, but only for
            // this one job.
            cancel: Some(cancel.clone()),
            ..RunPolicy::default()
        };
        let job_events = Telemetry::to_path("campaignd", &dir.join("events.jsonl"))
            .unwrap_or_else(|_| Telemetry::disabled());
        self.telemetry.emit(Event::JobStarted { job: job.id });
        let started = std::time::Instant::now();
        let built = build_table4_resilient_observed_for(
            &TlbDesign::ALL,
            &settings,
            self.job_workers,
            &policy,
            &job_events,
        );
        job_events.flush();
        match built {
            Err(e) => {
                eprintln!("campaignd: job {} failed: {e}", job.id);
                self.finish_job(job.id, JobState::Failed, e.exit_code());
                self.telemetry.emit(Event::JobCompleted {
                    job: job.id,
                    status: "failed".to_owned(),
                    wall_ns: duration_ns(started.elapsed()),
                });
                true
            }
            Ok(report) if report.stop == Some(StopReason::Interrupted) => {
                // Drained mid-run: the checkpoint holds its progress and
                // the manifest keeps it `running`, so a restarted server
                // resumes it bitwise-identically. Not terminal.
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(r) = s.jobs.get_mut(&job.id) {
                    r.cancel = None;
                }
                false
            }
            Ok(report) if report.stop == Some(StopReason::Cancelled) => {
                // Preempted at a claim boundary by a client cancel. The
                // partial table is discarded — a cancelled job has no
                // output — and the terminal marker plus manifest pin
                // `cancelled` across restarts.
                self.finish_job(job.id, JobState::Cancelled, EXIT_CANCELLED);
                self.telemetry.emit(Event::JobCompleted {
                    job: job.id,
                    status: "cancelled".to_owned(),
                    wall_ns: duration_ns(started.elapsed()),
                });
                true
            }
            Ok(report) => {
                let _ = std::fs::write(dir.join("output.txt"), report.render());
                let mut summary = format!(
                    "job {} tag {}\n{}\n",
                    job.id,
                    job.spec.tag,
                    report.stats.render()
                );
                summary.push_str(&format!("stalls: {}\n", report.stalls.len()));
                for s in &report.stalls {
                    summary.push_str(&format!(
                        "stall: task {} worker {} waited {:?}\n",
                        s.task, s.worker, s.waited
                    ));
                }
                let _ = std::fs::write(dir.join("summary.txt"), summary);
                self.finish_job(job.id, JobState::Done, report.exit_code());
                self.telemetry.emit(Event::JobCompleted {
                    job: job.id,
                    status: "done".to_owned(),
                    wall_ns: duration_ns(started.elapsed()),
                });
                true
            }
        }
    }

    /// Writes the job's terminal marker (`done.txt`) atomically. The
    /// marker lands *before* the manifest flush, so a crash between the
    /// two leaves a non-terminal manifest entry whose marker proves the
    /// job actually finished — startup recovery restores the outcome
    /// instead of re-running the job (DESIGN.md §12).
    fn write_terminal_marker(&self, id: u64, state: JobState, exit: i32) {
        let dir = self.job_dir(id);
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let marker = encode_terminal_marker(state, exit);
        let wrote = iofault::write_atomic(&dir.join("done.txt"), marker.as_bytes(), &self.injector);
        if let Err(e) = wrote {
            eprintln!("campaignd: warning: job {id} terminal marker failed: {e}");
        }
    }

    fn finish_job(&self, id: u64, state: JobState, exit: i32) {
        self.write_terminal_marker(id, state, exit);
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        transition(&mut s, id, state, Some(exit));
        if let Some(r) = s.jobs.get_mut(&id) {
            r.cancel = None;
        }
        self.flush_manifest(&s);
    }

    /// One runner thread: pops jobs until the server drains. The cancel
    /// flag is armed in the same critical section that marks the job
    /// running, so a `cancel` request can never observe a running job
    /// without a flag to trip.
    fn runner(&self) {
        loop {
            let (job, cancel) = {
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if s.draining {
                        return;
                    }
                    if let Some(job) = s.queue.pop() {
                        let cancel = CancelFlag::new();
                        transition(&mut s, job.id, JobState::Running, None);
                        if let Some(r) = s.jobs.get_mut(&job.id) {
                            r.cancel = Some(cancel.clone());
                        }
                        self.flush_manifest(&s);
                        break (job, cancel);
                    }
                    s = self
                        .wake
                        .wait_timeout(s, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            };
            self.run_job(&job, &cancel);
        }
    }

    fn job_status(&self, id: u64) -> Response {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match s.jobs.get(&id) {
            None => Response::UnknownJob { job: id },
            Some(r) => Response::Status {
                job: id,
                state: r.state,
                exit: r.exit,
            },
        }
    }

    fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            // Watch is a streaming request served by `serve_watch`; a
            // one-shot snapshot is the safe answer if it lands here.
            Request::Watch { job, .. } => self.job_status(job),
            Request::Shutdown => {
                supervisor::trip_interrupt();
                Response::Draining
            }
            Request::Status(id) => self.job_status(id),
            Request::Cancel(id) => {
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                let snapshot = s.jobs.get(&id).map(|r| (r.state, r.exit, r.cancel.clone()));
                match snapshot {
                    None => Response::UnknownJob { job: id },
                    // Cancelling a finished job is idempotent: report
                    // the outcome it already reached.
                    Some((state, exit, _)) if state.is_terminal() => Response::Status {
                        job: id,
                        state,
                        exit,
                    },
                    Some((JobState::Queued, _, _)) => {
                        s.queue.remove(id);
                        self.write_terminal_marker(id, JobState::Cancelled, EXIT_CANCELLED);
                        transition(&mut s, id, JobState::Cancelled, Some(EXIT_CANCELLED));
                        self.flush_manifest(&s);
                        self.telemetry.emit(Event::JobCancelled {
                            job: id,
                            phase: "queued".to_owned(),
                        });
                        Response::Status {
                            job: id,
                            state: JobState::Cancelled,
                            exit: Some(EXIT_CANCELLED),
                        }
                    }
                    Some((state, exit, cancel)) => {
                        // Running: trip the per-run flag; the engine
                        // preempts at its next claim boundary and the
                        // runner records the terminal transition.
                        if let Some(flag) = cancel {
                            flag.trip();
                        }
                        self.telemetry.emit(Event::JobCancelled {
                            job: id,
                            phase: "running".to_owned(),
                        });
                        Response::Status {
                            job: id,
                            state,
                            exit,
                        }
                    }
                }
            }
            Request::Submit(spec) => {
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                // Idempotent retry: a submit whose key is already bound
                // to a job answers with that job's id — whatever state
                // it reached — instead of enqueueing a duplicate.
                if let Some(key) = spec.key.as_deref() {
                    let existing = s
                        .jobs
                        .iter()
                        .find(|(_, r)| r.spec.key.as_deref() == Some(key))
                        .map(|(&id, _)| id);
                    if let Some(id) = existing {
                        return Response::Accepted { job: id };
                    }
                }
                if s.draining {
                    return Response::Rejected {
                        reason: "draining".to_owned(),
                    };
                }
                let id = s.next_id;
                match s.queue.submit(QueuedJob {
                    id,
                    spec: spec.clone(),
                }) {
                    Err(SubmitError::Full) => {
                        self.telemetry.emit(Event::JobRejected {
                            job: id,
                            reason: "queue-full".to_owned(),
                        });
                        Response::Rejected {
                            reason: "queue-full".to_owned(),
                        }
                    }
                    Err(SubmitError::Internal(e)) => {
                        // A broken queue invariant is a server bug: no
                        // further scheduling decision can be trusted, so
                        // this is the one fault that takes the server
                        // down — typed, with the setup exit code, never
                        // a panic mid-request.
                        eprintln!("campaignd: fatal: {e}");
                        std::process::exit(e.exit_code());
                    }
                    Ok(shed) => {
                        s.next_id += 1;
                        s.jobs
                            .insert(id, JobRecord::new(spec.clone(), JobState::Queued, None, 1));
                        self.telemetry.emit(Event::JobAccepted {
                            job: id,
                            spec: spec.encode(),
                        });
                        for victim in shed {
                            self.write_terminal_marker(victim.id, JobState::Shed, EXIT_DEGRADED);
                            transition(&mut s, victim.id, JobState::Shed, Some(EXIT_DEGRADED));
                            self.telemetry.emit(Event::JobDegraded {
                                job: victim.id,
                                reason: "shed under overload".to_owned(),
                            });
                        }
                        self.flush_manifest(&s);
                        self.wake.notify_all();
                        Response::Accepted { job: id }
                    }
                }
            }
        }
    }
}

/// Serves one connection on its own thread. The stream carries the
/// server's read/write timeouts, the request line is bounded, and every
/// failure path — timeout, oversized line, malformed request, broken
/// pipe — costs exactly this connection: the accept loop, pings, and
/// running jobs never notice.
fn serve_connection(server: &Server, stream: UnixStream) {
    // The nonblocking accept loop may hand over a nonblocking stream;
    // connection threads want blocking reads bounded by the timeouts.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(server.io_timeout)).is_err()
        || stream.set_write_timeout(Some(server.io_timeout)).is_err()
    {
        return;
    }
    let reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader.take(MAX_REQUEST_LINE));
    let mut line = String::new();
    let mut stream = stream;
    match reader.read_line(&mut line) {
        // A wedged client: no complete line within the read timeout.
        // Shed the connection; the client can reconnect and behave.
        Err(_) | Ok(0) => return,
        Ok(_) if !line.ends_with('\n') && line.len() as u64 >= MAX_REQUEST_LINE => {
            let reply = Response::Error("request line too long".to_owned());
            let _ = writeln!(stream, "{}", reply.encode());
            return;
        }
        Ok(_) => {}
    }
    if line.trim_end().is_empty() {
        return;
    }
    let request = match Request::decode(line.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            // Malformed frame: error this one connection, keep serving.
            let _ = writeln!(stream, "{}", Response::Error(e).encode());
            return;
        }
    };
    if let Request::Watch { job, from } = request {
        serve_watch(server, stream, job, from);
        return;
    }
    let response = server.handle_request(request);
    let _ = writeln!(stream, "{}", response.encode());
}

/// Streams a watched job as sequence-numbered `event` lines: first a
/// replay of every transition past the client's `from` cursor, then a
/// `heartbeat` line every [`HEARTBEAT_INTERVAL`] until the next one, and
/// finally the terminal transition. The sequence numbers let a client
/// that lost its connection reconnect with `watch <id> <last-seen>` and
/// resume exactly where it left off — a transition is never skipped and
/// (terminal resends aside) never re-delivered. The heartbeats keep the
/// waiting client's read timeout honest — silence longer than the
/// interval means the server is actually gone, not that the job is
/// merely long.
fn serve_watch(server: &Server, mut stream: UnixStream, id: u64, from: u64) {
    server.telemetry.emit(Event::WatchConnect { job: id, from });
    let mut last = from;
    loop {
        let (replies, heartbeat, done) = {
            let s = server.state.lock().unwrap_or_else(|e| e.into_inner());
            match s.jobs.get(&id) {
                None => (vec![Response::UnknownJob { job: id }], false, true),
                Some(r) => {
                    let mut fresh: Vec<&(u64, JobState, Option<i32>)> =
                        r.history.iter().filter(|t| t.0 > last).collect();
                    if fresh.is_empty() && r.state.is_terminal() {
                        // The cursor claims to be past the terminal
                        // event; resend it (at-least-once) so the
                        // client always gets a final answer.
                        fresh.extend(r.history.last());
                    }
                    if fresh.is_empty() {
                        if s.draining {
                            // Draining: the job will outlive this server
                            // process, so close the watch honestly
                            // instead of heartbeating into a drain the
                            // client cannot see.
                            (vec![Response::Draining], false, true)
                        } else {
                            (vec![Response::Heartbeat { job: id }], true, false)
                        }
                    } else {
                        last = fresh.last().map_or(last, |t| t.0);
                        let events = fresh
                            .into_iter()
                            .map(|&(seq, state, exit)| Response::Event {
                                job: id,
                                seq,
                                state,
                                exit,
                            })
                            .collect();
                        (events, false, r.state.is_terminal())
                    }
                }
            }
        };
        for reply in replies {
            if writeln!(stream, "{}", reply.encode()).is_err() {
                return;
            }
        }
        if done {
            return;
        }
        if heartbeat {
            server.telemetry.emit(Event::HeartbeatSent { job: id });
            std::thread::sleep(HEARTBEAT_INTERVAL);
        } else {
            // Sent fresh non-terminal transitions; poll again shortly
            // for the next one.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// The path following `flag`, which must be given.
fn required_flag(args: &[String], flag: &str) -> PathBuf {
    cli::value_flag(args, flag)
        .map(PathBuf::from)
        .unwrap_or_else(|| usage(format!("campaignd: {flag} PATH is required")))
}

/// Removes orphaned `*.tmp.*` staging files a crashed server left
/// behind — at the state root (manifest staging) and in every job dir
/// (terminal-marker and checkpoint staging). An atomic-write temp is
/// garbage the moment its writer dies: the rename never happened, so
/// nothing references it, and reaping keeps `verify --strict` clean
/// after a `kill -9`.
fn reap_orphan_tmps(state_dir: &std::path::Path) -> u64 {
    let mut dirs = vec![state_dir.to_path_buf()];
    if let Ok(jobs) = std::fs::read_dir(state_dir.join("jobs")) {
        dirs.extend(jobs.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
    }
    let mut count = 0;
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_file()
                && name.to_string_lossy().contains(".tmp.")
                && std::fs::remove_file(&path).is_ok()
            {
                count += 1;
            }
        }
    }
    count
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(
        &args,
        &[
            cli::ENGINE_FLAGS,
            &[
                "--workers",
                "--events",
                "--socket",
                "--state",
                "--queue-capacity",
                "--shed-watermark",
                "--max-active",
                "--io-timeout-ms",
            ],
        ]
        .concat(),
    );
    let socket = required_flag(&args, "--socket");
    let state_dir = required_flag(&args, "--state");
    let capacity: usize = cli::num_flag(&args, "--queue-capacity", 8);
    let watermark: usize = cli::num_flag(&args, "--shed-watermark", capacity);
    let max_active: usize = cli::num_flag(&args, "--max-active", 2).max(1);
    let io_timeout = Duration::from_millis(cli::num_flag(&args, "--io-timeout-ms", 2000).max(1));
    // The full engine injector surface (panics, stalls, worker death,
    // I/O faults, the shared seed) reaches every job's run policy, so
    // the chaos harness composes them with server-side kills. The
    // manifest and marker writes share the I/O injector.
    let job_faults = cli::campaign_flags(&args).faults;
    let injector = match job_faults.and_then(|f| f.io) {
        Some(fault) => IoInjector::new(job_faults.map_or(0, |f| f.seed), fault),
        None => IoInjector::disabled(),
    };
    let pool = cli::workers_flag(&args).unwrap_or_else(cli::available_workers);
    // A static partition of the worker budget: every runner gets the
    // same share, so a job's shard schedule — and therefore its output —
    // never depends on what else the service happens to be running.
    let job_workers =
        NonZeroUsize::new((pool.get() / max_active).max(1)).unwrap_or(NonZeroUsize::MIN);
    let telemetry = match cli::events_flag(&args) {
        None => Telemetry::disabled(),
        Some(path) => match Telemetry::to_path("campaignd", &path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("campaignd: cannot open {}: {e}", path.display());
                std::process::exit(EXIT_SETUP);
            }
        },
    };

    if std::fs::create_dir_all(state_dir.join("jobs")).is_err() {
        eprintln!("campaignd: cannot create state dir {}", state_dir.display());
        std::process::exit(EXIT_SETUP);
    }
    let reaped = reap_orphan_tmps(&state_dir);
    if reaped > 0 {
        eprintln!("campaignd: reaped {reaped} orphaned tmp files");
        telemetry.emit(Event::TmpReaped { count: reaped });
    }
    let mut state = ServerState {
        queue: JobQueue::new(capacity, watermark),
        jobs: HashMap::new(),
        next_id: 1,
        draining: false,
    };
    // Restore the previous server's promises: terminal jobs keep their
    // recorded status, non-terminal jobs re-enter the queue and resume
    // from their checkpoints. A corrupt manifest falls back to its
    // previous good generation — and failing that starts fresh with a
    // warning (`verify` audits what was lost): refusing to start would
    // turn one torn write into a dead service.
    let manifest = state_dir.join("manifest.txt");
    let loaded = match std::fs::read_to_string(&manifest) {
        Err(_) => None,
        Ok(text) => match decode_manifest_stored(&text) {
            Ok(decoded) => Some(decoded),
            Err(e) => {
                eprintln!("campaignd: warning: corrupt manifest ({e}); trying previous generation");
                std::fs::read_to_string(iofault::prev_path(&manifest))
                    .ok()
                    .and_then(|prev| match decode_manifest_stored(&prev) {
                        Ok(decoded) => {
                            eprintln!("campaignd: recovered manifest from previous generation");
                            Some(decoded)
                        }
                        Err(e) => {
                            eprintln!(
                                "campaignd: warning: previous manifest generation is also \
                                 unreadable ({e}); starting with an empty job table"
                            );
                            None
                        }
                    })
            }
        },
    };
    if let Some((next_id, entries)) = loaded {
        state.next_id = next_id;
        for e in entries {
            let record = if e.state.is_terminal() {
                // Legacy manifests carried no exit code; shed was the
                // only terminal state whose exit a restart had to know.
                let exit = e.exit.or(match e.state {
                    JobState::Shed => Some(EXIT_DEGRADED),
                    _ => None,
                });
                JobRecord::new(e.spec, e.state, exit, e.seq)
            } else {
                // Non-terminal in the manifest — but a valid terminal
                // marker proves the job finished and the server died
                // between the marker and the manifest flush: restore
                // the recorded outcome instead of re-running the job.
                let marker_path = state_dir
                    .join("jobs")
                    .join(e.id.to_string())
                    .join("done.txt");
                let marker = std::fs::read_to_string(&marker_path)
                    .ok()
                    .and_then(|text| decode_terminal_marker(&text).ok());
                match marker {
                    Some((final_state, exit)) => {
                        telemetry.emit(Event::JobRecovered {
                            job: e.id,
                            action: final_state.name().to_owned(),
                        });
                        JobRecord::new(e.spec, final_state, Some(exit), e.seq + 1)
                    }
                    None => {
                        // Genuinely unfinished: back into the queue, to
                        // resume from its checkpoint.
                        telemetry.emit(Event::JobRecovered {
                            job: e.id,
                            action: "requeued".to_owned(),
                        });
                        state.queue.restore(QueuedJob {
                            id: e.id,
                            spec: e.spec.clone(),
                        });
                        let seq = if e.state == JobState::Queued {
                            e.seq
                        } else {
                            e.seq + 1
                        };
                        JobRecord::new(e.spec, JobState::Queued, None, seq)
                    }
                }
            };
            state.jobs.insert(e.id, record);
        }
    }

    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("campaignd: cannot bind {}: {e}", socket.display());
            std::process::exit(EXIT_SETUP);
        }
    };
    if let Err(err) = listener.set_nonblocking(true) {
        let e = ServiceError::Socket {
            op: "set nonblocking accept",
            err,
        };
        eprintln!("campaignd: fatal: {e}");
        std::process::exit(e.exit_code());
    }
    supervisor::install_signal_handlers();

    let restored = state.queue.len();
    let server = Server {
        state: Mutex::new(state),
        wake: Condvar::new(),
        state_dir,
        job_workers,
        telemetry,
        io_timeout,
        injector,
        job_faults,
    };
    {
        let s = server.state.lock().unwrap_or_else(|e| e.into_inner());
        server.flush_manifest(&s);
    }
    eprintln!(
        "campaignd: listening on {} ({} runners x {} workers, queue {} / shed {}, {} jobs restored)",
        socket.display(),
        max_active,
        job_workers,
        capacity,
        watermark,
        restored
    );

    // The drain latch is the supervisor's signal latch: SIGTERM, SIGINT,
    // and the `shutdown` request all trip the same path the engines
    // already drain on.
    let latch = Supervisor::new(BudgetPolicy::default());
    std::thread::scope(|scope| {
        let mut runners = Vec::new();
        for _ in 0..max_active {
            runners.push(scope.spawn(|| server.runner()));
        }
        loop {
            if latch.should_stop().is_some() {
                let mut s = server.state.lock().unwrap_or_else(|e| e.into_inner());
                s.draining = true;
                server.wake.notify_all();
                drop(s);
                break;
            }
            match listener.accept() {
                // One thread per connection: a wedged or slow client only
                // ties up its own thread until the read timeout sheds it,
                // never the accept loop or other jobs.
                Ok((stream, _)) => {
                    scope.spawn(|| serve_connection(&server, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("campaignd: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        eprintln!("campaignd: draining — in-flight jobs are checkpointing");
        for r in runners {
            let _ = r.join();
        }
    });

    // Interrupted runners left their jobs `running` in the manifest; a
    // restart resumes them. Flush once more so queued jobs survive too.
    {
        let s = server.state.lock().unwrap_or_else(|e| e.into_inner());
        server.flush_manifest(&s);
    }
    server.telemetry.flush();
    let _ = std::fs::remove_file(&socket);
    eprintln!("campaignd: drained cleanly");
}
