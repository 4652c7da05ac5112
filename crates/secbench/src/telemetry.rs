//! The structured observability layer: a versioned JSONL event stream
//! plus an aggregated metrics snapshot.
//!
//! The campaign engines render deterministic text tables on stdout, but a
//! running campaign's *health* — which shards are retrying, what the
//! supervisor decided, how the workers are utilized — was previously only
//! visible as a one-line stderr footer. This module gives every layer of
//! the campaign stack a machine-readable trace:
//!
//! - **Events** ([`Event`], [`Envelope`]): one JSON object per line
//!   (JSONL), schema-versioned via the `"v"` field ([`SCHEMA_VERSION`])
//!   and sequence-numbered per sink. The engine emits per-shard
//!   claim/complete/retry/quarantine/preempt/skip events with wall-clock
//!   nanoseconds, checkpoint flushes, and resume restores; the adaptive
//!   scheduler emits early-stop decisions; drivers emit campaign
//!   start/stop (with the full settings fingerprint) and oracle
//!   violations; the `replay` binary emits replay outcomes in the same
//!   schema.
//! - **Metrics** ([`render_metrics`]): an end-of-run JSON snapshot
//!   aggregating [`PoolStats`] — per-phase timings, throughput, worker
//!   utilization, and a shard-latency histogram — conventionally written
//!   as `BENCH_<driver>.json` so successive runs can be diffed.
//!
//! # Canonical form
//!
//! Event lines are *canonical* JSON: objects only, fixed field order per
//! event type, no whitespace, strings escaped minimally (`\"`, `\\`, and
//! `\u00XX` for control characters), numbers as unsigned decimal
//! integers, fingerprints as 16-digit lowercase hex strings. The parser
//! ([`Envelope::parse`]) accepts exactly this form, so
//! parse → serialize round-trips byte-identically — the property the
//! telemetry test suite pins and the CI smoke job validates.
//!
//! # Cost when disabled
//!
//! A disabled [`Telemetry`] handle is a `None`; every emission is a
//! branch on it. Drivers construct one only when `--events`/`--metrics`
//! is given, so default invocations produce byte-identical output and do
//! no extra work.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::parallel::PoolStats;

/// Version of the event schema (the `"v"` field on every line). Bump on
/// any change to the canonical serialization of any event.
pub const SCHEMA_VERSION: u64 = 1;

/// The schema tag of the metrics snapshot.
pub const METRICS_SCHEMA: &str = "secbench-metrics v1";

/// One observability event. Field order in the serialized form follows
/// declaration order here; see the module docs for the canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A campaign began: driver name, settings fingerprint (the same
    /// value a `--resume` checkpoint must match), task count, workers.
    CampaignStart {
        /// Driver binary name.
        driver: String,
        /// Full settings fingerprint of the campaign.
        fingerprint: u64,
        /// Number of tasks (shards) in the campaign.
        tasks: u64,
        /// Worker pool size.
        workers: u64,
    },
    /// A resume checkpoint restored completed shards.
    Resume {
        /// Shards restored from the checkpoint.
        restored: u64,
        /// Wall-clock nanoseconds previous runs already consumed (what
        /// the supervisor deducts from `--deadline`).
        consumed_ns: u64,
    },
    /// A worker claimed a shard from the queue.
    ShardClaim {
        /// Task index.
        task: u64,
        /// Worker id.
        worker: u64,
        /// Human-readable shard coordinates.
        label: String,
    },
    /// A shard completed successfully.
    ShardComplete {
        /// Task index.
        task: u64,
        /// Worker id.
        worker: u64,
        /// Shard runtime in nanoseconds (including retries).
        wall_ns: u64,
    },
    /// A shard attempt panicked and will be retried deterministically.
    ShardRetry {
        /// Task index.
        task: u64,
        /// Worker id.
        worker: u64,
        /// The failed attempt number (0 = initial attempt).
        attempt: u64,
        /// The panic payload.
        error: String,
    },
    /// A shard exhausted its retries and was quarantined.
    ShardQuarantine {
        /// Task index.
        task: u64,
        /// Worker id.
        worker: u64,
        /// Attempts made (1 initial + retries).
        attempts: u64,
        /// The last panic payload.
        error: String,
    },
    /// A shard overran the per-shard deadline and was preempted.
    ShardPreempt {
        /// Task index.
        task: u64,
        /// Worker id.
        worker: u64,
        /// How long the shard had run when preempted, in nanoseconds.
        wall_ns: u64,
    },
    /// A shard was never claimed: the supervisor stopped the campaign.
    ShardSkip {
        /// Task index.
        task: u64,
        /// Why the campaign stopped (`"deadline"` / `"signal"`).
        reason: String,
    },
    /// The checkpoint was flushed to disk.
    CheckpointFlush {
        /// Checkpoint file path.
        path: String,
        /// Completed shards recorded in the flush.
        done: u64,
        /// Total shards in the campaign.
        tasks: u64,
    },
    /// A resume found the current checkpoint generation corrupt and
    /// recovered — from the previous good generation or a fresh start.
    CheckpointRecovered {
        /// Checkpoint file path.
        path: String,
        /// Which fallback answered: `"previous"` or `"fresh"`.
        source: String,
        /// Why the current generation was rejected.
        error: String,
    },
    /// A checkpoint flush failed; the campaign continued without it.
    CheckpointWriteFailed {
        /// Checkpoint file path.
        path: String,
        /// The write error.
        error: String,
    },
    /// The adaptive sequential test settled a cell early (or the cell
    /// exhausted its full budget).
    AdaptiveStop {
        /// Cell coordinates.
        cell: String,
        /// Trials (per placement) the cell ran.
        trials: u64,
        /// Trials (per placement) the early stop avoided.
        saved: u64,
    },
    /// The shadow oracle caught a model violation in a cell.
    OracleViolation {
        /// The suspect cell's key.
        cell: String,
        /// The violated invariant.
        violation: String,
    },
    /// The campaign ended: why, and how much of it completed.
    CampaignStop {
        /// `"complete"`, `"deadline"`, `"signal"`, or `"kill-after"`.
        reason: String,
        /// Tasks with a recorded outcome.
        completed: u64,
        /// Total tasks.
        total: u64,
        /// Campaign wall-clock nanoseconds (this process only).
        wall_ns: u64,
    },
    /// A repro replay began.
    ReplayStart {
        /// The repro file.
        file: String,
    },
    /// A repro replay finished.
    ReplayOutcome {
        /// The repro file.
        file: String,
        /// `"reproduced"`, `"diverged"`, or `"clean"`.
        verdict: String,
        /// Operations in the replayed trace.
        ops: u64,
    },
    /// The watchdog flagged a worker as exceeding the per-shard stall
    /// deadline (report-only; the shard keeps running).
    WorkerStall {
        /// Task index.
        task: u64,
        /// The stalled worker's id.
        worker: u64,
        /// Human-readable shard coordinates.
        label: String,
        /// How long the shard had been running when flagged, in
        /// nanoseconds.
        wall_ns: u64,
    },
    /// The supervision layer detected a dead worker holding a claimed
    /// shard.
    WorkerDead {
        /// The dead worker's id.
        worker: u64,
        /// The shard it abandoned.
        task: u64,
    },
    /// An abandoned shard was re-enqueued for deterministic re-execution
    /// on a surviving worker.
    WorkerReclaim {
        /// The reclaimed task index.
        task: u64,
        /// Which reclamation attempt this is (1 = first death).
        attempt: u64,
    },
    /// End-of-run steal counter for one worker (emitted only when
    /// nonzero).
    StealSummary {
        /// Worker id.
        worker: u64,
        /// Shards this worker stole from other workers' deques.
        stolen: u64,
    },
    /// The campaign service accepted a submitted job into its queue.
    JobAccepted {
        /// Server-assigned job id.
        job: u64,
        /// The encoded job spec.
        spec: String,
    },
    /// A queued job began executing on the shared worker pool.
    JobStarted {
        /// Job id.
        job: u64,
    },
    /// The service rejected a submission outright (backpressure).
    JobRejected {
        /// Job id the submission would have received.
        job: u64,
        /// Why (`"queue-full"`).
        reason: String,
    },
    /// The service degraded a job instead of running it to completion
    /// (load shedding, or a drain interrupted it).
    JobDegraded {
        /// Job id.
        job: u64,
        /// Why (`"shed"` / `"drained"`).
        reason: String,
    },
    /// A job reached a terminal state.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Terminal status word (`"done"` / `"failed"` / `"shed"` /
        /// `"cancelled"`).
        status: String,
        /// Job wall-clock nanoseconds in this server process.
        wall_ns: u64,
    },
    /// A client asked the service to cancel a job.
    JobCancelled {
        /// Job id.
        job: u64,
        /// Where the cancel landed: `"queued"` (dequeued before running)
        /// or `"running"` (preempted at the engine's graceful-stop
        /// boundary).
        phase: String,
    },
    /// A restarted server made a recovery decision for one manifest
    /// entry (the crash-recovery state machine, DESIGN.md §12).
    JobRecovered {
        /// Job id.
        job: u64,
        /// The startup action: `"requeued"` (non-terminal, will re-run
        /// from its checkpoint) or the terminal state word restored from
        /// the job's terminal marker (`"done"` / `"failed"` /
        /// `"cancelled"` — finished before the crash, never re-run).
        action: String,
    },
    /// A restarted server reaped orphaned temp files (`*.tmp.<pid>`
    /// staging files abandoned by a `kill -9` mid-write).
    TmpReaped {
        /// How many orphans were removed.
        count: u64,
    },
    /// A watch stream opened. `from` above zero means a reconnecting
    /// client resuming after its last-seen transition — so wedged-stream
    /// debugging can see every (re)connect in the event stream.
    WatchConnect {
        /// The watched job id.
        job: u64,
        /// The client's resume sequence number (0 = fresh watch).
        from: u64,
    },
    /// One heartbeat frame was written to a watch stream. Emitted to the
    /// events stream so a wedged or silent watch is visible in telemetry
    /// rather than only on the socket.
    HeartbeatSent {
        /// The watched job id.
        job: u64,
    },
}

/// The stop-reason string used in [`Event::ShardSkip`] and
/// [`Event::CampaignStop`].
pub fn stop_reason_str(reason: crate::supervisor::StopReason) -> &'static str {
    match reason {
        crate::supervisor::StopReason::DeadlineExpired => "deadline",
        crate::supervisor::StopReason::Interrupted => "signal",
        crate::supervisor::StopReason::Cancelled => "cancel",
    }
}

/// Saturating conversion of a [`std::time::Duration`] to whole
/// nanoseconds — event timestamps are u64 fields.
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A canonical serialized field value: every event field is either an
/// unsigned integer or a string.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    Num(u64),
    Str(String),
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serializes one key/value pair stream into a canonical JSON object.
struct LineBuilder {
    buf: String,
}

impl LineBuilder {
    fn new() -> LineBuilder {
        LineBuilder {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn num(&mut self, key: &str, v: u64) {
        self.key(key);
        self.buf.push_str(&v.to_string());
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A strict cursor over one canonical event line.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == c => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape \\{:?}", other.map(|b| b as char)))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the line is valid UTF-8:
                    // it came in as &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".to_owned());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if text.len() > 1 && text.starts_with('0') {
            return Err(format!("non-canonical number {text:?} (leading zero)"));
        }
        text.parse()
            .map_err(|_| format!("number {text:?} out of range"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parses one canonical JSON object line into ordered key/value pairs.
fn parse_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut cur = Cursor::new(line);
    cur.expect(b'{')?;
    let mut fields = Vec::new();
    if cur.peek() == Some(b'}') {
        cur.pos += 1;
    } else {
        loop {
            let key = cur.string()?;
            cur.expect(b':')?;
            let val = match cur.peek() {
                Some(b'"') => Val::Str(cur.string()?),
                Some(b'0'..=b'9') => Val::Num(cur.number()?),
                other => {
                    return Err(format!(
                        "expected a string or number value, found {:?}",
                        other.map(|b| b as char)
                    ))
                }
            };
            fields.push((key, val));
            match cur.peek() {
                Some(b',') => {
                    cur.pos += 1;
                }
                Some(b'}') => {
                    cur.pos += 1;
                    break;
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', found {:?}",
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
    if !cur.done() {
        return Err("trailing bytes after the closing brace".to_owned());
    }
    Ok(fields)
}

/// Pulls the field at position `i`, requiring key `key` — canonical lines
/// have a fixed field order, so lookup is positional.
fn field<'a>(fields: &'a [(String, Val)], i: usize, key: &str) -> Result<&'a Val, String> {
    match fields.get(i) {
        Some((k, v)) if k == key => Ok(v),
        Some((k, _)) => Err(format!(
            "expected field {key:?} at position {i}, found {k:?}"
        )),
        None => Err(format!("missing field {key:?}")),
    }
}

fn num(fields: &[(String, Val)], i: usize, key: &str) -> Result<u64, String> {
    match field(fields, i, key)? {
        Val::Num(n) => Ok(*n),
        Val::Str(_) => Err(format!("field {key:?} must be a number")),
    }
}

fn str_field(fields: &[(String, Val)], i: usize, key: &str) -> Result<String, String> {
    match field(fields, i, key)? {
        Val::Str(s) => Ok(s.clone()),
        Val::Num(_) => Err(format!("field {key:?} must be a string")),
    }
}

/// One serialized event line: the schema version and sequence number
/// envelope around an [`Event`]. [`Envelope::render`] and
/// [`Envelope::parse`] are exact inverses on canonical lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Per-sink sequence number, starting at 0.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl Envelope {
    /// Serializes the envelope as one canonical JSONL line (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut b = LineBuilder::new();
        b.num("v", SCHEMA_VERSION);
        b.num("seq", self.seq);
        match &self.event {
            Event::CampaignStart {
                driver,
                fingerprint,
                tasks,
                workers,
            } => {
                b.str("event", "campaign_start");
                b.str("driver", driver);
                b.str("fingerprint", &format!("{fingerprint:016x}"));
                b.num("tasks", *tasks);
                b.num("workers", *workers);
            }
            Event::Resume {
                restored,
                consumed_ns,
            } => {
                b.str("event", "resume");
                b.num("restored", *restored);
                b.num("consumed_ns", *consumed_ns);
            }
            Event::ShardClaim {
                task,
                worker,
                label,
            } => {
                b.str("event", "shard_claim");
                b.num("task", *task);
                b.num("worker", *worker);
                b.str("label", label);
            }
            Event::ShardComplete {
                task,
                worker,
                wall_ns,
            } => {
                b.str("event", "shard_complete");
                b.num("task", *task);
                b.num("worker", *worker);
                b.num("wall_ns", *wall_ns);
            }
            Event::ShardRetry {
                task,
                worker,
                attempt,
                error,
            } => {
                b.str("event", "shard_retry");
                b.num("task", *task);
                b.num("worker", *worker);
                b.num("attempt", *attempt);
                b.str("error", error);
            }
            Event::ShardQuarantine {
                task,
                worker,
                attempts,
                error,
            } => {
                b.str("event", "shard_quarantine");
                b.num("task", *task);
                b.num("worker", *worker);
                b.num("attempts", *attempts);
                b.str("error", error);
            }
            Event::ShardPreempt {
                task,
                worker,
                wall_ns,
            } => {
                b.str("event", "shard_preempt");
                b.num("task", *task);
                b.num("worker", *worker);
                b.num("wall_ns", *wall_ns);
            }
            Event::ShardSkip { task, reason } => {
                b.str("event", "shard_skip");
                b.num("task", *task);
                b.str("reason", reason);
            }
            Event::CheckpointFlush { path, done, tasks } => {
                b.str("event", "checkpoint_flush");
                b.str("path", path);
                b.num("done", *done);
                b.num("tasks", *tasks);
            }
            Event::CheckpointRecovered {
                path,
                source,
                error,
            } => {
                b.str("event", "checkpoint_recovered");
                b.str("path", path);
                b.str("source", source);
                b.str("error", error);
            }
            Event::CheckpointWriteFailed { path, error } => {
                b.str("event", "checkpoint_write_failed");
                b.str("path", path);
                b.str("error", error);
            }
            Event::AdaptiveStop {
                cell,
                trials,
                saved,
            } => {
                b.str("event", "adaptive_stop");
                b.str("cell", cell);
                b.num("trials", *trials);
                b.num("saved", *saved);
            }
            Event::OracleViolation { cell, violation } => {
                b.str("event", "oracle_violation");
                b.str("cell", cell);
                b.str("violation", violation);
            }
            Event::CampaignStop {
                reason,
                completed,
                total,
                wall_ns,
            } => {
                b.str("event", "campaign_stop");
                b.str("reason", reason);
                b.num("completed", *completed);
                b.num("total", *total);
                b.num("wall_ns", *wall_ns);
            }
            Event::ReplayStart { file } => {
                b.str("event", "replay_start");
                b.str("file", file);
            }
            Event::ReplayOutcome { file, verdict, ops } => {
                b.str("event", "replay_outcome");
                b.str("file", file);
                b.str("verdict", verdict);
                b.num("ops", *ops);
            }
            Event::WorkerStall {
                task,
                worker,
                label,
                wall_ns,
            } => {
                b.str("event", "worker_stall");
                b.num("task", *task);
                b.num("worker", *worker);
                b.str("label", label);
                b.num("wall_ns", *wall_ns);
            }
            Event::WorkerDead { worker, task } => {
                b.str("event", "worker_dead");
                b.num("worker", *worker);
                b.num("task", *task);
            }
            Event::WorkerReclaim { task, attempt } => {
                b.str("event", "worker_reclaim");
                b.num("task", *task);
                b.num("attempt", *attempt);
            }
            Event::StealSummary { worker, stolen } => {
                b.str("event", "steal_summary");
                b.num("worker", *worker);
                b.num("stolen", *stolen);
            }
            Event::JobAccepted { job, spec } => {
                b.str("event", "job_accepted");
                b.num("job", *job);
                b.str("spec", spec);
            }
            Event::JobStarted { job } => {
                b.str("event", "job_started");
                b.num("job", *job);
            }
            Event::JobRejected { job, reason } => {
                b.str("event", "job_rejected");
                b.num("job", *job);
                b.str("reason", reason);
            }
            Event::JobDegraded { job, reason } => {
                b.str("event", "job_degraded");
                b.num("job", *job);
                b.str("reason", reason);
            }
            Event::JobCompleted {
                job,
                status,
                wall_ns,
            } => {
                b.str("event", "job_completed");
                b.num("job", *job);
                b.str("status", status);
                b.num("wall_ns", *wall_ns);
            }
            Event::JobCancelled { job, phase } => {
                b.str("event", "job_cancelled");
                b.num("job", *job);
                b.str("phase", phase);
            }
            Event::JobRecovered { job, action } => {
                b.str("event", "job_recovered");
                b.num("job", *job);
                b.str("action", action);
            }
            Event::TmpReaped { count } => {
                b.str("event", "tmp_reaped");
                b.num("count", *count);
            }
            Event::WatchConnect { job, from } => {
                b.str("event", "watch_connect");
                b.num("job", *job);
                b.num("from", *from);
            }
            Event::HeartbeatSent { job } => {
                b.str("event", "heartbeat_sent");
                b.num("job", *job);
            }
        }
        b.finish()
    }

    /// Parses one canonical event line. Rejects unknown schema versions,
    /// unknown event types, out-of-order or extra fields — the strictness
    /// is what lets the CI smoke job treat a successful parse as schema
    /// validation.
    pub fn parse(line: &str) -> Result<Envelope, String> {
        let f = parse_object(line)?;
        let v = num(&f, 0, "v")?;
        if v != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {v} (this build reads v{SCHEMA_VERSION})"
            ));
        }
        let seq = num(&f, 1, "seq")?;
        let kind = str_field(&f, 2, "event")?;
        let expect_len = |n: usize| -> Result<(), String> {
            if f.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "{kind} events have {} fields, found {}",
                    n,
                    f.len()
                ))
            }
        };
        let event = match kind.as_str() {
            "campaign_start" => {
                expect_len(7)?;
                let fp = str_field(&f, 4, "fingerprint")?;
                if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("fingerprint {fp:?} is not 16 hex digits"));
                }
                Event::CampaignStart {
                    driver: str_field(&f, 3, "driver")?,
                    fingerprint: u64::from_str_radix(&fp, 16)
                        .map_err(|_| format!("unparsable fingerprint {fp:?}"))?,
                    tasks: num(&f, 5, "tasks")?,
                    workers: num(&f, 6, "workers")?,
                }
            }
            "resume" => {
                expect_len(5)?;
                Event::Resume {
                    restored: num(&f, 3, "restored")?,
                    consumed_ns: num(&f, 4, "consumed_ns")?,
                }
            }
            "shard_claim" => {
                expect_len(6)?;
                Event::ShardClaim {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    label: str_field(&f, 5, "label")?,
                }
            }
            "shard_complete" => {
                expect_len(6)?;
                Event::ShardComplete {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    wall_ns: num(&f, 5, "wall_ns")?,
                }
            }
            "shard_retry" => {
                expect_len(7)?;
                Event::ShardRetry {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    attempt: num(&f, 5, "attempt")?,
                    error: str_field(&f, 6, "error")?,
                }
            }
            "shard_quarantine" => {
                expect_len(7)?;
                Event::ShardQuarantine {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    attempts: num(&f, 5, "attempts")?,
                    error: str_field(&f, 6, "error")?,
                }
            }
            "shard_preempt" => {
                expect_len(6)?;
                Event::ShardPreempt {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    wall_ns: num(&f, 5, "wall_ns")?,
                }
            }
            "shard_skip" => {
                expect_len(5)?;
                Event::ShardSkip {
                    task: num(&f, 3, "task")?,
                    reason: str_field(&f, 4, "reason")?,
                }
            }
            "checkpoint_flush" => {
                expect_len(6)?;
                Event::CheckpointFlush {
                    path: str_field(&f, 3, "path")?,
                    done: num(&f, 4, "done")?,
                    tasks: num(&f, 5, "tasks")?,
                }
            }
            "checkpoint_recovered" => {
                expect_len(6)?;
                Event::CheckpointRecovered {
                    path: str_field(&f, 3, "path")?,
                    source: str_field(&f, 4, "source")?,
                    error: str_field(&f, 5, "error")?,
                }
            }
            "checkpoint_write_failed" => {
                expect_len(5)?;
                Event::CheckpointWriteFailed {
                    path: str_field(&f, 3, "path")?,
                    error: str_field(&f, 4, "error")?,
                }
            }
            "adaptive_stop" => {
                expect_len(6)?;
                Event::AdaptiveStop {
                    cell: str_field(&f, 3, "cell")?,
                    trials: num(&f, 4, "trials")?,
                    saved: num(&f, 5, "saved")?,
                }
            }
            "oracle_violation" => {
                expect_len(5)?;
                Event::OracleViolation {
                    cell: str_field(&f, 3, "cell")?,
                    violation: str_field(&f, 4, "violation")?,
                }
            }
            "campaign_stop" => {
                expect_len(7)?;
                Event::CampaignStop {
                    reason: str_field(&f, 3, "reason")?,
                    completed: num(&f, 4, "completed")?,
                    total: num(&f, 5, "total")?,
                    wall_ns: num(&f, 6, "wall_ns")?,
                }
            }
            "replay_start" => {
                expect_len(4)?;
                Event::ReplayStart {
                    file: str_field(&f, 3, "file")?,
                }
            }
            "replay_outcome" => {
                expect_len(6)?;
                Event::ReplayOutcome {
                    file: str_field(&f, 3, "file")?,
                    verdict: str_field(&f, 4, "verdict")?,
                    ops: num(&f, 5, "ops")?,
                }
            }
            "worker_stall" => {
                expect_len(7)?;
                Event::WorkerStall {
                    task: num(&f, 3, "task")?,
                    worker: num(&f, 4, "worker")?,
                    label: str_field(&f, 5, "label")?,
                    wall_ns: num(&f, 6, "wall_ns")?,
                }
            }
            "worker_dead" => {
                expect_len(5)?;
                Event::WorkerDead {
                    worker: num(&f, 3, "worker")?,
                    task: num(&f, 4, "task")?,
                }
            }
            "worker_reclaim" => {
                expect_len(5)?;
                Event::WorkerReclaim {
                    task: num(&f, 3, "task")?,
                    attempt: num(&f, 4, "attempt")?,
                }
            }
            "steal_summary" => {
                expect_len(5)?;
                Event::StealSummary {
                    worker: num(&f, 3, "worker")?,
                    stolen: num(&f, 4, "stolen")?,
                }
            }
            "job_accepted" => {
                expect_len(5)?;
                Event::JobAccepted {
                    job: num(&f, 3, "job")?,
                    spec: str_field(&f, 4, "spec")?,
                }
            }
            "job_started" => {
                expect_len(4)?;
                Event::JobStarted {
                    job: num(&f, 3, "job")?,
                }
            }
            "job_rejected" => {
                expect_len(5)?;
                Event::JobRejected {
                    job: num(&f, 3, "job")?,
                    reason: str_field(&f, 4, "reason")?,
                }
            }
            "job_degraded" => {
                expect_len(5)?;
                Event::JobDegraded {
                    job: num(&f, 3, "job")?,
                    reason: str_field(&f, 4, "reason")?,
                }
            }
            "job_completed" => {
                expect_len(6)?;
                Event::JobCompleted {
                    job: num(&f, 3, "job")?,
                    status: str_field(&f, 4, "status")?,
                    wall_ns: num(&f, 5, "wall_ns")?,
                }
            }
            "job_cancelled" => {
                expect_len(5)?;
                Event::JobCancelled {
                    job: num(&f, 3, "job")?,
                    phase: str_field(&f, 4, "phase")?,
                }
            }
            "job_recovered" => {
                expect_len(5)?;
                Event::JobRecovered {
                    job: num(&f, 3, "job")?,
                    action: str_field(&f, 4, "action")?,
                }
            }
            "tmp_reaped" => {
                expect_len(4)?;
                Event::TmpReaped {
                    count: num(&f, 3, "count")?,
                }
            }
            "watch_connect" => {
                expect_len(5)?;
                Event::WatchConnect {
                    job: num(&f, 3, "job")?,
                    from: num(&f, 4, "from")?,
                }
            }
            "heartbeat_sent" => {
                expect_len(4)?;
                Event::HeartbeatSent {
                    job: num(&f, 3, "job")?,
                }
            }
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok(Envelope { seq, event })
    }
}

/// The live end of the event stream plus the latency collector feeding
/// the metrics histogram.
struct Sink {
    out: Box<dyn Write + Send>,
    seq: u64,
    failed: bool,
}

struct Inner {
    driver: String,
    writer: Option<Mutex<Sink>>,
    latencies: Mutex<Vec<u64>>,
}

/// A cheap, cloneable telemetry handle shared by a campaign's threads.
///
/// Disabled handles ([`Telemetry::disabled`]) make every operation a
/// no-op; armed handles write canonical event lines to the sink (when an
/// events writer is configured) and always collect completed-shard
/// latencies for the metrics histogram.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(inner) => write!(f, "Telemetry(driver: {})", inner.driver),
        }
    }
}

impl Telemetry {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An armed handle for `driver`. `events` is the JSONL sink, if event
    /// streaming was requested; latency collection for the metrics
    /// snapshot is always on for an armed handle.
    pub fn armed(driver: impl Into<String>, events: Option<Box<dyn Write + Send>>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                driver: driver.into(),
                writer: events.map(|out| {
                    Mutex::new(Sink {
                        out,
                        seq: 0,
                        failed: false,
                    })
                }),
                latencies: Mutex::new(Vec::new()),
            })),
        }
    }

    /// An armed handle streaming events to a file at `path`.
    pub fn to_path(driver: impl Into<String>, path: &Path) -> std::io::Result<Telemetry> {
        let file = std::fs::File::create(path)?;
        Ok(Telemetry::armed(
            driver,
            Some(Box::new(std::io::BufWriter::new(file))),
        ))
    }

    /// Whether this handle records anything at all.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The driver name this handle was armed for ("" when disabled).
    pub fn driver(&self) -> &str {
        self.inner.as_ref().map_or("", |i| i.driver.as_str())
    }

    /// Records `event`: completed-shard latencies feed the metrics
    /// histogram, and — when an events sink is configured — the event is
    /// appended to the JSONL stream with the next sequence number.
    ///
    /// Write failures are reported to stderr once and then silence the
    /// sink: observability must never take down the campaign it observes.
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        if let Event::ShardComplete { wall_ns, .. } = &event {
            if let Ok(mut lat) = inner.latencies.lock() {
                lat.push(*wall_ns);
            }
        }
        let Some(writer) = &inner.writer else { return };
        let Ok(mut sink) = writer.lock() else { return };
        if sink.failed {
            return;
        }
        let line = Envelope {
            seq: sink.seq,
            event,
        }
        .render();
        sink.seq += 1;
        if let Err(e) = writeln!(sink.out, "{line}") {
            sink.failed = true;
            eprintln!("telemetry: event stream write failed, disabling: {e}");
        }
    }

    /// Completed-shard latencies recorded so far, in nanoseconds
    /// (completion order).
    pub fn latencies(&self) -> Vec<u64> {
        self.inner
            .as_ref()
            .and_then(|i| i.latencies.lock().ok().map(|l| l.clone()))
            .unwrap_or_default()
    }

    /// Flushes the event sink (drivers call this before exiting).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(writer) = &inner.writer {
                if let Ok(mut sink) = writer.lock() {
                    let _ = sink.out.flush();
                }
            }
        }
    }
}

/// Wall-clock phase timings of one driver invocation, for the metrics
/// snapshot: argument/setup work before the campaign, the campaign
/// itself, and rendering/reporting after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Nanoseconds from process start (observability setup) to the
    /// campaign launch.
    pub setup_ns: u64,
    /// Nanoseconds the campaign ran (the pool's wall clock).
    pub campaign_ns: u64,
    /// Nanoseconds spent rendering and reporting after the campaign.
    pub report_ns: u64,
}

fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".to_owned()
    }
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
}

/// Renders the aggregated metrics snapshot (conventionally written as
/// `BENCH_<driver>.json`).
///
/// `stats` is the campaign's pool counters (`None` for invocations that
/// never ran an engine, e.g. `replay`); `latencies` are
/// the completed-shard wall times collected by the [`Telemetry`] handle.
/// Throughput counts *trial pairs* per second — see
/// [`PoolStats::throughput`] for the pinned definition.
pub fn render_metrics(
    driver: &str,
    stats: Option<&PoolStats>,
    phases: PhaseTimings,
    latencies: &[u64],
) -> String {
    let mut lat: Vec<u64> = latencies.to_vec();
    lat.sort_unstable();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
    {
        let mut escaped = String::new();
        escape_into(driver, &mut escaped);
        out.push_str(&format!("  \"driver\": \"{escaped}\",\n"));
    }
    out.push_str(&format!("  \"engine\": {},\n", stats.is_some()));
    out.push_str(&format!(
        "  \"phases\": {{\"setup_ns\": {}, \"campaign_ns\": {}, \"report_ns\": {}}},\n",
        phases.setup_ns, phases.campaign_ns, phases.report_ns
    ));
    let zero = PoolStats {
        wall: std::time::Duration::ZERO,
        workers: Vec::new(),
        quarantined: 0,
        stalled: 0,
        skipped: 0,
        preempted: 0,
        trials_saved: 0,
        deaths: 0,
        reclaimed: 0,
    };
    let s = stats.unwrap_or(&zero);
    let workers = s.workers.len();
    let wall_ns = s.wall.as_nanos() as u64;
    let busy_ns = s.busy().as_nanos() as u64;
    let utilization = if workers > 0 && wall_ns > 0 {
        busy_ns as f64 / (workers as f64 * wall_ns as f64)
    } else {
        0.0
    };
    out.push_str(&format!("  \"wall_ns\": {wall_ns},\n"));
    out.push_str(&format!("  \"busy_ns\": {busy_ns},\n"));
    out.push_str(&format!("  \"trial_pairs\": {},\n", s.trials()));
    out.push_str(&format!(
        "  \"throughput_pairs_per_s\": {},\n",
        float(if stats.is_some() { s.throughput() } else { 0.0 })
    ));
    out.push_str(&format!(
        "  \"worker_utilization\": {},\n",
        float(utilization)
    ));
    out.push_str(&format!("  \"speedup\": {},\n", float(s.speedup())));
    out.push_str("  \"workers\": [");
    for (i, w) in s.workers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"shards\": {}, \"trial_pairs\": {}, \"busy_ns\": {}, \"retried\": {}, \
             \"stolen\": {}}}",
            w.shards,
            w.trials,
            w.busy.as_nanos() as u64,
            w.retried,
            w.stolen
        ));
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"shards\": {{\"done\": {}, \"retried\": {}, \"stolen\": {}, \"quarantined\": {}, \
         \"stalled\": {}, \"skipped\": {}, \"preempted\": {}, \"reclaimed\": {}}},\n",
        s.shards(),
        s.retried(),
        s.stolen(),
        s.quarantined,
        s.stalled,
        s.skipped,
        s.preempted,
        s.reclaimed
    ));
    out.push_str(&format!("  \"worker_deaths\": {},\n", s.deaths));
    out.push_str(&format!("  \"trial_pairs_saved\": {},\n", s.trials_saved));
    out.push_str(&format!(
        "  \"shard_latency_ns\": {{\"count\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \
         \"p99\": {}, \"max\": {}}},\n",
        lat.len(),
        lat.first().copied().unwrap_or(0),
        percentile(&lat, 50),
        percentile(&lat, 90),
        percentile(&lat, 99),
        lat.last().copied().unwrap_or(0)
    ));
    // Power-of-two latency buckets: `le_ns` is the inclusive upper bound.
    out.push_str("  \"shard_latency_histogram\": [");
    if !lat.is_empty() {
        let mut bound = 1u64;
        let max = *lat.last().expect("non-empty");
        while bound < max {
            bound = bound.saturating_mul(2);
            if bound == 0 {
                bound = u64::MAX;
                break;
            }
        }
        let mut cursor = 0usize;
        let mut le = 1u64;
        let mut first = true;
        loop {
            let count = lat[cursor..].iter().take_while(|&&v| v <= le).count();
            if count > 0 {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{{\"le_ns\": {le}, \"count\": {count}}}"));
                cursor += count;
            }
            if le >= bound || cursor >= lat.len() {
                break;
            }
            le = le.saturating_mul(2);
        }
    }
    out.push_str("]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips_exactly() {
        let events = vec![
            Event::CampaignStart {
                driver: "table4".to_owned(),
                fingerprint: 0x00c0_ffee_dead_beef,
                tasks: 72,
                workers: 4,
            },
            Event::Resume {
                restored: 7,
                consumed_ns: 123_456_789,
            },
            Event::ShardClaim {
                task: 3,
                worker: 1,
                label: "V1 on Sa TLB, trials 0..25".to_owned(),
            },
            Event::ShardComplete {
                task: 3,
                worker: 1,
                wall_ns: 1_000_000,
            },
            Event::ShardRetry {
                task: 4,
                worker: 0,
                attempt: 0,
                error: "injected \"quoted\" fault\nwith newline".to_owned(),
            },
            Event::ShardQuarantine {
                task: 4,
                worker: 0,
                attempts: 3,
                error: "permanent \\ fault".to_owned(),
            },
            Event::ShardPreempt {
                task: 5,
                worker: 1,
                wall_ns: 99,
            },
            Event::ShardSkip {
                task: 6,
                reason: "deadline".to_owned(),
            },
            Event::CheckpointFlush {
                path: "ck.txt".to_owned(),
                done: 10,
                tasks: 72,
            },
            Event::CheckpointRecovered {
                path: "ck.txt".to_owned(),
                source: "previous".to_owned(),
                error: "payload CRC mismatch".to_owned(),
            },
            Event::CheckpointWriteFailed {
                path: "ck.txt".to_owned(),
                error: "injected ENOSPC (--inject-io)".to_owned(),
            },
            Event::AdaptiveStop {
                cell: "V3 on Sp TLB".to_owned(),
                trials: 75,
                saved: 425,
            },
            Event::OracleViolation {
                cell: "table4|V1|Sa".to_owned(),
                violation: "hit/miss mismatch".to_owned(),
            },
            Event::CampaignStop {
                reason: "complete".to_owned(),
                completed: 72,
                total: 72,
                wall_ns: 5_000_000_000,
            },
            Event::ReplayStart {
                file: "repro/x.ron".to_owned(),
            },
            Event::ReplayOutcome {
                file: "repro/x.ron".to_owned(),
                verdict: "reproduced".to_owned(),
                ops: 42,
            },
            Event::WorkerStall {
                task: 9,
                worker: 2,
                label: "V2 on Rf TLB, trials 25..50".to_owned(),
                wall_ns: 750_000_000,
            },
            Event::WorkerDead {
                worker: 1,
                task: 12,
            },
            Event::WorkerReclaim {
                task: 12,
                attempt: 1,
            },
            Event::StealSummary {
                worker: 3,
                stolen: 11,
            },
            Event::JobAccepted {
                job: 2,
                spec: "driver=table4 trials=50 seed=1 priority=5 tag=nightly".to_owned(),
            },
            Event::JobStarted { job: 2 },
            Event::JobRejected {
                job: 9,
                reason: "queue-full".to_owned(),
            },
            Event::JobDegraded {
                job: 3,
                reason: "shed".to_owned(),
            },
            Event::JobCompleted {
                job: 2,
                status: "done".to_owned(),
                wall_ns: 2_500_000_000,
            },
            Event::JobCancelled {
                job: 4,
                phase: "running".to_owned(),
            },
            Event::JobRecovered {
                job: 2,
                action: "requeued".to_owned(),
            },
            Event::TmpReaped { count: 3 },
            Event::WatchConnect { job: 2, from: 4 },
            Event::HeartbeatSent { job: 2 },
        ];
        for (seq, event) in events.into_iter().enumerate() {
            let env = Envelope {
                seq: seq as u64,
                event,
            };
            let line = env.render();
            let parsed = Envelope::parse(&line).expect(&line);
            assert_eq!(parsed, env, "{line}");
            assert_eq!(parsed.render(), line, "byte-identical re-serialization");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"v":2,"seq":0,"event":"resume","restored":1,"consumed_ns":0}"#,
            r#"{"v":1,"seq":0,"event":"mystery"}"#,
            r#"{"v":1,"seq":0,"event":"resume","restored":1}"#,
            r#"{"v":1,"seq":0,"event":"resume","restored":1,"consumed_ns":0,"extra":1}"#,
            r#"{"v":1,"seq":0,"event":"resume","consumed_ns":0,"restored":1}"#,
            r#"{"v":1,"seq":01,"event":"replay_start","file":"x"}"#,
            r#"{"v":1, "seq":0,"event":"replay_start","file":"x"}"#,
            r#"{"v":1,"seq":0,"event":"replay_start","file":"x"} "#,
            r#"{"v":1,"seq":0,"event":"campaign_start","driver":"d","fingerprint":"zz","tasks":1,"workers":1}"#,
        ] {
            assert!(Envelope::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_armed());
        assert_eq!(t.driver(), "");
        t.emit(Event::ShardComplete {
            task: 0,
            worker: 0,
            wall_ns: 5,
        });
        assert!(t.latencies().is_empty());
        t.flush();
    }

    #[test]
    fn armed_telemetry_collects_latencies_without_a_writer() {
        let t = Telemetry::armed("x", None);
        assert!(t.is_armed());
        for wall_ns in [30, 10, 20] {
            t.emit(Event::ShardComplete {
                task: 0,
                worker: 0,
                wall_ns,
            });
        }
        assert_eq!(t.latencies(), vec![30, 10, 20]);
    }

    #[test]
    fn metrics_snapshot_is_well_formed() {
        use crate::parallel::WorkerStats;
        use std::time::Duration;
        let stats = PoolStats {
            wall: Duration::from_millis(100),
            workers: vec![
                WorkerStats {
                    shards: 3,
                    trials: 75,
                    busy: Duration::from_millis(60),
                    retried: 1,
                    stolen: 2,
                },
                WorkerStats {
                    shards: 2,
                    trials: 50,
                    busy: Duration::from_millis(40),
                    retried: 0,
                    stolen: 0,
                },
            ],
            quarantined: 1,
            stalled: 0,
            skipped: 2,
            preempted: 0,
            trials_saved: 25,
            deaths: 1,
            reclaimed: 1,
        };
        let json = render_metrics(
            "table4",
            Some(&stats),
            PhaseTimings {
                setup_ns: 1,
                campaign_ns: 2,
                report_ns: 3,
            },
            &[1500, 200, 90_000],
        );
        assert!(
            json.contains("\"schema\": \"secbench-metrics v1\""),
            "{json}"
        );
        assert!(json.contains("\"driver\": \"table4\""), "{json}");
        assert!(json.contains("\"trial_pairs\": 125"), "{json}");
        assert!(json.contains("\"p50\": 1500"), "{json}");
        // throughput = pairs / wall: 125 / 0.1s = 1250/s.
        assert!(
            json.contains("\"throughput_pairs_per_s\": 1250.000"),
            "{json}"
        );
        // utilization: 100ms busy over 2 workers x 100ms wall = 0.5.
        assert!(json.contains("\"worker_utilization\": 0.500"), "{json}");
        assert!(json.contains("\"stolen\": 2"), "{json}");
        assert!(json.contains("\"worker_deaths\": 1"), "{json}");
        assert!(json.contains("\"reclaimed\": 1"), "{json}");
        assert!(json.contains("{\"le_ns\": 2048, \"count\": 1}"), "{json}");
        // Well-formed enough for a strict brace balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn latency_percentiles_handle_edges() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
    }
}
