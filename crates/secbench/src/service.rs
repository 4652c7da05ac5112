//! The campaign service layer: job specs, a bounded priority queue with
//! load shedding, the line protocol spoken over the `campaignd` unix
//! socket, and the crash-safe job manifest.
//!
//! This module is deliberately socket-free: everything here is pure data
//! and policy, unit-testable without spawning a server. The `serve` and
//! `submit` binaries in the bench crate own the actual
//! [`std::os::unix::net`] plumbing and compose these pieces:
//!
//! - [`JobSpec`] — one campaign request (driver, trials, seed, priority,
//!   tag), with a canonical `key=value` line encoding used on the wire,
//!   in the manifest, and in telemetry [`crate::telemetry::Event::JobAccepted`]
//!   events.
//! - [`JobQueue`] — a bounded queue with **backpressure** (submissions
//!   beyond `capacity` are rejected outright — the client exits with the
//!   queue-full code) and **load shedding** (once the backlog crosses the
//!   shed watermark, the lowest-priority queued jobs are degraded rather
//!   than silently delayed forever).
//! - [`Request`] / [`Response`] — the one-line-per-message protocol.
//!   Each is one table of positional-word rows ([`crate::codec`]): a tag,
//!   then the fields in wire order. The table generates both directions,
//!   so parse ⇄ encode round-trips exactly, and anything else is a typed
//!   error, never a guess. Submissions can carry an idempotency key
//!   ([`JobSpec::key`]), watches resume from a per-job sequence number
//!   ([`Request::Watch`] / [`Response::Event`]), and [`Request::Cancel`]
//!   preempts one job through the engine's graceful-stop path.
//! - [`encode_manifest`] / [`decode_manifest`] — the server's durable
//!   queue state. On SIGTERM the server drains (every in-flight job
//!   checkpoints via the engine's graceful-stop path) and persists the
//!   manifest; a restarted server re-enqueues every non-terminal job and
//!   — by the determinism contract — finishes all of them bitwise
//!   identically. A `kill -9` is survived the same way, with the
//!   per-job terminal marker ([`encode_terminal_marker`]) closing the
//!   completed-but-not-yet-flushed window so no finished job re-runs.
//!   Manifest lines are rows of their own table too; the legacy entry
//!   form is the one hand-written special case.

use std::collections::VecDeque;
use std::time::Duration;

use crate::codec;
use crate::iofault;

/// Magic first line of the job manifest.
pub const MANIFEST_HEADER: &str = "secbench-campaignd v1";

/// How often the server sends a [`Response::Heartbeat`] line while a
/// watched job is still running, and therefore the cadence a waiting
/// client can size its read timeout against.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// A service-layer failure that is a *server* defect or environment
/// problem, not a client mistake — the server (or the drain path) exits
/// with the setup code rather than limping on with broken invariants.
#[derive(Debug)]
pub enum ServiceError {
    /// A socket operation the server cannot run without failed.
    Socket {
        /// What was being attempted (e.g. `"set nonblocking accept"`).
        op: &'static str,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A queue bookkeeping invariant broke (an engine bug).
    QueueInvariant(&'static str),
}

impl ServiceError {
    /// The process exit code for this failure (the setup code, 5).
    pub fn exit_code(&self) -> i32 {
        5
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Socket { op, err } => write!(f, "socket setup failed: {op}: {err}"),
            ServiceError::QueueInvariant(what) => {
                write!(f, "job-queue invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Socket { err, .. } => Some(err),
            ServiceError::QueueInvariant(_) => None,
        }
    }
}

/// One campaign job as submitted to the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Which campaign driver to run (currently only `"table4"`).
    pub driver: String,
    /// Trials per campaign cell.
    pub trials: u32,
    /// Base RFE seed of the campaign.
    pub seed: u64,
    /// Scheduling priority, 0–255; higher runs first and sheds last.
    pub priority: u8,
    /// Client-chosen token naming the job (alphanumeric plus `-_.`).
    pub tag: String,
    /// Client-supplied idempotency key (`--idempotency-key`). The server
    /// remembers the key for the job's whole lifetime (it is persisted in
    /// the manifest), and a later submission carrying the same key is
    /// answered with the original job id instead of enqueueing a second
    /// job — so a client that times out waiting and retries its submit
    /// verbatim never double-runs work.
    pub key: Option<String>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            driver: "table4".to_owned(),
            trials: 50,
            seed: 0x5ec_71b,
            priority: 100,
            tag: "job".to_owned(),
            key: None,
        }
    }
}

fn valid_tag(tag: &str) -> bool {
    !tag.is_empty()
        && tag.len() <= 64
        && tag
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

// `key=value` words, in this order; `key=` appears only when an
// idempotency key was supplied, so key-less specs encode exactly as they
// always have. Decoding also checks [`JobSpec::validate`].
codec::kv_record! {
    JobSpec { driver, trials, seed, priority, tag } optional key check JobSpec::validate
}

impl JobSpec {
    /// The canonical one-line encoding:
    /// `driver=<d> trials=<n> seed=<n> priority=<n> tag=<t>[ key=<k>]`.
    pub fn encode(&self) -> String {
        codec::encode(self)
    }

    /// Parses the canonical encoding; fields must appear in order, and
    /// the spec must satisfy [`JobSpec::validate`].
    pub fn decode(line: &str) -> Result<JobSpec, String> {
        codec::decode(line)
    }

    /// Checks the spec's invariants (known driver, nonzero trials, a
    /// well-formed tag and — when present — idempotency key).
    pub fn validate(&self) -> Result<(), String> {
        if self.driver != "table4" {
            return Err(format!(
                "unknown driver {:?} (this service runs: table4)",
                self.driver
            ));
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".to_owned());
        }
        if !valid_tag(&self.tag) {
            return Err(format!(
                "tag {:?} must be 1-64 characters of [A-Za-z0-9._-]",
                self.tag
            ));
        }
        if let Some(key) = &self.key {
            if !valid_tag(key) {
                return Err(format!(
                    "idempotency key {key:?} must be 1-64 characters of [A-Za-z0-9._-]"
                ));
            }
        }
        Ok(())
    }
}

/// Lifecycle of one job inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a pool slot.
    Queued,
    /// Executing (or interrupted mid-drain: a restarted server re-runs
    /// it from its checkpoint).
    Running,
    /// Finished; its output and exit code are on disk.
    Done,
    /// Shed under overload before completing (degraded, exit 9 for the
    /// waiting client).
    Shed,
    /// The engine returned an error (setup failure, bad checkpoint, ...).
    Failed,
    /// Cancelled by a client `cancel` request — dequeued while waiting,
    /// or preempted at the engine's graceful-stop boundary while running
    /// (exit 11 for the waiting client).
    Cancelled,
}

// The canonical status words.
codec::words! {
    JobState {
        Queued = "queued",
        Running = "running",
        Done = "done",
        Shed = "shed",
        Failed = "failed",
        Cancelled = "cancelled",
    }
}

impl JobState {
    /// Whether the state is terminal (the job will never run again).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Shed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One accepted job waiting in the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Server-assigned id (monotonic, persisted across restarts).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
}

/// Why a submission was not enqueued.
#[derive(Debug)]
pub enum SubmitError {
    /// Backpressure: the queue is at capacity (the client gets a typed
    /// queue-full rejection).
    Full,
    /// Queue bookkeeping broke mid-shed — a server bug, exit 5.
    Internal(ServiceError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue-full"),
            SubmitError::Internal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Full => None,
            SubmitError::Internal(e) => Some(e),
        }
    }
}

/// A bounded job queue with priority scheduling, backpressure, and load
/// shedding.
///
/// - [`JobQueue::submit`] rejects outright at `capacity` (backpressure:
///   the submitting client gets a typed queue-full exit), then sheds the
///   lowest-priority queued jobs while the backlog exceeds the shed
///   watermark (graceful degradation: the shed jobs' clients get a typed
///   degraded exit instead of waiting forever).
/// - [`JobQueue::pop`] hands out the highest-priority job, FIFO within a
///   priority level.
///
/// Both tie-break deterministically on the job id, so a replayed
/// submission sequence schedules identically.
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    watermark: usize,
    items: VecDeque<QueuedJob>,
}

impl JobQueue {
    /// An empty queue holding at most `capacity` jobs, shedding the
    /// lowest-priority backlog beyond `watermark` (clamped to
    /// `capacity`).
    pub fn new(capacity: usize, watermark: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            watermark: watermark.min(capacity).max(1),
            items: VecDeque::new(),
        }
    }

    /// Queued jobs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Accepts `job`, returning any jobs shed to make room under the
    /// watermark; rejects with [`SubmitError::Full`] when the queue is at
    /// capacity (the job is *not* enqueued).
    ///
    /// Shedding picks the lowest priority first, youngest id within a
    /// priority — so older equal-priority work survives, and the shed set
    /// may include the job just submitted if it is itself the lowest. A
    /// broken shed invariant surfaces as [`SubmitError::Internal`]
    /// instead of panicking the server.
    pub fn submit(&mut self, job: QueuedJob) -> Result<Vec<QueuedJob>, SubmitError> {
        if self.items.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        self.items.push_back(job);
        let mut shed = Vec::new();
        while self.items.len() > self.watermark {
            let victim = self
                .items
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.spec.priority, std::cmp::Reverse(j.id)))
                .map(|(k, _)| k)
                .ok_or(SubmitError::Internal(ServiceError::QueueInvariant(
                    "backlog over watermark is empty",
                )))?;
            let victim = self.items.remove(victim).ok_or(SubmitError::Internal(
                ServiceError::QueueInvariant("shed victim index out of range"),
            ))?;
            shed.push(victim);
        }
        Ok(shed)
    }

    /// Removes and returns the next job to run: highest priority, oldest
    /// id within a priority. `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let best = self
            .items
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.spec.priority, std::cmp::Reverse(j.id)))
            .map(|(k, _)| k)?;
        self.items.remove(best)
    }

    /// The queued jobs in submission order (for manifests and tests).
    pub fn snapshot(&self) -> Vec<QueuedJob> {
        self.items.iter().cloned().collect()
    }

    /// Re-enqueues a job recorded by a previous server's manifest,
    /// bypassing backpressure and shedding: the job was already accepted
    /// once, and a restart must never degrade work the drained server
    /// promised to finish.
    pub fn restore(&mut self, job: QueuedJob) {
        self.items.push_back(job);
    }

    /// Removes a still-queued job by id (a `cancel` request landing
    /// before the job reached a runner). `None` when the id is not
    /// queued — already running, terminal, or unknown.
    pub fn remove(&mut self, id: u64) -> Option<QueuedJob> {
        let at = self.items.iter().position(|j| j.id == id)?;
        self.items.remove(at)
    }
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(JobSpec),
    /// Query a job's state.
    Status(u64),
    /// Hold the connection open until the job is terminal: the server
    /// first replays every recorded [`Response::Event`] transition with a
    /// sequence number greater than `from` (so a reconnecting client
    /// resumes exactly where its last stream dropped), then streams a
    /// [`Response::Heartbeat`] every [`HEARTBEAT_INTERVAL`] between
    /// transitions — the idle-poll half of `submit --wait`. A fresh watch
    /// starts `from` 0 and sees the job's whole recorded history.
    Watch {
        /// Job id.
        job: u64,
        /// Replay only transitions with a sequence number above this.
        from: u64,
    },
    /// Cancel a job: dequeue it if still queued, or trip its per-job
    /// cancel latch so the engine preempts it at the next graceful-stop
    /// boundary if running. Terminal jobs are left untouched (the reply
    /// reports their state — cancel is idempotent).
    Cancel(u64),
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

/// The tag of both a `status` request and its reply.
const STATUS: &str = "status";

// The wire table of every request: its tag, then its fields in wire order.
codec::word_enum! {
    Request {
        Submit(spec) = "submit",
        Status(job) = STATUS,
        Watch { job, from } = "watch",
        Cancel(job) = "cancel",
        Ping = "ping",
        Shutdown = "shutdown",
    }
}

impl Request {
    /// Encodes the request as one canonical line.
    pub fn encode(&self) -> String {
        codec::encode(self)
    }

    /// Parses one canonical request line. Legacy: `watch <id>` without a
    /// sequence number (the pre-resume grammar) decodes as `from` 0.
    pub fn decode(line: &str) -> Result<Request, String> {
        codec::decode(line).or_else(|err| match codec::decode(&format!("{line} 0")) {
            Ok(watch @ Request::Watch { .. }) => Ok(watch),
            _ => Err(err),
        })
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was accepted with this id.
    Accepted {
        /// Server-assigned job id.
        job: u64,
    },
    /// The submission was rejected (backpressure).
    Rejected {
        /// Why (`"queue-full"`).
        reason: String,
    },
    /// A job's current state. `exit` is its recorded exit code once
    /// terminal.
    Status {
        /// Job id.
        job: u64,
        /// Current lifecycle state.
        state: JobState,
        /// Exit code for terminal jobs.
        exit: Option<i32>,
    },
    /// The queried job id does not exist.
    UnknownJob {
        /// The id queried.
        job: u64,
    },
    /// Liveness reply.
    Pong,
    /// A watched job is still alive; the final status line follows once
    /// it is terminal. Sent every [`HEARTBEAT_INTERVAL`] so the client's
    /// read timeout distinguishes "job is long" from "server is gone".
    Heartbeat {
        /// The watched job id.
        job: u64,
    },
    /// One sequence-numbered state transition on a watch stream. The
    /// sequence number is per-job, strictly increasing, and persisted in
    /// the manifest, so a client that reconnects with `watch <id> <seq>`
    /// resumes after its last-seen transition — across server restarts
    /// too — and can discard duplicates by sequence number.
    Event {
        /// Job id.
        job: u64,
        /// Per-job transition sequence number (1 = accepted).
        seq: u64,
        /// The state entered by this transition.
        state: JobState,
        /// Exit code, for terminal transitions.
        exit: Option<i32>,
    },
    /// The server acknowledged a shutdown request and is draining.
    Draining,
    /// The request could not be served.
    Error(
        /// Why.
        String,
    ),
}

// The wire table of every reply: its tag, then its fields in wire order
// (an absent exit code is `-`; a reason or message takes the rest of the
// line).
codec::word_enum! {
    Response {
        Accepted { job } = "accepted",
        Rejected { reason } = "rejected",
        Status { job, state, exit } = STATUS,
        UnknownJob { job } = "unknown-job",
        Pong = "pong",
        Heartbeat { job } = "heartbeat",
        Event { job, seq, state, exit } = "event",
        Draining = "draining",
        Error(message) = "error",
    }
}

impl Response {
    /// Encodes the response as one canonical line.
    pub fn encode(&self) -> String {
        codec::encode(self)
    }

    /// Parses one canonical response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        codec::decode(line)
    }
}

/// One manifest entry: a job the server knows about and its state at the
/// last manifest write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Job id.
    pub id: u64,
    /// State at the time of the write. `Queued`/`Running` entries are
    /// re-enqueued on restart (unless the job's terminal marker proves it
    /// actually finished — see the serve recovery path); terminal entries
    /// are kept for status queries.
    pub state: JobState,
    /// The job's transition sequence number at the time of the write
    /// (1 = accepted). Persisting it keeps watch-stream sequence numbers
    /// strictly increasing across server restarts, so a reconnecting
    /// `--wait` client can keep deduplicating by sequence number.
    pub seq: u64,
    /// Exit code for terminal entries, so a restarted server answers
    /// `status` for finished jobs exactly as the server that ran them.
    pub exit: Option<i32>,
    /// The job's spec.
    pub spec: JobSpec,
}

// An entry's words after its `job` tag, in wire order.
codec::word_struct! { ManifestEntry { id, state, seq, exit, spec } }

codec::word_enum! {
    /// One manifest line after the header: the next job id the server
    /// will assign, or one job.
    enum ManifestLine {
        Next(id: u64) = "next",
        Job(entry: ManifestEntry) = "job",
    }
}

impl ManifestLine {
    /// Decodes one manifest line. Legacy: an entry of the form `job <id>
    /// <state> <spec>`, written before sequence numbers and persisted
    /// exit codes, decodes as sequence number 1 with no exit code.
    fn decode(line: &str) -> Result<ManifestLine, String> {
        codec::decode(line).or_else(|err| match line.splitn(4, ' ').collect::<Vec<_>>()[..] {
            [tag, id, state, spec] => {
                codec::decode(&format!("{tag} {id} {state} 1 - {spec}")).map_err(|_| err)
            }
            _ => Err(err),
        })
    }
}

/// Parses stored manifest bytes: a checksummed [`crate::iofault`] frame
/// is verified and stripped first; an unframed manifest from an older
/// release decodes directly.
pub fn decode_manifest_stored(text: &str) -> Result<(u64, Vec<ManifestEntry>), String> {
    if iofault::is_framed(text) {
        decode_manifest(iofault::unseal(text).map_err(|e| format!("frame check failed: {e}"))?)
    } else {
        decode_manifest(text)
    }
}

/// Serializes the server's durable queue state (the server seals this in
/// the checksummed frame and writes it atomically with a generation
/// chain, like the checkpoint layer).
pub fn encode_manifest(next_id: u64, entries: &[ManifestEntry]) -> String {
    let jobs = entries.iter().cloned().map(ManifestLine::Job);
    codec::encode_lines(
        MANIFEST_HEADER,
        [ManifestLine::Next(next_id)].into_iter().chain(jobs),
    )
}

/// Parses a manifest written by [`encode_manifest`]; legacy entries
/// still decode.
pub fn decode_manifest(text: &str) -> Result<(u64, Vec<ManifestEntry>), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => return Err(format!("bad manifest header {other:?}")),
    }
    let Some(Ok(ManifestLine::Next(next_id))) = lines.next().map(ManifestLine::decode) else {
        return Err("manifest is missing its next-id line".to_owned());
    };
    let entries = lines
        .map(|line| match ManifestLine::decode(line)? {
            ManifestLine::Job(entry) => Ok(entry),
            ManifestLine::Next(_) => Err(format!("unexpected manifest line {line:?}")),
        })
        .collect::<Result<_, String>>()?;
    Ok((next_id, entries))
}

/// The canonical contents of a job's terminal marker (`done.txt` inside
/// the job directory): `<state> <exit>`. The marker is written atomically
/// *before* the manifest records the terminal state, so a `kill -9`
/// landing between the two cannot re-run a finished job — the restarted
/// server reads the marker and restores the terminal state instead.
pub fn encode_terminal_marker(state: JobState, exit: i32) -> String {
    codec::encode(&(state, exit)) + "\n"
}

/// Parses a terminal marker written by [`encode_terminal_marker`].
/// Rejects non-terminal states: a marker claiming `queued` is corruption,
/// not a recovery instruction.
pub fn decode_terminal_marker(text: &str) -> Result<(JobState, i32), String> {
    let (state, exit): (JobState, i32) = codec::decode(text.trim_end())?;
    if !state.is_terminal() {
        return Err(format!("marker state {state:?} is not terminal"));
    }
    Ok((state, exit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, priority: u8) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec {
                priority,
                tag: format!("j{id}"),
                ..JobSpec::default()
            },
        }
    }

    /// Submits and asserts acceptance without panicking machinery in the
    /// service path itself — returns the shed ids.
    fn accepted(q: &mut JobQueue, j: QueuedJob) -> Vec<u64> {
        match q.submit(j) {
            Ok(shed) => shed.iter().map(|s| s.id).collect(),
            Err(e) => panic!("submission rejected: {e}"),
        }
    }

    #[test]
    fn job_spec_round_trips_and_validates() {
        let spec = JobSpec {
            driver: "table4".to_owned(),
            trials: 120,
            seed: 42,
            priority: 9,
            tag: "nightly-2.1".to_owned(),
            key: None,
        };
        assert_eq!(JobSpec::decode(&spec.encode()), Ok(spec.clone()));
        // The idempotency key is an optional trailing field: keyed specs
        // round-trip, and the key-less encoding is unchanged.
        let keyed = JobSpec {
            key: Some("retry-7f.2".to_owned()),
            ..spec.clone()
        };
        assert_eq!(JobSpec::decode(&keyed.encode()), Ok(keyed.clone()));
        assert_eq!(keyed.encode(), format!("{} key=retry-7f.2", spec.encode()));
        for bad in [
            "driver=rowhammer trials=1 seed=0 priority=0 tag=x",
            "driver=table4 trials=0 seed=0 priority=0 tag=x",
            "driver=table4 trials=1 seed=0 priority=0 tag=",
            "driver=table4 trials=1 seed=0 priority=0 tag=sp ace",
            "driver=table4 seed=0 trials=1 priority=0 tag=x",
            "driver=table4 trials=1 seed=0 priority=256 tag=x",
            "driver=table4 trials=1 seed=0 priority=0 tag=x key=",
            "driver=table4 trials=1 seed=0 priority=0 tag=x key=a key=b",
            "driver=table4 trials=1 seed=0 priority=0 tag=x extra=1",
        ] {
            assert!(JobSpec::decode(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn queue_applies_backpressure_at_capacity() {
        let mut q = JobQueue::new(2, 2);
        assert_eq!(accepted(&mut q, job(1, 5)), Vec::<u64>::new());
        assert_eq!(accepted(&mut q, job(2, 5)), Vec::<u64>::new());
        assert!(matches!(q.submit(job(3, 200)), Err(SubmitError::Full)));
        assert_eq!(q.len(), 2, "a rejected job is never enqueued");
    }

    #[test]
    fn queue_pops_by_priority_then_fifo() {
        let mut q = JobQueue::new(8, 8);
        for j in [job(1, 5), job(2, 9), job(3, 5), job(4, 9)] {
            accepted(&mut q, j);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn queue_removes_by_id_for_cancellation() {
        let mut q = JobQueue::new(8, 8);
        for j in [job(1, 5), job(2, 9), job(3, 5)] {
            accepted(&mut q, j);
        }
        assert_eq!(q.remove(2).map(|j| j.id), Some(2));
        assert_eq!(q.remove(2), None, "already removed");
        assert_eq!(q.remove(99), None, "never queued");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(order, vec![1, 3], "the rest still pop in order");
    }

    #[test]
    fn overload_sheds_the_lowest_priority_youngest_first() {
        let mut q = JobQueue::new(8, 2);
        assert_eq!(accepted(&mut q, job(1, 5)), Vec::<u64>::new());
        assert_eq!(accepted(&mut q, job(2, 9)), Vec::<u64>::new());
        // Backlog crosses the watermark: the lowest-priority job goes,
        // and among equals the youngest.
        assert_eq!(accepted(&mut q, job(3, 5)), vec![3]);
        assert_eq!(q.len(), 2);
        // A high-priority surge sheds the old low-priority job instead.
        assert_eq!(accepted(&mut q, job(4, 200)), vec![1]);
        assert_eq!(
            q.snapshot().iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![2, 4]
        );
    }

    #[test]
    fn protocol_round_trips_exactly() {
        let messages = [
            Request::Submit(JobSpec::default()),
            Request::Submit(JobSpec {
                key: Some("retry-1".to_owned()),
                ..JobSpec::default()
            }),
            Request::Status(17),
            Request::Watch { job: 17, from: 0 },
            Request::Watch { job: 17, from: 4 },
            Request::Cancel(17),
            Request::Ping,
            Request::Shutdown,
        ];
        for m in messages {
            assert_eq!(Request::decode(&m.encode()), Ok(m.clone()), "{m:?}");
        }
        // The pre-resume watch grammar still parses (as "from the start").
        assert_eq!(
            Request::decode("watch 17"),
            Ok(Request::Watch { job: 17, from: 0 })
        );
        let replies = [
            Response::Accepted { job: 3 },
            Response::Rejected {
                reason: "queue-full".to_owned(),
            },
            Response::Status {
                job: 3,
                state: JobState::Running,
                exit: None,
            },
            Response::Status {
                job: 3,
                state: JobState::Done,
                exit: Some(0),
            },
            Response::Status {
                job: 3,
                state: JobState::Cancelled,
                exit: Some(11),
            },
            Response::UnknownJob { job: 9 },
            Response::Pong,
            Response::Heartbeat { job: 3 },
            Response::Event {
                job: 3,
                seq: 2,
                state: JobState::Running,
                exit: None,
            },
            Response::Event {
                job: 3,
                seq: 3,
                state: JobState::Done,
                exit: Some(0),
            },
            Response::Draining,
            Response::Error("no".to_owned()),
        ];
        for r in replies {
            assert_eq!(Response::decode(&r.encode()), Ok(r.clone()), "{r:?}");
        }
        assert!(Request::decode("launch the missiles").is_err());
        assert!(Request::decode("cancel now").is_err());
        assert!(Request::decode("watch 1 two").is_err());
        assert!(Response::decode("status 1 sideways -").is_err());
        assert!(Response::decode("event 1 2 done 0 extra").is_err());
    }

    #[test]
    fn manifest_round_trips() {
        let entries = vec![
            ManifestEntry {
                id: 1,
                state: JobState::Done,
                seq: 3,
                exit: Some(0),
                spec: JobSpec::default(),
            },
            ManifestEntry {
                id: 2,
                state: JobState::Running,
                seq: 2,
                exit: None,
                spec: JobSpec {
                    trials: 75,
                    tag: "resume-me".to_owned(),
                    key: Some("retry-2".to_owned()),
                    ..JobSpec::default()
                },
            },
            ManifestEntry {
                id: 3,
                state: JobState::Cancelled,
                seq: 2,
                exit: Some(11),
                spec: JobSpec::default(),
            },
            ManifestEntry {
                id: 4,
                state: JobState::Queued,
                seq: 1,
                exit: None,
                spec: JobSpec::default(),
            },
        ];
        let text = encode_manifest(5, &entries);
        assert_eq!(decode_manifest(&text), Ok((5, entries.clone())));
        assert!(decode_manifest("not a manifest").is_err());
        assert!(decode_manifest(MANIFEST_HEADER).is_err());
        // The stored form accepts both sealed and legacy unframed bytes,
        // and rejects a corrupted seal instead of parsing its payload.
        let sealed = iofault::seal(&text);
        assert_eq!(decode_manifest_stored(&sealed), Ok((5, entries.clone())));
        assert_eq!(decode_manifest_stored(&text), Ok((5, entries)));
        assert!(decode_manifest_stored(&sealed[..sealed.len() - 3]).is_err());
    }

    #[test]
    fn legacy_manifest_entries_still_decode() {
        // A manifest written before sequence numbers and persisted exit
        // codes: `job <id> <state> <spec>`. It must decode with seq 1 and
        // no exit — a restart on upgraded code keeps the old promises.
        let text = format!(
            "{MANIFEST_HEADER}\nnext 3\njob 1 done {}\njob 2 queued {}\n",
            JobSpec::default().encode(),
            JobSpec::default().encode()
        );
        let decoded = match decode_manifest(&text) {
            Ok(d) => d,
            Err(e) => panic!("legacy manifest rejected: {e}"),
        };
        assert_eq!(decoded.0, 3);
        assert_eq!(decoded.1.len(), 2);
        assert_eq!(decoded.1[0].state, JobState::Done);
        assert_eq!(decoded.1[0].seq, 1);
        assert_eq!(decoded.1[0].exit, None);
        assert_eq!(decoded.1[1].state, JobState::Queued);
    }

    #[test]
    fn terminal_marker_round_trips_and_rejects_nonterminal() {
        for (state, exit) in [
            (JobState::Done, 0),
            (JobState::Failed, 5),
            (JobState::Shed, 9),
            (JobState::Cancelled, 11),
        ] {
            let text = encode_terminal_marker(state, exit);
            assert_eq!(decode_terminal_marker(&text), Ok((state, exit)));
        }
        assert!(decode_terminal_marker("queued 0\n").is_err());
        assert!(decode_terminal_marker("running 0").is_err());
        assert!(decode_terminal_marker("done\n").is_err());
        assert!(decode_terminal_marker("done zero\n").is_err());
    }
}
