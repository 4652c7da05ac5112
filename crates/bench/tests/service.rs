//! End-to-end tests of the campaign service (`serve` + `submit`).
//!
//! The acceptance contract of the service layer, driven through the real
//! binaries over a real unix socket:
//!
//! - **Backpressure**: a submission beyond `--queue-capacity` is
//!   rejected and the client exits 8 (`EXIT_QUEUE_FULL`).
//! - **Graceful drain**: SIGTERM with jobs in flight checkpoints every
//!   job; a restarted server resumes and finishes them, and the final
//!   outputs are byte-identical to jobs run on a never-interrupted
//!   server.
//! - **Transport hardening**: a wedged client is shed by the read
//!   timeout without affecting other connections, a malformed request
//!   errors only its own connection, `watch` streams heartbeats, and
//!   `--wait-timeout` bounds the client with a typed exit code (10).
//! - **Hard-crash recovery**: `kill -9` mid-job, restart, and the
//!   resumed outputs are byte-identical to an undisturbed reference —
//!   orphaned tmp staging files are reaped on the way up.
//! - **Idempotent submission**: retrying a keyed submit verbatim (the
//!   exit-10 wait-timeout retry) returns the original job id and never
//!   double-enqueues.
//! - **Cancellation**: a queued job cancels immediately, a running job
//!   is preempted at the engine's claim boundary; both end `cancelled`
//!   with exit 11, and the state survives a restart.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const SUBMIT: &str = env!("CARGO_BIN_EXE_submit");

/// Kills the server on drop so a failing test never leaks a daemon.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-service-{}-{name}", std::process::id()));
    p
}

fn start_server(socket: &Path, state: &Path, extra: &[&str]) -> ServerGuard {
    let child = Command::new(SERVE)
        .arg("--socket")
        .arg(socket)
        .arg("--state")
        .arg(state)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    ServerGuard(child)
}

fn client(socket: &Path, args: &[&str]) -> Output {
    Command::new(SUBMIT)
        .arg("--socket")
        .arg(socket)
        .args(args)
        .output()
        .expect("submit binary runs")
}

fn wait_until_listening(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if client(socket, &["ping"]).status.success() {
            return;
        }
        assert!(Instant::now() < deadline, "server never started listening");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls a job until its status line reports `done`; panics on `failed`
/// or `shed` (this suite never sheds).
fn wait_done(socket: &Path, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let out = client(socket, &["status", &id.to_string()]);
        let line = String::from_utf8_lossy(&out.stdout).into_owned();
        if line.contains(" done ") {
            return;
        }
        assert!(
            !line.contains(" failed") && !line.contains(" shed"),
            "job {id} ended badly: {line}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished: {line}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Polls a job until its status line reports `running`; panics if it
/// finishes first. The signal tests call this right before they signal,
/// so the signal lands while the job is mid-flight.
fn wait_running(socket: &Path, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let out = client(socket, &["status", &id.to_string()]);
        let line = String::from_utf8_lossy(&out.stdout).into_owned();
        if line.contains(" running") {
            return;
        }
        assert!(
            !line.contains(" done ") && !line.contains(" failed"),
            "job {id} ended before it was seen running: {line}"
        );
        assert!(Instant::now() < deadline, "job {id} never started: {line}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Whether job `id` wrote its terminal marker — which every finished job
/// does before its manifest entry turns terminal.
fn finished_on_disk(state: &Path, id: u64) -> bool {
    state
        .join("jobs")
        .join(id.to_string())
        .join("done.txt")
        .exists()
}

/// Server flags for the signal tests: two jobs side by side, each on one
/// worker, and every shard's first attempt stalled 10 ms. The stalls pace
/// a 40-trial job (144 shards) to at least 1.4 s on any machine, so a
/// signal sent once both jobs run lands mid-flight; they change no output.
const PACED_PAIR: [&str; 10] = [
    "--queue-capacity",
    "4",
    "--max-active",
    "2",
    "--workers",
    "2",
    "--inject-stall",
    "1000",
    "--inject-stall-ms",
    "10",
];

fn shutdown_and_wait(socket: &Path, mut server: ServerGuard) {
    let out = client(socket, &["shutdown"]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("draining"),
        "shutdown acknowledged"
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(status) = server.0.try_wait().expect("child pollable") {
            assert!(status.success(), "server drained cleanly: {status}");
            return;
        }
        assert!(Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn a_full_queue_rejects_submissions_with_the_typed_exit_code() {
    let socket = tmp("full.sock");
    let state = tmp("full-state");
    let _ = std::fs::remove_dir_all(&state);
    let server = start_server(
        &socket,
        &state,
        &[
            "--queue-capacity",
            "1",
            "--max-active",
            "1",
            "--workers",
            "1",
        ],
    );
    wait_until_listening(&socket);

    // Job 1 occupies the single runner for several seconds.
    let out = client(&socket, &["submit", "--trials", "150", "--tag", "long-a"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 1");
    // De-race: wait until the runner has popped it off the queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let line_out = client(&socket, &["status", "1"]);
        let line = String::from_utf8_lossy(&line_out.stdout).into_owned();
        if !line.contains(" queued") {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started: {line}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Job 2 fills the queue's single slot; job 3 hits backpressure.
    let out = client(&socket, &["submit", "--trials", "5", "--tag", "fits"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 2");
    let out = client(&socket, &["submit", "--trials", "5", "--tag", "bounced"]);
    assert_eq!(
        out.status.code(),
        Some(8),
        "queue-full rejections exit EXIT_QUEUE_FULL; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("queue full"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn sigterm_drains_in_flight_jobs_and_a_restart_finishes_them_byte_identically() {
    let flags = PACED_PAIR;
    let submissions: [&[&str]; 2] = [
        &["submit", "--trials", "40", "--seed", "11", "--tag", "ref-a"],
        &["submit", "--trials", "40", "--seed", "22", "--tag", "ref-b"],
    ];

    // Reference: the same two jobs on a server that is never disturbed.
    let ref_socket = tmp("ref.sock");
    let ref_state = tmp("ref-state");
    let _ = std::fs::remove_dir_all(&ref_state);
    let server = start_server(&ref_socket, &ref_state, &flags);
    wait_until_listening(&ref_socket);
    for (i, s) in submissions.iter().enumerate() {
        let out = client(&ref_socket, s);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            format!("accepted {}", i + 1)
        );
    }
    wait_done(&ref_socket, 1);
    wait_done(&ref_socket, 2);
    shutdown_and_wait(&ref_socket, server);

    // Disturbed: same submissions, SIGTERM mid-flight, restart, resume.
    let socket = tmp("drain.sock");
    let state = tmp("drain-state");
    let _ = std::fs::remove_dir_all(&state);
    let server = start_server(&socket, &state, &flags);
    wait_until_listening(&socket);
    for s in &submissions {
        assert!(client(&socket, s).status.success());
    }
    // Drain once both jobs run: the pacing keeps them in flight.
    wait_running(&socket, 1);
    wait_running(&socket, 2);
    let pid = server.0.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs")
        .success());
    {
        let mut server = server;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(status) = server.0.try_wait().expect("child pollable") {
                assert!(status.success(), "SIGTERM drain exits cleanly: {status}");
                break;
            }
            assert!(Instant::now() < deadline, "server never drained on SIGTERM");
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    for id in [1, 2] {
        assert!(
            !finished_on_disk(&state, id),
            "job {id} finished before SIGTERM landed: nothing was drained mid-flight"
        );
    }
    let manifest =
        std::fs::read_to_string(state.join("manifest.txt")).expect("drained manifest exists");
    assert!(
        manifest.starts_with("secbench-frame v1"),
        "manifests are sealed in the checksummed frame: {manifest}"
    );
    assert!(
        manifest.contains("secbench-campaignd v1"),
        "the frame wraps the manifest format: {manifest}"
    );

    let server = start_server(&socket, &state, &flags);
    wait_until_listening(&socket);
    wait_done(&socket, 1);
    wait_done(&socket, 2);
    shutdown_and_wait(&socket, server);

    for id in [1, 2] {
        let reference = std::fs::read(
            ref_state
                .join("jobs")
                .join(id.to_string())
                .join("output.txt"),
        )
        .expect("reference output exists");
        let resumed = std::fs::read(state.join("jobs").join(id.to_string()).join("output.txt"))
            .expect("resumed output exists");
        assert_eq!(
            reference, resumed,
            "job {id}: resumed output differs from the undisturbed reference"
        );
    }
    let _ = std::fs::remove_dir_all(&ref_state);
    let _ = std::fs::remove_dir_all(&state);
}

/// Polls a job until its status line reports `cancelled`.
fn wait_cancelled(socket: &Path, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let out = client(socket, &["status", &id.to_string()]);
        let line = String::from_utf8_lossy(&out.stdout).into_owned();
        if line.contains(" cancelled") {
            return line;
        }
        assert!(
            !line.contains(" done") && !line.contains(" failed"),
            "job {id} finished instead of cancelling: {line}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} never cancelled: {line}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn kill_dash_nine_mid_job_recovers_on_restart_byte_identically() {
    let flags = PACED_PAIR;
    let submissions: [&[&str]; 2] = [
        &[
            "submit", "--trials", "40", "--seed", "33", "--tag", "crash-a",
        ],
        &[
            "submit", "--trials", "40", "--seed", "44", "--tag", "crash-b",
        ],
    ];

    // Reference: the same two jobs on a server that is never disturbed.
    let ref_socket = tmp("k9ref.sock");
    let ref_state = tmp("k9ref-state");
    let _ = std::fs::remove_dir_all(&ref_state);
    let server = start_server(&ref_socket, &ref_state, &flags);
    wait_until_listening(&ref_socket);
    for s in &submissions {
        assert!(client(&ref_socket, s).status.success());
    }
    wait_done(&ref_socket, 1);
    wait_done(&ref_socket, 2);
    shutdown_and_wait(&ref_socket, server);

    // Disturbed: same submissions, SIGKILL mid-flight — no drain, no
    // manifest flush, no goodbye of any kind — then restart and recover.
    let socket = tmp("k9.sock");
    let state = tmp("k9-state");
    let _ = std::fs::remove_dir_all(&state);
    let mut server = start_server(&socket, &state, &flags);
    wait_until_listening(&socket);
    for s in &submissions {
        assert!(client(&socket, s).status.success());
    }
    // Let both jobs run (and checkpoint a few shards), then kill without
    // mercy. The pacing keeps them in flight well past the pause.
    wait_running(&socket, 1);
    wait_running(&socket, 2);
    std::thread::sleep(Duration::from_millis(300));
    let pid = server.0.id().to_string();
    assert!(Command::new("kill")
        .args(["-KILL", &pid])
        .status()
        .expect("kill runs")
        .success());
    let status = server.0.wait().expect("killed server reaped");
    assert!(!status.success(), "SIGKILL is not a clean exit: {status}");
    for id in [1, 2] {
        assert!(
            !finished_on_disk(&state, id),
            "job {id} finished before the kill landed: nothing was recovered mid-flight"
        );
    }

    let server = start_server(&socket, &state, &flags);
    wait_until_listening(&socket);
    wait_done(&socket, 1);
    wait_done(&socket, 2);
    shutdown_and_wait(&socket, server);

    for id in [1, 2] {
        let reference = std::fs::read(
            ref_state
                .join("jobs")
                .join(id.to_string())
                .join("output.txt"),
        )
        .expect("reference output exists");
        let recovered = std::fs::read(state.join("jobs").join(id.to_string()).join("output.txt"))
            .expect("recovered output exists");
        assert_eq!(
            reference, recovered,
            "job {id}: output recovered after kill -9 differs from the undisturbed reference"
        );
    }
    // The restart reaped any orphaned atomic-write staging files the
    // kill left behind — nothing `.tmp.` survives at the state root.
    for entry in std::fs::read_dir(&state).expect("state dir readable") {
        let name = entry.expect("entry").file_name();
        assert!(
            !name.to_string_lossy().contains(".tmp."),
            "orphan staging file survived recovery: {name:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&ref_state);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_retried_keyed_submit_returns_the_original_job_and_never_double_enqueues() {
    let socket = tmp("idem.sock");
    let state = tmp("idem-state");
    let _ = std::fs::remove_dir_all(&state);
    // Deterministic per-shard stalls pin job wall-clock (~3.5s) so the
    // 1-second wait deadline below trips regardless of build profile.
    let server = start_server(
        &socket,
        &state,
        &[
            "--max-active",
            "1",
            "--workers",
            "1",
            "--queue-capacity",
            "4",
            "--inject-stall",
            "1000",
            "--inject-stall-ms",
            "8",
        ],
    );
    wait_until_listening(&socket);

    // Job 1 occupies the single runner so job 2 sits queued long enough
    // for its waiting client to time out.
    let out = client(&socket, &["submit", "--trials", "150", "--tag", "long"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 1");

    let keyed: [&str; 9] = [
        "submit",
        "--trials",
        "5",
        "--tag",
        "keyed",
        "--idempotency-key",
        "retry-me",
        "--wait",
        "--wait-timeout",
    ];
    let mut with_timeout: Vec<&str> = keyed.to_vec();
    with_timeout.push("1");
    let out = client(&socket, &with_timeout);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "accepted 2",
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.status.code(),
        Some(10),
        "the first wait gave up with the typed wait-timeout code"
    );

    // The client retries the submit verbatim — the regression this test
    // pins is the server enqueueing job 3 instead of answering 2.
    let out = client(&socket, &with_timeout);
    assert!(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .is_some_and(|l| l.trim() == "accepted 2"),
        "a retried keyed submit returns the original id: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // And nothing was double-enqueued: there is no job 3.
    let out = client(&socket, &["status", "3"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "job 3 must not exist: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no such job"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_dequeues_queued_jobs_and_preempts_running_ones_with_exit_eleven() {
    let socket = tmp("cancel.sock");
    let state = tmp("cancel-state");
    let _ = std::fs::remove_dir_all(&state);
    // Deterministic per-shard stalls keep job 1 on the runner long
    // enough to cancel it mid-flight regardless of build profile.
    let server = start_server(
        &socket,
        &state,
        &[
            "--max-active",
            "1",
            "--workers",
            "1",
            "--queue-capacity",
            "4",
            "--inject-stall",
            "1000",
            "--inject-stall-ms",
            "8",
        ],
    );
    wait_until_listening(&socket);

    // Job 1 occupies the single runner; job 2 sits queued behind it.
    let out = client(&socket, &["submit", "--trials", "150", "--tag", "running"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 1");
    let out = client(&socket, &["submit", "--trials", "5", "--tag", "queued"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 2");

    // A queued job cancels immediately: dequeued, terminal, exit 11.
    let out = client(&socket, &["cancel", "2"]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("job 2 cancelled exit 11"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Cancelling it again is idempotent — same terminal answer.
    let out = client(&socket, &["cancel", "2"]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("job 2 cancelled exit 11"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // De-race: wait until job 1 is actually running.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let out = client(&socket, &["status", "1"]);
        if String::from_utf8_lossy(&out.stdout).contains(" running") {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never started");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Cancelling the running job preempts it at the engine's next claim
    // boundary; `--wait` follows it to the terminal state and exits with
    // the job's cancelled code.
    let out = client(&socket, &["cancel", "1", "--wait"]);
    assert_eq!(
        out.status.code(),
        Some(11),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    wait_cancelled(&socket, 1);

    // Cancelled is terminal and survives a restart.
    shutdown_and_wait(&socket, server);
    let server = start_server(&socket, &state, &["--workers", "1"]);
    wait_until_listening(&socket);
    for id in [1, 2] {
        let line = wait_cancelled(&socket, id);
        assert!(
            line.contains("exit 11"),
            "job {id} keeps its cancelled exit across restarts: {line}"
        );
    }
    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_wedged_client_is_shed_by_the_read_timeout_without_affecting_others() {
    let socket = tmp("wedge.sock");
    let state = tmp("wedge-state");
    let _ = std::fs::remove_dir_all(&state);
    let server = start_server(
        &socket,
        &state,
        &["--io-timeout-ms", "300", "--workers", "1"],
    );
    wait_until_listening(&socket);

    // Wedge: connect, send half a request, never finish the line.
    let mut wedged = UnixStream::connect(&socket).expect("connects");
    wedged
        .write_all(b"submit half-a-req")
        .expect("partial write");
    wedged
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");

    // The server keeps serving other clients while the wedge is pending.
    assert!(client(&socket, &["ping"]).status.success());

    // Within the read timeout the server sheds the wedged connection:
    // our read sees EOF (or a reset), well before our own 10s guard.
    let shed_by = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 64];
    match wedged.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!(
            "wedged connection got a reply instead of being shed: {:?}",
            String::from_utf8_lossy(&buf[..n])
        ),
    }
    assert!(
        Instant::now() < shed_by,
        "connection not shed within the read timeout"
    );
    // And the server is still healthy afterwards.
    assert!(client(&socket, &["ping"]).status.success());

    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_malformed_request_errors_its_own_connection_only() {
    let socket = tmp("mal.sock");
    let state = tmp("mal-state");
    let _ = std::fs::remove_dir_all(&state);
    let server = start_server(&socket, &state, &["--workers", "1"]);
    wait_until_listening(&socket);

    let mut stream = UnixStream::connect(&socket).expect("connects");
    stream.write_all(b"bogus nonsense\n").expect("writes");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("error reply readable");
    assert!(
        line.starts_with("error"),
        "malformed requests get a typed error reply: {line:?}"
    );
    // The server survives the bad client.
    assert!(client(&socket, &["ping"]).status.success());

    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn watch_streams_heartbeats_while_a_job_runs_and_wait_timeout_exits_typed() {
    let socket = tmp("watch.sock");
    let state = tmp("watch-state");
    let _ = std::fs::remove_dir_all(&state);
    // Deterministic per-shard stalls pin job wall-clock (~3.5s) so the
    // heartbeat window and the 1-second wait deadline below hold
    // regardless of build profile.
    let server = start_server(
        &socket,
        &state,
        &[
            "--max-active",
            "1",
            "--workers",
            "1",
            "--queue-capacity",
            "4",
            "--inject-stall",
            "1000",
            "--inject-stall-ms",
            "8",
        ],
    );
    wait_until_listening(&socket);

    // Job 1 occupies the single runner for several seconds.
    let out = client(&socket, &["submit", "--trials", "150", "--tag", "slow"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "accepted 1");

    // A watch on the running job streams heartbeat frames during idle.
    let mut stream = UnixStream::connect(&socket).expect("connects");
    stream.write_all(b"watch 1\n").expect("writes");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("first watch frame");
    // The legacy `watch 1` form still works; the stream now opens with
    // the sequence-numbered transition replay before any heartbeat.
    assert!(
        line.starts_with("event 1 1 queued")
            || line.starts_with("heartbeat 1")
            || line.starts_with("status 1"),
        "watch replays transitions then heartbeats: {line:?}"
    );
    drop(reader);

    // Job 2 queues behind job 1; a 1-second wait deadline trips the
    // typed client-gave-up exit code without touching the job itself.
    let out = client(
        &socket,
        &[
            "submit",
            "--trials",
            "5",
            "--tag",
            "queued",
            "--wait",
            "--wait-timeout",
            "1",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(10),
        "wait timeout exits EXIT_WAIT_TIMEOUT; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wait timeout"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The job outlives the impatient client.
    let out = client(&socket, &["status", "2"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("job 2"));

    // A patient wait on the same job sees it through and exits with the
    // job's own code — proving the watch stream path end to end.
    let out = client(
        &socket,
        &["submit", "--trials", "5", "--wait", "--tag", "patient"],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("done"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    shutdown_and_wait(&socket, server);
    let _ = std::fs::remove_dir_all(&state);
}
