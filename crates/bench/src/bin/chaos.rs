//! `chaos` — the deterministic chaos-soak harness for the campaign
//! service.
//!
//! Composes every failure injector the stack exposes into one seeded
//! storm against a *real* `campaignd` (the sibling `serve`/`submit`/
//! `verify` binaries, over a real unix socket): `kill -9` with restart,
//! graceful SIGTERM drains, malformed and oversized frames, wedged and
//! vanishing clients, queue-overflow bursts, cancellations, duplicate
//! keyed submits — optionally on top of `--inject-io` torn-write faults
//! inside the server. The schedule is a pure function of `--chaos-seed`
//! (see `sectlb_secbench::chaos`), so a failing soak is re-runnable
//! bit-for-bit: the transcript starts with the rendered plan, and the
//! seed is the repro.
//!
//! The soak runs one reference pass first — the same jobs on a server
//! nothing disturbs — then the storm, then heals the service and checks
//! the invariants:
//!
//! 1. every primary job reaches `done` exit 0, exactly once;
//! 2. every primary output is byte-identical to the reference;
//! 3. no idempotency key ever maps to two job ids;
//! 4. every sacrificial job (cancel targets, burst filler) is terminal;
//! 5. the state dir passes `verify` (`--strict` unless `--inject-io`
//!    legitimately left recoverable debris).
//!
//! Usage: `chaos --state DIR [--chaos-seed N] [--jobs N] [--actions N]
//! [--trials N] [--inject-io KIND[:PM]] [--fault-seed S]
//! [--require-action NAME] [--print-plan]`
//!
//! Exit 0 when every invariant holds, 1 on any violation, 2 on usage
//! errors (including a pinned `--require-action` the seed's plan never
//! fires — CI seeds are chosen so their plan provably contains a kill).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use sectlb_bench::cli;
use sectlb_bench::exit::{usage, EXIT_SETUP};
use sectlb_secbench::chaos::{ChaosAction, ChaosPlan};
use sectlb_secbench::codec::Word;

/// A sibling binary next to our own executable — the harness always
/// drives the binaries it was built with.
fn sibling(name: &str) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("chaos: cannot locate own executable: {e}");
        std::process::exit(EXIT_SETUP);
    });
    let dir = exe.parent().unwrap_or_else(|| {
        eprintln!("chaos: executable has no parent directory");
        std::process::exit(EXIT_SETUP);
    });
    dir.join(name)
}

/// One job the soak tracks to a verdict.
struct TrackedJob {
    key: String,
    id: u64,
    /// Primary jobs must finish `done` exit 0 and byte-match the
    /// reference; sacrificial ones only have to reach *a* terminal state.
    primary: bool,
    /// The terminal `(state, exit)` first observed for this job; a later
    /// different terminal observation is an exactly-once violation.
    terminal: Option<(String, Option<i32>)>,
}

struct Harness {
    serve: PathBuf,
    submit: PathBuf,
    socket: PathBuf,
    state: PathBuf,
    server_flags: Vec<String>,
    server: Option<Child>,
    violations: Vec<String>,
}

impl Harness {
    fn violation(&mut self, what: impl std::fmt::Display) {
        eprintln!("chaos: INVARIANT VIOLATED: {what}");
        self.violations.push(what.to_string());
    }

    fn start_server(&mut self) {
        let child = Command::new(&self.serve)
            .arg("--socket")
            .arg(&self.socket)
            .arg("--state")
            .arg(&self.state)
            .args(&self.server_flags)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("chaos: cannot spawn serve: {e}");
                std::process::exit(EXIT_SETUP);
            });
        self.server = Some(child);
        self.wait_listening();
    }

    fn wait_listening(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if self.client(&["ping"]).status.success() {
                return;
            }
            if Instant::now() >= deadline {
                eprintln!("chaos: server never started listening");
                std::process::exit(EXIT_SETUP);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn client(&self, args: &[&str]) -> Output {
        Command::new(&self.submit)
            .arg("--socket")
            .arg(&self.socket)
            .args(args)
            .output()
            .unwrap_or_else(|e| {
                eprintln!("chaos: cannot run submit: {e}");
                std::process::exit(EXIT_SETUP);
            })
    }

    /// Kills the server with `signal` ("KILL" or "TERM"), reaps it, and
    /// restarts it on the same state dir.
    fn kill_and_restart(&mut self, signal: &str) {
        if let Some(mut child) = self.server.take() {
            let pid = child.id().to_string();
            let _ = Command::new("kill")
                .args([&format!("-{signal}"), &pid])
                .status();
            let deadline = Instant::now() + Duration::from_secs(60);
            while child.try_wait().ok().flatten().is_none() {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            let _ = child.wait();
        }
        self.start_server();
    }

    /// Submits a job spec; returns the accepted id, or `None` when the
    /// submission was (legitimately) rejected by backpressure.
    fn submit_job(&mut self, trials: u64, seed: u64, priority: u8, key: &str) -> Option<u64> {
        let out = self.client(&[
            "submit",
            "--trials",
            &trials.to_string(),
            "--seed",
            &seed.to_string(),
            "--priority",
            &priority.to_string(),
            "--tag",
            "soak",
            "--idempotency-key",
            key,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .trim()
            .strip_prefix("accepted ")
            .and_then(|id| id.parse().ok())
    }

    /// Best-effort: waits (bounded) until some tracked job reports
    /// `running`, so a following `kill -9` lands mid-job.
    fn wait_any_running(&mut self, tracked: &[TrackedJob]) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            for job in tracked {
                let out = self.client(&["status", &job.id.to_string()]);
                if String::from_utf8_lossy(&out.stdout).contains(" running") {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Polls one job's status; returns `(state, exit)` once terminal.
    fn status(&mut self, id: u64) -> Option<(String, Option<i32>)> {
        let out = self.client(&["status", &id.to_string()]);
        let line = String::from_utf8_lossy(&out.stdout).into_owned();
        let mut tokens = line.split_whitespace();
        let (Some("job"), Some(_), Some(state)) = (tokens.next(), tokens.next(), tokens.next())
        else {
            return None;
        };
        let exit = match (tokens.next(), tokens.next()) {
            (Some("exit"), Some(code)) => code.parse().ok(),
            _ => None,
        };
        matches!(state, "done" | "failed" | "shed" | "cancelled").then(|| (state.to_owned(), exit))
    }

    fn graceful_shutdown(&mut self) {
        let _ = self.client(&["shutdown"]);
        if let Some(mut child) = self.server.take() {
            let deadline = Instant::now() + Duration::from_secs(120);
            while child.try_wait().ok().flatten().is_none() {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let _ = child.wait();
        }
    }
}

/// Runs the reference pass: the same primary jobs on an undisturbed
/// server, returning each key's output bytes.
fn reference_outputs(
    harness_template: &Harness,
    root: &Path,
    jobs: u64,
    trials: u64,
) -> Vec<(String, Vec<u8>)> {
    let state = root.join("reference");
    let _ = std::fs::remove_dir_all(&state);
    let mut harness = Harness {
        serve: harness_template.serve.clone(),
        submit: harness_template.submit.clone(),
        socket: root.join("reference.sock"),
        state: state.clone(),
        server_flags: harness_template.server_flags.clone(),
        server: None,
        violations: Vec::new(),
    };
    harness.start_server();
    let mut ids = Vec::new();
    for k in 0..jobs {
        let key = format!("soak{k}");
        let id = harness
            .submit_job(trials, 100 + k * 7, 200, &key)
            .unwrap_or_else(|| {
                eprintln!("chaos: reference submit rejected for {key}");
                std::process::exit(EXIT_SETUP);
            });
        ids.push((key, id));
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    for (key, id) in &ids {
        loop {
            match harness.status(*id) {
                Some((state, exit)) => {
                    if state != "done" || exit != Some(0) {
                        eprintln!("chaos: reference job {key} ended {state} {exit:?}");
                        std::process::exit(EXIT_SETUP);
                    }
                    break;
                }
                None => {
                    if Instant::now() >= deadline {
                        eprintln!("chaos: reference job {key} never finished");
                        std::process::exit(EXIT_SETUP);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
    harness.graceful_shutdown();
    ids.into_iter()
        .map(|(key, id)| {
            let path = state.join("jobs").join(id.to_string()).join("output.txt");
            let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("chaos: reference output missing for {key}: {e}");
                std::process::exit(EXIT_SETUP);
            });
            (key, bytes)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let root = PathBuf::from(
        cli::value_flag(&args, "--state")
            .unwrap_or_else(|| usage("chaos: --state DIR is required")),
    );
    let seed: u64 = cli::num_flag(&args, "--chaos-seed", 1);
    let jobs: u64 = cli::num_flag(&args, "--jobs", 4).max(1);
    let actions: usize = cli::num_flag(&args, "--actions", 16);
    let trials: u64 = cli::num_flag(&args, "--trials", 30).max(1);
    let inject_io = cli::value_flag(&args, "--inject-io").map(str::to_owned);
    let fault_seed = cli::value_flag(&args, "--fault-seed").map(str::to_owned);

    let plan = ChaosPlan::generate(seed, actions);
    print!("{}", plan.render());
    if args.iter().any(|a| a == "--print-plan") {
        return;
    }
    if let Some(required) = cli::value_flag(&args, "--require-action") {
        let action = ChaosAction::from_name(required)
            .unwrap_or_else(|| usage(format!("chaos: unknown action {required:?}")));
        if !plan.contains(action) {
            usage(format!(
                "chaos: seed {seed} never fires {required} in {actions} actions — pick a \
                 seed whose plan contains it (try --print-plan)"
            ));
        }
    }

    if std::fs::create_dir_all(&root).is_err() {
        eprintln!("chaos: cannot create {}", root.display());
        std::process::exit(EXIT_SETUP);
    }
    // Capacity leaves room for every primary plus a little filler, so
    // queue-burst actions genuinely overflow it.
    let mut server_flags: Vec<String> = [
        "--queue-capacity",
        &(jobs + 4).to_string(),
        "--max-active",
        "2",
        "--workers",
        "2",
        "--io-timeout-ms",
        "500",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(spec) = &inject_io {
        server_flags.extend(["--inject-io".to_owned(), spec.clone()]);
    }
    if let Some(s) = &fault_seed {
        server_flags.extend(["--fault-seed".to_owned(), s.clone()]);
    }

    let mut harness = Harness {
        serve: sibling("serve"),
        submit: sibling("submit"),
        socket: root.join("chaos.sock"),
        state: root.join("soak"),
        server_flags,
        server: None,
        violations: Vec::new(),
    };

    // Phase 1: the undisturbed reference. No fault flags — the reference
    // defines the bytes every later recovery must reproduce (I/O faults
    // are recovered, not reflected in output, so the comparison stands
    // even under --inject-io).
    let io_flag_count = 2 * (inject_io.is_some() as usize + fault_seed.is_some() as usize);
    let clean_flags = harness.server_flags[..harness.server_flags.len() - io_flag_count].to_vec();
    let reference = reference_outputs(
        &Harness {
            serve: harness.serve.clone(),
            submit: harness.submit.clone(),
            socket: PathBuf::new(),
            state: PathBuf::new(),
            server_flags: clean_flags,
            server: None,
            violations: Vec::new(),
        },
        &root,
        jobs,
        trials,
    );
    eprintln!("chaos: reference pass complete ({} jobs)", reference.len());

    // Phase 2: the storm. Submit every primary job, then replay the plan.
    let _ = std::fs::remove_dir_all(&harness.state);
    harness.start_server();
    let mut tracked: Vec<TrackedJob> = Vec::new();
    for k in 0..jobs {
        let key = format!("soak{k}");
        match harness.submit_job(trials, 100 + k * 7, 200, &key) {
            Some(id) => tracked.push(TrackedJob {
                key,
                id,
                primary: true,
                terminal: None,
            }),
            None => {
                eprintln!("chaos: primary submit rejected for {key}");
                std::process::exit(EXIT_SETUP);
            }
        }
    }

    let mut sacrifice = 0u64;
    for (step, action) in plan.actions.iter().enumerate() {
        eprintln!("chaos: step {step}: {}", action.name());
        match action {
            ChaosAction::Kill9 => {
                harness.wait_any_running(&tracked);
                harness.kill_and_restart("KILL");
            }
            ChaosAction::Sigterm => harness.kill_and_restart("TERM"),
            ChaosAction::MalformedFrame => {
                if let Ok(mut s) = UnixStream::connect(&harness.socket) {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = s.write_all(b"bogus nonsense\n");
                    let mut line = String::new();
                    let _ = BufReader::new(&s).read_line(&mut line);
                }
            }
            ChaosAction::OversizedFrame => {
                if let Ok(mut s) = UnixStream::connect(&harness.socket) {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = s.write_all(&vec![b'a'; 5000]);
                    let mut line = String::new();
                    let _ = BufReader::new(&s).read_line(&mut line);
                }
            }
            ChaosAction::WedgedClient => {
                // Half a request, then silence; the server's read
                // timeout sheds it while we move on.
                if let Ok(mut s) = UnixStream::connect(&harness.socket) {
                    let _ = s.write_all(b"submit half-a-req");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            ChaosAction::ClientDisconnect => {
                // Open a watch, take one frame, vanish mid-stream.
                if let Some(job) = tracked.first() {
                    if let Ok(mut s) = UnixStream::connect(&harness.socket) {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                        let _ = writeln!(s, "watch {} 0", job.id);
                        let mut line = String::new();
                        let _ = BufReader::new(&s).read_line(&mut line);
                    }
                }
            }
            ChaosAction::QueueBurst => {
                for _ in 0..(jobs + 6) {
                    let key = format!("burst{sacrifice}");
                    sacrifice += 1;
                    if let Some(id) = harness.submit_job(3, sacrifice, 1, &key) {
                        tracked.push(TrackedJob {
                            key,
                            id,
                            primary: false,
                            terminal: None,
                        });
                    }
                }
            }
            ChaosAction::CancelJob => {
                let key = format!("cancel{sacrifice}");
                sacrifice += 1;
                if let Some(id) = harness.submit_job(200, sacrifice, 150, &key) {
                    let _ = harness.client(&["cancel", &id.to_string()]);
                    tracked.push(TrackedJob {
                        key,
                        id,
                        primary: false,
                        terminal: None,
                    });
                }
            }
            ChaosAction::DuplicateSubmit => {
                let k = step as u64 % jobs;
                let key = format!("soak{k}");
                if let Some(id) = harness.submit_job(trials, 100 + k * 7, 200, &key) {
                    let original = tracked.iter().find(|j| j.key == key).map(|j| j.id);
                    if original != Some(id) {
                        harness.violation(format!(
                            "duplicate submit of {key} got job {id}, original was {original:?}"
                        ));
                    }
                }
            }
            ChaosAction::StatusProbe => {
                let _ = harness.client(&["status", "1"]);
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    // Phase 3: heal and drain — every tracked job must settle exactly
    // once. A terminal state observed to *change* is a double-execution.
    eprintln!("chaos: storm complete, draining {} jobs", tracked.len());
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let mut pending = 0;
        for job in &mut tracked {
            let observed = harness.status(job.id);
            match (observed, &job.terminal) {
                (Some(now), Some(before)) if now != *before => {
                    let key = job.key.clone();
                    let before = before.clone();
                    harness.violation(format!("job {key} settled twice: {before:?} then {now:?}"));
                }
                (Some(now), None) => job.terminal = Some(now),
                (Some(_), Some(_)) => {}
                (None, _) => pending += 1,
            }
        }
        if pending == 0 {
            break;
        }
        if Instant::now() >= deadline {
            harness.violation(format!("{pending} jobs never reached a terminal state"));
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    harness.graceful_shutdown();

    // Invariants 1 + 2: primaries are done exit 0 with reference bytes.
    for job in tracked.iter().filter(|j| j.primary) {
        match &job.terminal {
            Some((state, exit)) if state == "done" && *exit == Some(0) => {}
            other => {
                harness.violation(format!("primary {} ended {other:?}", job.key));
                continue;
            }
        }
        let path = harness
            .state
            .join("jobs")
            .join(job.id.to_string())
            .join("output.txt");
        let expected = reference.iter().find(|(k, _)| *k == job.key);
        match (std::fs::read(&path), expected) {
            (Ok(bytes), Some((_, reference_bytes))) => {
                if bytes != *reference_bytes {
                    harness.violation(format!(
                        "primary {} output differs from the undisturbed reference",
                        job.key
                    ));
                }
            }
            (Err(e), _) => harness.violation(format!("primary {} output unreadable: {e}", job.key)),
            (_, None) => harness.violation(format!("primary {} has no reference", job.key)),
        }
    }

    // Invariant 5: the state dir audits clean. Engine I/O faults
    // legitimately leave recoverable generations behind, so --strict
    // only applies to storms without them.
    let mut verify = Command::new(sibling("verify"));
    verify.arg("--state").arg(&harness.state);
    if inject_io.is_none() {
        verify.arg("--strict");
    }
    match verify.output() {
        Ok(out) if out.status.success() => {}
        Ok(out) => harness.violation(format!(
            "verify failed (exit {:?}):\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout)
        )),
        Err(e) => harness.violation(format!("cannot run verify: {e}")),
    }

    if harness.violations.is_empty() {
        println!(
            "chaos: soak passed: seed {seed}, {} actions, {} jobs tracked, outputs byte-identical",
            actions,
            tracked.len()
        );
    } else {
        println!(
            "chaos: soak FAILED: seed {seed}, {} violations",
            harness.violations.len()
        );
        for v in &harness.violations {
            println!("chaos:   - {v}");
        }
        std::process::exit(1);
    }
}
