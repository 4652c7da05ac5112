//! `verify` — fsck-style audit of a campaign state directory.
//!
//! ```text
//! verify --state DIR [--strict]
//! ```
//!
//! Walks everything `campaignd` and the checkpointing engines persist
//! under `DIR` and cross-checks it:
//!
//! - **Checksums** — every `secbench-frame` file (the manifest, per-job
//!   `ck.txt` checkpoints, any framed checkpoint dropped at the top
//!   level) must pass its header and payload CRCs.
//! - **Generation chains** — a corrupt current generation must have a
//!   readable `.prev` fallback; a previous generation must never be
//!   *ahead* of the current one (more completed tasks = the rotation
//!   went backwards).
//! - **Manifest ↔ job-dir agreement** — every `done` job has its
//!   `output.txt`, every job directory is claimed by the manifest, and
//!   the manifest's `next` id is above every issued id.
//!
//! Findings come in two severities. *Recoverable* findings are states
//! the runtime heals by design — a torn current generation with a good
//! `.prev`, or all generations torn (resume restarts fresh, which is
//! still bitwise-identical). *Inconsistent* findings break an invariant
//! no fallback repairs: manifest/job-dir disagreement, generation
//! regression, or a manifest lost in every generation while job state
//! remains.
//!
//! Exit codes: `0` clean (recoverable findings are reported but
//! tolerated, matching the runtime), `1` when anything inconsistent is
//! found — or, under `--strict`, when anything at all is found.
//! [`EXIT_USAGE`](sectlb_bench::exit::EXIT_USAGE) for bad flags,
//! [`EXIT_SETUP`] when the state dir cannot be read.

use std::path::{Path, PathBuf};

use sectlb_bench::cli;
use sectlb_bench::exit::{usage, EXIT_SETUP};
use sectlb_secbench::checkpoint::Checkpoint;
use sectlb_secbench::iofault::{self, prev_path};
use sectlb_secbench::service::{decode_manifest_stored, JobState, ManifestEntry};

/// The audit report: what was checked and what was found.
#[derive(Debug, Default)]
struct Audit {
    checked: usize,
    recoverable: Vec<String>,
    inconsistent: Vec<String>,
}

impl Audit {
    fn recoverable(&mut self, finding: impl Into<String>) {
        self.recoverable.push(finding.into());
    }

    fn inconsistent(&mut self, finding: impl Into<String>) {
        self.inconsistent.push(finding.into());
    }
}

/// How one on-disk artifact (current + `.prev` generation pair) fared.
enum Generations<T> {
    /// Neither generation exists.
    Absent,
    /// The current generation validated.
    Current(T),
    /// Current is corrupt/missing but `.prev` validated.
    Previous(T),
    /// At least one generation exists and none validated.
    Lost,
}

/// Loads a generation pair through `parse`, recording findings.
fn load_generations<T>(
    audit: &mut Audit,
    path: &Path,
    what: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Generations<T> {
    let prev = prev_path(path);
    let current = match std::fs::read_to_string(path) {
        Ok(text) => {
            audit.checked += 1;
            match parse(&text) {
                Ok(v) => Some(v),
                Err(e) => {
                    audit.recoverable(format!("{what} {}: corrupt: {e}", path.display()));
                    None
                }
            }
        }
        Err(_) => None,
    };
    let previous = match std::fs::read_to_string(&prev) {
        Ok(text) => {
            audit.checked += 1;
            match parse(&text) {
                Ok(v) => Some(v),
                Err(e) => {
                    // Only a latent hazard while current is good; the
                    // live fallback when current is torn.
                    audit.recoverable(format!(
                        "{what} {}: previous generation corrupt: {e}",
                        prev.display()
                    ));
                    None
                }
            }
        }
        Err(_) => None,
    };
    let existed = path.exists() || prev.exists();
    match (current, previous) {
        (Some(c), _) => Generations::Current(c),
        (None, Some(p)) => Generations::Previous(p),
        (None, None) if existed => Generations::Lost,
        (None, None) => Generations::Absent,
    }
}

/// Audits one job directory against its manifest entry.
fn audit_job(audit: &mut Audit, dir: &Path, entry: &ManifestEntry) {
    if entry.state == JobState::Done && !dir.join("output.txt").is_file() {
        audit.inconsistent(format!(
            "job {}: manifest says done but {} has no output.txt",
            entry.id,
            dir.display()
        ));
    }
    audit_checkpoint(audit, &dir.join("ck.txt"), &format!("job {}", entry.id));
}

/// Audits a checkpoint generation pair: CRCs, fallback, and that the
/// generations never regressed (previous ahead of current).
fn audit_checkpoint(audit: &mut Audit, path: &Path, what: &str) {
    let parse = |text: &str| Checkpoint::parse_stored(text).map_err(|e| e.to_string());
    match load_generations(audit, path, &format!("{what} checkpoint"), parse) {
        Generations::Absent | Generations::Previous(_) => {}
        Generations::Current(current) => {
            if let Ok(prev_text) = std::fs::read_to_string(prev_path(path)) {
                if let Ok(prev) = Checkpoint::parse_stored(&prev_text) {
                    if prev.done.len() > current.done.len() {
                        audit.inconsistent(format!(
                            "{what} checkpoint {}: generation regression: previous has {} \
                             completed tasks, current only {}",
                            path.display(),
                            prev.done.len(),
                            current.done.len()
                        ));
                    }
                }
            }
        }
        Generations::Lost => {
            // The engine restarts fresh — byte-identical, but all saved
            // progress is gone. Worth flagging, not fatal.
            audit.recoverable(format!(
                "{what} checkpoint {}: no generation readable (resume restarts fresh)",
                path.display()
            ));
        }
    }
}

/// Audits the manifest and its agreement with the `jobs/` tree.
fn audit_manifest(audit: &mut Audit, state: &Path) {
    let path = state.join("manifest.txt");
    let jobs = job_dirs(state);
    let loaded = load_generations(audit, &path, "manifest", decode_manifest_stored);
    let (next_id, entries) = match loaded {
        Generations::Current(decoded) => decoded,
        Generations::Previous(decoded) => decoded,
        Generations::Absent => {
            if !jobs.is_empty() {
                audit.inconsistent(format!(
                    "{} job directories under {} but no manifest claims them",
                    jobs.len(),
                    state.join("jobs").display()
                ));
            }
            return;
        }
        Generations::Lost => {
            audit.inconsistent(format!(
                "manifest {}: no generation readable — the job table is lost",
                path.display()
            ));
            return;
        }
    };
    if let Some(max) = entries.iter().map(|e| e.id).max() {
        if next_id <= max {
            audit.inconsistent(format!(
                "manifest {}: next id {next_id} is not above the highest issued id {max}",
                path.display()
            ));
        }
    }
    for entry in &entries {
        audit_job(audit, &state.join("jobs").join(entry.id.to_string()), entry);
    }
    for (id, dir) in &jobs {
        if !entries.iter().any(|e| e.id == *id) {
            audit.inconsistent(format!(
                "orphan job directory {} — not in the manifest",
                dir.display()
            ));
        }
    }
}

/// Numeric job directories under `DIR/jobs/`.
fn job_dirs(state: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    if let Ok(read) = std::fs::read_dir(state.join("jobs")) {
        for entry in read.flatten() {
            if let Ok(id) = entry.file_name().to_string_lossy().parse::<u64>() {
                if entry.path().is_dir() {
                    out.push((id, entry.path()));
                }
            }
        }
    }
    out.sort();
    out
}

/// Audits loose framed files at the state-dir root (standalone campaign
/// checkpoints that aren't `campaignd`'s manifest).
fn audit_loose_frames(audit: &mut Audit, state: &Path) {
    let Ok(read) = std::fs::read_dir(state) else {
        return;
    };
    let mut paths: Vec<PathBuf> = read
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name == "manifest.txt" || name.ends_with(".prev") {
            continue; // audited via their generation pairs
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if iofault::is_framed(&text) {
            audit_checkpoint(audit, &path, "state");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let state = cli::value_flag(&args, "--state")
        .map(PathBuf::from)
        .unwrap_or_else(|| usage("verify: --state DIR is required"));
    let strict = args.iter().any(|a| a == "--strict");
    if !state.is_dir() {
        eprintln!("verify: state dir {} does not exist", state.display());
        std::process::exit(EXIT_SETUP);
    }

    let mut audit = Audit::default();
    audit_manifest(&mut audit, &state);
    audit_loose_frames(&mut audit, &state);

    for finding in &audit.inconsistent {
        println!("verify: inconsistent: {finding}");
    }
    for finding in &audit.recoverable {
        println!("verify: recoverable: {finding}");
    }
    println!(
        "verify: {}: {} artifacts checked, {} inconsistent, {} recoverable",
        if audit.inconsistent.is_empty() {
            "clean"
        } else {
            "FAILED"
        },
        audit.checked,
        audit.inconsistent.len(),
        audit.recoverable.len()
    );
    let failed = !audit.inconsistent.is_empty() || (strict && !audit.recoverable.is_empty());
    std::process::exit(if failed { 1 } else { 0 });
}
