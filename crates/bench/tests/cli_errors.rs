//! End-to-end tests of the drivers' flag error paths and exit codes.
//!
//! Each case spawns a real driver binary and pins (a) the exit code and
//! (b) the specific diagnostic — a malformed invocation must fail fast
//! with exit 2 and an actionable message, never start a campaign, and
//! `--help` must not be treated as an error.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn replay_help_prints_usage_to_stdout_and_exits_clean() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_replay"), &[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} is not an error");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: replay REPRO_FILE..."), "{stdout}");
        assert!(out.stderr.is_empty(), "usage belongs on stdout for --help");
    }
}

#[test]
fn replay_without_arguments_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_replay"), &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: replay REPRO_FILE..."));
    assert!(out.stdout.is_empty(), "errors belong on stderr");
}

#[test]
fn zero_workers_fails_fast_with_a_specific_message() {
    let out = run(env!("CARGO_BIN_EXE_table5"), &["--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--workers must be at least 1"), "{err}");
    assert!(out.stdout.is_empty(), "no campaign output before the error");
}

#[test]
fn checkpoint_every_without_checkpoint_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_table5"), &["--checkpoint-every", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--checkpoint-every requires --checkpoint PATH"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_per_mille_rates_are_rejected() {
    for args in [
        &["--inject-corruption=1001"][..],
        &["--inject-corruption=abc"],
        &["--oracle=1001"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_table5"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("per-mille rate (0..=1000)"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn kill_after_without_checkpoint_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_attack_success"), &["--kill-after", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--kill-after requires --checkpoint"), "{err}");
    assert!(err.contains("discards all completed work"), "{err}");
}

#[test]
fn kill_after_zero_is_rejected() {
    let out = run(
        env!("CARGO_BIN_EXE_attack_success"),
        &["--checkpoint", "ck.txt", "--kill-after", "0"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--kill-after must be at least 1"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_budget_flags_are_rejected() {
    for (args, needle) in [
        (
            &["--deadline", "0"][..],
            "--deadline needs a positive number",
        ),
        (&["--deadline", "soon"], "--deadline needs a number"),
        (
            &["--cell-deadline-ms", "0"],
            "--cell-deadline-ms must be at least 1",
        ),
    ] {
        let out = run(env!("CARGO_BIN_EXE_table5"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn adaptive_alpha_and_conflicts_are_rejected() {
    let out = run(env!("CARGO_BIN_EXE_table4"), &["--adaptive=1.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("alpha in (0, 1)"), "{}", stderr(&out));

    let out = run(
        env!("CARGO_BIN_EXE_table4"),
        &["--adaptive", "--checkpoint", "ck.txt", "--kill-after", "2"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--adaptive conflicts with --kill-after"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn drivers_without_adaptive_verdicts_reject_the_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_table5"),
        env!("CARGO_BIN_EXE_attack_success"),
        env!("CARGO_BIN_EXE_table7_eval"),
        env!("CARGO_BIN_EXE_ablation_sp_ways"),
        env!("CARGO_BIN_EXE_fig7"),
    ] {
        let out = run(bin, &["--adaptive"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(
            stderr(&out).contains("does not support --adaptive"),
            "{bin}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn unknown_flags_are_named_and_rejected() {
    // An unknown flag, a misspelt `--trials` (which used to run the
    // default 500 trials) and a flag table4 does not have (campaignd
    // jobs take `--seed`; table4 used to ignore it).
    for (args, flag) in [
        (&["--trials", "2", "--no-such-flag"][..], "--no-such-flag"),
        (&["--trails", "7"], "--trails"),
        (&["--seed", "5"], "--seed"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_table4"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "no campaign output before the error");
    }
    // Drivers that read no flags refuse them too.
    let out = run(env!("CARGO_BIN_EXE_table2"), &["--workers", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag --workers"));
}
