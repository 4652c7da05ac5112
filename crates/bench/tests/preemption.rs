//! A shard the cell deadline preempts is a budget outcome, not a fault:
//! the campaign reports it `TIMEOUT` and exits 7, and stderr carries no
//! panic report for it.

use std::process::Command;

const TABLE4: &str = env!("CARGO_BIN_EXE_table4");

#[test]
fn a_preempted_shard_prints_no_panic_report() {
    // Three shards in ten stall for 40 ms before their first trial; the
    // 5 ms cell deadline preempts each of them at its first trial boundary.
    let out = Command::new(TABLE4)
        .args([
            "--trials",
            "25",
            "--workers",
            "2",
            "--inject-stall",
            "300",
            "--inject-stall-ms",
            "40",
            "--cell-deadline-ms",
            "5",
        ])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("table4 runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(7),
        "a budget stop exits 7: {stderr}"
    );
    assert!(stdout.contains("TIMEOUT"), "{stdout}");
    assert!(
        stderr.contains("preempted"),
        "the pool line counts them: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
