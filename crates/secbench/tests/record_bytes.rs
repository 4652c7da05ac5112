//! Literal canonical bytes of every text record secbench writes.
//!
//! Round-trip tests alone cannot catch a change that rewrites an encoder
//! and its parser together: both halves can agree on new bytes. Each case
//! here is a literal copy of what the encoders produced, paired with the
//! value it stands for. Every literal must decode to its value and
//! re-encode to the same bytes, so any change to a byte on disk or on
//! the wire fails here. Legacy inputs (older grammars that still load)
//! are decode-only cases; they re-encode to the current form, which is
//! pinned beside them.

use sectlb_secbench::adaptive::AdaptiveCellState;
use sectlb_secbench::checkpoint::{Checkpoint, Record};
use sectlb_secbench::iofault;
use sectlb_secbench::oracle::{parse_repro, render_repro};
use sectlb_secbench::run::Measurement;
use sectlb_secbench::service::{
    decode_manifest, decode_manifest_stored, decode_terminal_marker, encode_manifest,
    encode_terminal_marker, JobSpec, JobState, ManifestEntry, Request, Response,
};
use sectlb_secbench::telemetry::{Envelope, Event};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::TlbDesign;
use sectlb_sim::os::FlushPolicy;
use sectlb_sim::shadow::{MachineSetup, TraceCapture, TraceOp};
use sectlb_sim::{Invariant, OracleViolation};
use sectlb_tlb::check::CorruptionKind;
use sectlb_tlb::types::{Asid, PageSize, SecureRegion, Vpn};
use sectlb_tlb::{InvalidationPolicy, RandomFillEviction};

/// A string exercising every JSON escape the writer emits (`"`, `\`,
/// control characters) next to raw non-ASCII text.
const S: &str = "q\"b\\s\nn\u{1}c é漢 \u{1f}";

#[test]
fn every_event_line_is_pinned() {
    let cases = [
        (
            r#"{"v":1,"seq":7,"event":"campaign_start","driver":"q\"b\\s\u000an\u0001c é漢 \u001f","fingerprint":"00c0ffeedeadbeef","tasks":18446744073709551615,"workers":0}"#,
            Event::CampaignStart {
                driver: S.to_owned(),
                fingerprint: 0x00c0_ffee_dead_beef,
                tasks: u64::MAX,
                workers: 0,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"resume","restored":0,"consumed_ns":18446744073709551615}"#,
            Event::Resume {
                restored: 0,
                consumed_ns: u64::MAX,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_claim","task":3,"worker":1,"label":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::ShardClaim {
                task: 3,
                worker: 1,
                label: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_complete","task":18446744073709551615,"worker":1,"wall_ns":1000000}"#,
            Event::ShardComplete {
                task: u64::MAX,
                worker: 1,
                wall_ns: 1_000_000,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_retry","task":4,"worker":0,"attempt":0,"error":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::ShardRetry {
                task: 4,
                worker: 0,
                attempt: 0,
                error: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_quarantine","task":4,"worker":0,"attempts":3,"error":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::ShardQuarantine {
                task: 4,
                worker: 0,
                attempts: 3,
                error: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_preempt","task":5,"worker":1,"wall_ns":99}"#,
            Event::ShardPreempt {
                task: 5,
                worker: 1,
                wall_ns: 99,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"shard_skip","task":6,"reason":"deadline"}"#,
            Event::ShardSkip {
                task: 6,
                reason: "deadline".to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"checkpoint_flush","path":"q\"b\\s\u000an\u0001c é漢 \u001f","done":10,"tasks":72}"#,
            Event::CheckpointFlush {
                path: S.to_owned(),
                done: 10,
                tasks: 72,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"checkpoint_recovered","path":"ck.txt","source":"previous","error":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::CheckpointRecovered {
                path: "ck.txt".to_owned(),
                source: "previous".to_owned(),
                error: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"checkpoint_write_failed","path":"ck.txt","error":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::CheckpointWriteFailed {
                path: "ck.txt".to_owned(),
                error: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"adaptive_stop","cell":"q\"b\\s\u000an\u0001c é漢 \u001f","trials":75,"saved":425}"#,
            Event::AdaptiveStop {
                cell: S.to_owned(),
                trials: 75,
                saved: 425,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"oracle_violation","cell":"table4|V1|Sa","violation":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::OracleViolation {
                cell: "table4|V1|Sa".to_owned(),
                violation: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"campaign_stop","reason":"complete","completed":72,"total":72,"wall_ns":18446744073709551615}"#,
            Event::CampaignStop {
                reason: "complete".to_owned(),
                completed: 72,
                total: 72,
                wall_ns: u64::MAX,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"replay_start","file":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::ReplayStart { file: S.to_owned() },
        ),
        (
            r#"{"v":1,"seq":7,"event":"replay_outcome","file":"repro/x.ron","verdict":"reproduced","ops":42}"#,
            Event::ReplayOutcome {
                file: "repro/x.ron".to_owned(),
                verdict: "reproduced".to_owned(),
                ops: 42,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"worker_stall","task":9,"worker":2,"label":"q\"b\\s\u000an\u0001c é漢 \u001f","wall_ns":750000000}"#,
            Event::WorkerStall {
                task: 9,
                worker: 2,
                label: S.to_owned(),
                wall_ns: 750_000_000,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"worker_dead","worker":1,"task":12}"#,
            Event::WorkerDead {
                worker: 1,
                task: 12,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"worker_reclaim","task":12,"attempt":1}"#,
            Event::WorkerReclaim {
                task: 12,
                attempt: 1,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"steal_summary","worker":3,"stolen":11}"#,
            Event::StealSummary {
                worker: 3,
                stolen: 11,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_accepted","job":2,"spec":"driver=table4 trials=50 seed=1 priority=5 tag=nightly"}"#,
            Event::JobAccepted {
                job: 2,
                spec: "driver=table4 trials=50 seed=1 priority=5 tag=nightly".to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_started","job":18446744073709551615}"#,
            Event::JobStarted { job: u64::MAX },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_rejected","job":9,"reason":"queue-full"}"#,
            Event::JobRejected {
                job: 9,
                reason: "queue-full".to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_degraded","job":3,"reason":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::JobDegraded {
                job: 3,
                reason: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_completed","job":2,"status":"done","wall_ns":2500000000}"#,
            Event::JobCompleted {
                job: 2,
                status: "done".to_owned(),
                wall_ns: 2_500_000_000,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_cancelled","job":4,"phase":"running"}"#,
            Event::JobCancelled {
                job: 4,
                phase: "running".to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"job_recovered","job":2,"action":"q\"b\\s\u000an\u0001c é漢 \u001f"}"#,
            Event::JobRecovered {
                job: 2,
                action: S.to_owned(),
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"tmp_reaped","count":3}"#,
            Event::TmpReaped { count: 3 },
        ),
        (
            r#"{"v":1,"seq":7,"event":"watch_connect","job":2,"from":18446744073709551615}"#,
            Event::WatchConnect {
                job: 2,
                from: u64::MAX,
            },
        ),
        (
            r#"{"v":1,"seq":7,"event":"heartbeat_sent","job":2}"#,
            Event::HeartbeatSent { job: 2 },
        ),
    ];
    assert_eq!(cases.len(), 30, "one line per event variant");
    for (line, event) in cases {
        let envelope = Envelope { seq: 7, event };
        assert_eq!(Envelope::parse(line).as_ref(), Ok(&envelope), "{line}");
        assert_eq!(envelope.render(), line);
    }
}

#[test]
fn every_request_and_response_is_pinned() {
    let requests = [
        (
            r#"submit driver=table4 trials=50 seed=6211355 priority=100 tag=job"#,
            Request::Submit(JobSpec::default()),
        ),
        (
            r#"submit driver=table4 trials=50 seed=6211355 priority=100 tag=job key=retry-1"#,
            Request::Submit(JobSpec {
                key: Some("retry-1".to_owned()),
                ..JobSpec::default()
            }),
        ),
        (r#"status 17"#, Request::Status(17)),
        (r#"watch 17 0"#, Request::Watch { job: 17, from: 0 }),
        (
            r#"watch 17 18446744073709551615"#,
            Request::Watch {
                job: 17,
                from: u64::MAX,
            },
        ),
        (r#"cancel 17"#, Request::Cancel(17)),
        (r#"ping"#, Request::Ping),
        (r#"shutdown"#, Request::Shutdown),
    ];
    for (line, request) in requests {
        assert_eq!(Request::decode(line).as_ref(), Ok(&request), "{line}");
        assert_eq!(request.encode(), line);
    }
    // Legacy: `watch <id>` from before resumable watches means `from` 0.
    assert_eq!(
        Request::decode("watch 17"),
        Ok(Request::Watch { job: 17, from: 0 })
    );
    let responses = [
        (r#"accepted 3"#, Response::Accepted { job: 3 }),
        (
            r#"rejected queue-full"#,
            Response::Rejected {
                reason: "queue-full".to_owned(),
            },
        ),
        (
            r#"status 3 running -"#,
            Response::Status {
                job: 3,
                state: JobState::Running,
                exit: None,
            },
        ),
        (
            r#"status 3 failed -5"#,
            Response::Status {
                job: 3,
                state: JobState::Failed,
                exit: Some(-5),
            },
        ),
        (r#"unknown-job 9"#, Response::UnknownJob { job: 9 }),
        (r#"pong"#, Response::Pong),
        (r#"heartbeat 3"#, Response::Heartbeat { job: 3 }),
        (
            r#"event 3 2 queued -"#,
            Response::Event {
                job: 3,
                seq: 2,
                state: JobState::Queued,
                exit: None,
            },
        ),
        (
            r#"event 3 3 done 0"#,
            Response::Event {
                job: 3,
                seq: 3,
                state: JobState::Done,
                exit: Some(0),
            },
        ),
        (r#"draining"#, Response::Draining),
        (
            r#"error unknown request "launch""#,
            Response::Error("unknown request \"launch\"".to_owned()),
        ),
    ];
    for (line, response) in responses {
        assert_eq!(Response::decode(line).as_ref(), Ok(&response), "{line}");
        assert_eq!(response.encode(), line);
    }
}

#[test]
fn job_specs_are_pinned() {
    let cases = [
        (
            r#"driver=table4 trials=120 seed=18446744073709551615 priority=255 tag=nightly-2.1"#,
            JobSpec {
                driver: "table4".to_owned(),
                trials: 120,
                seed: u64::MAX,
                priority: 255,
                tag: "nightly-2.1".to_owned(),
                key: None,
            },
        ),
        (
            r#"driver=table4 trials=1 seed=0 priority=0 tag=x key=retry-7f.2"#,
            JobSpec {
                driver: "table4".to_owned(),
                trials: 1,
                seed: 0,
                priority: 0,
                tag: "x".to_owned(),
                key: Some("retry-7f.2".to_owned()),
            },
        ),
    ];
    for (line, spec) in cases {
        assert_eq!(JobSpec::decode(line).as_ref(), Ok(&spec), "{line}");
        assert_eq!(spec.encode(), line);
    }
}

fn manifest_entries() -> Vec<ManifestEntry> {
    vec![
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
            state: JobState::Shed,
            seq: 2,
            exit: Some(9),
            spec: JobSpec::default(),
        },
        ManifestEntry {
            id: 5,
            state: JobState::Queued,
            seq: 1,
            exit: None,
            spec: JobSpec::default(),
        },
    ]
}

const MANIFEST: &str = "secbench-campaignd v1\nnext 6\n\
job 1 done 3 0 driver=table4 trials=50 seed=6211355 priority=100 tag=job\n\
job 2 running 2 - driver=table4 trials=75 seed=6211355 priority=100 tag=resume-me key=retry-2\n\
job 3 cancelled 2 11 driver=table4 trials=50 seed=6211355 priority=100 tag=job\n\
job 4 shed 2 9 driver=table4 trials=50 seed=6211355 priority=100 tag=job\n\
job 5 queued 1 - driver=table4 trials=50 seed=6211355 priority=100 tag=job\n";

#[test]
fn manifests_and_terminal_markers_are_pinned() {
    let entries = manifest_entries();
    assert_eq!(decode_manifest(MANIFEST), Ok((6, entries.clone())));
    assert_eq!(encode_manifest(6, &entries), MANIFEST);

    let sealed = format!("secbench-frame v1 423 001c91f3 833eeed9\n{MANIFEST}");
    assert_eq!(decode_manifest_stored(&sealed), Ok((6, entries.clone())));
    assert_eq!(iofault::seal(&encode_manifest(6, &entries)), sealed);
    // Unframed manifests from before the checksummed frame still load.
    assert_eq!(decode_manifest_stored(MANIFEST), Ok((6, entries)));

    // Legacy: `job <id> <state> <spec>` from before sequence numbers and
    // persisted exit codes decodes with seq 1 and no exit code.
    let legacy = "secbench-campaignd v1\nnext 3\n\
job 1 done 3 0 driver=table4 trials=50 seed=6211355 priority=100 tag=job\n\
job 2 queued driver=table4 trials=9 seed=1 priority=7 tag=old key=k-1\n";
    let decoded = vec![
        ManifestEntry {
            id: 1,
            state: JobState::Done,
            seq: 3,
            exit: Some(0),
            spec: JobSpec::default(),
        },
        ManifestEntry {
            id: 2,
            state: JobState::Queued,
            seq: 1,
            exit: None,
            spec: JobSpec {
                trials: 9,
                seed: 1,
                priority: 7,
                tag: "old".to_owned(),
                key: Some("k-1".to_owned()),
                ..JobSpec::default()
            },
        },
    ];
    assert_eq!(decode_manifest(legacy), Ok((3, decoded.clone())));
    assert_eq!(
        encode_manifest(3, &decoded),
        "secbench-campaignd v1\nnext 3\n\
job 1 done 3 0 driver=table4 trials=50 seed=6211355 priority=100 tag=job\n\
job 2 queued 1 - driver=table4 trials=9 seed=1 priority=7 tag=old key=k-1\n"
    );

    assert_eq!(encode_terminal_marker(JobState::Failed, 5), "failed 5\n");
    assert_eq!(
        decode_terminal_marker("failed 5\n"),
        Ok((JobState::Failed, 5))
    );
    assert_eq!(
        encode_terminal_marker(JobState::Cancelled, 11),
        "cancelled 11\n"
    );
    assert_eq!(
        decode_terminal_marker("cancelled 11\n"),
        Ok((JobState::Cancelled, 11))
    );
}

/// Pins one checkpoint `Record` payload: it decodes to `value` and
/// `value` encodes back to it.
fn pin_record<R: Record + PartialEq + std::fmt::Debug>(line: &str, value: R) {
    assert_eq!(R::decode(line).as_ref(), Some(&value), "{line}");
    assert_eq!(value.encode(), line);
}

/// Pins an `f64` payload bitwise (`==` cannot compare NaN or tell the
/// zeros apart).
fn pin_bits(line: &str, values: &[f64], decoded: &[f64]) {
    let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(decoded), bits(values), "{line}");
}

#[test]
fn every_record_type_is_pinned() {
    let m = Measurement {
        trials: 25,
        n_mapped_miss: 7,
        n_not_mapped_miss: 19,
    };
    pin_record("25 7 19", m);
    pin_record("18446744073709551615", u64::MAX);
    pin_record("18446744073709551615 0", (u64::MAX, 0u64));
    pin_record("25 7 19 1", AdaptiveCellState { m, decided: true });
    pin_record(
        "0 0 0 0",
        AdaptiveCellState {
            m: Measurement {
                trials: 0,
                n_mapped_miss: 0,
                n_not_mapped_miss: 0,
            },
            decided: false,
        },
    );

    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    for (line, v) in [
        ("8000000000000000", -0.0),
        ("7ff80000deadbeef", nan),
        ("3fd3333333333334", 0.1 + 0.2),
    ] {
        assert_eq!(v.encode(), line);
        pin_bits(line, &[v], &[f64::decode(line).expect(line)]);
    }
    let pair = (-0.0, f64::INFINITY);
    assert_eq!(pair.encode(), "8000000000000000 7ff0000000000000");
    let back = <(f64, f64)>::decode("8000000000000000 7ff0000000000000").expect("pair");
    pin_bits("pair", &[pair.0, pair.1], &[back.0, back.1]);
    let triple = (1.5, nan, -0.0);
    let line = "3ff8000000000000 7ff80000deadbeef 8000000000000000";
    assert_eq!(triple.encode(), line);
    let back = <(f64, f64, f64)>::decode(line).expect("triple");
    pin_bits(
        line,
        &[triple.0, triple.1, triple.2],
        &[back.0, back.1, back.2],
    );
}

const CHECKPOINT: &str = "secbench-checkpoint v1\nsettings 00c0ffee00c0ffee\ntasks 72\n\
elapsed 45000000123\ndone 0 25 7 19\ndone 5 25 24 1\n";

fn measurement_checkpoint() -> Checkpoint {
    let mut ck = Checkpoint::new(0x00c0_ffee_00c0_ffee, 72);
    ck.consumed = std::time::Duration::from_nanos(45_000_000_123);
    ck.record(
        0,
        &Measurement {
            trials: 25,
            n_mapped_miss: 7,
            n_not_mapped_miss: 19,
        },
    );
    ck.record(
        5,
        &Measurement {
            trials: 25,
            n_mapped_miss: 24,
            n_not_mapped_miss: 1,
        },
    );
    ck
}

#[test]
fn checkpoint_files_are_pinned() {
    let ck = measurement_checkpoint();
    assert_eq!(ck.render(), CHECKPOINT);
    assert_eq!(
        Checkpoint::parse_stored(CHECKPOINT).as_ref().ok(),
        Some(&ck)
    );
    let sealed = format!("secbench-frame v1 108 bc8e576b feec873a\n{CHECKPOINT}");
    assert_eq!(iofault::seal(&ck.render()), sealed);
    let parsed = Checkpoint::parse_stored(&sealed).expect("framed checkpoint");
    assert_eq!(parsed, ck);
    let decoded = parsed.decoded::<Measurement>().expect("measurements");
    assert_eq!(
        decoded,
        vec![
            (
                0,
                Measurement {
                    trials: 25,
                    n_mapped_miss: 7,
                    n_not_mapped_miss: 19
                }
            ),
            (
                5,
                Measurement {
                    trials: 25,
                    n_mapped_miss: 24,
                    n_not_mapped_miss: 1
                }
            ),
        ]
    );

    // Legacy: no `elapsed` line (before deadline accounting) loads with
    // zero consumed time, framed or not.
    let legacy = "secbench-checkpoint v1\nsettings 00c0ffee00c0ffee\ntasks 72\n\
done 0 25 7 19\ndone 5 25 24 1\n";
    let zero = Checkpoint {
        consumed: std::time::Duration::ZERO,
        ..ck.clone()
    };
    assert_eq!(Checkpoint::parse_stored(legacy).as_ref().ok(), Some(&zero));
    let legacy_sealed = iofault::seal(legacy);
    assert_eq!(
        Checkpoint::parse_stored(&legacy_sealed).as_ref().ok(),
        Some(&zero)
    );

    // Float payloads are bit patterns: -0.0 and a NaN payload survive.
    let floats = "secbench-frame v1 183 8cd13123 97105409\nsecbench-checkpoint v1\n\
settings 00000000000000ff\ntasks 4\nelapsed 0\n\
done 1 3ff8000000000000 8000000000000000 7ff8000000000000\n\
done 3 4000000000000000 3fd0000000000000 4008000000000000\n";
    let mut ck = Checkpoint::new(0xff, 4);
    ck.record(1, &(1.5f64, -0.0f64, f64::NAN));
    ck.record(3, &(2.0f64, 0.25f64, 3.0f64));
    assert_eq!(iofault::seal(&ck.render()), floats);
    let parsed = Checkpoint::parse_stored(floats).expect("float checkpoint");
    assert_eq!(parsed, ck);
    let decoded = parsed.decoded::<(f64, f64, f64)>().expect("triples");
    let (i, (a, b, c)) = decoded[0];
    assert_eq!(i, 1);
    pin_bits("done 1", &[1.5, -0.0, f64::NAN], &[a, b, c]);
    assert_eq!(decoded[1], (3, (2.0, 0.25, 3.0)));
}

const REPRO: &str = "sectlb-repro v1\ndesign RF\nentries 32\nways 8\nseed 0x5ec71b\n\
flush flush-on-switch\nswitch_cost 100\ncycles_per_level 20\nrf_eviction lru-way\n\
rf_invalidation region-flush\nsp_victim_ways 4\nl2 SA 128 4 8\nitlb SP 32 4\nprocesses 2\n\
map 1 0x10 base\nmap 2 0x200 mega\nprotect 1 0x100 3 data\nprotect 2 0x300 2 code\n\
op setasid 1\nop load 0x10000\nop store 0x11000\nop compute 9\nop flushall\nop flushasid 2\n\
op flushpage 0x12000\nop readmiss\nop readcycle\nop jumpto 0x500000\ncorrupt 5 ppn\n\
violation 10 replacement-order\nv_design RF\nv_expected way 3 (lru)\nv_actual way 1\n";

fn repro_capture() -> TraceCapture {
    TraceCapture {
        setup: MachineSetup {
            design: TlbDesign::Rf,
            entries: 32,
            ways: 8,
            seed: 0x5ec_71b,
            flush_policy: FlushPolicy::FlushOnSwitch,
            switch_cost: 100,
            cycles_per_level: 20,
            rf_eviction: RandomFillEviction::LruWay,
            rf_invalidation: InvalidationPolicy::RegionFlush,
            sp_victim_ways: Some(4),
            l2: Some((TlbDesign::Sa, 128, 4, 8)),
            itlb: Some((TlbDesign::Sp, 32, 4)),
        },
        processes: 2,
        maps: vec![
            (Asid(1), Vpn(0x10), PageSize::Base),
            (Asid(2), Vpn(0x200), PageSize::Mega),
        ],
        protects: vec![
            (Asid(1), SecureRegion::new(Vpn(0x100), 3), false),
            (Asid(2), SecureRegion::new(Vpn(0x300), 2), true),
        ],
        ops: vec![
            TraceOp::Exec(Instr::SetAsid(Asid(1))),
            TraceOp::Exec(Instr::Load(0x10_000)),
            TraceOp::Exec(Instr::Store(0x11_000)),
            TraceOp::Exec(Instr::Compute(9)),
            TraceOp::Exec(Instr::FlushAll),
            TraceOp::Exec(Instr::FlushAsid(Asid(2))),
            TraceOp::Exec(Instr::FlushPage(0x12_000)),
            TraceOp::Exec(Instr::ReadMissCounter),
            TraceOp::Exec(Instr::ReadCycleCounter),
            TraceOp::Exec(Instr::JumpTo(0x500_000)),
            TraceOp::Corrupt {
                selector: 5,
                kind: CorruptionKind::Ppn,
            },
        ],
        violation: OracleViolation {
            design: "RF".to_owned(),
            op_index: 10,
            invariant: Invariant::ReplacementOrder,
            expected: "way 3 (lru)".to_owned(),
            actual: "way 1".to_owned(),
        },
    }
}

#[test]
fn repro_file_is_pinned() {
    let capture = repro_capture();
    assert_eq!(render_repro(&capture), REPRO);
    assert_eq!(parse_repro(REPRO).expect("repro parses"), capture);
}

#[test]
fn giga_mappings_are_pinned() {
    // A 1 GiB mapping renders as `giga`, and the parser reads it back.
    let mut capture = repro_capture();
    capture.maps.push((Asid(2), Vpn(0x40000), PageSize::Giga));
    let text = REPRO.replace(
        "map 2 0x200 mega\n",
        "map 2 0x200 mega\nmap 2 0x40000 giga\n",
    );
    assert_eq!(render_repro(&capture), text);
    assert_eq!(parse_repro(&text).expect("repro parses"), capture);
}
