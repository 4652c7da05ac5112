//! Micro security benchmarks and channel-capacity analysis.
//!
//! This crate reproduces Section 5 of *Secure TLBs* (ISCA 2019):
//!
//! - [`capacity`] — the binary channel capacity of Equation (1);
//! - [`spec`] — per-vulnerability benchmark specifications (addresses,
//!   phase plans, mapped/not-mapped placements), mirroring the paper's
//!   semi-automatic generation of Figure 6-style assembly tests;
//! - [`generate`] — lowering a specification to an instruction stream for
//!   the simulated machine;
//! - [`run`] — the one trial runner: 500 "mapped" + 500 "not mapped" runs
//!   per cell ([`run::TrialCell`]: a vulnerability on a TLB design, with
//!   its programs, builder hook and seed rule), counter-read
//!   observations of the timed step, and the empirical `p1*`, `p2*`,
//!   `C*`;
//! - [`resilience`] — the campaign engine, the one way campaign work is
//!   sharded: a worker pool with panic isolation and deterministic retry,
//!   shard quarantine, checkpoint/resume, a stall watchdog, and a
//!   deterministic fault-injection harness; the cells layer on top of it;
//!   and [`resilience::RunPolicy`], whose options (all off by default)
//!   steer every run;
//! - [`parallel`] — the engine's shard plan and throughput counters: the
//!   `(vulnerability, design, placement, trial-chunk)` space with
//!   bitwise-deterministic seeding, so any worker count yields identical
//!   tables;
//! - [`scheduler`] — the work-stealing shard scheduler beneath the
//!   engine: per-worker deques (LIFO owner pop, FIFO steal) whose claim
//!   order never changes *what* runs, only *who* runs it;
//! - [`supervisor`] — the resource-budgeted campaign supervisor:
//!   wall-clock deadlines, per-shard timeouts with cooperative
//!   preemption, and signal-safe graceful shutdown, all draining through
//!   the same flush-checkpoint-render-partial path;
//! - [`adaptive`] — sequential early stopping: a Hoeffding-bound
//!   confidence rectangle on `(p1*, p2*)` stops a cell's trials as soon
//!   as its defended/vulnerable verdict is statistically settled, while
//!   provably agreeing with the exhaustive run;
//! - [`checkpoint`] — crash-safe campaign checkpoints (checksummed
//!   frame, temp-file + atomic-rename + directory fsync, and a
//!   previous-good-generation chain) so a killed campaign resumes
//!   bitwise-identically even when the newest file is torn;
//! - [`codec`] — the one text codec behind every stored or sent record:
//!   each record is one table that generates its encoder and its parser;
//! - [`iofault`] — deterministic I/O fault injection (torn writes, short
//!   reads, ENOSPC, failed renames) plus the durable-write and
//!   CRC-framing seam every on-disk format goes through;
//! - [`oracle`] — campaign-side shadow-oracle guardrails: sampled
//!   lockstep checking, `--inject-corruption` fault injection, SUSPECT
//!   cells, delta-debugged minimal repro files, and their replay;
//! - [`telemetry`] — the structured observability layer: a versioned
//!   JSONL event stream (shard lifecycle, supervisor decisions,
//!   checkpoint flushes, oracle violations) plus an aggregated metrics
//!   snapshot, both off by default and byte-invisible when disabled;
//! - [`service`] — the campaign service layer behind `campaignd`: job
//!   specs, a bounded priority queue with backpressure and load
//!   shedding, the unix-socket line protocol, and the crash-safe job
//!   manifest that lets a drained server resume bitwise-identically;
//! - [`theory`] — the theoretical `p1`, `p2`, `C` of Table 4, including
//!   the six combined Random-Fill TLB patterns of Section 5.3.1;
//! - [`extended`] — the Appendix B evaluation: targeted-invalidation
//!   attacks against every design as cells, plus the region-flush
//!   countermeasure this reproduction adds;
//! - [`mitigations`] — the Section 2.3 survey of pre-existing
//!   mitigations, as cells;
//! - [`report`] — assembling and rendering the Table 4 comparison.
//!
//! # Example
//!
//! ```
//! use sectlb_secbench::run::{run_vulnerability, TrialSettings};
//! use sectlb_sim::machine::TlbDesign;
//!
//! let vuln = sectlb_model::enumerate_vulnerabilities()[0];
//! let mut settings = TrialSettings::default();
//! settings.trials = 50; // keep the doctest fast
//! let m = run_vulnerability(&vuln, TlbDesign::Sa, &settings);
//! // The first Table 2 row is an Internal Collision, which the SA TLB
//! // does not defend: the channel capacity is maximal.
//! assert!(m.capacity() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod capacity;
pub mod channel;
pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod extended;
pub mod generate;
pub mod iofault;
pub mod mitigations;
pub mod oracle;
pub mod parallel;
pub mod report;
pub mod resilience;
pub mod run;
pub mod scheduler;
pub mod service;
pub mod spec;
pub mod supervisor;
pub mod telemetry;
pub mod theory;

pub use adaptive::SequentialTest;
pub use capacity::binary_channel_capacity;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, Record, RecoveredLoad};
pub use iofault::{IoFault, IoFaultKind, IoInjector};
pub use oracle::{OracleConfig, OracleSummary, SuspectCell, EXIT_SUSPECT};
pub use parallel::{PoolStats, WorkerStats};
pub use resilience::{
    measure_cells_resilient_observed, run_sharded_resilient_observed, CampaignError,
    CampaignOutcome, CellOutcome, FaultPlan, ResilientRun, RunPolicy, ShardFailure, ShardOutcome,
    EXIT_QUARANTINED,
};
pub use run::{derive_trial_seed, run_vulnerability, Measurement, TrialCell, TrialSettings};
pub use scheduler::{Claim, StealQueues};
pub use service::{
    JobQueue, JobSpec, JobState, QueuedJob, Request, Response, ServiceError, SubmitError,
    HEARTBEAT_INTERVAL,
};
pub use spec::BenchmarkSpec;
pub use supervisor::{BudgetPolicy, StopReason, Supervisor, EXIT_BUDGET};
pub use telemetry::{Envelope, Event, PhaseTimings, Telemetry, SCHEMA_VERSION};
