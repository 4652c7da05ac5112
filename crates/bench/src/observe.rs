//! Driver-side glue for the structured observability layer.
//!
//! Every campaign binary wires telemetry the same way: parse the
//! `--events PATH` / `--metrics PATH` flags, build one [`Observability`]
//! handle from them, thread its [`Telemetry`] through the campaign, and
//! call [`Observability::finish`] right before exiting. With neither
//! flag the handle is inert — no events, no metrics file, and the
//! driver's text output is byte-identical to a run without the layer.
//!
//! The phase clock starts when the handle is built: everything up to
//! [`Observability::campaign_begin`] counts as setup, the span to
//! [`Observability::campaign_end`] as the campaign (superseded by the
//! pool's own wall clock when engine stats are available), and the rest
//! as rendering/reporting.

use std::path::PathBuf;
use std::time::Instant;

use sectlb_secbench::iofault::{self, FaultyWriter, IoInjector};
use sectlb_secbench::oracle::OracleSummary;
use sectlb_secbench::parallel::PoolStats;
use sectlb_secbench::telemetry::{duration_ns, render_metrics, Event, PhaseTimings, Telemetry};

use crate::cli::{events_flag, flag_num, inject_io_flag, metrics_flag};
use crate::exit::EXIT_SETUP;

/// One driver invocation's observability state: the telemetry handle,
/// the metrics destination, and the phase clock.
#[derive(Debug)]
pub struct Observability {
    driver: String,
    telemetry: Telemetry,
    metrics: Option<PathBuf>,
    injector: IoInjector,
    created: Instant,
    campaign_at: Option<Instant>,
    campaign_done: Option<Instant>,
}

impl Observability {
    /// Builds the handle from the command line.
    ///
    /// Exits [`crate::exit::EXIT_USAGE`] on a malformed flag (via the
    /// shared [`crate::cli`] wrappers) and [`EXIT_SETUP`] when the
    /// `--events` file cannot be created. `--metrics` alone still arms
    /// the telemetry handle (shard latencies feed the snapshot's
    /// histogram) without writing any event stream.
    pub fn from_args(driver: &str, args: &[String]) -> Observability {
        let events = events_flag(args);
        let metrics = metrics_flag(args);
        // `--inject-io` threads the same injection seam under the event
        // stream that checkpoints and the manifest get: an injected sink
        // failure must degrade telemetry (the sink disarms itself), never
        // the campaign.
        let injector = match inject_io_flag(args) {
            Some(fault) => {
                let seed = flag_num::<u64>(args, "--fault-seed")
                    .unwrap_or_else(|e| crate::exit::usage(e))
                    .unwrap_or(sectlb_secbench::resilience::FaultPlan::default().seed);
                IoInjector::new(seed, fault)
            }
            None => IoInjector::disabled(),
        };
        let telemetry = match &events {
            Some(path) => {
                let opened = std::fs::File::create(path).map(|file| {
                    let sink = FaultyWriter::new(std::io::BufWriter::new(file), injector.clone());
                    Telemetry::armed(driver, Some(Box::new(sink)))
                });
                opened.unwrap_or_else(|e| {
                    eprintln!("error: cannot open events file {}: {e}", path.display());
                    std::process::exit(EXIT_SETUP);
                })
            }
            None if metrics.is_some() => Telemetry::armed(driver, None),
            None => Telemetry::disabled(),
        };
        Observability {
            driver: driver.to_owned(),
            telemetry,
            metrics,
            injector,
            created: Instant::now(),
            campaign_at: None,
            campaign_done: None,
        }
    }

    /// The telemetry handle to thread through the campaign engine.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.telemetry.is_armed()
    }

    /// Marks the end of setup / start of the campaign phase.
    pub fn campaign_begin(&mut self) {
        self.campaign_at.get_or_insert_with(Instant::now);
    }

    /// Marks the end of the campaign phase; everything after is
    /// reporting. Implies [`Self::campaign_begin`] if it never ran.
    pub fn campaign_end(&mut self) {
        self.campaign_begin();
        self.campaign_done.get_or_insert_with(Instant::now);
    }

    /// Emits one `oracle_violation` event per SUSPECT cell.
    pub fn oracle_summary(&self, summary: &OracleSummary) {
        if !self.telemetry.is_armed() {
            return;
        }
        for suspect in &summary.suspects {
            self.telemetry.emit(Event::OracleViolation {
                cell: suspect.cell.clone(),
                violation: suspect.capture.violation.to_string(),
            });
        }
    }

    /// Flushes the event stream and, when `--metrics PATH` was given,
    /// writes the aggregated snapshot (conventionally
    /// `BENCH_<driver>.json`). Call exactly once, right before the
    /// driver exits; `stats` is `None` for runs without an engine
    /// campaign (`replay`).
    pub fn finish(&mut self, stats: Option<&PoolStats>) {
        if !self.enabled() {
            return;
        }
        self.campaign_end();
        let begun = self.campaign_at.unwrap_or(self.created);
        let done = self.campaign_done.unwrap_or(begun);
        let phases = PhaseTimings {
            setup_ns: duration_ns(begun.duration_since(self.created)),
            campaign_ns: match stats {
                Some(s) => duration_ns(s.wall),
                None => duration_ns(done.duration_since(begun)),
            },
            report_ns: duration_ns(done.elapsed()),
        };
        if let Some(path) = &self.metrics {
            let snapshot = render_metrics(&self.driver, stats, phases, &self.telemetry.latencies());
            if let Err(e) = iofault::write_atomic(path, snapshot.as_bytes(), &self.injector) {
                eprintln!("warning: cannot write metrics file {}: {e}", path.display());
            }
        }
        self.telemetry.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn disabled_without_flags() {
        let mut obs = Observability::from_args("test", &args(&["prog"]));
        assert!(!obs.enabled());
        assert!(!obs.telemetry().is_armed());
        obs.finish(None); // must be a no-op, not a panic
    }

    #[test]
    fn metrics_alone_arms_telemetry_and_writes_snapshot() {
        let dir = std::env::temp_dir().join(format!("sectlb-observe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_test.json");
        let mut obs = Observability::from_args(
            "test",
            &args(&["prog", "--metrics", path.to_str().expect("utf8 path")]),
        );
        assert!(obs.enabled());
        obs.campaign_begin();
        obs.campaign_end();
        obs.finish(None);
        let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
        assert!(snapshot.contains("\"driver\": \"test\""));
        assert!(snapshot.contains("\"engine\": false"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
