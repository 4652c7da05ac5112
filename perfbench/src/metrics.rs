//! The metric catalog and the one-line JSON result.
//!
//! Every metric the benchmark can print is named here with its unit, in
//! print order. A run with `--trace 0` prints every end-to-end metric and
//! a run with `--trace 1` every per-layer metric; a per-layer metric whose
//! layer does no work on a workload reads 0 there.

use std::collections::BTreeMap;

use sectlb_sim::machine::TlbDesign;

/// End-to-end metrics, `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("trial_pairs_per_s", "pairs/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics other than the per-design TLB counters, `(name,
/// unit)`, printed by traced runs.
const LAYERS: [(&str, &str); 33] = [
    ("secbench.generate.calls", "count"),
    ("secbench.generate.busy_ms", "ms"),
    ("sim.machine.build_us", "us"),
    ("sim.os.map_us", "us"),
    ("sim.machine.protect_victim_us", "us"),
    ("secbench.run.setup_share", "fraction"),
    ("sim.machine.run_batch_us", "us"),
    ("sim.machine.run_batch_ns_per_instr", "ns"),
    ("sim.sched.run_s", "s"),
    ("sim.machine.ns_per_instr", "ns"),
    ("sim.cpu.instret", "count"),
    ("sim.cpu.cycles", "count"),
    ("sim.cpu.context_switches", "count"),
    ("workloads.rsa.program_ms", "ms"),
    ("workloads.spec_like.trace_ms", "ms"),
    ("secbench.run.shards", "count"),
    ("secbench.run.shard_busy_s", "s"),
    ("secbench.run.shard_p50_ms", "ms"),
    ("secbench.run.shard_p99_ms", "ms"),
    ("secbench.run.trials_simulated", "pairs"),
    ("secbench.run.trials_accounted", "pairs"),
    ("secbench.resilience.utilization", "fraction"),
    ("secbench.resilience.overhead_s", "s"),
    ("secbench.resilience.retries", "count"),
    ("secbench.scheduler.steals", "count"),
    ("secbench.checkpoint.saves", "count"),
    ("secbench.checkpoint.bytes", "bytes"),
    ("secbench.checkpoint.save_p50_us", "us"),
    ("secbench.checkpoint.load_ms", "ms"),
    ("secbench.telemetry.events", "count"),
    ("secbench.telemetry.bytes", "bytes"),
    ("secbench.telemetry.emit_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
];

/// The TLB counters reported per design as `tlb.<design>.<counter>`.
pub const TLB_COUNTERS: [&str; 9] = [
    "accesses",
    "hits",
    "misses",
    "fills",
    "random_fills",
    "no_fill_responses",
    "evictions",
    "flushes",
    "hit_rate",
];

/// The designs the workloads run, in the order their TLB counters print.
pub const TLB_DESIGNS: [TlbDesign; 3] = TlbDesign::ALL;

/// The per-layer catalog, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for design in TLB_DESIGNS {
        for counter in TLB_COUNTERS {
            let unit = if counter == "hit_rate" {
                "fraction"
            } else {
                "count"
            };
            out.push((tlb_metric(design, counter), unit));
        }
    }
    out
}

/// The name of one per-design TLB counter metric.
pub fn tlb_metric(design: TlbDesign, counter: &str) -> String {
    format!("tlb.{}.{counter}", design.name())
}

/// The end-to-end catalog as owned names, in print order.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured metric values by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither catalog — a typo in this benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || per_layer().iter().any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric of `catalog` with its unit. A catalog metric that was not
/// recorded prints as 0 (its layer did no work on this workload).
///
/// # Errors
///
/// Fails when a recorded value is not finite, which JSON cannot carry.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(String, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let value = metrics.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
