//! The trial harness of the security evaluation.
//!
//! Each vulnerability benchmark is run 500 times with the victim's secret
//! address mapped to the tested block and 500 times not mapped
//! (Section 5.3: "24 vulnerability types × 1,000 simulations = 24,000
//! runs"). Every trial starts from fresh TLB contents and a fresh Random
//! Fill Engine seed, and a counter read times its final step. The counts
//! of slow trials give the empirical probabilities `p1*` and `p2*` and
//! the channel capacity `C*`.
//!
//! Every security table is a list of [`TrialCell`]s: Table 4, the §2.3
//! mitigation survey, the RF eviction ablation and Appendix B's Table 7.
//! A cell carries what its trials need — the program of each placement,
//! the machine they run on (design, geometry, secure region and a
//! builder hook), its seed rule and its names — and this module runs a
//! range of its trials; the campaign engine's cells layer
//! ([`crate::resilience::measure_cells_resilient_observed`]) shards it.
//!
//! Freshness comes from restoring, not rebuilding: a cell's machine is
//! set up once (processes, mapped regions, programmed secure region) —
//! on the engine, once per worker for each run of consecutive shards of
//! the cell — and every trial runs on it restored and reseeded with the
//! trial's seed. A restored trial starts in exactly the state a fresh
//! build with its seed and the same setup would have — the template has
//! executed nothing, so its TLBs are empty and no engine has drawn.
//! A shard clones the template once, into a scratch machine, and
//! restores that in place before each trial (`Clone::clone_from`): the
//! TLB arrays and the counter-read buffer keep their memory, and the
//! page tables stay shared with the template unless the trial auto-maps
//! a page, so a restore allocates nothing. Trials armed by the shadow
//! oracle (`--oracle`, `--inject-corruption`) still build fresh: the
//! oracle must watch that machine's setup and carry that trial's
//! reporting context.

use std::num::NonZeroUsize;
use std::ops::Range;

use sectlb_model::state::State;
use sectlb_model::Vulnerability;
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_sim::os::OsError;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::SecureRegion;
use sectlb_tlb::RandomFillEviction;

use crate::capacity::binary_channel_capacity;
use crate::generate::{generate_program, ATTACKER_ASID, VICTIM_ASID};
use crate::oracle::{armed_machine, OracleConfig};
use crate::spec::{BenchmarkSpec, Placement, DBASE, FILLER};

/// Parameters of a measurement campaign.
#[derive(Debug, Clone, Copy)]
pub struct TrialSettings {
    /// Trials per placement (the paper uses 500).
    pub trials: u32,
    /// TLB geometry (the paper's 8-way 32-entry security setup).
    pub config: TlbConfig,
    /// Base seed; each trial derives its own RFE seed from it.
    pub base_seed: u64,
    /// RF random-fill eviction policy every cell's machine starts from
    /// (the insecure `LruWay` variant is only used by the `ablation_rf`
    /// study, whose cells set it through their hook).
    pub rf_eviction: RandomFillEviction,
    /// Worker threads for the campaign, as the caller records it. It
    /// selects no code path: the engine's entry points take their worker
    /// count as a parameter. Results are bitwise identical for every
    /// count: each trial's seed depends only on `(base_seed,
    /// vulnerability, design, placement, trial index)`.
    pub workers: Option<NonZeroUsize>,
    /// Shadow-oracle guardrails (`--oracle[=RATE]`,
    /// `--inject-corruption[=PM]`). `None` leaves the machines at their
    /// build-profile default and never installs a reporting context, so
    /// campaign output is unchanged. Whether a given trial is sampled or
    /// corrupted is a pure function of its seed, preserving the
    /// determinism contract.
    pub oracle: Option<OracleConfig>,
}

impl Default for TrialSettings {
    fn default() -> TrialSettings {
        TrialSettings {
            trials: 500,
            config: TlbConfig::security_eval(),
            base_seed: 0x7ab1e4,
            rf_eviction: RandomFillEviction::RandomWay,
            workers: None,
            oracle: None,
        }
    }
}

/// One round of the splitmix64 output function (Steele–Lea–Flood); the
/// workhorse of the per-trial seed derivation.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable numeric code for a vulnerability: the three pattern states'
/// positions in [`State::ALL`] as three base-10 digits. Independent of
/// hasher internals and of the row's position in any particular table.
pub fn vulnerability_code(v: &Vulnerability) -> u64 {
    let idx = |s: State| State::ALL.iter().position(|&t| t == s).expect("in ALL") as u64;
    idx(v.pattern.s1) * 100 + idx(v.pattern.s2) * 10 + idx(v.pattern.s3)
}

fn design_code(design: TlbDesign) -> u64 {
    // Position in EXTENDED: a stable append-only list, so the codes of
    // the paper's three designs (0..=2) — and with them every pinned
    // measurement — never move.
    TlbDesign::EXTENDED
        .iter()
        .position(|&d| d == design)
        .expect("in EXTENDED") as u64
}

fn placement_code(placement: Placement) -> u64 {
    match placement {
        Placement::Mapped => 0,
        Placement::NotMapped => 1,
    }
}

/// How a cell derives each trial's seed from the trial's placement and
/// index. Either way the seed depends on *what* the trial is, never on
/// *when* or *where* it runs, so any sharding of the trial space —
/// including the serial degenerate case — produces bitwise-identical
/// measurements: the determinism contract of the whole campaign engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeedRule {
    /// [`derive_trial_seed`]'s chain, with the campaign's base seed and
    /// the cell's vulnerability and design already folded in (Table 4,
    /// the §2.3 survey and the RF ablation).
    Derived(u64),
    /// Appendix B's rule: `(t << 4) ^ 0x0ec4_eded` for trial `t`, and
    /// that `^ 1` when not mapped. Table 7's RF columns depend on it.
    AppendixB,
}

impl SeedRule {
    /// The [`SeedRule::Derived`] rule of a vulnerability on a design.
    pub(crate) fn derived(
        base_seed: u64,
        vulnerability: &Vulnerability,
        design: TlbDesign,
    ) -> SeedRule {
        let mut s = splitmix64(base_seed);
        for coordinate in [vulnerability_code(vulnerability), design_code(design)] {
            s = splitmix64(s ^ coordinate);
        }
        SeedRule::Derived(s)
    }

    /// The seed of trial `trial` in `placement`.
    pub(crate) fn seed(self, placement: Placement, trial: u32) -> u64 {
        match self {
            SeedRule::Derived(prefix) => {
                splitmix64(splitmix64(prefix ^ placement_code(placement)) ^ u64::from(trial))
            }
            SeedRule::AppendixB => {
                (u64::from(trial) << 4) ^ 0x0ec4_eded ^ placement_code(placement)
            }
        }
    }
}

/// Derives the RFE seed of one trial from the campaign's base seed and
/// the trial's full coordinates, by chaining [`splitmix64`] over each
/// coordinate: the rule of every Table 4, survey and ablation cell.
pub fn derive_trial_seed(
    base_seed: u64,
    vulnerability: &Vulnerability,
    design: TlbDesign,
    placement: Placement,
    trial: u32,
) -> u64 {
    SeedRule::derived(base_seed, vulnerability, design).seed(placement, trial)
}

/// The measured outcome for one vulnerability on one TLB design — one cell
/// group of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Trials per placement.
    pub trials: u32,
    /// Slow (miss-observed) trials with the secret mapped (`n_{M,M}`).
    pub n_mapped_miss: u32,
    /// Slow trials with the secret not mapped (`n_{N,M}`).
    pub n_not_mapped_miss: u32,
}

impl Measurement {
    /// Empirical `p1*` — probability of a miss observation when mapped.
    pub fn p1(&self) -> f64 {
        f64::from(self.n_mapped_miss) / f64::from(self.trials)
    }

    /// Empirical `p2*` — probability of a miss observation when not
    /// mapped.
    pub fn p2(&self) -> f64 {
        f64::from(self.n_not_mapped_miss) / f64::from(self.trials)
    }

    /// Empirical channel capacity `C*`.
    pub fn capacity(&self) -> f64 {
        binary_channel_capacity(self.p1(), self.p2())
    }

    /// Whether the design defends this vulnerability, using the paper's
    /// reading of Table 4: a capacity of zero or "about 0".
    pub fn defends(&self, threshold: f64) -> bool {
        self.capacity() <= threshold
    }

    /// The empty measurement — the identity of [`Measurement::merge`].
    pub const ZERO: Measurement = Measurement {
        trials: 0,
        n_mapped_miss: 0,
        n_not_mapped_miss: 0,
    };

    /// Combines two disjoint shards of the same campaign cell.
    ///
    /// The merge is commutative and associative (component-wise sums), so
    /// shards may be aggregated in any order — the property the parallel
    /// engine relies on for thread-count-independent results.
    #[must_use]
    pub fn merge(self, other: Measurement) -> Measurement {
        Measurement {
            trials: self.trials + other.trials,
            n_mapped_miss: self.n_mapped_miss + other.n_mapped_miss,
            n_not_mapped_miss: self.n_not_mapped_miss + other.n_not_mapped_miss,
        }
    }
}

/// A machine-setup failure, annotated with the campaign cell that hit it.
///
/// Wraps the simulator's [`OsError`] (map/translate failures) with the
/// vulnerability, design, and setup stage, so a failure deep inside
/// `sectlb_sim` surfaces as "which cell of which table broke and why"
/// instead of a bare `expect` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupError {
    /// The cell's row: the vulnerability (or Appendix B family) whose
    /// benchmark was being set up.
    pub vulnerability: String,
    /// The TLB design under test.
    pub design: TlbDesign,
    /// The setup stage that failed (e.g. `"map conflict region"`).
    pub stage: &'static str,
    /// The underlying OS/page-table error.
    pub source: OsError,
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine setup failed for cell [{} on {} TLB] while trying to {}: {}",
            self.vulnerability, self.design, self.stage, self.source
        )
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A cell's machine-builder hook: what the cell changes about its
/// machine beyond its design and geometry — the §2.3 flush policy, RF's
/// eviction or invalidation policy, an SP way split. It runs once per
/// machine build, and every trial reseeds the machine afterwards, so a
/// seed the hook sets never reaches a trial.
pub type Hook<'a> = &'a (dyn Fn(MachineBuilder) -> MachineBuilder + Sync);

/// One cell of a security campaign: everything its shards need to run
/// any range of its trials — the program of each placement, the machine
/// they run on (design, geometry, secure region and a builder hook), the
/// seed rule, and the names its reports carry. Built by
/// [`TrialCell::new`] for a vulnerability, by
/// [`crate::mitigations::Mitigation::cells`] and by
/// [`crate::extended::cells`].
pub struct TrialCell<'a> {
    /// The row: the vulnerability (or Appendix B family) under test. With
    /// the column it names the cell in oracle contexts
    /// (`tag|row|column|placement|seed`) and quarantine reports.
    pub(crate) row: String,
    /// The column: the design's name (or Table 7's design label).
    pub(crate) column: String,
    /// The TLB design.
    pub(crate) design: TlbDesign,
    /// The TLB geometry.
    pub(crate) config: TlbConfig,
    /// The victim's secure region.
    pub(crate) region: SecureRegion,
    /// The program of each placement, in [`Placement::BOTH`] order. Each
    /// ends with its timed step between two counter reads.
    pub(crate) programs: [Vec<Instr>; 2],
    /// The machine-builder hook.
    pub(crate) hook: Hook<'a>,
    /// How each trial's seed is derived.
    pub(crate) seeds: SeedRule,
}

impl<'a> TrialCell<'a> {
    /// The cell of `spec`'s vulnerability on `design`: the generated
    /// programs, the derived seeds of `base_seed`, and `hook`.
    pub fn new(
        spec: &BenchmarkSpec,
        design: TlbDesign,
        base_seed: u64,
        hook: Hook<'a>,
    ) -> TrialCell<'a> {
        TrialCell {
            row: spec.vulnerability.to_string(),
            column: design.to_string(),
            design,
            config: spec.config,
            region: spec.region,
            programs: Placement::BOTH.map(|p| generate_program(spec, p)),
            hook,
            seeds: SeedRule::derived(base_seed, &spec.vulnerability, design),
        }
    }

    /// Builds the cell's post-setup machine (module docs): the template
    /// every unarmed trial of `settings` restores.
    pub(crate) fn template(&self, settings: &TrialSettings) -> Result<Machine, SetupError> {
        build_machine(self, settings.rf_eviction, None)
    }

    /// Measures `range` of the cell's trials, each on `template` (built
    /// by [`TrialCell::template`] with the same `settings`) restored into
    /// one scratch machine and reseeded, or, when the oracle arms it, on
    /// a fresh build.
    pub(crate) fn run(
        &self,
        template: &Machine,
        settings: &TrialSettings,
        range: Range<u32>,
    ) -> Result<Measurement, SetupError> {
        let mut slow = [0u32; 2];
        let mut scratch: Option<Machine> = None;
        for t in range.clone() {
            // Cooperative cell-deadline preemption: unwinds with a typed
            // payload the resilient engine reports as TIMEOUT. A no-op
            // unless the engine armed this thread's flag. Sits between
            // trials, so a preemption never splits a trial's batch mid-run.
            crate::supervisor::preempt_point();
            for (i, placement) in Placement::BOTH.into_iter().enumerate() {
                let seed = self.seeds.seed(placement, t);
                let mut armed;
                let m = match settings.oracle.filter(|o| o.armed(seed)) {
                    Some(oracle) => {
                        armed = build_machine(
                            self,
                            settings.rf_eviction,
                            Some((&oracle, placement, seed)),
                        )?;
                        &mut armed
                    }
                    None => match &mut scratch {
                        Some(m) => {
                            m.clone_from(template);
                            m
                        }
                        None => scratch.insert(template.clone()),
                    },
                };
                m.reseed(seed);
                if timed_step_was_slow(m, &self.programs[i]) {
                    slow[i] += 1;
                }
            }
        }
        Ok(Measurement {
            trials: range.len() as u32,
            n_mapped_miss: slow[0],
            n_not_mapped_miss: slow[1],
        })
    }
}

/// Builds a cell's post-setup machine: TLB design + geometry, victim and
/// attacker processes, their mapped regions (the conflict pages, the
/// in-range page numbers and a filler page), and the programmed secure
/// region (victim-ASID and `sbase`/`ssize` registers). The machine is not
/// yet seeded for any trial: callers [`Machine::reseed`] it (or a clone of
/// it) with the trial's seed.
///
/// With `armed`, the shadow oracle watches the machine with the trial's
/// reporting context and planned corruption
/// ([`crate::oracle::armed_machine`]). Setup failures (which a fresh
/// machine should never produce, but a customized one from a hook can)
/// are reported with the cell that hit them instead of panicking.
fn build_machine(
    cell: &TrialCell<'_>,
    rf_eviction: RandomFillEviction,
    armed: Option<(&OracleConfig, Placement, u64)>,
) -> Result<Machine, SetupError> {
    let cell_error = |stage: &'static str| {
        move |source: OsError| SetupError {
            vulnerability: cell.row.clone(),
            design: cell.design,
            stage,
            source,
        }
    };
    let builder = (cell.hook)(
        MachineBuilder::new()
            .design(cell.design)
            .tlb_config(cell.config)
            .rf_eviction(rf_eviction),
    );
    let mut m = match armed {
        Some((oracle, placement, seed)) => armed_machine(
            builder,
            oracle,
            format_args!("{}|{}|{placement:?}", cell.row, cell.column),
            seed,
        ),
        None => builder.build(),
    };
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    debug_assert_eq!(victim, VICTIM_ASID);
    debug_assert_eq!(attacker, ATTACKER_ASID);
    // The victim's secure region (also pre-generates PTEs for the RFE).
    m.protect_victim(victim, cell.region)
        .map_err(cell_error("protect the victim's secure region"))?;
    // Both actors can reach the conflict pages, the in-range page numbers
    // (numerically, in their own address spaces) and their filler page.
    for asid in [victim, attacker] {
        m.os_mut()
            .map_region(asid, DBASE, 64)
            .map_err(cell_error("map the conflict region"))?;
        m.os_mut()
            .map_region(asid, cell.region.base, cell.region.pages)
            .ok(); // victim's region is already mapped; attacker's is fresh
        m.os_mut()
            .map_page(asid, FILLER)
            .map_err(cell_error("map the filler page"))?;
    }
    Ok(m)
}

/// Cycles between two [`Instr::ReadCycleCounter`]s around a fast
/// one-cycle step: the step's and the second read's own.
const FAST_STEP_CYCLES: u64 = 2;

/// Runs one trial's program on `m`; returns `true` when the timed step
/// between its two counter reads was slow. A program ending in a miss
/// read is slow when the miss counter advanced; one ending in a cycle
/// read when the step took more than its fast cycle (Appendix B's
/// invalidation of a present entry takes an extra one).
fn timed_step_was_slow(m: &mut Machine, program: &[Instr]) -> bool {
    m.run_batch(program);
    let reads = &m.stats().counter_reads;
    assert_eq!(reads.len(), 2, "benchmark reads the counter exactly twice");
    let fast = match program.last() {
        Some(Instr::ReadCycleCounter) => FAST_STEP_CYCLES,
        _ => 0,
    };
    reads[1] - reads[0] > fast
}

/// Measures one vulnerability on one design, serially on the calling
/// thread — bitwise identical to the engine's measurement of the cell.
pub fn run_vulnerability(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
) -> Measurement {
    let spec = BenchmarkSpec::build_with_config(vulnerability, design, settings.config);
    try_run_trial_range(&spec, design, settings, 0..settings.trials, &|b| b)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Measures a contiguous range of trial indices of the cell of `spec` on
/// `design` with the `customize` hook ([`TrialCell::new`]), serially on
/// the calling thread: one template setup, then the restored-template
/// loop. The engine's shards run the same loop, so splitting a cell at
/// any boundaries merges to the same measurement. Machine-setup failures
/// are a typed [`SetupError`] naming the cell.
pub fn try_run_trial_range(
    spec: &BenchmarkSpec,
    design: TlbDesign,
    settings: &TrialSettings,
    range: Range<u32>,
    customize: Hook<'_>,
) -> Result<Measurement, SetupError> {
    let cell = TrialCell::new(spec, design, settings.base_seed, customize);
    cell.run(&cell.template(settings)?, settings, range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_model::{enumerate_vulnerabilities, Strategy};
    use sectlb_tlb::types::Vpn;

    fn settings() -> TrialSettings {
        TrialSettings {
            trials: 60,
            ..TrialSettings::default()
        }
    }

    fn row(strategy: Strategy, s1: &str) -> Vulnerability {
        *enumerate_vulnerabilities()
            .iter()
            .find(|v| v.strategy == strategy && v.pattern.s1.to_string() == s1)
            .expect("row exists")
    }

    #[test]
    fn sa_is_vulnerable_to_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sa, &settings());
        assert!(m.p1() > 0.95, "p1* = {}", m.p1());
        assert!(m.p2() < 0.05, "p2* = {}", m.p2());
        assert!(m.capacity() > 0.9);
    }

    #[test]
    fn sp_defends_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sp, &settings());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn rf_defends_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Rf, &settings());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn sa_is_vulnerable_to_internal_collision() {
        let v = row(Strategy::InternalCollision, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sa, &settings());
        // Hit-based: mapped trials are fast (p1* ~ 0), unmapped slow.
        assert!(m.p1() < 0.05, "p1* = {}", m.p1());
        assert!(m.p2() > 0.95, "p2* = {}", m.p2());
    }

    #[test]
    fn rf_defends_internal_collision_with_two_thirds_miss_rate() {
        let v = row(Strategy::InternalCollision, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Rf, &settings());
        // Table 4: p1* ≈ p2* ≈ 0.67 (1 - 1/sec_range with 3 secure pages).
        assert!((m.p1() - 0.67).abs() < 0.15, "p1* = {}", m.p1());
        assert!((m.p2() - 0.67).abs() < 0.15, "p2* = {}", m.p2());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn all_designs_defend_flush_reload() {
        // The ASID check alone defeats cross-process reloads.
        let v = row(Strategy::FlushReload, "A_d");
        for d in TlbDesign::ALL {
            let m = run_vulnerability(&v, d, &settings());
            assert!(m.p1() > 0.95 && m.p2() > 0.95, "{d}: {m:?}");
            assert!(m.defends(0.05), "{d}");
        }
    }

    #[test]
    fn sp_remains_vulnerable_to_bernstein() {
        let v = row(Strategy::Bernstein, "V_a");
        let m = run_vulnerability(&v, TlbDesign::Sp, &settings());
        assert!(m.capacity() > 0.9, "C* = {}", m.capacity());
    }

    #[test]
    fn temporal_measurements_match_the_closed_form_exactly() {
        // Every FS/FT theory cell is 0/1-deterministic, so simulation must
        // reproduce it exactly — not just within a statistical bound.
        let s = TrialSettings {
            trials: 12,
            ..TrialSettings::default()
        };
        let p = crate::theory::TheoryParams::default();
        for v in enumerate_vulnerabilities() {
            for d in [TlbDesign::Fs, TlbDesign::Ft] {
                let m = run_vulnerability(&v, d, &s);
                let t = crate::theory::paper_theory(&v, d, &p);
                assert_eq!(m.p1(), t.p1, "{v} on {d}: p1* != p1");
                assert_eq!(m.p2(), t.p2, "{v} on {d}: p2* != p2");
            }
        }
    }

    #[test]
    fn ms_measurements_equal_sa_bitwise() {
        // The campaign workloads issue only 4 KiB accesses and MS's base
        // class carries the evaluation geometry, so the split TLB measures
        // identically to SA on every row (neither design consumes the RFE
        // seed, so differing trial seeds cannot perturb this).
        let s = TrialSettings {
            trials: 12,
            ..TrialSettings::default()
        };
        for v in enumerate_vulnerabilities() {
            let sa = run_vulnerability(&v, TlbDesign::Sa, &s);
            let ms = run_vulnerability(&v, TlbDesign::Ms, &s);
            assert_eq!(sa, ms, "{v}: MS diverged from SA");
        }
    }

    #[test]
    fn measurements_are_deterministic_for_a_seed() {
        let v = row(Strategy::PrimeProbe, "A_a");
        let s = settings();
        let a = run_vulnerability(&v, TlbDesign::Rf, &s);
        let b = run_vulnerability(&v, TlbDesign::Rf, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn trial_seeds_are_unique_across_coordinates() {
        use std::collections::HashSet;
        let vulns = enumerate_vulnerabilities();
        let mut seeds = HashSet::new();
        for v in vulns.iter().take(4) {
            for design in TlbDesign::ALL {
                for placement in [Placement::Mapped, Placement::NotMapped] {
                    for trial in 0..50 {
                        seeds.insert(derive_trial_seed(0x7ab1e4, v, design, placement, trial));
                    }
                }
            }
        }
        assert_eq!(seeds.len(), 4 * 3 * 2 * 50, "seed collision");
    }

    #[test]
    fn trial_seeds_move_with_the_base_seed() {
        let v = row(Strategy::PrimeProbe, "A_a");
        let a = derive_trial_seed(1, &v, TlbDesign::Sa, Placement::Mapped, 0);
        let b = derive_trial_seed(2, &v, TlbDesign::Sa, Placement::Mapped, 0);
        assert_ne!(a, b);
    }

    /// The trials of Table 4's restore shape: 25 per placement, one
    /// shard.
    fn shard_settings() -> TrialSettings {
        TrialSettings {
            trials: crate::parallel::TRIALS_PER_SHARD,
            ..TrialSettings::default()
        }
    }

    /// Runs trial `t` of `cell`'s placement `i` on `m`, restored from
    /// `template` in place: the steps of [`TrialCell::run`].
    fn restore_and_run(
        m: &mut Machine,
        template: &Machine,
        cell: &TrialCell<'_>,
        i: usize,
        t: u32,
    ) -> bool {
        m.clone_from(template);
        m.reseed(cell.seeds.seed(Placement::BOTH[i], t));
        timed_step_was_slow(m, &cell.programs[i])
    }

    /// Whether trial `t` of `cell`'s placement `i` maps a page, which
    /// unshares the page tables of the machine it runs on.
    fn auto_maps(cell: &TrialCell<'_>, template: &Machine, i: usize, t: u32) -> bool {
        let mut m = template.clone();
        restore_and_run(&mut m, template, cell, i, t);
        m.os().frames().allocated() != template.os().frames().allocated()
    }

    #[test]
    fn few_table4_trials_write_a_page_table() {
        // A restored trial copies the template's page tables only when it
        // auto-maps a page its benchmark never mapped.
        let settings = shard_settings();
        let no_oracle = |b: MachineBuilder| b.oracle(false);
        let mut writers = Vec::new();
        let mut trials = 0;
        for v in enumerate_vulnerabilities() {
            for design in TlbDesign::ALL {
                let spec = BenchmarkSpec::build_with_config(&v, design, settings.config);
                let cell = TrialCell::new(&spec, design, settings.base_seed, &no_oracle);
                let template = cell.template(&settings).unwrap();
                let mut n = 0;
                for t in 0..settings.trials {
                    for i in 0..2 {
                        trials += 1;
                        n += u32::from(auto_maps(&cell, &template, i, t));
                    }
                }
                if n > 0 {
                    writers.push((v.strategy, design, n));
                }
            }
        }
        assert_eq!(trials, 3600);
        let total: u32 = writers.iter().map(|w| w.2).sum();
        assert_eq!(total, 210, "{writers:?}");
        let mut cells: Vec<_> = writers.iter().map(|w| (w.0, w.1)).collect();
        cells.sort_by_key(|&(s, d)| (format!("{s:?}"), d.name()));
        assert_eq!(
            cells,
            [
                (Strategy::Bernstein, TlbDesign::Rf),
                (Strategy::Bernstein, TlbDesign::Sa),
                (Strategy::EvictProbe, TlbDesign::Rf),
                (Strategy::EvictTime, TlbDesign::Rf),
                (Strategy::EvictTime, TlbDesign::Sa),
            ]
        );
    }

    /// One machine the dirty-scratch test restores between.
    struct Variant<'h> {
        design: TlbDesign,
        config: TlbConfig,
        hook: Hook<'h>,
        /// What the template runs or maps after the cell's setup.
        setup: fn(&mut Machine),
        /// Every trial's program, from the benchmark's.
        program: fn(&[Instr]) -> Vec<Instr>,
    }

    const CODE: Vpn = Vpn(0x800);
    const MEGA: Vpn = Vpn(0x400);
    const GIGA: Vpn = Vpn(1 << 18);

    fn no_setup(_: &mut Machine) {}

    /// Leaves a code page and a latched fetch in the template.
    fn fetch_code(m: &mut Machine) {
        m.run(&[
            Instr::SetAsid(VICTIM_ASID),
            Instr::JumpTo(CODE.base_addr()),
            Instr::Compute(1),
        ]);
    }

    fn map_superpages(m: &mut Machine) {
        m.os_mut().map_mega_page(ATTACKER_ASID, MEGA).unwrap();
        m.os_mut().map_giga_page(ATTACKER_ASID, GIGA).unwrap();
    }

    /// Leaves entries in the template's TLB, so a fill can evict one a
    /// trial never touched, by its replacement rank.
    fn warm_tlb(m: &mut Machine) {
        let mut warm = vec![Instr::SetAsid(ATTACKER_ASID)];
        warm.extend((60..64).map(|p| Instr::Load(DBASE.offset(p).base_addr())));
        m.run(&warm);
    }

    fn as_generated(program: &[Instr]) -> Vec<Instr> {
        program.to_vec()
    }

    /// A jump to one of three code pages after every address-space
    /// switch, so the I-TLB fetches.
    fn with_jumps(program: &[Instr]) -> Vec<Instr> {
        let mut out = Vec::new();
        for (k, &instr) in program.iter().enumerate() {
            out.push(instr);
            if matches!(instr, Instr::SetAsid(_)) {
                out.push(Instr::JumpTo(CODE.offset(k as u64 % 3).base_addr()));
            }
        }
        out
    }

    /// The attacker loads a megapage and a gigapage, stores, and faults
    /// past the Sv39 range first.
    fn with_superpage_accesses(program: &[Instr]) -> Vec<Instr> {
        let mut out = vec![
            Instr::SetAsid(ATTACKER_ASID),
            Instr::Load(MEGA.offset(7).base_addr()),
            Instr::Load(GIGA.offset(513).base_addr()),
            Instr::Store(FILLER.base_addr()),
            Instr::Load(Vpn(sectlb_sim::page_table::MAX_VPN + 1).base_addr()),
        ];
        out.extend_from_slice(program);
        out
    }

    #[test]
    fn a_dirty_scratch_machine_restores_to_a_fresh_clone() {
        // Trial A runs on a scratch machine, which is then restored in
        // place from trial B's template. B must run exactly as on a fresh
        // clone of that template, and no template may change. Neighbouring
        // machines differ in every part of the state a restore copies, so
        // a `clone_from` that skips any part shows.
        let settings = shard_settings();
        let plain = |b: MachineBuilder| b.oracle(false);
        let rf_l2 = |b: MachineBuilder| {
            b.oracle(false)
                .l2(TlbDesign::Rf, TlbConfig::sa(64, 8).unwrap(), 8)
        };
        let sa_l2 = |b: MachineBuilder| {
            b.oracle(false)
                .l2(TlbDesign::Sa, TlbConfig::sa(64, 4).unwrap(), 20)
        };
        let itlb = |b: MachineBuilder| {
            b.oracle(false)
                .itlb(TlbDesign::Sa, TlbConfig::sa(8, 2).unwrap())
        };
        let timing = |b: MachineBuilder| {
            b.oracle(false)
                .switch_cost(7)
                .walker(sectlb_sim::walker::WalkerConfig {
                    cycles_per_level: 30,
                })
        };
        let oracle = |b: MachineBuilder| b.oracle(true);
        let eval = settings.config;
        let variant = |design, config, hook, setup, program| Variant {
            design,
            config,
            hook,
            setup,
            program,
        };
        let variants: Vec<Variant<'_>> = [
            (TlbDesign::Sa, eval, &plain as Hook<'_>),
            (TlbDesign::Sp, eval, &plain),
            (TlbDesign::Rf, eval, &plain),
            (TlbDesign::Fs, eval, &plain),
            (TlbDesign::Ft, eval, &plain),
            (TlbDesign::Ms, eval, &plain),
        ]
        .into_iter()
        .map(|(d, c, h)| variant(d, c, h, no_setup, as_generated))
        .chain([
            variant(
                TlbDesign::Ms,
                TlbConfig::sa(16, 4).unwrap(),
                &plain,
                map_superpages,
                with_superpage_accesses,
            ),
            variant(
                TlbDesign::Sa,
                eval,
                &plain,
                map_superpages,
                with_superpage_accesses,
            ),
            variant(TlbDesign::Sa, eval, &rf_l2, no_setup, as_generated),
            variant(TlbDesign::Sa, eval, &sa_l2, no_setup, as_generated),
            variant(TlbDesign::Sa, eval, &itlb, fetch_code, with_jumps),
            variant(TlbDesign::Sp, eval, &timing, no_setup, as_generated),
            variant(
                TlbDesign::Rf,
                TlbConfig::fa(16).unwrap(),
                &plain,
                warm_tlb,
                as_generated,
            ),
            variant(TlbDesign::Sa, eval, &oracle, no_setup, as_generated),
        ])
        .collect();
        let rows: Vec<Vulnerability> = [
            "V_u ~> A_a ~> V_u",
            "V_a ~> V_u ~> A_a",
            "A_d ~> V_u ~> A_d",
        ]
        .iter()
        .map(|pattern| {
            *enumerate_vulnerabilities()
                .iter()
                .find(|v| v.pattern.to_string() == *pattern)
                .expect("row exists")
        })
        .collect();
        // Cells in variant-major order: the cell `rows.len()` on shares
        // the row and runs on the next machine.
        let mut cells = Vec::new();
        for v in &variants {
            for row in &rows {
                let spec = BenchmarkSpec::build_with_config(row, v.design, v.config);
                let mut cell = TrialCell::new(&spec, v.design, settings.base_seed, v.hook);
                cell.programs = cell.programs.map(|p| (v.program)(&p));
                let mut template = cell.template(&settings).unwrap();
                (v.setup)(&mut template);
                cells.push((cell, template));
            }
        }
        let before: Vec<String> = cells.iter().map(|(_, t)| format!("{t:?}")).collect();
        // Each cell's trial A: its first trial that maps a page, else its
        // first trial.
        let dirty: Vec<(usize, u32)> = cells
            .iter()
            .map(|(cell, template)| {
                (0..settings.trials)
                    .flat_map(|t| [(0, t), (1, t)])
                    .find(|&(i, t)| auto_maps(cell, template, i, t))
                    .unwrap_or((0, 0))
            })
            .collect();
        let (sa_evict_time, _) = &cells[0];
        let (i, t) = dirty[0];
        assert!(
            auto_maps(sa_evict_time, &cells[0].1, i, t),
            "Evict + Time on SA maps a page"
        );
        let mappings = |m: &Machine| -> Vec<Vec<_>> {
            m.os()
                .asids()
                .map(|a| m.os().process(a).unwrap().page_table().mappings())
                .collect()
        };
        let n = cells.len();
        for b in 0..n {
            let (cell, template) = &cells[b];
            for a in [b, (b + rows.len()) % n, (b + n - rows.len()) % n, 0] {
                let (a_cell, a_template) = &cells[a];
                let (a_i, a_t) = dirty[a];
                for i in 0..2 {
                    let what = format!(
                        "B = {} on {} ({i}) after A = {} on {} ({a_i}, {a_t})",
                        cell.row,
                        variants[b / rows.len()].design,
                        a_cell.row,
                        variants[a / rows.len()].design,
                    );
                    let mut scratch = a_template.clone();
                    restore_and_run(&mut scratch, a_template, a_cell, a_i, a_t);
                    let slow = restore_and_run(&mut scratch, template, cell, i, 1);
                    let mut fresh = template.clone();
                    let want = restore_and_run(&mut fresh, template, cell, i, 1);
                    assert_eq!(slow, want, "{what}: timed step");
                    assert_eq!(scratch.stats(), fresh.stats(), "{what}: executor counters");
                    assert_eq!(
                        scratch.tlb_stats(),
                        fresh.tlb_stats(),
                        "{what}: TLB counters"
                    );
                    assert_eq!(
                        scratch.tlb().snapshot(),
                        fresh.tlb().snapshot(),
                        "{what}: TLB contents"
                    );
                    assert_eq!(mappings(&scratch), mappings(&fresh), "{what}: page tables");
                    assert!(
                        format!("{scratch:?}") == format!("{fresh:?}"),
                        "{what}: machine state"
                    );
                }
            }
        }
        for ((_, template), before) in cells.iter().zip(&before) {
            assert!(&format!("{template:?}") == before, "a template changed");
        }
    }

    #[test]
    fn merge_is_commutative_and_has_identity() {
        let a = Measurement {
            trials: 10,
            n_mapped_miss: 3,
            n_not_mapped_miss: 7,
        };
        let b = Measurement {
            trials: 5,
            n_mapped_miss: 1,
            n_not_mapped_miss: 0,
        };
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(Measurement::ZERO), a);
        assert_eq!(a.merge(b).trials, 15);
    }
}
