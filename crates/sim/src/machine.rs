//! The simulated machine: CPU + TLB design + walker + OS.
//!
//! [`Machine`] is the top-level object the security benchmarks, workloads,
//! and performance harness drive. It is assembled by [`MachineBuilder`],
//! which selects a TLB design (the paper's SA, SP and RF, or the FS, FT
//! and MS mitigation-survey designs), optional L2 and I-TLB levels, and
//! the system parameters.

use sectlb_tlb::check::{CorruptionKind, IntegrityError, IntegrityKind, SnapshotEntry};
use sectlb_tlb::config::{MultiConfig, TlbConfig};
use sectlb_tlb::stats::TlbStats;
use sectlb_tlb::tlb_trait::{AccessResult, TlbCore};
use sectlb_tlb::types::{Asid, PageSize, SecureRegion, Vpn};
use sectlb_tlb::{
    ClearScope, InvalidationPolicy, MsTlb, RandomFillEviction, Tlb, TlbHierarchy, TlbUnit,
};

use crate::cpu::{ExecStats, Instr};
use crate::os::{FlushPolicy, Os, OsError};
use crate::shadow::{
    replacement_order, Invariant, MachineSetup, Oracle, OracleViolation, PlannedCorruption,
    SuspectReport, TraceCapture, TraceOp,
};
use crate::walker::{OsWalker, WalkerConfig};

/// Which TLB design a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbDesign {
    /// Standard set-associative baseline.
    Sa,
    /// Static-Partition TLB (Section 4.1).
    Sp,
    /// Random-Fill TLB (Section 4.2).
    Rf,
    /// Flush-on-switch temporal partitioning: every entry is invalidated
    /// on each context switch (the hardware analogue of the Sanctum/SGX
    /// flush policy of Section 2.3).
    Fs,
    /// `fence.t`-style full temporal partitioning: entries *and*
    /// replacement state are cleared on each context switch (Wistoff et
    /// al.).
    Ft,
    /// Multi-page-size split TLB: separate 4 KiB / 2 MiB / 1 GiB entry
    /// classes, each with its own geometry.
    Ms,
}

impl TlbDesign {
    /// The paper's three designs, in its presentation order. Kept at
    /// three: existing drivers and seeds index into this array, and their
    /// outputs are pinned byte-identical.
    pub const ALL: [TlbDesign; 3] = [TlbDesign::Sa, TlbDesign::Sp, TlbDesign::Rf];

    /// Every implemented design: the paper's three followed by the
    /// mitigation-survey additions. New designs are appended, never
    /// reordered — a design's position here is its stable `design_code`
    /// in seed derivation and repro files.
    pub const EXTENDED: [TlbDesign; 6] = [
        TlbDesign::Sa,
        TlbDesign::Sp,
        TlbDesign::Rf,
        TlbDesign::Fs,
        TlbDesign::Ft,
        TlbDesign::Ms,
    ];

    /// The design's short name.
    pub fn name(self) -> &'static str {
        match self {
            TlbDesign::Sa => "SA",
            TlbDesign::Sp => "SP",
            TlbDesign::Rf => "RF",
            TlbDesign::Fs => "FS",
            TlbDesign::Ft => "FT",
            TlbDesign::Ms => "MS",
        }
    }

    /// Parses [`TlbDesign::name`] output back (used by repro files).
    pub fn from_name(name: &str) -> Option<TlbDesign> {
        TlbDesign::EXTENDED.into_iter().find(|d| d.name() == name)
    }
}

impl std::fmt::Display for TlbDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builder for a [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    design: TlbDesign,
    config: TlbConfig,
    seed: u64,
    flush_policy: FlushPolicy,
    walker: WalkerConfig,
    switch_cost: u64,
    rf_eviction: RandomFillEviction,
    rf_invalidation: InvalidationPolicy,
    sp_victim_ways: Option<usize>,
    itlb: Option<(TlbDesign, TlbConfig)>,
    l2: Option<(TlbDesign, TlbConfig, u64)>,
    oracle: Option<bool>,
}

impl MachineBuilder {
    /// A builder with the paper's common defaults: SA TLB, 32 entries,
    /// 4 ways, no flush on context switch, 20-cycle page-table levels.
    pub fn new() -> MachineBuilder {
        MachineBuilder {
            design: TlbDesign::Sa,
            config: TlbConfig::sa(32, 4).expect("default geometry is valid"),
            seed: 0xd15ea5e,
            flush_policy: FlushPolicy::None,
            walker: WalkerConfig::default(),
            switch_cost: 20,
            rf_eviction: RandomFillEviction::default(),
            rf_invalidation: InvalidationPolicy::default(),
            sp_victim_ways: None,
            itlb: None,
            l2: None,
            oracle: None,
        }
    }

    /// Selects the TLB design.
    pub fn design(mut self, design: TlbDesign) -> MachineBuilder {
        self.design = design;
        self
    }

    /// Selects the TLB geometry.
    pub fn tlb_config(mut self, config: TlbConfig) -> MachineBuilder {
        self.config = config;
        self
    }

    /// Seeds every Random Fill Engine on the machine: an RF D-TLB, an RF
    /// L2 (see [`MachineBuilder::l2`]) and an RF I-TLB (see
    /// [`MachineBuilder::itlb`]) each derive their own seed from it, as
    /// [`Machine::reseed`] documents. Machines without an RF TLB ignore
    /// it.
    pub fn seed(mut self, seed: u64) -> MachineBuilder {
        self.seed = seed;
        self
    }

    /// Sets the OS context-switch TLB policy.
    pub fn flush_policy(mut self, policy: FlushPolicy) -> MachineBuilder {
        self.flush_policy = policy;
        self
    }

    /// Sets the page-table walker timing.
    pub fn walker(mut self, walker: WalkerConfig) -> MachineBuilder {
        self.walker = walker;
        self
    }

    /// Sets the fixed context-switch cost in cycles.
    pub fn switch_cost(mut self, cycles: u64) -> MachineBuilder {
        self.switch_cost = cycles;
        self
    }

    /// Selects the RF TLB's random-fill eviction policy (ablation knob;
    /// ignored by other designs).
    pub fn rf_eviction(mut self, eviction: RandomFillEviction) -> MachineBuilder {
        self.rf_eviction = eviction;
        self
    }

    /// Overrides the SP TLB's victim-partition way count (defaults to half
    /// the ways; ignored by other designs).
    pub fn sp_victim_ways(mut self, ways: usize) -> MachineBuilder {
        self.sp_victim_ways = Some(ways);
        self
    }

    /// Selects the RF TLB's secure-page invalidation policy (the
    /// Appendix B extension; ignored by other designs).
    pub fn rf_invalidation(mut self, policy: InvalidationPolicy) -> MachineBuilder {
        self.rf_invalidation = policy;
        self
    }

    /// Adds an L2 TLB behind the D-TLB (Section 4's "other levels of
    /// TLB"): L1 misses are serviced by the L2 at `latency` cycles; only
    /// L2 misses walk the page table.
    pub fn l2(mut self, design: TlbDesign, config: TlbConfig, latency: u64) -> MachineBuilder {
        self.l2 = Some((design, config, latency));
        self
    }

    /// Enables or disables the shadow oracle (see [`crate::shadow`]).
    /// When not called, the oracle defaults to **on in debug builds** —
    /// so the entire test suite runs under lockstep checking — and **off
    /// in release builds**, where campaign drivers opt in per trial via
    /// `--oracle`. The oracle is read-only: enabling it never changes the
    /// machine's timing, statistics, or TLB contents.
    pub fn oracle(mut self, enabled: bool) -> MachineBuilder {
        self.oracle = Some(enabled);
        self
    }

    /// Adds an instruction TLB of the given design and geometry. The
    /// paper focuses on the L1 D-TLB but notes the designs "can be
    /// applied to instruction TLBs as well" (Section 4); with an I-TLB
    /// configured, every executed instruction also translates its code
    /// page (set by [`Instr::JumpTo`]).
    pub fn itlb(mut self, design: TlbDesign, config: TlbConfig) -> MachineBuilder {
        self.itlb = Some((design, config));
        self
    }

    /// The one TLB factory: a single-level TLB of `design` and `config`
    /// with this builder's SP and RF knobs, for the D-TLB, either level of
    /// a hierarchy, or the I-TLB. RF engines start from a placeholder
    /// seed; [`MachineBuilder::build`] reseeds them.
    fn make_tlb(&self, design: TlbDesign, config: TlbConfig) -> TlbUnit {
        match design {
            TlbDesign::Sa => Tlb::sa(config).into(),
            TlbDesign::Sp => {
                let victim_ways = self.sp_victim_ways.unwrap_or(config.ways() / 2);
                Tlb::sp(config, victim_ways)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .into()
            }
            TlbDesign::Rf => Tlb::rf(config, self.rf_eviction, self.rf_invalidation).into(),
            TlbDesign::Fs => Tlb::temporal(config, ClearScope::Entries).into(),
            TlbDesign::Ft => Tlb::temporal(config, ClearScope::Full).into(),
            TlbDesign::Ms => MsTlb::new(MultiConfig::from_base(config)).into(),
        }
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        let l1 = self.make_tlb(self.design, self.config);
        let tlb = match self.l2 {
            Some((design, config, latency)) => {
                TlbHierarchy::new(l1, self.make_tlb(design, config), latency).into()
            }
            None => l1,
        };
        let itlb = self
            .itlb
            .map(|(design, config)| self.make_tlb(design, config));
        let oracle = self.oracle.unwrap_or(cfg!(debug_assertions)).then(|| {
            Box::new(Oracle::new(MachineSetup {
                design: self.design,
                entries: self.config.entries(),
                ways: self.config.ways(),
                seed: self.seed,
                flush_policy: self.flush_policy,
                switch_cost: self.switch_cost,
                cycles_per_level: self.walker.cycles_per_level,
                rf_eviction: self.rf_eviction,
                rf_invalidation: self.rf_invalidation,
                sp_victim_ways: self.sp_victim_ways,
                l2: self
                    .l2
                    .map(|(d, c, latency)| (d, c.entries(), c.ways(), latency)),
                itlb: self.itlb.map(|(d, c)| (d, c.entries(), c.ways())),
            }))
        });
        let mut machine = Machine {
            tlb,
            itlb,
            design: self.design,
            os: Os::new(self.flush_policy),
            walker: self.walker,
            switch_cost: self.switch_cost,
            current_asid: Asid(0),
            code_pages: Vec::new(),
            fetch_latch: None,
            stats: ExecStats::new(),
            oracle,
        };
        machine.reseed(self.seed);
        machine
    }
}

impl Default for MachineBuilder {
    fn default() -> MachineBuilder {
        MachineBuilder::new()
    }
}

/// A simulated single-core machine.
///
/// `Clone` copies TLB contents and engine state, counters, and the
/// oracle's record, and shares the page tables until one side writes
/// one (see [`Os`]): the walker's auto-map writes, for one, land only in
/// the copy that ran. `clone_from` restores a machine in place, so a
/// machine restored from one of the same configuration allocates
/// nothing. Together with [`Machine::reseed`] this lets a campaign set a
/// machine up once and restore it for every trial.
pub struct Machine {
    tlb: TlbUnit,
    itlb: Option<TlbUnit>,
    design: TlbDesign,
    os: Os,
    walker: WalkerConfig,
    switch_cost: u64,
    current_asid: Asid,
    /// Per-process current code page (the PC's page), set by `JumpTo`
    /// on a machine with an I-TLB, the only reader. A handful of
    /// processes jump, so a short list, which a restore keeps the buffer
    /// of.
    code_pages: Vec<(Asid, Vpn)>,
    /// The fetch unit's translation latch: consecutive fetches from the
    /// same page reuse the last translation instead of re-accessing the
    /// I-TLB (as a real front end does). Cleared on context switches and
    /// jumps.
    fetch_latch: Option<(Asid, Vpn)>,
    stats: ExecStats,
    /// Shadow-oracle state, when enabled (see [`crate::shadow`]).
    oracle: Option<Box<Oracle>>,
}

impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            tlb: self.tlb.clone(),
            itlb: self.itlb.clone(),
            design: self.design,
            os: self.os.clone(),
            walker: self.walker,
            switch_cost: self.switch_cost,
            current_asid: self.current_asid,
            code_pages: self.code_pages.clone(),
            fetch_latch: self.fetch_latch,
            stats: self.stats.clone(),
            oracle: self.oracle.clone(),
        }
    }

    /// Restores every part of `source` into this machine's buffers: the
    /// campaign's per-trial restore.
    fn clone_from(&mut self, source: &Machine) {
        let Machine {
            tlb,
            itlb,
            design,
            os,
            walker,
            switch_cost,
            current_asid,
            code_pages,
            fetch_latch,
            stats,
            oracle,
        } = self;
        tlb.clone_from(&source.tlb);
        itlb.clone_from(&source.itlb);
        *design = source.design;
        os.clone_from(&source.os);
        *walker = source.walker;
        *switch_cost = source.switch_cost;
        *current_asid = source.current_asid;
        code_pages.clone_from(&source.code_pages);
        *fetch_latch = source.fetch_latch;
        stats.clone_from(&source.stats);
        oracle.clone_from(&source.oracle);
    }
}

/// TLB state captured immediately before an instruction executes, for the
/// oracle's post-execution checks.
struct OraclePre {
    snapshot: Vec<SnapshotEntry>,
    stats: TlbStats,
    asid: Asid,
}

/// Whether `instr` can change the D-TLB's contents, so the oracle
/// snapshots it before and after: accesses, flushes and context switches.
fn touches_dtlb(instr: Instr) -> bool {
    !matches!(
        instr,
        Instr::Compute(_) | Instr::ReadMissCounter | Instr::ReadCycleCounter | Instr::JumpTo(_)
    )
}

/// Every part of the machine's state — TLB contents, replacement and
/// engine state, page tables, counters — except the oracle's record, of
/// which it shows only whether there is one. Two machines that print
/// alike behave alike.
impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("tlb", &self.tlb)
            .field("itlb", &self.itlb)
            .field("design", &self.design)
            .field("os", &self.os)
            .field("walker", &self.walker)
            .field("switch_cost", &self.switch_cost)
            .field("current_asid", &self.current_asid)
            .field("code_pages", &self.code_pages)
            .field("fetch_latch", &self.fetch_latch)
            .field("stats", &self.stats)
            .field("oracle_enabled", &self.oracle.is_some())
            .finish()
    }
}

impl Machine {
    /// The TLB design in use.
    pub fn design(&self) -> TlbDesign {
        self.design
    }

    /// The TLB (for stats and probing).
    pub fn tlb(&self) -> &dyn TlbCore {
        self.tlb.as_core()
    }

    /// The TLB, mutably (for direct register programming in tests).
    ///
    /// Taints the shadow oracle: once external code has fiddled with the
    /// TLB directly, the oracle's reference model no longer describes the
    /// machine, so it goes inert instead of raising false reports.
    pub fn tlb_mut(&mut self) -> &mut dyn TlbCore {
        if let Some(o) = &mut self.oracle {
            o.tainted = true;
        }
        self.tlb.as_core_mut()
    }

    /// The OS model.
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// The OS model, mutably (process creation, mapping).
    pub fn os_mut(&mut self) -> &mut Os {
        &mut self.os
    }

    /// The currently executing address space.
    pub fn current_asid(&self) -> Asid {
        self.current_asid
    }

    /// Accumulated CPU counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The TLB's counters.
    pub fn tlb_stats(&self) -> &TlbStats {
        self.tlb.stats()
    }

    /// The instruction TLB, if configured.
    pub fn itlb(&self) -> Option<&dyn TlbCore> {
        self.itlb.as_ref().map(TlbUnit::as_core)
    }

    /// The instruction TLB, mutably.
    pub fn itlb_mut(&mut self) -> Option<&mut (dyn TlbCore + '_)> {
        match &mut self.itlb {
            Some(t) => Some(t.as_core_mut()),
            None => None,
        }
    }

    /// The I-TLB's miss counter (0 when no I-TLB is configured).
    pub fn itlb_misses(&self) -> u64 {
        self.itlb.as_ref().map_or(0, |t| t.stats().misses)
    }

    /// Current TLB-miss count (the benchmark-visible CSR).
    pub fn tlb_misses(&self) -> u64 {
        self.tlb.stats().misses
    }

    /// Resets CPU and TLB counters (not TLB contents).
    pub fn reset_counters(&mut self) {
        self.stats.reset();
        self.tlb.reset_stats();
    }

    /// Instructions per cycle over everything executed so far.
    pub fn ipc(&self) -> Option<f64> {
        self.stats.ipc()
    }

    /// TLB misses per kilo instruction over everything executed so far.
    pub fn mpki(&self) -> Option<f64> {
        self.stats.mpki(self.tlb.stats().misses)
    }

    /// Replaces every Random Fill Engine on the machine with one seeded
    /// as if the machine had been built with [`MachineBuilder::seed`]`(seed)`
    /// — the one place the per-TLB seeds are derived. The D-TLB's L1 gets
    /// `seed`, an L2 `seed ^ 0x12`, and an I-TLB `seed ^ 0x17b`. Nothing
    /// else changes: contents, counters, page tables and registers stay
    /// as they are. The oracle's recorded setup takes the new seed, so a
    /// capture replays with the engines this machine runs.
    ///
    /// A clone of a post-setup machine that has executed nothing, reseeded
    /// with `seed`, is indistinguishable from a fresh build with `seed`
    /// and the same setup (`tests/differential_equivalence.rs`).
    pub fn reseed(&mut self, seed: u64) {
        self.tlb.reseed(0, seed);
        self.tlb.reseed(1, seed ^ 0x12);
        if let Some(itlb) = &mut self.itlb {
            itlb.reseed(0, seed ^ 0x17b);
        }
        if let Some(o) = &mut self.oracle {
            o.setup.seed = seed;
        }
    }

    /// Registers `region` as the secure region of victim `asid`: prepares
    /// page tables (footnote 5) and programs the TLB's victim-ASID and
    /// secure-region registers. On designs without those registers the
    /// respective writes are ignored, so this is safe to call uniformly.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or PTE pre-generation fails.
    pub fn protect_victim(&mut self, asid: Asid, region: SecureRegion) -> Result<(), OsError> {
        self.os.prepare_secure_region(asid, region)?;
        self.tlb.set_victim_asid(Some(asid));
        self.tlb.set_secure_region(Some(region));
        if let Some(o) = &mut self.oracle {
            o.protects.push((asid, region, false));
        }
        Ok(())
    }

    /// Performs the instruction fetch for this execution step: with an
    /// I-TLB configured and a code page established by `JumpTo`, the code
    /// page is translated (sequential fetches within the page hit).
    #[inline]
    fn fetch(&mut self) {
        if self.itlb.is_some() {
            self.fetch_itlb();
        }
    }

    /// [`Machine::fetch`] on a machine with an I-TLB, out of line.
    #[inline(never)]
    fn fetch_itlb(&mut self) {
        let Some(itlb) = &mut self.itlb else { return };
        let Some(&(_, page)) = self
            .code_pages
            .iter()
            .find(|&&(asid, _)| asid == self.current_asid)
        else {
            return;
        };
        // Sequential fetches within a page reuse the latched translation.
        if self.fetch_latch == Some((self.current_asid, page)) {
            return;
        }
        let mut walker = OsWalker::new(&mut self.os, self.walker);
        let r = itlb.access(self.current_asid, page, &mut walker);
        self.stats.cycles += r.walk_cycles;
        if r.fault {
            self.stats.faults += 1;
        } else {
            self.fetch_latch = Some((self.current_asid, page));
        }
    }

    /// Records `page` as the current process's code page.
    fn set_code_page(&mut self, page: Vpn) {
        let asid = self.current_asid;
        match self.code_pages.iter_mut().find(|(a, _)| *a == asid) {
            Some(entry) => entry.1 = page,
            None => self.code_pages.push((asid, page)),
        }
    }

    /// Executes one instruction.
    pub fn exec(&mut self, instr: Instr) {
        let pre = self.oracle_pre(instr);
        let r = self.exec_inner(instr);
        if let Some(pre) = pre {
            self.oracle_post(instr, &pre, r);
        }
    }

    /// The instruction semantics proper; returns the D-TLB access result
    /// for memory instructions (the oracle checks it against a pure walk).
    /// Inlined into [`Machine::run_batch`]'s loop, so a TLB hit there
    /// makes no out-of-line call.
    #[inline(always)]
    fn exec_inner(&mut self, instr: Instr) -> Option<AccessResult> {
        self.fetch();
        match instr {
            Instr::Load(vaddr) | Instr::Store(vaddr) => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                if matches!(instr, Instr::Load(_)) {
                    self.stats.loads += 1;
                } else {
                    self.stats.stores += 1;
                }
                let vpn = Vpn::of_addr(vaddr);
                let asid = self.current_asid;
                let mut walker = OsWalker::new(&mut self.os, self.walker);
                let r = self.tlb.access(asid, vpn, &mut walker);
                self.stats.cycles += r.walk_cycles;
                if r.fault {
                    self.stats.faults += 1;
                }
                return Some(r);
            }
            Instr::Compute(n) => {
                self.stats.instret += n;
                self.stats.cycles += n;
            }
            Instr::SetAsid(asid) => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                if asid != self.current_asid {
                    self.stats.context_switches += 1;
                    self.stats.cycles += self.switch_cost;
                    self.fetch_latch = None;
                    if self.os.flush_policy() == FlushPolicy::FlushOnSwitch {
                        self.tlb.flush_all();
                        if let Some(itlb) = &mut self.itlb {
                            itlb.flush_all();
                        }
                    }
                    // The hardware-level temporal-partitioning hook: the
                    // FS/FT designs clear their state here; every other
                    // design's hook is a no-op (contents, counters, and
                    // timing all unchanged).
                    self.tlb.on_context_switch();
                    if let Some(itlb) = &mut self.itlb {
                        itlb.on_context_switch();
                    }
                }
                self.current_asid = asid;
            }
            Instr::FlushAll => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                self.tlb.flush_all();
                if let Some(itlb) = &mut self.itlb {
                    itlb.flush_all();
                }
                self.fetch_latch = None;
            }
            Instr::FlushAsid(asid) => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                self.tlb.flush_asid(asid);
                if let Some(itlb) = &mut self.itlb {
                    itlb.flush_asid(asid);
                }
                self.fetch_latch = None;
            }
            Instr::FlushPage(vaddr) => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                let asid = self.current_asid;
                // Invalidating a present entry takes an extra cycle — the
                // Flush + Flush channel of Appendix B.
                if self.tlb.flush_page(asid, Vpn::of_addr(vaddr)) {
                    self.stats.cycles += 1;
                }
                // A shootdown reaches the instruction side too.
                let vpn = Vpn::of_addr(vaddr);
                if let Some(itlb) = &mut self.itlb {
                    itlb.flush_page(asid, vpn);
                }
                if self.fetch_latch == Some((asid, vpn)) {
                    self.fetch_latch = None;
                }
            }
            Instr::ReadMissCounter => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                let misses = self.tlb.stats().misses;
                self.stats.counter_reads.push(misses);
            }
            Instr::ReadCycleCounter => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                let cycles = self.stats.cycles;
                self.stats.counter_reads.push(cycles);
            }
            Instr::JumpTo(vaddr) => {
                self.stats.instret += 1;
                self.stats.cycles += 1;
                if self.itlb.is_some() {
                    self.set_code_page(Vpn::of_addr(vaddr));
                }
                // A control transfer redirects the fetch stream.
                self.fetch_latch = None;
            }
        }
        None
    }

    /// Whether the shadow oracle was enabled at build time.
    pub fn oracle_enabled(&self) -> bool {
        self.oracle.is_some()
    }

    /// Violations the oracle has recorded so far (empty without an
    /// oracle). The oracle goes inert after its first violation, so in
    /// practice this holds at most one entry.
    pub fn oracle_violations(&self) -> &[OracleViolation] {
        self.oracle.as_ref().map_or(&[], |o| &o.violations)
    }

    /// Installs the campaign reporting context ("driver|cell|…"). Only
    /// machines with a context submit suspect captures to the process-wide
    /// sink (see [`crate::shadow::drain_suspects_with_prefix`]); machines
    /// without one — unit tests, replays — record violations locally only.
    pub fn set_oracle_context(&mut self, context: impl Into<String>) {
        if let Some(o) = &mut self.oracle {
            o.context = Some(context.into());
        }
    }

    /// Schedules a deterministic entry corruption to fire once `op_index`
    /// instructions have executed (retrying on later instructions while
    /// the TLB holds no eligible entry). Returns `false` when the oracle
    /// is disabled — corruption injection is the oracle's own fault-
    /// injection harness and is meaningless without its checks.
    pub fn schedule_corruption(
        &mut self,
        op_index: u64,
        selector: u64,
        kind: CorruptionKind,
    ) -> bool {
        match &mut self.oracle {
            Some(o) => {
                o.planned = Some(PlannedCorruption {
                    op_index,
                    selector,
                    kind,
                });
                true
            }
            None => false,
        }
    }

    /// Immediately corrupts one resident TLB entry (recording the
    /// injection in the trace) and runs the oracle's corruption sweep.
    /// Returns whether an entry was actually corrupted — `false` when the
    /// oracle is inert or no entry is eligible.
    pub fn inject_corruption_now(&mut self, selector: u64, kind: CorruptionKind) -> bool {
        if !self.oracle_active() {
            return false;
        }
        if self.tlb.corrupt_entry(selector, kind).is_none() {
            return false;
        }
        let o = self.oracle.as_mut().expect("oracle is active");
        o.ops.push(TraceOp::Corrupt { selector, kind });
        if let Some(v) = self.corruption_check() {
            self.record_violation(v);
        }
        true
    }

    /// Whether the oracle is present, untainted, and has not yet recorded
    /// a violation.
    fn oracle_active(&self) -> bool {
        self.oracle
            .as_ref()
            .is_some_and(|o| !o.tainted && o.violations.is_empty())
    }

    /// Pre-execution oracle hook: fires any due scheduled corruption,
    /// records the op in the trace, and snapshots the state the post-hook
    /// compares against. Returns `None` when no checking should happen.
    fn oracle_pre(&mut self, instr: Instr) -> Option<OraclePre> {
        if !self.oracle_active() {
            return None;
        }
        let due = self
            .oracle
            .as_ref()
            .and_then(|o| o.planned.filter(|p| o.exec_count >= p.op_index));
        if let Some(p) = due {
            // A corruption attempt on an empty TLB stays pending and is
            // retried on the next instruction.
            if self.tlb.corrupt_entry(p.selector, p.kind).is_some() {
                let o = self.oracle.as_mut().expect("oracle is active");
                o.planned = None;
                o.ops.push(TraceOp::Corrupt {
                    selector: p.selector,
                    kind: p.kind,
                });
                if let Some(v) = self.corruption_check() {
                    self.record_violation(v);
                    return None;
                }
            }
        }
        let o = self.oracle.as_mut().expect("oracle is active");
        o.ops.push(TraceOp::Exec(instr));
        o.exec_count += 1;
        Some(OraclePre {
            snapshot: if touches_dtlb(instr) {
                self.tlb.snapshot()
            } else {
                Vec::new()
            },
            stats: *self.tlb.stats(),
            asid: self.current_asid,
        })
    }

    /// Post-execution oracle hook: runs the per-instruction checks,
    /// records the first violation, and otherwise updates the recency
    /// model the `replacement-order` check predicts victims from.
    fn oracle_post(&mut self, instr: Instr, pre: &OraclePre, r: Option<AccessResult>) {
        if !self.oracle_active() || !touches_dtlb(instr) {
            return;
        }
        let op_index = self.oracle.as_ref().expect("oracle is active").ops.len() - 1;
        let post = self.tlb.snapshot();
        let candidates = self.oracle_candidates(pre.asid);
        let random_fill = self.tlb.stats().random_fills > pre.stats.random_fills;
        let v = self
            .oracle_check(instr, pre, &post, r, op_index)
            .or_else(|| self.integrity_violation(op_index))
            .or_else(|| self.replacement_violation(pre, &post, &candidates, random_fill, op_index));
        if let Some(v) = v {
            self.record_violation(v);
            return;
        }
        let hit = match (instr, r) {
            (Instr::Load(vaddr) | Instr::Store(vaddr), Some(r)) if r.hit => {
                Some((pre.asid, Vpn::of_addr(vaddr)))
            }
            _ => None,
        };
        let recency = &mut self.oracle.as_mut().expect("oracle is active").recency;
        recency.observe(&pre.snapshot, &post, hit, random_fill, candidates.len());
    }

    /// The way range a fill may replace at each level the
    /// `replacement-order` check covers, indexed by snapshot level, for a
    /// request from `asid`: SP's requester partition, every class of an
    /// MS machine without an L2, and otherwise the L1's whole set.
    fn oracle_candidates(&self, asid: Asid) -> Vec<std::ops::Range<usize>> {
        let Some(o) = &self.oracle else {
            return Vec::new();
        };
        let ways = o.setup.ways;
        let l1 = match o.setup.design {
            TlbDesign::Ms if o.setup.l2.is_none() => {
                let multi = MultiConfig::from_base(self.tlb.config());
                return PageSize::ALL
                    .iter()
                    .map(|&size| 0..multi.class(size).ways())
                    .collect();
            }
            TlbDesign::Sp => {
                let split = o.setup.sp_victim_ways.unwrap_or(ways / 2);
                let victim = self.oracle_protection().map(|(victim, _)| victim);
                if victim == Some(asid) {
                    0..split
                } else {
                    split..ways
                }
            }
            _ => 0..ways,
        };
        vec![l1]
    }

    /// The `replacement-order` check of a load or store. Not judged once
    /// the recency model has lost track, nor for a random fill whose way
    /// the RF engine drew.
    fn replacement_violation(
        &self,
        pre: &OraclePre,
        post: &[SnapshotEntry],
        candidates: &[std::ops::Range<usize>],
        random_fill: bool,
        op_index: usize,
    ) -> Option<OracleViolation> {
        let o = self.oracle.as_ref()?;
        let drawn = random_fill && o.setup.rf_eviction == RandomFillEviction::RandomWay;
        if !o.recency.tracking() || drawn {
            return None;
        }
        let (expected, actual) = replacement_order(&pre.snapshot, post, &o.recency, candidates)?;
        Some(self.violation(op_index, Invariant::ReplacementOrder, expected, actual))
    }

    /// The currently effective `(victim, region)` protection for the
    /// D-TLB, per the oracle's recorded `protect_victim` calls.
    fn oracle_protection(&self) -> Option<(Asid, SecureRegion)> {
        let o = self.oracle.as_ref()?;
        o.protects
            .iter()
            .rev()
            .find(|&&(_, _, is_code)| !is_code)
            .map(|&(asid, region, _)| (asid, region))
    }

    /// The RF `Sec` classification of `(asid, vpn)` per the reference
    /// model.
    fn oracle_is_secure(&self, asid: Asid, vpn: Vpn) -> bool {
        self.oracle_protection()
            .is_some_and(|(victim, region)| victim == asid && region.contains(vpn))
    }

    fn violation(
        &self,
        op_index: usize,
        invariant: Invariant,
        expected: String,
        actual: String,
    ) -> OracleViolation {
        OracleViolation {
            design: self.design.name().to_string(),
            op_index,
            invariant,
            expected,
            actual,
        }
    }

    fn violation_from_integrity(&self, op_index: usize, e: &IntegrityError) -> OracleViolation {
        let invariant = match e.kind {
            IntegrityKind::Capacity => Invariant::Capacity,
            IntegrityKind::Partition => Invariant::Partition,
            IntegrityKind::SecBit => Invariant::SecBit,
            IntegrityKind::ClassIsolation => Invariant::ClassIsolation,
        };
        self.violation(
            op_index,
            invariant,
            format!("the {} structural invariant to hold", e.kind),
            e.detail.clone(),
        )
    }

    /// The design's structural invariants over the current TLB contents.
    fn integrity_violation(&self, op_index: usize) -> Option<OracleViolation> {
        let e = self.tlb.integrity().err()?;
        Some(self.violation_from_integrity(op_index, &e))
    }

    /// The per-instruction semantic checks (see [`crate::shadow`] for the
    /// invariant catalogue).
    fn oracle_check(
        &self,
        instr: Instr,
        pre: &OraclePre,
        now: &[SnapshotEntry],
        r: Option<AccessResult>,
        op_index: usize,
    ) -> Option<OracleViolation> {
        match instr {
            Instr::Load(vaddr) | Instr::Store(vaddr) => {
                let vpn = Vpn::of_addr(vaddr);
                let asid = pre.asid;
                let r = r?;
                if r.hit {
                    // On MS the snapshot's `level` is the entry class
                    // (4K/2M/1G), all of which are L1-resident; elsewhere
                    // only level 0 is the L1.
                    let resident = pre.snapshot.iter().any(|s| {
                        (self.design == TlbDesign::Ms || s.level == 0) && s.entry.matches(asid, vpn)
                    });
                    if !resident {
                        return Some(self.violation(
                            op_index,
                            Invariant::HitSoundness,
                            format!(
                                "a resident L1 entry matching ({asid}, {vpn}) before the access"
                            ),
                            "hit reported with no matching entry resident".to_string(),
                        ));
                    }
                }
                let walked = self
                    .os
                    .process(asid)
                    .ok()
                    .and_then(|p| p.page_table().walk(vpn).pte);
                if r.fault {
                    if let Some(pte) = walked {
                        return Some(self.violation(
                            op_index,
                            Invariant::Translation,
                            format!(
                                "no fault: the page table maps ({asid}, {vpn}) -> {}",
                                pte.ppn
                            ),
                            "the access faulted".to_string(),
                        ));
                    }
                } else {
                    match (walked, r.ppn) {
                        (Some(pte), Some(ppn)) if pte.ppn == ppn => {}
                        (Some(pte), got) => {
                            return Some(self.violation(
                                op_index,
                                Invariant::Translation,
                                format!("({asid}, {vpn}) -> {} per the page table", pte.ppn),
                                format!("the TLB returned {got:?}"),
                            ));
                        }
                        (None, got) => {
                            return Some(self.violation(
                                op_index,
                                Invariant::Translation,
                                format!("a page fault: ({asid}, {vpn}) is unmapped"),
                                format!("the TLB returned {got:?} without faulting"),
                            ));
                        }
                    }
                }
                if self.design == TlbDesign::Rf
                    && !r.hit
                    && !r.fault
                    && self.oracle_is_secure(asid, vpn)
                    && self.tlb.stats().no_fill_responses == pre.stats.no_fill_responses
                {
                    return Some(self.violation(
                        op_index,
                        Invariant::NoFill,
                        format!("a no-fill response for the secure-region miss ({asid}, {vpn})"),
                        "the no-fill counter did not advance".to_string(),
                    ));
                }
                None
            }
            Instr::FlushAll => {
                if now.is_empty() {
                    None
                } else {
                    Some(self.violation(
                        op_index,
                        Invariant::FlushCompleteness,
                        "an empty TLB after FlushAll".to_string(),
                        format!("{} entries still resident", now.len()),
                    ))
                }
            }
            Instr::FlushAsid(asid) => now.iter().find(|s| s.entry.asid == asid).map(|s| {
                self.violation(
                    op_index,
                    Invariant::FlushCompleteness,
                    format!("no entries of {asid} after FlushAsid"),
                    format!(
                        "entry ({}, {}) still resident at level {} set {} way {}",
                        s.entry.asid, s.entry.vpn, s.level, s.set, s.way
                    ),
                )
            }),
            Instr::FlushPage(vaddr) => {
                let vpn = Vpn::of_addr(vaddr);
                let asid = pre.asid;
                let rf_region_flush = self.design == TlbDesign::Rf
                    && self.oracle.as_ref().is_some_and(|o| {
                        o.setup.rf_invalidation == InvalidationPolicy::RegionFlush
                    })
                    && self.oracle_is_secure(asid, vpn);
                if rf_region_flush {
                    // RegionFlush drops every Sec entry; a non-Sec megapage
                    // entry covering the page legitimately survives, so the
                    // exact-match check does not apply.
                    now.iter().find(|s| s.level == 0 && s.entry.sec).map(|s| {
                        self.violation(
                            op_index,
                            Invariant::FlushCompleteness,
                            "no Sec entries after a secure-page shootdown under RegionFlush"
                                .to_string(),
                            format!(
                                "Sec entry ({}, {}) still resident",
                                s.entry.asid, s.entry.vpn
                            ),
                        )
                    })
                } else {
                    now.iter().find(|s| s.entry.matches(asid, vpn)).map(|s| {
                        self.violation(
                            op_index,
                            Invariant::FlushCompleteness,
                            format!("no entry matching ({asid}, {vpn}) after FlushPage"),
                            format!(
                                "entry ({}, {}) still resident at level {} set {} way {}",
                                s.entry.asid, s.entry.vpn, s.level, s.set, s.way
                            ),
                        )
                    })
                }
            }
            Instr::SetAsid(asid) => {
                let switched = asid != pre.asid;
                let temporal = matches!(self.design, TlbDesign::Fs | TlbDesign::Ft);
                if switched && self.os.flush_policy() == FlushPolicy::FlushOnSwitch {
                    if now.is_empty() {
                        None
                    } else {
                        Some(self.violation(
                            op_index,
                            Invariant::FlushCompleteness,
                            "an empty TLB after a flush-on-switch context switch".to_string(),
                            format!("{} entries still resident", now.len()),
                        ))
                    }
                } else if switched && temporal {
                    // Only L1 entries count: an L2 behind a temporal L1
                    // keeps its contents unless it is itself temporal.
                    let resident = now.iter().filter(|s| s.level == 0).count();
                    if resident != 0 {
                        Some(self.violation(
                            op_index,
                            Invariant::ClearCompleteness,
                            format!("an empty {} TLB after a context switch", self.design.name()),
                            format!("{resident} entries still resident"),
                        ))
                    } else if self.design == TlbDesign::Ft
                        && self.tlb.replacement_pristine() == Some(false)
                    {
                        Some(self.violation(
                            op_index,
                            Invariant::ClearCompleteness,
                            "pristine replacement state after a fence.t-style switch".to_string(),
                            "replacement residue survived the switch".to_string(),
                        ))
                    } else {
                        None
                    }
                } else if now != pre.snapshot.as_slice() {
                    Some(self.violation(
                        op_index,
                        Invariant::Provenance,
                        "bit-identical TLB contents across SetAsid".to_string(),
                        format!(
                            "contents changed from {} to {} entries",
                            pre.snapshot.len(),
                            now.len()
                        ),
                    ))
                } else {
                    None
                }
            }
            Instr::Compute(_)
            | Instr::ReadMissCounter
            | Instr::ReadCycleCounter
            | Instr::JumpTo(_) => None,
        }
    }

    /// The post-corruption sweep: structural invariants plus a full
    /// translation sweep of every resident entry against the page tables.
    /// Runs immediately after an injected corruption so the violation is
    /// attributed to the injection, not to whichever later access happens
    /// to touch the rotten entry.
    fn corruption_check(&self) -> Option<OracleViolation> {
        let op_index = self
            .oracle
            .as_ref()
            .map_or(0, |o| o.ops.len().saturating_sub(1));
        if let Some(v) = self.integrity_violation(op_index) {
            return Some(v);
        }
        for s in self.tlb.snapshot() {
            let e = s.entry;
            let walked = self
                .os
                .process(e.asid)
                .ok()
                .and_then(|p| p.page_table().walk(e.vpn).pte);
            let consistent = walked.is_some_and(|pte| pte.ppn == e.ppn && pte.size == e.size);
            if !consistent {
                return Some(self.violation(
                    op_index,
                    Invariant::Translation,
                    format!(
                        "a page-table mapping backing resident entry ({}, {}) -> {}",
                        e.asid, e.vpn, e.ppn
                    ),
                    match walked {
                        Some(pte) => format!(
                            "the page table maps ({}, {}) -> {} ({:?})",
                            e.asid, e.vpn, pte.ppn, pte.size
                        ),
                        None => format!("({}, {}) is not mapped", e.asid, e.vpn),
                    },
                ));
            }
        }
        None
    }

    /// Records a violation and — when a campaign context is installed —
    /// captures the full replayable trace and submits it to the suspect
    /// sink. The oracle goes inert afterwards.
    fn record_violation(&mut self, v: OracleViolation) {
        let mut maps: Vec<(
            Asid,
            Vpn,
            sectlb_tlb::types::PageSize,
            sectlb_tlb::types::Ppn,
        )> = Vec::new();
        for asid in self.os.asids().collect::<Vec<_>>() {
            let pt = self.os.process(asid).expect("asid is live").page_table();
            for (vpn, pte) in pt.mappings() {
                maps.push((asid, vpn, pte.size, pte.ppn));
            }
        }
        // PPN order is frame-allocation order — the replay contract.
        maps.sort_by_key(|&(_, _, _, ppn)| ppn.0);
        let processes = self.os.asids().count() as u16;
        let Some(o) = &mut self.oracle else { return };
        o.violations.push(v.clone());
        if let Some(context) = o.context.clone() {
            crate::shadow::submit_suspect(SuspectReport {
                context,
                capture: TraceCapture {
                    setup: o.setup,
                    processes,
                    maps: maps.into_iter().map(|(a, vp, s, _)| (a, vp, s)).collect(),
                    protects: o.protects.clone(),
                    ops: o.ops.clone(),
                    violation: v,
                },
            });
        }
    }

    /// Registers a secure *code* region for the I-TLB (the instruction-
    /// side analogue of [`Machine::protect_victim`]). No-op when no I-TLB
    /// is configured.
    ///
    /// # Errors
    ///
    /// Fails when the process does not exist or PTE pre-generation fails.
    pub fn protect_victim_code(&mut self, asid: Asid, region: SecureRegion) -> Result<(), OsError> {
        self.os.prepare_secure_region(asid, region)?;
        if let Some(itlb) = &mut self.itlb {
            itlb.set_victim_asid(Some(asid));
            itlb.set_secure_region(Some(region));
        }
        if let Some(o) = &mut self.oracle {
            o.protects.push((asid, region, true));
        }
        Ok(())
    }

    /// Executes a straight-line program.
    pub fn run(&mut self, program: &[Instr]) {
        self.run_batch(program);
    }

    /// Executes a program as one batch — the trial drivers' entry point.
    ///
    /// Semantically identical to calling [`Machine::exec`] per
    /// instruction (the differential equivalence suite pins this), but
    /// when the shadow oracle is inactive the whole batch runs through
    /// the instruction semantics directly, skipping the per-instruction
    /// oracle bookkeeping. An empty batch is a no-op.
    pub fn run_batch(&mut self, program: &[Instr]) {
        if self.oracle_active() {
            for &i in program {
                self.exec(i);
            }
            return;
        }
        for &i in program {
            self.exec_inner(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with_process(design: TlbDesign) -> (Machine, Asid) {
        let mut m = MachineBuilder::new().design(design).build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x10), 8).unwrap();
        m.exec(Instr::SetAsid(p));
        (m, p)
    }

    #[test]
    fn loads_translate_and_count() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        m.run(&[Instr::Load(0x10_000), Instr::Load(0x10_008)]);
        assert_eq!(m.tlb_stats().accesses, 2);
        assert_eq!(m.tlb_stats().misses, 1, "same page hits the second time");
        assert_eq!(m.stats().loads, 2);
    }

    #[test]
    fn misses_cost_walk_cycles() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        let c0 = m.stats().cycles;
        m.exec(Instr::Load(0x10_000)); // miss: 1 + 60
        let miss_cost = m.stats().cycles - c0;
        m.exec(Instr::Load(0x10_000)); // hit: 1
        let hit_cost = m.stats().cycles - c0 - miss_cost;
        assert_eq!(miss_cost, 61);
        assert_eq!(hit_cost, 1);
    }

    #[test]
    fn miss_counter_reads_capture_progression() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        m.run(&[
            Instr::ReadMissCounter,
            Instr::Load(0x10_000),
            Instr::ReadMissCounter,
            Instr::Load(0x10_000),
            Instr::ReadMissCounter,
        ]);
        assert_eq!(m.stats().counter_reads, vec![0, 1, 1]);
    }

    #[test]
    fn cycle_counter_reads_time_an_invalidation() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        m.exec(Instr::Load(0x10_000));
        let timed = [
            Instr::ReadCycleCounter,
            Instr::FlushPage(0x10_000),
            Instr::ReadCycleCounter,
        ];
        // Between the reads: a present entry's two cycles (an absent
        // one's one), plus the second read's own.
        m.run(&timed);
        m.run(&timed);
        let r = &m.stats().counter_reads;
        assert_eq!((r[1] - r[0], r[3] - r[2]), (3, 2));
        assert_eq!(r[2], r[1] + 1, "a read takes one cycle");
    }

    #[test]
    fn flush_on_switch_policy_flushes() {
        let mut m = MachineBuilder::new()
            .flush_policy(FlushPolicy::FlushOnSwitch)
            .build();
        let a = m.os_mut().create_process();
        let b = m.os_mut().create_process();
        m.os_mut().map_region(a, Vpn(0x10), 1).unwrap();
        m.run(&[Instr::SetAsid(a), Instr::Load(0x10_000)]);
        assert!(m.tlb().probe(a, Vpn(0x10)));
        m.exec(Instr::SetAsid(b));
        assert!(!m.tlb().probe(a, Vpn(0x10)), "switch flushed the TLB");
    }

    #[test]
    fn default_policy_keeps_entries_across_switches() {
        let (mut m, p) = machine_with_process(TlbDesign::Sa);
        m.exec(Instr::Load(0x10_000));
        let q = m.os_mut().create_process();
        m.exec(Instr::SetAsid(q));
        assert!(m.tlb().probe(p, Vpn(0x10)), "ASID tags avoid flushing");
    }

    #[test]
    fn flush_page_timing_reveals_presence() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        m.exec(Instr::Load(0x10_000));
        let c0 = m.stats().cycles;
        m.exec(Instr::FlushPage(0x10_000)); // present: 2 cycles
        let present_cost = m.stats().cycles - c0;
        let c1 = m.stats().cycles;
        m.exec(Instr::FlushPage(0x10_000)); // absent: 1 cycle
        let absent_cost = m.stats().cycles - c1;
        assert_eq!(present_cost, 2);
        assert_eq!(absent_cost, 1);
    }

    #[test]
    fn protect_victim_programs_rf_registers() {
        let mut m = MachineBuilder::new().design(TlbDesign::Rf).build();
        let v = m.os_mut().create_process();
        let region = SecureRegion::new(Vpn(0x100), 3);
        m.protect_victim(v, region).unwrap();
        m.exec(Instr::SetAsid(v));
        m.exec(Instr::Load(0x100_000));
        // The secure access was served through the no-fill buffer.
        assert_eq!(m.tlb_stats().no_fill_responses, 1);
        assert_eq!(m.tlb_stats().random_fills, 1);
    }

    #[test]
    fn protect_victim_is_harmless_on_sa() {
        let mut m = MachineBuilder::new().design(TlbDesign::Sa).build();
        let v = m.os_mut().create_process();
        m.protect_victim(v, SecureRegion::new(Vpn(0x100), 3))
            .unwrap();
        m.exec(Instr::SetAsid(v));
        m.exec(Instr::Load(0x100_000));
        assert_eq!(m.tlb_stats().no_fill_responses, 0);
    }

    #[test]
    fn ipc_reflects_tlb_behavior() {
        // A TLB-friendly program has higher IPC than a thrashing one.
        let (mut m1, _) = machine_with_process(TlbDesign::Sa);
        for _ in 0..100 {
            m1.exec(Instr::Load(0x10_000));
        }
        let (mut m2, p2) = machine_with_process(TlbDesign::Sa);
        m2.os_mut().map_region(p2, Vpn(0x1000), 256).unwrap();
        for i in 0..100u64 {
            m2.exec(Instr::Load((0x1000 + i * 4) << 12));
        }
        assert!(m1.ipc().unwrap() > m2.ipc().unwrap());
        assert!(m2.mpki().unwrap() > m1.mpki().unwrap());
    }

    #[test]
    fn reset_counters_clears_cpu_and_tlb() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        m.exec(Instr::Load(0x10_000));
        m.reset_counters();
        assert_eq!(m.stats().cycles, 0);
        assert_eq!(m.tlb_stats().accesses, 0);
    }

    #[test]
    fn itlb_translates_code_pages() {
        let mut m = MachineBuilder::new()
            .itlb(TlbDesign::Sa, TlbConfig::sa(8, 4).unwrap())
            .build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x10), 2).unwrap();
        m.os_mut().map_region(p, Vpn(0x500), 2).unwrap(); // code
        m.run(&[
            Instr::SetAsid(p),
            Instr::JumpTo(0x500_000),
            Instr::Compute(3),
            Instr::Compute(3),
        ]);
        let stats = m.itlb().expect("configured").stats();
        // One miss on the first fetch from the code page; subsequent
        // sequential fetches reuse the fetch latch and do not re-access
        // the I-TLB at all.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.accesses, 1);
    }

    #[test]
    fn jumping_between_code_pages_costs_itlb_misses() {
        let mut m = MachineBuilder::new()
            .itlb(TlbDesign::Sa, TlbConfig::single_entry())
            .build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x500), 2).unwrap();
        m.run(&[Instr::SetAsid(p)]);
        for _ in 0..3 {
            m.run(&[
                Instr::JumpTo(0x500_000),
                Instr::Compute(1),
                Instr::JumpTo(0x501_000),
                Instr::Compute(1),
            ]);
        }
        // A 1-entry I-TLB thrashes between the two code pages.
        assert!(m.itlb_misses() >= 5, "misses = {}", m.itlb_misses());
    }

    #[test]
    fn without_itlb_jumps_are_noops() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        let before = m.stats().cycles;
        m.exec(Instr::JumpTo(0x999_000));
        assert_eq!(m.stats().cycles - before, 1, "just the jump itself");
        assert_eq!(m.itlb_misses(), 0);
    }

    #[test]
    fn flush_all_reaches_the_itlb_and_the_fetch_latch() {
        let mut m = MachineBuilder::new()
            .itlb(TlbDesign::Sa, TlbConfig::sa(8, 4).unwrap())
            .build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x500), 1).unwrap();
        m.run(&[
            Instr::SetAsid(p),
            Instr::JumpTo(0x500_000),
            Instr::Compute(1),
        ]);
        assert!(m.itlb().expect("configured").probe(p, Vpn(0x500)));
        let misses = m.itlb_misses();
        m.run(&[Instr::FlushAll, Instr::Compute(1)]);
        assert!(!m.itlb().expect("configured").probe(p, Vpn(0x501)));
        // The post-flush fetch must re-miss: the latch cannot mask it.
        assert_eq!(m.itlb_misses(), misses + 1);
    }

    #[test]
    fn flush_page_reaches_the_itlb() {
        let mut m = MachineBuilder::new()
            .itlb(TlbDesign::Sa, TlbConfig::sa(8, 4).unwrap())
            .build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x500), 1).unwrap();
        m.run(&[
            Instr::SetAsid(p),
            Instr::JumpTo(0x500_000),
            Instr::Compute(1),
        ]);
        m.exec(Instr::FlushPage(0x500_000));
        assert!(
            !m.itlb().expect("configured").probe(p, Vpn(0x500)),
            "shootdowns must reach the instruction side"
        );
    }

    #[test]
    fn protect_victim_code_programs_the_itlb() {
        let mut m = MachineBuilder::new()
            .itlb(TlbDesign::Rf, TlbConfig::sa(32, 8).unwrap())
            .build();
        let p = m.os_mut().create_process();
        m.protect_victim_code(p, SecureRegion::new(Vpn(0x500), 3))
            .unwrap();
        m.run(&[
            Instr::SetAsid(p),
            Instr::JumpTo(0x500_000),
            Instr::Compute(1),
        ]);
        let stats = m.itlb().expect("configured").stats();
        assert_eq!(stats.no_fill_responses, 1, "secure code fetch randomized");
    }

    #[test]
    fn fs_design_times_like_the_flush_on_switch_policy() {
        // The hardware flush-on-switch design and the OS flush policy are
        // the same mitigation at different layers; their timing and miss
        // behavior must coincide. FT adds only replacement-state clearing,
        // which is timing-unobservable, so it matches too.
        fn build(design: TlbDesign, policy: FlushPolicy) -> Machine {
            let mut m = MachineBuilder::new()
                .design(design)
                .flush_policy(policy)
                .build();
            for _ in 0..2 {
                let p = m.os_mut().create_process();
                m.os_mut().map_region(p, Vpn(0x10), 8).unwrap();
            }
            m
        }
        let mut prog = Vec::new();
        for round in 0..6u64 {
            prog.push(Instr::SetAsid(Asid(1 + (round % 2) as u16)));
            for i in 0..8 {
                prog.push(Instr::Load((0x10 + i) << 12));
            }
        }
        let mut sa = build(TlbDesign::Sa, FlushPolicy::FlushOnSwitch);
        let mut fs = build(TlbDesign::Fs, FlushPolicy::None);
        let mut ft = build(TlbDesign::Ft, FlushPolicy::None);
        sa.run(&prog);
        fs.run(&prog);
        ft.run(&prog);
        assert_eq!(sa.stats().cycles, fs.stats().cycles);
        assert_eq!(sa.tlb_stats().misses, fs.tlb_stats().misses);
        assert_eq!(fs.stats().cycles, ft.stats().cycles);
        assert_eq!(fs.tlb_stats(), ft.tlb_stats());
    }

    #[test]
    fn ms_design_translates_all_three_page_sizes() {
        use sectlb_tlb::types::PageSize;
        let giga_base = PageSize::Giga.span_pages();
        let mut m = MachineBuilder::new().design(TlbDesign::Ms).build();
        let p = m.os_mut().create_process();
        m.os_mut().map_region(p, Vpn(0x10), 2).unwrap();
        m.os_mut().map_mega_page(p, Vpn(0x1000)).unwrap();
        m.os_mut().map_giga_page(p, Vpn(giga_base)).unwrap();
        m.exec(Instr::SetAsid(p));
        m.exec(Instr::Load(0x10_000));
        m.exec(Instr::Load(0x1000 << 12));
        m.exec(Instr::Load(giga_base << 12));
        assert_eq!(m.tlb_stats().misses, 3, "one cold miss per class");
        // Different base pages within the superpage spans hit the
        // resident superpage entries — the whole point of large pages.
        m.exec(Instr::Load((0x1000 + 511) << 12));
        m.exec(Instr::Load((giga_base + 0x3_0000) << 12));
        assert_eq!(m.tlb_stats().misses, 3, "superpage spans hit");
        assert_eq!(m.tlb().probe_level(1, p, Vpn(0x1000)), Some(true));
        assert_eq!(m.tlb().probe_level(2, p, Vpn(giga_base)), Some(true));
        assert_eq!(m.oracle_violations(), &[]);
    }

    #[test]
    fn extended_designs_roundtrip_names_and_keep_codes_stable() {
        for d in TlbDesign::EXTENDED {
            assert_eq!(TlbDesign::from_name(d.name()), Some(d));
        }
        assert_eq!(TlbDesign::from_name("FS"), Some(TlbDesign::Fs));
        assert_eq!(TlbDesign::from_name("nonsense"), None);
        // ALL is a stable prefix of EXTENDED — seed derivation and the
        // pinned goldens depend on these positions never moving.
        assert_eq!(&TlbDesign::EXTENDED[..3], &TlbDesign::ALL);
    }

    #[test]
    fn compute_bursts_retire_n_instructions() {
        let (mut m, _) = machine_with_process(TlbDesign::Sa);
        let before = m.stats().instret;
        m.exec(Instr::Compute(50));
        assert_eq!(m.stats().instret - before, 50);
    }
}
