//! Benchmark specifications: how a three-step vulnerability becomes a
//! concrete experiment.
//!
//! Section 5.3 of the paper fixes the security-evaluation setup: an
//! 8-way, 32-entry (4-set) TLB; a victim with either 3 secure pages (out
//! of 6 contiguous) or 31 contiguous secure pages ("to simulate contention
//! between secure address translations"); and 500 trials each with the
//! victim's secret address *mapped* / *not mapped* to the tested TLB
//! block. This module derives, from a [`Vulnerability`], the address
//! layout and the phase plan of the corresponding micro benchmark.

use sectlb_model::state::{Actor, State};
use sectlb_model::{Strategy, Vulnerability};
use sectlb_sim::machine::TlbDesign;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{SecureRegion, Vpn};

/// Whether the victim's secret address is placed to collide with the
/// tested block ("mapped") or not — the two behaviors of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The secret address maps to the tested block (same page for
    /// hit-based rows, same set for miss-based rows).
    Mapped,
    /// The secret address maps elsewhere.
    NotMapped,
}

impl Placement {
    /// Both placements, in the order a trial runs them.
    pub const BOTH: [Placement; 2] = [Placement::Mapped, Placement::NotMapped];
}

/// The page classes a non-`u` step can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Known pages outside the security-critical range (`d`).
    OutsideRange,
    /// Known pages inside the security-critical range (`a`).
    InsideRange,
}

/// One step of the benchmark, lowered from the pattern state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOp {
    /// Whole-TLB flush by the actor (the `inv` states).
    FlushAll(Actor),
    /// A single access to one page.
    AccessOnce(Actor, Vpn),
    /// The victim accesses its secret address `u` this many times (the
    /// "select data access" loop of Figure 6; repetition lets random
    /// fills reach steady state on the RF TLB). The concrete page is
    /// substituted at generation time from the trial's [`Placement`].
    AccessSecret(usize),
    /// Fill the actor's entire way allocation of the tested set with
    /// `pages` (eviction steps).
    Evict(Actor, Vec<Vpn>),
    /// Prime the tested set: touch the actor's resident filler page, fill
    /// the remaining ways with `pages`, then re-touch the filler so the
    /// first primed page is the LRU choice.
    Prime(Actor, Vpn, Vec<Vpn>),
    /// Re-access previously primed `pages`, timing the misses.
    Probe(Actor, Vec<Vpn>),
}

/// A fully resolved benchmark: layout plus the three phase plans.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// The vulnerability under test.
    pub vulnerability: Vulnerability,
    /// TLB geometry (the paper's 8-way 32-entry security setup).
    pub config: TlbConfig,
    /// The victim's secure region (3 or 31 pages per Section 5.3.1).
    pub region: SecureRegion,
    /// The known in-range address `a`.
    pub a: Vpn,
    /// The alias of `a` (same set, different page, in range).
    pub a_alias: Vpn,
    /// The secret address for mapped trials.
    pub u_mapped: Vpn,
    /// The secret address for not-mapped trials.
    pub u_not_mapped: Vpn,
    /// Base of the out-of-range conflict pages (`d`).
    pub dbase: Vpn,
    /// Per-actor resident filler page (models the actor's own code/stack
    /// page that keeps primed sets full, standing in for the paper's
    /// system-reserved entries).
    pub filler: Vpn,
    /// Repetitions for leading `V_u` phases.
    pub vu_reps: usize,
    /// The three phase plans.
    pub steps: [StepOp; 3],
}

/// First secure page. Set-index bits are zero, so the region starts in
/// set 0 — the tested set.
pub const SBASE: Vpn = Vpn(0x100);
/// Base of the out-of-range `d` pages (set 0 aligned).
pub const DBASE: Vpn = Vpn(0x200);
/// Per-actor filler page (set 0 aligned).
pub const FILLER: Vpn = Vpn(0x300);
/// Default repetitions of leading `V_u` phases.
pub const VU_REPS: usize = 150;

impl BenchmarkSpec {
    /// Builds the benchmark for `vulnerability` on `design`, using the
    /// paper's security-evaluation geometry.
    ///
    /// The plan is design-aware in exactly one respect, mirroring the
    /// paper's per-TLB benchmark generation: priming and eviction use as
    /// many pages as the acting process can actually keep resident in the
    /// tested set (all ways on SA/RF; the actor's partition on SP).
    pub fn build(vulnerability: &Vulnerability, design: TlbDesign) -> BenchmarkSpec {
        BenchmarkSpec::build_with_config(vulnerability, design, TlbConfig::security_eval())
    }

    /// [`BenchmarkSpec::build`] with an explicit TLB geometry.
    pub fn build_with_config(
        vulnerability: &Vulnerability,
        design: TlbDesign,
        config: TlbConfig,
    ) -> BenchmarkSpec {
        let p = vulnerability.pattern;
        // Section 5.3.1: patterns exercising the known in-range address in
        // steps 1 or 2 use the 31-page contention layout; the rest use 3
        // secure pages.
        let contention = [p.s1, p.s2]
            .iter()
            .any(|s| matches!(s, State::KnownA(_) | State::KnownAlias(_)));
        let sec_pages: u64 = if contention { 31 } else { 3 };
        let region = SecureRegion::new(SBASE, sec_pages);
        let sets = config.sets() as u64;
        let a = SBASE;
        let a_alias = SBASE.offset(sets); // same set, next page group
        let hit_based = vulnerability.macro_type.hit_based();
        let u_mapped = if hit_based { a } else { SBASE };
        let u_not_mapped = SBASE.offset(1); // next set, still in range
        let builder = PlanBuilder {
            design,
            config,
            a,
            a_alias,
            dbase: DBASE,
            filler: FILLER,
            vu_reps: VU_REPS,
        };
        let steps = builder.plan(vulnerability);
        BenchmarkSpec {
            vulnerability: *vulnerability,
            config,
            region,
            a,
            a_alias,
            u_mapped,
            u_not_mapped,
            dbase: DBASE,
            filler: FILLER,
            vu_reps: VU_REPS,
            steps,
        }
    }

    /// The secret address for a placement.
    pub fn u_for(&self, placement: Placement) -> Vpn {
        match placement {
            Placement::Mapped => self.u_mapped,
            Placement::NotMapped => self.u_not_mapped,
        }
    }
}

struct PlanBuilder {
    design: TlbDesign,
    config: TlbConfig,
    a: Vpn,
    a_alias: Vpn,
    dbase: Vpn,
    filler: Vpn,
    vu_reps: usize,
}

impl PlanBuilder {
    /// Ways of the tested set the actor can occupy on this design.
    fn actor_ways(&self, actor: Actor) -> usize {
        match self.design {
            // FS/FT are the SA array plus a switch-time clear, and MS's
            // base class carries the full evaluation geometry: an actor
            // can occupy every way on all of them.
            TlbDesign::Sa | TlbDesign::Rf | TlbDesign::Fs | TlbDesign::Ft | TlbDesign::Ms => {
                self.config.ways()
            }
            TlbDesign::Sp => {
                let victim_ways = self.config.ways() / 2;
                match actor {
                    Actor::Victim => victim_ways,
                    Actor::Attacker => self.config.ways() - victim_ways,
                }
            }
        }
    }

    /// `count` tested-set pages of the class. In-range pages step by the
    /// set count (staying in the tested set) starting after `a`, so they
    /// never collide with the mapped secret. On a single-set TLB the
    /// not-mapped secret (`a + 1`) would land in the pool too, creating a
    /// spurious address-level asymmetry between the two placements — the
    /// pool starts one page later there, keeping both placements outside
    /// it (this is why miss-based attacks carry no information on FA
    /// TLBs, Section 2.3). Out-of-range pages start at `dbase`.
    fn pages(&self, class: PageClass, count: usize) -> Vec<Vpn> {
        let sets = self.config.sets() as u64;
        let base = match class {
            PageClass::OutsideRange => self.dbase,
            PageClass::InsideRange if sets == 1 => self.a.offset(2),
            PageClass::InsideRange => self.a.offset(sets),
        };
        (0..count as u64).map(|i| base.offset(i * sets)).collect()
    }

    fn evict(&self, actor: Actor, class: PageClass) -> StepOp {
        StepOp::Evict(actor, self.pages(class, self.actor_ways(actor)))
    }

    fn prime(&self, actor: Actor, class: PageClass) -> (StepOp, Vec<Vpn>) {
        let pages = self.pages(class, self.actor_ways(actor) - 1);
        (StepOp::Prime(actor, self.filler, pages.clone()), pages)
    }

    fn class_of(state: State) -> PageClass {
        match state {
            State::KnownA(_) | State::KnownAlias(_) => PageClass::InsideRange,
            _ => PageClass::OutsideRange,
        }
    }

    fn plan(&self, v: &Vulnerability) -> [StepOp; 3] {
        use Strategy::*;
        let p = v.pattern;
        let actor = |s: State| s.actor().expect("patterns have no *");
        match v.strategy {
            InternalCollision | FlushReload => {
                let s1 = match p.s1 {
                    State::Inv(x) => StepOp::FlushAll(x),
                    State::KnownAlias(x) => StepOp::AccessOnce(x, self.a_alias),
                    State::KnownD(x) => self.evict(x, PageClass::OutsideRange),
                    other => unreachable!("collision step 1 is inv/d/alias, got {other}"),
                };
                [
                    s1,
                    StepOp::AccessSecret(1),
                    StepOp::AccessOnce(actor(p.s3), self.a),
                ]
            }
            EvictTime => [
                StepOp::AccessSecret(self.vu_reps),
                self.evict(actor(p.s2), Self::class_of(p.s2)),
                StepOp::AccessSecret(1),
            ],
            Bernstein if p.s1 == State::Vu => [
                StepOp::AccessSecret(self.vu_reps),
                self.evict(actor(p.s2), Self::class_of(p.s2)),
                StepOp::AccessSecret(1),
            ],
            PrimeProbe | EvictProbe | PrimeTime | Bernstein => {
                let class = Self::class_of(p.s1);
                let (prime, pages) = self.prime(actor(p.s1), class);
                [
                    prime,
                    StepOp::AccessSecret(1),
                    StepOp::Probe(actor(p.s3), pages),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_model::enumerate_vulnerabilities;

    fn find(s1: &str, s3: &str) -> Vulnerability {
        *enumerate_vulnerabilities()
            .iter()
            .find(|v| v.pattern.s1.to_string() == s1 && v.pattern.s3.to_string() == s3)
            .unwrap_or_else(|| panic!("no row {s1} ~> ... ~> {s3}"))
    }

    #[test]
    fn contention_layout_selected_for_a_rows() {
        let pp_a = find("A_a", "A_a");
        let spec = BenchmarkSpec::build(&pp_a, TlbDesign::Sa);
        assert_eq!(spec.region.pages, 31);
        let pp_d = find("A_d", "A_d");
        let spec = BenchmarkSpec::build(&pp_d, TlbDesign::Sa);
        assert_eq!(spec.region.pages, 3);
    }

    #[test]
    fn hit_based_mapped_secret_equals_a() {
        let ic = find("A_d", "V_a");
        let spec = BenchmarkSpec::build(&ic, TlbDesign::Sa);
        assert_eq!(spec.u_mapped, spec.a);
        assert_ne!(spec.u_not_mapped, spec.a);
    }

    #[test]
    fn mapped_and_not_mapped_secrets_are_in_the_region() {
        for v in enumerate_vulnerabilities() {
            let spec = BenchmarkSpec::build(&v, TlbDesign::Rf);
            assert!(spec.region.contains(spec.u_mapped), "{v}");
            assert!(spec.region.contains(spec.u_not_mapped), "{v}");
        }
    }

    #[test]
    fn mapped_secret_is_in_tested_set_and_unmapped_is_not() {
        for v in enumerate_vulnerabilities() {
            let spec = BenchmarkSpec::build(&v, TlbDesign::Sa);
            assert_eq!(spec.config.set_of(spec.u_mapped), 0, "{v}");
            assert_ne!(spec.config.set_of(spec.u_not_mapped), 0, "{v}");
        }
    }

    #[test]
    fn prime_counts_respect_sp_partitions() {
        let pp = find("A_d", "A_d");
        let sa = BenchmarkSpec::build(&pp, TlbDesign::Sa);
        let sp = BenchmarkSpec::build(&pp, TlbDesign::Sp);
        let prime_len = |s: &BenchmarkSpec| match &s.steps[0] {
            StepOp::Prime(_, _, pages) => pages.len(),
            other => panic!("expected a prime step, got {other:?}"),
        };
        assert_eq!(prime_len(&sa), 7, "SA: ways - 1 (filler keeps set full)");
        assert_eq!(prime_len(&sp), 3, "SP attacker: partition ways - 1");
    }

    #[test]
    fn in_range_prime_pages_avoid_the_mapped_secret() {
        let bern = find("V_a", "V_a");
        let spec = BenchmarkSpec::build(&bern, TlbDesign::Sa);
        let StepOp::Prime(_, _, pages) = &spec.steps[0] else {
            panic!("expected prime");
        };
        for p in pages {
            assert_ne!(*p, spec.u_mapped, "prime page collides with secret");
            assert!(spec.region.contains(*p), "in-range prime outside region");
            assert_eq!(spec.config.set_of(*p), 0, "prime must hit tested set");
        }
    }

    #[test]
    fn evict_steps_cover_all_actor_ways() {
        let et = find("V_u", "V_u");
        let spec = BenchmarkSpec::build(&et, TlbDesign::Sa);
        let StepOp::Evict(_, pages) = &spec.steps[1] else {
            panic!("expected evict in step 2");
        };
        assert_eq!(pages.len(), 8);
        let sp_spec = BenchmarkSpec::build(&et, TlbDesign::Sp);
        let StepOp::Evict(_, pages) = &sp_spec.steps[1] else {
            panic!("expected evict");
        };
        assert_eq!(pages.len(), 4, "SP attacker partition");
    }

    #[test]
    fn every_row_builds_on_every_design() {
        for v in enumerate_vulnerabilities() {
            for d in TlbDesign::ALL {
                let spec = BenchmarkSpec::build(&v, d);
                assert_eq!(spec.steps.len(), 3, "{v} on {d}");
            }
        }
    }

    #[test]
    fn flush_steps_lower_to_flush_all() {
        let ic = find("A_inv", "V_a");
        let spec = BenchmarkSpec::build(&ic, TlbDesign::Sa);
        assert_eq!(spec.steps[0], StepOp::FlushAll(Actor::Attacker));
    }

    #[test]
    fn alias_step_accesses_the_alias_page() {
        let ic = find("V_aalias", "V_a");
        let spec = BenchmarkSpec::build(&ic, TlbDesign::Sa);
        assert_eq!(
            spec.steps[0],
            StepOp::AccessOnce(Actor::Victim, spec.a_alias)
        );
        assert_eq!(spec.config.set_of(spec.a_alias), 0, "alias shares the set");
        assert_ne!(spec.a_alias, spec.a);
    }
}
