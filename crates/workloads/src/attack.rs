//! An end-to-end TLBleed-style Prime + Probe attack on the RSA victim.
//!
//! The TLBleed attack (Gras et al., USENIX Security 2018 — reference \[8\]
//! of the paper) recovers RSA exponent bits by priming the TLB set used
//! by the exponent-dependent page, letting one square-and-multiply
//! iteration run, and probing for misses. This module mounts exactly that
//! attack against the [`crate::rsa`] victim on each TLB design, using the
//! machine's TLB-miss counter as the timing oracle (as in Figure 6).

use sectlb_secbench::oracle::{armed_machine, OracleConfig};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{Asid, Vpn};

use crate::rsa::{decrypt_traced, encrypt, RsaKey, RsaLayout};

/// Result of one attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Bits guessed correctly.
    pub correct: usize,
    /// Total secret bits.
    pub total: usize,
    /// The design attacked.
    pub design: TlbDesign,
}

impl AttackOutcome {
    /// Fraction of exponent bits recovered.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.total as f64
    }
}

impl std::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} TLB: {}/{} bits ({:.1}%)",
            self.design,
            self.correct,
            self.total,
            self.accuracy() * 100.0
        )
    }
}

/// Attack configuration.
#[derive(Debug, Clone, Copy)]
pub struct AttackSettings {
    /// TLB geometry (defaults to the paper's 8-way 32-entry setup).
    pub config: TlbConfig,
    /// Whether the OS enables the secure-TLB protections for the victim
    /// (the SecRSA configuration). With `false`, SP and RF fall back to
    /// unprotected behavior.
    pub protections_enabled: bool,
    /// Map the victim's data on a single 2 MiB megapage instead of 4 KiB
    /// pages — the "large pages for the crypto library" software defense
    /// of Section 2.3. All buffers then share one translation, removing
    /// the page-granular signal.
    pub large_pages: bool,
    /// RFE / machine seed.
    pub seed: u64,
    /// Shadow-oracle guardrails: when the configuration arms `seed`, the
    /// oracle runs in lockstep under the context `tag|design|seed` and
    /// the seed's planned corruption (`--inject-corruption`) is
    /// scheduled. `None` leaves the machine at its build-profile default
    /// with no reporting context, so the attack behaves exactly as
    /// before.
    pub oracle: Option<OracleConfig>,
}

impl Default for AttackSettings {
    fn default() -> AttackSettings {
        AttackSettings {
            config: TlbConfig::security_eval(),
            protections_enabled: true,
            large_pages: false,
            seed: 0xa77ac4,
            oracle: None,
        }
    }
}

fn prime_pages(base: Vpn, sets: u64, count: usize) -> Vec<Vpn> {
    (0..count as u64).map(|i| base.offset(i * sets)).collect()
}

/// Mounts the Prime + Probe attack against one decryption and scores the
/// recovered bits against the true key.
pub fn prime_probe_attack(
    key: &RsaKey,
    design: TlbDesign,
    settings: &AttackSettings,
) -> AttackOutcome {
    let layout = RsaLayout::new();
    let builder = MachineBuilder::new()
        .design(design)
        .tlb_config(settings.config)
        .seed(settings.seed);
    let mut m = match settings.oracle.filter(|o| o.armed(settings.seed)) {
        Some(o) => armed_machine(builder, &o, format_args!("{design}"), settings.seed),
        None => builder.build(),
    };
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    if settings.large_pages {
        // One 2 MiB mapping covers every RSA buffer (the layout spans
        // pages 0x400..0x40f, inside the megapage at 0x400).
        m.os_mut()
            .map_mega_page(
                victim,
                sectlb_tlb::types::PageSize::Mega.align(layout.signal_page()),
            )
            .expect("fresh machine");
    } else {
        for page in layout.all_pages() {
            m.os_mut().map_page(victim, page).expect("fresh machine");
        }
    }
    if settings.protections_enabled {
        m.protect_victim(victim, layout.secure_region())
            .expect("fresh machine");
    }
    // The attacker's eviction set: pages of its own that map to the
    // signal page's TLB set. Enough to fill every way the attacker can
    // occupy.
    let sets = settings.config.sets() as u64;
    let signal_set = settings.config.set_of(layout.signal_page()) as u64;
    let attacker_base = Vpn(0x8000 + signal_set);
    let primes = prime_pages(attacker_base, sets, settings.config.ways());
    for &p in &primes {
        m.os_mut().map_page(attacker, p).expect("fresh machine");
    }

    // Trace one decryption of an arbitrary ciphertext into per-bit
    // windows.
    let ciphertext = encrypt(key, &[0x5eedu64]);
    let traced = decrypt_traced(key, &ciphertext, layout);

    let mut correct = 0;
    for window in &traced.windows {
        let instrs = traced.window_instrs(window);
        let guess = attack_window(&mut m, attacker, victim, &primes, instrs);
        if guess == window.bit {
            correct += 1;
        }
    }
    AttackOutcome {
        correct,
        total: traced.windows.len(),
        design,
    }
}

/// One prime → victim-iteration → probe round; returns the bit guess.
fn attack_window(
    m: &mut Machine,
    attacker: Asid,
    victim: Asid,
    primes: &[Vpn],
    window: &[Instr],
) -> bool {
    // Prime.
    m.exec(Instr::SetAsid(attacker));
    for &p in primes {
        m.exec(Instr::Load(p.base_addr()));
    }
    // Victim executes one square-and-multiply iteration.
    m.exec(Instr::SetAsid(victim));
    for &i in window {
        m.exec(i);
    }
    // Probe in reverse order (avoids the probe-refill cascade that would
    // otherwise perturb the primed set into the next round).
    m.exec(Instr::SetAsid(attacker));
    let before = m.tlb_misses();
    for &p in primes.iter().rev() {
        m.exec(Instr::Load(p.base_addr()));
    }
    m.tlb_misses() > before
}

/// Runs the attack on all three designs (convenience for examples and the
/// `attack_success` bench binary).
pub fn attack_all_designs(key: &RsaKey, settings: &AttackSettings) -> Vec<AttackOutcome> {
    TlbDesign::ALL
        .iter()
        .map(|&d| prime_probe_attack(key, d, settings))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> AttackSettings {
        AttackSettings::default()
    }

    #[test]
    fn sa_tlb_leaks_the_key() {
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Sa, &settings());
        assert!(
            out.accuracy() > 0.95,
            "TLBleed should succeed on the SA TLB: {out}"
        );
    }

    #[test]
    fn sp_tlb_defeats_the_attack() {
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Sp, &settings());
        assert!(
            out.accuracy() < 0.75,
            "partitioning should break the attack: {out}"
        );
    }

    #[test]
    fn rf_tlb_defeats_the_attack() {
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Rf, &settings());
        assert!(
            out.accuracy() < 0.75,
            "random filling should break the attack: {out}"
        );
    }

    #[test]
    fn unprotected_rf_behaves_like_sa_and_leaks() {
        // The RF TLB's protection is the programmed secure region; without
        // it the design degenerates to the SA TLB and TLBleed succeeds.
        let mut s = settings();
        s.protections_enabled = false;
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Rf, &s);
        assert!(
            out.accuracy() > 0.95,
            "without a secure region RF behaves like SA: {out}"
        );
    }

    #[test]
    fn unconfigured_sp_still_partitions() {
        // The SP partition is fixed at design time: with no designated
        // victim, every process shares the attacker partition, and this
        // particular 8-page eviction set thrashes rather than leaks.
        let mut s = settings();
        s.protections_enabled = false;
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Sp, &s);
        assert!(out.total > 0);
    }

    #[test]
    fn large_pages_defend_even_the_sa_tlb() {
        // Section 2.3: "Using large pages for the crypto libraries can
        // also be one possible software defense." With all RSA buffers on
        // one 2 MiB translation there is no page-granular signal left.
        let s = AttackSettings {
            protections_enabled: false,
            large_pages: true,
            ..settings()
        };
        let out = prime_probe_attack(&RsaKey::demo_128(), TlbDesign::Sa, &s);
        assert!(
            out.accuracy() < 0.7,
            "large pages should break the page-granular attack: {out}"
        );
    }

    #[test]
    fn outcome_accuracy_math() {
        let o = AttackOutcome {
            correct: 3,
            total: 4,
            design: TlbDesign::Sa,
        };
        assert_eq!(o.accuracy(), 0.75);
        assert!(o.to_string().contains("3/4"));
    }
}
