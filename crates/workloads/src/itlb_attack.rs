//! An instruction-TLB Prime + Probe attack — the paper's Section 4 notes
//! its designs "can be applied to instruction TLBs as well"; this module
//! shows *why that matters*.
//!
//! The RSA victim's pointer swap is a distinct routine executed only when
//! the exponent bit is 1, so the *instruction fetch* from the swap
//! routine's code page is exactly as bit-dependent as the data access to
//! the pointer block. An attacker that primes and probes the I-TLB set of
//! that code page recovers the key even when the D-TLB is a fully
//! protected RF TLB — unless the I-TLB is protected too.

use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{Asid, Vpn};

use crate::attack::AttackOutcome;
use crate::rsa::{decrypt_traced, encrypt, RsaKey, RsaLayout};

/// Configuration of the I-TLB attack experiment.
#[derive(Debug, Clone, Copy)]
pub struct ItlbAttackSettings {
    /// The D-TLB design (protected RF by default — the point is that it
    /// does not matter).
    pub dtlb: TlbDesign,
    /// The I-TLB design.
    pub itlb: TlbDesign,
    /// Whether the OS programs the secure *code* region into the I-TLB.
    pub protect_code: bool,
    /// TLB geometry for both TLBs.
    pub config: TlbConfig,
    /// Machine seed.
    pub seed: u64,
}

impl Default for ItlbAttackSettings {
    fn default() -> ItlbAttackSettings {
        ItlbAttackSettings {
            dtlb: TlbDesign::Rf,
            itlb: TlbDesign::Sa,
            protect_code: false,
            config: TlbConfig::security_eval(),
            seed: 0x17b_a77,
        }
    }
}

/// Mounts the I-TLB Prime + Probe attack against one traced decryption.
pub fn itlb_prime_probe_attack(key: &RsaKey, settings: &ItlbAttackSettings) -> AttackOutcome {
    let layout = RsaLayout::new();
    let mut m = MachineBuilder::new()
        .design(settings.dtlb)
        .tlb_config(settings.config)
        .itlb(settings.itlb, settings.config)
        .seed(settings.seed)
        .build();
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut().map_page(victim, page).expect("fresh machine");
    }
    for page in layout.all_code_pages() {
        m.os_mut().map_page(victim, page).expect("fresh machine");
    }
    // The D-TLB is always fully protected in this experiment.
    m.protect_victim(victim, layout.secure_region())
        .expect("fresh machine");
    if settings.protect_code {
        m.protect_victim_code(victim, layout.secure_code_region())
            .expect("fresh machine");
    }
    // The attacker's eviction set of *code* pages covering the I-TLB set
    // of the pointer-swap routine.
    let sets = settings.config.sets() as u64;
    let signal_set = settings.config.set_of(layout.signal_code_page()) as u64;
    let primes: Vec<Vpn> = (0..settings.config.ways() as u64)
        .map(|i| Vpn(0x9000 + signal_set + i * sets))
        .collect();
    for &p in &primes {
        m.os_mut().map_page(attacker, p).expect("fresh machine");
    }

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
        design: settings.itlb,
    }
}

fn attack_window(
    m: &mut Machine,
    attacker: Asid,
    victim: Asid,
    primes: &[Vpn],
    window: &[Instr],
) -> bool {
    // Prime: execute from each eviction-set code page.
    m.exec(Instr::SetAsid(attacker));
    for &p in primes {
        m.exec(Instr::JumpTo(p.base_addr()));
        m.exec(Instr::Compute(1));
    }
    // Victim runs one square-and-multiply iteration (with its jumps).
    m.exec(Instr::SetAsid(victim));
    m.run_batch(window);
    // Probe: re-execute from the eviction set in *reverse* order (the
    // classic Prime + Probe trick: probing in prime order lets each
    // probe-miss refill evict the next page about to be probed, and the
    // perturbation carries into the following round as false positives).
    m.exec(Instr::SetAsid(attacker));
    let before = m.itlb_misses();
    for &p in primes.iter().rev() {
        m.exec(Instr::JumpTo(p.base_addr()));
        m.exec(Instr::Compute(1));
    }
    m.itlb_misses() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_dtlb_alone_does_not_stop_the_itlb_channel() {
        // D-TLB: fully protected RF. I-TLB: standard SA. The key leaks
        // through instruction fetches.
        let out = itlb_prime_probe_attack(&RsaKey::demo_128(), &ItlbAttackSettings::default());
        assert!(
            out.accuracy() > 0.95,
            "I-TLB Prime + Probe should succeed: {out}"
        );
    }

    #[test]
    fn rf_itlb_with_secure_code_region_defends() {
        let settings = ItlbAttackSettings {
            itlb: TlbDesign::Rf,
            protect_code: true,
            ..ItlbAttackSettings::default()
        };
        let out = itlb_prime_probe_attack(&RsaKey::demo_128(), &settings);
        assert!(
            out.accuracy() < 0.65,
            "protected RF I-TLB should break the attack: {out}"
        );
    }

    #[test]
    fn sp_itlb_defends_too() {
        let settings = ItlbAttackSettings {
            itlb: TlbDesign::Sp,
            protect_code: true,
            ..ItlbAttackSettings::default()
        };
        let out = itlb_prime_probe_attack(&RsaKey::demo_128(), &settings);
        assert!(out.accuracy() < 0.75, "{out}");
    }
}
