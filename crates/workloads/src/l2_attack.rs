//! The L2-TLB side of the hierarchy ("other levels of TLB", Section 4).
//!
//! The RF L1 never fills the victim's secure translations — but every
//! secure request still flows *through* the L2 on its way to the page
//! table, and a standard SA L2 caches it **deterministically**: after a
//! bit-1 iteration, the exponent-dependent page's translation sits in the
//! L2 as secret-dependent microarchitectural state
//! ([`secret_reaches_unprotected_l2`] asserts this). Interestingly, the
//! straightforward L2 Prime + Probe attack implemented here recovers only
//! a little above chance *in this configuration*: the RF L1 keeps the
//! victim's three secure pages resident (so bit-1 iterations rarely reach
//! the L2 at all) and its random-fill traffic adds set-0 noise — the L1
//! protection partially shields the L2 by accident. The deterministic L2
//! state nevertheless violates the "no secret-dependent state" criterion
//! and a stronger oracle (a shared-L2 reload, finer timing, or higher
//! L1 pressure) could exploit it; protecting the L2 with the RF design
//! removes the state itself.
//!
//! [`secret_reaches_unprotected_l2`]: fn.secret_reaches_unprotected_l2.html

use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{Asid, Vpn};

use crate::attack::AttackOutcome;
use crate::rsa::{decrypt_traced, encrypt, RsaKey, RsaLayout};

/// Configuration of the L2 attack experiment.
#[derive(Debug, Clone, Copy)]
pub struct L2AttackSettings {
    /// L2 design (the variable of the experiment; the L1 is always a
    /// fully protected RF TLB).
    pub l2: TlbDesign,
    /// L1 geometry (small, as L1s are).
    pub l1_config: TlbConfig,
    /// L2 geometry (larger).
    pub l2_config: TlbConfig,
    /// Machine seed.
    pub seed: u64,
}

impl Default for L2AttackSettings {
    fn default() -> L2AttackSettings {
        L2AttackSettings {
            l2: TlbDesign::Sa,
            l1_config: TlbConfig::sa(32, 8).expect("valid"),
            l2_config: TlbConfig::sa(128, 4).expect("valid"),
            seed: 0x12a77,
        }
    }
}

/// Checks whether the victim's secret page deterministically reaches the
/// L2 after a bit-1 iteration, with the L1 fully protected. Returns the
/// fraction of bit-1 windows after which the pointer-block translation was
/// resident in the L2.
///
/// This is the robust hierarchy-hazard statement: `1.0` for an SA L2
/// (secret-dependent state every time) versus well below `1.0` for an RF
/// L2 — there the requested page is only ever resident through random
/// fills (each secure L2 miss places one of the three region pages, so a
/// window with a couple of L2 misses leaves the page resident with
/// probability around `1 - (2/3)^k`).
pub fn secret_reaches_unprotected_l2(key: &RsaKey, settings: &L2AttackSettings) -> f64 {
    let layout = RsaLayout::new();
    let mut m = MachineBuilder::new()
        .design(TlbDesign::Rf)
        .tlb_config(settings.l1_config)
        .l2(settings.l2, settings.l2_config, 8)
        .seed(settings.seed)
        .build();
    let victim = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut().map_page(victim, page).expect("fresh machine");
    }
    m.protect_victim(victim, layout.secure_region())
        .expect("fresh machine");
    let ciphertext = encrypt(key, &[0x5eedu64]);
    let traced = decrypt_traced(key, &ciphertext, layout);
    let signal = layout.signal_page();
    let mut one_bits = 0u32;
    let mut resident_after = 0u32;
    m.exec(Instr::SetAsid(victim));
    for window in &traced.windows {
        // Shoot the signal page down between iterations so residency
        // reflects this window's activity alone.
        m.exec(Instr::FlushPage(signal.base_addr()));
        m.run_batch(traced.window_instrs(window));
        if window.bit {
            one_bits += 1;
            if m.tlb().probe_level(1, victim, signal).expect("hierarchy") {
                resident_after += 1;
            }
        }
    }
    f64::from(resident_after) / f64::from(one_bits.max(1))
}

/// Mounts the straightforward L2 Prime + Probe attack and scores the
/// recovered bits (see the module docs for why this particular oracle
/// stays near chance in this configuration).
pub fn l2_prime_probe_attack(key: &RsaKey, settings: &L2AttackSettings) -> AttackOutcome {
    let layout = RsaLayout::new();
    let mut m = MachineBuilder::new()
        .design(TlbDesign::Rf)
        .tlb_config(settings.l1_config)
        .l2(settings.l2, settings.l2_config, 8)
        .seed(settings.seed)
        .build();
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut().map_page(victim, page).expect("fresh machine");
    }
    // The L1 is always protected; set_* forwards to both levels, so the
    // L2 is protected exactly when it is an RF design.
    m.protect_victim(victim, layout.secure_region())
        .expect("fresh machine");

    let l1_sets = settings.l1_config.sets() as u64;
    let l2_sets = settings.l2_config.sets() as u64;
    let signal = layout.signal_page();
    let signal_l2_set = settings.l2_config.set_of(signal) as u64;
    // Eviction set: pages sharing the signal page's L2 set.
    let primes: Vec<Vpn> = (0..settings.l2_config.ways() as u64)
        .map(|i| Vpn(0xA000 + signal_l2_set + i * l2_sets))
        .collect();
    // L1 flushers: pages sharing the primes' L1 set but mapping *other*
    // L2 sets, so the attacker can push its primes out of its own L1 and
    // probe the L2 underneath.
    let prime_l1_set = settings.l1_config.set_of(primes[0]) as u64;
    let flushers: Vec<Vpn> = (1..=settings.l1_config.ways() as u64)
        .map(|i| Vpn(0xC000 + prime_l1_set + i * l1_sets * 2))
        .filter(|p| settings.l2_config.set_of(*p) as u64 != signal_l2_set)
        .collect();
    for &p in primes.iter().chain(&flushers) {
        m.os_mut().map_page(attacker, p).expect("fresh machine");
    }

    let ciphertext = encrypt(key, &[0x5eedu64]);
    let traced = decrypt_traced(key, &ciphertext, layout);
    let mut correct = 0;
    for window in &traced.windows {
        let instrs = traced.window_instrs(window);
        let guess = attack_window(&mut m, attacker, victim, &primes, &flushers, instrs);
        if guess == window.bit {
            correct += 1;
        }
    }
    AttackOutcome {
        correct,
        total: traced.windows.len(),
        design: settings.l2,
    }
}

fn l2_misses(m: &Machine) -> u64 {
    m.tlb().level_stats(1).expect("hierarchy configured").misses
}

fn attack_window(
    m: &mut Machine,
    attacker: Asid,
    victim: Asid,
    primes: &[Vpn],
    flushers: &[Vpn],
    window: &[Instr],
) -> bool {
    m.exec(Instr::SetAsid(attacker));
    // Prime the L2 set, then displace our own L1 copies so the probe
    // reaches the L2.
    for &p in primes {
        m.exec(Instr::Load(p.base_addr()));
    }
    for &f in flushers {
        m.exec(Instr::Load(f.base_addr()));
    }
    m.exec(Instr::SetAsid(victim));
    m.run_batch(window);
    m.exec(Instr::SetAsid(attacker));
    let before = l2_misses(m);
    for &p in primes.iter().rev() {
        m.exec(Instr::Load(p.base_addr()));
    }
    let hits_after = l2_misses(m);
    // Re-displace L1 for the next round happens naturally at next prime.
    hits_after > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_state_reaches_an_sa_l2_deterministically() {
        // The hazard: with a fully protected L1, every bit-1 iteration
        // still deposits the secret page's translation in an SA L2.
        let rate = secret_reaches_unprotected_l2(&RsaKey::demo_128(), &L2AttackSettings::default());
        assert!(
            rate > 0.95,
            "secret translation should reach the SA L2 every time, got {rate}"
        );
    }

    #[test]
    fn rf_l2_removes_the_deterministic_state() {
        let settings = L2AttackSettings {
            l2: TlbDesign::Rf,
            ..L2AttackSettings::default()
        };
        let rate = secret_reaches_unprotected_l2(&RsaKey::demo_128(), &settings);
        // Only lucky random fills can place the requested page; with a
        // couple of secure L2 misses per window the compound chance sits
        // around 1 - (2/3)^k — stochastic, never the SA L2's certainty.
        assert!(
            rate < 0.9,
            "RF L2 should only hold the page by chance, got {rate}"
        );
    }

    #[test]
    fn the_simple_l2_prime_probe_oracle_stays_near_chance() {
        // Documented negative result (module docs): the RF L1's residency
        // and random-fill noise shield this particular oracle.
        let out = l2_prime_probe_attack(&RsaKey::demo_128(), &L2AttackSettings::default());
        assert!(
            out.accuracy() < 0.8,
            "unexpectedly strong leak — update the module docs: {out}"
        );
    }

    #[test]
    fn rf_l2_also_keeps_the_oracle_at_chance() {
        let settings = L2AttackSettings {
            l2: TlbDesign::Rf,
            ..L2AttackSettings::default()
        };
        let out = l2_prime_probe_attack(&RsaKey::demo_128(), &settings);
        assert!(out.accuracy() < 0.8, "{out}");
    }

    #[test]
    fn sp_l2_also_keeps_the_oracle_at_chance() {
        let settings = L2AttackSettings {
            l2: TlbDesign::Sp,
            ..L2AttackSettings::default()
        };
        let out = l2_prime_probe_attack(&RsaKey::demo_128(), &settings);
        assert!(out.accuracy() < 0.8, "{out}");
    }
}
