//! The two-level hierarchy experiment ("other levels of TLB", Section 4):
//! with a fully protected RF L1, does secret-dependent state still reach
//! the L2?

use sectlb_bench::cli;
use sectlb_sim::machine::TlbDesign;
use sectlb_workloads::l2_attack::{
    l2_prime_probe_attack, secret_reaches_unprotected_l2, L2AttackSettings,
};
use sectlb_workloads::rsa::RsaKey;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(&args, &[]);
    let key = RsaKey::demo_128();
    println!("L1 = fully protected RF TLB (32-entry); L2 = 128-entry, varying design\n");
    println!(
        "{:<10} {:>34} {:>26}",
        "L2 design", "P(secret page in L2 | bit = 1)", "simple L2 P+P accuracy"
    );
    for l2 in TlbDesign::ALL {
        let settings = L2AttackSettings {
            l2,
            ..L2AttackSettings::default()
        };
        let rate = secret_reaches_unprotected_l2(&key, &settings);
        let attack = l2_prime_probe_attack(&key, &settings);
        println!(
            "{:<10} {:>34.2} {:>25.1}%",
            l2.name(),
            rate,
            attack.accuracy() * 100.0
        );
    }
    println!("\nAn SA L2 holds the secret translation after *every* bit-1");
    println!("iteration — deterministic secret-dependent state, even though");
    println!("this simple Prime+Probe oracle happens to stay near chance (the");
    println!("RF L1's residency and random-fill noise shield it). Applying the");
    println!("RF design at the L2 as well makes the state itself stochastic.");
}
