//! The instruction-TLB attack experiment: protecting the D-TLB alone is
//! not enough when the victim has secret-dependent control flow
//! (Section 4's "can be applied to instruction TLBs as well", made
//! concrete).

use sectlb_bench::cli;
use sectlb_sim::machine::TlbDesign;
use sectlb_workloads::itlb_attack::{itlb_prime_probe_attack, ItlbAttackSettings};
use sectlb_workloads::rsa::RsaKey;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(&args, &[]);
    let key = RsaKey::demo_128();
    println!("I-TLB Prime + Probe on the pointer-swap routine's code page");
    println!("(D-TLB is a fully protected RF TLB in every configuration)\n");
    let cases = [
        ("SA I-TLB, unprotected", TlbDesign::Sa, false),
        ("SP I-TLB, victim partition", TlbDesign::Sp, true),
        ("RF I-TLB, secure code region", TlbDesign::Rf, true),
    ];
    for (label, itlb, protect_code) in cases {
        let settings = ItlbAttackSettings {
            itlb,
            protect_code,
            ..ItlbAttackSettings::default()
        };
        let out = itlb_prime_probe_attack(&key, &settings);
        println!(
            "  {label:<32} {:>5.1}% of key bits recovered",
            out.accuracy() * 100.0
        );
    }
    println!("\n(50% is chance level.) The secret-dependent pointer swap leaks");
    println!("through instruction fetches unless the I-TLB is secured too.");
}
