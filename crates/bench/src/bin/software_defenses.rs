//! Software defenses from Section 2.3 against the end-to-end TLBleed
//! attack: large pages for the crypto library, and flush-on-switch — next
//! to the paper's hardware designs.

use sectlb_bench::cli;
use sectlb_sim::machine::TlbDesign;
use sectlb_workloads::attack::{prime_probe_attack, AttackSettings};
use sectlb_workloads::rsa::RsaKey;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(&args, &[]);
    let key = RsaKey::demo_128();
    println!(
        "End-to-end TLBleed outcome under each defense ({}-bit key):\n",
        key.secret_bits().len()
    );
    let cases: [(&str, TlbDesign, AttackSettings); 4] = [
        (
            "SA TLB, 4 KiB pages (no defense)",
            TlbDesign::Sa,
            AttackSettings {
                protections_enabled: false,
                ..AttackSettings::default()
            },
        ),
        (
            "SA TLB + 2 MiB crypto pages (software)",
            TlbDesign::Sa,
            AttackSettings {
                protections_enabled: false,
                large_pages: true,
                ..AttackSettings::default()
            },
        ),
        (
            "SP TLB (hardware)",
            TlbDesign::Sp,
            AttackSettings::default(),
        ),
        (
            "RF TLB (hardware)",
            TlbDesign::Rf,
            AttackSettings::default(),
        ),
    ];
    for (label, design, settings) in cases {
        let out = prime_probe_attack(&key, design, &settings);
        println!(
            "  {label:<42} {:>5.1}% bits recovered",
            out.accuracy() * 100.0
        );
    }
    println!("\nLarge pages collapse all crypto buffers onto one translation,");
    println!("removing the page-granular signal — but only for that library;");
    println!("the hardware designs protect arbitrary victims.");
}
