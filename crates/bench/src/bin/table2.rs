//! Regenerates Table 2: the 24 TLB timing-based vulnerability types,
//! derived from the full 1000-pattern enumeration.

use sectlb_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(&args, &[]);
    println!("{}", sectlb_model::render::render_table1());
    println!("{}", sectlb_model::render::render_table2());
    let vulns = sectlb_model::enumerate_vulnerabilities();
    let known = vulns.iter().filter(|v| v.known_attack.is_some()).count();
    println!(
        "{} structural candidates before the rule-(7) information analysis",
        sectlb_model::enumerate::structural_candidate_count()
    );
    println!(
        "{known} types map to previously published attacks; {} are new (paper: 8 and 16)",
        vulns.len() - known
    );
}
