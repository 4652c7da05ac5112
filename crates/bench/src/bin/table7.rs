//! Regenerates Table 7: the additional vulnerability types available when
//! targeted TLB invalidation exists (Appendix B).

use sectlb_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown_flags(&args, &[]);
    println!("{}", sectlb_model::render::render_table6());
    println!("{}", sectlb_model::render::render_table7());
    let base = sectlb_model::enumerate_vulnerabilities().len();
    let all = sectlb_model::extended::enumerate_extended().len();
    println!(
        "extended model: {base} base rows + {} invalidation rows",
        all - base
    );
}
