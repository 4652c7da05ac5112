//! The Figure 7 performance-evaluation machinery (Section 6.2).
//!
//! Workloads: the RSA decryption routine run `runs` times in series,
//! optionally with the secure-TLB protections enabled (*SecRSA*), alone or
//! co-scheduled with one of the four TLB-intensive SPEC-like benchmarks.
//! Metrics: IPC and TLB misses per kilo-instruction (MPKI), collected from
//! the machine's cycle / instruction / TLB-miss counters.

use sectlb_secbench::oracle::{armed_machine, OracleConfig};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_sim::sched::{run_sources, Cycled};
use sectlb_tlb::config::{ConfigError, TlbConfig};
use sectlb_tlb::types::Vpn;
use sectlb_workloads::rsa::{decrypt_traced, encrypt, RsaKey, RsaLayout};
use sectlb_workloads::spec_like::SpecBenchmark;

/// A Figure 7 workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Whether the secure-TLB protections are programmed for the RSA
    /// process (the *SecRSA* configurations).
    pub secure: bool,
    /// The SPEC-like co-runner, if any.
    pub co_runner: Option<SpecBenchmark>,
}

impl Workload {
    /// The ten workload groups of Figure 7, in figure order: RSA and
    /// SecRSA, each alone and with the four SPEC benchmarks.
    pub fn all() -> Vec<Workload> {
        let mut out = Vec::new();
        for secure in [false, true] {
            out.push(Workload {
                secure,
                co_runner: None,
            });
            for b in SpecBenchmark::ALL {
                out.push(Workload {
                    secure,
                    co_runner: Some(b),
                });
            }
        }
        out
    }

    /// The label used in the figure (`RSA`, `SecRSA`, `RSA+povray`, …).
    pub fn label(&self) -> String {
        let base = if self.secure { "SecRSA" } else { "RSA" };
        match self.co_runner {
            None => base.to_owned(),
            Some(b) => format!("{base}+{}", b.name().split('.').nth(1).unwrap_or("spec")),
        }
    }
}

/// Why a Figure 7 cell could not be measured.
///
/// The perf layer never panics on bad input: a rejected address-space
/// setup or an empty run surfaces here, and the drivers exit
/// [`crate::exit::EXIT_SETUP`] with the message instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// The OS rejected the workload's address-space setup (mapping the
    /// RSA layout, the co-runner's region, or the victim protection).
    Setup(String),
    /// The run retired no instructions, so IPC and MPKI are undefined.
    NoInstructions,
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Setup(msg) => write!(f, "workload setup rejected: {msg}"),
            PerfError::NoInstructions => {
                write!(f, "run retired no instructions; IPC/MPKI undefined")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl From<ConfigError> for PerfError {
    fn from(e: ConfigError) -> PerfError {
        PerfError::Setup(e.to_string())
    }
}

/// One measured cell of Figure 7.
#[derive(Debug, Clone, Copy)]
pub struct PerfCell {
    /// The TLB design.
    pub design: TlbDesign,
    /// The TLB geometry.
    pub config: TlbConfig,
    /// The workload.
    pub workload: Workload,
    /// Decryption repetitions (50 / 100 / 150 in the paper).
    pub runs: usize,
    /// Instructions per cycle.
    pub ipc: f64,
    /// TLB misses per kilo-instruction.
    pub mpki: f64,
}

/// Runs one Figure 7 cell.
pub fn run_cell(
    design: TlbDesign,
    config: TlbConfig,
    workload: Workload,
    runs: usize,
) -> Result<PerfCell, PerfError> {
    run_cell_with(design, config, workload, runs, |b| b)
}

/// [`run_cell`] with a hook customizing the machine (ablation studies).
pub fn run_cell_with(
    design: TlbDesign,
    config: TlbConfig,
    workload: Workload,
    runs: usize,
    customize: impl FnOnce(MachineBuilder) -> MachineBuilder,
) -> Result<PerfCell, PerfError> {
    run_cell_oracle(design, config, workload, runs, None, customize)
}

/// [`run_cell_with`] with the shadow oracle optionally armed.
///
/// With `Some(config)` whose roll arms this cell, the machine runs the
/// lockstep reference model and reports violations under the context
/// `tag|design|geometry|workload x runs|seed`, so the `fig7` driver can
/// render the affected cells SUSPECT. `None` (and unarmed cells) build
/// the machine exactly as before — the measured IPC and MPKI never
/// change either way, because the oracle is a read-only observer.
pub fn run_cell_oracle(
    design: TlbDesign,
    config: TlbConfig,
    workload: Workload,
    runs: usize,
    oracle: Option<OracleConfig>,
    customize: impl FnOnce(MachineBuilder) -> MachineBuilder,
) -> Result<PerfCell, PerfError> {
    let m = cell_machine(design, config, workload, runs, oracle, customize)?;
    Ok(PerfCell {
        design,
        config,
        workload,
        runs,
        ipc: m.ipc().ok_or(PerfError::NoInstructions)?,
        mpki: m.mpki().ok_or(PerfError::NoInstructions)?,
    })
}

/// Sets up and runs one cell as [`run_cell_oracle`] does, and returns
/// the machine with its counters.
///
/// The RSA process replays one decryption's trace `runs` times, and a
/// co-runner's instructions are generated as they are scheduled, so the
/// run holds one trace and one scheduling slice whatever `runs` is.
pub fn cell_machine(
    design: TlbDesign,
    config: TlbConfig,
    workload: Workload,
    runs: usize,
    oracle: Option<OracleConfig>,
    customize: impl FnOnce(MachineBuilder) -> MachineBuilder,
) -> Result<Machine, PerfError> {
    let key = RsaKey::demo_128();
    let layout = RsaLayout::new();
    let seed = 0xf167 ^ runs as u64;
    let builder = customize(
        MachineBuilder::new()
            .design(design)
            .tlb_config(config)
            .seed(seed),
    );
    let mut m = match oracle.filter(|o| o.armed(seed)) {
        Some(o) => armed_machine(
            builder,
            &o,
            format_args!("{design}|{}|{} x{runs}", config.label(), workload.label()),
            seed,
        ),
        None => builder.build(),
    };
    let rsa_asid = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut()
            .map_page(rsa_asid, page)
            .map_err(|e| PerfError::Setup(format!("mapping RSA page {page:?}: {e}")))?;
    }
    if workload.secure {
        m.protect_victim(rsa_asid, layout.secure_region())
            .map_err(|e| PerfError::Setup(format!("protecting the RSA secure region: {e}")))?;
    }
    let ciphertext = encrypt(&key, &[0xfeedu64]);
    let trace = decrypt_traced(&key, &ciphertext, layout).instrs;

    match workload.co_runner {
        None => {
            m.exec(Instr::SetAsid(rsa_asid));
            for _ in 0..runs {
                m.run(&trace);
            }
        }
        Some(bench) => {
            let spec_asid = m.os_mut().create_process();
            let spec_base = Vpn(0x10_000);
            m.os_mut()
                .map_region(spec_asid, spec_base, bench.footprint_pages())
                .map_err(|e| {
                    PerfError::Setup(format!(
                        "mapping the {} co-runner region: {e}",
                        bench.name()
                    ))
                })?;
            // The SPEC benchmark runs "in background" while RSA decrypts
            // continuously: give it a comparable instruction volume.
            let mut rsa = Cycled::new(&trace, runs);
            let mut spec = bench.stream(spec_base, trace.len() * runs / 3, 0x5bec ^ runs as u64);
            run_sources(
                &mut m,
                &mut [(rsa_asid, &mut rsa), (spec_asid, &mut spec)],
                200,
            );
        }
    }
    Ok(m)
}

/// Runs a sweep over configurations and workloads for one design — one
/// panel of Figure 7.
pub fn sweep(
    design: TlbDesign,
    configs: &[TlbConfig],
    workloads: &[Workload],
    runs: &[usize],
) -> Result<Vec<PerfCell>, PerfError> {
    let mut out = Vec::new();
    for &w in workloads {
        for &r in runs {
            for &c in configs {
                out.push(run_cell(design, c, w, r)?);
            }
        }
    }
    Ok(out)
}

/// Aggregate comparisons reported in Sections 6.3–6.5.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// SP MPKI over SA MPKI (paper: ≈ 3.07×).
    pub sp_over_sa_mpki: f64,
    /// RF MPKI over SA MPKI (paper: ≈ 1.09×).
    pub rf_over_sa_mpki: f64,
    /// RF MPKI over SP MPKI (paper: ≈ 0.355×, i.e. 64.5% better).
    pub rf_over_sp_mpki: f64,
    /// 1E IPC over the 4W 32 SA IPC (paper: ≈ 38% worse).
    pub one_entry_ipc_ratio: f64,
}

/// Computes the headline ratios on the protected (SecRSA) workloads with
/// the paper's baseline geometry.
///
/// Returns a typed [`PerfError`] instead of panicking if the baseline
/// configuration or any cell's setup is ever rejected — callers surface
/// it and exit [`crate::exit::EXIT_SETUP`].
pub fn headline(runs: usize) -> Result<Headline, PerfError> {
    let base = TlbConfig::sa(32, 4)?;
    let workloads: Vec<Workload> = Workload::all().into_iter().filter(|w| w.secure).collect();
    // Per-workload MPKI ratios, then the mean across workloads — so the
    // low-MPKI workloads (where the partition hurts most, relatively)
    // count as much as the TLB-saturating ones.
    let mpki = |design, w| run_cell(design, base, w, runs).map(|c| c.mpki.max(1e-6));
    let mut sp_ratios = Vec::new();
    let mut rf_ratios = Vec::new();
    let mut rf_sp_ratios = Vec::new();
    for &w in &workloads {
        let sa = mpki(TlbDesign::Sa, w)?;
        let sp = mpki(TlbDesign::Sp, w)?;
        let rf = mpki(TlbDesign::Rf, w)?;
        sp_ratios.push(sp / sa);
        rf_ratios.push(rf / sa);
        rf_sp_ratios.push(rf / sp);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sp = mean(&sp_ratios);
    let rf = mean(&rf_ratios);
    let rf_sp = mean(&rf_sp_ratios);
    let rsa_only = Workload {
        secure: false,
        co_runner: None,
    };
    let ipc_1e = run_cell(TlbDesign::Sa, TlbConfig::single_entry(), rsa_only, runs)?.ipc;
    let ipc_4w = run_cell(TlbDesign::Sa, base, rsa_only, runs)?.ipc;
    Ok(Headline {
        sp_over_sa_mpki: sp,
        rf_over_sa_mpki: rf,
        rf_over_sp_mpki: rf_sp,
        one_entry_ipc_ratio: ipc_1e / ipc_4w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(design: TlbDesign, config: TlbConfig, secure: bool) -> PerfCell {
        run_cell(
            design,
            config,
            Workload {
                secure,
                co_runner: None,
            },
            2,
        )
        .expect("quick workload sets up cleanly")
    }

    #[test]
    fn workload_list_matches_figure7_groups() {
        let all = Workload::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].label(), "RSA");
        assert_eq!(all[1].label(), "RSA+povray");
        assert_eq!(all[5].label(), "SecRSA");
        assert_eq!(all[9].label(), "SecRSA+cactusADM");
    }

    #[test]
    fn larger_tlbs_do_not_miss_more() {
        let small = quick(TlbDesign::Sa, TlbConfig::sa(32, 4).unwrap(), false);
        let large = quick(TlbDesign::Sa, TlbConfig::sa(128, 4).unwrap(), false);
        assert!(large.mpki <= small.mpki + 0.5);
    }

    #[test]
    fn one_entry_tlb_is_much_slower() {
        let one = quick(TlbDesign::Sa, TlbConfig::single_entry(), false);
        let full = quick(TlbDesign::Sa, TlbConfig::sa(32, 4).unwrap(), false);
        assert!(
            one.ipc < full.ipc * 0.8,
            "1E {:.3} vs 4W32 {:.3}",
            one.ipc,
            full.ipc
        );
    }

    fn co_run(design: TlbDesign) -> PerfCell {
        // RSA alone fits even small TLBs (Section 6.3: "RSA routine is
        // relatively small, so it experiences very few MPKIs"); the
        // partition price shows under co-run pressure. Povray's hot set
        // (24 pages) fits the full 32-entry TLB but not the 16 entries
        // the SP attacker partition leaves it.
        run_cell(
            design,
            TlbConfig::sa(32, 4).unwrap(),
            Workload {
                secure: true,
                co_runner: Some(SpecBenchmark::Povray),
            },
            2,
        )
        .expect("co-run workload sets up cleanly")
    }

    #[test]
    fn secrsa_on_sp_pays_the_partition_price() {
        let sa = co_run(TlbDesign::Sa);
        let sp = co_run(TlbDesign::Sp);
        assert!(
            sp.mpki > sa.mpki * 1.2,
            "SP {:.2} MPKI vs SA {:.2}",
            sp.mpki,
            sa.mpki
        );
    }

    #[test]
    fn secrsa_on_rf_is_much_cheaper_than_sp() {
        let sp = co_run(TlbDesign::Sp);
        let rf = co_run(TlbDesign::Rf);
        assert!(
            rf.mpki < sp.mpki,
            "RF {:.2} MPKI vs SP {:.2}",
            rf.mpki,
            sp.mpki
        );
    }

    #[test]
    fn co_running_increases_pressure() {
        let alone = quick(TlbDesign::Sa, TlbConfig::sa(32, 4).unwrap(), false);
        let with_spec = run_cell(
            TlbDesign::Sa,
            TlbConfig::sa(32, 4).unwrap(),
            Workload {
                secure: false,
                co_runner: Some(SpecBenchmark::Omnetpp),
            },
            2,
        )
        .expect("co-run workload sets up cleanly");
        assert!(with_spec.mpki > alone.mpki);
    }
}
