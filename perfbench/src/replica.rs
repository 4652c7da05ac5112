//! Replicas of the engine's per-trial and per-cell work, rebuilt from
//! public calls so each simulator stage can be timed on its own.
//!
//! [`table4_trials`] mirrors `secbench::run`'s trial (fresh machine, two
//! processes, secure region, conflict regions, filler page, one
//! `run_batch`); [`fig7_cell`] mirrors `bench::perf::run_cell_oracle`
//! with the oracle off. The traced run checks every replica result
//! against the engine's, so a drift in either shows as a failure rather
//! than as silently wrong per-layer numbers.

use std::time::Instant;

use sectlb_model::Vulnerability;
use sectlb_secbench::generate::generate_program;
use sectlb_secbench::run::{derive_trial_seed, Measurement, TrialSettings};
use sectlb_secbench::spec::{BenchmarkSpec, Placement};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_sim::sched::{run_round_robin, Program};
use sectlb_tlb::stats::TlbStats;
use sectlb_tlb::types::Vpn;
use sectlb_workloads::rsa::{decryption_program, encrypt, RsaKey, RsaLayout};

use crate::fig7::Fig7Cell;
use crate::metrics::{tlb_metric, Metrics, TLB_DESIGNS};

/// Exact simulated counts summed over every machine a replica ran.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounts {
    /// TLB counters per design, in [`TLB_DESIGNS`] order.
    pub tlb: [TlbStats; 3],
    /// Retired simulated instructions.
    pub instret: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated context switches.
    pub context_switches: u64,
}

impl SimCounts {
    fn add(&mut self, m: &Machine) -> Result<(), String> {
        let d = TLB_DESIGNS
            .iter()
            .position(|&x| x == m.design())
            .ok_or_else(|| format!("design {} has no TLB counter slot", m.design()))?;
        let (acc, s) = (&mut self.tlb[d], m.tlb_stats());
        acc.accesses += s.accesses;
        acc.hits += s.hits;
        acc.misses += s.misses;
        acc.fills += s.fills;
        acc.random_fills += s.random_fills;
        acc.no_fill_responses += s.no_fill_responses;
        acc.evictions += s.evictions;
        acc.invalidations += s.invalidations;
        acc.flushes += s.flushes;
        acc.faults += s.faults;
        let cpu = m.stats();
        self.instret += cpu.instret;
        self.cycles += cpu.cycles;
        self.context_switches += cpu.context_switches;
        Ok(())
    }

    /// Records the `tlb.*` and `sim.cpu.*` metrics.
    pub fn record(&self, metrics: &mut Metrics) {
        for (design, s) in TLB_DESIGNS.iter().zip(&self.tlb) {
            let counts = [
                s.accesses,
                s.hits,
                s.misses,
                s.fills,
                s.random_fills,
                s.no_fill_responses,
                s.evictions,
                s.flushes,
            ];
            for (counter, n) in crate::metrics::TLB_COUNTERS.iter().zip(counts) {
                metrics.set(tlb_metric(*design, counter), n as f64);
            }
            metrics.set(tlb_metric(*design, "hit_rate"), s.hit_rate().unwrap_or(0.0));
        }
        metrics.set("sim.cpu.instret", self.instret as f64);
        metrics.set("sim.cpu.cycles", self.cycles as f64);
        metrics.set("sim.cpu.context_switches", self.context_switches as f64);
    }
}

/// Host seconds per simulator stage, summed over a replica.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// `MachineBuilder::build`.
    pub build_s: f64,
    /// `create_process`, `map_region` and `map_page`.
    pub map_s: f64,
    /// `protect_victim` (secure-region PTE pre-generation).
    pub protect_s: f64,
    /// Executing the simulated programs (`run_batch`, `run`,
    /// `run_round_robin`).
    pub run_s: f64,
    /// Machines built.
    pub machines: u64,
    /// `protect_victim` calls.
    pub protects: u64,
    /// `run_batch` calls (`Machine::run` is one) and the instructions
    /// they retired, for the per-call and per-instruction means.
    pub batches: u64,
    /// Host seconds inside those `run_batch` calls.
    pub batch_s: f64,
    /// Instructions those `run_batch` calls retired.
    pub batch_instret: u64,
}

impl StageTimes {
    /// Records the `sim.machine.*`, `sim.os.*`, `sim.sched.*` and
    /// `secbench.run.setup_share` metrics; `instret` is the replica's
    /// retired-instruction total.
    pub fn record(&self, instret: u64, metrics: &mut Metrics) {
        let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e6 / n as f64 };
        metrics.set("sim.machine.build_us", per(self.build_s, self.machines));
        metrics.set("sim.os.map_us", per(self.map_s, self.machines));
        metrics.set(
            "sim.machine.protect_victim_us",
            per(self.protect_s, self.protects),
        );
        let setup = self.build_s + self.map_s + self.protect_s;
        metrics.set("secbench.run.setup_share", setup / (setup + self.run_s));
        metrics.set("sim.machine.run_batch_us", per(self.batch_s, self.batches));
        metrics.set(
            "sim.machine.run_batch_ns_per_instr",
            per(self.batch_s, self.batch_instret) * 1e3,
        );
        metrics.set("sim.sched.run_s", self.run_s);
        metrics.set("sim.machine.ns_per_instr", per(self.run_s, instret) * 1e3);
    }
}

/// A replicated Table 4 campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReplica {
    /// Slow-trial counts per cell, comparable to the engine's
    /// [`Measurement`]s.
    pub measured: Vec<Measurement>,
    /// Simulated counts over every trial.
    pub counts: SimCounts,
    /// Host time per stage.
    pub times: StageTimes,
}

/// Replays every trial of `cells` under `settings` stage by stage: the
/// same seeds, machines and programs as `secbench::run::try_run_trial_range`.
///
/// # Errors
///
/// Fails on a machine-setup error or a program that does not read the
/// miss counter exactly twice.
pub fn table4_trials(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
) -> Result<TrialReplica, String> {
    let mut counts = SimCounts::default();
    let mut times = StageTimes::default();
    let mut measured = Vec::with_capacity(cells.len());
    for (v, design) in cells {
        let spec = BenchmarkSpec::build_with_config(v, *design, settings.config);
        let programs = [Placement::Mapped, Placement::NotMapped].map(|p| {
            let program = generate_program(&spec, p);
            let instret = crate::instret_of(&program);
            (p, program, instret)
        });
        let mut slow = [0u32; 2];
        for t in 0..settings.trials {
            for (k, (placement, program, instret)) in programs.iter().enumerate() {
                let seed = derive_trial_seed(settings.base_seed, v, *design, *placement, t);
                let cell_err = |stage: &'static str| {
                    let v = *v;
                    move |e: sectlb_sim::os::OsError| format!("{v} on {design}: {stage}: {e}")
                };
                let t0 = Instant::now();
                let mut m = MachineBuilder::new()
                    .design(*design)
                    .tlb_config(spec.config)
                    .seed(seed)
                    .rf_eviction(settings.rf_eviction)
                    .build();
                let t1 = Instant::now();
                let victim = m.os_mut().create_process();
                let attacker = m.os_mut().create_process();
                let t2 = Instant::now();
                m.protect_victim(victim, spec.region)
                    .map_err(cell_err("protect victim"))?;
                let t3 = Instant::now();
                for asid in [victim, attacker] {
                    m.os_mut()
                        .map_region(asid, spec.dbase, 64)
                        .map_err(cell_err("map conflict region"))?;
                    // The victim's region is already mapped; the
                    // attacker's is fresh (as in the engine).
                    m.os_mut()
                        .map_region(asid, spec.region.base, spec.region.pages)
                        .ok();
                    m.os_mut()
                        .map_page(asid, spec.filler)
                        .map_err(cell_err("map filler page"))?;
                }
                let t4 = Instant::now();
                m.run_batch(program);
                let t5 = Instant::now();
                times.build_s += (t1 - t0).as_secs_f64();
                times.map_s += ((t2 - t1) + (t4 - t3)).as_secs_f64();
                times.protect_s += (t3 - t2).as_secs_f64();
                times.run_s += (t5 - t4).as_secs_f64();
                times.batch_s += (t5 - t4).as_secs_f64();
                times.machines += 1;
                times.protects += 1;
                times.batches += 1;
                times.batch_instret += instret;
                let reads = &m.stats().counter_reads;
                if reads.len() != 2 {
                    return Err(format!("{v} on {design}: {} counter reads", reads.len()));
                }
                if reads[1] > reads[0] {
                    slow[k] += 1;
                }
                counts.add(&m)?;
            }
        }
        measured.push(Measurement {
            trials: settings.trials,
            n_mapped_miss: slow[0],
            n_not_mapped_miss: slow[1],
        });
    }
    Ok(TrialReplica {
        measured,
        counts,
        times,
    })
}

/// Host seconds spent generating one Figure 7 cell's programs.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GenTimes {
    /// `encrypt` + `decryption_program`.
    pub rsa_s: f64,
    /// `SpecBenchmark::trace`.
    pub spec_s: f64,
}

/// The programs of one Figure 7 cell, exactly as `run_cell_oracle` builds
/// them: the RSA decryption stream and, for a co-run, the SPEC-like
/// trace. Adds the generation time to `gen`.
pub fn fig7_programs(cell: &Fig7Cell, gen: &mut GenTimes) -> (Vec<Instr>, Option<Vec<Instr>>) {
    let t0 = Instant::now();
    let rsa = rsa_program(cell.runs);
    let t1 = Instant::now();
    let spec = cell
        .workload
        .co_runner
        .map(|bench| bench.trace(SPEC_BASE, rsa.len() / 3, 0x5bec ^ cell.runs as u64));
    gen.rsa_s += (t1 - t0).as_secs_f64();
    gen.spec_s += t1.elapsed().as_secs_f64();
    (rsa, spec)
}

/// `run_cell_oracle`'s RSA stream: `runs` decryptions of its fixed
/// ciphertext under the demo key.
pub fn rsa_program(runs: usize) -> Vec<Instr> {
    let key = RsaKey::demo_128();
    let ciphertext = encrypt(&key, &[0xfeedu64]);
    decryption_program(&key, &ciphertext, RsaLayout::new(), runs)
}

/// Where `run_cell_oracle` maps the co-runner's region.
pub const SPEC_BASE: Vpn = Vpn(0x10_000);

/// `run_cell_oracle`'s round-robin quantum, in instructions.
pub const QUANTUM: usize = 200;

/// Replays one Figure 7 cell stage by stage and returns its `(ipc,
/// mpki)`, adding its counts and stage times.
///
/// # Errors
///
/// Fails when the address-space setup is rejected or nothing retired.
pub fn fig7_cell(
    cell: &Fig7Cell,
    counts: &mut SimCounts,
    times: &mut StageTimes,
    gen: &mut GenTimes,
) -> Result<(f64, f64), String> {
    let layout = RsaLayout::new();
    let seed = 0xf167 ^ cell.runs as u64;
    let setup_err = |stage: &'static str| move |e: sectlb_sim::os::OsError| format!("{stage}: {e}");
    let t0 = Instant::now();
    let mut m = MachineBuilder::new()
        .design(cell.design)
        .tlb_config(cell.config)
        .seed(seed)
        .build();
    let t1 = Instant::now();
    let rsa_asid = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut()
            .map_page(rsa_asid, page)
            .map_err(setup_err("map RSA page"))?;
    }
    let t2 = Instant::now();
    times.build_s += (t1 - t0).as_secs_f64();
    times.map_s += (t2 - t1).as_secs_f64();
    times.machines += 1;
    if cell.workload.secure {
        let t = Instant::now();
        m.protect_victim(rsa_asid, layout.secure_region())
            .map_err(setup_err("protect RSA secure region"))?;
        times.protect_s += t.elapsed().as_secs_f64();
        times.protects += 1;
    }
    let (rsa, spec) = fig7_programs(cell, gen);
    match (cell.workload.co_runner, spec) {
        (Some(bench), Some(spec)) => {
            let t = Instant::now();
            let spec_asid = m.os_mut().create_process();
            m.os_mut()
                .map_region(spec_asid, SPEC_BASE, bench.footprint_pages())
                .map_err(setup_err("map co-runner region"))?;
            times.map_s += t.elapsed().as_secs_f64();
            let programs = [Program::new(rsa_asid, rsa), Program::new(spec_asid, spec)];
            let t = Instant::now();
            run_round_robin(&mut m, &programs, QUANTUM);
            times.run_s += t.elapsed().as_secs_f64();
        }
        _ => {
            let instret = crate::instret_of(&rsa);
            let t = Instant::now();
            m.exec(Instr::SetAsid(rsa_asid));
            let t_batch = Instant::now();
            m.run(&rsa);
            let done = Instant::now();
            times.run_s += (done - t).as_secs_f64();
            times.batch_s += (done - t_batch).as_secs_f64();
            times.batches += 1;
            times.batch_instret += instret;
        }
    }
    counts.add(&m)?;
    let ipc = m.ipc().ok_or("no instructions retired")?;
    let mpki = m.mpki().ok_or("no instructions retired")?;
    Ok((ipc, mpki))
}
