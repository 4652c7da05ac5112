//! Round-robin co-scheduling of programs on one machine.
//!
//! The paper's "RSA with povray/omnetpp/xalancbmk/cactusADM" experiments
//! run the RSA victim in parallel with a TLB-intensive SPEC benchmark:
//! "the RSA continuously performs the decryption while the SPEC benchmark
//! runs in background" (Section 6.2). On our single simulated core this
//! becomes time-slice interleaving with the OS's context-switch policy
//! applied at each slice boundary. The scheduler pulls each program's
//! instructions from a source one slice at a time, so a long run need
//! not exist in memory as a whole.

use sectlb_tlb::types::Asid;

use crate::cpu::Instr;
use crate::machine::Machine;

/// A schedulable program: an address space plus its instruction stream.
#[derive(Debug, Clone)]
pub struct Program {
    /// The address space the program runs in.
    pub asid: Asid,
    /// The instructions to execute.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program.
    pub fn new(asid: Asid, instrs: Vec<Instr>) -> Program {
        Program { asid, instrs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Where the round-robin scheduler pulls a program's instructions from,
/// one slice at a time: a slice run a number of times over
/// ([`Cycled`]), or a generator such as the SPEC-like stream. The
/// scheduler holds one slice at a time, so a run's memory is its
/// sources' own and does not grow with its length.
pub trait InstrSource {
    /// Appends the source's next `max` instructions to `buf`, or all
    /// that remain if fewer do. Appending none means it is exhausted.
    fn fill(&mut self, buf: &mut Vec<Instr>, max: usize);
}

/// A slice of instructions played `times` times back to back.
#[derive(Debug, Clone)]
pub struct Cycled<'a> {
    instrs: &'a [Instr],
    /// Where the next instruction sits in `instrs`.
    pos: usize,
    /// Instructions still to come.
    left: usize,
}

impl<'a> Cycled<'a> {
    /// `instrs`, `times` times over.
    pub fn new(instrs: &'a [Instr], times: usize) -> Cycled<'a> {
        Cycled {
            instrs,
            pos: 0,
            left: instrs.len() * times,
        }
    }
}

impl InstrSource for Cycled<'_> {
    fn fill(&mut self, buf: &mut Vec<Instr>, max: usize) {
        // Whole runs of the slice at a time: `.cycle().take(..)` would
        // copy one instruction per call.
        let mut want = max.min(self.left);
        self.left -= want;
        while want > 0 {
            let run = &self.instrs[self.pos..];
            let take = want.min(run.len());
            buf.extend_from_slice(&run[..take]);
            self.pos = (self.pos + take) % self.instrs.len();
            want -= take;
        }
    }
}

/// Runs `programs` round-robin with the given time quantum (instructions
/// per slice), until every program has finished. Programs that finish
/// early simply drop out of the rotation.
///
/// # Panics
///
/// Panics if `quantum` is zero.
pub fn run_round_robin(machine: &mut Machine, programs: &[Program], quantum: usize) {
    let mut streams: Vec<_> = programs.iter().map(|p| Cycled::new(&p.instrs, 1)).collect();
    let mut sources: Vec<(Asid, &mut dyn InstrSource)> = programs
        .iter()
        .zip(&mut streams)
        .map(|(p, s)| (p.asid, s as &mut dyn InstrSource))
        .collect();
    run_sources(machine, &mut sources, quantum);
}

/// Runs each `(asid, source)` round-robin until every source is
/// exhausted. A slice is a `SetAsid` followed by exactly `quantum`
/// instructions (fewer only when its source runs out), executed as one
/// batch; a source that yields nothing drops out of the rotation
/// without a `SetAsid`.
///
/// # Panics
///
/// Panics if `quantum` is zero.
pub fn run_sources(
    machine: &mut Machine,
    sources: &mut [(Asid, &mut dyn InstrSource)],
    quantum: usize,
) {
    assert!(quantum > 0, "quantum must be positive");
    let mut slice = Vec::with_capacity(quantum);
    let mut live: Vec<_> = sources.iter_mut().collect();
    while !live.is_empty() {
        live.retain_mut(|(asid, source)| {
            slice.clear();
            source.fill(&mut slice, quantum);
            if slice.is_empty() {
                return false;
            }
            machine.exec(Instr::SetAsid(*asid));
            machine.run_batch(&slice);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineBuilder, TlbDesign};
    use sectlb_tlb::types::Vpn;

    fn two_processes() -> (Machine, Asid, Asid) {
        let mut m = MachineBuilder::new()
            .tlb_config(sectlb_tlb::TlbConfig::sa(4, 2).unwrap())
            .oracle(false)
            .build();
        let a = m.os_mut().create_process();
        let b = m.os_mut().create_process();
        m.os_mut().map_region(a, Vpn(0x10), 4).unwrap();
        m.os_mut().map_region(b, Vpn(0x20), 4).unwrap();
        (m, a, b)
    }

    fn loads(base_page: u64, n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::Load((base_page + i as u64 % 4) << 12))
            .collect()
    }

    #[test]
    fn all_programs_complete() {
        let mut m = MachineBuilder::new().design(TlbDesign::Sa).build();
        let a = m.os_mut().create_process();
        let b = m.os_mut().create_process();
        m.os_mut().map_region(a, Vpn(0x10), 4).unwrap();
        m.os_mut().map_region(b, Vpn(0x20), 4).unwrap();
        let pa = Program::new(a, loads(0x10, 100));
        let pb = Program::new(b, loads(0x20, 37)); // different length
        run_round_robin(&mut m, &[pa, pb], 10);
        assert_eq!(m.stats().loads, 137);
    }

    #[test]
    fn interleaving_causes_context_switches() {
        let mut m = MachineBuilder::new().build();
        let a = m.os_mut().create_process();
        let b = m.os_mut().create_process();
        m.os_mut().map_region(a, Vpn(0x10), 4).unwrap();
        m.os_mut().map_region(b, Vpn(0x20), 4).unwrap();
        run_round_robin(
            &mut m,
            &[
                Program::new(a, loads(0x10, 40)),
                Program::new(b, loads(0x20, 40)),
            ],
            10,
        );
        // 4 slices each, alternating: at least 7 switches.
        assert!(m.stats().context_switches >= 7);
    }

    #[test]
    fn co_running_increases_tlb_pressure() {
        // A small-TLB machine: co-running two working sets misses more
        // than running them back to back.
        let build = || {
            let mut m = MachineBuilder::new()
                .tlb_config(sectlb_tlb::TlbConfig::sa(4, 2).unwrap())
                .build();
            let a = m.os_mut().create_process();
            let b = m.os_mut().create_process();
            m.os_mut().map_region(a, Vpn(0x10), 4).unwrap();
            m.os_mut().map_region(b, Vpn(0x20), 4).unwrap();
            (m, a, b)
        };
        let (mut seq, a, b) = build();
        run_round_robin(&mut seq, &[Program::new(a, loads(0x10, 200))], 1000);
        run_round_robin(&mut seq, &[Program::new(b, loads(0x20, 200))], 1000);
        let sequential_misses = seq.tlb_stats().misses;

        let (mut co, a, b) = build();
        run_round_robin(
            &mut co,
            &[
                Program::new(a, loads(0x10, 200)),
                Program::new(b, loads(0x20, 200)),
            ],
            4,
        );
        let co_misses = co.tlb_stats().misses;
        assert!(
            co_misses >= sequential_misses,
            "co-run: {co_misses} vs sequential: {sequential_misses}"
        );
    }

    #[test]
    fn cycled_sources_run_like_their_materialized_programs() {
        let (one_a, one_b) = (loads(0x10, 5), loads(0x20, 4));
        for quantum in [1, 4, 7, 200] {
            let (mut cycled, a, b) = two_processes();
            run_sources(
                &mut cycled,
                &mut [
                    (a, &mut Cycled::new(&one_a, 3)),
                    (b, &mut Cycled::new(&one_b, 2)),
                    (b, &mut Cycled::new(&one_b, 0)),
                ],
                quantum,
            );
            let (mut flat, a, b) = two_processes();
            run_round_robin(
                &mut flat,
                &[
                    Program::new(a, one_a.repeat(3)),
                    Program::new(b, one_b.repeat(2)),
                ],
                quantum,
            );
            assert_eq!(cycled.stats(), flat.stats(), "quantum {quantum}");
            assert_eq!(cycled.tlb_stats(), flat.tlb_stats(), "quantum {quantum}");
            // Full slices until a source runs out, each behind exactly one
            // SetAsid — also where a cycled slice wraps — and none for an
            // exhausted or empty source.
            let slices = 15usize.div_ceil(quantum) + 8usize.div_ceil(quantum);
            assert_eq!(cycled.stats().instret, (15 + 8 + slices) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        let mut m = MachineBuilder::new().build();
        run_round_robin(&mut m, &[], 0);
    }
}
