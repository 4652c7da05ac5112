//! Round-robin co-scheduling of programs on one machine.
//!
//! The paper's "RSA with povray/omnetpp/xalancbmk/cactusADM" experiments
//! run the RSA victim in parallel with a TLB-intensive SPEC benchmark:
//! "the RSA continuously performs the decryption while the SPEC benchmark
//! runs in background" (Section 6.2). On our single simulated core this
//! becomes time-slice interleaving with the OS's context-switch policy
//! applied at each slice boundary.

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

/// Runs `programs` round-robin with the given time quantum (instructions
/// per slice), until every program has finished. Programs that finish
/// early simply drop out of the rotation.
///
/// # Panics
///
/// Panics if `quantum` is zero.
pub fn run_round_robin(machine: &mut Machine, programs: &[Program], quantum: usize) {
    assert!(quantum > 0, "quantum must be positive");
    let mut cursors = vec![0usize; programs.len()];
    loop {
        let mut any_ran = false;
        for (program, cursor) in programs.iter().zip(cursors.iter_mut()) {
            if *cursor >= program.instrs.len() {
                continue;
            }
            any_ran = true;
            machine.exec(Instr::SetAsid(program.asid));
            let end = (*cursor + quantum).min(program.instrs.len());
            machine.run_batch(&program.instrs[*cursor..end]);
            *cursor = end;
        }
        if !any_ran {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineBuilder, TlbDesign};
    use sectlb_tlb::types::Vpn;

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
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        let mut m = MachineBuilder::new().build();
        run_round_robin(&mut m, &[], 0);
    }
}
