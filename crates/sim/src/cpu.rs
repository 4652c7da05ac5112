//! The trace-driven CPU core and its performance counters.
//!
//! The paper's evaluation (Section 6.2) enables cycle and instruction
//! counters in user mode and adds a TLB-miss counter; the collected
//! metrics are instructions per cycle (IPC) and TLB misses per kilo
//! instruction (MPKI). Our core executes an explicit instruction stream —
//! memory operations identified by virtual address (the ASID comes from a
//! `process_id` register, as in the Figure 6 benchmarks), compute bursts,
//! reads of the miss and cycle counters, and TLB maintenance operations.

use sectlb_tlb::types::Asid;

/// One instruction of the trace-driven core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load from a virtual address (triggers translation).
    Load(u64),
    /// Store to a virtual address (triggers translation).
    Store(u64),
    /// A burst of `n` compute (non-memory) instructions, costing one cycle
    /// each.
    Compute(u64),
    /// Write the `process_id` CSR: switch the executing address space.
    /// Under [`crate::FlushPolicy::FlushOnSwitch`] this also flushes the
    /// TLB.
    SetAsid(Asid),
    /// Whole-TLB flush (`sfence.vma`-style supervisor flush).
    FlushAll,
    /// Flush one address space's entries.
    FlushAsid(Asid),
    /// Targeted invalidation of the page containing the virtual address
    /// (the `mprotect()`-induced shootdown of Appendix B). Takes an extra
    /// cycle when the entry was present — the Flush + Flush timing
    /// channel.
    FlushPage(u64),
    /// Read the TLB-miss performance counter (`csrr tlb_miss_count` in
    /// Figure 6); the value is appended to
    /// [`ExecStats::counter_reads`].
    ReadMissCounter,
    /// Read the cycle counter (RISC-V `rdcycle`): the read takes one
    /// cycle, and the cycles elapsed through it are appended to
    /// [`ExecStats::counter_reads`]. Times a targeted invalidation
    /// (Appendix B's Flush + Flush).
    ReadCycleCounter,
    /// Transfer control to code at a virtual address: subsequent
    /// instruction fetches come from that page. Only meaningful when the
    /// machine is configured with an instruction TLB; a no-op otherwise.
    JumpTo(u64),
}

/// Accumulated CPU counters.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Executed loads.
    pub loads: u64,
    /// Executed stores.
    pub stores: u64,
    /// Translation faults encountered.
    pub faults: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Values captured by [`Instr::ReadMissCounter`] and
    /// [`Instr::ReadCycleCounter`], in program order.
    pub counter_reads: Vec<u64>,
}

impl Clone for ExecStats {
    fn clone(&self) -> ExecStats {
        ExecStats {
            counter_reads: self.counter_reads.clone(),
            ..*self
        }
    }

    /// Copies `source`'s counters and reads into this value's read
    /// buffer, so a machine restored in place records its counter reads
    /// without allocating.
    fn clone_from(&mut self, source: &ExecStats) {
        let mut reads = std::mem::take(&mut self.counter_reads);
        reads.clone_from(&source.counter_reads);
        *self = ExecStats {
            counter_reads: reads,
            ..*source
        };
    }
}

impl ExecStats {
    /// Fresh counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Instructions per cycle; `None` before any cycle elapsed.
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0).then(|| self.instret as f64 / self.cycles as f64)
    }

    /// Misses per kilo instruction, given the TLB's miss counter.
    pub fn mpki(&self, tlb_misses: u64) -> Option<f64> {
        (self.instret > 0).then(|| tlb_misses as f64 * 1000.0 / self.instret as f64)
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = ExecStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki_handle_zero_denominators() {
        let s = ExecStats::new();
        assert_eq!(s.ipc(), None);
        assert_eq!(s.mpki(5), None);
    }

    #[test]
    fn metrics_compute_from_counters() {
        let s = ExecStats {
            cycles: 2000,
            instret: 1000,
            ..ExecStats::default()
        };
        assert_eq!(s.ipc(), Some(0.5));
        assert_eq!(s.mpki(30), Some(30.0));
    }
}
