//! Edge cases of the batched access API (`Machine::run_batch`).
//!
//! The batched path amortizes dispatch over a trial's whole op sequence,
//! so its boundary behavior is what the campaign engine's correctness
//! rests on: an empty batch must be a no-op, a batch spanning context
//! switches and flushes must match instruction-at-a-time execution, and
//! a batch must never be split by checkpoint preemption — the
//! supervisor's cooperative `preempt_point()` sits *between* trials, so
//! an armed preemption flag fires only after the in-flight batch ends.
//!
//! Every batched machine runs without the shadow oracle, so `run_batch`
//! takes its own loop; with the oracle armed it would step through
//! `exec`. The machines it is compared with run under the oracle.

use secure_tlbs::secbench::supervisor::{preempt_point, set_preempt_flag, ShardPreempted};
use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::tlb::types::{Asid, Vpn};
use secure_tlbs::tlb::TlbConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BASE: u64 = 0x100;

/// A machine of `design` with two address spaces, the shadow oracle on
/// or off.
fn machine(design: TlbDesign, oracle: bool) -> (Machine, [Asid; 2]) {
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(TlbConfig::sa(16, 4).expect("valid"))
        .seed(99)
        .oracle(oracle)
        .build();
    let a = m.os_mut().create_process();
    let b = m.os_mut().create_process();
    for asid in [a, b] {
        m.os_mut().map_region(asid, Vpn(BASE), 16).expect("fresh");
    }
    (m, [a, b])
}

fn addr(page: u64) -> u64 {
    Vpn(BASE + page).base_addr()
}

/// A program that crosses every batch-internal boundary the engine can
/// produce: context switches, a per-ASID flush, a targeted invalidation,
/// and a whole-TLB flush, with reuse on both sides of each, and counter
/// reads between them.
fn boundary_program(asids: &[Asid; 2]) -> Vec<Instr> {
    let [a, b] = *asids;
    vec![
        Instr::SetAsid(a),
        Instr::Load(addr(0)),
        Instr::Load(addr(1)),
        Instr::Store(addr(0)),
        Instr::SetAsid(b),
        Instr::Load(addr(0)),
        Instr::Load(addr(7)),
        Instr::FlushAsid(a),
        Instr::SetAsid(a),
        Instr::Load(addr(0)),
        Instr::ReadCycleCounter,
        Instr::FlushPage(addr(0)),
        Instr::ReadCycleCounter,
        Instr::Load(addr(0)),
        Instr::ReadMissCounter,
        Instr::FlushAll,
        Instr::SetAsid(b),
        Instr::Load(addr(7)),
        Instr::Compute(3),
        Instr::Load(addr(7)),
        Instr::ReadCycleCounter,
        Instr::ReadMissCounter,
    ]
}

#[test]
fn empty_batch_is_a_no_op() {
    for design in TlbDesign::ALL {
        let (mut m, _) = machine(design, false);
        let stats_before = m.stats().clone();
        let tlb_before = *m.tlb_stats();
        m.run_batch(&[]);
        assert_eq!(
            m.stats(),
            &stats_before,
            "{design:?}: executor counters moved"
        );
        assert_eq!(m.tlb_stats(), &tlb_before, "{design:?}: TLB counters moved");
        assert!(
            m.tlb().snapshot().is_empty(),
            "{design:?}: entries appeared"
        );
    }
}

#[test]
fn batch_spanning_switches_and_flushes_matches_stepped_execution() {
    for design in TlbDesign::ALL {
        let (mut batched, asids) = machine(design, false);
        let (mut stepped, _) = machine(design, true);
        let program = boundary_program(&asids);
        batched.run_batch(&program);
        for &instr in &program {
            stepped.exec(instr);
        }
        assert_eq!(batched.stats(), stepped.stats(), "{design:?}");
        assert_eq!(batched.tlb_stats(), stepped.tlb_stats(), "{design:?}");
        assert_eq!(
            batched.tlb().snapshot(),
            stepped.tlb().snapshot(),
            "{design:?}"
        );
    }
}

#[test]
fn batch_split_across_run_calls_equals_one_batch() {
    let (mut whole, asids) = machine(TlbDesign::Sp, false);
    let (mut split, _) = machine(TlbDesign::Sp, false);
    let (mut stepped, _) = machine(TlbDesign::Sp, true);
    let program = boundary_program(&asids);
    whole.run_batch(&program);
    let (head, tail) = program.split_at(program.len() / 2);
    split.run(head);
    split.run(tail);
    for &instr in &program {
        stepped.exec(instr);
    }
    for m in [&whole, &split] {
        assert_eq!(m.stats(), stepped.stats());
        assert_eq!(m.tlb_stats(), stepped.tlb_stats());
        assert_eq!(m.tlb().snapshot(), stepped.tlb().snapshot());
    }
}

#[test]
fn armed_preemption_never_splits_a_batch() {
    // Arm this thread's preemption flag *before* the batch runs — the
    // scenario where the monitor flags the shard mid-trial. The batch
    // must run to completion (no cooperative checkpoint inside
    // `run_batch`), and only the engine's between-trials `preempt_point`
    // may unwind, with the payload the engine's catch_unwind recognizes.
    let flag = Arc::new(AtomicBool::new(false));
    set_preempt_flag(Some(flag.clone()));
    flag.store(true, Ordering::Release);

    let (mut m, asids) = machine(TlbDesign::Rf, false);
    let (mut calm, _) = machine(TlbDesign::Rf, true);
    let program = boundary_program(&asids);
    m.run_batch(&program);
    calm.run_batch(&program);
    assert_eq!(
        m.stats(),
        calm.stats(),
        "batch must complete even with preemption pending"
    );

    let unwound = std::panic::catch_unwind(preempt_point);
    let payload = unwound.expect_err("pending preemption must fire between trials");
    assert_eq!(
        payload.downcast_ref::<ShardPreempted>(),
        Some(&ShardPreempted),
        "preemption must unwind with the ShardPreempted payload"
    );
    // preempt_point disarms before unwinding; the next checkpoint is calm.
    preempt_point();
    set_preempt_flag(None);
}
