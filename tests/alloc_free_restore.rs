//! Restoring a trial's machine allocates nothing.
//!
//! A campaign shard clones its cell's template once, into a scratch
//! machine, and restores that in place before every further trial. A
//! counting global allocator tallies the heap allocations made by the
//! thread that armed it (other test threads allocate freely). Two
//! shapes:
//!
//! - the trial runner itself: a shard of one trial and a shard of many
//!   make the same allocations (the cell's programs, its template and the
//!   scratch clone), on every design, an L2 hierarchy and an I-TLB
//!   machine;
//! - a restore loop on an I-TLB machine whose program jumps between code
//!   pages, which the benchmark programs never do: after the first trial,
//!   restoring, reseeding and running allocates nothing.
//!
//! A trial that auto-maps a page unshares the page tables, which copies
//! them; the cell here maps every page its trials touch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secure_tlbs::model::enumerate_vulnerabilities;
use secure_tlbs::secbench::run::{try_run_trial_range, TrialSettings};
use secure_tlbs::secbench::spec::BenchmarkSpec;
use secure_tlbs::sim::cpu::Instr;
use secure_tlbs::sim::machine::{Machine, MachineBuilder, TlbDesign};
use secure_tlbs::tlb::types::{SecureRegion, Vpn};
use secure_tlbs::tlb::TlbConfig;

/// Forwards to the system allocator, counting the calls made while the
/// calling thread's `COUNTING` flag is set.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down, when they can no longer be read.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the bookkeeping touches only const-initialized thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|n| n.get())
}

/// Trials per placement in the longer shard.
const TRIALS: u32 = 25;

#[test]
fn a_shard_allocates_only_for_its_first_trial() {
    // Prime + Probe, `A_d ~> V_u ~> A_d`: every page its trials touch is
    // mapped in setup, so no trial writes a page table.
    let vulnerability = *enumerate_vulnerabilities()
        .iter()
        .find(|v| v.pattern.to_string() == "A_d ~> V_u ~> A_d")
        .expect("row exists");
    let settings = TrialSettings::default();
    // The shadow oracle (on by default in debug builds) records every
    // instruction; unarmed campaign trials run without it.
    let plain = |b: MachineBuilder| b.oracle(false);
    let l2 = |b: MachineBuilder| {
        b.oracle(false)
            .l2(TlbDesign::Rf, TlbConfig::sa(64, 8).expect("valid"), 8)
    };
    let itlb = |b: MachineBuilder| {
        b.oracle(false)
            .itlb(TlbDesign::Rf, TlbConfig::sa(8, 2).expect("valid"))
    };
    type Hook<'a> = &'a (dyn Fn(MachineBuilder) -> MachineBuilder + Sync);
    let mut points: Vec<(String, TlbDesign, Hook<'_>)> = TlbDesign::EXTENDED
        .iter()
        .map(|&d| (d.to_string(), d, &plain as Hook<'_>))
        .collect();
    points.push(("SA + RF L2".into(), TlbDesign::Sa, &l2));
    points.push(("SP + RF I-TLB".into(), TlbDesign::Sp, &itlb));
    for (name, design, hook) in points {
        let spec = BenchmarkSpec::build_with_config(&vulnerability, design, settings.config);
        let shard = |trials: u32| {
            allocations_during(|| {
                let m = try_run_trial_range(&spec, design, &settings, 0..trials, hook)
                    .expect("the cell sets up");
                assert_eq!(m.trials, trials);
            })
        };
        let (one, many) = (shard(1), shard(TRIALS));
        assert!(one > 0, "[{name}] the shard's setup allocates");
        assert_eq!(
            many,
            one,
            "[{name}] {} further trials allocated {} times",
            TRIALS - 1,
            many.saturating_sub(one)
        );
    }
}

const CODE: u64 = 0x800;
const DATA: u64 = 0x100;
const PAGES: u64 = 24;

/// An I-TLB machine: two processes with their data and code pages
/// mapped, and an RF secure region on the first.
fn itlb_template() -> Machine {
    let mut m = MachineBuilder::new()
        .design(TlbDesign::Rf)
        .itlb(TlbDesign::Sa, TlbConfig::sa(8, 2).expect("valid"))
        .oracle(false)
        .build();
    let victim = m.os_mut().create_process();
    let other = m.os_mut().create_process();
    for asid in [victim, other] {
        m.os_mut()
            .map_region(asid, Vpn(DATA), PAGES)
            .expect("fresh");
        m.os_mut().map_region(asid, Vpn(CODE), 4).expect("fresh");
    }
    m.protect_victim(victim, SecureRegion::new(Vpn(DATA + 8), 3))
        .expect("fresh");
    m
}

/// Both processes jump between code pages, load and store across their
/// data pages, and read the cycle counter.
fn jumping_program(m: &Machine) -> Vec<Instr> {
    let asids: Vec<_> = m.os().asids().collect();
    let mut program = Vec::new();
    for k in 0..6u64 {
        let asid = asids[k as usize % asids.len()];
        program.push(Instr::SetAsid(asid));
        program.push(Instr::JumpTo(Vpn(CODE + k % 4).base_addr()));
        program.push(Instr::ReadCycleCounter);
        for i in 0..40 {
            let addr = Vpn(DATA + (i * 7 + k) % PAGES).base_addr();
            program.push(if i % 5 == 0 {
                Instr::Store(addr)
            } else {
                Instr::Load(addr)
            });
            if i % 9 == 0 {
                program.push(Instr::JumpTo(Vpn(CODE + (i + k) % 4).base_addr()));
            }
        }
        program.push(Instr::ReadMissCounter);
    }
    program
}

#[test]
fn restoring_an_itlb_machine_that_jumps_allocates_nothing() {
    let template = itlb_template();
    let program = jumping_program(&template);
    let mut scratch = template.clone();
    scratch.reseed(1);
    scratch.run_batch(&program);
    let mut fetches = 0;
    let allocations = allocations_during(|| {
        for seed in 2..50 {
            scratch.clone_from(&template);
            scratch.reseed(seed);
            scratch.run_batch(&program);
            fetches += scratch.itlb().expect("an I-TLB").stats().accesses;
        }
    });
    assert_eq!(scratch.stats().counter_reads.len(), 12);
    assert!(fetches > 0, "the program never fetched through the I-TLB");
    assert!(
        scratch.tlb_stats().random_fills > 0,
        "the secure region never triggered a random fill"
    );
    assert_eq!(
        allocations, 0,
        "restoring and running a trial allocated {allocations} times"
    );
}
