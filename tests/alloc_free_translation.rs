//! The steady-state translation path allocates nothing.
//!
//! A counting global allocator tallies the heap allocations made by the
//! thread that armed it (other test threads allocate freely), and each
//! design point runs `Machine::run_batch` on a warm machine whose pages
//! are all mapped up front: loads and stores that hit, miss, fill and
//! evict, and enough of them that every set's packed LRU clock saturates
//! and renormalizes at least once. The RF point has a secure region, so
//! random fills and no-fill responses run too. Every point must finish
//! with zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const BASE: u64 = 0x100;
/// Twice the largest TLB below, so every geometry misses and evicts. A
/// multiple of every set count, so RF's set-randomized random fills stay
/// on mapped pages.
const PAGES: u64 = 64;
/// Accesses per batch.
const ACCESSES: u64 = 16_384;
/// Batches per design point: 81,920 accesses in all, more than the
/// 65,535 touches after which a single set's 16-bit LRU clock (FA 32's)
/// must renormalize.
const BATCHES: usize = 5;

/// Half the accesses go to eight hot pages (hits), the rest sweep the
/// whole region (misses, fills and evictions); every seventh is a store.
fn program() -> Vec<Instr> {
    (0..ACCESSES)
        .map(|i| {
            let page = if i % 2 == 0 {
                (i / 2) % 8
            } else {
                (i * 17 + i / 5) % PAGES
            };
            let addr = Vpn(BASE + page).base_addr();
            if i % 7 == 3 {
                Instr::Store(addr)
            } else {
                Instr::Load(addr)
            }
        })
        .collect()
}

fn warm_machine(design: TlbDesign, config: TlbConfig) -> Machine {
    // The shadow oracle (on by default in debug builds) snapshots the TLB
    // around every instruction; the translation path under test runs
    // without it, as in release campaigns.
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(config)
        .seed(7)
        .oracle(false)
        .build();
    let p = m.os_mut().create_process();
    m.os_mut().map_region(p, Vpn(BASE), PAGES).expect("fresh");
    // The secure region lies outside the hot pages, so its entries age
    // into replacement victims and keep RF's random fills going.
    m.protect_victim(p, SecureRegion::new(Vpn(BASE + 40), 3))
        .expect("fresh");
    m.exec(Instr::SetAsid(p));
    m.run_batch(&program());
    m
}

#[test]
fn steady_state_run_batch_makes_no_heap_allocation() {
    let points = [
        ("SA", TlbDesign::Sa, TlbConfig::sa(32, 8).expect("valid")),
        ("SP", TlbDesign::Sp, TlbConfig::sa(32, 8).expect("valid")),
        ("RF", TlbDesign::Rf, TlbConfig::sa(32, 8).expect("valid")),
        ("FA 32", TlbDesign::Sa, TlbConfig::fa(32).expect("valid")),
    ];
    let prog = program();
    for (name, design, config) in points {
        let mut m = warm_machine(design, config);
        let before = *m.tlb_stats();
        let allocations = allocations_during(|| {
            for _ in 0..BATCHES {
                m.run_batch(&prog);
            }
        });
        let after = *m.tlb_stats();
        assert_eq!(
            after.accesses - before.accesses,
            ACCESSES * BATCHES as u64,
            "[{name}] every access must translate"
        );
        assert!(after.hits > before.hits, "[{name}] no hits");
        assert!(after.misses > before.misses, "[{name}] no misses");
        assert!(after.evictions > before.evictions, "[{name}] no evictions");
        if design == TlbDesign::Rf {
            assert!(
                after.random_fills > before.random_fills,
                "[RF] the secure region never triggered a random fill"
            );
        }
        // Hits, fills and random fills each touch one way. Some set gets
        // at least the average number of touches, and once a set passes
        // its clock's range (255 for the packed 8-way words, 65,535 for
        // the 32-way rank rows) its ranks must have been renormalized.
        let touches = (after.hits + after.fills + after.random_fills)
            - (before.hits + before.fills + before.random_fills);
        let clock_range = if config.ways() <= 8 { 255 } else { 65_535 };
        assert!(
            touches / config.sets() as u64 > clock_range,
            "[{name}] {touches} touches cannot force a renormalization"
        );
        assert_eq!(
            allocations, 0,
            "[{name}] the steady-state translation path allocated {allocations} times"
        );
    }
}
