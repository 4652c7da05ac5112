//! Figure 7 cells stream their instructions: every cell simulates exactly
//! what its materialized programs did, and the heap a cell holds does not
//! grow with its decryption count.
//!
//! The reference builds a cell's programs as `Vec`s — `decryption_program`
//! and `SpecBenchmark::trace` — and runs them with `run_round_robin`, on a
//! machine set up as `run_cell_oracle` sets one up. A per-thread
//! byte-tracking allocator measures the peak live heap of a co-run at two
//! decryption counts. Machines run with the shadow oracle off (debug
//! builds arm it by default, which costs far more than the cells), except
//! for one armed cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sectlb_bench::perf::{cell_machine, run_cell_oracle, Workload};
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_sim::sched::{run_round_robin, run_sources, Cycled, Program};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::Vpn;
use sectlb_workloads::rsa::{decrypt_traced, decryption_program, encrypt, RsaKey, RsaLayout};
use sectlb_workloads::spec_like::SpecBenchmark;

/// Forwards to the system allocator, tracking the live bytes of the
/// thread whose `TRACKING` flag is set and their peak.
struct TrackingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down, when they can no longer be read.
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + delta);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("allocation size fits i64")
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the bookkeeping touches only const-initialized thread-local cells.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-bytes(layout.size()));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// The most heap `f` holds at once on this thread, in bytes.
fn peak_heap_during(f: impl FnOnce()) -> i64 {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    TRACKING.with(|tracking| tracking.set(true));
    f();
    TRACKING.with(|tracking| tracking.set(false));
    PEAK.with(Cell::get)
}

/// Where `run_cell_oracle` maps the co-runner's region.
const SPEC_BASE: Vpn = Vpn(0x10_000);

/// `run_cell_oracle`'s round-robin quantum.
const QUANTUM: usize = 200;

/// How a cell's instructions reach the scheduler.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// Whole-program `Vec`s, through `run_round_robin`.
    Materialized,
    /// One decryption trace cycled and the SPEC-like stream, through
    /// `run_sources`.
    Streamed,
}

/// One Figure 7 cell set up as `run_cell_oracle` sets it up, fed by
/// `feed` at `quantum`.
fn reference(
    (design, config, workload): (TlbDesign, TlbConfig, Workload),
    runs: usize,
    feed: Feed,
    quantum: usize,
    oracle: bool,
) -> Machine {
    let key = RsaKey::demo_128();
    let layout = RsaLayout::new();
    let mut m = MachineBuilder::new()
        .design(design)
        .tlb_config(config)
        .seed(0xf167 ^ runs as u64)
        .oracle(oracle)
        .build();
    let rsa_asid = m.os_mut().create_process();
    for page in layout.all_pages() {
        m.os_mut().map_page(rsa_asid, page).expect("fresh machine");
    }
    if workload.secure {
        m.protect_victim(rsa_asid, layout.secure_region())
            .expect("fresh machine");
    }
    let ciphertext = encrypt(&key, &[0xfeed]);
    let Some(bench) = workload.co_runner else {
        m.exec(Instr::SetAsid(rsa_asid));
        m.run(&decryption_program(&key, &ciphertext, layout, runs));
        return m;
    };
    let spec_asid = m.os_mut().create_process();
    m.os_mut()
        .map_region(spec_asid, SPEC_BASE, bench.footprint_pages())
        .expect("fresh machine");
    let spec_seed = 0x5bec ^ runs as u64;
    match feed {
        Feed::Materialized => {
            let rsa = decryption_program(&key, &ciphertext, layout, runs);
            let spec = bench.trace(SPEC_BASE, rsa.len() / 3, spec_seed);
            let programs = [Program::new(rsa_asid, rsa), Program::new(spec_asid, spec)];
            run_round_robin(&mut m, &programs, quantum);
        }
        Feed::Streamed => {
            let trace = decrypt_traced(&key, &ciphertext, layout).instrs;
            let accesses = trace.len() * runs / 3;
            run_sources(
                &mut m,
                &mut [
                    (rsa_asid, &mut Cycled::new(&trace, runs)),
                    (spec_asid, &mut bench.stream(SPEC_BASE, accesses, spec_seed)),
                ],
                quantum,
            );
        }
    }
    m
}

/// Figure 7's 19 (design, geometry) pairs × its 10 workloads.
fn figure7_cells() -> Vec<(TlbDesign, TlbConfig, Workload)> {
    let mut cells = Vec::new();
    for design in TlbDesign::ALL {
        for config in TlbConfig::paper_performance_configs() {
            if config.entries() == 1 && design != TlbDesign::Sa {
                continue;
            }
            for workload in Workload::all() {
                cells.push((design, config, workload));
            }
        }
    }
    cells
}

fn assert_same(streamed: &Machine, materialized: &Machine, what: &str) {
    assert_eq!(streamed.stats(), materialized.stats(), "{what}: ExecStats");
    assert_eq!(
        streamed.tlb_stats(),
        materialized.tlb_stats(),
        "{what}: TlbStats"
    );
}

fn label((design, config, workload): (TlbDesign, TlbConfig, Workload), runs: usize) -> String {
    format!("{design} {} {} x{runs}", config.label(), workload.label())
}

#[test]
fn every_streamed_cell_simulates_its_materialized_programs() {
    let cells = figure7_cells();
    assert_eq!(cells.len(), 190);
    for cell in cells {
        let (design, config, workload) = cell;
        let streamed = cell_machine(design, config, workload, 1, None, |b| b.oracle(false))
            .expect("cell sets up");
        let materialized = reference(cell, 1, Feed::Materialized, QUANTUM, false);
        assert_same(&streamed, &materialized, &label(cell, 1));
    }
}

#[test]
fn longer_cells_match_bit_for_bit() {
    let g = TlbConfig::paper_performance_configs();
    let alone = Workload {
        secure: true,
        co_runner: None,
    };
    let co_run = |secure, bench| Workload {
        secure,
        co_runner: Some(bench),
    };
    let cells = [
        ((TlbDesign::Sa, g[0], alone), 2),
        (
            (TlbDesign::Rf, g[1], co_run(true, SpecBenchmark::Omnetpp)),
            2,
        ),
        (
            (TlbDesign::Sp, g[3], co_run(false, SpecBenchmark::Povray)),
            3,
        ),
        (
            (TlbDesign::Rf, g[6], co_run(true, SpecBenchmark::CactusAdm)),
            3,
        ),
    ];
    for (cell, runs) in cells {
        let (design, config, workload) = cell;
        let what = label(cell, runs);
        let streamed = cell_machine(design, config, workload, runs, None, |b| b.oracle(false))
            .expect("cell sets up");
        let materialized = reference(cell, runs, Feed::Materialized, QUANTUM, false);
        assert_same(&streamed, &materialized, &what);
        let printed = run_cell_oracle(design, config, workload, runs, None, |b| b.oracle(false))
            .expect("cell sets up");
        let ipc = materialized.ipc().expect("instructions retired");
        let mpki = materialized.mpki().expect("instructions retired");
        assert_eq!(printed.ipc.to_bits(), ipc.to_bits(), "{what}: IPC");
        assert_eq!(printed.mpki.to_bits(), mpki.to_bits(), "{what}: MPKI");
    }
}

#[test]
fn an_odd_quantum_slices_both_feeds_alike() {
    let config = TlbConfig::sa(32, 4).expect("valid");
    for bench in SpecBenchmark::ALL {
        let workload = Workload {
            secure: true,
            co_runner: Some(bench),
        };
        let cell = (TlbDesign::Rf, config, workload);
        let streamed = reference(cell, 1, Feed::Streamed, 7, false);
        let materialized = reference(cell, 1, Feed::Materialized, 7, false);
        assert_same(&streamed, &materialized, &label(cell, 1));
    }
}

#[test]
fn an_armed_cell_matches_and_stays_clean() {
    let cell = (
        TlbDesign::Sa,
        TlbConfig::single_entry(),
        Workload {
            secure: false,
            co_runner: None,
        },
    );
    let streamed =
        cell_machine(cell.0, cell.1, cell.2, 1, None, |b| b.oracle(true)).expect("cell sets up");
    let materialized = reference(cell, 1, Feed::Materialized, QUANTUM, true);
    assert!(streamed.oracle_enabled());
    assert_eq!(streamed.oracle_violations(), []);
    assert_same(&streamed, &materialized, &label(cell, 1));
}

#[test]
fn a_co_run_holds_the_same_heap_at_any_decryption_count() {
    let workload = Workload {
        secure: true,
        co_runner: Some(SpecBenchmark::Omnetpp),
    };
    let peak = |runs| {
        peak_heap_during(|| {
            let config = TlbConfig::sa(32, 4).expect("valid");
            run_cell_oracle(TlbDesign::Sa, config, workload, runs, None, |b| {
                b.oracle(false)
            })
            .expect("cell sets up");
        })
    };
    let (two, twenty) = (peak(2), peak(20));
    assert!(
        (twenty - two).abs() <= 64 * 1024,
        "peak live heap: {two} B at 2 runs, {twenty} B at 20"
    );
}
