//! The page-walk memo against the page tables themselves.
//!
//! `Os` remembers each walk's result for one version of its page tables.
//! This test drives two lineages of OSes through random interleavings of
//! every writer — region, page, megapage and gigapage maps, unmaps,
//! `process_mut` edits, auto-map faults, process creation — and of
//! `clone` and `clone_from` across them, and after every step checks
//! translations against a pure `PageTable::walk` of the current tables:
//! the PPN, the page size, the cycles charged, and the auto-map's new
//! mapping. A writer that forgot to move the version would let a
//! remembered walk outlive its page.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sectlb_sim::os::Os;
use sectlb_sim::page_table::{PteFlags, LEVELS, MAX_VPN};
use sectlb_sim::walker::{OsWalker, WalkerConfig};
use sectlb_tlb::tlb_trait::{Translator, WalkResult};
use sectlb_tlb::types::{Asid, PageSize, Ppn, Vpn};

const GIGA: u64 = 1 << 18;

/// A VPN from a small pool, so walks repeat and the memo answers: base
/// pages of two regions, megapage spans, a gigapage span and the first
/// VPN past the Sv39 range.
fn vpn(rng: &mut SmallRng) -> Vpn {
    Vpn(match rng.gen_range(0..6) {
        0 => 0x10 + rng.gen_range(0..24),
        1 => 0x3f0 + rng.gen_range(0..32),
        2 => 0x200 * rng.gen_range(1..4) + rng.gen_range(0..3),
        3 => GIGA + rng.gen_range(0..4) * 0x200 + rng.gen_range(0..2),
        4 => MAX_VPN + 1,
        _ => 0x10_000 + rng.gen_range(0..8),
    })
}

/// An ASID of a live process, sometimes one past the last.
fn asid(rng: &mut SmallRng, os: &Os) -> Asid {
    let live = os.asids().count() as u16;
    Asid(rng.gen_range(0..live + 2))
}

/// Translates `(asid, vpn)` through the memo and checks it against a
/// pure walk of the tables before and after.
fn check(os: &mut Os, config: WalkerConfig, asid: Asid, vpn: Vpn, step: usize) {
    let cycles = |levels: u32| config.cycles_per_level * u64::from(levels);
    let before = os.process(asid).ok().map(|p| p.page_table().walk(vpn));
    let mapped = |os: &Os| {
        os.process(asid)
            .map_or(0, |p| p.page_table().mapped_pages())
    };
    let pages = mapped(os);
    let got = OsWalker::new(os, config).translate(asid, vpn);
    let want = match before {
        None => WalkResult::fault(config.cycles_per_level),
        Some(walk) => match walk.pte {
            Some(pte) => WalkResult {
                ppn: Some(pte.ppn),
                cycles: cycles(walk.levels_accessed),
                size: pte.size,
            },
            None if os.auto_map && vpn.0 <= MAX_VPN => {
                let pte = os
                    .process(asid)
                    .expect("live")
                    .page_table()
                    .walk(vpn)
                    .pte
                    .unwrap_or_else(|| panic!("step {step}: {asid} {vpn} was not auto-mapped"));
                assert_eq!(mapped(os), pages + 1, "step {step}: one page auto-mapped");
                WalkResult {
                    ppn: Some(pte.ppn),
                    cycles: cycles(LEVELS),
                    size: PageSize::Base,
                }
            }
            None => WalkResult::fault(cycles(walk.levels_accessed)),
        },
    };
    assert_eq!(got, want, "step {step}: translate({asid}, {vpn})");
}

/// One random writer, clone or restore on `oses`.
fn mutate(rng: &mut SmallRng, oses: &mut [Os]) {
    let i = rng.gen_range(0..oses.len());
    let j = rng.gen_range(0..oses.len());
    if i != j && rng.gen_range(0..12) == 0 {
        if rng.gen_bool(0.5) {
            oses[j] = oses[i].clone();
        } else {
            let source = oses[i].clone();
            oses[j].clone_from(&source);
        }
        return;
    }
    let os = &mut oses[i];
    if os.asids().count() < 3 && rng.gen_range(0..8) == 0 {
        os.create_process();
        return;
    }
    let a = asid(rng, os);
    let v = vpn(rng);
    // Refusals (a page inside a superpage, a missing process) are part of
    // the interleaving: a refused write must leave every walk as it was.
    let _ = match rng.gen_range(0..11) {
        0 => os.map_region(a, v, rng.gen_range(1..6)),
        1 | 2 => os.map_page(a, v),
        3 | 4 => os.unmap_page(a, v).map(drop),
        5 => os.map_mega_page(a, PageSize::Mega.align(v)),
        6 => os.map_giga_page(a, PageSize::Giga.align(v)),
        7 => os.process_mut(a).map(|p| {
            p.page_table_mut().unmap(v);
        }),
        8 => os.process_mut(a).map(|p| {
            let _ =
                p.page_table_mut()
                    .map_giga(PageSize::Giga.align(v), Ppn(7), PteFlags::rw_user());
        }),
        9 => os.process_mut(a).map(|p| {
            p.page_table_mut().protect(v, PteFlags::default());
        }),
        _ => {
            os.auto_map = !os.auto_map;
            Ok(())
        }
    };
}

#[test]
fn the_memo_answers_as_a_fresh_walk_through_every_writer() {
    for seed in 0..40 {
        let mut rng = SmallRng::seed_from_u64(0x3e30 + seed);
        let mut oses = vec![Os::default(), Os::default(), Os::default()];
        for os in &mut oses {
            os.create_process();
        }
        oses[1] = oses[0].clone();
        for step in 0..400 {
            mutate(&mut rng, &mut oses);
            let config = WalkerConfig {
                cycles_per_level: [20, 7][rng.gen_range(0..2)],
            };
            for _ in 0..6 {
                let k = rng.gen_range(0..oses.len());
                let (a, v) = (asid(&mut rng, &oses[k]), vpn(&mut rng));
                check(&mut oses[k], config, a, v, step);
                // Again at once: the memo's answer now.
                check(&mut oses[k], config, a, v, step);
            }
        }
    }
}
