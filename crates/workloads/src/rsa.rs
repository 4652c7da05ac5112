//! RSA on the traced MPI arithmetic — the paper's victim workload.
//!
//! The embedded keypairs are genuine (generated offline from real primes
//! with `d = e⁻¹ mod φ(n)`), so decryption actually inverts encryption;
//! the tests verify the round trip. Decryption follows the Figure 5
//! `_gcry_mpi_powm` structure via [`crate::mpi::modexp::mod_pow`], and
//! [`decrypt_traced`] converts the limb-access stream into simulated
//! machine instructions, segmented into per-exponent-bit windows for the
//! attack harness.

use std::ops::Range;

use sectlb_sim::cpu::Instr;
use sectlb_tlb::types::{SecureRegion, Vpn, PAGE_SIZE};

use crate::mpi::modexp::mod_pow;
use crate::mpi::{BufId, MemSink, Mpi, NullSink, Routine};

/// An RSA keypair (little-endian 64-bit limbs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKey {
    /// Modulus `n = p·q`.
    pub n: Vec<u64>,
    /// Public exponent `e`.
    pub e: Vec<u64>,
    /// Secret exponent `d`.
    pub d: Vec<u64>,
}

impl RsaKey {
    /// A genuine 128-bit keypair (fast; used by tests and examples).
    pub fn demo_128() -> RsaKey {
        RsaKey {
            n: vec![0xb678cfcaa57ba653, 0x8a67d7968d72f0c8],
            e: vec![65537],
            d: vec![0x8546b94f0d2912b1, 0x7d065ae03bfc6576],
        }
    }

    /// A genuine 512-bit keypair (the performance-evaluation victim).
    pub fn demo_512() -> RsaKey {
        RsaKey {
            n: vec![
                0xf0154a0271881d39,
                0x0de286042bdce81c,
                0x7fe21951d977aea2,
                0x7631f2c9ce811e11,
                0x630b77769db35bb6,
                0x9ec4d5b248caf1ab,
                0x1d561239833a3ddb,
                0xb23b15900b911ee8,
            ],
            e: vec![65537],
            d: vec![
                0x278c70ab62412281,
                0x1ba9c2412eeff917,
                0x5e4cf0482a7c936a,
                0x62ca750d84dd9dda,
                0xcb6860ae905b0fd9,
                0xb9f6b813fe6b8913,
                0x4441c5ae4b1bc0e3,
                0x6e059b21f881f51a,
            ],
        }
    }

    /// The secret exponent's bits, most significant first (ground truth
    /// for attack-accuracy scoring).
    pub fn secret_bits(&self) -> Vec<bool> {
        let d = Mpi::from_limbs(BufId::Exponent, &self.d);
        let mut s = NullSink;
        (0..d.bit_len()).rev().map(|i| d.bit(i, &mut s)).collect()
    }
}

/// Where each MPI buffer lives in the victim's simulated address space.
///
/// The buffers whose access pattern matters are placed on *distinct pages
/// with distinct TLB set indices* (for a 4-set TLB): the pointer block in
/// set 0 and the working buffers spread over sets 1–3, so the per-bit
/// pointer-block signal is isolated to one set — the situation TLBleed
/// exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsaLayout {
    base: Vpn,
}

impl RsaLayout {
    /// The default layout at page `0x400`.
    pub fn new() -> RsaLayout {
        RsaLayout { base: Vpn(0x400) }
    }

    /// A layout at a custom base page.
    pub fn at(base: Vpn) -> RsaLayout {
        RsaLayout { base }
    }

    /// The page of a code routine. The code segment sits `0x80` pages
    /// above the data segment; the bit-dependent pointer-swap routine is
    /// alone in TLB set 0 of a 4-set I-TLB, mirroring the data layout.
    pub fn code_page(&self, routine: Routine) -> Vpn {
        let offset = match routine {
            Routine::PointerSwap => 0, // set 0: the attacked code page
            Routine::Main => 1,        // set 1
            Routine::Square => 2,      // set 2
            Routine::Multiply => 3,    // set 3
            Routine::Reduce => 5,      // set 1
        };
        self.base.offset(0x80 + offset)
    }

    /// The code page carrying the per-bit instruction-fetch signal.
    pub fn signal_code_page(&self) -> Vpn {
        self.code_page(Routine::PointerSwap)
    }

    /// The 3-page secure *code* region (pointer swap, main, square) for
    /// protecting the instruction TLB.
    pub fn secure_code_region(&self) -> SecureRegion {
        SecureRegion::new(self.base.offset(0x80), 3)
    }

    /// Every code page the workload executes from (for pre-mapping).
    pub fn all_code_pages(&self) -> Vec<Vpn> {
        let mut pages: Vec<Vpn> = [
            Routine::Main,
            Routine::Square,
            Routine::Multiply,
            Routine::Reduce,
            Routine::PointerSwap,
        ]
        .iter()
        .map(|&r| self.code_page(r))
        .collect();
        pages.sort();
        pages.dedup();
        pages
    }

    /// The page of a buffer.
    pub fn page(&self, buf: BufId) -> Vpn {
        let offset = match buf {
            BufId::PtrBlock => 0, // set 0: the attacked page
            BufId::Rp => 1,       // set 1
            BufId::Xp => 2,       // set 2
            BufId::Tp => 3,       // set 3
            BufId::Base => 5,     // set 1
            BufId::Modulus => 6,  // set 2
            BufId::Exponent => 7, // set 3
            // Scratch pages at 9, 11, 13, ... — sets 1 and 3, never set 0.
            BufId::Scratch(i) => 9 + 2 * u64::from(i),
        };
        self.base.offset(offset)
    }

    /// The simulated virtual address of a limb.
    pub fn vaddr(&self, buf: BufId, limb: usize) -> u64 {
        self.page(buf).base_addr() + (limb as u64 * 8) % PAGE_SIZE
    }

    /// The page carrying the per-bit signal (the pointer block).
    pub fn signal_page(&self) -> Vpn {
        self.page(BufId::PtrBlock)
    }

    /// The 3-page secure region to protect (Section 6.2's SecRSA: the
    /// `.data` pages tied to the exponent-dependent pointer dance —
    /// pointer block, `rp`, `xp`).
    pub fn secure_region(&self) -> SecureRegion {
        SecureRegion::new(self.base, 3)
    }

    /// Every page the workload touches (for pre-mapping).
    pub fn all_pages(&self) -> Vec<Vpn> {
        let mut pages: Vec<Vpn> = [
            BufId::PtrBlock,
            BufId::Rp,
            BufId::Xp,
            BufId::Tp,
            BufId::Base,
            BufId::Modulus,
            BufId::Exponent,
            BufId::Scratch(0),
            BufId::Scratch(1),
            BufId::Scratch(2),
        ]
        .iter()
        .map(|&b| self.page(b))
        .collect();
        pages.sort();
        pages.dedup();
        pages
    }
}

impl Default for RsaLayout {
    fn default() -> RsaLayout {
        RsaLayout::new()
    }
}

/// Encrypts `message` (untraced; the attacker-visible operation).
///
/// # Panics
///
/// Panics if `message >= n`.
pub fn encrypt(key: &RsaKey, message: &[u64]) -> Vec<u64> {
    let n = Mpi::from_limbs(BufId::Modulus, &key.n);
    let m = Mpi::from_limbs(BufId::Base, message);
    assert!(
        crate::mpi::arith::cmp(&m, &n, &mut NullSink) == std::cmp::Ordering::Less,
        "message must be smaller than the modulus"
    );
    let e = Mpi::from_limbs(BufId::Exponent, &key.e);
    crate::mpi::modexp::mod_pow_plain(&m, &e, &n, &mut NullSink)
        .limbs()
        .to_vec()
}

/// Decrypts `ciphertext` (untraced).
pub fn decrypt(key: &RsaKey, ciphertext: &[u64]) -> Vec<u64> {
    let n = Mpi::from_limbs(BufId::Modulus, &key.n);
    let c = Mpi::from_limbs(BufId::Base, ciphertext);
    let d = Mpi::from_limbs(BufId::Exponent, &key.d);
    crate::mpi::modexp::mod_pow_plain(&c, &d, &n, &mut NullSink)
        .limbs()
        .to_vec()
}

/// One exponent bit's worth of decryption memory activity.
#[derive(Debug, Clone)]
pub struct BitWindow {
    /// Bit position in the exponent (MSB first across windows).
    pub bit_index: usize,
    /// The secret bit value (ground truth).
    pub bit: bool,
    /// Where this iteration's instructions sit in
    /// [`TracedDecryption::instrs`].
    pub span: Range<usize>,
}

/// A fully traced decryption: one instruction trace, cut into per-bit
/// windows.
#[derive(Debug, Clone)]
pub struct TracedDecryption {
    /// The recovered plaintext (for correctness checks).
    pub plaintext: Vec<u64>,
    /// Every instruction of the decryption, window after window.
    pub instrs: Vec<Instr>,
    /// Per-bit windows, MSB first; their spans tile `instrs`.
    pub windows: Vec<BitWindow>,
}

impl TracedDecryption {
    /// The memory instructions of one window's iteration.
    pub fn window_instrs(&self, window: &BitWindow) -> &[Instr] {
        &self.instrs[window.span.clone()]
    }
}

/// ALU instructions modeled per limb access: the multiply/add/carry work
/// of `_gcry_mpih_mul` that surrounds every load and store. This sets the
/// memory-instruction density of the emitted trace (1 in 3), which in turn
/// scales IPC and MPKI the way real instruction streams do.
pub const COMPUTE_PER_ACCESS: u64 = 2;

struct TraceSink {
    layout: RsaLayout,
    instrs: Vec<Instr>,
}

impl TraceSink {
    fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
        self.instrs.push(Instr::Compute(COMPUTE_PER_ACCESS));
    }
}

impl MemSink for TraceSink {
    fn read(&mut self, buf: BufId, limb: usize) {
        self.push(Instr::Load(self.layout.vaddr(buf, limb)));
    }
    fn write(&mut self, buf: BufId, limb: usize) {
        self.push(Instr::Store(self.layout.vaddr(buf, limb)));
    }
    fn enter(&mut self, routine: Routine) {
        // A control transfer; on machines with an I-TLB every subsequent
        // instruction fetches from this routine's code page.
        self.instrs
            .push(Instr::JumpTo(self.layout.code_page(routine).base_addr()));
    }
}

/// Decrypts `ciphertext` while emitting the memory trace in one pass:
/// every instruction lands in one `Vec`, and each exponent bit's window
/// is recorded by where it ends.
pub fn decrypt_traced(key: &RsaKey, ciphertext: &[u64], layout: RsaLayout) -> TracedDecryption {
    let n = Mpi::from_limbs(BufId::Modulus, &key.n);
    let c = Mpi::from_limbs(BufId::Base, ciphertext);
    let d = Mpi::from_limbs(BufId::Exponent, &key.d);
    let mut windows = Vec::with_capacity(d.bit_len());
    let mut sink = TraceSink {
        layout,
        instrs: Vec::new(),
    };
    let mut start = 0;
    let result = mod_pow(&c, &d, &n, &mut sink, |sink, bit_index, bit| {
        let end = sink.instrs.len();
        windows.push(BitWindow {
            bit_index,
            bit,
            span: start..end,
        });
        start = end;
    });
    // The trace is the windows: nothing after the last bit belongs to it.
    sink.instrs.truncate(start);
    TracedDecryption {
        plaintext: result.limbs().to_vec(),
        instrs: sink.instrs,
        windows,
    }
}

/// The flat instruction stream of `runs` back-to-back decryptions (the
/// Section 6.2 "RSA decryption routine run 50/100/150 times" workload):
/// [`decrypt_traced`]'s trace repeated, in one exact-size allocation.
pub fn decryption_program(
    key: &RsaKey,
    ciphertext: &[u64],
    layout: RsaLayout,
    runs: usize,
) -> Vec<Instr> {
    decrypt_traced(key, ciphertext, layout).instrs.repeat(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_128_roundtrip() {
        let key = RsaKey::demo_128();
        let message = vec![0x1122334455667788u64, 0x1];
        let c = encrypt(&key, &message);
        assert_ne!(c, message);
        assert_eq!(decrypt(&key, &c), message);
    }

    #[test]
    fn demo_512_roundtrip() {
        let key = RsaKey::demo_512();
        let message = vec![0xdeadbeefu64, 0, 0, 0, 0, 0, 0, 0x42];
        let c = encrypt(&key, &message);
        assert_eq!(decrypt(&key, &c), message);
    }

    #[test]
    #[should_panic(expected = "smaller than the modulus")]
    fn oversized_message_is_rejected() {
        let key = RsaKey::demo_128();
        encrypt(&key, &[u64::MAX, u64::MAX, 1]);
    }

    #[test]
    fn traced_decryption_matches_untraced() {
        let key = RsaKey::demo_128();
        let message = vec![12345u64];
        let c = encrypt(&key, &message);
        let traced = decrypt_traced(&key, &c, RsaLayout::new());
        assert_eq!(traced.plaintext, message);
    }

    #[test]
    fn windows_cover_every_exponent_bit() {
        let key = RsaKey::demo_128();
        let c = encrypt(&key, &[7]);
        let traced = decrypt_traced(&key, &c, RsaLayout::new());
        assert_eq!(traced.windows.len(), key.secret_bits().len());
        let ground_truth: Vec<bool> = traced.windows.iter().map(|w| w.bit).collect();
        assert_eq!(ground_truth, key.secret_bits());
    }

    #[test]
    fn signal_page_touched_iff_bit_is_one() {
        let key = RsaKey::demo_128();
        let layout = RsaLayout::new();
        let signal = layout.signal_page().base_addr();
        let c = encrypt(&key, &[7]);
        let traced = decrypt_traced(&key, &c, layout);
        for w in &traced.windows {
            let touched = traced.window_instrs(w).iter().any(|i| {
                matches!(i, Instr::Load(a) | Instr::Store(a)
                         if *a >= signal && *a < signal + PAGE_SIZE)
            });
            assert_eq!(touched, w.bit, "window for bit {}", w.bit_index);
        }
    }

    #[test]
    fn layout_pages_are_distinct_and_signal_is_alone_in_its_set() {
        let layout = RsaLayout::new();
        let pages = layout.all_pages();
        let mut dedup = pages.clone();
        dedup.dedup();
        assert_eq!(pages.len(), dedup.len(), "pages must be distinct");
        // In a 4-set TLB, no other buffer shares the signal page's set.
        let sets = 4u64;
        let signal_set = layout.signal_page().0 % sets;
        for p in pages {
            if p != layout.signal_page() {
                assert_ne!(p.0 % sets, signal_set, "{p} pollutes the signal set");
            }
        }
    }

    #[test]
    fn secure_region_covers_the_signal_page() {
        let layout = RsaLayout::new();
        assert!(layout.secure_region().contains(layout.signal_page()));
        assert_eq!(layout.secure_region().pages, 3);
    }

    #[test]
    fn decryption_program_is_the_windowed_trace_repeated() {
        let key = RsaKey::demo_128();
        let c = encrypt(&key, &[3]);
        let traced = decrypt_traced(&key, &c, RsaLayout::new());
        let windows: Vec<Instr> = traced
            .windows
            .iter()
            .flat_map(|w| traced.window_instrs(w).iter().copied())
            .collect();
        assert_eq!(windows, traced.instrs, "the windows tile the trace");
        for runs in [0, 1, 2, 3] {
            let program = decryption_program(&key, &c, RsaLayout::new(), runs);
            assert_eq!(program.len(), traced.instrs.len() * runs);
            assert_eq!(program.capacity(), program.len(), "one exact allocation");
            for run in program.chunks(traced.instrs.len()) {
                assert_eq!(run, traced.instrs);
            }
        }
    }
}
