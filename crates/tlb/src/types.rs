//! Core identifier types shared by the TLB designs and the system
//! simulator.

use std::fmt;

/// Size of a memory page in bytes (the paper uses standard 4 KiB pages).
pub const PAGE_SIZE: u64 = 4096;

/// Number of address bits within a page.
pub const PAGE_SHIFT: u32 = 12;

/// A virtual page number — a virtual address with the page offset removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The virtual page containing a virtual address.
    #[inline]
    pub fn of_addr(vaddr: u64) -> Vpn {
        Vpn(vaddr >> PAGE_SHIFT)
    }

    /// The base virtual address of this page.
    pub fn base_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }

    /// The page `offset` pages after this one.
    pub fn offset(self, offset: u64) -> Vpn {
        Vpn(self.0 + offset)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl fmt::LowerHex for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A physical page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl Ppn {
    /// The base physical address of this frame.
    pub fn base_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn:{:#x}", self.0)
    }
}

impl fmt::LowerHex for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// An address-space identifier (the RISC-V ASID), distinguishing processes
/// in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(pub u16);

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid:{}", self.0)
    }
}

/// Translation granularity: base 4 KiB pages, 2 MiB superpages (Sv39's
/// level-1 megapages), or 1 GiB gigapages (level-2). Commercial TLBs
/// support multiple page sizes with distinct per-class geometry; the
/// paper notes large pages for crypto libraries as a possible software
/// defense (Section 2.3) — superpage support lets the reproduction
/// evaluate that, and the page-size classes form the entry-class axis of
/// the multi-size split TLB design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// A 4 KiB base page.
    #[default]
    Base,
    /// A 2 MiB megapage (512 base pages).
    Mega,
    /// A 1 GiB gigapage (512 × 512 base pages).
    Giga,
}

impl PageSize {
    /// Every page-size class, smallest first (the lookup probe order).
    pub const ALL: [PageSize; 3] = [PageSize::Base, PageSize::Mega, PageSize::Giga];

    /// Base pages covered by one translation of this size.
    #[inline]
    pub fn span_pages(self) -> u64 {
        match self {
            PageSize::Base => 1,
            PageSize::Mega => 512,
            PageSize::Giga => 512 * 512,
        }
    }

    /// Bits of the base-page VPN below this size's frame number (0, 9,
    /// or 18): the shift the set index of a sized entry is taken above.
    #[inline]
    pub fn span_shift(self) -> u32 {
        match self {
            PageSize::Base => 0,
            PageSize::Mega => 9,
            PageSize::Giga => 18,
        }
    }

    /// Aligns a VPN down to this size's boundary.
    #[inline]
    pub fn align(self, vpn: Vpn) -> Vpn {
        Vpn(vpn.0 & !(self.span_pages() - 1))
    }

    /// Stable lowercase label ("4k" / "2m" / "1g").
    pub fn label(self) -> &'static str {
        match self {
            PageSize::Base => "4k",
            PageSize::Mega => "2m",
            PageSize::Giga => "1g",
        }
    }
}

/// One TLB entry: a cached `(vpn, asid) → ppn` translation plus the
/// Random-Fill TLB's *Sec* bit (Section 4.2.2 of the paper) and the
/// translation's page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbEntry {
    /// Whether this entry holds a valid translation.
    pub valid: bool,
    /// The virtual page number (aligned to the entry's page size).
    pub vpn: Vpn,
    /// The physical page number.
    pub ppn: Ppn,
    /// The owning address space.
    pub asid: Asid,
    /// The RF TLB's *Sec* bit: set when the translation is within the
    /// configured secure region. Always `false` in the SA and SP designs.
    pub sec: bool,
    /// The translation's page size.
    pub size: PageSize,
}

impl TlbEntry {
    /// An invalid (empty) entry.
    pub fn invalid() -> TlbEntry {
        TlbEntry::default()
    }

    /// Whether this entry matches a request: valid with both the page
    /// address (at the entry's granularity) and the process ID equal.
    pub fn matches(&self, asid: Asid, vpn: Vpn) -> bool {
        self.valid && self.vpn == self.size.align(vpn) && self.asid == asid
    }
}

/// The secure virtual-page region protected by the Random-Fill TLB.
///
/// The RF TLB adds registers holding the start (`sbase`) and size
/// (`ssize`, in pages) of the security-critical memory range; a trusted OS
/// programs them when a victim program needs protection (Section 4.2.2 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecureRegion {
    /// First virtual page of the region (`sbase`).
    pub base: Vpn,
    /// Region length in pages (`ssize`).
    pub pages: u64,
}

/// Why a [`SecureRegion`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The region spans zero pages. An empty secure region is a
    /// configuration error, not a disabled one (use `Option::None` for
    /// "no region").
    Empty,
    /// `base + pages` overflows the virtual page-number space, so the
    /// region's upper bound is not representable.
    Overflow {
        /// The requested first page.
        base: Vpn,
        /// The requested length in pages.
        pages: u64,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::Empty => write!(f, "secure region must span at least one page"),
            RegionError::Overflow { base, pages } => write!(
                f,
                "secure region of {pages} pages at {base} overflows the page-number space"
            ),
        }
    }
}

impl std::error::Error for RegionError {}

impl SecureRegion {
    /// A region of `pages` pages starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`SecureRegion::try_new`] rejects.
    pub fn new(base: Vpn, pages: u64) -> SecureRegion {
        match SecureRegion::try_new(base, pages) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// A region of `pages` pages starting at `base`, rejecting degenerate
    /// geometry with a typed error.
    ///
    /// # Errors
    ///
    /// [`RegionError::Empty`] if `pages` is zero; [`RegionError::Overflow`]
    /// if the region's end page is not representable.
    pub fn try_new(base: Vpn, pages: u64) -> Result<SecureRegion, RegionError> {
        if pages == 0 {
            return Err(RegionError::Empty);
        }
        if base.0.checked_add(pages).is_none() {
            return Err(RegionError::Overflow { base, pages });
        }
        Ok(SecureRegion { base, pages })
    }

    /// Whether `vpn` lies within the region.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn.0 >= self.base.0 && vpn.0 < self.base.0 + self.pages
    }

    /// Iterates over the region's pages.
    pub fn iter(&self) -> impl Iterator<Item = Vpn> + '_ {
        (0..self.pages).map(move |i| self.base.offset(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_region_bounds_are_half_open() {
        let r = SecureRegion::new(Vpn(10), 3);
        assert!(!r.contains(Vpn(9)));
        assert!(r.contains(Vpn(10)));
        assert!(r.contains(Vpn(12)));
        assert!(!r.contains(Vpn(13)));
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_secure_region_panics() {
        SecureRegion::new(Vpn(0), 0);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(SecureRegion::try_new(Vpn(0), 0), Err(RegionError::Empty));
        let overflow = SecureRegion::try_new(Vpn(u64::MAX), 2);
        assert!(matches!(overflow, Err(RegionError::Overflow { .. })));
        assert!(overflow
            .unwrap_err()
            .to_string()
            .contains("overflows the page-number space"));
        assert!(SecureRegion::try_new(Vpn(10), 3).is_ok());
    }

    #[test]
    fn vpn_of_addr_strips_the_page_offset() {
        assert_eq!(Vpn::of_addr(0x1234_5678), Vpn(0x12345));
        assert_eq!(Vpn::of_addr(0xfff), Vpn(0));
        assert_eq!(Vpn(0x12345).base_addr(), 0x1234_5000);
    }

    #[test]
    fn entry_matching_requires_valid_vpn_and_asid() {
        let e = TlbEntry {
            valid: true,
            vpn: Vpn(7),
            ppn: Ppn(9),
            asid: Asid(1),
            sec: false,
            size: PageSize::Base,
        };
        assert!(e.matches(Asid(1), Vpn(7)));
        assert!(!e.matches(Asid(2), Vpn(7)), "asid must match");
        assert!(!e.matches(Asid(1), Vpn(8)), "vpn must match");
        let mut inv = e;
        inv.valid = false;
        assert!(!inv.matches(Asid(1), Vpn(7)), "invalid never matches");
    }

    #[test]
    fn page_constants_are_consistent() {
        assert_eq!(1u64 << PAGE_SHIFT, PAGE_SIZE);
    }

    #[test]
    fn page_size_classes_are_consistent() {
        for size in PageSize::ALL {
            assert_eq!(size.span_pages(), 1 << size.span_shift());
            // Alignment clears exactly the span bits.
            let vpn = Vpn(0x7_3141_5926);
            assert_eq!(
                size.align(vpn).0,
                vpn.0 >> size.span_shift() << size.span_shift()
            );
            assert_eq!(size.align(size.align(vpn)), size.align(vpn));
        }
        assert_eq!(PageSize::Giga.span_pages(), 262_144);
    }

    #[test]
    fn giga_entries_match_at_gigapage_granularity() {
        let e = TlbEntry {
            valid: true,
            vpn: PageSize::Giga.align(Vpn(0x4_0000)),
            ppn: Ppn(0x9),
            asid: Asid(1),
            sec: false,
            size: PageSize::Giga,
        };
        assert!(e.matches(Asid(1), Vpn(0x4_0000)));
        assert!(e.matches(Asid(1), Vpn(0x7_ffff)), "whole gigapage matches");
        assert!(!e.matches(Asid(1), Vpn(0x8_0000)), "next gigapage misses");
    }
}
