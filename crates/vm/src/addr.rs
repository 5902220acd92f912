//! Virtual and physical address types and page-size arithmetic.
//!
//! The paper contrasts the traditional 4 KB page with the 2 MB large page
//! supported by modern x86 processors (its Table 1 lists separate TLB entry
//! arrays for each size). Everything above this module is generic over
//! [`PageSize`], so the rest of the stack can ask "what changes when the
//! leaf page grows by a factor of 512?" without special cases.
//!
//! A [`PageSize`] is an open value — any power-of-two size a translation
//! architecture ([`crate::arch`]) declares in its ladder — rather than the
//! closed 4 KB / 2 MB pair of the original model. `PageSize::Small4K` and
//! `PageSize::Large2M` remain as aliases for the x86-64-2007 ladder's
//! rungs 0 and 1 so existing call sites keep compiling.

use core::fmt;

/// Number of bits in the in-page offset of a 4 KB page.
pub(crate) const SMALL_PAGE_SHIFT: u32 = 12;
/// Number of bits in the in-page offset of a 2 MB page.
pub(crate) const LARGE_PAGE_SHIFT: u32 = 21;
/// Bytes in a 4 KB page.
pub(crate) const SMALL_PAGE_BYTES: u64 = 1 << SMALL_PAGE_SHIFT;
/// Bytes in a 2 MB page.
pub(crate) const LARGE_PAGE_BYTES: u64 = 1 << LARGE_PAGE_SHIFT;
/// How many 4 KB pages fit in one 2 MB page (512).
pub(crate) const SMALL_PER_LARGE: u64 = LARGE_PAGE_BYTES / SMALL_PAGE_BYTES;

/// A page size supported by the simulated MMU: any power of two from 4 KB
/// up, carried as its log2. Ordering and equality follow the size.
///
/// The closed two-variant enum this used to be survives as the associated
/// constants [`Small4K`](Self::Small4K) / [`Large2M`](Self::Large2M)
/// (rungs 0 and 1 of [`crate::arch::Arch::X86_64_2007`]); new code should
/// iterate an architecture's ladder instead of naming sizes directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageSize {
    shift: u8,
}

#[allow(non_upper_case_globals)]
impl PageSize {
    /// Traditional 4 KB base page (x86-64-2007 ladder rung 0).
    pub const Small4K: PageSize = PageSize::from_shift(SMALL_PAGE_SHIFT);
    /// 2 MB large ("huge" / "super") page (x86-64-2007 ladder rung 1).
    pub const Large2M: PageSize = PageSize::from_shift(LARGE_PAGE_SHIFT);
    /// 16 KB base page (ARM64 16 KB granule).
    pub const Page16K: PageSize = PageSize::from_shift(14);
    /// 64 KB block (ARM64 4 KB granule, contiguous-bit run of 16 PTEs).
    pub const Page64K: PageSize = PageSize::from_shift(16);
    /// 32 MB block (ARM64 16 KB granule, level-1 leaf).
    pub const Page32M: PageSize = PageSize::from_shift(25);
    /// 1 GB gigantic page (x86-64 PDPT leaf).
    pub const Page1G: PageSize = PageSize::from_shift(30);

    /// The page size `2^shift` bytes. `shift` must be at least 12 (the
    /// machine-wide base frame) and below 48 (the virtual address width).
    #[inline]
    pub(crate) const fn from_shift(shift: u32) -> PageSize {
        assert!(shift >= SMALL_PAGE_SHIFT && shift < 48, "bad page shift");
        PageSize { shift: shift as u8 }
    }

    /// Size of the page in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1u64 << self.shift
    }

    /// log2 of the page size.
    #[inline]
    pub const fn shift(self) -> u32 {
        self.shift as u32
    }

    /// Mask that extracts the in-page offset.
    #[inline]
    pub(crate) const fn offset_mask(self) -> u64 {
        self.bytes() - 1
    }

    /// Buddy-allocator order of one page of this size (order 0 = 4 KB).
    /// Physical frames are 4 KB machine-wide regardless of the base
    /// granule, so a 16 KB base page is an order-2 allocation.
    #[inline]
    pub const fn buddy_order(self) -> u8 {
        (self.shift() - SMALL_PAGE_SHIFT) as u8
    }

    /// Round `len` bytes up to a whole number of pages of this size.
    #[inline]
    pub const fn round_up(self, len: u64) -> u64 {
        let m = self.offset_mask();
        (len + m) & !m
    }

    /// Number of pages of this size needed to hold `len` bytes.
    #[inline]
    pub const fn pages_for(self, len: u64) -> u64 {
        self.round_up(len) >> self.shift()
    }

    /// The x86-64-2007 ladder, small first — kept for call sites written
    /// against the original two-size model. New code should iterate
    /// [`crate::arch::MMArch::ladder`] instead.
    pub const ALL: [PageSize; 2] = [PageSize::Small4K, PageSize::Large2M];
}

impl fmt::Display for PageSize {
    /// Renders as the paper writes sizes: `4KB`, `2MB`, `1GB`, …
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shift();
        if s >= 30 {
            write!(f, "{}GB", 1u64 << (s - 30))
        } else if s >= 20 {
            write!(f, "{}MB", 1u64 << (s - 20))
        } else {
            write!(f, "{}KB", 1u64 << (s - 10))
        }
    }
}

impl fmt::Debug for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageSize({self})")
    }
}

/// A virtual address in a simulated 48-bit address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtAddr(pub u64);

/// A physical address in the simulated machine's memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysAddr(pub u64);

impl VirtAddr {
    /// Virtual page number for a given page size.
    #[inline]
    pub const fn vpn(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// Offset within the page of the given size.
    #[inline]
    pub const fn page_offset(self, size: PageSize) -> u64 {
        self.0 & size.offset_mask()
    }

    /// First address of the page (of the given size) containing `self`.
    #[inline]
    pub const fn page_base(self, size: PageSize) -> VirtAddr {
        VirtAddr(self.0 & !size.offset_mask())
    }

    /// Address `bytes` further along.
    #[inline]
    pub const fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }

    /// Is this address aligned to the given page size?
    #[inline]
    pub const fn is_aligned(self, size: PageSize) -> bool {
        self.0 & size.offset_mask() == 0
    }

    /// Index into the page-table level `level` (0 = leaf PT, 3 = root).
    ///
    /// x86-64 long mode: 9 bits per level above the 12-bit page offset.
    /// Other walk shapes index through
    /// [`crate::arch::WalkShape::pt_index`].
    #[cfg(test)]
    pub(crate) const fn pt_index(self, level: u8) -> usize {
        ((self.0 >> (SMALL_PAGE_SHIFT + 9 * level as u32)) & 0x1ff) as usize
    }
}

impl PhysAddr {
    /// Address `bytes` further along.
    #[inline]
    pub const fn add(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }

    /// First address of the frame (of the given size) containing `self`.
    #[inline]
    pub const fn frame_base(self, size: PageSize) -> PhysAddr {
        PhysAddr(self.0 & !size.offset_mask())
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#x})", self.0)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Small4K.bytes(), 4096);
        assert_eq!(PageSize::Large2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(SMALL_PER_LARGE, 512);
        assert_eq!(PageSize::Small4K.buddy_order(), 0);
        assert_eq!(PageSize::Large2M.buddy_order(), 9);
    }

    #[test]
    fn open_page_sizes_round_trip_shift() {
        for shift in [12u32, 14, 16, 21, 25, 30] {
            let s = PageSize::from_shift(shift);
            assert_eq!(s.shift(), shift);
            assert_eq!(s.bytes(), 1u64 << shift);
            assert_eq!(s.buddy_order() as u32, shift - 12);
        }
        assert_eq!(PageSize::Page16K.bytes(), 16 * 1024);
        assert_eq!(PageSize::Page64K.bytes(), 64 * 1024);
        assert_eq!(PageSize::Page32M.bytes(), 32 * 1024 * 1024);
        assert_eq!(PageSize::Page1G.bytes(), 1024 * 1024 * 1024);
        assert!(PageSize::Small4K < PageSize::Page16K);
        assert!(PageSize::Large2M < PageSize::Page1G);
    }

    #[test]
    fn display_matches_paper_spelling() {
        assert_eq!(PageSize::Small4K.to_string(), "4KB");
        assert_eq!(PageSize::Large2M.to_string(), "2MB");
        assert_eq!(PageSize::Page16K.to_string(), "16KB");
        assert_eq!(PageSize::Page64K.to_string(), "64KB");
        assert_eq!(PageSize::Page32M.to_string(), "32MB");
        assert_eq!(PageSize::Page1G.to_string(), "1GB");
    }

    #[test]
    fn round_up_and_pages_for() {
        let s = PageSize::Small4K;
        assert_eq!(s.round_up(0), 0);
        assert_eq!(s.round_up(1), 4096);
        assert_eq!(s.round_up(4096), 4096);
        assert_eq!(s.round_up(4097), 8192);
        assert_eq!(s.pages_for(1), 1);
        assert_eq!(s.pages_for(8192), 2);
        let l = PageSize::Large2M;
        assert_eq!(l.pages_for(1), 1);
        assert_eq!(l.pages_for(LARGE_PAGE_BYTES + 1), 2);
    }

    #[test]
    fn vpn_and_offset() {
        let a = VirtAddr(0x40_2345);
        assert_eq!(a.vpn(PageSize::Small4K), 0x402);
        assert_eq!(a.page_offset(PageSize::Small4K), 0x345);
        assert_eq!(a.vpn(PageSize::Large2M), 0x2);
        assert_eq!(a.page_offset(PageSize::Large2M), 0x2345);
        assert_eq!(a.page_base(PageSize::Small4K), VirtAddr(0x40_2000));
        assert_eq!(a.page_base(PageSize::Large2M), VirtAddr(0x40_0000));
    }

    #[test]
    fn pt_indices_cover_distinct_bits() {
        // VA with a distinct 9-bit group per level.
        let va = VirtAddr((1u64 << 12) | (2u64 << 21) | (3u64 << 30) | (4u64 << 39));
        assert_eq!(va.pt_index(0), 1);
        assert_eq!(va.pt_index(1), 2);
        assert_eq!(va.pt_index(2), 3);
        assert_eq!(va.pt_index(3), 4);
    }

    #[test]
    fn alignment_checks() {
        assert!(VirtAddr(0x200000).is_aligned(PageSize::Large2M));
        assert!(!VirtAddr(0x201000).is_aligned(PageSize::Large2M));
        assert!(VirtAddr(0x201000).is_aligned(PageSize::Small4K));
    }

    #[test]
    fn phys_frame_math() {
        let p = PhysAddr(0x40_2345);
        assert_eq!(p.frame_base(PageSize::Large2M), PhysAddr(0x40_0000));
        assert_eq!(p.add(0x10).0, 0x40_2355);
    }
}
