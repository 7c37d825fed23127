//! Paged, word-addressed memory.
//!
//! The machine's memory is an array of 64-bit words indexed by `u64` word
//! addresses. It is backed by lazily allocated fixed-size pages, so workloads
//! can scatter data across a large address space without cost. Unwritten
//! words read as zero, like a zero-filled address space.
//!
//! Every workload keeps its data in the low few thousand words, so pages
//! below [`DENSE_PAGES`] live in a page table indexed directly by page
//! number: a load or store there costs one bounds check and two loads, no
//! hashing. Pages above it (a pointer walk that wanders far, a wrapped
//! effective address) fall back to a sparse map.

use std::collections::HashMap;

/// Words per page. A power of two so address splitting is a shift/mask.
pub const PAGE_WORDS: usize = 1 << 12;

/// Pages reachable through the direct page table: the low 2²⁰ words
/// (8 MiB of data). The table grows only as far as the highest page
/// written, so a small program pays for a few slots.
pub const DENSE_PAGES: u64 = 256;

type Page = Box<[u64; PAGE_WORDS]>;

/// Paged word-addressed memory with zero-fill semantics.
///
/// # Examples
///
/// ```
/// use vp_sim::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.read(123), 0);
/// m.write(123, 7);
/// assert_eq!(m.read(123), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Page `p < DENSE_PAGES` at index `p`, once written.
    dense: Vec<Option<Page>>,
    /// Pages at or above `DENSE_PAGES`.
    sparse: HashMap<u64, Page>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Creates a memory whose low words hold `image` (the program's data
    /// segment), starting at word address 0.
    #[must_use]
    pub fn with_image(image: &[u64]) -> Self {
        let mut m = Memory::new();
        for (i, &w) in image.iter().enumerate() {
            if w != 0 {
                m.write(i as u64, w);
            }
        }
        m
    }

    /// Reads the word at `addr` (zero if never written).
    #[must_use]
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let (page, offset) = split(addr);
        let page = if page < DENSE_PAGES {
            self.dense.get(page as usize).and_then(Option::as_ref)
        } else {
            self.sparse.get(&page)
        };
        page.map_or(0, |p| p[offset])
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let (page, offset) = split(addr);
        let page = if page < DENSE_PAGES {
            let slot = page as usize;
            if slot >= self.dense.len() {
                self.dense.resize_with(slot + 1, || None);
            }
            self.dense[slot].get_or_insert_with(zero_page)
        } else {
            self.sparse.entry(page).or_insert_with(zero_page)
        };
        page[offset] = value;
    }

    /// Number of pages that have been materialised.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.dense.iter().flatten().count() + self.sparse.len()
    }
}

fn zero_page() -> Page {
    Box::new([0; PAGE_WORDS])
}

fn split(addr: u64) -> (u64, usize) {
    (
        addr / PAGE_WORDS as u64,
        (addr % PAGE_WORDS as u64) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u64::MAX), 0);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut m = Memory::new();
        let addrs = [
            0u64,
            1,
            PAGE_WORDS as u64 - 1,
            PAGE_WORDS as u64,
            10 * PAGE_WORDS as u64 + 17,
        ];
        for (i, &a) in addrs.iter().enumerate() {
            m.write(a, i as u64 + 100);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(m.read(a), i as u64 + 100);
        }
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn image_loads_at_zero() {
        let m = Memory::with_image(&[5, 0, 7]);
        assert_eq!(m.read(0), 5);
        assert_eq!(m.read(1), 0);
        assert_eq!(m.read(2), 7);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn dense_and_sparse_pages_are_distinct() {
        let mut m = Memory::new();
        let edge = DENSE_PAGES * PAGE_WORDS as u64;
        m.write(edge - 1, 1);
        m.write(edge, 2);
        m.write(u64::MAX, 3);
        assert_eq!(
            (m.read(edge - 1), m.read(edge), m.read(u64::MAX)),
            (1, 2, 3)
        );
        // Same offset, one page below the boundary: never written.
        assert_eq!(m.read(edge - PAGE_WORDS as u64), 0);
        assert_eq!(m.resident_pages(), 3);
    }
}
