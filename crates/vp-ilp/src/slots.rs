//! Dense numbering of the memory words stores have written.

use std::collections::HashMap;

use vp_sim::MemAccess;

/// Words per page of the slot map: a power of two, so an address splits
/// into page and offset with a shift and a mask.
const PAGE_BITS: u32 = 12;
const PAGE_WORDS: usize = 1 << PAGE_BITS;

/// Maps each word address a store has written to a dense slot number,
/// handed out in first-store order.
///
/// A machine then keeps its store-ready cycles in a plain `Vec` indexed by
/// slot. The map itself is paged: a hash lookup finds a page only when
/// an access leaves the most recently used page, and each page holds one
/// `u32` per word. Several machines replaying the same trace share one
/// map, so an address is resolved once per event however many machines
/// consume it.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreSlots {
    page_of: HashMap<u64, usize>,
    /// Per page, `slot + 1` for every word a store has written, else 0.
    pages: Vec<Box<[u32]>>,
    /// The most recently used `(page number, index into pages)`.
    last: Option<(u64, usize)>,
    slots: u32,
}

impl StoreSlots {
    /// An empty map.
    pub(crate) fn new() -> Self {
        StoreSlots::default()
    }

    /// The slot of the word `mem` touches. A store gets its word's slot,
    /// allocating one on the word's first store; a load gets one only if
    /// a store wrote the word before (otherwise no store constrains it).
    #[inline]
    pub(crate) fn resolve(&mut self, mem: MemAccess) -> Option<usize> {
        let page_no = mem.addr >> PAGE_BITS;
        let page = match self.last {
            Some((no, page)) if no == page_no => page,
            _ => {
                let page = match self.page_of.get(&page_no) {
                    Some(&page) => page,
                    None if mem.store => {
                        self.pages.push(vec![0; PAGE_WORDS].into_boxed_slice());
                        self.page_of.insert(page_no, self.pages.len() - 1);
                        self.pages.len() - 1
                    }
                    None => return None,
                };
                self.last = Some((page_no, page));
                page
            }
        };
        let cell = &mut self.pages[page][(mem.addr as usize) & (PAGE_WORDS - 1)];
        if *cell == 0 {
            if !mem.store {
                return None;
            }
            self.slots += 1;
            *cell = self.slots;
        }
        Some(*cell as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(addr: u64) -> MemAccess {
        MemAccess { addr, store: true }
    }

    fn load(addr: u64) -> MemAccess {
        MemAccess { addr, store: false }
    }

    #[test]
    fn stores_get_dense_slots_in_first_store_order() {
        let mut s = StoreSlots::new();
        assert_eq!(s.resolve(store(500)), Some(0));
        assert_eq!(s.resolve(store(7)), Some(1));
        assert_eq!(s.resolve(store(500)), Some(0));
        assert_eq!(s.resolve(load(7)), Some(1));
    }

    #[test]
    fn loads_of_unstored_words_have_no_slot() {
        let mut s = StoreSlots::new();
        assert_eq!(s.resolve(load(3)), None);
        s.resolve(store(4));
        // Same page, different word.
        assert_eq!(s.resolve(load(3)), None);
        // A page no store touched is never materialised by a load.
        assert_eq!(s.resolve(load(1 << 40)), None);
        assert_eq!(s.pages.len(), 1);
    }

    #[test]
    fn page_boundaries_and_the_top_of_the_address_space() {
        let mut s = StoreSlots::new();
        let edge = PAGE_WORDS as u64;
        let addrs = [edge - 1, edge, 0, u64::MAX, u64::MAX - 1, u64::MAX - edge];
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(s.resolve(store(a)), Some(i), "address {a:#x}");
        }
        // Re-resolve in a different order, crossing pages every time.
        for (i, &a) in addrs.iter().enumerate().rev() {
            assert_eq!(s.resolve(load(a)), Some(i), "address {a:#x}");
        }
        assert_eq!(s.resolve(load(u64::MAX - 2)), None);
    }
}
