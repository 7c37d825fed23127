//! Differential property test: `Memory` matches a `BTreeMap` model of a
//! zero-filled word-addressed space, for reads and writes clustered at
//! page edges, at the end of the direct page table, at the top of the
//! address space and at random, including reads of words never written.

use std::collections::BTreeMap;

use vp_rng::{prop, Rng};
use vp_sim::memory::{DENSE_PAGES, PAGE_WORDS};
use vp_sim::Memory;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64, u64),
}

/// An address near one of the edges where a paged memory can go wrong.
fn arb_addr(rng: &mut Rng) -> u64 {
    let page = PAGE_WORDS as u64;
    let dense_end = DENSE_PAGES * page;
    let edge = match rng.gen_range(0..5u32) {
        // A page edge inside the direct table.
        0 => rng.gen_range(0..DENSE_PAGES) * page,
        // The last dense page and the first sparse one.
        1 => dense_end,
        // A page edge in the sparse range.
        2 => rng.gen_range(DENSE_PAGES..DENSE_PAGES * 4) * page,
        // The top of the address space (and, wrapping, the bottom).
        3 => 0,
        _ => return rng.gen_range(0..=u64::MAX),
    };
    edge.wrapping_add(rng.gen_range(0..64u64)).wrapping_sub(32)
}

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.gen_range(1..400usize);
    (0..len)
        .map(|_| {
            let addr = arb_addr(rng);
            if rng.gen_bool(0.5) {
                Op::Read(addr)
            } else {
                Op::Write(addr, rng.gen_range(0..=u64::MAX))
            }
        })
        .collect()
}

#[test]
fn prop_memory_matches_btreemap_model() {
    prop::forall("memory matches btreemap model", arb_ops)
        .cases(256)
        .check(|ops| {
            let mut memory = Memory::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for &op in ops {
                match op {
                    Op::Read(addr) => {
                        let want = model.get(&addr).copied().unwrap_or(0);
                        assert_eq!(memory.read(addr), want, "read of {addr:#x}");
                    }
                    Op::Write(addr, value) => {
                        memory.write(addr, value);
                        model.insert(addr, value);
                    }
                }
            }
            // Every written word reads back, and its page neighbours that
            // were never written read as zero.
            for (&addr, &value) in &model {
                assert_eq!(memory.read(addr), value, "final read of {addr:#x}");
                for neighbour in [addr.wrapping_sub(1), addr.wrapping_add(1)] {
                    let want = model.get(&neighbour).copied().unwrap_or(0);
                    assert_eq!(memory.read(neighbour), want, "neighbour {neighbour:#x}");
                }
            }
            let pages: std::collections::BTreeSet<u64> =
                model.keys().map(|a| a / PAGE_WORDS as u64).collect();
            assert_eq!(memory.resident_pages(), pages.len());
        });
}

#[test]
fn image_words_read_back_and_everything_else_is_zero() {
    let image: Vec<u64> = (0..2 * PAGE_WORDS as u64).map(|i| i % 3).collect();
    let memory = Memory::with_image(&image);
    for (i, &w) in image.iter().enumerate() {
        assert_eq!(memory.read(i as u64), w);
    }
    assert_eq!(memory.read(image.len() as u64), 0);
    assert_eq!(memory.read(DENSE_PAGES * PAGE_WORDS as u64), 0);
    assert_eq!(memory.read(u64::MAX), 0);
}
