//! Fault injection for the spill-file readers: every way a trace file can
//! rot on disk — truncation, single-bit flips, multi-byte scribbles — must
//! surface as a typed [`TraceError`], never a panic and never silently
//! wrong data.
//!
//! The `provptr3` format carries an FNV-1a-64 checksum over its body
//! precisely so this holds: without it, a bit flip in a delta-encoded
//! value column decodes to plausible-but-wrong values. The retired
//! unchecksummed formats are not read at all.

use vp_rng::prop;
use vp_sim::record::{read_columns, write_columns};
use vp_sim::{RunLimits, TraceColumns};
use vp_sim::{Trace, TraceError};

/// A small but representative trace: a loop with integer and FP dest
/// writes, loads, stores and both branch outcomes.
fn sample_columns() -> TraceColumns {
    let p = vp_isa::asm::assemble(
        ".f64 1.5\n\
         li r1, 0\n\
         li r2, 12\n\
         top: fld f1, (r0)\n\
         fadd f2, f2, f1\n\
         sd r1, 5(r1)\n\
         ld r3, 5(r1)\n\
         addi r1, r1, 1\n\
         bne r1, r2, top\n\
         halt\n",
    )
    .unwrap();
    Trace::capture(&p, RunLimits::default())
        .unwrap()
        .columns()
        .clone()
}

fn encode(cols: &TraceColumns) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_columns(&mut bytes, cols).unwrap();
    bytes
}

/// Asserts the outcome of reading a corrupted stream: a typed error is
/// fine, and `Ok` is fine only when the decoded columns equal the
/// original (e.g. a magic flip that lands on a sibling version whose body
/// decodes identically). `Ok` with *different* data is the silent
/// corruption this suite exists to rule out.
fn assert_err_or_identical(bytes: &[u8], original: &TraceColumns, what: &str) {
    match read_columns(bytes) {
        Ok(cols) => assert_eq!(&cols, original, "silent wrong data after {what}"),
        Err(
            TraceError::BadMagic
            | TraceError::AbsurdLength { .. }
            | TraceError::Truncated { .. }
            | TraceError::Corrupt { .. }
            | TraceError::Io(_),
        ) => {}
    }
}

/// Exhaustive single-bit flips: all 8 bit positions of every byte.
#[test]
fn every_single_bit_flip_is_caught_or_harmless() {
    let cols = sample_columns();
    let pristine = encode(&cols);
    let mut bytes = pristine.clone();
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            bytes[i] ^= 1 << bit;
            assert_err_or_identical(&bytes, &cols, &format!("flipping bit {bit} of byte {i}"));
            bytes[i] ^= 1 << bit;
        }
    }
    assert_eq!(bytes, pristine);
}

/// Exhaustive truncation: every proper prefix must fail (the checksum
/// trailer is mandatory in `provptr3`, so even a clean body cut fails).
#[test]
fn every_truncation_is_a_typed_error() {
    let cols = sample_columns();
    let bytes = encode(&cols);
    for cut in 0..bytes.len() {
        match read_columns(&bytes[..cut]) {
            Err(
                TraceError::BadMagic
                | TraceError::AbsurdLength { .. }
                | TraceError::Truncated { .. }
                | TraceError::Corrupt { .. }
                | TraceError::Io(_),
            ) => {}
            Ok(_) => panic!("truncation to {cut}/{} bytes read back Ok", bytes.len()),
        }
    }
}

/// Randomized multi-byte corruption of the current format: any number of
/// scribbles anywhere in the stream.
#[test]
fn prop_random_scribbles_never_panic_or_lie() {
    let cols = sample_columns();
    let pristine = encode(&cols);
    prop::forall("provptr3 scribbles are caught or harmless", |rng| {
        (0..rng.gen_range(1..16usize))
            .map(|_| (rng.gen_u64(), rng.gen_range(1..=u8::MAX)))
            .collect::<Vec<(u64, u8)>>()
    })
    .check_shrinking(|scribbles| {
        let mut bytes = pristine.clone();
        for &(pos, xor) in scribbles {
            let i = (pos % bytes.len() as u64) as usize;
            bytes[i] ^= xor;
        }
        assert_err_or_identical(&bytes, &cols, "random scribbles");
    });
}

/// A file carrying a retired magic (`provptr1`, or the unchecksummed
/// `provptr2` whose corrupted bodies used to decode to different data) is
/// rejected as [`TraceError::BadMagic`] whatever its body holds.
#[test]
fn prop_legacy_magic_is_bad_magic_whatever_the_body() {
    let cols = sample_columns();
    let pristine = encode(&cols);
    prop::forall("legacy magic is bad magic", |rng| {
        let legacy: &[u8; 8] = if rng.gen_bool(0.5) {
            b"provptr1"
        } else {
            b"provptr2"
        };
        let scribbles = (0..rng.gen_range(0..16usize))
            .map(|_| (rng.gen_u64(), rng.gen_range(1..=u8::MAX)))
            .collect::<Vec<(u64, u8)>>();
        (legacy, scribbles)
    })
    .check(|(legacy, scribbles)| {
        let mut bytes = pristine.clone();
        bytes[..8].copy_from_slice(*legacy);
        for &(pos, xor) in scribbles {
            let i = 8 + (pos % (bytes.len() - 8) as u64) as usize;
            bytes[i] ^= xor;
        }
        let err = read_columns(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic), "{err}");
    });
}

/// The bytes on disk are pinned: the sample trace's encoding, committed
/// when the format was last touched, must be reproduced byte for byte and
/// decode back to the sample. A codec rewrite that changes a single spill
/// byte fails here, not only in a cross-process cache miss.
#[test]
fn sample_encoding_matches_the_golden_fixture() {
    let golden: &[u8] = include_bytes!("data/sample.provptr3");
    let cols = sample_columns();
    assert_eq!(encode(&cols), golden, "provptr3 bytes changed");
    assert_eq!(read_columns(golden).unwrap(), cols);
}
