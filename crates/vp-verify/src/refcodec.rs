//! Reference `provptr3` codec: the streaming encoder and decoder the
//! slice-based [`vp_sim::record`] codec must agree with, byte for byte and
//! error for error.
//!
//! It moves one byte at a time through `std::io` (`Read::read_exact` per
//! varint byte, `Write::write_all` per varint byte), folds the FNV-1a-64
//! checksum through hashing adapters around the stream, keeps per-address
//! last values in a `HashMap`, and never touches the crate-private column
//! layout of [`TraceColumns`]: it derives the flag byte of each event
//! itself and rebuilds decoded columns from owned [`TraceEvent`]s.
//!
//! The format, in stream order: the magic `provptr3`; varint counts of
//! events, destination writes, memory accesses and stores; the flag column
//! (one byte per event); zigzag-varint address deltas against the previous
//! event; zigzag-varint next-PC deltas against `addr + 1`; the destination
//! register column (one byte per destination write); zigzag-varint
//! destination value deltas against the same static instruction's previous
//! value; zigzag-varint memory address and stored value deltas against the
//! previous one; then the FNV-1a-64 hash of every byte after the magic, as
//! 8 little-endian bytes.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use vp_isa::{InstrAddr, Reg, RegClass};
use vp_sim::exec::MemAccess;
use vp_sim::{TraceColumns, TraceError, TraceEvent, MAX_TRACE_EVENTS};

const MAGIC: &[u8; 8] = b"provptr3";

// Bits of the per-event flag byte.
const F_DEST: u8 = 1 << 0;
const F_DEST_FP: u8 = 1 << 1;
const F_MEM: u8 = 1 << 2;
const F_MEM_STORE: u8 = 1 << 3;
const F_BRANCH: u8 = 1 << 4;
const F_TAKEN: u8 = 1 << 5;
const F_ALL: u8 = F_DEST | F_DEST_FP | F_MEM | F_MEM_STORE | F_BRANCH | F_TAKEN;

/// Largest element count pre-allocated from a length prefix before the
/// data proves itself by actually parsing.
const PREALLOC_CAP: usize = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Forwards writes while folding every written byte into the hash.
struct HashingWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Forwards reads while folding every consumed byte into the hash.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let filled = self.inner.read(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..filled]);
        Ok(filled)
    }
}

/// The flag byte of one event.
fn flags_of(ev: &TraceEvent) -> u8 {
    let mut flags = 0u8;
    if let Some((class, _, _)) = ev.dest {
        flags |= F_DEST;
        if class == RegClass::Fp {
            flags |= F_DEST_FP;
        }
    }
    if let Some(mem) = ev.mem {
        flags |= F_MEM;
        if mem.store {
            flags |= F_MEM_STORE;
        }
    }
    if let Some(taken) = ev.taken {
        flags |= F_BRANCH;
        if taken {
            flags |= F_TAKEN;
        }
    }
    flags
}

/// Encodes `cols` in the `provptr3` format, streaming into `w`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn ref_write_columns<W: Write>(mut w: W, cols: &TraceColumns) -> io::Result<()> {
    let events: Vec<TraceEvent> = cols.iter().collect();
    let flags: Vec<u8> = events.iter().map(flags_of).collect();
    let dests: Vec<(u32, Reg, u64)> = events
        .iter()
        .filter_map(|e| e.dest.map(|(_, reg, value)| (e.addr.index(), reg, value)))
        .collect();
    let mems: Vec<u64> = events
        .iter()
        .filter_map(|e| e.mem)
        .map(|m| m.addr)
        .collect();
    let stores: Vec<u64> = events
        .iter()
        .filter(|e| e.mem.is_some_and(|m| m.store))
        .map(|e| e.stored.unwrap_or(0))
        .collect();

    w.write_all(MAGIC)?;
    let mut hw = HashingWriter {
        inner: &mut w,
        hash: FNV_OFFSET,
    };
    write_varint(&mut hw, events.len() as u64)?;
    write_varint(&mut hw, dests.len() as u64)?;
    write_varint(&mut hw, mems.len() as u64)?;
    write_varint(&mut hw, stores.len() as u64)?;
    hw.write_all(&flags)?;
    let mut prev = 0i64;
    for e in &events {
        let v = i64::from(e.addr.index());
        write_varint(&mut hw, zigzag(v - prev))?;
        prev = v;
    }
    for e in &events {
        let fallthrough = i64::from(e.addr.index()) + 1;
        write_varint(&mut hw, zigzag(i64::from(e.next_pc.index()) - fallthrough))?;
    }
    for &(_, reg, _) in &dests {
        hw.write_all(&[reg.index()])?;
    }
    let mut last: HashMap<u32, u64> = HashMap::new();
    for &(addr, _, value) in &dests {
        let prev = last.insert(addr, value).unwrap_or(0);
        write_varint(&mut hw, zigzag(value.wrapping_sub(prev) as i64))?;
    }
    for column in [&mems, &stores] {
        let mut prev = 0u64;
        for &v in column {
            write_varint(&mut hw, zigzag(v.wrapping_sub(prev) as i64))?;
            prev = v;
        }
    }
    let checksum = hw.hash;
    w.write_all(&checksum.to_le_bytes())
}

/// Decodes a `provptr3` stream, one byte at a time.
///
/// # Errors
///
/// The [`TraceError`] the format's checks call for, in stream order:
/// bad magic, an absurd event count, sparse counts above the event count,
/// invalid or miscounted flag bytes, out-of-range addresses or registers,
/// varint overflow, truncation, and a missing or mismatching checksum
/// trailer.
pub fn ref_read_columns<R: Read>(mut r: R) -> Result<TraceColumns, TraceError> {
    let mut magic = [0u8; 8];
    read_exact_or(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut hr = HashingReader {
        inner: r,
        hash: FNV_OFFSET,
    };
    let cols = read_body(&mut hr)?;
    let body_hash = hr.hash;
    let mut trailer = [0u8; 8];
    read_exact_or(&mut hr, &mut trailer, "checksum trailer")?;
    let stored = u64::from_le_bytes(trailer);
    if stored != body_hash {
        return Err(TraceError::Corrupt {
            context: format!(
                "checksum mismatch: stored {stored:#018x}, computed {body_hash:#018x}"
            ),
        });
    }
    Ok(cols)
}

fn read_body<R: Read>(mut r: R) -> Result<TraceColumns, TraceError> {
    let n = read_varint(&mut r, "event count")?;
    if n > MAX_TRACE_EVENTS {
        return Err(TraceError::AbsurdLength {
            claimed: n,
            limit: MAX_TRACE_EVENTS,
        });
    }
    let n_dest = read_varint(&mut r, "dest count")?;
    let n_mem = read_varint(&mut r, "mem count")?;
    let n_store = read_varint(&mut r, "store count")?;
    if n_dest > n || n_mem > n || n_store > n_mem {
        return Err(corrupt("sparse counts exceed the event count"));
    }
    let n = n as usize;

    let mut flags = Vec::with_capacity(n.min(PREALLOC_CAP));
    r.by_ref()
        .take(n as u64)
        .read_to_end(&mut flags)
        .map_err(TraceError::Io)?;
    if flags.len() < n {
        return Err(TraceError::Truncated {
            context: "flag column",
        });
    }
    let (mut cd, mut cm, mut cs) = (0u64, 0u64, 0u64);
    for &f in &flags {
        if f & !F_ALL != 0
            || (f & F_DEST_FP != 0 && f & F_DEST == 0)
            || (f & F_MEM_STORE != 0 && f & F_MEM == 0)
            || (f & F_TAKEN != 0 && f & F_BRANCH == 0)
        {
            return Err(corrupt("invalid flag byte"));
        }
        cd += u64::from(f & F_DEST != 0);
        cm += u64::from(f & F_MEM != 0);
        cs += u64::from(f & F_MEM_STORE != 0);
    }
    if (cd, cm, cs) != (n_dest, n_mem, n_store) {
        return Err(corrupt("flag populations disagree with the header"));
    }
    let (n_dest, n_mem, n_store) = (n_dest as usize, n_mem as usize, n_store as usize);

    let mut addr = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        let d = unzigzag(read_varint(&mut r, "addr column")?);
        let v = prev
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt("instruction address out of range"))?;
        addr.push(v);
        prev = i64::from(v);
    }
    let mut next_pc = Vec::with_capacity(n);
    for &a in &addr {
        let d = unzigzag(read_varint(&mut r, "next-pc column")?);
        let v = (i64::from(a) + 1)
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt("next-pc out of range"))?;
        next_pc.push(v);
    }

    let mut dest_reg = Vec::with_capacity(n_dest);
    r.by_ref()
        .take(n_dest as u64)
        .read_to_end(&mut dest_reg)
        .map_err(TraceError::Io)?;
    if dest_reg.len() < n_dest {
        return Err(TraceError::Truncated {
            context: "destination register column",
        });
    }
    let dest_reg = dest_reg
        .iter()
        .map(|&reg| Reg::try_new(reg).ok_or_else(|| corrupt("register out of range")))
        .collect::<Result<Vec<Reg>, _>>()?;

    let mut dest_val = Vec::with_capacity(n_dest);
    let mut last: HashMap<u32, u64> = HashMap::new();
    for (i, &f) in flags.iter().enumerate() {
        if f & F_DEST != 0 {
            let d = unzigzag(read_varint(&mut r, "destination value column")?) as u64;
            let value = last.get(&addr[i]).copied().unwrap_or(0).wrapping_add(d);
            last.insert(addr[i], value);
            dest_val.push(value);
        }
    }
    let mut mem_addr = Vec::with_capacity(n_mem);
    let mut prev = 0u64;
    for _ in 0..n_mem {
        prev = prev.wrapping_add(unzigzag(read_varint(&mut r, "memory address column")?) as u64);
        mem_addr.push(prev);
    }
    let mut stored = Vec::with_capacity(n_store);
    let mut prev = 0u64;
    for _ in 0..n_store {
        prev = prev.wrapping_add(unzigzag(read_varint(&mut r, "stored value column")?) as u64);
        stored.push(prev);
    }

    let (mut d, mut m, mut s) = (0usize, 0usize, 0usize);
    let events: Vec<TraceEvent> = (0..n)
        .map(|i| {
            let f = flags[i];
            let dest = (f & F_DEST != 0).then(|| {
                let class = if f & F_DEST_FP != 0 {
                    RegClass::Fp
                } else {
                    RegClass::Int
                };
                d += 1;
                (class, dest_reg[d - 1], dest_val[d - 1])
            });
            let mem = (f & F_MEM != 0).then(|| {
                m += 1;
                MemAccess {
                    addr: mem_addr[m - 1],
                    store: f & F_MEM_STORE != 0,
                }
            });
            let stored = (f & F_MEM_STORE != 0).then(|| {
                s += 1;
                stored[s - 1]
            });
            TraceEvent {
                addr: InstrAddr::new(addr[i]),
                dest,
                mem,
                stored,
                taken: (f & F_BRANCH != 0).then_some(f & F_TAKEN != 0),
                next_pc: InstrAddr::new(next_pc[i]),
            }
        })
        .collect();
    Ok(TraceColumns::from_events(&events))
}

fn corrupt(context: &str) -> TraceError {
    TraceError::Corrupt {
        context: context.to_owned(),
    }
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64, TraceError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        read_exact_or(r, &mut byte, context)?;
        let low = u64::from(byte[0] & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(TraceError::Corrupt {
                context: format!("varint overflow in {context}"),
            });
        }
        out |= low << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { context }
        } else {
            TraceError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{RunLimits, Trace};

    fn sample() -> TraceColumns {
        let p = vp_isa::asm::assemble(
            ".f64 1.5\nli r1, 0\nli r2, 20\ntop: fld f1, (r0)\nfadd f2, f2, f1\n\
             sd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        Trace::capture(&p, RunLimits::default())
            .unwrap()
            .columns()
            .clone()
    }

    #[test]
    fn reference_codec_round_trips() {
        let cols = sample();
        let mut bytes = Vec::new();
        ref_write_columns(&mut bytes, &cols).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(ref_read_columns(bytes.as_slice()).unwrap(), cols);
    }

    #[test]
    fn reference_decoder_rejects_a_missing_trailer_and_a_flipped_body() {
        let cols = sample();
        let mut bytes = Vec::new();
        ref_write_columns(&mut bytes, &cols).unwrap();
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(
            ref_read_columns(cut),
            Err(TraceError::Truncated { .. })
        ));
        let last_body = bytes.len() - 9;
        bytes[last_body] ^= 0x01;
        assert!(matches!(
            ref_read_columns(bytes.as_slice()),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn varints_and_zigzag_round_trip_across_the_range() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, v).unwrap();
            assert!(bytes.len() <= 10);
            assert_eq!(read_varint(&mut bytes.as_slice(), "t").unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
