//! Columnar (struct-of-arrays) retirement traces.
//!
//! The AoS `Vec<TraceEvent>` layout spends 56 bytes per retired
//! instruction and drags every optional field through the cache even for
//! consumers that only want one column. [`TraceColumns`] stores the same
//! information as parallel arrays — a one-byte flag word and the
//! program counter per event, plus *sparse* side arrays that hold
//! destination / memory / store payloads and the next PC of taken
//! branches and jumps only for the events that have them — cutting
//! resident size roughly in half for typical traces and making the
//! predictor-replay hot path a linear scan over dense memory.
//!
//! Two access paths matter:
//!
//! - [`TraceColumns::replay`] reconstructs full [`Retirement`] records for
//!   generic tracers (profilers, the ILP machine, instruction mixes);
//! - [`TraceColumns::value_events`] yields only `(addr, value)` pairs of
//!   value-producing instructions — the only thing a value predictor
//!   consumes — without touching the memory or branch columns at all.
//!
//! [`TraceColumns::shard_by_pc`] partitions the value events by a
//! caller-supplied static-address key so per-PC (or per-table-set)
//! predictor state can be replayed shard-parallel; see
//! `provp_core::replay` for the invariant that makes this exact.

use std::io;
use std::mem;

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::exec::{MemAccess, Retirement};
use crate::record::TraceEvent;
use crate::Tracer;

// Flag bits of the per-event flag byte (shared with the spill format,
// which stores this column as it is, less `F_JUMP`).
pub(crate) const F_DEST: u8 = 1 << 0;
pub(crate) const F_DEST_FP: u8 = 1 << 1;
pub(crate) const F_MEM: u8 = 1 << 2;
pub(crate) const F_MEM_STORE: u8 = 1 << 3;
pub(crate) const F_BRANCH: u8 = 1 << 4;
pub(crate) const F_TAKEN: u8 = 1 << 5;
pub(crate) const F_ALL: u8 = F_DEST | F_DEST_FP | F_MEM | F_MEM_STORE | F_BRANCH | F_TAKEN;
/// In memory only: the event does not fall through to `addr + 1`, and its
/// next PC is in the sparse `next_pc` column. The spill format does not
/// store this bit; it derives it from the next-PC deltas.
pub(crate) const F_JUMP: u8 = 1 << 6;

/// A retirement trace in struct-of-arrays form.
///
/// Dense columns (`flags`, `addr`) have one element per event; sparse
/// columns hold payloads only for events whose flag bit is set, in event
/// order. Iteration reconstitutes events with running cursors into
/// the sparse columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    flags: Vec<u8>,
    addr: Vec<u32>,
    /// Program counter after the event, one per `F_JUMP` event (every
    /// other event falls through to `addr + 1`).
    next_pc: Vec<u32>,
    /// Destination register index, one per `F_DEST` event.
    dest_reg: Vec<u8>,
    /// Destination value, one per `F_DEST` event.
    dest_val: Vec<u64>,
    /// Effective address, one per `F_MEM` event.
    mem_addr: Vec<u64>,
    /// Stored value, one per `F_MEM_STORE` event.
    stored: Vec<u64>,
}

impl TraceColumns {
    /// An empty column set.
    #[must_use]
    pub fn new() -> Self {
        TraceColumns::default()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Number of value-producing (destination-writing) events.
    #[must_use]
    pub fn dest_count(&self) -> usize {
        self.dest_val.len()
    }

    /// Number of memory-accessing events.
    #[must_use]
    pub fn mem_count(&self) -> usize {
        self.mem_addr.len()
    }

    /// Number of store events.
    #[must_use]
    pub fn store_count(&self) -> usize {
        self.stored.len()
    }

    /// Approximate resident size in bytes (for cache accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        mem::size_of::<TraceColumns>()
            + self.flags.capacity()
            + self.addr.capacity() * 4
            + self.next_pc.capacity() * 4
            + self.dest_reg.capacity()
            + self.dest_val.capacity() * 8
            + self.mem_addr.capacity() * 8
            + self.stored.capacity() * 8
    }

    /// Releases over-allocated capacity in every column.
    pub fn shrink_to_fit(&mut self) {
        self.flags.shrink_to_fit();
        self.addr.shrink_to_fit();
        self.next_pc.shrink_to_fit();
        self.dest_reg.shrink_to_fit();
        self.dest_val.shrink_to_fit();
        self.mem_addr.shrink_to_fit();
        self.stored.shrink_to_fit();
    }

    /// Appends one retirement.
    #[inline]
    pub fn push_retirement(&mut self, ev: &Retirement<'_>) {
        self.push_parts(ev.addr, ev.dest, ev.mem, ev.stored, ev.taken, ev.next_pc);
    }

    /// Appends one owned event.
    ///
    /// `stored` is kept only for store events (`mem.store == true`), the
    /// same canonicalisation the spill format applies.
    pub fn push_event(&mut self, ev: &TraceEvent) {
        self.push_parts(ev.addr, ev.dest, ev.mem, ev.stored, ev.taken, ev.next_pc);
    }

    #[inline]
    fn push_parts(
        &mut self,
        addr: InstrAddr,
        dest: Option<(RegClass, Reg, u64)>,
        mem: Option<MemAccess>,
        stored: Option<u64>,
        taken: Option<bool>,
        next_pc: InstrAddr,
    ) {
        let mut flags = 0u8;
        if let Some((class, reg, value)) = dest {
            flags |= F_DEST;
            if class == RegClass::Fp {
                flags |= F_DEST_FP;
            }
            self.dest_reg.push(reg.index());
            self.dest_val.push(value);
        }
        if let Some(mem) = mem {
            flags |= F_MEM;
            self.mem_addr.push(mem.addr);
            if mem.store {
                flags |= F_MEM_STORE;
                self.stored.push(stored.unwrap_or(0));
            }
        }
        if let Some(taken) = taken {
            flags |= F_BRANCH;
            if taken {
                flags |= F_TAKEN;
            }
        }
        if next_pc.index() != addr.index().wrapping_add(1) {
            flags |= F_JUMP;
            self.next_pc.push(next_pc.index());
        }
        self.flags.push(flags);
        self.addr.push(addr.index());
    }

    /// Builds columns from an owned event slice.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut cols = TraceColumns {
            flags: Vec::with_capacity(events.len()),
            addr: Vec::with_capacity(events.len()),
            ..TraceColumns::default()
        };
        for ev in events {
            cols.push_event(ev);
        }
        cols.shrink_to_fit();
        cols
    }

    /// Iterates the trace as owned [`TraceEvent`]s (cursor-based; for
    /// conversions and tests, not for the replay hot path).
    #[must_use]
    pub fn iter(&self) -> Events<'_> {
        Events {
            cols: self,
            i: 0,
            d: 0,
            m: 0,
            s: 0,
            j: 0,
        }
    }

    /// Iterates `(addr, value)` pairs of the value-producing events —
    /// everything a value predictor consumes — touching only the dense
    /// flag/address columns and the sparse destination column.
    #[must_use]
    pub fn value_events(&self) -> ValueEvents<'_> {
        ValueEvents {
            cols: self,
            i: 0,
            d: 0,
        }
    }

    /// Partitions the value events into `n` shard views by a static-address
    /// key: shard `k` yields exactly the value events whose
    /// `key_of(addr) % n == k`, in trace order.
    ///
    /// Because the key function is applied to the *static* address, all
    /// dynamic instances of one instruction land in one shard; choosing
    /// `key_of` to match the predictor's state-partitioning function (the
    /// identity for per-PC state, the table's set index for set-associative
    /// state) makes shard-parallel replay exact.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn shard_by_pc<F>(&self, n: usize, key_of: F) -> Vec<PcShard<'_, F>>
    where
        F: Fn(InstrAddr) -> u64 + Clone,
    {
        assert!(n > 0, "shard count must be positive");
        (0..n)
            .map(|index| PcShard {
                cols: self,
                index: index as u64,
                of: n as u64,
                key_of: key_of.clone(),
            })
            .collect()
    }

    /// Replays the trace into `tracer`, reconstructing full
    /// [`Retirement`] records against `program` (which must be the program
    /// the trace was recorded from, or at least one with the same text
    /// length — directives never change architectural semantics).
    ///
    /// # Errors
    ///
    /// [`io::Error`] of kind `InvalidData` when an event's address does
    /// not name an instruction of `program`.
    pub fn replay(&self, program: &Program, tracer: &mut impl Tracer) -> io::Result<()> {
        // Dense columns stream through zipped slice iterators (no per-event
        // bounds checks); sparse side columns advance by slice splitting,
        // so a malformed column length surfaces as a clean error instead of
        // a panic. The next-PC column is read without a branch.
        let text = program.text();
        let short = || io::Error::new(io::ErrorKind::InvalidData, "sparse trace column too short");
        let (mut dr, mut dv) = (&self.dest_reg[..], &self.dest_val[..]);
        let jumps = &self.next_pc[..];
        let mut j = 0;
        let mut ma = &self.mem_addr[..];
        let mut st = &self.stored[..];
        for (&flags, &raw_addr) in self.flags.iter().zip(&self.addr) {
            let addr = InstrAddr::new(raw_addr);
            let instr = text.get(raw_addr as usize).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace event at {addr} outside program text"),
                )
            })?;
            let dest = if flags & F_DEST != 0 {
                let class = if flags & F_DEST_FP != 0 {
                    RegClass::Fp
                } else {
                    RegClass::Int
                };
                let (&reg, rest_r) = dr.split_first().ok_or_else(short)?;
                let (&value, rest_v) = dv.split_first().ok_or_else(short)?;
                (dr, dv) = (rest_r, rest_v);
                Some((class, Reg::new(reg), value))
            } else {
                None
            };
            let (mem, stored) = if flags & F_MEM != 0 {
                let store = flags & F_MEM_STORE != 0;
                let (&mem_addr, rest_m) = ma.split_first().ok_or_else(short)?;
                ma = rest_m;
                let stored = if store {
                    let (&v, rest_s) = st.split_first().ok_or_else(short)?;
                    st = rest_s;
                    Some(v)
                } else {
                    None
                };
                (
                    Some(MemAccess {
                        addr: mem_addr,
                        store,
                    }),
                    stored,
                )
            } else {
                (None, None)
            };
            let taken = (flags & F_BRANCH != 0).then_some(flags & F_TAKEN != 0);
            // Select rather than branch: whether an event jumps is as
            // unpredictable as the program's own branches.
            let fall = raw_addr.wrapping_add(1);
            let jumped = jumps.get(j).copied().unwrap_or(fall);
            let next_pc = if flags & F_JUMP != 0 { jumped } else { fall };
            j += usize::from(flags & F_JUMP != 0);
            tracer.retire(&Retirement {
                addr,
                instr,
                dest,
                mem,
                stored,
                taken,
                next_pc: InstrAddr::new(next_pc),
            });
        }
        // `push_parts` and the decoder keep one next PC per jump flag.
        debug_assert_eq!(j, jumps.len());
        Ok(())
    }

    // Column accessors for the spill codec (kept crate-private so the
    // invariants — equal dense lengths, sparse lengths matching flag
    // population counts, register indices in range — stay local).
    pub(crate) fn raw_parts(&self) -> RawColumns<'_> {
        RawColumns {
            flags: &self.flags,
            addr: &self.addr,
            next_pc: &self.next_pc,
            dest_reg: &self.dest_reg,
            dest_val: &self.dest_val,
            mem_addr: &self.mem_addr,
            stored: &self.stored,
        }
    }

    pub(crate) fn from_raw_parts(
        flags: Vec<u8>,
        addr: Vec<u32>,
        next_pc: Vec<u32>,
        dest_reg: Vec<u8>,
        dest_val: Vec<u64>,
        mem_addr: Vec<u64>,
        stored: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(flags.len(), addr.len());
        debug_assert_eq!(dest_reg.len(), dest_val.len());
        TraceColumns {
            flags,
            addr,
            next_pc,
            dest_reg,
            dest_val,
            mem_addr,
            stored,
        }
    }
}

/// Borrowed view of every column, for the spill codec.
pub(crate) struct RawColumns<'a> {
    pub flags: &'a [u8],
    pub addr: &'a [u32],
    pub next_pc: &'a [u32],
    pub dest_reg: &'a [u8],
    pub dest_val: &'a [u64],
    pub mem_addr: &'a [u64],
    pub stored: &'a [u64],
}

/// Iterator over a [`TraceColumns`] as owned [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    cols: &'a TraceColumns,
    i: usize,
    d: usize,
    m: usize,
    s: usize,
    j: usize,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let c = self.cols;
        let flags = *c.flags.get(self.i)?;
        let addr = InstrAddr::new(c.addr[self.i]);
        let next_pc = if flags & F_JUMP != 0 {
            self.j += 1;
            InstrAddr::new(c.next_pc[self.j - 1])
        } else {
            InstrAddr::new(addr.index().wrapping_add(1))
        };
        self.i += 1;
        let dest = if flags & F_DEST != 0 {
            let class = if flags & F_DEST_FP != 0 {
                RegClass::Fp
            } else {
                RegClass::Int
            };
            let entry = (class, Reg::new(c.dest_reg[self.d]), c.dest_val[self.d]);
            self.d += 1;
            Some(entry)
        } else {
            None
        };
        let (mem, stored) = if flags & F_MEM != 0 {
            let store = flags & F_MEM_STORE != 0;
            let access = MemAccess {
                addr: c.mem_addr[self.m],
                store,
            };
            self.m += 1;
            let stored = if store {
                let v = c.stored[self.s];
                self.s += 1;
                Some(v)
            } else {
                None
            };
            (Some(access), stored)
        } else {
            (None, None)
        };
        let taken = (flags & F_BRANCH != 0).then_some(flags & F_TAKEN != 0);
        Some(TraceEvent {
            addr,
            dest,
            mem,
            stored,
            taken,
            next_pc,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.cols.len() - self.i;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Events<'_> {}

/// Iterator over the `(addr, value)` pairs of value-producing events.
#[derive(Debug, Clone)]
pub struct ValueEvents<'a> {
    cols: &'a TraceColumns,
    i: usize,
    d: usize,
}

impl Iterator for ValueEvents<'_> {
    type Item = (InstrAddr, u64);

    fn next(&mut self) -> Option<(InstrAddr, u64)> {
        let c = self.cols;
        while self.i < c.flags.len() {
            let i = self.i;
            self.i += 1;
            if c.flags[i] & F_DEST != 0 {
                let value = c.dest_val[self.d];
                self.d += 1;
                return Some((InstrAddr::new(c.addr[i]), value));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.cols.len() - self.i))
    }
}

/// One shard of a PC-partitioned trace: the value events whose
/// static-address key maps to this shard, in trace order.
#[derive(Debug, Clone)]
pub struct PcShard<'a, F> {
    cols: &'a TraceColumns,
    index: u64,
    of: u64,
    key_of: F,
}

impl<'a, F: Fn(InstrAddr) -> u64> PcShard<'a, F> {
    /// This shard's index in `0..shard_count`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// Total shard count of the partition this shard belongs to.
    #[must_use]
    pub fn of(&self) -> usize {
        self.of as usize
    }

    /// Iterates this shard's `(addr, value)` pairs.
    #[must_use]
    pub fn values(&self) -> ShardValues<'a, &F> {
        ShardValues {
            inner: self.cols.value_events(),
            index: self.index,
            of: self.of,
            key_of: &self.key_of,
        }
    }
}

/// Iterator over one shard's `(addr, value)` pairs.
#[derive(Debug, Clone)]
pub struct ShardValues<'a, F> {
    inner: ValueEvents<'a>,
    index: u64,
    of: u64,
    key_of: F,
}

impl<F: Fn(InstrAddr) -> u64> Iterator for ShardValues<'_, F> {
    type Item = (InstrAddr, u64);

    fn next(&mut self) -> Option<(InstrAddr, u64)> {
        for (addr, value) in self.inner.by_ref() {
            if (self.key_of)(addr) % self.of == self.index {
                return Some((addr, value));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use crate::{run, InstrMix, RunLimits};
    use vp_isa::asm::assemble;

    const SAMPLE: &str = ".f64 1.5\nli r1, 0\nli r2, 20\n\
top: fld f1, (r0)\nfadd f2, f2, f1\nsd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    fn sample_columns() -> (vp_isa::Program, TraceColumns) {
        let p = assemble(SAMPLE).unwrap();
        let mut rec = TraceRecorder::new();
        run(&p, &mut rec, RunLimits::default()).unwrap();
        (p, rec.into_columns())
    }

    #[test]
    fn iter_round_trips_through_events() {
        let (_, cols) = sample_columns();
        let events: Vec<TraceEvent> = cols.iter().collect();
        assert_eq!(events.len(), cols.len());
        let back = TraceColumns::from_events(&events);
        assert_eq!(back, cols);
    }

    #[test]
    fn replay_matches_aos_replay() {
        let (p, cols) = sample_columns();
        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        cols.replay(&p, &mut replayed).unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_rejects_foreign_programs() {
        let (_, cols) = sample_columns();
        let other = assemble("halt\n").unwrap();
        let e = cols.replay(&other, &mut crate::NullTracer).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn value_events_are_exactly_the_dest_writes() {
        let (_, cols) = sample_columns();
        let via_iter: Vec<(InstrAddr, u64)> = cols
            .iter()
            .filter_map(|ev| ev.dest.map(|(_, _, v)| (ev.addr, v)))
            .collect();
        let via_values: Vec<(InstrAddr, u64)> = cols.value_events().collect();
        assert_eq!(via_values, via_iter);
        assert_eq!(via_values.len(), cols.dest_count());
        assert!(!via_values.is_empty());
    }

    #[test]
    fn shards_partition_the_value_events() {
        let (_, cols) = sample_columns();
        let all: Vec<(InstrAddr, u64)> = cols.value_events().collect();
        for n in [1usize, 2, 3, 8] {
            let shards = cols.shard_by_pc(n, |a| u64::from(a.index()));
            assert_eq!(shards.len(), n);
            let mut merged: Vec<(InstrAddr, u64)> = Vec::new();
            let mut total = 0;
            for shard in &shards {
                let part: Vec<(InstrAddr, u64)> = shard.values().collect();
                // Every element belongs to this shard.
                for &(addr, _) in &part {
                    assert_eq!(u64::from(addr.index()) % n as u64, shard.index() as u64);
                }
                total += part.len();
                merged.extend(part);
            }
            assert_eq!(total, all.len(), "{n} shards lost/duplicated events");
            merged.sort_by_key(|&(a, _)| u64::from(a.index()));
            let mut sorted = all.clone();
            sorted.sort_by_key(|&(a, _)| u64::from(a.index()));
            // Multisets must agree (order within a shard is trace order,
            // which the sort normalises for comparison).
            assert_eq!(merged.len(), sorted.len());
        }
    }

    #[test]
    fn sparse_columns_are_actually_sparse() {
        let (_, cols) = sample_columns();
        assert!(cols.dest_count() < cols.len());
        assert!(cols.mem_count() < cols.len());
        assert!(cols.store_count() <= cols.mem_count());
        // Only taken branches and jumps carry a next PC.
        let jumps = cols.iter().filter(|e| e.next_pc != e.addr.next()).count();
        assert!(jumps > 0 && jumps < cols.len());
        assert_eq!(cols.next_pc.len(), jumps);
        // SoA resident size is far below the 56-byte AoS event.
        assert!(cols.approx_bytes() < cols.len() * mem::size_of::<TraceEvent>());
    }
}
