//! Trace recording, replay and the versioned spill format.
//!
//! SHADE could emit trace files that analyzers consumed offline; this
//! module is that capability for `vp-sim`: capture a retirement trace once
//! ([`TraceRecorder`]), then replay it into any number of tracers
//! (profilers, predictors, the ILP machine) without re-simulating, or
//! serialise it with [`write_columns`] / [`read_columns`].
//!
//! Traces are held columnar ([`TraceColumns`]) and spilled in a compact
//! varint + delta encoded format protected by a trailing FNV-1a-64
//! checksum (`provptr3`), the only format read or written. Any other
//! magic, including those of retired earlier formats, is
//! [`TraceError::BadMagic`]. Malformed inputs surface as a typed
//! [`TraceError`] — in particular, on-disk length prefixes are never
//! trusted for allocation, so a corrupt header cannot OOM the reader, and
//! a bit flip anywhere in the body fails the checksum instead of silently
//! decoding to wrong values.
//!
//! The codec works on whole in-memory buffers. The encoder builds the file
//! in one `Vec` (varints written inline), hashes the body once and hands
//! the file to the writer in one `write_all`; the decoder parses a byte
//! slice with a cursor and hashes the parsed body once. Both keep each
//! static instruction's last destination value — the base of its value
//! delta — in a table indexed by address, sized by the trace rather than
//! by anything a corrupt file claims. `vp_verify::refcodec` is the
//! streaming reference both must agree with, byte for byte and error for
//! error.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::columns::{F_ALL, F_BRANCH, F_DEST, F_DEST_FP, F_MEM, F_MEM_STORE, F_TAKEN};
use crate::exec::{MemAccess, Retirement};
use crate::runner::{run, RunLimits};
use crate::{SimError, TraceColumns, Tracer};

/// One retired instruction, in owned form (no borrow of the program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static address of the retired instruction.
    pub addr: InstrAddr,
    /// Destination write `(class, register, value)`, if any.
    pub dest: Option<(RegClass, Reg, u64)>,
    /// Memory effect, if any.
    pub mem: Option<MemAccess>,
    /// For stores: the value written.
    pub stored: Option<u64>,
    /// Branch outcome, if the instruction was a conditional branch.
    pub taken: Option<bool>,
    /// Program counter after the instruction.
    pub next_pc: InstrAddr,
}

impl TraceEvent {
    /// Captures a retirement into owned form.
    #[must_use]
    pub fn from_retirement(ev: &Retirement<'_>) -> Self {
        TraceEvent {
            addr: ev.addr,
            dest: ev.dest,
            mem: ev.mem,
            stored: ev.stored,
            taken: ev.taken,
            next_pc: ev.next_pc,
        }
    }
}

/// Why a serialised trace could not be read.
///
/// Distinguishes "the stream ended early" ([`TraceError::Truncated`])
/// from "the bytes are inconsistent" ([`TraceError::Corrupt`]) and, most
/// importantly, rejects absurd length prefixes
/// ([`TraceError::AbsurdLength`]) *before* any allocation is sized from
/// them.
#[derive(Debug)]
pub enum TraceError {
    /// The stream does not start with a known trace magic.
    BadMagic,
    /// A length prefix exceeds [`MAX_TRACE_EVENTS`]; the prefix is
    /// rejected outright instead of sizing an allocation from it.
    AbsurdLength {
        /// The length the header claimed.
        claimed: u64,
        /// The largest length the reader accepts.
        limit: u64,
    },
    /// The stream ended before the data its header promised.
    Truncated {
        /// Which section of the trace was being read.
        context: &'static str,
    },
    /// The bytes were read but are internally inconsistent.
    Corrupt {
        /// What was inconsistent.
        context: String,
    },
    /// An I/O failure while obtaining the bytes. The in-memory decoders
    /// never return it; it lets callers that read a file first report
    /// both failures as one type.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "bad trace magic"),
            TraceError::AbsurdLength { claimed, limit } => {
                write!(f, "absurd trace length {claimed} (limit {limit})")
            }
            TraceError::Truncated { context } => write!(f, "truncated trace: {context}"),
            TraceError::Corrupt { context } => write!(f, "corrupt trace: {context}"),
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        match e {
            TraceError::Io(io) => io,
            TraceError::Truncated { .. } => {
                io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string())
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Largest event count any length prefix may claim (2³³ events ≈ 170× the
/// simulator's default run budget); larger prefixes are garbage headers,
/// rejected as [`TraceError::AbsurdLength`].
pub const MAX_TRACE_EVENTS: u64 = 1 << 33;

/// A tracer that stores the whole trace in memory (columnar).
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::record::TraceRecorder;
/// use vp_sim::{run, InstrMix, RunLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")?;
/// let mut rec = TraceRecorder::new();
/// run(&p, &mut rec, RunLimits::default())?;
/// // Replay into a different consumer without re-simulating.
/// let total = rec.len();
/// let cols = rec.into_columns();
/// let mut mix = InstrMix::new();
/// cols.replay(&p, &mut mix)?;
/// assert_eq!(mix.total() as usize, total);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    columns: TraceColumns,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The recorded trace, columnar.
    #[must_use]
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// Consumes the recorder, returning the columnar trace.
    #[must_use]
    pub fn into_columns(self) -> TraceColumns {
        self.columns
    }

    /// Consumes the recorder, returning the trace as owned events
    /// (materialises the AoS form; prefer [`TraceRecorder::into_columns`]
    /// on hot paths).
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.columns.iter().collect()
    }
}

impl Tracer for TraceRecorder {
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.columns.push_retirement(ev);
    }
}

/// Replays a recorded AoS event slice into `tracer`, reconstructing full
/// [`Retirement`] records against `program` (which must be the program the
/// trace was recorded from, or at least one with the same text length).
///
/// Columnar traces replay via [`TraceColumns::replay`] without
/// materialising events; this slice form remains for callers that already
/// hold `Vec<TraceEvent>`.
///
/// # Errors
///
/// [`io::Error`] of kind `InvalidData` when an event's address does not
/// name an instruction of `program`.
pub fn replay(
    program: &Program,
    events: &[TraceEvent],
    tracer: &mut impl Tracer,
) -> io::Result<()> {
    for ev in events {
        let instr = program.fetch(ev.addr).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace event at {} outside program text", ev.addr),
            )
        })?;
        tracer.retire(&Retirement {
            addr: ev.addr,
            instr,
            dest: ev.dest,
            mem: ev.mem,
            stored: ev.stored,
            taken: ev.taken,
            next_pc: ev.next_pc,
        });
    }
    Ok(())
}

/// An owned retirement trace: simulate once, replay into any number of
/// consumers.
///
/// This is the unit the experiment harness memoizes — capturing a trace
/// costs one functional simulation, after which every analysis pass
/// (profiling, prediction, ILP) is a cheap [`Trace::replay`]. Because
/// prediction directives never change architectural semantics, a trace
/// captured from a bare program replays bit-identically against any
/// directive-annotated variant of the same program.
///
/// Internally the trace is columnar ([`TraceColumns`]); value-prediction
/// replay walks [`TraceColumns::value_events`] directly instead of
/// reconstructing retirements.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::record::Trace;
/// use vp_sim::{InstrMix, RunLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")?;
/// let trace = Trace::capture(&p, RunLimits::default())?;
/// let mut mix = InstrMix::new();
/// trace.replay(&p, &mut mix)?;
/// assert_eq!(mix.total() as usize, trace.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    columns: TraceColumns,
}

impl Trace {
    /// Simulates `program` under `limits` and captures its full
    /// retirement trace.
    ///
    /// # Errors
    ///
    /// Propagates the simulator's [`SimError`] (fault, limit overrun, …).
    pub fn capture(program: &Program, limits: RunLimits) -> Result<Trace, SimError> {
        let mut rec = TraceRecorder::new();
        run(program, &mut rec, limits)?;
        let mut columns = rec.into_columns();
        columns.shrink_to_fit();
        Ok(Trace { columns })
    }

    /// Captures a trace while simultaneously feeding every retirement to
    /// `tracer` — one simulation pass serves both the recording and the
    /// first analysis, so a cache miss costs no more than the analysis
    /// alone did without the cache.
    ///
    /// # Errors
    ///
    /// Propagates simulation faults, like [`vp_sim::run`](crate::run).
    pub fn capture_with(
        program: &Program,
        limits: RunLimits,
        tracer: &mut impl Tracer,
    ) -> Result<Trace, SimError> {
        let mut rec = TraceRecorder::new();
        run(
            program,
            &mut crate::ChainTracer::new(&mut rec, tracer),
            limits,
        )?;
        let mut columns = rec.into_columns();
        columns.shrink_to_fit();
        Ok(Trace { columns })
    }

    /// Wraps an already-recorded event list (converted to columnar form).
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        Trace {
            columns: TraceColumns::from_events(&events),
        }
    }

    /// Wraps an already-built column set.
    #[must_use]
    pub fn from_columns(columns: TraceColumns) -> Trace {
        Trace { columns }
    }

    /// The columnar representation.
    #[must_use]
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// Iterates the trace as owned [`TraceEvent`]s.
    #[must_use]
    pub fn iter(&self) -> crate::columns::Events<'_> {
        self.columns.iter()
    }

    /// Number of retired instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Approximate resident size in bytes (for cache accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.columns.approx_bytes()
    }

    /// Replays the trace into `tracer` against `program`.
    ///
    /// # Errors
    ///
    /// See [`TraceColumns::replay`].
    pub fn replay(&self, program: &Program, tracer: &mut impl Tracer) -> io::Result<()> {
        self.columns.replay(program, tracer)
    }

    /// Serialises the trace in the compact checksummed columnar binary
    /// format (`provptr3`), with one `write_all` on `w`.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        write_columns(w, &self.columns)
    }

    /// Deserialises a trace written by [`Trace::write_to`] from an
    /// in-memory buffer. Only the current `provptr3` format is read.
    ///
    /// # Errors
    ///
    /// See [`read_columns`].
    pub fn read_from(bytes: &[u8]) -> Result<Trace, TraceError> {
        Ok(Trace {
            columns: read_columns(bytes)?,
        })
    }
}

/// The first point at which two retirement streams disagree.
///
/// `None` on one side means that stream ended while the other still had
/// events (a length mismatch is itself a divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index of the first differing event.
    pub index: usize,
    /// The left stream's event at `index`, if it had one.
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index`, if it had one.
    pub right: Option<TraceEvent>,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "traces diverge at event {}: left = {:?}, right = {:?}",
            self.index, self.left, self.right
        )
    }
}

impl std::error::Error for TraceDivergence {}

/// Finds the first event where two retirement streams differ, or `None`
/// when they are identical (including length).
///
/// This is the differential-testing primitive: run the optimized simulator
/// and an independent reference over the same program and compare their
/// streams field-for-field. Accepts anything yielding [`TraceEvent`]s, so
/// a columnar [`Trace`] compares directly against a row-oriented
/// `Vec<TraceEvent>` without converting either side:
///
/// ```
/// use vp_sim::record::{first_divergence, Trace};
/// use vp_sim::RunLimits;
/// use vp_isa::asm::assemble;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 2\nhalt\n")?;
/// let a = Trace::capture(&p, RunLimits::default())?;
/// let b = Trace::capture(&p, RunLimits::default())?;
/// assert!(first_divergence(a.iter(), b.iter()).is_none());
/// # Ok(())
/// # }
/// ```
pub fn first_divergence<A, B>(a: A, b: B) -> Option<TraceDivergence>
where
    A: IntoIterator<Item = TraceEvent>,
    B: IntoIterator<Item = TraceEvent>,
{
    let mut a = a.into_iter();
    let mut b = b.into_iter();
    let mut index = 0usize;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (left, right) if left == right => index += 1,
            (left, right) => return Some(TraceDivergence { index, left, right }),
        }
    }
}

/// The spill format: varint section lengths, raw flag column,
/// zigzag-varint delta-encoded address/value columns, then an FNV-1a-64
/// checksum over every body byte, so corruption that would decode as
/// plausible-but-wrong column data is caught instead of silently accepted.
const MAGIC: &[u8; 8] = b"provptr3";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Serialises a trace (as events) to a writer in the current columnar
/// format (pass `&mut writer` to keep it).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_trace<W: Write>(w: W, events: &[TraceEvent]) -> io::Result<()> {
    write_columns(w, &TraceColumns::from_events(events))
}

/// Deserialises a trace from an in-memory buffer.
///
/// # Errors
///
/// A typed [`TraceError`]: bad magic, absurd length prefix, truncation
/// or corruption.
pub fn read_trace(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
    Ok(read_columns(bytes)?.iter().collect())
}

/// Serialises a columnar trace in the current (`provptr3`) format: the
/// columnar body followed by an FNV-1a-64 checksum over the body bytes.
/// The whole file is built in memory and handed to `w` in one
/// `write_all`, so an unbuffered [`std::fs::File`] is a fine writer.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_columns<W: Write>(mut w: W, cols: &TraceColumns) -> io::Result<()> {
    w.write_all(&encode(cols))
}

/// The whole `provptr3` file for `cols`: magic, body, checksum.
fn encode(cols: &TraceColumns) -> Vec<u8> {
    let c = cols.raw_parts();
    // Most deltas fit one varint byte; the vector grows for the rest.
    let mut out = Vec::with_capacity(
        MAGIC.len() + 48 + 3 * c.flags.len() + 2 * c.dest_val.len() + 2 * c.mem_addr.len() + 8,
    );
    out.extend_from_slice(MAGIC);
    put_varint(&mut out, c.flags.len() as u64);
    put_varint(&mut out, c.dest_val.len() as u64);
    put_varint(&mut out, c.mem_addr.len() as u64);
    put_varint(&mut out, c.stored.len() as u64);
    // Flag column, verbatim.
    out.extend_from_slice(c.flags);
    // Address column: delta vs the previous event's address (consecutive
    // instructions differ by ±small values almost always).
    let mut prev = 0i64;
    for &a in c.addr {
        let v = i64::from(a);
        put_varint(&mut out, zigzag(v - prev));
        prev = v;
    }
    // Next-PC column: delta vs the fallthrough (`addr + 1`), which is
    // zero for every non-taken-branch instruction.
    for (&a, &np) in c.addr.iter().zip(c.next_pc) {
        put_varint(&mut out, zigzag(i64::from(np) - (i64::from(a) + 1)));
    }
    // Destination register column, verbatim.
    out.extend_from_slice(c.dest_reg);
    // Destination values: delta vs the same static instruction's previous
    // value (strides and repeated last-values — the very predictability
    // the paper measures — make these deltas tiny).
    let mut last = LastValues::new(c.addr);
    let mut values = c.dest_val.iter();
    for (&f, &a) in c.flags.iter().zip(c.addr) {
        if f & F_DEST != 0 {
            let value = *values.next().expect("one value per destination flag");
            let prev = std::mem::replace(last.slot(a), value);
            put_varint(&mut out, zigzag(value.wrapping_sub(prev) as i64));
        }
    }
    // Memory addresses and stored values: delta vs the previous one.
    for column in [c.mem_addr, c.stored] {
        let mut prev = 0u64;
        for &v in column {
            put_varint(&mut out, zigzag(v.wrapping_sub(prev) as i64));
            prev = v;
        }
    }
    let checksum = fnv1a(&out[MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Deserialises a columnar trace in the `provptr3` format from an
/// in-memory buffer (read a spill file with one [`std::fs::read`]).
///
/// # Errors
///
/// A typed [`TraceError`]. Any other magic, including those of retired
/// earlier formats, is [`TraceError::BadMagic`]. Length
/// prefixes are bounded by [`MAX_TRACE_EVENTS`] and never trusted for
/// allocation: a column is allocated only once the buffer is seen to hold
/// the bytes it needs. The trailing checksum is mandatory: a missing
/// trailer is [`TraceError::Truncated`], a mismatching one is
/// [`TraceError::Corrupt`]. Bytes after the trailer are ignored.
pub fn read_columns(bytes: &[u8]) -> Result<TraceColumns, TraceError> {
    let mut r = Cursor { bytes, pos: 0 };
    if r.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let cols = read_body(&mut r)?;
    let body_hash = fnv1a(&bytes[MAGIC.len()..r.pos]);
    let trailer = r.take(8, "checksum trailer")?;
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if stored != body_hash {
        return Err(TraceError::Corrupt {
            context: format!(
                "checksum mismatch: stored {stored:#018x}, computed {body_hash:#018x}"
            ),
        });
    }
    Ok(cols)
}

/// Parses the columnar body (magic already consumed, checksum not read).
fn read_body(r: &mut Cursor<'_>) -> Result<TraceColumns, TraceError> {
    let n = r.varint("event count")?;
    if n > MAX_TRACE_EVENTS {
        return Err(TraceError::AbsurdLength {
            claimed: n,
            limit: MAX_TRACE_EVENTS,
        });
    }
    let n_dest = r.varint("dest count")?;
    let n_mem = r.varint("mem count")?;
    let n_store = r.varint("store count")?;
    if n_dest > n || n_mem > n || n_store > n_mem {
        return Err(TraceError::Corrupt {
            context: format!(
                "sparse counts ({n_dest} dest, {n_mem} mem, {n_store} store) \
                 exceed event count {n}"
            ),
        });
    }
    let n = n as usize;

    // Flag column: the buffer must hold all `n` bytes before any column
    // is sized from `n`.
    let flags = r.take(n, "flag column")?.to_vec();
    // Validate every flag byte and count the populations the sparse
    // columns must match.
    let (mut cd, mut cm, mut cs) = (0u64, 0u64, 0u64);
    for &f in &flags {
        if f & !F_ALL != 0
            || (f & F_DEST_FP != 0 && f & F_DEST == 0)
            || (f & F_MEM_STORE != 0 && f & F_MEM == 0)
            || (f & F_TAKEN != 0 && f & F_BRANCH == 0)
        {
            return Err(TraceError::Corrupt {
                context: format!("invalid flag byte {f:#04x}"),
            });
        }
        cd += u64::from(f & F_DEST != 0);
        cm += u64::from(f & F_MEM != 0);
        cs += u64::from(f & F_MEM_STORE != 0);
    }
    if (cd, cm, cs) != (n_dest, n_mem, n_store) {
        return Err(TraceError::Corrupt {
            context: format!(
                "flag populations ({cd} dest, {cm} mem, {cs} store) disagree \
                 with header counts ({n_dest}, {n_mem}, {n_store})"
            ),
        });
    }
    // The flag column proved `n` is real data, and the sparse counts
    // equal its populations, so exact reservations are safe.
    let (n_dest, n_mem, n_store) = (n_dest as usize, n_mem as usize, n_store as usize);

    let mut addr = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        let d = unzigzag(r.varint("addr column")?);
        let v = prev
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| TraceError::Corrupt {
                context: "instruction address out of range".to_owned(),
            })?;
        addr.push(v);
        prev = i64::from(v);
    }

    let mut next_pc = Vec::with_capacity(n);
    for &a in &addr {
        let d = unzigzag(r.varint("next-pc column")?);
        let v = (i64::from(a) + 1)
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| TraceError::Corrupt {
                context: "next-pc out of range".to_owned(),
            })?;
        next_pc.push(v);
    }

    let dest_reg = r.take(n_dest, "destination register column")?.to_vec();
    if let Some(&reg) = dest_reg.iter().find(|&&reg| Reg::try_new(reg).is_none()) {
        return Err(TraceError::Corrupt {
            context: format!("register {reg} out of range"),
        });
    }

    let mut dest_val = Vec::with_capacity(n_dest);
    let mut last = LastValues::new(&addr);
    for (&f, &a) in flags.iter().zip(&addr) {
        if f & F_DEST != 0 {
            let d = unzigzag(r.varint("destination value column")?) as u64;
            let slot = last.slot(a);
            *slot = slot.wrapping_add(d);
            dest_val.push(*slot);
        }
    }

    let mut mem_addr = Vec::with_capacity(n_mem);
    let mut prev = 0u64;
    for _ in 0..n_mem {
        prev = prev.wrapping_add(unzigzag(r.varint("memory address column")?) as u64);
        mem_addr.push(prev);
    }

    let mut stored = Vec::with_capacity(n_store);
    let mut prev = 0u64;
    for _ in 0..n_store {
        prev = prev.wrapping_add(unzigzag(r.varint("stored value column")?) as u64);
        stored.push(prev);
    }

    Ok(TraceColumns::from_raw_parts(
        flags, addr, next_pc, dest_reg, dest_val, mem_addr, stored,
    ))
}

/// Smallest address range always given a dense last-value table (512 KiB).
const DENSE_MIN: usize = 1 << 16;

/// The last destination value of each static instruction: the base of
/// its next value delta, 0 before its first write.
///
/// Real programs have a few thousand instructions, so the table is a
/// dense column indexed by address. When the largest address exceeds
/// both the trace length and [`DENSE_MIN`] — a sparse hand-built trace,
/// or a corrupt address column being decoded — it is a map instead, so
/// the table never outgrows the trace.
enum LastValues {
    Dense(Vec<u64>),
    Sparse(HashMap<u32, u64>),
}

impl LastValues {
    fn new(addr: &[u32]) -> Self {
        let span = addr.iter().max().map_or(0, |&a| a as usize + 1);
        if span <= addr.len().max(DENSE_MIN) {
            LastValues::Dense(vec![0; span])
        } else {
            LastValues::Sparse(HashMap::new())
        }
    }

    /// The slot of `addr`, one of the addresses the table was built for.
    #[inline]
    fn slot(&mut self, addr: u32) -> &mut u64 {
        match self {
            LastValues::Dense(values) => &mut values[addr as usize],
            LastValues::Sparse(values) => values.entry(addr).or_insert(0),
        }
    }
}

// --- varint / zigzag helpers -------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A read position in an in-memory trace file.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `len` bytes, or [`TraceError::Truncated`] if the buffer
    /// holds fewer.
    fn take(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], TraceError> {
        if self.bytes.len() - self.pos < len {
            return Err(TraceError::Truncated { context });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// The next LEB128 varint; most are one byte.
    #[inline]
    fn varint(&mut self, context: &'static str) -> Result<u64, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.long_varint(context),
        }
    }

    fn long_varint(&mut self, context: &'static str) -> Result<u64, TraceError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(TraceError::Truncated { context });
            };
            self.pos += 1;
            let low = u64::from(byte & 0x7f);
            if shift > 63 || (shift == 63 && low > 1) {
                return Err(TraceError::Corrupt {
                    context: format!("varint overflow in {context}"),
                });
            }
            out |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }
}

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, InstrMix, RunLimits};
    use vp_isa::asm::assemble;

    fn record(src: &str) -> (Program, Vec<TraceEvent>) {
        let p = assemble(src).unwrap();
        let mut rec = TraceRecorder::new();
        run(&p, &mut rec, RunLimits::default()).unwrap();
        (p, rec.into_events())
    }

    const SAMPLE: &str = ".f64 1.5\nli r1, 0\nli r2, 20\n\
top: fld f1, (r0)\nfadd f2, f2, f1\nsd r1, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";

    #[test]
    fn serialisation_round_trips() {
        let (_, events) = record(SAMPLE);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &events).unwrap();
        let back = read_trace(bytes.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn replay_matches_live_tracing() {
        let (p, events) = record(SAMPLE);
        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        replay(&p, &events, &mut replayed).unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let (_, events) = record(SAMPLE);
        let other = assemble("halt\n").unwrap();
        let e = replay(&other, &events, &mut crate::NullTracer).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let e = read_trace(&b"notatrace........"[..]).unwrap_err();
        assert!(matches!(e, TraceError::BadMagic), "{e}");
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let (_, events) = record(SAMPLE);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &events).unwrap();
        bytes.truncate(bytes.len() - 3);
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_without_allocation() {
        // Claim u64::MAX events, provide nothing.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_varint(&mut bytes, u64::MAX);
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::AbsurdLength { .. }), "{e}");
    }

    #[test]
    fn plausible_length_with_missing_data_is_truncation_not_oom() {
        // A count below the absurdity limit but with no payload must fail
        // on the actual byte shortage, not pre-allocate count elements.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_varint(&mut bytes, MAX_TRACE_EVENTS); // n
        put_varint(&mut bytes, 0); // n_dest
        put_varint(&mut bytes, 0); // n_mem
        put_varint(&mut bytes, 0); // n_store
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
    }

    #[test]
    fn inconsistent_flag_populations_are_corrupt() {
        // One event whose flags claim a dest write, but a header that
        // promises zero dest entries.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_varint(&mut bytes, 1); // n
        put_varint(&mut bytes, 0); // n_dest
        put_varint(&mut bytes, 0); // n_mem
        put_varint(&mut bytes, 0); // n_store
        bytes.push(F_DEST);
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn unknown_flag_bits_are_corrupt() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        bytes.push(0x80); // undefined bit
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn trace_capture_matches_recorder_and_round_trips() {
        let (p, events) = record(SAMPLE);
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        assert_eq!(trace.len(), events.len());
        assert!(!trace.is_empty());
        assert!(trace.approx_bytes() > 0);

        let mut live = InstrMix::new();
        run(&p, &mut live, RunLimits::default()).unwrap();
        let mut replayed = InstrMix::new();
        trace.replay(&p, &mut replayed).unwrap();
        assert_eq!(live, replayed);

        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
    }

    #[test]
    fn event_kinds_are_preserved() {
        let (_, events) = record(SAMPLE);
        assert!(events
            .iter()
            .any(|e| matches!(e.dest, Some((RegClass::Fp, _, _)))));
        assert!(events
            .iter()
            .any(|e| matches!(e.mem, Some(MemAccess { store: true, .. }))));
        assert!(events.iter().any(|e| e.taken == Some(true)));
        assert!(events.iter().any(|e| e.taken == Some(false)));
    }

    #[test]
    fn body_bit_flip_fails_the_checksum() {
        let (_, events) = record(SAMPLE);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &events).unwrap();
        // Flip one bit in every body byte position in turn; each corrupted
        // stream must fail with a typed error, never decode silently.
        for i in 8..bytes.len() {
            bytes[i] ^= 0x10;
            let result = read_trace(bytes.as_slice());
            match result {
                Err(
                    TraceError::AbsurdLength { .. }
                    | TraceError::Truncated { .. }
                    | TraceError::Corrupt { .. },
                ) => {}
                other => panic!("flip at byte {i}: expected typed error, got {other:?}"),
            }
            bytes[i] ^= 0x10;
        }
    }

    #[test]
    fn missing_checksum_trailer_is_truncation() {
        let (_, events) = record(SAMPLE);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &events).unwrap();
        bytes.truncate(bytes.len() - 8);
        let e = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(e, TraceError::Truncated { .. }), "{e}");
    }

    #[test]
    fn divergence_finds_first_difference() {
        let (_, events) = record(SAMPLE);
        assert_eq!(
            first_divergence(events.iter().copied(), events.iter().copied()),
            None
        );

        // A mutated value diverges at its own index.
        let mut mutated = events.clone();
        mutated[3].next_pc = InstrAddr::new(9999);
        let d = first_divergence(events.iter().copied(), mutated.iter().copied()).unwrap();
        assert_eq!(d.index, 3);
        assert_eq!(d.left, Some(events[3]));
        assert_eq!(d.right, Some(mutated[3]));

        // A shorter stream diverges at the missing tail.
        let d = first_divergence(
            events.iter().copied(),
            events[..events.len() - 1].iter().copied(),
        )
        .unwrap();
        assert_eq!(d.index, events.len() - 1);
        assert_eq!(d.right, None);
        assert!(d.to_string().contains("diverge at event"));
    }

    #[test]
    fn sparse_high_addresses_round_trip_through_a_map() {
        // Three destination writes at far-apart addresses near the top of
        // the address space: a dense table would need 32 GiB.
        let ev = |addr: u32, value: u64| TraceEvent {
            addr: InstrAddr::new(addr),
            dest: Some((RegClass::Int, Reg::new(3), value)),
            mem: None,
            stored: None,
            taken: None,
            next_pc: InstrAddr::new(addr.wrapping_add(1)),
        };
        let events = vec![
            ev(u32::MAX - 1, 7),
            ev(5, 9),
            ev(u32::MAX - 1, 8),
            ev(1 << 31, 1),
        ];
        let cols = TraceColumns::from_events(&events);
        assert!(matches!(
            LastValues::new(cols.raw_parts().addr),
            LastValues::Sparse(_)
        ));
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &events).unwrap();
        assert_eq!(read_trace(&bytes).unwrap(), events);
    }

    #[test]
    fn varint_round_trips_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert!(bytes.len() <= 10);
            let mut r = Cursor {
                bytes: &bytes,
                pos: 0,
            };
            assert_eq!(r.varint("t").unwrap(), v);
            assert_eq!(r.pos, bytes.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
