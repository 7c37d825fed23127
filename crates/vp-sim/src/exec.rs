//! Instruction semantics: the simulator's one executor.
//!
//! Text is decoded into `Decoded` records before it runs: register
//! operands become slots of the machine's unified register file (integer
//! `r0` reads a slot that always holds zero; a discarded destination
//! writes a sink slot), the reported destination and the branch target are
//! computed once, and the opcode is the handler tag. `run_on` decodes a
//! whole text segment once; [`step`] decodes the one instruction it
//! executes. Both then call the same `execute`.
//!
//! Arithmetic is trap-free by definition (like most simulators' functional
//! mode): integer division by zero yields 0, remainder by zero yields the
//! dividend, shift amounts are masked to 6 bits, and overflow wraps. This
//! keeps every workload deterministic without fault handling.

use vp_isa::{Instr, InstrAddr, Opcode, Program, Reg, RegClass};

use crate::machine::{slot, SINK};
use crate::{Machine, SimError};

/// A retired instruction delivered to a [`crate::Tracer`].
///
/// This is the unit of the SHADE-style trace: the paper's profile phase
/// consumes exactly `(static address, destination value)` pairs, and the ILP
/// machine additionally uses sources and memory effects.
#[derive(Debug, Clone, Copy)]
pub struct Retirement<'a> {
    /// Static address of the retired instruction.
    pub addr: InstrAddr,
    /// The instruction itself.
    pub instr: &'a Instr,
    /// Destination write, if the instruction produced a value:
    /// `(class, register, value)`. FP values are raw `f64` bits.
    pub dest: Option<(RegClass, Reg, u64)>,
    /// Memory effect, if any.
    pub mem: Option<MemAccess>,
    /// For stores: the value written to memory (the paper's §2.1 notes the
    /// prediction schemes "could be generalized and applied to memory
    /// storage operands"; this field lets the profiler measure that).
    pub stored: Option<u64>,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// Program counter after this instruction.
    pub next_pc: InstrAddr,
}

/// A memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Word address accessed.
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub store: bool,
}

/// Result of one [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Execution continues at `machine.pc()`.
    Continue,
    /// A `halt` retired; the machine is stopped.
    Halted,
}

/// One text instruction decoded for the executor: source and destination
/// register slots resolved (integer `r0` reads slot 0, which always holds
/// zero; a discarded or absent destination writes the sink), the reported
/// destination precomputed, and the branch target resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded<'a> {
    instr: &'a Instr,
    op: Opcode,
    rs1: u8,
    rs2: u8,
    rd: u8,
    dest: Option<(RegClass, Reg)>,
    imm: i64,
    /// `pc + imm` for conditional branches and `jal`; `None` when it
    /// leaves the 32-bit instruction address space.
    target: Option<InstrAddr>,
}

impl<'a> Decoded<'a> {
    /// Decodes `instr`, which sits at text address `pc`.
    pub(crate) fn new(pc: InstrAddr, instr: &'a Instr) -> Self {
        let src = |class: Option<RegClass>, reg: Reg| class.map_or(0, |c| slot(c, reg));
        let dest = instr.dest();
        Decoded {
            instr,
            op: instr.op,
            rs1: src(instr.op.src1_class(), instr.rs1),
            rs2: src(instr.op.src2_class(), instr.rs2),
            rd: dest.map_or(SINK, |(class, rd)| slot(class, rd)),
            dest,
            imm: instr.imm,
            target: i32::try_from(instr.imm).ok().and_then(|d| pc.offset(d)),
        }
    }

    /// Whether this is a `halt`.
    pub(crate) fn halts(&self) -> bool {
        self.op == Opcode::Halt
    }
}

/// Decodes a whole text segment once, for [`crate::runner::run_on`].
pub(crate) fn decode(program: &Program) -> Vec<Decoded<'_>> {
    program
        .iter()
        .map(|(pc, instr)| Decoded::new(pc, instr))
        .collect()
}

/// Executes `d`, the decoded instruction at the machine's PC, and returns
/// its retirement record. This is the simulator's only executor: [`step`]
/// decodes one instruction for it, `run_on` a whole text segment.
///
/// On a fault nothing is committed: registers, memory and the PC are as
/// before the call.
///
/// Always inlined into the run loop: as a call, passing the record back
/// through memory, it cost a plain run about 40% more per instruction.
#[inline(always)]
pub(crate) fn execute<'a>(
    machine: &mut Machine,
    d: &Decoded<'a>,
) -> Result<Retirement<'a>, SimError> {
    let pc = machine.pc;
    let a = machine.regs[usize::from(d.rs1)];
    let b = machine.regs[usize::from(d.rs2)];
    let imm = d.imm as u64;
    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
    let i = |v: u64| v as i64;

    let mut mem = None;
    let mut stored = None;
    let mut taken = None;
    let mut next_pc = pc.next();
    let overflow = SimError::TargetOverflow { at: pc };

    use Opcode::*;
    let value = match d.op {
        // ----- integer register-register -----
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => (if b == 0 { 0 } else { i(a).wrapping_div(i(b)) }) as u64,
        Rem => {
            (if b == 0 {
                i(a)
            } else {
                i(a).wrapping_rem(i(b))
            }) as u64
        }
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Sll => a << (b & 63),
        Srl => a >> (b & 63),
        Sra => (i(a) >> (b & 63)) as u64,
        Slt => u64::from(i(a) < i(b)),
        Sltu => u64::from(a < b),

        // ----- integer register-immediate -----
        Addi => a.wrapping_add(imm),
        Andi => a & imm,
        Ori => a | imm,
        Xori => a ^ imm,
        Slli => a << (imm & 63),
        Srli => a >> (imm & 63),
        Srai => (i(a) >> (imm & 63)) as u64,
        Slti => u64::from(i(a) < d.imm),
        Muli => a.wrapping_mul(imm),

        // ----- constants & moves -----
        Li => imm,
        Mv => a,

        // ----- memory -----
        Ld | Fld => {
            let addr = a.wrapping_add(imm);
            mem = Some(MemAccess { addr, store: false });
            machine.mem.read(addr)
        }
        Sd | Fsd => {
            let addr = a.wrapping_add(imm);
            machine.mem.write(addr, b);
            mem = Some(MemAccess { addr, store: true });
            stored = Some(b);
            0
        }

        // ----- floating point -----
        Fadd => (fa + fb).to_bits(),
        Fsub => (fa - fb).to_bits(),
        Fmul => (fa * fb).to_bits(),
        Fdiv => (fa / fb).to_bits(),
        Fmin => fa.min(fb).to_bits(),
        Fmax => fa.max(fb).to_bits(),
        Fneg => (-fa).to_bits(),
        Fmv => fa.to_bits(),
        CvtIf => (i(a) as f64).to_bits(),
        CvtFi => (if fa.is_nan() { 0 } else { fa as i64 }) as u64,
        Feq => u64::from(fa == fb),
        Flt => u64::from(fa < fb),
        Fle => u64::from(fa <= fb),

        // ----- control flow -----
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let t = match d.op {
                Beq => a == b,
                Bne => a != b,
                Blt => i(a) < i(b),
                Bge => i(a) >= i(b),
                Bltu => a < b,
                _ => a >= b,
            };
            taken = Some(t);
            if t {
                next_pc = d.target.ok_or(overflow)?;
            }
            0
        }
        Jal => {
            next_pc = d.target.ok_or(overflow)?;
            u64::from(pc.next().index())
        }
        Jalr => {
            next_pc = u32::try_from(a.wrapping_add(imm))
                .map(InstrAddr::new)
                .map_err(|_| overflow)?;
            u64::from(pc.next().index())
        }

        // ----- system -----
        Nop | Halt => 0,
    };

    // Commit: the sink absorbs the result of an instruction with no
    // architecturally visible destination, which is then not reported.
    machine.regs[usize::from(d.rd)] = value;
    machine.pc = next_pc;
    Ok(Retirement {
        addr: pc,
        instr: d.instr,
        dest: d.dest.map(|(class, rd)| (class, rd, value)),
        mem,
        stored,
        taken,
        next_pc,
    })
}

/// Executes the instruction at the machine's current PC and invokes
/// `on_retire` with the retirement record.
///
/// # Errors
///
/// - [`SimError::PcOutOfRange`] when the PC does not name a text-segment
///   instruction.
/// - [`SimError::TargetOverflow`] when a branch target leaves the 32-bit
///   instruction address space.
pub fn step<'a>(
    machine: &mut Machine,
    program: &'a Program,
    mut on_retire: impl FnMut(&Retirement<'a>),
) -> Result<StepOutcome, SimError> {
    let pc = machine.pc();
    let instr = program.fetch(pc).ok_or(SimError::PcOutOfRange {
        pc,
        text_len: program.len(),
    })?;
    let d = Decoded::new(pc, instr);
    on_retire(&execute(machine, &d)?);
    Ok(if d.halts() {
        StepOutcome::Halted
    } else {
        StepOutcome::Continue
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;

    fn exec(src: &str) -> (Machine, Vec<(u32, Option<u64>)>) {
        let p = assemble(src).unwrap();
        let mut m = Machine::for_program(&p);
        let mut log = Vec::new();
        for _ in 0..10_000 {
            let out = step(&mut m, &p, |ev| {
                log.push((ev.addr.index(), ev.dest.map(|(_, _, v)| v)));
            })
            .unwrap();
            if out == StepOutcome::Halted {
                return (m, log);
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_basics() {
        let (m, _) = exec(
            "li r1, 7\nli r2, 3\nadd r3, r1, r2\nsub r4, r1, r2\nmul r5, r1, r2\ndiv r6, r1, r2\nrem r7, r1, r2\nhalt\n",
        );
        let v = |r| m.read_reg(RegClass::Int, Reg::new(r));
        assert_eq!((v(3), v(4), v(5), v(6), v(7)), (10, 4, 21, 2, 1));
    }

    #[test]
    fn division_by_zero_is_defined() {
        let (m, _) = exec("li r1, 9\ndiv r2, r1, r0\nrem r3, r1, r0\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(2)), 0);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 9);
    }

    #[test]
    fn signed_vs_unsigned_compares() {
        let (m, _) = exec("li r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 1);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(4)), 0);
    }

    #[test]
    fn shifts_mask_amount() {
        let (m, _) = exec("li r1, 1\nli r2, 65\nsll r3, r1, r2\nli r4, -8\nsra r5, r4, r1\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 2); // 65 & 63 == 1
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(5)) as i64, -4);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (m, log) =
            exec(".data 100 200\nld r1, 1(r0)\naddi r2, r1, 1\nsd r2, 5(r0)\nld r3, 5(r0)\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 201);
        assert_eq!(m.memory().read(5), 201);
        // The store produces no dest value.
        assert_eq!(log[2].1, None);
    }

    #[test]
    fn fp_pipeline() {
        let (m, _) = exec(
            ".f64 1.5 2.5\nfld f1, (r0)\nfld f2, 1(r0)\nfadd f3, f1, f2\nfmul f4, f3, f3\nflt r5, f1, f2\ncvt.f.i r6, f4\nhalt\n",
        );
        assert_eq!(m.read_f64(Reg::new(3)), 4.0);
        assert_eq!(m.read_f64(Reg::new(4)), 16.0);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(5)), 1);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(6)), 16);
    }

    #[test]
    fn loop_retires_expected_stream() {
        let (_, log) = exec("li r1, 2\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n");
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, vec![0, 1, 2, 1, 2, 3]);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let (_, log) = exec("jal r31, fun\nhalt\nfun: li r1, 1\njalr r0, r31, 0\n");
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, vec![0, 2, 3, 1]);
        // jal wrote the link value 1.
        assert_eq!(log[0].1, Some(1));
    }

    #[test]
    fn writes_to_r0_are_not_reported_as_dest() {
        let (_, log) = exec("add r0, r0, r0\nhalt\n");
        assert_eq!(log[0].1, None);
    }

    #[test]
    fn pc_out_of_range_faults() {
        let p = assemble("nop\n").unwrap(); // no halt: falls off the end
        let mut m = Machine::for_program(&p);
        assert!(step(&mut m, &p, |_| {}).is_ok());
        let e = step(&mut m, &p, |_| {}).unwrap_err();
        assert!(matches!(e, SimError::PcOutOfRange { .. }));
    }

    #[test]
    fn unsigned_branches_differ_from_signed() {
        // r1 = -1 (huge unsigned), r2 = 1.
        let (_, log) = exec(
            "li r1, -1\nli r2, 1\nbltu r1, r2, never\nbgeu r1, r2, taken\nnever: li r3, 99\ntaken: halt\n",
        );
        let addrs: Vec<u32> = log.iter().map(|(a, _)| *a).collect();
        // bltu not taken (unsigned -1 is max), bgeu taken, skipping @4.
        assert_eq!(addrs, vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn fmin_fmax_follow_ieee_total_order_for_ordinary_values() {
        let (m, _) = exec(
            ".f64 2.5 -3.0\nfld f1, (r0)\nfld f2, 1(r0)\nfmin f3, f1, f2\nfmax f4, f1, f2\nhalt\n",
        );
        assert_eq!(m.read_f64(Reg::new(3)), -3.0);
        assert_eq!(m.read_f64(Reg::new(4)), 2.5);
    }

    #[test]
    fn jalr_faults_on_unrepresentable_target() {
        let p = assemble("li r1, -5\njalr r0, r1, 0\nhalt\n").unwrap();
        let mut m = Machine::for_program(&p);
        step(&mut m, &p, |_| {}).unwrap();
        let e = step(&mut m, &p, |_| {}).unwrap_err();
        assert!(matches!(e, SimError::TargetOverflow { .. }), "{e:?}");
    }

    #[test]
    fn branch_retirement_reports_taken_flag() {
        let p = assemble("li r1, 1\nbne r1, r0, t\nt: beq r1, r0, t\nhalt\n").unwrap();
        let mut m = Machine::for_program(&p);
        let mut taken_flags = Vec::new();
        for _ in 0..4 {
            let _ = step(&mut m, &p, |ev| taken_flags.push(ev.taken)).unwrap();
        }
        assert_eq!(taken_flags, vec![None, Some(true), Some(false), None]);
    }

    #[test]
    fn nan_conversion_is_defined() {
        let (m, _) = exec(".f64 0.0\nfld f1, (r0)\nfdiv f2, f1, f1\ncvt.f.i r3, f2\nhalt\n");
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 0);
    }
}
