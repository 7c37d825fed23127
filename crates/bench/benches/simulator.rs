//! Micro-benchmarks for the simulation stack: raw functional simulation,
//! trace capture (alone and feeding the profile collector in the same
//! pass), simulation under the profile collector and under the ILP
//! analyzer — i.e. the cost of each trace consumer — plus trace replay,
//! the path the `TraceStore` substitutes for re-simulation.
//!
//! Before timing it prints the dynamic opcode and opcode-pair mix of the
//! paper's 54 simulations (nine workloads, five training inputs and the
//! reference input each), counted by a tracer local to this bench. The
//! mix says which handlers and which adjacent pairs the interpreter's
//! dispatch loop spends its retirements on.
//!
//! ```bash
//! cargo bench -p provp-bench --bench simulator
//! ```

use provp_bench::micro::Group;
use vp_ilp::{IlpAnalyzer, IlpConfig};
use vp_isa::{Opcode, Program};
use vp_predictor::PredictorConfig;
use vp_profile::ProfileCollector;
use vp_sim::record::Trace;
use vp_sim::{run, FnTracer, NullTracer, Retirement, RunLimits, Tracer};
use vp_workloads::{InputSet, Workload, WorkloadKind};

/// Counts retired opcodes and adjacent opcode pairs within each run.
struct OpcodeMix {
    ops: Vec<u64>,
    pairs: Vec<u64>,
    mem: u64,
    prev: Option<u8>,
}

impl OpcodeMix {
    fn new() -> Self {
        OpcodeMix {
            ops: vec![0; 256],
            pairs: vec![0; 256 * 256],
            mem: 0,
            prev: None,
        }
    }

    /// Runs `program` and adds its retirements; pairs never span runs.
    fn add_run(&mut self, program: &Program) {
        self.prev = None;
        run(program, self, RunLimits::default()).unwrap();
    }

    fn total(&self) -> u64 {
        self.ops.iter().sum()
    }

    fn print(&self, label: &str, top: usize) {
        let total = self.total().max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / total;
        let name = |code: usize| Opcode::from_u8(code as u8).map_or("?", Opcode::mnemonic);
        println!(
            "opcode-mix/{label}: {} retirements, {:.1}% touch memory",
            self.total(),
            pct(self.mem)
        );
        let mut ops: Vec<(usize, u64)> = self.ops.iter().copied().enumerate().collect();
        ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(code, n) in ops.iter().take(top).filter(|(_, n)| *n > 0) {
            println!("  {:<8} {:>5.1}%", name(code), pct(n));
        }
        let mut pairs: Vec<(usize, u64)> = self.pairs.iter().copied().enumerate().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("opcode-pairs/{label}:");
        for &(code, n) in pairs.iter().take(top).filter(|(_, n)| *n > 0) {
            let pair = format!("{}->{}", name(code / 256), name(code % 256));
            println!("  {pair:<16} {:>5.1}%", pct(n));
        }
    }
}

impl Tracer for OpcodeMix {
    fn retire(&mut self, ev: &Retirement<'_>) {
        let op = ev.instr.op as u8;
        self.ops[usize::from(op)] += 1;
        if let Some(prev) = self.prev {
            self.pairs[usize::from(prev) * 256 + usize::from(op)] += 1;
        }
        self.prev = Some(op);
        self.mem += u64::from(ev.mem.is_some());
    }
}

/// The paper's 54 simulations: every workload's training inputs and its
/// reference input.
fn paper_programs() -> Vec<(WorkloadKind, Program)> {
    Workload::all()
        .iter()
        .flat_map(|w| {
            let mut inputs = w.train_inputs();
            inputs.push(InputSet::reference());
            inputs
                .into_iter()
                .map(move |input| (w.kind(), w.program(&input)))
        })
        .collect()
}

/// Prints the opcode and pair mix over all 54 simulations, then each
/// workload's share of memory operations.
fn bench_mix(programs: &[(WorkloadKind, Program)]) {
    let mut mix = OpcodeMix::new();
    for (_, p) in programs {
        mix.add_run(p);
    }
    mix.print("paper-54", 10);
    for kind in WorkloadKind::ALL {
        let mut own = OpcodeMix::new();
        for (_, p) in programs.iter().filter(|(k, _)| *k == kind) {
            own.add_run(p);
        }
        let share = 100.0 * own.mem as f64 / own.total().max(1) as f64;
        println!("opcode-mix/{}: {share:.1}% touch memory", kind.name());
    }
}

/// Every consumer of one program's retirement stream.
fn bench_consumers(label: &str, program: &Program) {
    let instructions = run(program, &mut NullTracer, RunLimits::default())
        .unwrap()
        .instructions();
    println!("{label}: {instructions} dynamic instructions per sample");

    let trace = Trace::capture(program, RunLimits::default()).unwrap();
    let mut group = Group::new(label).samples(10).per(instructions, "instr");

    group.bench("functional-sim", || {
        run(program, &mut NullTracer, RunLimits::default())
            .unwrap()
            .instructions()
    });
    group.bench("capture", || {
        Trace::capture(program, RunLimits::default()).unwrap().len()
    });
    group.bench("capture-with-collector", || {
        let mut collector = ProfileCollector::new("bench");
        let trace = Trace::capture_with(program, RunLimits::default(), &mut collector).unwrap();
        (trace.len(), collector.into_image().len())
    });
    group.bench("trace-replay", || {
        let mut mix = vp_sim::InstrMix::new();
        trace.replay(program, &mut mix).unwrap();
        mix.total()
    });
    group.bench("profile-collector", || {
        let mut collector = ProfileCollector::new("bench");
        run(program, &mut collector, RunLimits::default()).unwrap();
        collector.into_image().len()
    });
    group.bench("profile-collector-replay", || {
        let mut collector = ProfileCollector::new("bench");
        trace.replay(program, &mut collector).unwrap();
        collector.into_image().len()
    });
    group.bench("predictor-tracer", || {
        // Per-event glue: every value-producing retirement goes to the
        // predictor as the simulator retires it.
        let mut predictor = PredictorConfig::spec_table_stride_fsm().build();
        let mut t = FnTracer::new(|ev: &Retirement<'_>| {
            if let Some((_, _, value)) = ev.dest {
                predictor.access(ev.addr, ev.instr.directive, value);
            }
        });
        run(program, &mut t, RunLimits::default()).unwrap();
        predictor.stats().speculated_correct
    });
    group.bench("ilp-analyzer", || {
        let mut a = IlpAnalyzer::new(IlpConfig::paper_vp_fsm());
        run(program, &mut a, RunLimits::default()).unwrap();
        a.finish().cycles
    });
}

/// Plain simulation and capture over all 54 paper simulations, per
/// retired instruction.
fn bench_paper(programs: &[(WorkloadKind, Program)]) {
    let programs: Vec<&Program> = programs.iter().map(|(_, p)| p).collect();
    let instructions: u64 = programs
        .iter()
        .map(|p| {
            run(p, &mut NullTracer, RunLimits::default())
                .unwrap()
                .instructions()
        })
        .sum();
    let mut group = Group::new("paper-54").samples(5).per(instructions, "instr");
    group.bench("functional-sim", || {
        programs
            .iter()
            .map(|p| {
                run(p, &mut NullTracer, RunLimits::default())
                    .unwrap()
                    .instructions()
            })
            .sum::<u64>()
    });
    group.bench("capture", || {
        programs
            .iter()
            .map(|p| Trace::capture(p, RunLimits::default()).unwrap().len())
            .sum::<usize>()
    });
}

fn main() {
    let programs = paper_programs();
    bench_mix(&programs);
    let compress = Workload::new(WorkloadKind::Compress).program(&InputSet::train(0));
    bench_consumers("compress-train0", &compress);
    // The memory-heaviest of the nine workloads (see the mix printout).
    let memory = Workload::new(WorkloadKind::Li).program(&InputSet::train(0));
    bench_consumers("li-train0", &memory);
    bench_paper(&programs);
}
