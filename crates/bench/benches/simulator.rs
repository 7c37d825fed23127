//! Micro-benchmarks for the simulation stack: raw functional simulation,
//! simulation under the profile collector, and simulation under the ILP
//! analyzer — i.e. the cost of each trace consumer — plus trace replay,
//! the path the `TraceStore` substitutes for re-simulation.

use provp_bench::micro::Group;
use vp_ilp::{IlpAnalyzer, IlpConfig};
use vp_predictor::PredictorConfig;
use vp_profile::ProfileCollector;
use vp_sim::record::Trace;
use vp_sim::{run, FnTracer, NullTracer, Retirement, RunLimits};
use vp_workloads::{InputSet, Workload, WorkloadKind};

fn main() {
    let workload = Workload::new(WorkloadKind::Compress);
    let program = workload.program(&InputSet::train(0));
    let instructions = run(&program, &mut NullTracer, RunLimits::default())
        .unwrap()
        .instructions();
    println!("trace-consumers: {instructions} dynamic instructions per sample");

    let trace = Trace::capture(&program, RunLimits::default()).unwrap();
    let mut group = Group::new("trace-consumers").samples(10);

    group.bench("functional-sim", || {
        run(&program, &mut NullTracer, RunLimits::default())
            .unwrap()
            .instructions()
    });
    group.bench("trace-replay", || {
        let mut mix = vp_sim::InstrMix::new();
        trace.replay(&program, &mut mix).unwrap();
        mix.total()
    });
    group.bench("profile-collector", || {
        let mut collector = ProfileCollector::new("bench");
        run(&program, &mut collector, RunLimits::default()).unwrap();
        collector.into_image().len()
    });
    group.bench("profile-collector-replay", || {
        let mut collector = ProfileCollector::new("bench");
        trace.replay(&program, &mut collector).unwrap();
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
        run(&program, &mut t, RunLimits::default()).unwrap();
        predictor.stats().speculated_correct
    });
    group.bench("ilp-analyzer", || {
        let mut a = IlpAnalyzer::new(IlpConfig::paper_vp_fsm());
        run(&program, &mut a, RunLimits::default()).unwrap();
        a.finish().cycles
    });
}
