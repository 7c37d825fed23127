//! Micro-benchmarks for the analysis-side components that run over whole
//! profile vectors and traces: the Section 4 metrics, decile histogram
//! construction, profile-image merging and the `provptr3` trace codec.

use provp_bench::micro::Group;
use vp_profile::{merge, ProfileCollector};
use vp_sim::{run, RunLimits, Trace};
use vp_stats::metrics::{average_distance, max_distance};
use vp_stats::DecileHistogram;
use vp_workloads::{InputSet, Workload, WorkloadKind};

fn profile_images(n: u32) -> Vec<vp_profile::ProfileImage> {
    let w = Workload::new(WorkloadKind::Gcc);
    InputSet::train_set(n)
        .iter()
        .map(|input| {
            let mut c = ProfileCollector::new("bench");
            run(&w.program(input), &mut c, RunLimits::default()).unwrap();
            c.into_image()
        })
        .collect()
}

fn bench_metrics() {
    // 5 runs x 2000 coordinates, the realistic Section 4 shape.
    let vectors: Vec<Vec<f64>> = (0..5)
        .map(|r| {
            (0..2000)
                .map(|i| ((i * 37 + r * 11) % 101) as f64)
                .collect()
        })
        .collect();
    let mut group = Group::new("stats").samples(30);
    group.bench("max-distance", || max_distance(&vectors));
    group.bench("average-distance", || average_distance(&vectors));
    let values: Vec<f64> = (0..2000).map(|i| (i % 101) as f64).collect();
    group.bench("decile-histogram", || DecileHistogram::from_values(&values));
}

fn bench_profile_merge() {
    let images = profile_images(5);
    let mut group = Group::new("profile").samples(20);
    group.bench("merge-5-runs", || merge::intersect_and_sum(&images));
    group.bench("format-round-trip", || {
        let text = vp_profile::format::to_text(&images[0]);
        vp_profile::format::from_text(&text).unwrap().len()
    });
}

/// The `provptr3` codec on the compress reference trace, as the trace
/// store runs it: `Trace::write_to` into a reused buffer and
/// `Trace::read_from` on the encoded bytes.
fn bench_trace_io() {
    let w = Workload::new(WorkloadKind::Compress);
    let trace = Trace::capture(&w.program(&InputSet::reference()), RunLimits::default()).unwrap();
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    println!(
        "trace-io: compress reference, {} events, {} bytes on disk",
        trace.len(),
        bytes.len()
    );

    let mut group = Group::new("trace-io")
        .samples(10)
        .per(trace.len() as u64, "event");
    let mut out = Vec::with_capacity(bytes.len());
    group.bench("write", || {
        out.clear();
        trace.write_to(&mut out).unwrap();
        out.len()
    });
    group.bench("read", || Trace::read_from(bytes.as_slice()).unwrap().len());
}

fn main() {
    bench_metrics();
    bench_profile_merge();
    bench_trace_io();
}
