//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <repro|repro-cached|sweep-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up, runs untraced iterations for
//! `--seconds` and reports the end-to-end metrics (`run_s`, `cpu_s`,
//! `peak_rss_mb`, `setup_s`). With `--trace 1` it alternates untraced
//! and traced iterations for `--seconds` and reports the per-layer
//! metrics, writing the traced run's spans to
//! `.perfbench/spans/<workload>-seed<n>.jsonl`. Every iteration checks
//! its output; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `METRICS.md`.

mod measure;
mod paper;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::{peak_rss_mb, Quartiles, SpeedProbe, PROBE_REFERENCE_S};
use paper::names::*;
use spans::Spans;
use workloads::{Bench, Sample, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Working directory for spill files and span dumps, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut raw = raw.into_iter();
    while let Some(arg) = raw.next() {
        let (flag, value) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), v.to_owned()),
            None => {
                let v = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
                (arg, v)
            }
        };
        let bad = |what: &str| format!("bad {flag} value `{value}` (want {what})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let result = if args.trace {
        traced_run(&args, &scratch)
    } else {
        untraced_run(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok((tally, metrics)) => {
            for message in &tally.messages {
                eprintln!("perfbench: check failed: {message}");
            }
            println!(
                "error_rate {} ({} failed / {} attempted)",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.failed,
                tally.attempted
            );
            println!("{}", result_json(&tally, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn print_header(args: &Args, bench: &dyn Bench) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "fingerprint nproc={nproc} threads={} rustc=\"{}\" profile={}",
        bench.threads(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    println!("inputs {}", bench.inputs());
}

/// Iterates `bench` until `seconds` have passed (at least once), reading
/// the speed probe between iterations. Returns each iteration's sample as
/// measured and in reference seconds, and every probe reading.
fn iterate_for(
    bench: &mut dyn Bench,
    tally: &mut Tally,
    seconds: f64,
    probe: &mut SpeedProbe,
) -> (Vec<Sample>, Vec<Sample>, Vec<f64>) {
    let start = Instant::now();
    let (mut raw, mut reference) = (Vec::new(), Vec::new());
    let mut readings = vec![probe.measure()];
    let mut before = readings[0];
    while raw.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let sample = bench.iterate(tally);
        let after = probe.measure();
        readings.push(after);
        reference.push(Sample {
            wall: SpeedProbe::to_reference(sample.wall, before, after),
            cpu: SpeedProbe::to_reference(sample.cpu, before, after),
        });
        raw.push(sample);
        before = after;
    }
    (raw, reference, readings)
}

fn print_quartiles(name: &str, unit: &str, values: &[f64]) -> f64 {
    let q = Quartiles::of(values);
    println!(
        "{name} median {:.6} {unit} q1 {:.6} q3 {:.6} n={}",
        q.median,
        q.q1,
        q.q3,
        values.len()
    );
    // The highest percentile with at least ten samples beyond it.
    if values.len() > 10 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        println!(
            "{name} p{:.0} {:.6} {unit} (10 samples above)",
            100.0 * (n - 10) as f64 / n as f64,
            sorted[n - 11]
        );
    }
    q.median
}

fn untraced_run(args: &Args, scratch: &Path) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let off = Spans::new(false);
    let mut probe = SpeedProbe::new();
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut bench: Option<Box<dyn Bench>> = None;
    // Set-up: the workload's preparation plus one checked warm-up
    // iteration, so caches fill and lazy initialisation finishes before
    // the clock starts.
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let before = probe.measure();
        let (ready, sample) = workloads::timed(|| {
            workloads::setup(&args.workload, args.seed, &off, scratch).map(|mut b| {
                b.iterate(&mut tally);
                b
            })
        });
        let after = probe.measure();
        bench = Some(ready?);
        setup_raw.push(sample.wall);
        setup_s.push(SpeedProbe::to_reference(sample.wall, before, after));
    }
    let mut bench = bench.expect("at least one set-up");
    print_header(args, bench.as_ref());
    let (raw, reference, readings) =
        iterate_for(bench.as_mut(), &mut tally, args.seconds, &mut probe);
    let peak = peak_rss_mb()? - SpeedProbe::resident_mb();
    bench.finish(&mut tally);
    let pick =
        |samples: &[Sample], f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    println!("as measured (host wall and CPU seconds):");
    print_quartiles("  run_s", "s", &pick(&raw, |s| s.wall));
    print_quartiles("  cpu_s", "s", &pick(&raw, |s| s.cpu));
    print_quartiles("  setup_s", "s", &setup_raw);
    print_quartiles("  speed_probe", "s", &readings);
    println!("in reference seconds (speed probe at {PROBE_REFERENCE_S} s):");
    let metrics = vec![
        (
            "run_s",
            print_quartiles("run_s", "s", &pick(&reference, |s| s.wall)),
            "s",
        ),
        (
            "cpu_s",
            print_quartiles("cpu_s", "s", &pick(&reference, |s| s.cpu)),
            "s",
        ),
        ("peak_rss_mb", peak, "MiB"),
        ("setup_s", print_quartiles("setup_s", "s", &setup_s), "s"),
    ];
    println!("peak_rss_mb {peak:.3} MiB (without the probe's table)");
    Ok((tally, metrics))
}

fn traced_run(args: &Args, scratch: &Path) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let spans = Spans::new(true);
    let mut bench = workloads::setup(&args.workload, args.seed, &spans, scratch)?;
    print_header(args, bench.as_ref());
    bench.iterate(&mut tally);
    // Untraced and traced iterations alternate, so a drift in the host's
    // speed reaches both sides of the tracing-overhead figure alike.
    let start = Instant::now();
    let mut untraced = Vec::new();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        untraced.push(bench.iterate(&mut tally));
        let result = bench.traced(&spans, &mut tally);
        tally.check_ok(result);
    }
    let traced = untraced.len();
    bench.finish(&mut tally);
    let path = PathBuf::from(WORK_DIR)
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans {} ({} spans)", path.display(), spans.spans().len());
    let metrics = layer_metrics(&spans, traced, &untraced, &bench.store_stats());
    Ok((tally, metrics))
}

/// Folds the traced run into the per-layer metrics (see `METRICS.md`).
fn layer_metrics(
    spans: &Spans,
    traced: usize,
    untraced: &[Sample],
    store: &provp_core::TraceStoreStats,
) -> Vec<Metric> {
    let n = traced as f64;
    let all = spans.name_totals(None);
    let work = spans.name_totals(Some("iteration"));
    let setup = spans.name_totals(Some("setup"));
    let counts = spans.counts_under(Some("iteration"));
    let all_counts = spans.counts_under(None);
    let ns = |name: &str| all.get(name).map_or(0.0, spans::NameTotal::ns_per_item);
    // Net costs subtract a baseline measured on the same input, so both
    // sides come from the probes (which run on the reference input).
    let probe = spans.name_totals(Some("probe"));
    let probe_ns = |name: &str| probe.get(name).map_or(0.0, spans::NameTotal::ns_per_item);
    let per_iter = |key: &str| counts.get(key).copied().unwrap_or(0) as f64 / n;
    let any_count = |key: &str| all_counts.get(key).copied().unwrap_or(0) as f64;
    // Milliseconds per iteration, plus the set-up's share when the
    // workload does that layer's work in set-up.
    let ms = |name: &str| {
        let total = |m: &std::collections::BTreeMap<&str, spans::NameTotal>| {
            m.get(name).map_or(0.0, |t| t.ns as f64 * 1e-6)
        };
        total(&work) / n + total(&setup)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics: Vec<Metric> = vec![
        ("vp-sim.run.ns_per_instr", ns(SIM_RUN), "ns"),
        ("vp-sim.capture.ns_per_instr", ns(CAPTURE), "ns"),
        ("vp-sim.replay.ns_per_event", ns(REPLAY), "ns"),
        (
            "vp-sim.instructions",
            per_iter("vp-sim.instructions"),
            "count",
        ),
        (
            "vp-profile.collect.ns_per_instr",
            probe_ns(COLLECT_RUN) - probe_ns(SIM_RUN),
            "ns",
        ),
        (
            "vp-profile.collect_replay.ns_per_event",
            ns(COLLECT_REPLAY),
            "ns",
        ),
        ("vp-profile.merge_ms", ms(MERGE), "ms"),
        ("vp-compiler.annotate_ms", ms(ANNOTATE), "ms"),
        ("replay.batch.ns_per_cell_event", ns(BATCH), "ns"),
        (
            "replay.attributed.ns_per_cell_event",
            ns(BATCH_ATTRIBUTED),
            "ns",
        ),
        (
            "replay.cells_requested",
            per_iter("replay.cells_requested"),
            "count",
        ),
        (
            "replay.cells_fused",
            per_iter("replay.cells_fused"),
            "count",
        ),
        ("replay.stream.ns_per_cell_event", ns(STREAM), "ns"),
        (
            "replay.stream.blocks",
            per_iter("replay.stream.blocks"),
            "count",
        ),
        (
            "replay.stream.stalls",
            per_iter("replay.stream.stalls"),
            "count",
        ),
        (
            "replay.stream.producer_wait_ms",
            per_iter("replay.stream.producer_wait_ms"),
            "ms",
        ),
        (
            "vp-ilp.analyze.ns_per_event",
            ns(ILP) - probe_ns(REPLAY),
            "ns",
        ),
        ("vp-ilp.replays", per_iter("vp-ilp.replays"), "count"),
        ("trace_store.encode.ns_per_event", ns(WRITE), "ns"),
        ("trace_store.decode.ns_per_event", ns(READ), "ns"),
        (
            "trace_store.spill_bytes_per_event",
            ratio(
                any_count("trace_store.spill_bytes"),
                any_count("trace_store.spill_events"),
            ),
            "B/event",
        ),
        (
            "trace_store.hit_ratio",
            ratio(
                (store.memory_hits + store.disk_hits) as f64,
                store.requests as f64,
            ),
            "ratio",
        ),
        (
            "trace_store.resident_mb",
            store.resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        (
            "trace_store.spill_failures",
            store.spill_failures as f64 + per_iter("trace_store.spill_failures"),
            "count",
        ),
    ];
    let layers = spans.layer_self_ns("iteration", "suite", paper::layer_of);
    let total: u64 = layers.values().sum();
    let self_s = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 * 1e-9 / n;
    let mut table = String::from("layer self time per traced iteration:");
    for layer in paper::LAYERS {
        let share = ratio(layers.get(layer).copied().unwrap_or(0) as f64, total as f64) * 100.0;
        let _ = write!(table, " {layer}={:.4}s ({share:.1}%)", self_s(layer));
        // The suite's self time is what no layer span covers.
        let suffix = if layer == "suite" {
            "other_s"
        } else {
            "self_s"
        };
        metrics.push((layer_key(layer, suffix), self_s(layer), "s"));
        metrics.push((layer_key(layer, "share"), share, "%"));
    }
    println!("{table}");
    let traced_s = Quartiles::of(&spans.root_seconds("iteration")).median;
    let wall: Vec<f64> = untraced.iter().map(|s| s.wall).collect();
    let untraced_s = Quartiles::of(&wall).median;
    metrics.push(("trace.traced_run_s", traced_s, "s"));
    metrics.push(("trace.untraced_run_s", untraced_s, "s"));
    metrics.push(("trace.overhead_s", traced_s - untraced_s, "s"));
    metrics.push(("trace.iterations", n, "count"));
    metrics
}

/// `<layer>.<suffix>` as a static metric name.
fn layer_key(layer: &str, suffix: &str) -> &'static str {
    Box::leak(format!("{layer}.{suffix}").into_boxed_str())
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}
