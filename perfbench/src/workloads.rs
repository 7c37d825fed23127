//! The three benchmark workloads, each with an untraced iteration (the
//! end-to-end numbers), a traced iteration (the per-layer numbers) and
//! the correctness and shape checks that keep both honest.

use std::path::{Path, PathBuf};
use std::time::Instant;

use provp_core::{Suite, TraceStore, TraceStoreStats};
use vp_predictor::PredictorStats;
use vp_sim::{run, FnTracer, Trace};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::measure::{cpu_seconds, Quartiles};
use crate::paper::{self, names, ProbeSet, SweepSetup, TraceSource};
use crate::spans::Spans;

/// The stdout `repro-all --jobs=1` prints at the commit the benchmark
/// was defined on (identical at `--jobs=2` and with `--stream`).
pub const EXPECTED_REPRO: &str = include_str!("../expected/repro-all.txt");

/// Training runs plus the reference run, per workload.
const RUNS_PER_KIND: u64 = vp_workloads::Workload::PAPER_TRAIN_RUNS as u64 + 1;

/// Checks attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Messages of the first failures.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one check; `message` is built only when it fails.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Counts one check on a fallible step.
    pub fn check_ok<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// Wall and CPU seconds of one timed iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Host wall seconds.
    pub wall: f64,
    /// User plus system CPU seconds, all threads.
    pub cpu: f64,
}

impl std::ops::Add for Sample {
    type Output = Sample;
    fn add(self, other: Sample) -> Sample {
        Sample {
            wall: self.wall + other.wall,
            cpu: self.cpu + other.cpu,
        }
    }
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let result = f();
    let wall = start.elapsed().as_secs_f64();
    (
        result,
        Sample {
            wall,
            cpu: cpu_seconds() - cpu,
        },
    )
}

/// A benchmark workload after set-up.
pub trait Bench {
    /// The inputs the workload runs, for the record.
    fn inputs(&self) -> String;
    /// Threads the workload keeps busy.
    fn threads(&self) -> &'static str;
    /// One untraced iteration; checks its output after the clock stops.
    fn iterate(&mut self, tally: &mut Tally) -> Sample;
    /// One traced iteration under an `iteration` root, then the probes
    /// under a `probe` root.
    ///
    /// # Errors
    ///
    /// Returns a message when a layer call fails.
    fn traced(&mut self, spans: &Spans, tally: &mut Tally) -> Result<(), String>;
    /// Checks that must run after timing (so their memory stays out of
    /// the peak RSS figure).
    fn finish(&mut self, _tally: &mut Tally) {}
    /// Trace-store counters of the last untraced iteration.
    fn store_stats(&self) -> TraceStoreStats {
        TraceStoreStats::default()
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["repro", "repro-cached", "sweep-stream"];

/// Prepares workload `name`. Set-up work is recorded under a `setup`
/// root when `spans` is enabled.
///
/// # Errors
///
/// Returns a message for an unknown workload or a failed set-up.
pub fn setup(
    name: &str,
    seed: u64,
    spans: &Spans,
    scratch: &Path,
) -> Result<Box<dyn Bench>, String> {
    match name {
        "repro" => Ok(Box::new(Repro { last: None })),
        "repro-cached" => Ok(Box::new(ReproCached {
            dir: scratch.join("spill"),
            cold_stats: TraceStoreStats::default(),
            passes: Vec::new(),
            last: None,
        })),
        "sweep-stream" => Ok(Box::new(SweepStream::setup(seed, spans)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn kinds_label() -> String {
    WorkloadKind::ALL.map(WorkloadKind::name).join(",")
}

/// Compares a rendered evaluation with the expected text, naming the
/// first differing line.
fn check_repro_text(tally: &mut Tally, label: &str, text: &str) {
    tally.check(text == EXPECTED_REPRO, || {
        let line = text
            .lines()
            .zip(EXPECTED_REPRO.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_owned(), |i| format!("line {}", i + 1));
        format!("{label}: output differs from expected/repro-all.txt at {line}")
    });
}

/// Counter handles read around an iteration for the shape guards.
fn obs(key: &'static str) -> u64 {
    vp_obs::counter(key).get()
}

/// Checks the traced evaluation of one workload against the untraced
/// suite's memoised answers.
fn check_outcome(tally: &mut Tally, suite: &Suite, outcome: &paper::KindOutcome) {
    let kind = outcome.sweep.kind;
    tally.check(
        outcome.sweep_stats == suite.predictor_stats_matrix(kind, &paper::sweep_cells()),
        || format!("{kind}: traced sweep stats differ from the suite's"),
    );
    tally.check(
        outcome.reference_image == suite.reference_image(kind),
        || format!("{kind}: traced reference profile differs from the suite's"),
    );
}

/// `repro`: the paper evaluation `repro-all --jobs=1` runs, from a fresh
/// in-memory suite each iteration.
struct Repro {
    last: Option<Suite>,
}

impl Bench for Repro {
    fn inputs(&self) -> String {
        format!(
            "{} x (train 0..5 + reference), fixed by the suite",
            kinds_label()
        )
    }

    fn threads(&self) -> &'static str {
        "1"
    }

    fn iterate(&mut self, tally: &mut Tally) -> Sample {
        self.last = None;
        let (passes, traces) = (obs("replay.matrix_passes"), obs("replay.matrix_traces"));
        let suite = Suite::new();
        let (text, sample) = timed(|| paper::render_repro(&suite));
        check_repro_text(tally, "repro", &text);
        let n = WorkloadKind::ALL.len() as u64;
        let captures = suite.trace_stats().captures;
        tally.check(captures == n, || {
            format!("repro: {captures} trace captures, expected {n}")
        });
        let (passes, traces) = (
            obs("replay.matrix_passes") - passes,
            obs("replay.matrix_traces") - traces,
        );
        tally.check(passes == n && traces == n, || {
            format!(
                "repro: {passes} fused matrix passes over {traces} traces, expected {n} over {n}"
            )
        });
        self.last = Some(suite);
        sample
    }

    fn traced(&mut self, spans: &Spans, tally: &mut Tally) -> Result<(), String> {
        let suite = self
            .last
            .take()
            .ok_or("traced iteration before an untraced one")?;
        let outcomes = spans.scope("iteration", || {
            let instructions = obs("sim.instructions");
            let outcomes = WorkloadKind::ALL
                .iter()
                .map(|&kind| paper::evaluate_kind(spans, kind, None, &TraceSource::Capture))
                .collect::<Result<Vec<_>, _>>();
            spans.count(
                "vp-sim.instructions",
                obs("sim.instructions") - instructions,
            );
            outcomes
        })?;
        for outcome in &outcomes {
            check_outcome(tally, &suite, outcome);
        }
        let extra = ProbeSet {
            stream: true,
            encode: true,
            ..ProbeSet::default()
        };
        let result = spans.scope("probe", || {
            outcomes
                .iter()
                .try_for_each(|o| paper::probe_kind(spans, &o.trace, &o.sweep, extra))
        });
        self.last = Some(suite);
        result
    }

    fn store_stats(&self) -> TraceStoreStats {
        self.last
            .as_ref()
            .map(Suite::trace_stats)
            .unwrap_or_default()
    }
}

/// `repro-cached`: the evaluation twice per iteration against a spill
/// directory that starts empty — a cold pass that captures and spills
/// every trace, then a warm pass with a fresh suite that reads them back.
struct ReproCached {
    dir: PathBuf,
    cold_stats: TraceStoreStats,
    /// Wall seconds of the cold and the warm pass of each iteration.
    passes: Vec<(f64, f64)>,
    last: Option<Suite>,
}

impl ReproCached {
    fn empty_dir(&self) -> Result<(), String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)
                .map_err(|e| format!("cannot clear {}: {e}", self.dir.display()))?;
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))
    }
}

impl Bench for ReproCached {
    fn inputs(&self) -> String {
        format!(
            "{} x (train 0..5 + reference), fixed by the suite; cold then warm spill directory",
            kinds_label()
        )
    }

    fn threads(&self) -> &'static str {
        "1"
    }

    fn iterate(&mut self, tally: &mut Tally) -> Sample {
        self.last = None;
        if tally.check_ok(self.empty_dir()).is_none() {
            return Sample::default();
        }
        let spills = WorkloadKind::ALL.len() as u64 * RUNS_PER_KIND;
        let cold = Suite::new().with_trace_dir(&self.dir);
        let (text, cold_sample) = timed(|| paper::render_repro(&cold));
        check_repro_text(tally, "repro-cached cold pass", &text);
        let st = cold.trace_stats();
        tally.check(
            st.spills == spills && st.captures == spills && st.spill_failures == 0,
            || {
                format!(
                    "repro-cached cold pass: {} spills, {} captures, {} spill failures; expected {spills}, {spills}, 0",
                    st.spills, st.captures, st.spill_failures
                )
            },
        );
        self.cold_stats = st;
        drop(cold);
        let warm = Suite::new().with_trace_dir(&self.dir);
        let (text, warm_sample) = timed(|| paper::render_repro(&warm));
        check_repro_text(tally, "repro-cached warm pass", &text);
        let st = warm.trace_stats();
        tally.check(st.disk_hits == spills && st.captures == 0, || {
            format!(
                "repro-cached warm pass: {} disk hits, {} captures; expected {spills}, 0",
                st.disk_hits, st.captures
            )
        });
        self.last = Some(warm);
        self.passes.push((cold_sample.wall, warm_sample.wall));
        cold_sample + warm_sample
    }

    fn finish(&mut self, _tally: &mut Tally) {
        // The warm pass against the no-cache `repro` run is the cache's
        // pay-off; report both passes so it can be read off directly.
        let median = |pick: fn(&(f64, f64)) -> f64| {
            let values: Vec<f64> = self.passes.iter().map(pick).collect();
            Quartiles::of(&values).median
        };
        println!(
            "repro-cached passes: cold median {:.6} s, warm median {:.6} s, n={}",
            median(|p| p.0),
            median(|p| p.1),
            self.passes.len()
        );
    }

    fn traced(&mut self, spans: &Spans, tally: &mut Tally) -> Result<(), String> {
        let suite = self
            .last
            .take()
            .ok_or("traced iteration before an untraced one")?;
        self.empty_dir()?;
        let spill = TraceSource::CaptureAndSpill(&self.dir);
        let store = TraceStore::new().with_spill_dir(&self.dir);
        let cached = TraceSource::Store(&store);
        let outcomes = spans.scope("iteration", || {
            let instructions = obs("sim.instructions");
            let mut outcomes = Vec::new();
            for source in [&spill, &cached] {
                for &kind in &WorkloadKind::ALL {
                    outcomes.push(paper::evaluate_kind(spans, kind, Some(source), source)?);
                }
            }
            spans.count(
                "vp-sim.instructions",
                obs("sim.instructions") - instructions,
            );
            Ok::<_, String>(outcomes)
        })?;
        let expected = WorkloadKind::ALL.len() as u64 * RUNS_PER_KIND;
        let st = store.stats();
        tally.check(st.disk_hits == expected && st.captures == 0, || {
            format!(
                "traced warm pass: {} disk hits, {} captures; expected {expected}, 0",
                st.disk_hits, st.captures
            )
        });
        for outcome in &outcomes {
            check_outcome(tally, &suite, outcome);
        }
        let warm = &outcomes[WorkloadKind::ALL.len()..];
        let extra = ProbeSet {
            stream: true,
            ..ProbeSet::default()
        };
        let result = spans.scope("probe", || {
            warm.iter()
                .try_for_each(|o| paper::probe_kind(spans, &o.trace, &o.sweep, extra))
        });
        drop(outcomes);
        drop(store);
        self.last = Some(suite);
        result
    }

    fn store_stats(&self) -> TraceStoreStats {
        let mut st = self
            .last
            .as_ref()
            .map(Suite::trace_stats)
            .unwrap_or_default();
        st.spill_failures += self.cold_stats.spill_failures;
        st
    }
}

/// `sweep-stream`: the predictor sweep over the nine reference inputs,
/// streamed with attribution on, one request per input per iteration.
struct SweepStream {
    setups: Vec<SweepSetup>,
    /// Visiting order of `setups` (a rotation picked by the seed).
    order: Vec<usize>,
    /// Value events per reference input (measured only when tracing).
    value_events: Vec<u64>,
    /// Per input, each distinct `(stats, occupancy)` list the streamed
    /// cells produced and how many iterations produced it. Keeping only
    /// distinct results holds memory flat however many iterations run.
    results: Vec<Vec<(CellResults, u64)>>,
}

type CellResults = Vec<(PredictorStats, usize)>;

impl SweepStream {
    fn setup(seed: u64, spans: &Spans) -> Result<SweepStream, String> {
        let setups = spans.scope("setup", || {
            WorkloadKind::ALL
                .iter()
                .map(|&kind| {
                    let images = InputSet::train_set(Workload::PAPER_TRAIN_RUNS)
                        .into_iter()
                        .map(|input| paper::collect_run(spans, kind, input))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(paper::sweep_setup(spans, kind, &images, false))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let n = setups.len();
        let rotation = (seed % n as u64) as usize;
        let order = (0..n).map(|i| (i + rotation) % n).collect();
        let mut value_events = vec![0; n];
        if spans.enabled() {
            // The traced run divides stream time by the value events of
            // each reference input.
            for (setup, events) in setups.iter().zip(&mut value_events) {
                let mut counter = FnTracer::new(|ev: &vp_sim::Retirement<'_>| {
                    *events += u64::from(ev.dest.is_some());
                });
                run(&setup.bare, &mut counter, paper::limits())
                    .map_err(|e| format!("{}: {e}", setup.kind))?;
            }
        }
        Ok(SweepStream {
            setups,
            order,
            value_events,
            results: vec![Vec::new(); n],
        })
    }

    fn sweep(&mut self, spans: &Spans, tally: &mut Tally) -> Sample {
        let (sims, blocks) = (obs("sim.runs"), obs("stream.blocks"));
        let captures = store_captures();
        let (responses, sample) = timed(|| {
            spans.scope("iteration", || {
                let instructions = obs("sim.instructions");
                let responses: Vec<_> = self
                    .order
                    .iter()
                    .map(|&i| {
                        let s = &self.setups[i];
                        spans.count("replay.cells_requested", s.requested as u64);
                        let request = paper::stream_request(&s.bare, &s.plan);
                        (
                            i,
                            paper::sweep_request(
                                spans,
                                names::STREAM,
                                request,
                                self.value_events[i],
                            ),
                        )
                    })
                    .collect();
                spans.count(
                    "vp-sim.instructions",
                    obs("sim.instructions") - instructions,
                );
                responses
            })
        });
        let n = self.setups.len();
        for (i, response) in responses {
            let kind = self.setups[i].kind;
            let Some(response) = tally.check_ok(response) else {
                continue;
            };
            let unreconciled = response.cells.iter().find_map(|cell| {
                let table = cell.attribution.as_ref()?;
                table.reconcile(&cell.outcome.stats).err()
            });
            let missing = response.cells.iter().any(|c| c.attribution.is_none());
            tally.check(unreconciled.is_none() && !missing, || {
                format!(
                    "sweep-stream {kind}: attribution does not reconcile: {}",
                    unreconciled.unwrap_or_else(|| "table missing".to_owned())
                )
            });
            let cells: CellResults = response
                .cells
                .iter()
                .map(|c| (c.outcome.stats, c.outcome.occupancy))
                .collect();
            let seen = &mut self.results[i];
            match seen.iter_mut().find(|(r, _)| *r == cells) {
                Some((_, count)) => *count += 1,
                None => seen.push((cells, 1)),
            }
        }
        let sims = obs("sim.runs") - sims;
        let blocks = obs("stream.blocks") - blocks;
        let captured = store_captures() - captures;
        tally.check(sims == n as u64 && blocks > 0 && captured == 0, || {
            format!(
                "sweep-stream: {sims} simulations, {blocks} stream blocks, {captured} trace captures; \
                 expected {n}, > 0, 0"
            )
        });
        sample
    }
}

/// Trace captures the trace store has made in this process (its
/// `capture` span count in the observability registry).
fn store_captures() -> u64 {
    vp_obs::global()
        .snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("capture"))
        .map(|(_, stat)| stat.count)
        .sum()
}

impl Bench for SweepStream {
    fn inputs(&self) -> String {
        let order: Vec<&str> = self
            .order
            .iter()
            .map(|&i| self.setups[i].kind.name())
            .collect();
        format!(
            "reference input of {} (visited in this seed-rotated order); training inputs 0..5 for set-up",
            order.join(",")
        )
    }

    fn threads(&self) -> &'static str {
        "2 (stream producer + one consumer shard)"
    }

    fn iterate(&mut self, tally: &mut Tally) -> Sample {
        self.sweep(&Spans::new(false), tally)
    }

    fn traced(&mut self, spans: &Spans, tally: &mut Tally) -> Result<(), String> {
        self.sweep(spans, tally);
        let extra = ProbeSet {
            ilp: true,
            collect_replay: true,
            batch: true,
            encode: true,
            stream: false,
        };
        spans.scope("probe", || {
            self.setups.iter().try_for_each(|s| {
                let trace =
                    paper::TraceSource::Capture.get(spans, s.kind, InputSet::reference())?;
                paper::probe_kind(spans, &trace, s, extra)
            })
        })
    }

    fn finish(&mut self, tally: &mut Tally) {
        for (i, setup) in self.setups.iter().enumerate() {
            let kind = setup.kind;
            let reference = Trace::capture(&setup.bare, paper::limits())
                .map_err(|e| format!("{kind}: reference capture faulted: {e}"))
                .and_then(|trace| {
                    provp_core::ReplayRequest::batch(&trace)
                        .plan(setup.plan.clone())
                        .run()
                        .map_err(|e| format!("{kind}: batch replay failed: {e}"))
                });
            let Some(reference) = tally.check_ok(reference) else {
                continue;
            };
            let expected: CellResults = reference
                .cells
                .iter()
                .map(|c| (c.outcome.stats, c.outcome.occupancy))
                .collect();
            // One check per iteration, as if each were compared on its own.
            for (cells, count) in &self.results[i] {
                for _ in 0..*count {
                    tally.check(*cells == expected, || {
                        format!("sweep-stream {kind}: streamed stats differ from batch replay")
                    });
                }
            }
        }
    }
}
