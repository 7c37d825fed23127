//! CI gate: compares a fresh run manifest against a checked-in baseline
//! and fails when simulator throughput regressed beyond the allowed
//! fraction.
//!
//! ```text
//! metrics-check --manifest=/tmp/manifest.json --baseline=BENCH_baseline.json \
//!               [--max-regression=0.30] \
//!               [--phase=repro-all/classification/predict] \
//!               [--max-phase-regression=0.25] \
//!               [--max-accuracy-drop=0.005] \
//!               [--max-phase-share-regression=0.15] \
//!               [--max-matrix-passes-per-trace=1] \
//!               [--max-ilp-passes-per-trace=1] \
//!               [--max-peak-rss-regression=0.25]
//! ```
//!
//! Accepts every manifest schema version (v1 aggregates-only, v2 with
//! the `samples` series, v3 with the `attribution` array, v4 with the
//! `profile` section) and both flag forms (`--flag=V` and `--flag V`).
//!
//! Besides the simulator-throughput gate, `--phase=` (repeatable) gates
//! the wall time of individual span paths: the current manifest's
//! `total_ms` for each named phase must not exceed the baseline's by more
//! than `--max-phase-regression` (default 0.25). A phase absent from the
//! *baseline* is skipped with a warning (new phases have no reference);
//! a phase absent from the *current* manifest is a usage error (exit 2)
//! because the gate was asked to check something the run never measured.
//!
//! `--max-phase-share-regression=F` gates the *profile* section (v4
//! manifests, runs invoked with `--profile-hz=`): no profiled phase's
//! share of wall-time samples (`total_share`) may grow by more than `F`
//! (an absolute fraction, e.g. `0.15` = 15 percentage points) over the
//! baseline's. A phase absent from the baseline profile counts as share
//! 0 — brand-new hot phases are exactly what the gate exists to catch.
//! When the gate fails it names the guilty phase and the hottest sampled
//! stack beneath it. A baseline without a `profile` section skips the
//! gate with a warning (refresh it to re-arm); a *current* manifest
//! without one is a usage error (exit 2) because the gate was asked to
//! check a run that never profiled.
//!
//! `--max-matrix-passes-per-trace=N` gates sweep *fusion*: the current
//! manifest's `replay.matrix_passes` counter may not exceed `N` times
//! its `replay.matrix_traces` counter (distinct reference traces swept
//! by the fused sweep). CI runs with `N=1` — every trace fused into
//! exactly one matrix pass — so a regression that silently falls back
//! to per-cell replays (or primes the memo twice) fails even when the
//! extra passes happen to stay inside the wall-time ceiling. A current
//! manifest without the two counters, or one that swept no traces at
//! all, is a usage error (exit 2): the gate was asked to check a run
//! that never exercised the fused sweep.
//!
//! `--max-ilp-passes-per-trace=N` gates ILP *fusion* the same way: the
//! `ilp.passes` counter may not exceed `N` times `ilp.traces` (distinct
//! reference traces that fed an ILP plan). CI runs with `N=1`, so Table
//! 5.2 cannot silently fall back to one replay per machine. Missing
//! counters, or no ILP trace at all, exit 2.
//!
//! `--max-peak-rss-regression=F` gates peak memory: the current run's
//! peak resident set size may not exceed the baseline's by more than `F`
//! (a fraction of the baseline, e.g. `0.25` = 25%). The reading prefers
//! the `rss.sampled_peak_bytes` max-gauge (populated on every profiler
//! tick under `--profile-hz=`, so it sees transient peaks freed before
//! exit) and falls back to the end-of-run `peak_rss_bytes` (`VmHWM`)
//! when the run was not profiled. This is the gate that keeps the
//! bounded-memory streaming pipeline honest: a change that quietly
//! re-materialises the trace shows up as an RSS step no wall-time gate
//! notices. A baseline recording no RSS skips the gate with a warning
//! (refresh it to re-arm); a *current* manifest recording none is a
//! usage error (exit 2).
//!
//! `--max-accuracy-drop=F` gates aggregate *prediction* accuracy: the
//! run-wide effective accuracy (`predictor.speculated_correct /
//! predictor.speculated`) must not fall more than `F` (an absolute
//! fraction, e.g. `0.005` = half a percentage point) below the
//! baseline's. When the gate fails and the current manifest carries an
//! `attribution` array, the report names the guiltiest PCs (hottest
//! mispredictors with their dominant cause and profile drift) so the
//! regression arrives pre-blamed. A baseline without the predictor
//! counters skips the gate with a warning (refresh it to re-arm).
//!
//! Exit status:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | throughput and every gated phase within bounds |
//! | 1 | regression beyond `--max-regression` / `--max-phase-regression` |
//! | 2 | usage error, or the *current* manifest is missing/unparsable, or a `--phase=` is absent from it |
//! | 3 | the *baseline* manifest is missing (unreadable) |
//! | 4 | the *baseline* manifest is unparsable |
//!
//! Codes 3 and 4 let CI distinguish "the gate could not run" (fix the
//! baseline, e.g. after a schema change) from "the gate ran and failed"
//! (a real regression); both print a `PROVP_LOG`-visible warning on
//! stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use vp_obs::{obs_error, obs_warn, RunManifest};

struct Args {
    manifest: PathBuf,
    baseline: PathBuf,
    max_regression: f64,
    phases: Vec<String>,
    max_phase_regression: f64,
    max_accuracy_drop: Option<f64>,
    max_phase_share_regression: Option<f64>,
    max_matrix_passes_per_trace: Option<u64>,
    max_ilp_passes_per_trace: Option<u64>,
    max_peak_rss_regression: Option<f64>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut manifest, mut baseline, mut max_regression) = (None, None, 0.30_f64);
    let (mut phases, mut max_phase_regression) = (Vec::new(), 0.25_f64);
    let mut max_accuracy_drop = None;
    let mut max_phase_share_regression = None;
    let mut max_matrix_passes_per_trace = None;
    let mut max_ilp_passes_per_trace = None;
    let mut max_peak_rss_regression = None;
    for arg in provp_bench::args::normalize(args, &[])? {
        if let Some(p) = arg.strip_prefix("--manifest=") {
            manifest = Some(PathBuf::from(p));
        } else if let Some(p) = arg.strip_prefix("--baseline=") {
            baseline = Some(PathBuf::from(p));
        } else if let Some(v) = arg.strip_prefix("--max-regression=") {
            max_regression = v
                .parse()
                .ok()
                .filter(|r| (0.0..1.0).contains(r))
                .ok_or_else(|| format!("bad --max-regression value `{v}` (want 0.0..1.0)"))?;
        } else if let Some(p) = arg.strip_prefix("--phase=") {
            if p.is_empty() {
                return Err("empty --phase path".to_owned());
            }
            phases.push(p.to_owned());
        } else if let Some(v) = arg.strip_prefix("--max-phase-regression=") {
            max_phase_regression =
                v.parse().ok().filter(|r| *r >= 0.0).ok_or_else(|| {
                    format!("bad --max-phase-regression value `{v}` (want >= 0.0)")
                })?;
        } else if let Some(v) = arg.strip_prefix("--max-accuracy-drop=") {
            max_accuracy_drop = Some(
                v.parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!("bad --max-accuracy-drop value `{v}` (want 0.0..=1.0)")
                    })?,
            );
        } else if let Some(v) = arg.strip_prefix("--max-phase-share-regression=") {
            max_phase_share_regression = Some(
                v.parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!("bad --max-phase-share-regression value `{v}` (want 0.0..=1.0)")
                    })?,
            );
        } else if let Some(v) = arg.strip_prefix("--max-matrix-passes-per-trace=") {
            max_matrix_passes_per_trace = Some(parse_per_trace("matrix", v)?);
        } else if let Some(v) = arg.strip_prefix("--max-ilp-passes-per-trace=") {
            max_ilp_passes_per_trace = Some(parse_per_trace("ilp", v)?);
        } else if let Some(v) = arg.strip_prefix("--max-peak-rss-regression=") {
            max_peak_rss_regression =
                Some(v.parse().ok().filter(|r| *r >= 0.0).ok_or_else(|| {
                    format!("bad --max-peak-rss-regression value `{v}` (want >= 0.0)")
                })?);
        } else {
            return Err(format!(
                "unknown argument `{arg}` (try --manifest=, --baseline=, --max-regression=, \
                 --phase=, --max-phase-regression=, --max-accuracy-drop=, \
                 --max-phase-share-regression=, --max-matrix-passes-per-trace=, \
                 --max-ilp-passes-per-trace=, --max-peak-rss-regression=)"
            ));
        }
    }
    Ok(Args {
        manifest: manifest.ok_or("missing --manifest=FILE")?,
        baseline: baseline.ok_or("missing --baseline=FILE")?,
        max_regression,
        phases,
        max_phase_regression,
        max_accuracy_drop,
        max_phase_share_regression,
        max_matrix_passes_per_trace,
        max_ilp_passes_per_trace,
        max_peak_rss_regression,
    })
}

/// Parses a `--max-<kind>-passes-per-trace` value (at least 1).
fn parse_per_trace(kind: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad --max-{kind}-passes-per-trace value `{v}` (want >= 1)"))
}

/// A fused engine's pass accounting from a manifest's counters: `(passes,
/// distinct traces)`. `None` when the counters are absent or no trace was
/// fed — the gate cannot judge a run that never exercised the engine.
fn pass_rate(m: &RunManifest, passes: &str, traces: &str) -> Option<(u64, u64)> {
    let passes = *m.counters.get(passes)?;
    let traces = *m.counters.get(traces)?;
    (traces > 0).then_some((passes, traces))
}

/// The sweep-fusion gate's reading: `(matrix passes, swept traces)`.
fn matrix_pass_rate(m: &RunManifest) -> Option<(u64, u64)> {
    pass_rate(m, "replay.matrix_passes", "replay.matrix_traces")
}

/// The ILP-fusion gate's reading: `(ILP passes, traces fed to ILP plans)`.
fn ilp_pass_rate(m: &RunManifest) -> Option<(u64, u64)> {
    pass_rate(m, "ilp.passes", "ilp.traces")
}

/// The best available peak-RSS reading from a manifest: the
/// `rss.sampled_peak_bytes` max-gauge when the run was profiled (it sees
/// transient peaks freed before exit), else the end-of-run `VmHWM`
/// snapshot. `None` when the run recorded neither (e.g. no procfs).
fn peak_rss(m: &RunManifest) -> Option<u64> {
    m.gauges
        .get("rss.sampled_peak_bytes")
        .copied()
        .filter(|&b| b > 0)
        .or_else(|| (m.peak_rss_bytes > 0).then_some(m.peak_rss_bytes))
}

/// Run-wide effective prediction accuracy from a manifest's counters
/// (`None` when the run recorded no speculated predictions — e.g. a
/// pre-v3 baseline whose counters predate the accuracy gate).
fn effective_accuracy(m: &RunManifest) -> Option<f64> {
    let speculated = *m.counters.get("predictor.speculated")?;
    let correct = *m.counters.get("predictor.speculated_correct")?;
    (speculated > 0).then(|| correct as f64 / speculated as f64)
}

/// Prints per-PC blame lines for an accuracy regression from the current
/// manifest's attribution array (a no-op when the run was not attributed).
fn blame_accuracy(current: &RunManifest) {
    if current.attribution.is_empty() {
        println!(
            "metrics-check: no attribution in the manifest; rerun with --attribution \
             to blame specific PCs"
        );
        return;
    }
    let mut rows: Vec<(&vp_obs::AttributionRun, &vp_obs::AttributionPc)> = current
        .attribution
        .iter()
        .flat_map(|run| run.pcs.iter().map(move |pc| (run, pc)))
        .collect();
    rows.sort_by(|(_, a), (_, b)| {
        b.speculated_incorrect()
            .cmp(&a.speculated_incorrect())
            .then_with(|| a.pc.cmp(&b.pc))
    });
    for (run, pc) in rows.iter().take(5) {
        let cause = pc.dominant_cause().unwrap_or("-");
        let drift = pc
            .drift
            .map_or_else(|| "-".to_owned(), |d| format!("{:+.1}pp", d * 100.0));
        println!(
            "metrics-check: blame {} @{:#x} [{}]  {} wrong speculations, cause {cause}, drift {drift}",
            run.label(),
            pc.pc,
            pc.directive,
            pc.speculated_incorrect(),
        );
    }
}

/// One profiled phase whose sample share grew past the allowed increase.
#[derive(Debug, PartialEq)]
struct ShareRegression {
    path: String,
    base_share: f64,
    cur_share: f64,
    /// The hottest sampled stack at or below the guilty phase, so the
    /// failure message points at concrete code, not just a span path.
    hottest_stack: Option<String>,
}

/// Compares profiled phase shares: every phase in `cur` whose
/// `total_share` exceeds the baseline's (0 when absent — new hot phases
/// are regressions too) by more than `max_increase` is returned, largest
/// growth first.
fn phase_share_regressions(
    baseline: &vp_obs::ProfileSection,
    current: &vp_obs::ProfileSection,
    max_increase: f64,
) -> Vec<ShareRegression> {
    let mut guilty: Vec<ShareRegression> = current
        .phases
        .iter()
        .filter_map(|cur| {
            let base_share = baseline
                .phases
                .iter()
                .find(|b| b.path == cur.path)
                .map_or(0.0, |b| b.total_share);
            (cur.total_share - base_share > max_increase).then(|| ShareRegression {
                path: cur.path.clone(),
                base_share,
                cur_share: cur.total_share,
                hottest_stack: hottest_stack_under(current, &cur.path),
            })
        })
        .collect();
    guilty.sort_by(|a, b| {
        let (da, db) = (a.cur_share - a.base_share, b.cur_share - b.base_share);
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    guilty
}

/// The highest-count hot stack whose frames start with the phase path
/// (stacks are `;`-joined, phase paths `/`-joined).
fn hottest_stack_under(profile: &vp_obs::ProfileSection, phase_path: &str) -> Option<String> {
    let prefix: Vec<&str> = phase_path.split('/').collect();
    profile
        .hot_stacks
        .iter()
        .filter(|h| {
            let frames: Vec<&str> = h.stack.split(';').collect();
            frames.len() >= prefix.len() && frames[..prefix.len()] == prefix[..]
        })
        .max_by(|a, b| a.count.cmp(&b.count).then_with(|| b.stack.cmp(&a.stack)))
        .map(|h| h.stack.clone())
}

fn load(path: &std::path::Path) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    RunManifest::parse(text.trim_end()).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

/// Why the baseline could not be used (each maps to a distinct exit
/// code, so CI can tell "fix the baseline" from "fix the regression").
#[derive(Debug, PartialEq)]
enum BaselineError {
    /// The file could not be read (missing, unreadable): exit 3.
    Missing(String),
    /// The file was read but is not a valid manifest: exit 4.
    Unparsable(String),
}

fn load_baseline(path: &std::path::Path) -> Result<RunManifest, BaselineError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BaselineError::Missing(format!("cannot read baseline {path:?}: {e}")))?;
    RunManifest::parse(text.trim_end())
        .map_err(|e| BaselineError::Unparsable(format!("cannot parse baseline {path:?}: {e}")))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let current = match load(&args.manifest) {
        Ok(c) => c,
        Err(e) => {
            obs_error!("{e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match load_baseline(&args.baseline) {
        Ok(b) => b,
        Err(BaselineError::Missing(msg)) => {
            obs_warn!("{msg}; the throughput gate cannot run (exit 3)");
            return ExitCode::from(3);
        }
        Err(BaselineError::Unparsable(msg)) => {
            obs_warn!("{msg}; refresh BENCH_baseline.json (exit 4)");
            return ExitCode::from(4);
        }
    };

    let mut failed = false;

    let base_rate = baseline.sim_instr_per_sec();
    let cur_rate = current.sim_instr_per_sec();
    if base_rate <= 0.0 {
        println!("metrics-check: baseline records no simulator throughput; skipping gate");
    } else {
        let floor = base_rate * (1.0 - args.max_regression);
        println!(
            "metrics-check: sim throughput {cur_rate:.0} instr/s vs baseline {base_rate:.0} \
             (floor {floor:.0}, max regression {:.0}%)",
            100.0 * args.max_regression
        );
        if cur_rate < floor {
            obs_error!(
                "simulator throughput regressed {:.1}% (limit {:.0}%)",
                100.0 * (1.0 - cur_rate / base_rate),
                100.0 * args.max_regression
            );
            failed = true;
        }
    }

    // Aggregate prediction-accuracy gate (opt-in via --max-accuracy-drop):
    // catches correctness drift that throughput gates cannot see.
    if let Some(max_drop) = args.max_accuracy_drop {
        match (effective_accuracy(&baseline), effective_accuracy(&current)) {
            (Some(base_acc), Some(cur_acc)) => {
                let floor = base_acc - max_drop;
                println!(
                    "metrics-check: effective accuracy {:.2}% vs baseline {:.2}% \
                     (floor {:.2}%, max drop {:.2}pp)",
                    100.0 * cur_acc,
                    100.0 * base_acc,
                    100.0 * floor,
                    100.0 * max_drop
                );
                if cur_acc < floor {
                    obs_error!(
                        "effective accuracy dropped {:.2}pp (limit {:.2}pp)",
                        100.0 * (base_acc - cur_acc),
                        100.0 * max_drop
                    );
                    blame_accuracy(&current);
                    failed = true;
                }
            }
            (None, _) => obs_warn!(
                "baseline records no predictor.speculated* counters; skipping the \
                 accuracy gate (refresh BENCH_baseline.json to re-arm it)"
            ),
            (_, None) => {
                obs_error!(
                    "--max-accuracy-drop given but the current manifest records no \
                     predictor.speculated* counters (was the run a predictor experiment?)"
                );
                return ExitCode::from(2);
            }
        }
    }

    // Peak-memory gate (opt-in via --max-peak-rss-regression): keeps the
    // bounded-memory streaming pipeline honest — re-materialising the
    // trace shows up here even when wall time stays flat.
    if let Some(max_growth) = args.max_peak_rss_regression {
        match (peak_rss(&baseline), peak_rss(&current)) {
            (Some(base_rss), Some(cur_rss)) => {
                let ceiling = base_rss as f64 * (1.0 + max_growth);
                println!(
                    "metrics-check: peak RSS {:.1} MiB vs baseline {:.1} MiB \
                     (ceiling {:.1} MiB, max regression {:.0}%)",
                    cur_rss as f64 / (1024.0 * 1024.0),
                    base_rss as f64 / (1024.0 * 1024.0),
                    ceiling / (1024.0 * 1024.0),
                    100.0 * max_growth
                );
                if cur_rss as f64 > ceiling {
                    obs_error!(
                        "peak RSS regressed {:.1}% (limit {:.0}%) — did something \
                         re-materialise a trace the streaming path used to bound?",
                        100.0 * (cur_rss as f64 / base_rss as f64 - 1.0),
                        100.0 * max_growth
                    );
                    failed = true;
                }
            }
            (None, _) => obs_warn!(
                "baseline records no peak RSS (neither rss.sampled_peak_bytes nor \
                 peak_rss_bytes); skipping the peak-RSS gate (refresh \
                 BENCH_baseline.json to re-arm it)"
            ),
            (_, None) => {
                obs_error!(
                    "--max-peak-rss-regression given but the current manifest records \
                     no peak RSS (no procfs? rerun with --profile-hz= to sample it)"
                );
                return ExitCode::from(2);
            }
        }
    }

    // Sweep-fusion gate (opt-in via --max-matrix-passes-per-trace):
    // catches a fallback to per-cell replays even when the extra passes
    // stay inside the wall-time ceilings.
    if let Some(max_per_trace) = args.max_matrix_passes_per_trace {
        match matrix_pass_rate(&current) {
            Some((passes, traces)) => {
                println!(
                    "metrics-check: {passes} matrix passes over {traces} swept traces \
                     (limit {max_per_trace} per trace)"
                );
                if passes > max_per_trace.saturating_mul(traces) {
                    obs_error!(
                        "the fused sweep scanned traces {passes} times for {traces} distinct \
                         traces (limit {max_per_trace} per trace) — is something replaying \
                         per cell again?"
                    );
                    failed = true;
                }
            }
            None => {
                obs_error!(
                    "--max-matrix-passes-per-trace given but the current manifest records \
                     no replay.matrix_passes / replay.matrix_traces counters (or swept no \
                     traces) — was the run a fused-sweep experiment?"
                );
                return ExitCode::from(2);
            }
        }
    }

    // ILP-fusion gate (opt-in via --max-ilp-passes-per-trace): every
    // ILP plan over a trace must stay one replay.
    if let Some(max_per_trace) = args.max_ilp_passes_per_trace {
        match ilp_pass_rate(&current) {
            Some((passes, traces)) => {
                println!(
                    "metrics-check: {passes} ILP passes over {traces} traces \
                     (limit {max_per_trace} per trace)"
                );
                if passes > max_per_trace.saturating_mul(traces) {
                    obs_error!(
                        "the ILP machines replayed traces {passes} times for {traces} distinct \
                         traces (limit {max_per_trace} per trace) — is something replaying \
                         per machine again?"
                    );
                    failed = true;
                }
            }
            None => {
                obs_error!(
                    "--max-ilp-passes-per-trace given but the current manifest records \
                     no ilp.passes / ilp.traces counters (or fed no trace to an ILP plan) \
                     — was the run an ILP experiment?"
                );
                return ExitCode::from(2);
            }
        }
    }

    // Profile sample-share gate (opt-in via --max-phase-share-regression):
    // catches a phase quietly eating a bigger slice of the run even when
    // absolute wall time stays within its own gate.
    if let Some(max_increase) = args.max_phase_share_regression {
        match (&baseline.profile, &current.profile) {
            (Some(base_prof), Some(cur_prof)) => {
                println!(
                    "metrics-check: phase-share gate over {} profiled phases \
                     (max increase {:.0}pp)",
                    cur_prof.phases.len(),
                    100.0 * max_increase
                );
                for g in phase_share_regressions(base_prof, cur_prof, max_increase) {
                    obs_error!(
                        "phase `{}` grew from {:.1}% to {:.1}% of samples \
                         (+{:.1}pp, limit {:.0}pp)",
                        g.path,
                        100.0 * g.base_share,
                        100.0 * g.cur_share,
                        100.0 * (g.cur_share - g.base_share),
                        100.0 * max_increase
                    );
                    if let Some(stack) = &g.hottest_stack {
                        println!("metrics-check: blame hottest stack `{stack}`");
                    }
                    failed = true;
                }
            }
            (None, Some(_)) => obs_warn!(
                "baseline manifest has no profile section; skipping the phase-share \
                 gate (refresh BENCH_baseline.json with --profile-hz= to re-arm it)"
            ),
            (_, None) => {
                obs_error!(
                    "--max-phase-share-regression given but the current manifest has no \
                     profile section (was the run invoked with --profile-hz=?)"
                );
                return ExitCode::from(2);
            }
        }
    }

    // Per-phase wall-time gates: every --phase= must stay within
    // --max-phase-regression of the baseline's total_ms.
    for path in &args.phases {
        let Some(cur) = current.phases.iter().find(|p| p.path == *path) else {
            obs_error!(
                "--phase={path} is absent from the current manifest {:?} \
                 (was the run invoked with the right binary and flags?)",
                args.manifest
            );
            return ExitCode::from(2);
        };
        let Some(base) = baseline.phases.iter().find(|p| p.path == *path) else {
            obs_warn!("phase `{path}` is absent from the baseline; skipping its gate");
            continue;
        };
        if base.total_ms <= 0.0 {
            obs_warn!("phase `{path}` has a zero baseline; skipping its gate");
            continue;
        }
        let ceiling = base.total_ms * (1.0 + args.max_phase_regression);
        println!(
            "metrics-check: phase {path} {:.2} ms vs baseline {:.2} ms \
             (ceiling {ceiling:.2}, max regression {:.0}%)",
            cur.total_ms,
            base.total_ms,
            100.0 * args.max_phase_regression
        );
        if cur.total_ms > ceiling {
            obs_error!(
                "phase `{path}` regressed {:.1}% (limit {:.0}%)",
                100.0 * (cur.total_ms / base.total_ms - 1.0),
                100.0 * args.max_phase_regression
            );
            failed = true;
        }
    }

    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_validates_flags() {
        let a = parse_args([
            "--manifest=/tmp/m.json".to_owned(),
            "--baseline=b.json".to_owned(),
            "--max-regression=0.5".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.manifest, PathBuf::from("/tmp/m.json"));
        assert!((a.max_regression - 0.5).abs() < 1e-12);
        assert!(a.phases.is_empty());
        assert!((a.max_phase_regression - 0.25).abs() < 1e-12);
        assert!(parse_args(["--manifest=m".to_owned()]).is_err());
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-regression=2".to_owned()
        ])
        .is_err());
    }

    #[test]
    fn missing_baseline_is_distinguished_from_unparsable() {
        let dir = std::env::temp_dir().join(format!("metrics-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file -> Missing (exit 3 path).
        let err = load_baseline(&dir.join("nope.json")).unwrap_err();
        assert!(matches!(err, BaselineError::Missing(_)), "{err:?}");

        // Present but garbage -> Unparsable (exit 4 path).
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not a manifest").unwrap();
        let err = load_baseline(&bad).unwrap_err();
        assert!(matches!(err, BaselineError::Unparsable(_)), "{err:?}");

        // A valid manifest loads fine through the same path.
        let good = dir.join("good.json");
        let manifest = RunManifest {
            bin: "x".to_owned(),
            ..RunManifest::default()
        };
        std::fs::write(&good, manifest.to_json()).unwrap();
        assert_eq!(load_baseline(&good).unwrap(), manifest);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accuracy_gate_flag_and_counters() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-accuracy-drop".to_owned(), // space-separated form
            "0.01".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.max_accuracy_drop, Some(0.01));
        let a = parse_args(["--manifest=m".to_owned(), "--baseline=b".to_owned()]).unwrap();
        assert_eq!(a.max_accuracy_drop, None);
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-accuracy-drop=2".to_owned(),
        ])
        .is_err());

        let mut m = RunManifest {
            bin: "x".to_owned(),
            ..RunManifest::default()
        };
        assert_eq!(effective_accuracy(&m), None);
        m.counters.insert("predictor.speculated".to_owned(), 200);
        m.counters
            .insert("predictor.speculated_correct".to_owned(), 150);
        assert_eq!(effective_accuracy(&m), Some(0.75));
    }

    fn profile(phases: &[(&str, f64)], stacks: &[(&str, u64)]) -> vp_obs::ProfileSection {
        vp_obs::ProfileSection {
            hz: 99,
            samples: stacks.iter().map(|(_, c)| c).sum(),
            dropped: 0,
            threads: 1,
            hot_stacks: stacks
                .iter()
                .map(|(s, c)| vp_obs::HotStack {
                    stack: (*s).to_owned(),
                    count: *c,
                    share: 0.0,
                })
                .collect(),
            phases: phases
                .iter()
                .map(|(p, share)| vp_obs::PhaseShare {
                    path: (*p).to_owned(),
                    self_share: *share,
                    total_share: *share,
                })
                .collect(),
        }
    }

    #[test]
    fn phase_share_gate_blames_the_phase_that_grew() {
        // The doctored scenario from the issue: `run/profile` went from
        // 12% to 31% of samples while everything else shrank.
        let base = profile(&[("run", 1.0), ("run/profile", 0.12)], &[]);
        let cur = profile(
            &[("run", 1.0), ("run/profile", 0.31)],
            &[
                ("run;predict", 40),
                ("run;profile;merge", 25),
                ("run;profile", 6),
            ],
        );
        let guilty = phase_share_regressions(&base, &cur, 0.15);
        assert_eq!(guilty.len(), 1);
        assert_eq!(guilty[0].path, "run/profile");
        assert!((guilty[0].base_share - 0.12).abs() < 1e-12);
        assert!((guilty[0].cur_share - 0.31).abs() < 1e-12);
        assert_eq!(
            guilty[0].hottest_stack.as_deref(),
            Some("run;profile;merge"),
            "the hottest stack *under* the guilty phase must be named"
        );

        // Within bounds -> nothing reported.
        assert!(phase_share_regressions(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn phase_share_gate_counts_new_phases_from_zero() {
        let base = profile(&[("run", 1.0)], &[]);
        let cur = profile(&[("run", 1.0), ("run/surprise", 0.2)], &[("other", 1)]);
        let guilty = phase_share_regressions(&base, &cur, 0.1);
        assert_eq!(guilty.len(), 1);
        assert_eq!(guilty[0].path, "run/surprise");
        assert_eq!(guilty[0].base_share, 0.0);
        // No sampled stack lives under the new phase: blame stays honest.
        assert_eq!(guilty[0].hottest_stack, None);
    }

    #[test]
    fn parses_phase_share_flag() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-phase-share-regression=0.15".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.max_phase_share_regression, Some(0.15));
        let a = parse_args(["--manifest=m".to_owned(), "--baseline=b".to_owned()]).unwrap();
        assert_eq!(a.max_phase_share_regression, None);
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-phase-share-regression=1.5".to_owned(),
        ])
        .is_err());
    }

    #[test]
    fn matrix_pass_gate_flag_and_counters() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-matrix-passes-per-trace".to_owned(), // space-separated form
            "1".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.max_matrix_passes_per_trace, Some(1));
        let a = parse_args(["--manifest=m".to_owned(), "--baseline=b".to_owned()]).unwrap();
        assert_eq!(a.max_matrix_passes_per_trace, None);
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-matrix-passes-per-trace=0".to_owned(),
        ])
        .is_err());
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-matrix-passes-per-trace=lots".to_owned(),
        ])
        .is_err());

        let mut m = RunManifest {
            bin: "x".to_owned(),
            ..RunManifest::default()
        };
        // Counters absent -> the gate cannot judge the run.
        assert_eq!(matrix_pass_rate(&m), None);
        m.counters.insert("replay.matrix_passes".to_owned(), 9);
        assert_eq!(matrix_pass_rate(&m), None);
        // Counters present but no trace swept -> still unjudgeable.
        m.counters.insert("replay.matrix_traces".to_owned(), 0);
        assert_eq!(matrix_pass_rate(&m), None);
        m.counters.insert("replay.matrix_traces".to_owned(), 9);
        assert_eq!(matrix_pass_rate(&m), Some((9, 9)));
    }

    #[test]
    fn ilp_pass_gate_flag_and_counters() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-ilp-passes-per-trace".to_owned(), // space-separated form
            "1".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.max_ilp_passes_per_trace, Some(1));
        let a = parse_args(["--manifest=m".to_owned(), "--baseline=b".to_owned()]).unwrap();
        assert_eq!(a.max_ilp_passes_per_trace, None);
        for bad in ["0", "lots"] {
            assert!(parse_args([
                "--manifest=m".to_owned(),
                "--baseline=b".to_owned(),
                format!("--max-ilp-passes-per-trace={bad}"),
            ])
            .is_err());
        }

        let mut m = RunManifest {
            bin: "x".to_owned(),
            ..RunManifest::default()
        };
        assert_eq!(ilp_pass_rate(&m), None);
        m.counters.insert("ilp.passes".to_owned(), 63);
        assert_eq!(ilp_pass_rate(&m), None);
        m.counters.insert("ilp.traces".to_owned(), 0);
        assert_eq!(ilp_pass_rate(&m), None);
        m.counters.insert("ilp.traces".to_owned(), 9);
        assert_eq!(ilp_pass_rate(&m), Some((63, 9)));
        // The matrix counters are a separate reading.
        assert_eq!(matrix_pass_rate(&m), None);
    }

    #[test]
    fn peak_rss_gate_flag_and_readings() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-peak-rss-regression".to_owned(), // space-separated form
            "0.25".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.max_peak_rss_regression, Some(0.25));
        let a = parse_args(["--manifest=m".to_owned(), "--baseline=b".to_owned()]).unwrap();
        assert_eq!(a.max_peak_rss_regression, None);
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-peak-rss-regression=-0.1".to_owned(),
        ])
        .is_err());

        let mut m = RunManifest {
            bin: "x".to_owned(),
            peak_rss_bytes: 0,
            ..RunManifest::default()
        };
        // Neither reading recorded -> the gate cannot judge the run.
        assert_eq!(peak_rss(&m), None);
        // End-of-run VmHWM alone is enough...
        m.peak_rss_bytes = 64 << 20;
        assert_eq!(peak_rss(&m), Some(64 << 20));
        // ...but the sampled max-gauge wins when present (it sees
        // transient peaks the exit snapshot can miss across processes).
        m.gauges
            .insert("rss.sampled_peak_bytes".to_owned(), 48 << 20);
        assert_eq!(peak_rss(&m), Some(48 << 20));
        // A zero gauge (sampler never ticked) falls back again.
        m.gauges.insert("rss.sampled_peak_bytes".to_owned(), 0);
        assert_eq!(peak_rss(&m), Some(64 << 20));
    }

    #[test]
    fn parses_phase_gates() {
        let a = parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--phase=repro-all/classification/predict".to_owned(),
            "--phase=repro-all/finite_table/predict".to_owned(),
            "--max-phase-regression=0.4".to_owned(),
        ])
        .unwrap();
        assert_eq!(
            a.phases,
            vec![
                "repro-all/classification/predict".to_owned(),
                "repro-all/finite_table/predict".to_owned()
            ]
        );
        assert!((a.max_phase_regression - 0.4).abs() < 1e-12);

        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--phase=".to_owned(),
        ])
        .is_err());
        assert!(parse_args([
            "--manifest=m".to_owned(),
            "--baseline=b".to_owned(),
            "--max-phase-regression=-1".to_owned(),
        ])
        .is_err());
    }
}
