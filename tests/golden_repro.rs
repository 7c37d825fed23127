//! Golden-output regression suite.
//!
//! Renders every experiment on a compact, fully deterministic subset
//! (2 training runs, `compress` + `ijpeg` + the `mgrid` FP phases) and
//! compares the output byte-for-byte against snapshots under
//! `tests/golden/`. Any change to the simulator, the profile pipeline,
//! the predictors, the ILP machine, the workload generators or the table
//! renderers shows up here as a loud, line-attributed diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_repro
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use provp::core::experiments::{
    ablations, classification, fig_2_2, fig_2_3, fig_4, finite_table, table_2_1, table_5_1,
    table_5_2,
};
use provp::core::Suite;
use provp::workloads::WorkloadKind;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::Compress, WorkloadKind::Ijpeg];
const FP_KINDS: [WorkloadKind; 1] = [WorkloadKind::Mgrid];
const TRAIN_RUNS: u32 = 2;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::with_train_runs(TRAIN_RUNS))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `rendered` against the named snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN` is set.
fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {path:?}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden_repro` to create it"
        )
    });
    if expected != rendered {
        panic!("{}", diff_report(name, &expected, rendered));
    }
}

/// A line-by-line report of where the output diverged from the snapshot.
fn diff_report(name: &str, expected: &str, actual: &str) -> String {
    let mut out = format!(
        "golden-output mismatch for `{name}` ({} expected lines, {} actual)\n\
         if the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_repro`\n",
        expected.lines().count(),
        actual.lines().count()
    );
    let mut shown = 0;
    for (i, (e, a)) in expected
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(actual.lines().map(Some).chain(std::iter::repeat(None)))
        .take_while(|(e, a)| e.is_some() || a.is_some())
        .enumerate()
    {
        if e != a {
            let _ = writeln!(
                out,
                "  line {:>3} expected: {}",
                i + 1,
                e.unwrap_or("<eof>")
            );
            let _ = writeln!(
                out,
                "  line {:>3} actual:   {}",
                i + 1,
                a.unwrap_or("<eof>")
            );
            shown += 1;
            if shown >= 8 {
                out.push_str("  ... (further differences elided)\n");
                break;
            }
        }
    }
    out
}

#[test]
fn golden_table_2_1() {
    check(
        "table_2_1",
        &table_2_1::run(suite(), &KINDS, &FP_KINDS).render(),
    );
}

#[test]
fn golden_fig_2_2() {
    check("fig_2_2", &fig_2_2::run(suite(), &KINDS).render());
}

#[test]
fn golden_fig_2_3() {
    check("fig_2_3", &fig_2_3::run(suite(), &KINDS).render());
}

#[test]
fn golden_fig_4() {
    let f4 = fig_4::run(suite(), &KINDS);
    let mut out = String::new();
    for which in [
        fig_4::Which::VMax,
        fig_4::Which::VAverage,
        fig_4::Which::SAverage,
    ] {
        out.push_str(&f4.render(which));
        out.push('\n');
    }
    check("fig_4", &out);
}

#[test]
fn golden_classification() {
    let cls = classification::run(suite(), &KINDS);
    let mut out = String::new();
    out.push_str(&cls.render(classification::Which::Mispredictions));
    out.push('\n');
    out.push_str(&cls.render(classification::Which::CorrectPredictions));
    check("classification", &out);
}

#[test]
fn golden_table_5_1() {
    check("table_5_1", &table_5_1::run(suite(), &KINDS).render());
}

#[test]
fn golden_finite_table() {
    let ft = finite_table::run(suite(), &KINDS);
    let mut out = String::new();
    out.push_str(&ft.render(finite_table::Which::Correct));
    out.push('\n');
    out.push_str(&ft.render(finite_table::Which::Incorrect));
    check("finite_table", &out);
}

#[test]
fn golden_table_5_2() {
    check("table_5_2", &table_5_2::run(suite(), &KINDS).render());
}

// The four sweep ablations below all replay through the fused matrix
// kernel (`provp_core::ReplayRequest`), so these snapshots pin the
// fused path's output byte-for-byte against the pre-fusion renders.

#[test]
fn golden_ablation_schemes() {
    let rows = ablations::schemes(suite(), &KINDS);
    check("ablation_schemes", &ablations::render_schemes(&rows));
}

#[test]
fn golden_ablation_geometry() {
    let kind = KINDS[0];
    let rows = ablations::geometry(suite(), kind, &[64, 128, 256, 512, 1024, 2048]);
    check(
        "ablation_geometry",
        &ablations::render_geometry(kind, &rows),
    );
}

#[test]
fn golden_ablation_hybrid() {
    let kind = KINDS[0];
    let rows = ablations::hybrid_split(suite(), kind, 512);
    check("ablation_hybrid", &ablations::render_hybrid(kind, &rows));
}

#[test]
fn golden_ablation_counters() {
    let kind = KINDS[0];
    let rows = ablations::counters(suite(), kind);
    check(
        "ablation_counters",
        &ablations::render_counters(kind, &rows),
    );
}

// The two ILP ablations submit one deduplicated ILP plan per row; these
// snapshots were captured from the per-configuration replays that
// preceded the plan and pin the fused path byte-for-byte against them.

#[test]
fn golden_ablation_penalty() {
    let kind = KINDS[0];
    let rows = ablations::penalty(suite(), kind, &[0, 1, 2, 4, 8]);
    check("ablation_penalty", &ablations::render_penalty(kind, &rows));
}

#[test]
fn golden_ablation_branch() {
    let rows = ablations::front_end(suite(), &KINDS);
    check("ablation_branch", &ablations::render_front_end(&rows));
}

// Streaming is an execution strategy, never a result change: the same
// experiment through a bounded-memory streaming suite must render
// byte-identically to the batch suite (which `golden_classification`
// pins to the snapshot — equality here transitively pins the streamed
// stdout too, without racing UPDATE_GOLDEN over one file).
// Classification is the most replay-heavy experiment in the suite.
#[test]
fn golden_classification_streamed() {
    let streamed = Suite::with_train_runs(TRAIN_RUNS).with_streaming(4);
    let render = |s: &Suite| {
        let cls = classification::run(s, &KINDS);
        let mut out = String::new();
        out.push_str(&cls.render(classification::Which::Mispredictions));
        out.push('\n');
        out.push_str(&cls.render(classification::Which::CorrectPredictions));
        out
    };
    let (batch, streamed) = (render(suite()), render(&streamed));
    if batch != streamed {
        panic!(
            "{}",
            diff_report("classification (streamed)", &batch, &streamed)
        );
    }
}

#[test]
fn diff_report_is_loud_and_line_attributed() {
    let report = diff_report("demo", "a\nb\nc\n", "a\nX\nc\n");
    assert!(report.contains("golden-output mismatch for `demo`"));
    assert!(report.contains("line   2 expected: b"));
    assert!(report.contains("line   2 actual:   X"));
    assert!(report.contains("UPDATE_GOLDEN=1"));
}
