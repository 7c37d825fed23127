//! Attributes the differences between two run manifests: which phases
//! gained wall clock, which counters moved, what happened to derived
//! throughput. The CI pipeline runs this when `metrics-check` fails, so
//! a throughput regression arrives with a blame table instead of a bare
//! exit code.
//!
//! ```text
//! manifest-diff --baseline=BENCH_baseline.json --manifest=/tmp/manifest.json \
//!               [--format=table|json|markdown] [--top=N]
//! ```
//!
//! - `--format=table` (default) prints an aligned text report;
//! - `--format=markdown` prints a GitHub-flavoured table (pipe it into
//!   `$GITHUB_STEP_SUMMARY`);
//! - `--format=json` prints the full `provp-manifest-diff/v1` document.
//! - `--top=N` limits table/markdown output to the N biggest movers per
//!   section (default 15; 0 means unlimited; JSON is never truncated).
//!
//! Accepts both flag forms (`--flag=V` and `--flag V`). When both
//! manifests carry `attribution` arrays the report includes a per-PC
//! accuracy-blame section; when both carry a `profile` section it
//! includes a sample-share blame section ("phase X went from 12% to 31%
//! of samples"). An optional section present on only one side is
//! skipped rather than reported as deltas. This is a reporting tool,
//! not experiment instrumentation: it prints its result to stdout.
//!
//! Exit status: 0 on success (differences are *reported*, never an
//! error), 2 on usage/read/parse errors.

use std::path::PathBuf;
use std::process::ExitCode;

use vp_obs::{obs_error, ManifestDiff, RunManifest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
    Markdown,
}

struct Args {
    baseline: PathBuf,
    manifest: PathBuf,
    format: Format,
    top: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut baseline, mut manifest) = (None, None);
    let mut format = Format::Table;
    let mut top = 15usize;
    for arg in provp_bench::args::normalize(args, &[])? {
        if let Some(p) = arg.strip_prefix("--baseline=") {
            baseline = Some(PathBuf::from(p));
        } else if let Some(p) = arg.strip_prefix("--manifest=") {
            manifest = Some(PathBuf::from(p));
        } else if let Some(f) = arg.strip_prefix("--format=") {
            format = match f {
                "table" => Format::Table,
                "json" => Format::Json,
                "markdown" => Format::Markdown,
                other => {
                    return Err(format!(
                        "bad --format value `{other}` (want table, json or markdown)"
                    ))
                }
            };
        } else if let Some(n) = arg.strip_prefix("--top=") {
            top = n
                .parse()
                .map_err(|_| format!("bad --top value `{n}` (want an integer; 0 = unlimited)"))?;
        } else {
            return Err(format!(
                "unknown argument `{arg}` (try --baseline=, --manifest=, --format=, --top=)"
            ));
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("missing --baseline=FILE")?,
        manifest: manifest.ok_or("missing --manifest=FILE")?,
        format,
        top,
    })
}

fn load(path: &std::path::Path) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    RunManifest::parse(text.trim_end()).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (load(&args.baseline), load(&args.manifest)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            obs_error!("{e}");
            return ExitCode::from(2);
        }
    };
    let diff = ManifestDiff::compute(&baseline, &current);
    match args.format {
        Format::Table => print!("{}", diff.render_table(args.top)),
        Format::Markdown => print!("{}", diff.render_markdown(args.top)),
        Format::Json => println!("{}", diff.to_json()),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_rejects_bad_values() {
        let a = parse_args([
            "--baseline=b.json".to_owned(),
            "--manifest=m.json".to_owned(),
            "--format=markdown".to_owned(),
            "--top=3".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.baseline, PathBuf::from("b.json"));
        assert_eq!(a.format, Format::Markdown);
        assert_eq!(a.top, 3);

        // Defaults, and the space-separated flag form.
        let a = parse_args([
            "--baseline".to_owned(),
            "b".to_owned(),
            "--manifest=m".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.baseline, PathBuf::from("b"));
        assert_eq!(a.format, Format::Table);
        assert_eq!(a.top, 15);

        assert!(parse_args(["--baseline=b".to_owned()]).is_err());
        assert!(parse_args([
            "--baseline=b".to_owned(),
            "--manifest=m".to_owned(),
            "--format=yaml".to_owned()
        ])
        .is_err());
        assert!(parse_args([
            "--baseline=b".to_owned(),
            "--manifest=m".to_owned(),
            "--top=half".to_owned()
        ])
        .is_err());
    }
}
