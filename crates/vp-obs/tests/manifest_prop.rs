//! Property tests for the run-manifest schema: arbitrary manifests must
//! survive `to_json` → `parse` → `to_json` byte-identically (the format
//! is canonical and the float formatting shortest-roundtrip), under one
//! schema whatever optional sections they carry.
//!
//! Generated integers stay below 2^53: JSON numbers are f64 (in the
//! in-tree parser and in every JavaScript consumer alike), so the
//! manifest contract only covers integer-exact round-trips inside the
//! f64-representable range. Real counters stay far below that (2^53 ns
//! is over 100 days of simulator wall clock).

use std::collections::BTreeMap;

use vp_obs::attribution::{AttributionPc, AttributionRun, AttributionTotals, CAUSE_ORDER};
use vp_obs::manifest::{HotStack, PhaseEntry, PhaseShare, ProfileSection};
use vp_obs::{RunManifest, SCHEMA};
use vp_rng::{prop, Rng};

const KEYS: &[&str] = &[
    "sim.instructions",
    "sim.wall_ns",
    "trace_store.requests",
    "trace_store.memory_hits",
    "trace_store.misses",
    "predictor.accesses",
    "predictor.hits",
    "profiler.dropped_samples",
];

fn arb_map(rng: &mut Rng) -> BTreeMap<String, u64> {
    let n = rng.below(KEYS.len() as u64 + 1) as usize;
    let mut keys = KEYS.to_vec();
    rng.shuffle(&mut keys);
    keys.into_iter()
        .take(n)
        .map(|k| (k.to_owned(), rng.below(1 << 53)))
        .collect()
}

fn arb_causes(rng: &mut Rng) -> BTreeMap<String, u64> {
    let mut causes = BTreeMap::new();
    for c in CAUSE_ORDER {
        if rng.below(2) == 0 {
            causes.insert(c.to_owned(), 1 + rng.below(1_000));
        }
    }
    causes
}

fn arb_attribution_pc(rng: &mut Rng) -> AttributionPc {
    let accesses = 1 + rng.below(1 << 20);
    let raw_correct = rng.below(accesses + 1);
    let speculated = rng.below(accesses + 1);
    AttributionPc {
        pc: rng.below(1 << 20),
        directive: ["none", "lv", "stride"][rng.below(3) as usize].to_owned(),
        accesses,
        hits: rng.below(accesses + 1),
        raw_correct,
        speculated,
        speculated_correct: rng.below(speculated + 1),
        causes: arb_causes(rng),
        profiled_accuracy: (rng.below(2) == 0).then(|| rng.gen_f64()),
        drift: (rng.below(2) == 0).then(|| rng.gen_f64() - 0.5),
    }
}

fn arb_attribution_run(rng: &mut Rng) -> AttributionRun {
    AttributionRun {
        workload: format!("wl-{}", rng.below(4)),
        config: format!("cfg-{}", rng.below(4)),
        threshold: (rng.below(2) == 0).then(|| rng.below(100) as f64 / 100.0),
        totals: AttributionTotals {
            pcs: rng.below(1 << 20),
            accesses: rng.below(1 << 40),
            hits: rng.below(1 << 40),
            raw_correct: rng.below(1 << 40),
            speculated: rng.below(1 << 40),
            speculated_correct: rng.below(1 << 40),
            causes: arb_causes(rng),
        },
        pcs: (0..rng.below(4)).map(|_| arb_attribution_pc(rng)).collect(),
    }
}

fn arb_profile(rng: &mut Rng) -> ProfileSection {
    let stacks = ["run", "run;profile", "run;predict", "run;predict;replay"];
    let hot_stacks = (0..rng.below(4))
        .map(|i| HotStack {
            stack: stacks[i as usize].to_owned(),
            count: rng.below(1 << 30),
            share: rng.gen_f64(),
        })
        .collect();
    let phases = (0..rng.below(4))
        .map(|i| PhaseShare {
            path: stacks[i as usize].replace(';', "/"),
            self_share: rng.gen_f64(),
            total_share: rng.gen_f64(),
        })
        .collect();
    ProfileSection {
        hz: 1 + rng.below(1_000),
        samples: rng.below(1 << 40),
        dropped: rng.below(1 << 20),
        threads: rng.below(64),
        hot_stacks,
        phases,
    }
}

fn arb_manifest(rng: &mut Rng) -> RunManifest {
    let phases = (0..rng.below(4))
        .map(|i| {
            let min = rng.gen_f64() * 10.0;
            let max = min + rng.gen_f64() * 100.0;
            PhaseEntry {
                path: format!("run/phase-{i}"),
                count: 1 + rng.below(9),
                total_ms: max * 2.0,
                min_ms: min,
                max_ms: max,
            }
        })
        .collect();
    let histograms = (0..rng.below(3))
        .map(|i| {
            let mut bins = [0u64; 10];
            for b in &mut bins {
                *b = rng.below(1_000);
            }
            (format!("hist-{i}"), bins)
        })
        .collect();
    let attribution = (0..rng.below(3))
        .map(|_| arb_attribution_run(rng))
        .collect();
    RunManifest {
        bin: format!("bin-{}", rng.below(100)),
        args: (0..rng.below(3)).map(|i| format!("--arg-{i}")).collect(),
        wall_ms: rng.gen_f64() * 1e5,
        peak_rss_bytes: rng.below(1 << 53),
        phases,
        counters: arb_map(rng),
        gauges: arb_map(rng),
        histograms,
        attribution,
        profile: (rng.below(2) == 0).then(|| arb_profile(rng)),
    }
}

#[test]
fn serialisation_is_canonical_for_arbitrary_manifests() {
    prop::forall("manifest round-trip", arb_manifest).check(|m| {
        let text = m.to_json();
        let back = RunManifest::parse(&text).expect("serialised manifest parses");
        assert_eq!(&back, m, "parse must reconstruct the manifest exactly");
        assert_eq!(
            back.to_json(),
            text,
            "re-serialisation must be byte-identical"
        );
    });
}

#[test]
fn one_schema_whatever_the_content() {
    prop::forall("manifest schema", arb_manifest).check(|m| {
        // Strip the optional sections one at a time: every form serialises
        // under the one schema, leaves its empty sections out, and parses
        // back with them empty.
        let no_profile = m.clone().with_profile(None);
        let bare = no_profile.clone().with_attribution(Vec::new());
        for form in [m, &no_profile, &bare] {
            let text = form.to_json();
            assert!(text.starts_with(&format!(r#"{{"schema":"{SCHEMA}","#)));
            assert_eq!(
                text.contains("\"attribution\":["),
                !form.attribution.is_empty()
            );
            assert_eq!(text.contains("\"profile\":{"), form.profile.is_some());
            let back = RunManifest::parse(&text).expect("every form parses");
            assert_eq!(&back, form);
        }
    });
}
