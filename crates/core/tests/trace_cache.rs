//! Unit tests for the trace store: cache hits must be indistinguishable
//! from fresh simulation, the LRU byte budget must evict, disk spill
//! must round-trip across store instances, and single-use training traces
//! must not stay resident under a spill directory.

use std::sync::Arc;
use std::thread;

use provp_core::{Suite, TraceStore};
use vp_profile::ProfileCollector;
use vp_sim::{run, RunLimits};
use vp_workloads::{InputSet, Workload, WorkloadKind};

fn fresh_profile(kind: WorkloadKind, input: InputSet) -> vp_profile::ProfileImage {
    let w = Workload::new(kind);
    let program = w.program(&input);
    let mut c = ProfileCollector::new("fresh");
    run(&program, &mut c, RunLimits::default()).unwrap();
    c.into_image()
}

fn replayed_profile(
    store: &TraceStore,
    kind: WorkloadKind,
    input: InputSet,
) -> vp_profile::ProfileImage {
    let w = Workload::new(kind);
    let program = w.program(&input);
    let trace = store.get(kind, input, RunLimits::default()).unwrap();
    let mut c = ProfileCollector::new("fresh");
    trace.replay(&program, &mut c).unwrap();
    c.into_image()
}

#[test]
fn cache_hit_replay_equals_fresh_simulation() {
    let store = TraceStore::new();
    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();

    let fresh = fresh_profile(kind, input);
    let miss = replayed_profile(&store, kind, input);
    let hit = replayed_profile(&store, kind, input);

    assert_eq!(
        fresh, miss,
        "first (capturing) replay must match simulation"
    );
    assert_eq!(fresh, hit, "cache-hit replay must match simulation");
    let stats = store.stats();
    assert_eq!(stats.captures, 1);
    assert_eq!(stats.memory_hits, 1);
    assert_eq!(stats.disk_hits, 0);
}

#[test]
fn lru_evicts_oldest_when_over_budget() {
    // A budget way below one trace's size: at most one resident entry,
    // and every insertion beyond the first evicts the previous one.
    let store = TraceStore::with_max_bytes(1);
    let limits = RunLimits::default();
    let a = (WorkloadKind::Compress, InputSet::train(0));
    let b = (WorkloadKind::Compress, InputSet::train(1));

    store.get(a.0, a.1, limits).unwrap();
    assert_eq!(store.resident(), 1);
    store.get(b.0, b.1, limits).unwrap();
    assert_eq!(store.resident(), 1, "budget of 1 byte keeps a single trace");
    let stats = store.stats();
    assert_eq!(stats.captures, 2);
    assert_eq!(stats.evictions, 1);

    // `a` was evicted: requesting it again re-captures.
    store.get(a.0, a.1, limits).unwrap();
    assert_eq!(store.stats().captures, 3);
    // ... while `b`'s eviction means the LRU held the newest entry.
    assert_eq!(store.stats().evictions, 2);
}

#[test]
fn lru_keeps_recently_used_entries_under_budget() {
    // Budget large enough for everything: no evictions at all.
    let store = TraceStore::new();
    let limits = RunLimits::default();
    for i in 0..3 {
        store
            .get(WorkloadKind::Compress, InputSet::train(i), limits)
            .unwrap();
    }
    assert_eq!(store.resident(), 3);
    assert_eq!(store.stats().evictions, 0);
    assert!(store.resident_bytes() > 0);
}

#[test]
fn disk_spill_round_trips_across_stores() {
    let dir = std::env::temp_dir().join(format!("provp-trace-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let kind = WorkloadKind::Ijpeg;
    let input = InputSet::reference();
    let limits = RunLimits::default();

    let first = TraceStore::new().with_spill_dir(&dir);
    let captured = first.get(kind, input, limits).unwrap();
    assert_eq!(first.stats().captures, 1);
    let spilled = dir.join(provp_core::TraceKey::new(kind, input, limits).file_name());
    assert!(spilled.is_file(), "trace must be spilled to {spilled:?}");

    // A brand-new store (fresh process, conceptually) loads from disk.
    let second = TraceStore::new().with_spill_dir(&dir);
    let loaded = second.get(kind, input, limits).unwrap();
    assert_eq!(*captured, *loaded, "disk round-trip must be lossless");
    let stats = second.stats();
    assert_eq!(stats.captures, 0, "no re-simulation with a warm disk cache");
    assert_eq!(stats.disk_hits, 1);

    // A corrupt spill file falls back to simulation instead of failing.
    let rejects = vp_obs::counter("trace_store.spill_rejects");
    let current = std::fs::read(&spilled).unwrap();
    assert_eq!(&current[..8], b"provptr3");
    let before = rejects.get();
    std::fs::write(&spilled, b"garbage").unwrap();
    let third = TraceStore::new().with_spill_dir(&dir);
    let recaptured = third.get(kind, input, limits).unwrap();
    assert_eq!(*captured, *recaptured);
    assert_eq!(third.stats().captures, 1);
    assert!(rejects.get() > before, "a dropped spill file is a reject");

    // Spill files in the retired formats are stale: `provptr2` (the
    // current body without its checksum trailer) and `provptr1` magic
    // are each dropped, re-simulated and rewritten as `provptr3`.
    let legacy_v2 = [&b"provptr2"[..], &current[8..current.len() - 8]].concat();
    let legacy_v1 = [&b"provptr1"[..], &current[8..]].concat();
    for stale in [legacy_v2, legacy_v1] {
        std::fs::write(&spilled, &stale).unwrap();
        let before = rejects.get();
        let store = TraceStore::new().with_spill_dir(&dir);
        let reloaded = store.get(kind, input, limits).unwrap();
        assert_eq!(*captured, *reloaded);
        let stats = store.stats();
        assert_eq!(stats.captures, 1, "a stale spill file is a capture");
        assert_eq!(stats.disk_hits, 0, "a stale spill file is not a disk hit");
        assert!(rejects.get() > before, "a stale spill file is a reject");
        let rewritten = std::fs::read(&spilled).unwrap();
        assert_eq!(rewritten, current, "rewritten in the current format");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_simulate_once() {
    let store = Arc::new(TraceStore::new());
    let kind = WorkloadKind::Compress;
    let input = InputSet::reference();
    let traces: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                s.spawn(move || store.get(kind, input, RunLimits::default()).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(store.stats().captures, 1, "in-flight dedup must hold");
    for t in &traces[1..] {
        assert_eq!(**t, *traces[0]);
    }
}

/// A fresh, empty directory under the system temp dir for one test.
fn empty_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("provp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Under a spill directory a training trace has one consumer per process
/// (its profile image is memoised), so the suite spills it or reads it
/// back without keeping it: only reference traces stay resident, and the
/// counters of a cold and a warm pass are those of a memoising store.
#[test]
fn spill_suite_keeps_only_reference_traces_resident() {
    let dir = empty_dir("suite-residency");
    let kinds = [WorkloadKind::Compress, WorkloadKind::M88ksim];
    let runs = u64::from(Suite::new().train_runs());
    let per_kind = runs + 1;
    let total = per_kind * kinds.len() as u64;

    let cold = Suite::new().with_trace_dir(&dir);
    let mut images = Vec::new();
    for (done, kind) in (1..).zip(kinds) {
        images.push((cold.train_images(kind), cold.reference_image(kind)));
        assert_eq!(
            cold.trace_stats().resident,
            done,
            "one reference trace per kind"
        );
    }
    let stats = cold.trace_stats();
    assert_eq!(stats.resident, kinds.len() as u64, "{stats:?}");
    assert_eq!((stats.captures, stats.spills), (total, total), "{stats:?}");
    assert_eq!((stats.requests, stats.misses), (total, total), "{stats:?}");
    assert_eq!((stats.disk_hits, stats.spill_failures), (0, 0), "{stats:?}");
    drop(cold);

    let warm = Suite::new().with_trace_dir(&dir);
    for (kind, (train, reference)) in kinds.into_iter().zip(&images) {
        assert_eq!(&warm.train_images(kind), train);
        assert_eq!(&warm.reference_image(kind), reference);
    }
    let stats = warm.trace_stats();
    assert_eq!(stats.resident, kinds.len() as u64, "{stats:?}");
    assert_eq!((stats.disk_hits, stats.captures), (total, 0), "{stats:?}");
    assert_eq!((stats.requests, stats.misses), (total, total), "{stats:?}");
    assert_eq!(stats.spills, 0, "{stats:?}");

    // Without a spill directory nothing changes: training runs simulate
    // straight into the collector and never reach the store.
    let plain = Suite::new();
    assert_eq!(&plain.train_images(kinds[0]), &images[0].0);
    assert_eq!(plain.trace_stats().requests, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent transient replays of one key still wait for one producer:
/// the second finds the spill file, so the key is captured once, and no
/// trace is left resident.
#[test]
fn concurrent_transient_replays_capture_once() {
    let dir = empty_dir("transient-dedupe");
    let store = Arc::new(TraceStore::new().with_spill_dir(&dir));
    let kind = WorkloadKind::Compress;
    let input = InputSet::train(0);
    let program = Workload::new(kind).program(&input);
    let images: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (store, program) = (Arc::clone(&store), &program);
                s.spawn(move || {
                    let mut c = ProfileCollector::new("fresh");
                    store
                        .replay_transient(kind, input, RunLimits::default(), program, &mut c)
                        .unwrap();
                    c.into_image()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = store.stats();
    assert_eq!(stats.captures, 1, "in-flight dedup must hold: {stats:?}");
    assert_eq!((stats.disk_hits, stats.spills), (1, 1), "{stats:?}");
    assert_eq!((stats.resident, stats.resident_bytes), (0, 0), "{stats:?}");
    let fresh = fresh_profile(kind, input);
    assert!(images.iter().all(|image| *image == fresh));
    let _ = std::fs::remove_dir_all(&dir);
}
