//! Proves the generated-traffic hot loop allocates nothing per packet,
//! and nothing per suppressed loop detection.
//!
//! A counting `GlobalAlloc` wrapper tallies every allocation in the
//! process; the engine is then run twice over identical synthetic
//! traffic at 2 000 and 12 000 packets. Everything per-run is constant
//! (rings, staging buffers, worker scratch, threads), so if the
//! per-packet path is allocation-free the two counts of a no-loop run
//! are *equal* — any per-packet Box, Vec growth, or clone shows up as a
//! count delta proportional to the extra 10 000 packets. With looping
//! flows, only a *reported* detection may allocate (its membership
//! list and its share of the event channel): the delta is bounded by
//! the extra reported events, not the extra detections.
//!
//! The lib crate forbids `unsafe_code`; this test file opts back in only
//! for the `GlobalAlloc` impl (the trait itself is unsafe to
//! implement), which does nothing beyond counting and delegating to
//! [`System`].

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use unroller_engine::{Engine, EngineConfig, EngineReport, FullPolicy, SyntheticSource};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One single-shard engine run over `packets` synthetic packets, where
/// every `loop_every`-th of 8 flows (0: none) loops from packet 0.
/// Returns the allocation count of `run` alone — source and engine
/// construction happen outside the measured window — and the report.
fn measured_run(packets: u64, loop_every: usize) -> (u64, EngineReport) {
    let ids: Vec<u32> = (0..16).map(|i| 100 + i).collect();
    let engine = Engine::new(
        EngineConfig {
            shards: 1,
            full_policy: FullPolicy::Block,
            ..Default::default()
        },
        &ids,
    )
    .expect("engine construction");
    let mut source = SyntheticSource::new(16, 8, packets, loop_every, 0, 9);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = engine.run(&mut source).expect("engine run");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(report.accounted(), "accounting invariant");
    assert!(report.events_accounted(), "event accounting invariant");
    assert_eq!(report.processed(), packets, "every packet processed");
    (after - before, report)
}

/// Summed over shards.
fn total(report: &EngineReport, field: impl Fn(&unroller_engine::ShardSnapshot) -> u64) -> u64 {
    report.shard_snapshots.iter().map(field).sum()
}

/// One test only: concurrent tests in the same binary would tally
/// their allocations into the shared counter.
#[test]
fn generated_traffic_hot_loop_allocates_nothing_per_packet() {
    // Warm up once so lazily-initialized runtime state (TLS, stdio
    // locks, thread bookkeeping) is paid before measurement.
    let _ = measured_run(500, 2);
    // A handful of allocations vary run-to-run with thread timing
    // (lazy TLS / parking bookkeeping, paid once per run, not per
    // packet) — so the bound is a small constant, not exact equality.
    // A single per-packet allocation would add at least 10 000.
    let (small, _) = measured_run(2_000, 0);
    let (large, _) = measured_run(12_000, 0);
    let delta = large.abs_diff(small);
    assert!(
        delta <= 8,
        "10 000 extra packets must not allocate: {small} allocs at 2k vs {large} at 12k"
    );

    // Half the flows loop from their first packet, so most of the extra
    // packets are detections; only the reported ones may allocate.
    let (small, small_report) = measured_run(2_000, 2);
    let (large, large_report) = measured_run(12_000, 2);
    let detections =
        total(&large_report, |s| s.loop_events) - total(&small_report, |s| s.loop_events);
    let reported =
        total(&large_report, |s| s.events_sent) - total(&small_report, |s| s.events_sent);
    assert!(
        detections >= 4_000,
        "the looping flows detect on every packet: {detections} extra detections"
    );
    let delta = large.abs_diff(small);
    assert!(
        delta <= 4 * reported + 8,
        "{detections} extra detections, {reported} of them reported, \
         must not allocate per detection: {small} allocs at 2k vs {large} at 12k"
    );
}
