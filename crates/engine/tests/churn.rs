//! Live-churn integration tests: route-generation lifetimes under
//! arbitrary reader/writer interleavings, and the engine processing an
//! update storm — with and without worker panics — scored against the
//! live forwarding-state oracle.

use proptest::prelude::*;
use std::sync::{Arc, Weak};
use unroller_engine::{
    ChurnPlan, ChurnSource, Engine, EngineConfig, EpochRouteTable, FaultPlan, FullPolicy, PathSpec,
    RouteReader, RouteSet,
};
use unroller_topology::generators::ring;

/// A route set whose length encodes the generation that published it,
/// so a reader's `(generation, routes)` pair can be checked for
/// coherence from outside.
fn tagged_set(generation: u64) -> Arc<RouteSet> {
    let specs: Vec<PathSpec> = (0..generation)
        .map(|i| PathSpec::linear(vec![i as usize, i as usize + 1]))
        .collect();
    RouteSet::from_specs(specs.iter())
}

/// One epoch-table operation in a model-checked interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Writer publishes the next generation.
    Publish,
    /// Reader in slot `i` (mod capacity) catches up to the current
    /// generation.
    Refresh(usize),
    /// Reader in slot `i` is dropped.
    Drop(usize),
    /// A new reader registers in the first free slot.
    Register,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice by hand (the vendored proptest has no
    // `prop_oneof`): publishes and refreshes dominate, drops and
    // registrations salt the sequence.
    (0u8..9, 0usize..4).prop_map(|(kind, i)| match kind {
        0..=2 => Op::Publish,
        3..=5 => Op::Refresh(i),
        6 => Op::Drop(i),
        _ => Op::Register,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-checked generation lifetimes: under any interleaving of
    /// publishes, refreshes, reader registration, and reader drops —
    ///
    /// 1. every live reader always holds the route set its generation
    ///    claims (no reader ever observes a torn or freed generation),
    /// 2. a reader's generation never runs ahead of the published one,
    /// 3. generation `g`'s set is alive exactly when `g` is current,
    ///    `g` is the one the last publish replaced, or a live reader is
    ///    on `g`: ownership frees every other set at once, however far
    ///    a reader lags.
    #[test]
    fn reclamation_is_safe_and_bounded_under_any_interleaving(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut published: u64 = 1;
        // `sets[g - 1]` watches generation `g`'s set.
        let mut sets: Vec<Weak<RouteSet>> = vec![Arc::downgrade(&table.current())];
        let mut slots: Vec<Option<RouteReader>> = vec![None, None, None, None];
        slots[0] = Some(table.reader());

        for op in ops {
            match op {
                Op::Publish => {
                    published += 1;
                    let set = tagged_set(published);
                    sets.push(Arc::downgrade(&set));
                    let generation = table.publish(set);
                    prop_assert_eq!(generation, published);
                }
                Op::Refresh(i) => {
                    if let Some(reader) = slots[i % 4].as_mut() {
                        let before = reader.generation();
                        let moved = reader.refresh();
                        prop_assert_eq!(
                            moved.is_some(),
                            before != published,
                            "refresh reports a swap iff one was pending"
                        );
                    }
                }
                Op::Drop(i) => {
                    slots[i % 4] = None;
                }
                Op::Register => {
                    if let Some(free) = slots.iter_mut().find(|s| s.is_none()) {
                        *free = Some(table.reader());
                    }
                }
            }
            // Invariants 1 and 2, after every single operation.
            for reader in slots.iter().flatten() {
                let generation = reader.generation();
                prop_assert!(generation <= published);
                prop_assert_eq!(
                    reader.routes().len() as u64,
                    generation,
                    "reader holds the route set its generation claims"
                );
                prop_assert!(
                    reader.publish_ns(generation).is_some(),
                    "a reader's generation keeps its publish timestamp"
                );
            }
            // Invariant 3, for every generation ever published.
            for (g, set) in (1..=published).zip(&sets) {
                let held = g == published
                    || g + 1 == published
                    || slots.iter().flatten().any(|r| r.generation() == g);
                prop_assert_eq!(
                    set.strong_count() > 0,
                    held,
                    "generation {} of {}: alive iff current, previous or read",
                    g,
                    published
                );
            }
        }
    }
}

/// The headline live-churn runs, fault-free, at 100, 400 and 1000
/// control-plane events per million packets: an update storm publishes
/// generations mid-traffic, the live oracle accumulates the
/// ever-trapped flow set, and the engine detects every one of them —
/// recall 1.0 — while staying fully accounted. Rings of 256 keep the
/// in-flight backlog (two rings plus a staged burst, 2×256+64 packets)
/// under rate 1000's 1,000-packet event interval, so a packet emitted
/// while its flow is trapped is processed while the flow still is.
#[test]
fn churn_run_detects_every_trapped_flow() {
    for rate in [100, 400, 1000] {
        let plan = ChurnPlan::parse(&format!("rate={rate},seed=7,links=3")).unwrap();
        let mut source = ChurnSource::new(ring(16), &plan, 16, 100_000);
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                ring_capacity: 256,
                full_policy: FullPolicy::Block,
                ..EngineConfig::default()
            },
            &(0..16).map(|i| 100 + i).collect::<Vec<u32>>(),
        )
        .unwrap();
        let report = engine.run(&mut source).expect("churn run completes");

        assert!(
            report.accounted(),
            "rate {rate}: accounting holds under churn"
        );
        source
            .oracle_check()
            .unwrap_or_else(|e| panic!("rate {rate}: oracle mirror diverged: {e}"));
        assert!(
            source.generations_published() >= 3,
            "rate {rate}: the storm published mid-run generations"
        );
        let trapped = source.looping_flow_keys();
        assert!(
            !trapped.is_empty(),
            "rate {rate}: count-to-infinity trapped at least one flow"
        );
        let detected: std::collections::HashSet<_> =
            report.aggregator.events.iter().map(|e| e.flow).collect();
        for flow in &trapped {
            assert!(
                detected.contains(flow),
                "rate {rate}: live oracle recall must be 1.0; missed {flow:?}"
            );
        }
        let loops_after_swap: u64 = report
            .shard_snapshots
            .iter()
            .map(|s| s.loops_after_swap)
            .sum();
        assert!(
            loops_after_swap > 0,
            "rate {rate}: loops were detected on generations published after traffic started"
        );
        let swaps: u64 = report
            .shard_snapshots
            .iter()
            .map(|s| s.route_swaps_observed)
            .sum();
        assert!(swaps > 0, "rate {rate}: workers observed the swaps");
    }
}

/// Chaos: the same storm with seeded worker panics on top. Workers die
/// mid-batch and restart onto the *current* generation; the run still
/// completes, still accounts for every packet (processed + panic-lost),
/// and still detects every flow the live oracle ever saw trapped.
#[test]
fn churn_survives_worker_panics_with_full_recall() {
    let churn = ChurnPlan::parse("rate=500,seed=11,links=3").unwrap();
    let mut source = ChurnSource::new(ring(16), &churn, 16, 100_000);
    let faults = FaultPlan {
        seed: 23,
        panic_rate: 0.0005,
        ..FaultPlan::default()
    };
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            ring_capacity: 512,
            full_policy: FullPolicy::Block,
            faults,
            ..EngineConfig::default()
        },
        &(0..16).map(|i| 100 + i).collect::<Vec<u32>>(),
    )
    .unwrap();
    let report = engine.run(&mut source).expect("chaos churn run completes");

    assert!(report.restarts() > 0, "the panic rate fired");
    assert!(report.panic_lost() > 0);
    assert!(report.accounted(), "accounting holds under churn + panics");
    source.oracle_check().expect("oracle mirror stays in sync");

    let trapped = source.looping_flow_keys();
    assert!(!trapped.is_empty());
    let detected: std::collections::HashSet<_> =
        report.aggregator.events.iter().map(|e| e.flow).collect();
    for flow in &trapped {
        assert!(
            detected.contains(flow),
            "recall must survive worker panics; missed {flow:?}"
        );
    }
}
