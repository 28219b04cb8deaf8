//! Chaos tests: the engine under its own fault injector.
//!
//! The robustness contract these pin down: a seeded fault plan may
//! panic workers, corrupt headers in flight, stall rings, and drop or
//! duplicate loop events — and the run still completes, still detects
//! the injected routing loop, and still accounts for every offered
//! packet. Recovery actions are never silent: restarts, lost packets,
//! kicks, and quarantines all surface as counters.

use proptest::prelude::*;
use rand::Rng;
use std::collections::HashSet;
use std::time::Duration;
use unroller_control::{Controller, FlakyHealer, HealPolicy};
use unroller_engine::aggregate::{aggregate, deliver};
use unroller_engine::{
    ControllerSink, Engine, EngineConfig, FaultPlan, FlowKey, FullPolicy, LoopEvent,
    SyntheticSource,
};

fn ids(n: u32) -> Vec<u32> {
    (0..n).map(|i| 100 + i).collect()
}

/// The headline chaos run: worker panics, wire bit-flips, and loop-event
/// channel faults all at once, on multiple shards. Completion, loop
/// detection, and packet accounting must all survive.
#[test]
fn seeded_fault_run_completes_detects_and_accounts() {
    let plan = FaultPlan {
        seed: 42,
        panic_rate: 0.002,
        bitflip_rate: 0.001,
        event_drop_rate: 0.2,
        event_dup_rate: 0.2,
        ..FaultPlan::default()
    };
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            full_policy: FullPolicy::Block,
            faults: plan,
            ..EngineConfig::default()
        },
        &ids(32),
    )
    .unwrap();
    // 8 flows, every 4th loops from packet 100 on.
    let mut source = SyntheticSource::new(32, 8, 20_000, 4, 100, 7);
    let report = engine.run(&mut source).expect("chaos run must complete");

    assert!(report.loop_detected(), "faults must not mask the loop");
    assert!(
        report.accounted(),
        "accounting holds under faults: {report:?}"
    );
    assert!(
        report.restarts() > 0,
        "0.2% panic rate over 20k packets fires"
    );
    assert!(report.panic_lost() > 0);
    assert_eq!(
        report.processed() + report.panic_lost(),
        20_000,
        "every packet is processed or counted as panic-lost"
    );
    let injected_drops: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.events_dropped_injected)
        .sum();
    let injected_dups: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.events_duplicated_injected)
        .sum();
    assert!(injected_drops > 0, "event drops fired");
    assert!(injected_dups > 0, "event duplications fired");
    // The counters the CI chaos-smoke job greps for must serialize.
    let rendered = report.to_json().render_pretty();
    for key in ["restarts", "panic_lost", "bitflips_injected", "fault_plan"] {
        assert!(rendered.contains(key), "missing {key} in JSON");
    }
}

/// Loop-event loss at 8× the committed fault sweep's rate, with no
/// other fault: shards re-report a trapped flow on a back-off
/// schedule, so a dropped report is repaired by a later one and every
/// looping flow still reaches the aggregator.
#[test]
fn heavy_event_loss_still_reports_every_looping_flow() {
    let plan = FaultPlan {
        seed: 17,
        event_drop_rate: 0.4,
        ..FaultPlan::default()
    };
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            full_policy: FullPolicy::Block,
            faults: plan,
            ..EngineConfig::default()
        },
        &ids(32),
    )
    .unwrap();
    // 16 flows, every 2nd loops from the first packet.
    let mut source = SyntheticSource::new(32, 16, 20_000, 2, 0, 23);
    let looping: HashSet<FlowKey> = source.looping_flow_keys().into_iter().collect();
    assert_eq!(looping.len(), 8);
    let report = engine.run(&mut source).expect("lossy run completes");
    let dropped: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.events_dropped_injected)
        .sum();
    assert!(dropped > 0, "event drops fired");
    assert!(report.events_accounted(), "{report:?}");
    let detected: HashSet<FlowKey> = report.aggregator.events.iter().map(|e| e.flow).collect();
    assert_eq!(detected, looping, "recall 1.0 despite the loss");
}

/// Injected ring stalls end to end: the watchdog notices the stalled
/// shard (no consumption, ring backlog) and kicks it; the stall aborts
/// early and both sides of the exchange are counted.
#[test]
fn watchdog_cuts_injected_stalls_short() {
    let plan = FaultPlan {
        seed: 3,
        stall_rate: 1.0,
        stall_ms: 50,
        ..FaultPlan::default()
    };
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            ring_capacity: 64,
            full_policy: FullPolicy::Block,
            faults: plan,
            watchdog: Some(Duration::from_millis(2)),
            ..EngineConfig::default()
        },
        &ids(32),
    )
    .unwrap();
    let mut source = SyntheticSource::new(32, 8, 5_000, 4, 100, 5);
    let report = engine.run(&mut source).expect("stalled run completes");
    assert!(report.accounted());
    let injected: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.stalls_injected)
        .sum();
    let aborted: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.stalls_aborted)
        .sum();
    assert!(injected > 0, "every batch stalls under rate 1.0");
    assert!(aborted > 0, "the watchdog kicked at least one stall");
    assert!(report.watchdog.kicks > 0);
    assert!(report.watchdog.stalls_detected >= report.watchdog.kicks);
}

/// The degraded-mode story end to end: detection works, but healing
/// always fails — the controller quarantines the loop, a repeat pass
/// skips it idempotently, and a rerun with the trapped flows
/// quarantined at ingress sees no loop traffic at all.
#[test]
fn failed_healing_quarantines_and_degraded_rerun_drops_at_ingress() {
    let switch_ids = ids(32);
    let run = |quarantine: Vec<FlowKey>| {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                full_policy: FullPolicy::Block,
                quarantine,
                ..EngineConfig::default()
            },
            &switch_ids,
        )
        .unwrap();
        // Every flow loops from the first packet.
        let mut source = SyntheticSource::new(32, 8, 2_000, 1, 0, 13);
        engine.run(&mut source).expect("fault-free run")
    };

    let report = run(Vec::new());
    assert!(report.loop_detected());

    // Healing that never succeeds: bounded retries, then quarantine.
    let mut sink = ControllerSink::new(Controller::new(&switch_ids));
    deliver(&report.aggregator.events, &mut sink);
    let localized = sink.controller.localized_loops().len();
    assert!(localized > 0, "memberships localize");
    // The inner executor would succeed, but the flaky layer (a dead RPC
    // path) eats every attempt before it gets there.
    struct WouldSucceed;
    impl unroller_control::HealExecutor for WouldSucceed {
        fn attempt(&mut self, _l: &unroller_control::LocalizedLoop) -> bool {
            true
        }
    }
    let mut inner = WouldSucceed;
    let mut always_fail = FlakyHealer {
        inner: &mut inner,
        fails: || true,
    };
    let policy = HealPolicy {
        max_attempts: 3,
        ..HealPolicy::default()
    };
    let heal = sink.controller.heal_all(policy, &mut always_fail);
    assert!(heal.healed.is_empty());
    assert_eq!(heal.quarantined.len(), localized, "every loop gave up");
    assert_eq!(heal.retries, 2 * localized as u64, "3 attempts each");
    assert!(!heal.fully_healed());
    for nodes in &heal.quarantined {
        assert!(sink.controller.is_quarantined(nodes));
    }

    // Idempotence: a second pass re-attempts nothing.
    let again = sink.controller.heal_all(policy, &mut always_fail);
    assert_eq!(again.attempts, 0);
    assert_eq!(again.already_quarantined, localized as u64);

    // Degraded mode: drop the trapped flows at ingress instead.
    let trapped = SyntheticSource::new(32, 8, 2_000, 1, 0, 13).looping_flow_keys();
    assert_eq!(trapped.len(), 8, "every flow loops in this source");
    let degraded = run(trapped);
    assert!(!degraded.loop_detected(), "no loop traffic reaches workers");
    assert_eq!(degraded.quarantined, 2_000);
    assert!(degraded.accounted());
}

/// One synthetic loop event per (flow, seq).
fn event(flow_index: u32, seq: u64) -> LoopEvent {
    LoopEvent {
        flow: FlowKey::synthetic(1, 2, flow_index),
        seq,
        shard: 0,
        trigger: 110,
        hop: 4,
        members: vec![110, 111 + flow_index],
        complete: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Aggregator dedupe under the faults the injector produces on the
    /// event channel: arbitrary duplication and arbitrary reordering.
    /// Whatever arrives, the aggregator must report each flow exactly
    /// once, count every arrival, and attribute the surviving event to
    /// the first arrival of its flow.
    #[test]
    fn aggregator_dedupe_survives_duplication_and_reordering(
        flows in prop::collection::vec(0u32..12, 1..40),
        dup_mask in prop::collection::vec(any::<bool>(), 40),
        shuffle_seed in any::<u64>(),
    ) {
        // Base stream: one event per entry, seq = position; duplicated
        // entries appear twice (what EventFate::Duplicate does).
        let mut stream: Vec<LoopEvent> = Vec::new();
        for (i, &f) in flows.iter().enumerate() {
            let ev = event(f, i as u64);
            if dup_mask[i % dup_mask.len()] {
                stream.push(ev.clone());
            }
            stream.push(ev);
        }
        // Reorder arbitrarily (cross-shard arrival order is unspecified).
        let mut rng = unroller_core::test_rng(shuffle_seed);
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.gen_range(0..=i));
        }

        let sent = stream.len() as u64;
        let distinct: std::collections::HashSet<FlowKey> =
            stream.iter().map(|e| e.flow).collect();
        let first_arrival: std::collections::HashMap<FlowKey, u64> = stream
            .iter()
            .enumerate()
            .rev()
            .map(|(pos, e)| (e.flow, pos as u64))
            .collect();

        let (tx, rx) = std::sync::mpsc::channel();
        for ev in &stream {
            tx.send(ev.clone()).unwrap();
        }
        drop(tx);
        let report = aggregate(rx);

        prop_assert_eq!(report.events_received, sent);
        prop_assert_eq!(report.unique_flows, distinct.len() as u64);
        prop_assert_eq!(
            report.duplicates_suppressed,
            sent - distinct.len() as u64
        );
        prop_assert_eq!(report.events.len(), distinct.len());
        // Exactly one event per flow, and it is the first that arrived.
        let mut reported: std::collections::HashSet<FlowKey> = Default::default();
        for ev in &report.events {
            prop_assert!(reported.insert(ev.flow), "flow reported twice");
            let first_pos = first_arrival[&ev.flow];
            let first_ev = &stream[first_pos as usize];
            prop_assert_eq!(ev.seq, first_ev.seq, "kept the first arrival");
        }
        prop_assert_eq!(reported, distinct);
    }
}
