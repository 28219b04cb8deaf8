//! Memoization equivalence tests: the per-route verdict cache is a pure
//! performance feature — every counter a walked run produces
//! (delivered, TTL drops, loop events, hop totals, route errors) must
//! be reproduced exactly with it enabled, across detector parameter
//! space, random route shapes, carried frames with arbitrary in-flight
//! shim state, injected worker panics and bit-flips, and live route
//! churn.
//!
//! The bit-exactness claim itself is enforced by running the memo in
//! paranoid mode (`sample_every: 1`): every cache hit re-walks the
//! packet and compares verdict *and* final shim bytes against the
//! cached entry, counting any mismatch in `memo_divergence` — which
//! these tests pin to zero.

use proptest::prelude::*;
use rand::Rng;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use unroller_core::UnrollerParams;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};
use unroller_engine::faults::{EventFaults, PacketFault};
use unroller_engine::metrics::{ShardMetrics, ShardSnapshot};
use unroller_engine::ring::{ring, FullPolicy};
use unroller_engine::worker::ShardWorker;
use unroller_engine::{
    ChurnPlan, ChurnSource, Engine, EngineConfig, EnginePacket, EngineReport, EpochRouteTable,
    FaultPlan, FlowKey, LoopInjection, MemoConfig, PathSpec, ReplaySource, RouteId, RouteSet,
};
use unroller_sim::{NullDetector, SimConfig, Simulator};
use unroller_topology::generators::ring as ring_topology;
use unroller_topology::ids::assign_sequential_ids;

/// Outcome counters that must be identical between a walked run and
/// any memoized run of the same traffic.
fn outcome_totals(report: &EngineReport) -> (u64, u64, u64, u64, u64, u64) {
    let sum = |f: fn(&ShardSnapshot) -> u64| report.shard_snapshots.iter().map(f).sum();
    (
        sum(|s| s.delivered),
        sum(|s| s.ttl_dropped),
        sum(|s| s.loop_events),
        sum(|s| s.route_errors),
        sum(|s| s.frame_errors),
        sum(|s| s.hops),
    )
}

/// One engine run over simulator-routed ring traffic with a loop
/// injected mid-stream, under the given detector params and memo mode.
fn engine_run(params: UnrollerParams, seed: u64, memo: Option<MemoConfig>) -> EngineReport {
    const NODES: usize = 16;
    let mut sim = Simulator::new(
        ring_topology(NODES),
        assign_sequential_ids(NODES, 100),
        NullDetector,
        SimConfig::default(),
    );
    let injection = LoopInjection {
        cycle: vec![2, 3],
        dst: 8,
        at_packet: 1_000,
    };
    let mut source = ReplaySource::from_sim(&mut sim, 24, 6_000, Some(&injection), seed);
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            full_policy: FullPolicy::Block,
            params,
            memo,
            ..EngineConfig::default()
        },
        sim.ids(),
    )
    .unwrap();
    engine.run(&mut source).expect("fault-free run")
}

#[test]
fn memoized_engine_runs_match_walked_runs() {
    for params in [
        UnrollerParams::default(),
        UnrollerParams::default().with_z(7).with_th(4),
        UnrollerParams::default().with_c(2).with_h(2).with_z(12),
    ] {
        for seed in [5, 11] {
            let walked = engine_run(params, seed, None);
            assert!(walked.loop_detected());
            assert!(walked.accounted());
            assert!(!walked.memo_enabled);
            // Which packet first detects each flow's loop is part of
            // the contract, not just which flows are detected.
            let mut walked_events: Vec<(u64, u64)> = walked
                .aggregator
                .events
                .iter()
                .map(|e| (e.flow.rss_hash(), e.seq))
                .collect();
            // Sorted: the aggregator interleaves the two shards'
            // event streams nondeterministically.
            walked_events.sort_unstable();
            for (name, memo) in [
                ("memo-paranoid", MemoConfig { sample_every: 1 }),
                ("memo-unsampled", MemoConfig { sample_every: 0 }),
                ("memo-default", MemoConfig::default()),
            ] {
                let run = engine_run(params, seed, Some(memo));
                assert!(run.accounted(), "{name}: accounted");
                assert_eq!(
                    outcome_totals(&run),
                    outcome_totals(&walked),
                    "{name}: outcome counters diverged from the walked run"
                );
                assert_eq!(run.memo_divergence(), 0, "{name}: divergence");
                assert!(run.memo_enabled);
                assert!(run.memo_hits() > 0, "{name}: the cache was exercised");
                let mut events: Vec<(u64, u64)> = run
                    .aggregator
                    .events
                    .iter()
                    .map(|e| (e.flow.rss_hash(), e.seq))
                    .collect();
                events.sort_unstable();
                assert_eq!(
                    events, walked_events,
                    "{name}: first-detection packets diverged"
                );
            }
        }
    }
}

#[test]
fn churn_storm_with_memo_keeps_full_recall_and_never_diverges() {
    // The worst case for the cache: a control-plane update storm swaps
    // route generations mid-traffic, reusing `RouteId` slots for
    // entirely different paths. Recall against the live oracle must
    // stay 1.0 and the sampled cross-checks must never fire.
    let plan = ChurnPlan::parse("rate=500,seed=7,links=3").unwrap();
    let mut source = ChurnSource::new(ring_topology(16), &plan, 16, 100_000);
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            ring_capacity: 512,
            full_policy: FullPolicy::Block,
            memo: Some(MemoConfig { sample_every: 2 }),
            ..EngineConfig::default()
        },
        &(0..16).map(|i| 100 + i).collect::<Vec<u32>>(),
    )
    .unwrap();
    let report = engine.run(&mut source).expect("churn run completes");

    assert!(report.accounted(), "accounting holds under churn");
    source.oracle_check().expect("oracle mirror stays in sync");
    let trapped = source.looping_flow_keys();
    assert!(!trapped.is_empty(), "the storm trapped at least one flow");
    let detected: std::collections::HashSet<_> =
        report.aggregator.events.iter().map(|e| e.flow).collect();
    for flow in &trapped {
        assert!(
            detected.contains(flow),
            "memoized recall must be 1.0; missed {flow:?}"
        );
    }
    let swaps: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.route_swaps_observed)
        .sum();
    assert!(swaps > 0, "workers observed the swaps");
    assert_eq!(report.memo_divergence(), 0);
    assert!(report.memo_hits() > 0, "steady state hit the cache");
    assert!(report.memo_sampled_walks() > 0, "cross-checks actually ran");
    assert!(
        report.memo_misses() > 1,
        "each observed generation re-warms the cache"
    );
}

/// A standalone worker over an arbitrary route set, for twin-run
/// comparisons the engine's traffic sources cannot express (routes
/// with invalid hops, carried frames with arbitrary shim state), under
/// an optional seeded packet-fault plan.
fn run_worker(
    params: UnrollerParams,
    nodes: usize,
    max_hops: u32,
    routes: &Arc<RouteSet>,
    packets: &[EnginePacket],
    memo: Option<MemoConfig>,
    faults: Option<&FaultPlan>,
) -> ShardSnapshot {
    let ids: Arc<[u32]> = (0..nodes as u32).map(|i| 100 + i).collect();
    let pipelines = Arc::new(
        ids.iter()
            .map(|&id| UnrollerPipeline::new(id, params).expect("valid params"))
            .collect::<Vec<_>>(),
    );
    let (producer, consumer, _) = ring(512, FullPolicy::Block);
    let (ev_tx, ev_rx) = std::sync::mpsc::channel();
    let worker = ShardWorker {
        shard: 0,
        pipelines,
        ids,
        routes: Arc::new(EpochRouteTable::new(routes.clone())).reader(),
        layout: HeaderLayout::from_params(&params),
        max_hops,
        batch_size: 8,
        metrics: Arc::new(ShardMetrics::default()),
        events: ev_tx,
        consumer,
        faults: faults.map(|plan| plan.for_shard(0)),
        event_faults: EventFaults::inactive(),
        kick: Arc::new(AtomicBool::new(false)),
        pin_core: None,
        memo,
    };
    for p in packets {
        producer.push(EnginePacket {
            flow: p.flow,
            seq: p.seq,
            route: p.route,
            frame: p.frame.clone(),
        });
    }
    drop(producer);
    let metrics = worker.metrics.clone();
    worker.run();
    drop(ev_rx);
    metrics.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random routes (valid, looping, out-of-range hops) × detector
    /// params × initial shim states × (in half the cases) seeded worker
    /// panics and shim bit-flips: paranoid-mode memoization
    /// (`sample_every: 1`) re-walks every cache hit and bit-compares
    /// verdict and final shim bytes, so `memo_divergence == 0` here IS
    /// the proof that the cached fast path is exact — on top of the
    /// twin-run counter equality against a memo-free worker.
    #[test]
    fn random_routes_params_and_shims_stay_bit_exact(
        seed in 0u64..1_000_000,
        params_idx in 0usize..4,
        faulty in 0usize..2,
    ) {
        let params = [
            UnrollerParams::default(),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_b(3).with_th(2),
        ][params_idx];
        let plan = (faulty == 1).then(|| FaultPlan {
            seed,
            panic_rate: 0.05,
            bitflip_rate: 0.1,
            ..FaultPlan::default()
        });
        let layout = HeaderLayout::from_params(&params);
        let mut rng = unroller_core::test_rng(seed);
        let nodes = rng.gen_range(4..12usize);
        let max_hops = rng.gen_range(4..32u32);

        // Random path shapes; hops occasionally land outside the
        // provisioned node set so the route-error path is exercised.
        let route_count = rng.gen_range(2..8usize);
        let specs: Vec<PathSpec> = (0..route_count)
            .map(|_| {
                let hop = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..nodes + 2);
                let pre: Vec<usize> =
                    (0..rng.gen_range(1..8usize)).map(|_| hop(&mut rng)).collect();
                if rng.gen_range(0..3usize) == 0 {
                    let cycle: Vec<usize> =
                        (0..rng.gen_range(1..5usize)).map(|_| hop(&mut rng)).collect();
                    PathSpec::looping(pre, cycle)
                } else {
                    PathSpec::linear(pre)
                }
            })
            .collect();
        let routes = RouteSet::from_specs(&specs);

        let packets: Vec<EnginePacket> = (0..rng.gen_range(40..120u64))
            .map(|seq| {
                let slot = rng.gen_range(0..route_count);
                // One packet in five is a carried frame with a fully
                // random in-flight shim — it must bypass the cache and
                // be walked in its own bytes.
                let frame = (rng.gen_range(0..5usize) == 0).then(|| {
                    let mut f = build_frame(
                        &layout,
                        &EthernetHeader::for_hosts(0, 1),
                        &WireHeader::initial(&layout),
                        b"carried",
                    );
                    for b in &mut f[ETH_HEADER_LEN..ETH_HEADER_LEN + layout.total_bytes()] {
                        *b = rng.gen::<u32>() as u8;
                    }
                    f.into_boxed_slice()
                });
                EnginePacket {
                    flow: FlowKey::synthetic(0, 1, 0),
                    seq,
                    route: RouteId::from_index(slot),
                    frame,
                }
            })
            .collect();

        let walked = run_worker(params, nodes, max_hops, &routes, &packets, None, plan.as_ref());
        let memoized = run_worker(
            params,
            nodes,
            max_hops,
            &routes,
            &packets,
            Some(MemoConfig { sample_every: 1 }),
            plan.as_ref(),
        );
        prop_assert_eq!(memoized.packets, walked.packets);
        prop_assert_eq!(memoized.delivered, walked.delivered);
        prop_assert_eq!(memoized.ttl_dropped, walked.ttl_dropped);
        prop_assert_eq!(memoized.loop_events, walked.loop_events);
        prop_assert_eq!(memoized.route_errors, walked.route_errors);
        prop_assert_eq!(memoized.frame_errors, walked.frame_errors);
        prop_assert_eq!(memoized.hops, walked.hops);
        prop_assert_eq!(memoized.panic_lost, walked.panic_lost);
        prop_assert_eq!(memoized.restarts, walked.restarts);
        prop_assert_eq!(memoized.bitflips_injected, walked.bitflips_injected);
        prop_assert_eq!(memoized.memo_divergence, 0);
        prop_assert_eq!(
            memoized.memo_sampled_walks,
            memoized.memo_hits,
            "paranoid mode cross-checks every hit"
        );

        // The worker draws packet i's fault as the i-th draw of the
        // shard's packet stream, so the expected cache traffic can be
        // replayed here: carried frames, faulted packets and panicked
        // packets never touch the cache, and every panic restarts the
        // worker with an empty one.
        let mut draws = plan.as_ref().map(|p| p.for_shard(0));
        let mut warm = vec![false; route_count];
        let (mut panics, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for p in &packets {
            match draws.as_mut().map_or(PacketFault::None, |d| d.packet_fault()) {
                PacketFault::Panic => {
                    panics += 1;
                    warm.fill(false);
                }
                PacketFault::BitFlip { .. } => {}
                PacketFault::None if p.frame.is_none() => {
                    let slot = &mut warm[p.route.index()];
                    if *slot {
                        hits += 1;
                    } else {
                        misses += 1;
                        *slot = true;
                    }
                }
                PacketFault::None => {}
            }
        }
        prop_assert_eq!(memoized.panic_lost, panics, "one lost packet per panic");
        prop_assert_eq!(memoized.restarts, panics);
        prop_assert_eq!(memoized.packets + panics, packets.len() as u64);
        prop_assert_eq!(memoized.memo_hits, hits);
        prop_assert_eq!(memoized.memo_misses, misses, "the memo resets on restart");
    }
}
