//! The federation robustness invariant, exercised across many fault
//! schedules: **every cross-domain loop in the forwarding-state oracle
//! is eventually localized by some controller or explicitly reported
//! unresolvable** — never silently dropped — and the bus accounting
//! identities balance under every schedule.
//!
//! The fast sweep drives `FederationSim` directly over multi-loop
//! forwarding states (oracle ground truth from `verify::fwdcheck`);
//! one full-stack run goes through the engine at 4× baseline faults
//! plus controller crashes.

use std::collections::BTreeSet;
use unroller_control::HealPolicy;
use unroller_core::{CycleKey, SwitchId};
use unroller_federation::scenario::{oracle_cycles, ID_BASE};
use unroller_federation::{
    run_scenario, BusFaults, DomainController, FederationSim, ScenarioConfig,
};
use unroller_topology::{generators, DomainMap, NodeId};
use unroller_verify::FwdChecker;

const DOMAINS: usize = 4;
const NODES: usize = 24;

/// A multi-loop poisoned forwarding state on a 6×4 grid (row-major,
/// one contiguous-band domain per row): one local loop in domains 0
/// and 2, a two-domain loop over a vertical link, and a three-domain
/// rectangle-perimeter loop.
fn poisoned_oracle() -> (FwdChecker, DomainMap) {
    let graph = generators::from_spec("grid:6x4").unwrap();
    let map = DomainMap::contiguous(NODES, DOMAINS).unwrap();
    let checker = FwdChecker::from_columns(graph, |dst| {
        let mut col: Vec<Option<NodeId>> = vec![None; NODES];
        match dst {
            // Local loops inside domains 0 (row 0) and 2 (row 2).
            0 => {
                col[1] = Some(2);
                col[2] = Some(1);
                col[13] = Some(14);
                col[14] = Some(13);
            }
            // Cross loop over the vertical 5—11 link (domains 0, 1).
            1 => {
                col[5] = Some(11);
                col[11] = Some(5);
            }
            // Cross loop around the 0/1/6/7/12/13 rectangle perimeter
            // (domains 0, 1, and 2).
            2 => {
                col[0] = Some(1);
                col[1] = Some(7);
                col[7] = Some(13);
                col[13] = Some(12);
                col[12] = Some(6);
                col[6] = Some(0);
            }
            _ => {}
        }
        col
    });
    (checker, map)
}

fn controllers(map: &DomainMap) -> Vec<DomainController> {
    (0..DOMAINS as u32)
        .map(|d| {
            let mapping: Vec<(SwitchId, NodeId)> = map
                .nodes_in(d)
                .into_iter()
                .map(|node| (ID_BASE + node as u32, node))
                .collect();
            DomainController::new(d, DOMAINS, mapping, HealPolicy::default())
        })
        .collect()
}

/// Feeds every oracle cycle into the federation as data-plane reports
/// (cross loops reported by each involved domain — detection fires
/// wherever the trapped packet transits) and runs one schedule.
fn run_schedule(faults: BusFaults) -> (BTreeSet<CycleKey>, unroller_federation::FederationOutcome) {
    let (checker, map) = poisoned_oracle();
    let (cross, local) = oracle_cycles(&checker, &map);
    assert_eq!(cross.len(), 2, "fixture has two cross-domain loops");
    assert_eq!(local.len(), 2, "fixture has two local loops");

    let mut sim = FederationSim::new(controllers(&map), 64, faults);
    for (at, key) in cross.iter().chain(local.iter()).enumerate() {
        let members: Vec<SwitchId> = key.members().to_vec();
        let reporters: BTreeSet<u32> = members
            .iter()
            .filter_map(|&id| map.domain_of((id - ID_BASE) as usize))
            .collect();
        for d in reporters {
            sim.enqueue_report(d, members.clone(), (at % 6) as u64);
        }
    }
    let targets: Vec<CycleKey> = cross.iter().cloned().collect();
    let outcome = sim.run(&targets, 2_048);

    assert!(
        sim.bus.counters.conserved(sim.bus.in_flight()),
        "bus conservation under {:?}",
        sim.bus.counters
    );
    for key in &local {
        assert!(
            outcome.localized.contains(key),
            "local loops localize without the bus"
        );
    }
    (cross, outcome)
}

fn assert_invariant(cross: &BTreeSet<CycleKey>, outcome: &unroller_federation::FederationOutcome) {
    for key in cross {
        let localized = outcome.localized.contains(key);
        let reported = outcome.unresolvable.iter().any(|(k, _)| k == key);
        assert!(
            localized || reported,
            "cross-domain loop {key:?} silently dropped: {outcome:?}"
        );
    }
}

#[test]
fn fault_free_schedule_localizes_everything() {
    let (cross, outcome) = run_schedule(BusFaults::default());
    assert_invariant(&cross, &outcome);
    assert!(outcome.converged_step.is_some());
    assert!(outcome.unresolvable.is_empty());
    assert_eq!(outcome.localized.len(), 4);
}

#[test]
fn invariant_holds_across_a_grid_of_fault_schedules() {
    let specs = [
        "loss=0.1",
        "loss=0.3,dup=0.3",
        "dup=0.5,reorder=0.5",
        "reorder=0.4,delay=0.4:8",
        "loss=0.2,dup=0.2,reorder=0.2,delay=0.2:4",
        "partition=0.05:24",
        "loss=0.2,partition=0.03:16",
        "crash=0.01:32",
        "loss=0.15,dup=0.15,reorder=0.15,delay=0.15:4,partition=0.02:16,crash=0.005:24",
    ];
    let mut converged = 0usize;
    let mut total = 0usize;
    for spec in specs {
        for seed in 1..=8u64 {
            let faults = BusFaults::parse(&format!("seed={seed},{spec}")).unwrap();
            let (cross, outcome) = run_schedule(faults);
            assert_invariant(&cross, &outcome);
            total += 1;
            if outcome.converged_step.is_some() {
                converged += 1;
            }
        }
    }
    // Transient faults must not keep the federation from converging in
    // the common case; the invariant covers the rest explicitly.
    assert!(
        converged * 10 >= total * 9,
        "only {converged}/{total} schedules converged"
    );
}

#[test]
fn extreme_loss_still_reports_rather_than_drops() {
    // Half of all messages lost, frequent partitions and crashes: some
    // schedules may not converge, but nothing may vanish.
    for seed in 1..=6u64 {
        let faults = BusFaults::parse(&format!(
            "seed={seed},loss=0.5,dup=0.2,reorder=0.3,delay=0.3:6,partition=0.08:24,crash=0.01:32"
        ))
        .unwrap();
        let (cross, outcome) = run_schedule(faults);
        assert_invariant(&cross, &outcome);
    }
}

#[test]
fn unknown_switch_is_explicit_under_faults() {
    let (_, map) = poisoned_oracle();
    let faults = BusFaults::parse("seed=3,loss=0.2,dup=0.2").unwrap();
    let mut sim = FederationSim::new(controllers(&map), 64, faults);
    // Switch 999 belongs to no domain: the digest can never complete.
    sim.enqueue_report(0, vec![ID_BASE, 999], 0);
    let outcome = sim.run(&[], 512);
    assert_eq!(outcome.unresolvable.len(), 1);
    let (_, missing) = &outcome.unresolvable[0];
    assert_eq!(missing.as_slice(), &[999]);
}

#[test]
fn full_stack_chaos_at_4x_baseline_with_crashes() {
    let baseline =
        BusFaults::parse("seed=11,loss=0.05,dup=0.05,reorder=0.05,delay=0.05:4,partition=0.005:16")
            .unwrap();
    let mut faults = baseline.scaled(4.0);
    // Add controller crashes on top of the scaled plan.
    faults.crash = 0.004;
    faults.crash_len = 24;
    let cfg = ScenarioConfig {
        topology: "fat-tree:4".to_string(),
        domains: 4,
        flows: 16,
        packets: 8_000,
        shards: 2,
        seed: 11,
        faults,
        max_steps: 1_024,
    };
    let outcome = run_scenario(&cfg).expect("valid scenario");
    assert!(outcome.engine.loop_detected());
    assert!(!outcome.oracle_cross.is_empty());
    for key in &outcome.oracle_cross {
        assert!(
            outcome.federation.localized.contains(key)
                || outcome
                    .federation
                    .unresolvable
                    .iter()
                    .any(|(k, _)| k == key),
            "oracle loop dropped under chaos"
        );
    }
    assert_eq!(outcome.recall, 1.0, "{:?}", outcome.federation);
    assert!(outcome.accounted());
}
