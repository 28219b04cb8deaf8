//! End-to-end federated runs: topology → engine detection →
//! per-domain event routing → digest federation → oracle recall.
//!
//! One scenario builds a topology, partitions it into domains, injects
//! a cross-domain forwarding cycle, pushes simulator-routed traffic
//! through the sharded engine, routes each deduplicated loop event to
//! the domain owning its trigger switch
//! ([`unroller_engine::DomainRouter`]), and runs the
//! [`FederationSim`] under a [`BusFaults`] plan. Ground truth comes
//! from the `verify::fwdcheck` forwarding oracle snapshotted on the
//! poisoned routing state: the scenario's **recall** is the fraction
//! of the oracle's cross-domain cycles that some controller localized.

use crate::bus::BusFaults;
use crate::controller::DomainController;
use crate::digest::DomainId;
use crate::sim::{FederationOutcome, FederationSim};
use std::collections::BTreeSet;
use std::fmt;
use unroller_control::HealPolicy;
use unroller_core::{CycleKey, SwitchId};
use unroller_engine::{
    DomainRouter, Engine, EngineConfig, EngineError, EngineReport, FullPolicy, LoopInjection,
    ReplaySource,
};
use unroller_sim::{NullDetector, SimConfig, Simulator};
use unroller_topology::{generators, DomainMap, Graph, NodeId};
use unroller_verify::FwdChecker;

/// Base of the sequential switch-ID assignment (`ids[node] = ID_BASE +
/// node`), matching the engine binary's convention.
pub const ID_BASE: u32 = 100;

/// One federated run's configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Topology spec (`fat-tree:4`, `grid:8x8`, `ring:32`, ...).
    pub topology: String,
    /// Number of administrative domains.
    pub domains: usize,
    /// Concurrent flows.
    pub flows: usize,
    /// Total packets offered.
    pub packets: u64,
    /// Engine worker shards.
    pub shards: usize,
    /// Traffic / injection seed.
    pub seed: u64,
    /// Bus/controller fault plan.
    pub faults: BusFaults,
    /// Federation step budget.
    pub max_steps: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            topology: "fat-tree:4".to_string(),
            domains: 4,
            flows: 32,
            packets: 20_000,
            shards: 2,
            seed: 7,
            faults: BusFaults::default(),
            max_steps: 512,
        }
    }
}

/// Why a scenario could not run: a configuration the topology, the
/// partition or the engine refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The topology spec names no known generator (or too few nodes).
    UnknownTopology(String),
    /// The topology's nodes cannot be split into that many domains.
    Partition {
        /// Nodes in the topology.
        nodes: usize,
        /// Domains asked for.
        domains: usize,
    },
    /// No cross-domain cycle to inject: no edge joins two domains (a
    /// single domain), or no destination lies off the edge.
    NoCrossDomainCycle,
    /// A scenario needs at least one flow.
    NoFlows,
    /// The engine refused its configuration or its run failed.
    Engine(EngineError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownTopology(spec) => write!(f, "unknown topology spec: {spec}"),
            ScenarioError::Partition { nodes, domains } => {
                write!(f, "cannot split {nodes} nodes into {domains} domains")
            }
            ScenarioError::NoCrossDomainCycle => {
                write!(f, "the partition leaves no cross-domain cycle to inject")
            }
            ScenarioError::NoFlows => write!(f, "at least one flow required"),
            ScenarioError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Node count of the generated topology.
    pub nodes: usize,
    /// The injected cross-domain cycle (topology nodes).
    pub injected_cycle: Vec<NodeId>,
    /// The engine's run report (detection layer).
    pub engine: EngineReport,
    /// Oracle cross-domain cycle keys (ground truth to localize).
    pub oracle_cross: BTreeSet<CycleKey>,
    /// Oracle single-domain cycle keys.
    pub oracle_local: BTreeSet<CycleKey>,
    /// Loop events routed per domain.
    pub routed_events: Vec<u64>,
    /// Events whose trigger belonged to no domain.
    pub unroutable_events: u64,
    /// The federation run's outcome.
    pub federation: FederationOutcome,
    /// Cross-domain localization recall against the oracle.
    pub recall: f64,
    /// Per-controller stats snapshots, by domain.
    pub controllers: Vec<crate::controller::ControllerStats>,
    /// Bus accounting.
    pub bus: crate::bus::BusCounters,
    /// Messages still queued when the run stopped.
    pub bus_in_flight: u64,
}

impl ScenarioOutcome {
    /// The accounting identities the run broke, by name: the engine
    /// report's three (`accounted`, `events_accounted`,
    /// `outcomes_accounted`) and bus message conservation
    /// (`bus_conserved`).
    pub fn broken_identities(&self) -> Vec<&'static str> {
        [
            ("accounted", self.engine.accounted()),
            ("events_accounted", self.engine.events_accounted()),
            ("outcomes_accounted", self.engine.outcomes_accounted()),
            ("bus_conserved", self.bus.conserved(self.bus_in_flight)),
        ]
        .into_iter()
        .filter_map(|(name, holds)| (!holds).then_some(name))
        .collect()
    }

    /// Whether every accounting identity held.
    pub fn accounted(&self) -> bool {
        self.broken_identities().is_empty()
    }
}

/// Finds a cross-domain edge to poison: the first graph edge whose
/// endpoints live in different domains, with a destination off the
/// cycle (preferring one in yet another domain so traffic transits the
/// boundary).
fn pick_cross_domain_cycle(graph: &Graph, map: &DomainMap) -> Option<(Vec<NodeId>, NodeId)> {
    for (u, v) in graph.edges() {
        if map.domain_of(u) == map.domain_of(v) {
            continue;
        }
        let dst = graph
            .nodes()
            .find(|&n| n != u && n != v && map.domain_of(n) != map.domain_of(u))
            .or_else(|| graph.nodes().find(|&n| n != u && n != v))?;
        return Some((vec![u, v], dst));
    }
    None
}

/// Extracts every distinct forwarding cycle from the oracle's columns,
/// split into (cross-domain, single-domain) canonical keys over switch
/// IDs.
pub fn oracle_cycles(
    checker: &FwdChecker,
    map: &DomainMap,
) -> (BTreeSet<CycleKey>, BTreeSet<CycleKey>) {
    let mut cross = BTreeSet::new();
    let mut local = BTreeSet::new();
    let n = checker.graph().node_count();
    for dst in 0..n {
        if !checker.has_loop(dst) {
            continue;
        }
        let succ = checker.succ_column(dst);
        let mut assigned = vec![false; n];
        for start in checker.looping_nodes(dst) {
            if assigned[start] {
                continue;
            }
            // Walk until a node repeats; the tail from its first
            // occurrence is the cycle.
            let mut path: Vec<NodeId> = Vec::new();
            let mut seen = vec![usize::MAX; n];
            let mut at = start;
            let cycle = loop {
                if seen[at] != usize::MAX {
                    break path[seen[at]..].to_vec();
                }
                seen[at] = path.len();
                path.push(at);
                match succ[at] {
                    Some(next) => at = next,
                    None => break Vec::new(),
                }
            };
            if cycle.len() < 2 {
                continue;
            }
            for &node in &cycle {
                assigned[node] = true;
            }
            let ids: Vec<SwitchId> = cycle.iter().map(|&node| ID_BASE + node as u32).collect();
            let key = CycleKey::canonicalize(&ids);
            if map.is_cross_domain(&cycle) {
                cross.insert(key);
            } else {
                local.insert(key);
            }
        }
    }
    (cross, local)
}

/// Runs one full scenario; a typed error for a configuration it cannot
/// run (contiguous bands of two or more domains over a connected graph
/// always have a cross-domain edge).
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<ScenarioOutcome, ScenarioError> {
    let graph = generators::from_spec(&cfg.topology)
        .ok_or_else(|| ScenarioError::UnknownTopology(cfg.topology.clone()))?;
    let n = graph.node_count();
    let map = DomainMap::contiguous(n, cfg.domains).ok_or(ScenarioError::Partition {
        nodes: n,
        domains: cfg.domains,
    })?;
    if cfg.flows == 0 {
        return Err(ScenarioError::NoFlows);
    }
    let ids: Vec<SwitchId> = (0..n as u32).map(|i| ID_BASE + i).collect();
    let engine = Engine::new(
        EngineConfig {
            shards: cfg.shards,
            full_policy: FullPolicy::Block,
            ..EngineConfig::default()
        },
        &ids,
    )
    .map_err(ScenarioError::Engine)?;

    // Poison a cross-domain edge and route traffic over the poisoned
    // tables.
    let (cycle, dst) =
        pick_cross_domain_cycle(&graph, &map).ok_or(ScenarioError::NoCrossDomainCycle)?;
    let injection = LoopInjection {
        cycle: cycle.clone(),
        dst,
        at_packet: cfg.packets / 8,
    };
    let mut sim = Simulator::new(
        graph.clone(),
        ids.clone(),
        NullDetector,
        SimConfig::default(),
    );
    let mut source =
        ReplaySource::from_sim(&mut sim, cfg.flows, cfg.packets, Some(&injection), cfg.seed);

    // Oracle ground truth from the poisoned forwarding state
    // (`from_sim` leaves the poisoned tables installed).
    let checker = FwdChecker::from_columns(graph.clone(), |d| sim.forwarding(d).to_vec());
    let (oracle_cross, oracle_local) = oracle_cycles(&checker, &map);

    // Detection: the sharded engine over the replayed traffic.
    let report = engine.run(&mut source).map_err(ScenarioError::Engine)?;

    // Route each deduplicated event to the domain owning its trigger.
    let router_map = map.clone();
    let mut router = DomainRouter::new(cfg.domains, move |id| {
        let node = id.checked_sub(ID_BASE)? as usize;
        router_map.domain_of(node)
    });
    unroller_engine::aggregate::deliver(&report.aggregator.events, &mut router);
    let routed_events: Vec<u64> = router.buckets.iter().map(|b| b.len() as u64).collect();

    // Federate: one controller per domain, events staggered over the
    // first steps (detection is a stream, not a batch).
    let controllers: Vec<DomainController> = (0..cfg.domains as DomainId)
        .map(|d| {
            let mapping: Vec<(SwitchId, NodeId)> = map
                .nodes_in(d)
                .into_iter()
                .map(|node| (ID_BASE + node as u32, node))
                .collect();
            DomainController::new(d, cfg.domains, mapping, HealPolicy::default())
        })
        .collect();
    let mut fed = FederationSim::new(controllers, 256, cfg.faults.clone());
    for (d, bucket) in router.buckets.iter().enumerate() {
        for (i, event) in bucket.iter().enumerate() {
            if event.complete {
                fed.enqueue_report(d as DomainId, event.members.clone(), (i % 8) as u64);
            }
        }
    }
    let targets: Vec<CycleKey> = oracle_cross.iter().cloned().collect();
    let federation = fed.run(&targets, cfg.max_steps);

    let recall = if oracle_cross.is_empty() {
        1.0
    } else {
        let hit = oracle_cross
            .iter()
            .filter(|k| federation.localized.contains(*k))
            .count();
        hit as f64 / oracle_cross.len() as f64
    };

    Ok(ScenarioOutcome {
        nodes: n,
        injected_cycle: cycle,
        engine: report,
        oracle_cross,
        oracle_local,
        routed_events,
        unroutable_events: router.unroutable,
        federation,
        recall,
        controllers: fed.controllers.iter().map(|c| c.stats).collect(),
        bus: fed.bus.counters,
        bus_in_flight: fed.bus.in_flight(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_scenario_localizes_the_injected_loop() {
        let cfg = ScenarioConfig {
            packets: 8_000,
            flows: 16,
            ..ScenarioConfig::default()
        };
        let outcome = run_scenario(&cfg).expect("valid scenario");
        assert!(outcome.engine.loop_detected(), "traffic hit the loop");
        assert!(!outcome.oracle_cross.is_empty(), "oracle sees the cycle");
        assert_eq!(outcome.recall, 1.0, "{:?}", outcome.federation);
        assert!(outcome.accounted());
        assert!(outcome.federation.converged_step.is_some());
        assert_eq!(outcome.unroutable_events, 0);
    }

    #[test]
    fn chaos_scenario_still_reaches_full_recall() {
        let cfg = ScenarioConfig {
            packets: 8_000,
            flows: 16,
            faults: BusFaults::parse(
                "seed=13,loss=0.2,dup=0.2,reorder=0.2,delay=0.2:4,partition=0.01:16,crash=0.004:24",
            )
            .unwrap(),
            ..ScenarioConfig::default()
        };
        let outcome = run_scenario(&cfg).expect("valid scenario");
        assert_eq!(outcome.recall, 1.0, "{:?}", outcome.federation);
        assert!(outcome.accounted(), "conservation under chaos");
    }

    #[test]
    fn a_broken_engine_identity_fails_the_scenario() {
        let cfg = ScenarioConfig {
            packets: 2_000,
            flows: 8,
            ..ScenarioConfig::default()
        };
        let mut outcome = run_scenario(&cfg).expect("valid scenario");
        assert!(outcome.accounted());
        outcome.engine.shard_snapshots[0].delivered += 1;
        assert!(!outcome.accounted(), "a per-shard outcome went missing");
        assert_eq!(outcome.broken_identities(), ["outcomes_accounted"]);
        outcome.engine.shard_snapshots[0].delivered -= 1;
        outcome.engine.shard_snapshots[0].events_sent += 1;
        assert_eq!(outcome.broken_identities(), ["events_accounted"]);
    }

    #[test]
    fn oracle_cycle_extraction_classifies_cross_vs_local() {
        // Hand-built columns on a 8-node ring, 2 domains of 4:
        // nodes 1↔2 loop (local to domain 0), nodes 3↔4 loop (cross).
        let g = generators::from_spec("ring:8").unwrap();
        let map = DomainMap::contiguous(8, 2).unwrap();
        let checker = FwdChecker::from_columns(g.clone(), |dst| {
            let mut col: Vec<Option<NodeId>> = vec![None; 8];
            if dst == 0 {
                col[1] = Some(2);
                col[2] = Some(1);
                col[3] = Some(4);
                col[4] = Some(3);
            }
            col
        });
        let (cross, local) = oracle_cycles(&checker, &map);
        assert_eq!(local.len(), 1);
        assert_eq!(cross.len(), 1);
        assert!(local.contains(&CycleKey::canonicalize(&[101, 102])));
        assert!(cross.contains(&CycleKey::canonicalize(&[103, 104])));
    }
}
