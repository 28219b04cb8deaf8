//! The benchmark's workloads and the seeded inputs each one runs on.
//!
//! A workload fixes the topology, flow count, packet count and engine
//! configuration; the seed picks everything random about the inputs
//! (flow endpoints, the injected loop, the churn schedule). The engine
//! only ever sees the generated [`TrafficSource`].

use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use unroller_core::SwitchId;
use unroller_engine::{
    ChurnPlan, ChurnSource, Engine, EngineConfig, EnginePacket, EpochRouteTable, FlowKey,
    FullPolicy, LoopInjection, MemoConfig, ReplaySource, RouteSet, TrafficSource,
};
use unroller_sim::{NullDetector, SimConfig, Simulator};
use unroller_topology::ids::assign_sequential_ids;
use unroller_topology::{generators, NodeId};
use unroller_verify::FwdChecker;

/// Worker shards in every workload: with the dispatcher that is two
/// busy threads, which fits a 2-CPU host.
pub const SHARDS: usize = 1;
/// Packets per dispatcher burst and per worker ring pull.
pub const BATCH: usize = 64;
/// Hop budget per packet (the TTL).
pub const MAX_HOPS: u32 = 64;
/// Share of the topology whose traffic toward the poisoned destination
/// the static loop traps (about 16% of the flows to that destination,
/// 8% of all flows).
const TRAPPED_SHARE: f64 = 1.0 / 6.0;
/// Switch ID of node 0 (node `i` gets `ID_BASE + i`).
const ID_BASE: u32 = 100;

/// Control-plane churn under a workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Control-plane events per million packets.
    pub rate: u64,
    /// Links cycled through fail → re-converge → restore.
    pub links: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Topology spec (`unroller_topology::generators::from_spec`).
    pub topology: &'static str,
    /// Concurrent flows.
    pub flows: usize,
    /// Packets per engine run.
    pub packets: u64,
    /// Per-route verdict memoization on or off.
    pub memo: bool,
    /// Ring capacity (packets).
    pub ring: usize,
    /// Live control-plane churn; `None` injects one static loop at a
    /// quarter of the stream instead.
    pub churn: Option<Churn>,
    /// Independent input sets an invocation cycles through, each drawn
    /// from its own seed (see [`schedule_seed`]). One static loop or one
    /// churn schedule traps few flows, so its detection hops and latency
    /// say more about where the loop fell than about the code; averaging
    /// over several sets keeps them comparable across seeds.
    pub schedules: usize,
}

/// Seed of input set `k` of an invocation at `seed`. Set 0 is the
/// invocation seed itself.
pub fn schedule_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    let walked = Workload {
        name: "walked",
        topology: "wan:200",
        flows: 4096,
        packets: 1_000_000,
        memo: false,
        ring: 1024,
        churn: None,
        schedules: 8,
    };
    let memoized = Workload {
        name: "memoized",
        memo: true,
        ..walked.clone()
    };
    let churn = Workload {
        name: "churn",
        topology: "ring:32",
        flows: 32,
        packets: 1_000_000,
        memo: true,
        ring: 256,
        churn: Some(Churn {
            rate: 1000,
            links: 3,
        }),
        schedules: 16,
    };
    vec![walked, memoized, churn]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// A freshly built set of inputs: what the timed section runs.
pub struct Inputs {
    /// The engine, pipelines compiled.
    pub engine: Engine,
    /// The traffic, routes interned.
    pub source: Source,
    /// Switch IDs by node (`ids[node]`), as provisioned in the engine.
    pub ids: Vec<SwitchId>,
    /// Wall time spent building both (the `setup_s` sample).
    pub setup_ns: u64,
}

impl Workload {
    /// The same workload at a different packet count (self-tests run
    /// tiny instances).
    #[cfg(test)]
    pub fn with_packets(&self, packets: u64) -> Workload {
        Workload {
            packets,
            ..self.clone()
        }
    }

    /// Packet index at which the static loop appears.
    pub fn loop_at(&self) -> u64 {
        self.packets / 4
    }

    /// The engine configuration this workload runs under.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            shards: SHARDS,
            batch_size: BATCH,
            ring_capacity: self.ring,
            max_hops: MAX_HOPS,
            full_policy: FullPolicy::Block,
            memo: self.memo.then(MemoConfig::default),
            ..EngineConfig::default()
        }
    }

    /// Builds the topology and simulator, interns the routes and
    /// constructs the engine — all of it timed as one set-up sample.
    pub fn build(&self, seed: u64) -> Inputs {
        self.build_inner(seed, false).0
    }

    /// [`Workload::build`] plus the ground truth for static workloads,
    /// derived from the simulator's poisoned forwarding columns by the
    /// static checker (`FwdChecker::from_columns`) and cross-checked
    /// against the routes the source recorded. Churn workloads learn
    /// their ground truth during the run, so they return `None`.
    pub fn build_with_truth(&self, seed: u64) -> (Inputs, Option<Result<Truth, String>>) {
        self.build_inner(seed, true)
    }

    fn build_inner(&self, seed: u64, with_truth: bool) -> (Inputs, Option<Result<Truth, String>>) {
        let start = Instant::now();
        let graph = generators::from_spec(self.topology).expect("workload topology spec is valid");
        let ids = assign_sequential_ids(graph.node_count(), ID_BASE);
        let engine = Engine::new(self.engine_config(), &ids).expect("workload config is valid");
        let switch_ids = ids.clone();
        match self.churn {
            Some(churn) => {
                let plan = ChurnPlan {
                    rate: churn.rate,
                    seed,
                    links: churn.links,
                };
                let source = ChurnSource::new(graph, &plan, self.flows, self.packets);
                let inputs = Inputs {
                    engine,
                    source: Source::Churn(Box::new(source)),
                    ids: switch_ids,
                    setup_ns: start.elapsed().as_nanos() as u64,
                };
                (inputs, None)
            }
            None => {
                let mut sim = Simulator::new(graph, ids, NullDetector, SimConfig::default());
                let injection = pick_injection(&sim, seed, self.loop_at());
                let replay = ReplaySource::from_sim(
                    &mut sim,
                    self.flows,
                    self.packets,
                    Some(&injection),
                    seed,
                );
                let source = StaticSource::new(replay, self.loop_at());
                let setup_ns = start.elapsed().as_nanos() as u64;
                let truth = with_truth.then(|| static_truth(&sim, &source));
                let inputs = Inputs {
                    engine,
                    source: Source::Static(source),
                    ids: switch_ids,
                    setup_ns,
                };
                (inputs, truth)
            }
        }
    }
}

/// Ground truth: the flows that loop.
pub type Truth = BTreeSet<FlowKey>;

/// Picks the seeded static loop. A random destination's shortest-path
/// tree is searched for the switch `v` whose subtree (the sources that
/// reach the destination through it) is closest to [`TRAPPED_SHARE`]
/// of the topology; poisoning `v` and a random child `u` into `u ↔ v`
/// traps every flow toward the destination from that subtree. Holding
/// the trapped share steady keeps the loop-event load — and so the
/// aggregator's share of the CPU — comparable across seeds.
fn pick_injection(sim: &Simulator<NullDetector>, seed: u64, at_packet: u64) -> LoopInjection {
    let graph = sim.graph();
    let n = graph.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6c6f6f70);
    let dst = rng.gen_range(0..n);
    let column = sim.forwarding(dst);
    let mut subtree = vec![0usize; n];
    for src in (0..n).filter(|&s| s != dst) {
        let mut cur = src;
        for _ in 0..n {
            subtree[cur] += 1;
            match column[cur] {
                Some(next) if next != dst => cur = next,
                _ => break,
            }
        }
    }
    let children = |v: NodeId| -> Vec<NodeId> {
        (0..n)
            .filter(|&u| u != dst && column[u] == Some(v))
            .collect()
    };
    let target = (n as f64 * TRAPPED_SHARE) as usize;
    let distance = |v: NodeId| subtree[v].abs_diff(target);
    let candidates: Vec<NodeId> = (0..n)
        .filter(|&v| v != dst && !children(v).is_empty())
        .collect();
    let best = candidates
        .iter()
        .map(|&v| distance(v))
        .min()
        .expect("a connected topology of three or more nodes has a two-hop path");
    let closest: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&v| distance(v) == best)
        .collect();
    let v = closest[rng.gen_range(0..closest.len())];
    let kids = children(v);
    let u = kids[rng.gen_range(0..kids.len())];
    LoopInjection {
        cycle: vec![u, v],
        dst,
        at_packet,
    }
}

/// Derives the looping flows from the simulator's installed
/// (post-injection) forwarding columns with the static checker, and
/// requires them to equal the flows whose recorded routes loop.
fn static_truth(sim: &Simulator<NullDetector>, source: &StaticSource) -> Result<Truth, String> {
    let keys = source.inner.flow_keys();
    let endpoints: Vec<(NodeId, NodeId)> = keys
        .iter()
        .map(|k| {
            let (s, d) = k.synthetic_endpoints();
            (s as NodeId, d as NodeId)
        })
        .collect();
    let mut checker =
        FwdChecker::from_columns(sim.graph().clone(), |dst| sim.forwarding(dst).to_vec());
    checker.register_flows(endpoints.clone());
    let oracle: Truth = keys
        .iter()
        .zip(&endpoints)
        .filter(|&(_, &(s, d))| checker.flow_trapped(s, d))
        .map(|(k, _)| *k)
        .collect();
    let recorded: Truth = source.inner.looping_flow_keys().into_iter().collect();
    if oracle != recorded {
        return Err(format!(
            "static checker finds {} looping flows, recorded routes {}",
            oracle.len(),
            recorded.len()
        ));
    }
    if oracle.is_empty() {
        return Err("the injected loop traps no flow".to_string());
    }
    Ok(oracle)
}

/// A workload's traffic source.
pub enum Source {
    /// Simulator-routed replay with one static loop.
    Static(StaticSource),
    /// Live distance-vector churn.
    Churn(Box<ChurnSource>),
}

impl Source {
    /// The epoch table the engine reads routes from.
    pub fn table(&self) -> Arc<EpochRouteTable> {
        self.route_table()
            .expect("every workload source publishes into its own epoch table")
    }

    /// The looping flows this run's traffic contained, once the source
    /// is drained. Static traffic loops exactly where the pre-run
    /// `static_truth` says; churn traffic loops wherever the live
    /// checker saw a flow trapped, provided that checker still agrees
    /// with the control plane's authoritative columns.
    pub fn truth_after_run(&self, static_truth: Option<&Truth>) -> Result<Truth, String> {
        match self {
            Source::Static(_) => static_truth
                .cloned()
                .ok_or_else(|| "static workload without ground truth".to_string()),
            Source::Churn(s) => {
                s.oracle_check()
                    .map_err(|e| format!("live oracle diverged from the control plane: {e}"))?;
                let truth: Truth = s.looping_flow_keys().into_iter().collect();
                if truth.is_empty() {
                    return Err("churn trapped no flow".to_string());
                }
                Ok(truth)
            }
        }
    }
}

impl TrafficSource for Source {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        match self {
            Source::Static(s) => s.fill(max, out),
            Source::Churn(s) => s.fill(max, out),
        }
    }

    fn routes(&self) -> Arc<RouteSet> {
        match self {
            Source::Static(s) => s.routes(),
            Source::Churn(s) => s.routes(),
        }
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        match self {
            Source::Static(s) => s.route_table(),
            Source::Churn(s) => s.route_table(),
        }
    }
}

/// The static replay with an injection clock, so static workloads
/// report detection latency on the same footing as churn.
///
/// The engine times detection from a route-generation publish. This
/// source publishes its (unchanged) route set as generation 2 on the
/// first fill, before any packet exists — the worker's per-route caches
/// are still empty then, so every outcome count stays deterministic —
/// and notes on the table's clock when the first poisoned packet
/// (index `loop_at`) leaves the source. Loop injection → first loop
/// event is then the engine's one latency sample minus the gap between
/// the publish and the injection.
pub struct StaticSource {
    inner: ReplaySource,
    table: Arc<EpochRouteTable>,
    loop_at: u64,
    emitted: u64,
    injected_ns: Option<u64>,
}

impl StaticSource {
    fn new(inner: ReplaySource, loop_at: u64) -> StaticSource {
        StaticSource {
            table: Arc::new(EpochRouteTable::new(inner.routes())),
            inner,
            loop_at,
            emitted: 0,
            injected_ns: None,
        }
    }

    /// Loop injection → first loop event (ns), from the engine's single
    /// latency sample `sample_ns` (publish → first loop event).
    pub fn injection_latency_ns(&self, sample_ns: u64) -> Option<u64> {
        let published = self.table.publish_ns(2)?;
        let injected = self.injected_ns?;
        (sample_ns + published).checked_sub(injected)
    }
}

impl TrafficSource for StaticSource {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        if self.emitted == 0 && self.table.generation() == 1 {
            self.table.publish(self.inner.routes());
        }
        // End a burst exactly at the injection point so the clock is
        // read when the first poisoned packet is produced.
        let max = if self.emitted < self.loop_at {
            max.min((self.loop_at - self.emitted) as usize)
        } else {
            if self.injected_ns.is_none() {
                self.injected_ns = Some(self.table.now_ns());
            }
            max
        };
        let produced = self.inner.fill(max, out);
        self.emitted += produced as u64;
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.inner.routes()
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        Some(self.table.clone())
    }
}
