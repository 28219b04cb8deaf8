//! Live route churn: a traffic source that replays distance-vector
//! convergence *while the engine is processing its packets*.
//!
//! [`ChurnSource`] owns a [`DistanceVector`] process over the run's
//! topology and a schedule of seeded link failures. Every `interval`
//! packets it advances the control plane by one event — fail a link,
//! run one synchronous DV exchange round, or restore the link — and
//! publishes the resulting routes as a new [`RouteSet`] generation
//! through the shared [`EpochRouteTable`]. Workers pick the swap up at
//! their next batch boundary, so the count-to-infinity micro-loops the
//! DV process forms (and later heals) exist *in the data plane* exactly
//! as long as the control plane takes to converge — the live-churn
//! scenario the detect-don't-prevent argument is about.
//!
//! An event costs what its rule changes touched. Only the flows toward
//! a destination some [`RuleDelta`] names are re-walked, straight off
//! the DV next-hop table, and a walk that matches the flow's current
//! route allocates nothing. The route set is rebuilt only when some
//! slot changed; otherwise the same `Arc` is published again. Either
//! way every event that emitted deltas publishes exactly one
//! generation. The source times each event in two parts: the DV step
//! (the simulated control plane, [`ChurnSource::dv_round_ns`]) and the
//! update, from the deltas to a published generation
//! ([`ChurnSource::update_publish_ns`]).
//!
//! Every [`RuleDelta`] the DV process emits is simultaneously fed to an
//! incremental [`FwdChecker`] mirror, which classifies each flow after
//! every event. A flow that was ever trapped in a forwarding cycle
//! lands in the ground-truth set behind
//! [`ChurnSource::looping_flow_keys`] — the live oracle recall is
//! scored against.
//!
//! Route identity is positional: flow `i` always resolves through slot
//! `i` of whatever generation is current (see
//! [`RouteSet::from_specs`]), so a published swap retargets in-flight
//! packets without touching them.

use crate::epoch::EpochRouteTable;
use crate::flow::FlowKey;
use crate::metrics::HistogramSnapshot;
use crate::packet::{EnginePacket, PathSpec};
use crate::route::{RouteId, RouteSet};
use crate::source::TrafficSource;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use unroller_control::{DistanceVector, RuleDelta};
use unroller_topology::{Graph, NodeId};
use unroller_verify::FwdChecker;

/// A parse error for a `--churn` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSpecError(pub String);

impl fmt::Display for ChurnSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad churn spec: {}", self.0)
    }
}

impl std::error::Error for ChurnSpecError {}

/// Configuration for an update storm, parsed from a `--churn`
/// `k=v,k=v` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Control-plane events per million offered packets. Each event is
    /// one link failure, one DV exchange round, or one link restore;
    /// `rate=100` advances the control plane every 10 000 packets.
    pub rate: u64,
    /// Seed for the link-failure schedule and flow endpoints.
    pub seed: u64,
    /// Distinct links cycled through fail → collapse → restore → heal
    /// (capped at the topology's edge count).
    pub links: usize,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan {
            rate: 100,
            seed: 1,
            links: 4,
        }
    }
}

impl ChurnPlan {
    /// Parses a comma-separated `k=v` spec: `rate=N` (events per
    /// million packets, ≥ 1), `seed=N`, `links=N` (≥ 1). Example:
    /// `rate=400,seed=7,links=2`.
    pub fn parse(spec: &str) -> Result<ChurnPlan, ChurnSpecError> {
        let mut plan = ChurnPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ChurnSpecError(format!("`{part}` is not k=v")))?;
            let num = |what: &str| -> Result<u64, ChurnSpecError> {
                value
                    .parse::<u64>()
                    .map_err(|_| ChurnSpecError(format!("`{value}` is not a valid {what}")))
            };
            match key {
                "rate" => plan.rate = num("rate")?,
                "seed" => plan.seed = num("seed")?,
                "links" => plan.links = num("links")? as usize,
                other => return Err(ChurnSpecError(format!("unknown key `{other}`"))),
            }
        }
        if plan.rate == 0 {
            return Err(ChurnSpecError("rate must be >= 1".to_string()));
        }
        if plan.links == 0 {
            return Err(ChurnSpecError("links must be >= 1".to_string()));
        }
        Ok(plan)
    }

    /// Packets between control-plane events at this rate.
    pub fn interval(&self) -> u64 {
        (1_000_000 / self.rate).max(1)
    }

    /// The plan as a JSON object (for run reports).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut obj = Json::object();
        obj.set("rate", Json::UInt(self.rate));
        obj.set("seed", Json::UInt(self.seed));
        obj.set("links", Json::UInt(self.links as u64));
        obj.set("interval_packets", Json::UInt(self.interval()));
        obj
    }
}

/// Where the churn state machine is between events.
enum Phase {
    /// Fail the next scheduled link (RIP's local triggered update).
    Fail,
    /// The network is re-converging around the failure; step until
    /// quiescent, then restore the link.
    Collapsing,
    /// The link is back; step until the original routes return.
    Healing,
}

/// Reusable state for walking a flow's route off the DV next-hop
/// table: epoch-stamped visit marks and one path buffer, so a walk
/// allocates nothing.
#[derive(Debug, Default)]
struct Walker {
    /// `visited[node] == epoch`: `node` is on the current walk.
    visited: Vec<u64>,
    epoch: u64,
    path: Vec<NodeId>,
}

impl Walker {
    /// Walks `dv`'s next hops from `src` toward `dst` into the path
    /// buffer: to `dst` (a linear route), to a withdrawn entry (a
    /// partial linear route: the packet strands mid-network), or to a
    /// revisited node, whose first position the walk returns as the
    /// start of the cycle.
    fn walk(&mut self, dv: &DistanceVector, src: NodeId, dst: NodeId) -> Option<usize> {
        self.epoch += 1;
        self.visited.resize(dv.graph().node_count(), 0);
        self.path.clear();
        self.path.push(src);
        self.visited[src] = self.epoch;
        let mut cur = src;
        while cur != dst {
            let next = dv.next_hop(cur, dst)?;
            if self.visited[next] == self.epoch {
                return self.path.iter().position(|&w| w == next);
            }
            self.visited[next] = self.epoch;
            self.path.push(next);
            cur = next;
        }
        None
    }

    /// Whether the last walk, whose cycle starts at `cycle_at`, is
    /// `spec`.
    fn matches(&self, cycle_at: Option<usize>, spec: &PathSpec) -> bool {
        let (pre, cycle) = self.path.split_at(cycle_at.unwrap_or(self.path.len()));
        *spec.pre == *pre && *spec.cycle == *cycle
    }

    /// The last walk, whose cycle starts at `cycle_at`, as a route.
    fn spec(&self, cycle_at: Option<usize>) -> PathSpec {
        match cycle_at {
            None => PathSpec::linear(self.path.clone()),
            Some(at) => PathSpec::looping(self.path[..at].to_vec(), self.path[at..].to_vec()),
        }
    }
}

/// A traffic source that streams flow packets round-robin while a
/// distance-vector control plane churns underneath them (see the
/// module docs). Implements [`TrafficSource`]; hand its
/// [`route_table`](TrafficSource::route_table) to the engine and every
/// published generation reaches the workers mid-run.
pub struct ChurnSource {
    dv: DistanceVector,
    checker: FwdChecker,
    table: Arc<EpochRouteTable>,
    /// Flow endpoints, indexed by flow = route slot.
    endpoints: Vec<(NodeId, NodeId)>,
    /// `by_dst[dst]`: the flows toward `dst`.
    by_dst: Vec<Vec<usize>>,
    /// Each flow's route in the current generation, by slot.
    specs: Vec<PathSpec>,
    walker: Walker,
    /// Event scratch: the deltas, then the destinations they name.
    deltas: Vec<RuleDelta>,
    touched: Vec<NodeId>,
    keys: Vec<FlowKey>,
    seqs: Vec<u64>,
    /// Links cycled through failure, in schedule order.
    schedule: Vec<(NodeId, NodeId)>,
    next_link: usize,
    active_link: (NodeId, NodeId),
    phase: Phase,
    /// Flow indices the live oracle ever saw trapped in a cycle.
    trapped: BTreeSet<usize>,
    /// `(generation, deltas folded into it)` per published swap.
    generation_log: Vec<(u64, usize)>,
    interval: u64,
    next_event: u64,
    emitted: u64,
    total: u64,
    next_flow: usize,
    rules_applied: u64,
    links_failed: u64,
    routes_changed: u64,
    dv_round_ns: HistogramSnapshot,
    update_publish_ns: HistogramSnapshot,
}

impl ChurnSource {
    /// Builds the source: converges a DV process over `graph`, draws
    /// `flows` seeded endpoint pairs, snapshots the checker mirror, and
    /// publishes generation 1 of the epoch table. Split horizon is
    /// *off* — the whole point is the count-to-infinity bounce.
    pub fn new(graph: Graph, plan: &ChurnPlan, flows: usize, total: u64) -> Self {
        let n = graph.node_count();
        assert!(n >= 3, "churn needs at least three nodes");
        assert!(flows >= 1, "at least one flow");
        let edges = graph.edges();
        assert!(!edges.is_empty(), "churn needs links to fail");

        let mut rng = rand::rngs::StdRng::seed_from_u64(plan.seed ^ 0x6368726e);
        let endpoints: Vec<(NodeId, NodeId)> = (0..flows)
            .map(|_| {
                let dst = rng.gen_range(0..n);
                let src = loop {
                    let s = rng.gen_range(0..n);
                    if s != dst {
                        break s;
                    }
                };
                (src, dst)
            })
            .collect();
        let keys = endpoints
            .iter()
            .enumerate()
            .map(|(f, &(src, dst))| FlowKey::synthetic(src as u32, dst as u32, f as u32))
            .collect();
        let mut by_dst = vec![Vec::new(); n];
        for (f, &(_, dst)) in endpoints.iter().enumerate() {
            by_dst[dst].push(f);
        }

        let mut schedule = edges;
        schedule.shuffle(&mut rng);
        schedule.truncate(plan.links.min(schedule.len()));

        let dv = DistanceVector::new(graph, false);
        let mut checker = FwdChecker::from_dv(&dv);
        checker.register_flows(endpoints.clone());

        // Generation 1: every flow walked from the converged table,
        // one slot per flow.
        let mut walker = Walker::default();
        let specs: Vec<PathSpec> = endpoints
            .iter()
            .map(|&(src, dst)| {
                let cycle_at = walker.walk(&dv, src, dst);
                walker.spec(cycle_at)
            })
            .collect();
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(specs.iter())));

        ChurnSource {
            table,
            dv,
            checker,
            endpoints,
            by_dst,
            specs,
            walker,
            deltas: Vec::new(),
            touched: Vec::new(),
            keys,
            seqs: vec![0; flows],
            active_link: schedule[0],
            schedule,
            next_link: 0,
            phase: Phase::Fail,
            trapped: BTreeSet::new(),
            generation_log: Vec::new(),
            interval: plan.interval(),
            next_event: plan.interval(),
            emitted: 0,
            total,
            next_flow: 0,
            rules_applied: 0,
            links_failed: 0,
            routes_changed: 0,
            dv_round_ns: HistogramSnapshot::default(),
            update_publish_ns: HistogramSnapshot::default(),
        }
    }

    /// Advances the control plane by one event. Any emitted deltas are
    /// mirrored into the checker, folded into one published route
    /// generation, and followed by a trapped-flow scan.
    fn advance(&mut self) {
        let start = Instant::now();
        self.deltas.clear();
        match self.phase {
            Phase::Fail => {
                let (u, v) = self.schedule[self.next_link];
                self.next_link = (self.next_link + 1) % self.schedule.len();
                self.active_link = (u, v);
                self.dv.fail_link_record(u, v, |d| self.deltas.push(d));
                self.links_failed += 1;
                self.phase = Phase::Collapsing;
            }
            Phase::Collapsing => {
                if !self.dv.step_record(|d| self.deltas.push(d)) {
                    let (u, v) = self.active_link;
                    self.dv.restore_link(u, v);
                    self.phase = Phase::Healing;
                }
            }
            Phase::Healing => {
                if !self.dv.step_record(|d| self.deltas.push(d)) {
                    self.phase = Phase::Fail;
                }
            }
        }
        let update_start = Instant::now();
        self.dv_round_ns
            .record((update_start - start).as_nanos() as u64);
        if !self.deltas.is_empty() {
            self.update(update_start);
        }
    }

    /// Folds the event's deltas into the next generation: mirrors them
    /// into the checker, re-walks the flows toward every destination
    /// they name, and publishes the result.
    fn update(&mut self, update_start: Instant) {
        self.touched.clear();
        for delta in &self.deltas {
            self.checker.apply(delta);
            self.touched.push(delta.dst);
        }
        self.rules_applied += self.deltas.len() as u64;
        self.touched.sort_unstable();
        self.touched.dedup();
        let changed = self.rewalk_touched();
        self.routes_changed += changed;
        let routes = if changed > 0 {
            RouteSet::from_specs(self.specs.iter())
        } else {
            self.table.current()
        };
        let generation = self.table.publish(routes);
        self.update_publish_ns
            .record(update_start.elapsed().as_nanos() as u64);
        self.generation_log.push((generation, self.deltas.len()));
        for (f, &(src, dst)) in self.endpoints.iter().enumerate() {
            if self.checker.flow_trapped(src, dst) {
                self.trapped.insert(f);
            }
        }
    }

    /// Re-walks every flow toward a touched destination and replaces
    /// each route the walk no longer matches. Returns how many slots
    /// changed.
    fn rewalk_touched(&mut self) -> u64 {
        let mut changed = 0;
        for &dst in &self.touched {
            for &f in &self.by_dst[dst] {
                let cycle_at = self.walker.walk(&self.dv, self.endpoints[f].0, dst);
                if !self.walker.matches(cycle_at, &self.specs[f]) {
                    self.specs[f] = self.walker.spec(cycle_at);
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The shared epoch table the engine's workers should read from.
    pub fn table(&self) -> Arc<EpochRouteTable> {
        self.table.clone()
    }

    /// Every flow's key, in flow (= route slot) order.
    pub fn flow_keys(&self) -> Vec<FlowKey> {
        self.keys.clone()
    }

    /// Ground truth for recall: the flows the live checker oracle ever
    /// saw trapped in a forwarding cycle, in flow order.
    pub fn looping_flow_keys(&self) -> Vec<FlowKey> {
        self.trapped.iter().map(|&f| self.keys[f]).collect()
    }

    /// `(generation, deltas folded into it)` per published swap.
    pub fn generation_log(&self) -> &[(u64, usize)] {
        &self.generation_log
    }

    /// Generations published after traffic started (excludes the
    /// initial snapshot).
    pub fn generations_published(&self) -> u64 {
        self.generation_log.len() as u64
    }

    /// Forwarding-rule deltas the control plane emitted so far.
    pub fn rules_applied(&self) -> u64 {
        self.rules_applied
    }

    /// Link failures injected so far.
    pub fn links_failed(&self) -> u64 {
        self.links_failed
    }

    /// Route slots whose route differed from the previous published
    /// generation, summed over the generations published so far.
    pub fn routes_changed(&self) -> u64 {
        self.routes_changed
    }

    /// Nanoseconds per control event spent in the DV step: the
    /// simulated control plane.
    pub fn dv_round_ns(&self) -> HistogramSnapshot {
        self.dv_round_ns.clone()
    }

    /// Nanoseconds per published generation from the event's deltas
    /// to a generation the workers can see: checker apply, re-walk,
    /// route-set build and publish.
    pub fn update_publish_ns(&self) -> HistogramSnapshot {
        self.update_publish_ns.clone()
    }

    /// Packets between control-plane events.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The live oracle mirror (for stats like imperiled flows).
    pub fn checker(&self) -> &FwdChecker {
        &self.checker
    }

    /// Cross-checks the incremental oracle against the authoritative DV
    /// columns — `Err` names the first divergent destination. The CLI
    /// runs this after every churn run; a failure would mean the delta
    /// stream missed a rule change.
    pub fn oracle_check(&self) -> Result<(), String> {
        for dst in 0..self.dv.graph().node_count() {
            self.checker
                .check_column(dst, &self.dv.forwarding(dst))
                .map_err(|e| format!("dst {dst}: {e}"))?;
        }
        Ok(())
    }
}

impl TrafficSource for ChurnSource {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let mut produced = 0;
        let flow_count = self.keys.len();
        while produced < max && self.emitted < self.total {
            if self.emitted == self.next_event {
                self.next_event += self.interval;
                self.advance();
            }
            let flow = self.next_flow;
            self.next_flow = (self.next_flow + 1) % flow_count;
            out.push(EnginePacket {
                flow: self.keys[flow],
                seq: self.seqs[flow],
                route: RouteId::from_index(flow),
                frame: None,
            });
            self.seqs[flow] += 1;
            self.emitted += 1;
            produced += 1;
        }
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.table.current()
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        Some(self.table.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use unroller_topology::generators::{random_connected, ring};

    /// The full recompile the incremental update must match: walks
    /// every flow's DV forwarding column from its source. One spec per
    /// flow, in flow order — the slot-stability invariant.
    fn compile_all(dv: &DistanceVector, endpoints: &[(NodeId, NodeId)]) -> Vec<PathSpec> {
        let mut by_dst: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (f, &(_, dst)) in endpoints.iter().enumerate() {
            by_dst.entry(dst).or_default().push(f);
        }
        let mut specs = vec![PathSpec::linear(Vec::new()); endpoints.len()];
        for (&dst, flow_idxs) in &by_dst {
            let column = dv.forwarding(dst);
            for &f in flow_idxs {
                specs[f] = walk_column(&column, endpoints[f].0, dst);
            }
        }
        specs
    }

    /// Walks `column` (next hops toward `dst`) from `src` into a
    /// [`PathSpec`]: reach the destination → linear route; hit a
    /// withdrawn entry → partial linear route; revisit a node →
    /// looping route, cycle split out.
    fn walk_column(column: &[Option<NodeId>], src: NodeId, dst: NodeId) -> PathSpec {
        let mut path = vec![src];
        let mut seen: HashMap<NodeId, usize> = HashMap::new();
        seen.insert(src, 0);
        let mut cur = src;
        while cur != dst {
            let Some(next) = column[cur] else {
                return PathSpec::linear(path);
            };
            if let Some(&at) = seen.get(&next) {
                let cycle = path.split_off(at);
                return PathSpec::looping(path, cycle);
            }
            seen.insert(next, path.len());
            path.push(next);
            cur = next;
        }
        PathSpec::linear(path)
    }

    /// The published set equals a full recompile of the DV state, slot
    /// for slot.
    fn matches_full_recompile(source: &ChurnSource) -> Result<(), TestCaseError> {
        let reference = RouteSet::from_specs(compile_all(&source.dv, &source.endpoints).iter());
        let current = source.table.current();
        prop_assert_eq!(current.len(), reference.len());
        for (slot, (got, want)) in current.iter().zip(reference.iter()).enumerate() {
            prop_assert_eq!(got, want, "slot {}", slot);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Re-walking only the flows toward touched destinations
        /// publishes, after every event, exactly the set a full
        /// recompile builds; `routes_changed` counts exactly the slots
        /// that differ from the previous generation, and an event that
        /// changed none republishes the same set.
        #[test]
        fn every_generation_equals_a_full_recompile(
            n in 3usize..24,
            extra in 0usize..12,
            topology_seed in any::<u64>(),
            seed in any::<u64>(),
            links in 1usize..5,
            flows in 1usize..40,
            events in 1usize..150,
        ) {
            let graph = random_connected(n, extra, topology_seed);
            let plan = ChurnPlan { rate: 1000, seed, links };
            let mut source = ChurnSource::new(graph, &plan, flows, 0);
            matches_full_recompile(&source)?;
            let mut changed = 0u64;
            for _ in 0..events {
                let before = source.table.current();
                let generation = source.table.generation();
                source.advance();
                matches_full_recompile(&source)?;
                let after = source.table.current();
                let diff = before.iter().zip(after.iter()).filter(|(a, b)| a != b).count() as u64;
                if diff == 0 && source.table.generation() > generation {
                    prop_assert!(Arc::ptr_eq(&before, &after), "an unchanged set is republished");
                }
                changed += diff;
            }
            prop_assert_eq!(source.routes_changed(), changed);
        }
    }

    fn drain(source: &mut ChurnSource) -> Vec<EnginePacket> {
        let mut out = Vec::new();
        while source.fill(64, &mut out) > 0 {}
        out
    }

    #[test]
    fn parse_round_trips_the_full_spec() {
        let plan = ChurnPlan::parse("rate=400,seed=7,links=2").unwrap();
        assert_eq!(
            plan,
            ChurnPlan {
                rate: 400,
                seed: 7,
                links: 2
            }
        );
        assert_eq!(plan.interval(), 2_500);
        assert_eq!(ChurnPlan::parse("").unwrap(), ChurnPlan::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["rate", "rate=zero", "bogus=1", "rate=0", "links=0"] {
            assert!(ChurnPlan::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn emits_total_packets_round_robin_with_per_flow_seqs() {
        let plan = ChurnPlan::parse("rate=1000,seed=3").unwrap();
        let mut source = ChurnSource::new(ring(16), &plan, 4, 5_000);
        let out = drain(&mut source);
        assert_eq!(out.len(), 5_000);
        let mut per_flow: HashMap<FlowKey, Vec<u64>> = HashMap::new();
        for p in &out {
            per_flow.entry(p.flow).or_default().push(p.seq);
        }
        assert_eq!(per_flow.len(), 4);
        for seqs in per_flow.values() {
            assert_eq!(seqs, &(0..seqs.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn churn_publishes_generations_and_traps_flows() {
        // rate=1000 on 20k packets = one control event every 1000
        // packets: several full fail → collapse → restore → heal cycles.
        let plan = ChurnPlan::parse("rate=1000,seed=5,links=3").unwrap();
        let mut source = ChurnSource::new(ring(16), &plan, 8, 20_000);
        drain(&mut source);
        assert!(
            source.generations_published() >= 3,
            "expected several swaps, got {}",
            source.generations_published()
        );
        assert!(source.links_failed() >= 1);
        assert!(source.rules_applied() > 0);
        assert!(
            !source.looping_flow_keys().is_empty(),
            "count-to-infinity must trap at least one flow"
        );
        // Every published generation keeps one route slot per flow.
        assert_eq!(source.table().current().len(), 8);
        // Generations are strictly increasing in the log.
        let log = source.generation_log();
        assert!(log.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn oracle_mirror_tracks_the_authoritative_columns() {
        let plan = ChurnPlan::parse("rate=2000,seed=11,links=4").unwrap();
        let mut source = ChurnSource::new(ring(12), &plan, 6, 30_000);
        drain(&mut source);
        source.oracle_check().expect("checker mirror diverged");
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = ChurnPlan {
                rate: 500,
                seed,
                links: 2,
            };
            let mut source = ChurnSource::new(ring(16), &plan, 4, 10_000);
            let out = drain(&mut source);
            (
                out.iter().map(|p| (p.flow, p.seq)).collect::<Vec<_>>(),
                source.generations_published(),
                source.looping_flow_keys(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0, "seeds pick different endpoints");
    }
}
