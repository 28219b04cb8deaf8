//! Traffic sources: where engine packets come from.
//!
//! Four implementations cover the CLI's needs: a purely synthetic
//! generator (virtual nodes, no topology required), a
//! simulator-replay adapter that resolves flows through a
//! [`Simulator`]'s real forwarding tables — including any injected
//! routing loops — and replays the routed paths as packet streams, a
//! pcap replay source ([`PcapReplaySource`]) that feeds recorded wire
//! frames straight into the workers' zero-copy path, and a capture tee
//! ([`CaptureSource`]) that borrows any other source, records its
//! traffic into a pcap writer it owns, and hands the capture back when
//! the run is over, for replay later.
//!
//! Every source *interns* its paths up front: distinct [`PathSpec`]s
//! are compiled once into a shared [`RouteSet`], and the packets a
//! source emits carry only a copyable [`RouteId`] — emission is a
//! couple of field writes, no allocation and no `Arc` refcount traffic,
//! however many packets a flow sends.

use crate::epoch::EpochRouteTable;
use crate::flow::FlowKey;
use crate::packet::{EnginePacket, PathSpec};
use crate::route::{RouteId, RouteSet, RouteSetBuilder};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use unroller_core::InPacketDetector;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, PcapError, PcapReader, PcapWriter, WireHeader, ETHERTYPE_UNROLLER,
};
use unroller_sim::Simulator;
use unroller_topology::NodeId;

/// A bounded stream of engine packets. `fill` appends up to `max`
/// packets to `out` and returns how many it produced; 0 means the
/// source is exhausted and the engine should drain and stop.
pub trait TrafficSource {
    /// Produces the next burst of packets.
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize;

    /// The interned route set every emitted packet's
    /// [`EnginePacket::route`] resolves against. The engine fetches it
    /// once per run and shares it read-only with every shard.
    fn routes(&self) -> Arc<RouteSet>;

    /// The live epoch table behind [`TrafficSource::routes`], for
    /// sources that republish route generations mid-run (control-plane
    /// churn). The default `None` tells the engine to wrap the static
    /// route set in a single-generation [`EpochRouteTable`] of its own.
    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        None
    }
}

struct FlowStream {
    key: FlowKey,
    healthy: RouteId,
    poisoned: Option<RouteId>,
    seq: u64,
}

/// Replays packets along paths a source resolved up front, round-robin
/// across flows, flipping every flow from its healthy route to its
/// poisoned one at a configurable point in the stream — the moment the
/// routing loop "happens" mid-run.
pub struct ReplaySource {
    routes: Arc<RouteSet>,
    flows: Vec<FlowStream>,
    emitted: u64,
    total: u64,
    loop_at: Option<u64>,
    next_flow: usize,
}

/// A routing-loop injection for [`ReplaySource::from_sim`].
#[derive(Debug, Clone)]
pub struct LoopInjection {
    /// The forwarding cycle to install (node indices; length ≥ 2, every
    /// consecutive pair adjacent in the topology).
    pub cycle: Vec<NodeId>,
    /// The destination whose forwarding entries get poisoned.
    pub dst: NodeId,
    /// The global packet index at which the poisoned tables take
    /// effect.
    pub at_packet: u64,
}

impl ReplaySource {
    /// Builds a replay source from explicit per-flow paths (used by
    /// tests and the synthetic path below), interning each distinct
    /// path once.
    pub fn from_paths(
        flows: Vec<(FlowKey, PathSpec, Option<PathSpec>)>,
        total: u64,
        loop_at: Option<u64>,
    ) -> Self {
        assert!(!flows.is_empty(), "at least one flow");
        let mut builder = RouteSetBuilder::new();
        let flows = flows
            .into_iter()
            .map(|(key, healthy, poisoned)| FlowStream {
                key,
                healthy: builder.intern(&healthy),
                poisoned: poisoned.map(|p| builder.intern(&p)),
                seq: 0,
            })
            .collect();
        ReplaySource {
            routes: builder.build(),
            flows,
            emitted: 0,
            total,
            loop_at,
            next_flow: 0,
        }
    }

    /// Resolves `flow_count` flows through the simulator's forwarding
    /// tables. Endpoint pairs are drawn with `seed`; each flow's healthy
    /// path is recorded first, then (if `inject` is given) the cycle is
    /// installed via [`Simulator::inject_cycle`] and every flow's
    /// post-injection route is recorded as its poisoned path — flows the
    /// loop doesn't touch keep routing cleanly, exactly as in a real
    /// misconfiguration.
    ///
    /// The simulator is left with the poisoned tables installed (call
    /// [`Simulator::recompute_all_routes`] to heal it afterwards).
    pub fn from_sim<D: InPacketDetector>(
        sim: &mut Simulator<D>,
        flow_count: usize,
        total: u64,
        inject: Option<&LoopInjection>,
        seed: u64,
    ) -> Self {
        assert!(flow_count >= 1, "at least one flow");
        let n = sim.graph().node_count();
        assert!(n >= 2, "topology needs at least two nodes");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x656e67);
        let nodes: Vec<NodeId> = (0..n).collect();

        // Endpoints first: half the flows (at least one, when injecting)
        // are pinned to the poisoned destination so the loop actually
        // sees traffic; the rest are random pairs. Flow 0 additionally
        // starts *on* the cycle, guaranteeing at least one flow is
        // trapped regardless of where shortest paths happen to run.
        let mut endpoints = Vec::with_capacity(flow_count);
        for f in 0..flow_count {
            let dst = match inject {
                Some(inj) if f % 2 == 0 => inj.dst,
                // `nodes` covers 0..n with n >= 2 (asserted above), so
                // indexing a drawn position cannot fail.
                _ => nodes[rng.gen_range(0..n)],
            };
            let src = match inject {
                Some(inj) if f == 0 => {
                    assert!(
                        !inj.cycle.contains(&inj.dst),
                        "the poisoned destination cannot sit on the cycle"
                    );
                    inj.cycle[0]
                }
                _ => loop {
                    let s = nodes[rng.gen_range(0..n)];
                    if s != dst {
                        break s;
                    }
                },
            };
            endpoints.push((src, dst));
        }

        let healthy: Vec<PathSpec> = endpoints
            .iter()
            .map(|&(src, dst)| PathSpec::from_route(&sim.route(src, dst)))
            .collect();

        let poisoned: Vec<Option<PathSpec>> = if let Some(inj) = inject {
            sim.inject_cycle(&inj.cycle, inj.dst);
            endpoints
                .iter()
                .map(|&(src, dst)| Some(PathSpec::from_route(&sim.route(src, dst))))
                .collect()
        } else {
            vec![None; flow_count]
        };

        let flows = endpoints
            .iter()
            .zip(healthy)
            .zip(poisoned)
            .enumerate()
            .map(|(f, ((&(src, dst), h), p))| {
                (FlowKey::synthetic(src as u32, dst as u32, f as u32), h, p)
            })
            .collect();
        ReplaySource::from_paths(flows, total, inject.map(|i| i.at_packet))
    }

    /// Whether any flow's active route (post-injection) loops.
    pub fn any_looping_flow(&self) -> bool {
        self.flows
            .iter()
            .any(|f| f.poisoned.is_some_and(|p| self.routes.get(p).loops()))
    }

    /// Every flow's key, in flow order — lets a static forwarding-state
    /// oracle re-derive ground truth independently of the recorded
    /// per-flow routes (synthetic keys encode their endpoints, see
    /// [`FlowKey::synthetic_endpoints`]).
    pub fn flow_keys(&self) -> Vec<FlowKey> {
        self.flows.iter().map(|f| f.key).collect()
    }

    /// The flows whose active (post-injection) route loops — the ground
    /// truth a detection-recall measurement compares detections against.
    pub fn looping_flow_keys(&self) -> Vec<FlowKey> {
        self.flows
            .iter()
            .filter(|f| f.poisoned.is_some_and(|p| self.routes.get(p).loops()))
            .map(|f| f.key)
            .collect()
    }
}

impl TrafficSource for ReplaySource {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let mut produced = 0;
        let flow_count = self.flows.len();
        while produced < max && self.emitted < self.total {
            let poisoned_now = self.loop_at.map(|at| self.emitted >= at).unwrap_or(false);
            let flow = &mut self.flows[self.next_flow];
            self.next_flow = (self.next_flow + 1) % flow_count;
            // RouteId is Copy: emitting a packet writes four fields and
            // allocates nothing.
            let route = match (flow.poisoned, poisoned_now) {
                (Some(p), true) => p,
                _ => flow.healthy,
            };
            out.push(EnginePacket {
                flow: flow.key,
                seq: flow.seq,
                route,
                frame: None,
            });
            flow.seq += 1;
            self.emitted += 1;
            produced += 1;
        }
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.routes.clone()
    }
}

/// A topology-free synthetic source: random loop-free walks over a
/// virtual node space, with a chosen subset of flows switching to a
/// looping path partway through the stream. Useful for benchmarking the
/// engine itself without simulator routing in the picture.
pub struct SyntheticSource {
    inner: ReplaySource,
}

impl SyntheticSource {
    /// `nodes` virtual switches, `flow_count` flows of which every
    /// `loop_every`-th (1-based; 0 disables) becomes looping at packet
    /// index `loop_at`.
    pub fn new(
        nodes: usize,
        flow_count: usize,
        total: u64,
        loop_every: usize,
        loop_at: u64,
        seed: u64,
    ) -> Self {
        assert!(nodes >= 4, "virtual node space too small");
        assert!(flow_count >= 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x73796e);
        let all: Vec<NodeId> = (0..nodes).collect();
        let flows = (0..flow_count)
            .map(|f| {
                let len = rng.gen_range(3..=12.min(nodes));
                let mut pool = all.clone();
                pool.shuffle(&mut rng);
                let walk: Vec<NodeId> = pool[..len].to_vec();
                let healthy = PathSpec::linear(walk.clone());
                let poisoned = if loop_every > 0 && (f + 1) % loop_every == 0 {
                    // Loop between the last two hops of the walk.
                    let cut = walk.len() - 2;
                    Some(PathSpec::looping(
                        walk[..cut].to_vec(),
                        walk[cut..].to_vec(),
                    ))
                } else {
                    None
                };
                // `walk` has at least 3 hops (len drawn from 3..=12).
                let key = FlowKey::synthetic(walk[0] as u32, walk[walk.len() - 1] as u32, f as u32);
                (key, healthy, poisoned)
            })
            .collect();
        SyntheticSource {
            inner: ReplaySource::from_paths(flows, total, Some(loop_at)),
        }
    }

    /// The flows configured to start looping (see
    /// [`ReplaySource::looping_flow_keys`]).
    pub fn looping_flow_keys(&self) -> Vec<FlowKey> {
        self.inner.looping_flow_keys()
    }
}

impl TrafficSource for SyntheticSource {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        self.inner.fill(max, out)
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.inner.routes()
    }
}

/// Replays the frames of a classic pcap capture through the engine.
///
/// Each record's Ethernet header identifies the flow: MACs following
/// the [`EthernetHeader::for_hosts`] convention map back to
/// `(src_host, dst_host)` node pairs, and a caller-supplied resolver
/// turns each pair into the path its packets follow (typically a
/// closure over [`Simulator::route`]); each resolved path is interned
/// once, on the pair's first appearance. The recorded bytes ride along
/// on every packet ([`EnginePacket::frame`]) so workers process the
/// captured shim state itself — a frame captured mid-journey resumes
/// exactly where the capture point saw it. Records the engine cannot
/// attribute (runts, foreign MACs, non-Unroller EtherTypes,
/// unresolvable pairs) are counted in
/// [`PcapReplaySource::skipped_frames`], never silently dropped.
#[derive(Debug)]
pub struct PcapReplaySource {
    routes: Arc<RouteSet>,
    packets: std::collections::VecDeque<EnginePacket>,
    skipped: u64,
}

impl PcapReplaySource {
    /// Drains `reader` and resolves every attributable frame into an
    /// engine packet. Fails on a malformed capture (truncated record);
    /// unattributable-but-well-formed records are skipped and counted.
    pub fn from_reader<F>(reader: PcapReader, mut resolve: F) -> Result<Self, PcapError>
    where
        F: FnMut(NodeId, NodeId) -> Option<PathSpec>,
    {
        let mut packets = std::collections::VecDeque::new();
        let mut skipped = 0u64;
        let mut builder = RouteSetBuilder::new();
        // Per endpoint-pair state: flow index (stable per pair, in
        // first-appearance order), interned route, next sequence number.
        let mut flows: HashMap<(u32, u32), (u32, Option<RouteId>, u64)> = HashMap::new();
        for record in reader {
            let record = record?;
            let Some(eth) = EthernetHeader::decode(&record.data) else {
                skipped += 1; // runt: not even an Ethernet header
                continue;
            };
            if eth.ethertype != ETHERTYPE_UNROLLER {
                skipped += 1;
                continue;
            }
            let Some((src, dst)) = eth.host_pair() else {
                skipped += 1; // foreign MACs: no host mapping
                continue;
            };
            let next_index = flows.len() as u32;
            let (flow_index, route, seq) = flows.entry((src, dst)).or_insert_with(|| {
                let route = resolve(src as NodeId, dst as NodeId).map(|path| builder.intern(&path));
                (next_index, route, 0)
            });
            let Some(route) = route else {
                skipped += 1; // resolver knows no route for this pair
                continue;
            };
            packets.push_back(EnginePacket {
                flow: FlowKey::synthetic(src, dst, *flow_index),
                seq: *seq,
                route: *route,
                frame: Some(record.data.into_boxed_slice()),
            });
            *seq += 1;
        }
        Ok(PcapReplaySource {
            routes: builder.build(),
            packets,
            skipped,
        })
    }

    /// Opens and drains a capture file.
    pub fn open<F>(
        path: impl AsRef<std::path::Path>,
        resolve: F,
    ) -> std::io::Result<Result<Self, PcapError>>
    where
        F: FnMut(NodeId, NodeId) -> Option<PathSpec>,
    {
        match PcapReader::open(path)? {
            Ok(reader) => Ok(Self::from_reader(reader, resolve)),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Packets ready to replay.
    pub fn packet_count(&self) -> usize {
        self.packets.len()
    }

    /// Records the capture held that could not be attributed to a flow.
    pub fn skipped_frames(&self) -> u64 {
        self.skipped
    }

    /// The flows whose resolved routes loop (ground truth for recall
    /// when replaying a capture through a looping routing state).
    pub fn looping_flow_keys(&self) -> Vec<FlowKey> {
        let mut seen = std::collections::HashSet::new();
        self.packets
            .iter()
            .filter(|p| self.routes.get(p.route).loops() && seen.insert(p.flow))
            .map(|p| p.flow)
            .collect()
    }
}

impl TrafficSource for PcapReplaySource {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let mut produced = 0;
        while produced < max {
            let Some(p) = self.packets.pop_front() else {
                break;
            };
            out.push(p);
            produced += 1;
        }
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.routes.clone()
    }
}

/// A tee that records another source's traffic as a pcap capture while
/// passing it through unchanged — except each packet also gets its
/// initial wire frame attached, so what the engine processes is exactly
/// what the capture holds. Frames are synthesized at the source host:
/// MACs from the flow's endpoint addresses, an all-zero Unroller shim,
/// and timestamps spaced 1 µs apart in emission order.
///
/// The tee borrows the source it records and owns its writer:
/// [`finish`](Self::finish) hands the capture back once the run is
/// over, and the caller still has its source for post-run queries.
pub struct CaptureSource<'a> {
    inner: &'a mut dyn TrafficSource,
    writer: PcapWriter,
    layout: HeaderLayout,
}

impl<'a> CaptureSource<'a> {
    /// Tees `inner` into a new in-memory capture.
    pub fn new(inner: &'a mut dyn TrafficSource, layout: HeaderLayout) -> Self {
        CaptureSource {
            inner,
            writer: PcapWriter::default(),
            layout,
        }
    }

    /// The capture of every packet served so far, as pcap file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

impl TrafficSource for CaptureSource<'_> {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let start = out.len();
        let produced = self.inner.fill(max, out);
        for p in &mut out[start..] {
            let src = p.flow.src_ip & 0x00ff_ffff;
            let dst = p.flow.dst_ip & 0x00ff_ffff;
            let frame = build_frame(
                &self.layout,
                &EthernetHeader::for_hosts(src, dst),
                &WireHeader::initial(&self.layout),
                b"unroller-capture",
            );
            let emitted = u64::from(self.writer.packet_count());
            self.writer.push(emitted * 1_000, &frame);
            p.frame = Some(frame.into_boxed_slice());
        }
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.inner.routes()
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        self.inner.route_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unroller_sim::{NullDetector, SimConfig};
    use unroller_topology::generators::ring;
    use unroller_topology::ids::assign_sequential_ids;

    fn sim() -> Simulator<NullDetector> {
        let g = ring(8);
        let ids = assign_sequential_ids(8, 100);
        Simulator::new(g, ids, NullDetector, SimConfig::default())
    }

    #[test]
    fn replay_emits_exactly_total_packets() {
        let mut sim = sim();
        let mut src = ReplaySource::from_sim(&mut sim, 4, 100, None, 1);
        let routes = src.routes();
        let mut out = Vec::new();
        let mut got = 0;
        loop {
            let n = src.fill(7, &mut out);
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 100);
        assert_eq!(out.len(), 100);
        assert!(
            out.iter().all(|p| !routes.get(p.route).loops()),
            "no injection"
        );
    }

    #[test]
    fn sequences_are_per_flow_and_contiguous() {
        let mut sim = sim();
        let mut src = ReplaySource::from_sim(&mut sim, 3, 30, None, 2);
        let mut out = Vec::new();
        while src.fill(8, &mut out) > 0 {}
        let mut per_flow: std::collections::HashMap<FlowKey, Vec<u64>> = Default::default();
        for p in &out {
            per_flow.entry(p.flow).or_default().push(p.seq);
        }
        assert_eq!(per_flow.len(), 3);
        for seqs in per_flow.values() {
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, &expect, "per-flow sequence numbers");
        }
    }

    #[test]
    fn injection_switches_flows_to_looping_paths() {
        let mut sim = sim();
        let inj = LoopInjection {
            cycle: vec![1, 2],
            dst: 4,
            at_packet: 20,
        };
        let mut src = ReplaySource::from_sim(&mut sim, 4, 80, Some(&inj), 3);
        assert!(src.any_looping_flow(), "some flow must cross the cycle");
        let routes = src.routes();
        let mut out = Vec::new();
        while src.fill(16, &mut out) > 0 {}
        assert_eq!(out.len(), 80);
        let loops = |p: &EnginePacket| routes.get(p.route).loops();
        let early_loops = out[..20].iter().filter(|p| loops(p)).count();
        let late_loops = out[20..].iter().filter(|p| loops(p)).count();
        assert_eq!(early_loops, 0, "healthy until the injection point");
        assert!(late_loops > 0, "poisoned paths after the injection point");
    }

    #[test]
    fn from_sim_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = sim();
            let mut src = ReplaySource::from_sim(&mut sim, 5, 50, None, seed);
            let mut out = Vec::new();
            while src.fill(9, &mut out) > 0 {}
            out.iter().map(|p| (p.flow, p.seq)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds pick different flows");
    }

    #[test]
    fn synthetic_source_marks_looping_flows() {
        let mut src = SyntheticSource::new(64, 10, 200, 2, 50, 11);
        let routes = src.routes();
        let mut out = Vec::new();
        while src.fill(32, &mut out) > 0 {}
        assert_eq!(out.len(), 200);
        let loops = |p: &EnginePacket| routes.get(p.route).loops();
        assert!(out[..50].iter().all(|p| !loops(p)));
        assert!(out[50..].iter().any(loops));
    }

    #[test]
    fn interning_dedupes_shared_flow_paths() {
        // Two flows on the same healthy path plus one distinct poisoned
        // path: three path handles, two compiled routes.
        let shared = PathSpec::linear(vec![0, 1, 2]);
        let src = ReplaySource::from_paths(
            vec![
                (FlowKey::synthetic(0, 2, 0), shared.clone(), None),
                (
                    FlowKey::synthetic(0, 2, 1),
                    shared,
                    Some(PathSpec::looping(vec![0], vec![1, 2])),
                ),
            ],
            10,
            Some(5),
        );
        assert_eq!(src.routes().len(), 2, "equal paths intern to one route");
    }

    #[test]
    fn capture_then_replay_roundtrips_the_traffic() {
        // Record a simulator replay into an in-memory pcap, then feed
        // that capture back through PcapReplaySource: same packet
        // count, same per-pair flow streams, frames attached.
        let params = unroller_core::UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut sim1 = sim();
        let mut inner = ReplaySource::from_sim(&mut sim1, 3, 40, None, 5);
        let mut captured = CaptureSource::new(&mut inner, layout);
        let mut original = Vec::new();
        while captured.fill(16, &mut original) > 0 {}
        assert_eq!(original.len(), 40);
        assert!(original.iter().all(|p| p.frame.is_some()));
        let pcap = captured.finish();

        let sim2 = sim();
        let reader = PcapReader::new(pcap).unwrap();
        let mut replay = PcapReplaySource::from_reader(reader, |src, dst| {
            Some(PathSpec::from_route(&sim2.route(src, dst)))
        })
        .unwrap();
        assert_eq!(replay.packet_count(), 40);
        assert_eq!(replay.skipped_frames(), 0);
        let mut replayed = Vec::new();
        while replay.fill(16, &mut replayed) > 0 {}
        assert_eq!(replayed.len(), 40);
        for (a, b) in original.iter().zip(&replayed) {
            assert_eq!(a.frame, b.frame, "recorded bytes survive the roundtrip");
            assert_eq!(
                (a.flow.src_ip, a.flow.dst_ip),
                (b.flow.src_ip, b.flow.dst_ip),
                "endpoints recovered from the MACs"
            );
        }
        // Per-pair sequence numbers are contiguous from zero.
        let mut per_flow: std::collections::HashMap<FlowKey, Vec<u64>> = Default::default();
        for p in &replayed {
            per_flow.entry(p.flow).or_default().push(p.seq);
        }
        for seqs in per_flow.values() {
            assert_eq!(seqs, &(0..seqs.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pcap_replay_skips_unattributable_records() {
        let params = unroller_core::UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut w = PcapWriter::default();
        // 1: a healthy Unroller frame between hosts 1 and 2.
        w.push(
            0,
            &build_frame(
                &layout,
                &EthernetHeader::for_hosts(1, 2),
                &WireHeader::initial(&layout),
                b"ok",
            ),
        );
        // 2: a runt (too short for an Ethernet header).
        w.push(1_000, &[0xab; 5]);
        // 3: a non-Unroller EtherType.
        let mut eth = EthernetHeader::for_hosts(1, 2);
        eth.ethertype = 0x0800;
        w.push(
            2_000,
            &build_frame(&layout, &eth, &WireHeader::initial(&layout), b"ipv4"),
        );
        // 4: foreign MACs.
        let mut foreign = build_frame(
            &layout,
            &EthernetHeader::for_hosts(1, 2),
            &WireHeader::initial(&layout),
            b"who",
        );
        foreign[6] = 0xde; // clobber the source MAC's 0x02 prefix
        w.push(3_000, &foreign);
        // 5: a pair the resolver cannot route.
        w.push(
            4_000,
            &build_frame(
                &layout,
                &EthernetHeader::for_hosts(7, 9),
                &WireHeader::initial(&layout),
                b"lost",
            ),
        );
        let reader = PcapReader::new(w.finish()).unwrap();
        let src = PcapReplaySource::from_reader(reader, |s, d| {
            (s == 1 && d == 2).then(|| PathSpec::linear(vec![0, 1]))
        })
        .unwrap();
        assert_eq!(src.packet_count(), 1);
        assert_eq!(src.skipped_frames(), 4);
    }

    #[test]
    fn pcap_replay_surfaces_corrupt_captures() {
        let mut w = PcapWriter::default();
        w.push(0, &[1, 2, 3]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 1);
        let reader = PcapReader::new(bytes).unwrap();
        let err = PcapReplaySource::from_reader(reader, |_, _| None).unwrap_err();
        assert_eq!(err, PcapError::TruncatedRecord { index: 0 });
    }
}
