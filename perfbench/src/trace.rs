//! Tracing from outside the engine: spans recorded by the benchmark
//! around calls into each layer's public functions.
//!
//! * [`TimedSource`] wraps the real engine's traffic source, so every
//!   dispatcher `fill` becomes a `source.fill` span (and a fill that
//!   moved the route-table generation also a `churn.advance` span).
//! * [`replay`] runs the same workload single-threaded through the
//!   layers in the engine's order — source fill, RSS shard, ring push
//!   and pull, epoch refresh, memo lookup, per-hop frame walk, memo
//!   record, settle, aggregation — recording one span per layer per
//!   batch, never per hop or per packet, so timer cost stays small
//!   against a ~100 ns hop. Spans stay in memory until the end.

use crate::gate::Counts;
use crate::workload::{Source, Workload};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use unroller_core::SwitchId;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};
use unroller_engine::aggregate::aggregate;
use unroller_engine::ring::ring;
use unroller_engine::{
    CompiledRoute, EnginePacket, EpochRouteTable, FlowKey, LoopEvent, MemoTable, MemoVerdict,
    RouteSet, TrafficSource,
};

/// Minimum Ethernet frame length (the worker pads its scratch frame
/// to it).
const MIN_FRAME_LEN: usize = 64;
/// Cap on loop-membership collection, as in the worker.
const MEMBERSHIP_CAP: usize = 64;

/// One timed `fill` call.
#[derive(Debug, Clone, Copy)]
pub struct FillSpan {
    /// Start (ns since the tracer's clock origin).
    pub start_ns: u64,
    /// End (same clock).
    pub end_ns: u64,
    /// Packets the call produced.
    pub packets: u32,
    /// Whether the route-table generation moved during the call.
    pub advanced: bool,
}

/// A [`TrafficSource`] decorator that times every `fill`.
pub struct TimedSource<'a> {
    inner: &'a mut Source,
    table: Arc<EpochRouteTable>,
    clock: Instant,
    /// Spans recorded so far.
    pub fills: Vec<FillSpan>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`; `expected_fills` sizes the span buffer so
    /// recording never reallocates mid-run.
    pub fn new(inner: &'a mut Source, expected_fills: usize) -> Self {
        TimedSource {
            table: inner.table(),
            inner,
            clock: Instant::now(),
            fills: Vec::with_capacity(expected_fills),
        }
    }
}

impl TrafficSource for TimedSource<'_> {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let generation = self.table.generation();
        let start_ns = self.clock.elapsed().as_nanos() as u64;
        let produced = self.inner.fill(max, out);
        let end_ns = self.clock.elapsed().as_nanos() as u64;
        self.fills.push(FillSpan {
            start_ns,
            end_ns,
            packets: produced as u32,
            advanced: self.table.generation() != generation,
        });
        produced
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.inner.routes()
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        self.inner.route_table()
    }
}

/// Fill spans split into plain packet emission and control-plane
/// advances.
#[derive(Debug, Clone, Copy, Default)]
pub struct FillSplit {
    /// Self time of packet emission (ns).
    pub fill_ns: u64,
    /// Time spent advancing the control plane (ns).
    pub advance_ns: u64,
    /// Packets produced.
    pub packets: u64,
    /// Fills that advanced the control plane.
    pub advances: u64,
}

/// Splits fill spans: a fill that moved the generation did its usual
/// per-packet emission plus one control-plane advance, so its excess
/// over the plain fills' per-packet cost is the advance's self time.
/// With `churn` false no fill counts as an advance (a static source's
/// one publish is its injection clock, not control-plane work).
pub fn split_fills(fills: &[FillSpan], churn: bool) -> FillSplit {
    let advancing = |f: &FillSpan| churn && f.advanced;
    let (plain_ns, plain_packets) = fills
        .iter()
        .filter(|f| !advancing(f))
        .fold((0u64, 0u64), |(ns, p), f| {
            (ns + (f.end_ns - f.start_ns), p + f.packets as u64)
        });
    let per_packet = plain_ns as f64 / plain_packets.max(1) as f64;
    let mut split = FillSplit {
        fill_ns: plain_ns,
        packets: plain_packets,
        ..FillSplit::default()
    };
    for f in fills.iter().filter(|f| advancing(f)) {
        let total = f.end_ns - f.start_ns;
        let emission = ((per_packet * f.packets as f64) as u64).min(total);
        split.fill_ns += emission;
        split.advance_ns += total - emission;
        split.packets += f.packets as u64;
        split.advances += 1;
    }
    split
}

/// The layers the replay times, in engine order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TrafficSource::fill`.
    Fill,
    /// `FlowKey::shard` plus staging.
    Shard,
    /// `RingProducer::push_batch`.
    Push,
    /// `RingConsumer::recv_batch`.
    Recv,
    /// `RouteReader::refresh`, plus the validity-table rebuild and memo
    /// invalidation on a swap.
    Refresh,
    /// `MemoTable::lookup_verdict` / `should_sample`.
    MemoLookup,
    /// `UnrollerPipeline::process_frame_in_place` along each walked
    /// route.
    Walk,
    /// `MemoTable::record` and the sampled cross-check compare.
    MemoRecord,
    /// Outcome accounting and loop-membership collection.
    Settle,
    /// `aggregate()` over the replay's loop events.
    Aggregate,
    /// One whole batch: the parent of every span above but `Aggregate`.
    Batch,
}

impl Layer {
    /// Span name as written out.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fill => "source.fill",
            Layer::Shard => "flow.shard",
            Layer::Push => "ring.push",
            Layer::Recv => "ring.recv",
            Layer::Refresh => "epoch.refresh",
            Layer::MemoLookup => "memo.lookup",
            Layer::Walk => "dataplane.walk",
            Layer::MemoRecord => "memo.record",
            Layer::Settle => "worker.settle",
            Layer::Aggregate => "aggregate",
            Layer::Batch => "batch",
        }
    }
}

/// One replay span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// The batch it belongs to (the causing span's identifier).
    pub batch: u32,
    /// Start (ns since the replay began).
    pub start_ns: u64,
    /// End (same clock).
    pub end_ns: u64,
}

/// Everything a replay produced.
pub struct Replay {
    /// Outcome counts, comparable with a timed run's.
    pub counts: Counts,
    /// First-per-flow loop events, from `aggregate()`.
    pub events: Vec<LoopEvent>,
    /// Loop events fed to the aggregator.
    pub events_received: u64,
    /// Sampled memo cross-checks that disagreed.
    pub memo_divergence: u64,
    /// Pipeline steps the walk layer executed (memo hits walk none).
    pub walked_hops: u64,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Wall time of the whole replay (ns).
    pub wall_ns: u64,
    /// The drained source (for its ground truth).
    pub source: Source,
}

impl Replay {
    /// Total self time of `layer` (ns).
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of spans recorded for `layer`.
    pub fn span_count(&self, layer: Layer) -> u64 {
        self.spans.iter().filter(|s| s.layer == layer).count() as u64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                s.batch,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// How one packet of a batch is settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Walk it (no memo, or a memo miss that warms the slot).
    Walk,
    /// A memo hit the sampler picked: walk and cross-check.
    Sample,
    /// A memo hit settled from the cache.
    Cached,
    /// Its route id is outside the current generation.
    Invalid,
}

/// The worker's per-packet machinery, rebuilt from public parts.
struct Walker {
    pipelines: Vec<UnrollerPipeline>,
    ids: Vec<SwitchId>,
    scratch: Vec<u8>,
    shim: Range<usize>,
    max_hops: u32,
}

impl Walker {
    /// Walks the scratch frame, reset to the all-zero shim, along
    /// `route` — hop for hop what the worker does for generated
    /// traffic.
    fn walk(&mut self, route: &CompiledRoute, err_hop: u32) -> MemoVerdict {
        self.scratch[self.shim.clone()].fill(0);
        let mut hop = 0u32;
        let mut cycle_idx = 0usize;
        loop {
            let node = if (hop as usize) < route.pre.len() {
                route.pre[hop as usize]
            } else if route.cycle.is_empty() {
                return MemoVerdict::Delivered { hops: hop };
            } else {
                let n = route.cycle[cycle_idx];
                cycle_idx = (cycle_idx + 1) % route.cycle.len();
                n
            };
            if hop == err_hop {
                return MemoVerdict::RouteError { hops: hop };
            }
            hop += 1;
            match self.pipelines[node].process_frame_in_place(&mut self.scratch) {
                Ok(verdict) if verdict.reported() => {
                    return MemoVerdict::Loop {
                        trigger: node as u32,
                        hop,
                    }
                }
                Ok(_) => {}
                Err(_) => return MemoVerdict::FrameError { hops: hop - 1 },
            }
            if hop >= self.max_hops {
                return MemoVerdict::TtlDropped { hops: hop };
            }
        }
    }

    /// Books one outcome; a detection becomes a loop event carrying the
    /// membership the worker would collect.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        counts: &mut Counts,
        events: &mut Vec<LoopEvent>,
        flow: FlowKey,
        seq: u64,
        route: &CompiledRoute,
        end: MemoVerdict,
    ) {
        match end {
            MemoVerdict::Delivered { hops } => {
                counts.hops += hops as u64;
                counts.delivered += 1;
            }
            MemoVerdict::Loop { trigger, hop } => {
                counts.hops += hop as u64;
                counts.loop_events += 1;
                let trigger = self.ids[trigger as usize];
                let mut members = vec![trigger];
                let mut complete = false;
                let mut i = hop as usize;
                while members.len() < MEMBERSHIP_CAP {
                    let Some(id) = route.hop(i).and_then(|n| self.ids.get(n).copied()) else {
                        break;
                    };
                    if id == trigger {
                        complete = true;
                        break;
                    }
                    members.push(id);
                    i += 1;
                }
                events.push(LoopEvent {
                    flow,
                    seq,
                    shard: 0,
                    trigger,
                    hop,
                    members,
                    complete,
                });
            }
            MemoVerdict::TtlDropped { hops } => {
                counts.hops += hops as u64;
                counts.ttl_dropped += 1;
            }
            MemoVerdict::RouteError { hops } => {
                counts.hops += hops as u64;
                counts.route_errors += 1;
            }
            MemoVerdict::FrameError { hops } => counts.hops += hops as u64,
        }
    }
}

/// Pipeline steps a walk with outcome `end` took.
fn verdict_hops(end: MemoVerdict) -> u64 {
    let hops = match end {
        MemoVerdict::Delivered { hops }
        | MemoVerdict::TtlDropped { hops }
        | MemoVerdict::RouteError { hops }
        | MemoVerdict::FrameError { hops } => hops,
        MemoVerdict::Loop { hop, .. } => hop,
    };
    hops as u64
}

/// Replays `workload` at `seed` single-threaded through the engine's
/// layers, one span per layer per batch.
pub fn replay(workload: &Workload, seed: u64) -> Replay {
    let cfg = workload.engine_config();
    let inputs = workload.build(seed);
    let mut source = inputs.source;
    let table = source.table();
    let mut reader = table.reader();
    let layout = HeaderLayout::from_params(&cfg.params);
    let mut scratch = build_frame(
        &layout,
        &EthernetHeader::for_hosts(0, 1),
        &WireHeader::initial(&layout),
        &[],
    );
    scratch.resize(scratch.len().max(MIN_FRAME_LEN), 0);
    let shim = ETH_HEADER_LEN..ETH_HEADER_LEN + layout.total_bytes();
    let shim_len = shim.len();
    let mut walker = Walker {
        pipelines: inputs
            .ids
            .iter()
            .map(|&id| UnrollerPipeline::new(id, cfg.params).expect("default params are valid"))
            .collect(),
        ids: inputs.ids,
        scratch,
        shim,
        max_hops: cfg.max_hops,
    };
    let (producer, consumer, _) = ring::<EnginePacket>(cfg.ring_capacity, cfg.full_policy);

    let mut err_hops: Vec<u32> = Vec::new();
    reader
        .routes()
        .first_invalid_hops_into(walker.pipelines.len(), &mut err_hops);
    let mut memo = cfg.memo.map(|m| {
        let mut t = MemoTable::new(m, shim_len);
        t.invalidate(reader.routes().len());
        t
    });
    // Route slots warmed earlier in the same batch: later packets on
    // them are hits, exactly as in the worker's packet-at-a-time loop.
    let mut pending: Vec<bool> = vec![false; reader.routes().len()];

    let burst_max = cfg.batch_size * cfg.shards;
    let batches_hint = (workload.packets as usize / cfg.batch_size) + 2;
    let mut spans: Vec<Span> = Vec::with_capacity(batches_hint * 10);
    let mut burst: Vec<EnginePacket> = Vec::with_capacity(burst_max);
    let mut staged: Vec<EnginePacket> = Vec::with_capacity(burst_max);
    let mut batch: Vec<EnginePacket> = Vec::with_capacity(cfg.batch_size);
    let mut plans: Vec<Plan> = Vec::with_capacity(cfg.batch_size);
    let mut walks: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    let mut ends: Vec<Option<MemoVerdict>> = Vec::with_capacity(cfg.batch_size);
    let mut shims: Vec<u8> = vec![0; cfg.batch_size * shim_len];
    let mut counts = Counts::default();
    let mut events: Vec<LoopEvent> = Vec::new();
    let mut divergence = 0u64;
    let mut walked_hops = 0u64;

    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    let mut batch_id = 0u32;
    loop {
        let t0 = now();
        burst.clear();
        let produced = source.fill(burst_max, &mut burst);
        let t1 = now();
        if produced == 0 {
            break;
        }
        let mut span = |layer: Layer, start_ns: u64, end_ns: u64| {
            spans.push(Span {
                layer,
                batch: batch_id,
                start_ns,
                end_ns,
            })
        };
        span(Layer::Fill, t0, t1);

        for packet in burst.drain(..) {
            let shard = packet.flow.shard(cfg.shards);
            debug_assert_eq!(shard, 0, "one shard");
            staged.push(std::hint::black_box(packet));
        }
        let t2 = now();
        span(Layer::Shard, t1, t2);

        let pushed = producer.push_batch(&mut staged);
        debug_assert_eq!(pushed.dropped, 0, "an empty ring takes a whole burst");
        let t3 = now();
        span(Layer::Push, t2, t3);

        let mut left = produced;
        let mut t = t3;
        while left > 0 {
            batch.clear();
            let open = consumer.recv_batch(&mut batch, cfg.batch_size);
            debug_assert!(open, "the producer is alive");
            left -= batch.len();
            let t4 = now();
            span(Layer::Recv, t, t4);

            if reader.refresh().is_some() {
                reader
                    .routes()
                    .first_invalid_hops_into(walker.pipelines.len(), &mut err_hops);
                if let Some(table) = memo.as_mut() {
                    table.invalidate(reader.routes().len());
                }
                pending.clear();
                pending.resize(reader.routes().len(), false);
                counts.swaps_observed += 1;
            }
            let t5 = now();
            span(Layer::Refresh, t4, t5);

            let routes = reader.routes();
            plans.clear();
            walks.clear();
            for (i, p) in batch.iter().enumerate() {
                let idx = p.route.index();
                let plan = if routes.get_checked(p.route).is_none() {
                    Plan::Invalid
                } else if let Some(table) = memo.as_mut() {
                    if table.lookup_verdict(idx).is_some() || pending[idx] {
                        counts.memo_hits += 1;
                        if table.should_sample() {
                            counts.memo_sampled += 1;
                            Plan::Sample
                        } else {
                            Plan::Cached
                        }
                    } else {
                        counts.memo_misses += 1;
                        pending[idx] = true;
                        Plan::Walk
                    }
                } else {
                    Plan::Walk
                };
                if matches!(plan, Plan::Walk | Plan::Sample) {
                    walks.push(i);
                }
                plans.push(plan);
            }
            let t6 = now();
            if memo.is_some() {
                span(Layer::MemoLookup, t5, t6);
            }

            ends.clear();
            ends.resize(batch.len(), None);
            for (slot, &i) in walks.iter().enumerate() {
                let route = batch[i].route;
                let end = walker.walk(routes.get(route), err_hops[route.index()]);
                walked_hops += verdict_hops(end);
                if memo.is_some() {
                    shims[slot * shim_len..(slot + 1) * shim_len]
                        .copy_from_slice(&walker.scratch[walker.shim.clone()]);
                }
                ends[i] = Some(end);
            }
            let t7 = now();
            span(Layer::Walk, t6, t7);

            let mut t8 = t7;
            if let Some(table) = memo.as_mut() {
                for (slot, &i) in walks.iter().enumerate() {
                    let idx = batch[i].route.index();
                    let shim = &shims[slot * shim_len..(slot + 1) * shim_len];
                    let end = ends[i].expect("walked above");
                    if plans[i] == Plan::Walk {
                        table.record(idx, end, shim);
                        pending[idx] = false;
                    } else if table.lookup_verdict(idx) != Some(end)
                        || !table.shim_matches(idx, shim)
                    {
                        divergence += 1;
                    }
                }
                t8 = now();
                span(Layer::MemoRecord, t7, t8);
            }

            for (i, (p, plan)) in batch.iter().zip(&plans).enumerate() {
                let end = match (plan, ends[i]) {
                    (Plan::Invalid, _) => {
                        counts.route_errors += 1;
                        continue;
                    }
                    (_, Some(end)) => end,
                    (_, None) => memo
                        .as_ref()
                        .and_then(|t| t.lookup_verdict(p.route.index()))
                        .expect("a cached plan has a recorded verdict"),
                };
                walker.settle(
                    &mut counts,
                    &mut events,
                    p.flow,
                    p.seq,
                    routes.get(p.route),
                    end,
                );
            }
            counts.processed += batch.len() as u64;
            let t9 = now();
            span(Layer::Settle, t8, t9);
            t = t9;
        }
        span(Layer::Batch, t0, t);
        batch_id += 1;
    }
    drop(producer);

    let t_agg = now();
    let events_received = events.len() as u64;
    let (tx, rx) = std::sync::mpsc::channel();
    for event in events {
        tx.send(event).expect("the receiver is alive");
    }
    drop(tx);
    let report = aggregate(rx);
    let t_end = now();
    spans.push(Span {
        layer: Layer::Aggregate,
        batch: batch_id,
        start_ns: t_agg,
        end_ns: t_end,
    });

    Replay {
        counts,
        events: report.events,
        events_received,
        memo_divergence: divergence,
        walked_hops,
        spans,
        wall_ns: t_end,
        source,
    }
}
