//! The shard worker: one thread, one ring, read-only access to every
//! switch pipeline — run under in-thread supervision.
//!
//! Every shard reads the same per-switch [`UnrollerPipeline`]s,
//! indexed by node, through one shared `Arc`: register files are
//! read-only per packet, so sharing them needs no synchronization and
//! the hot loop writes only shard-owned state. The worker locks its
//! shard's counters ([`ShardMetrics`]) once per batch, after the ring
//! pull and any injected stall, and counts the batch into them with
//! plain adds until the batch ends. Flow affinity is what makes the
//! rest sound: a flow's packets all arrive on this one shard, so
//! nothing about a packet's journey is ever visible to another thread.
//!
//! **Wire-frame hot path: validate once, decode once, encode once.**
//! Every packet resolves its route once, then settles, in batch order
//! and through one accounting, from the memo or from [`walk`], the
//! engine's one walk (the `hotpath` bench times the same function):
//! one [`ShimView`]
//! validation and one decode per walk, into a shard-owned scratch
//! [`WireHeader`], [`UnrollerPipeline::process_header`] at every hop,
//! one encode at the end, and no allocation. Its final bytes are those
//! of a whole frame operation at every hop (property-tested below).
//! Generated packets share one shard-owned scratch frame (only its shim
//! bytes are re-zeroed per packet); packets replayed from a capture
//! carry their own recorded bytes and are walked in them, shim state
//! and all. Under a TTL-inferred layout (`xcnt_in_header = false`) the
//! decoded `xcnt` starts at 0 and counts the walk's own hops, as a
//! switch would infer them from the TTL (paper footnote 3), so a
//! carried frame starts counting at its first replayed hop.
//!
//! **Interned routes, swappable mid-run.** Packets carry a
//! [`RouteId`] into the current route-table
//! *generation*: the worker holds a [`RouteReader`] onto the engine's
//! [`EpochRouteTable`](crate::epoch::EpochRouteTable) and polls it once
//! per batch — one atomic load when nothing changed, a pointer swap
//! when the control plane published new routes. Route validity needs no
//! table: the walk's checked pipeline lookup ends in a route error at
//! the first unknown node, so a swapped-in route is judged by the nodes
//! it names. Detections against a generation published after startup
//! also record **detection latency** (publish → first detection on
//! this shard).
//!
//! **Report once per flow.** A trapped flow is detected packet after
//! packet, but the controller needs one report per loop. Each shard
//! keeps a fixed-size, set-associative report table keyed by the full
//! [`FlowKey`] (1024 sets × 4 ways, least recently used evicted;
//! allocated with the scratch state and never grown). A resident flow
//! reports on its 1st, 2nd, 4th … 64th detection, then on every 64th;
//! a flow evicted from the table counts from 1 again, so it reports on
//! its next detection. Either way a flow never goes 64 detections
//! without a report, which bounds how long an injected event drop can
//! hide it. A suppressed detection still counts in `loop_events` and
//! `loops_after_swap` and still records its generation's latency
//! sample; it skips §3.5 membership collection, the [`LoopEvent`], the
//! event-fault draw and the channel send (`events_sent` +
//! `events_suppressed` = `loop_events`). RSS pins a flow to one shard,
//! so its first detection is always its first event: the aggregator's
//! exact per-flow dedupe keeps the same events it kept when every
//! detection was sent.
//!
//! **Memoized walks.** With memoization enabled
//! ([`EngineConfig::memo`](crate::engine::EngineConfig::memo)), the
//! worker keeps a per-`RouteId` [`MemoTable`] of walk outcomes for
//! generated traffic: the first packet on a route walks and records
//! `(verdict, final shim)`, every later packet settles from the cached
//! entry in one lookup, and a configurable 1-in-N sampler re-walks
//! hits to cross-check the cache bit-exactly (`memo_divergence` counts
//! any mismatch). An entry is a pure function of its route, so a swap
//! compares every slot of the new set with the set
//! [`RouteReader::refresh`] handed back and drops the entry of each slot
//! whose route changed (or that the old set lacked): a swapped-in route
//! reusing a slot never serves a stale verdict, and a flow whose route
//! survived the swap does not walk again. Replayed frames and faulted
//! packets always walk.
//!
//! **Supervision.** Packet processing runs inside `catch_unwind`: a
//! panic (injected by a [`FaultPlan`](crate::faults::FaultPlan) or a
//! real bug) loses exactly the packet being processed — counted in
//! `panic_lost`, never silent — and the supervisor restarts the shard
//! in place: a clean scratch frame, header and report table (so its
//! flows just report again), an emptied memo, and the batch resumed at
//! the next packet. The counters stay locked across the restart, so the
//! counts of the batch's packets before the panic survive it. The
//! pipelines need no reset: no walk writes to them. Flows stay pinned
//! to the shard because the ring, and therefore the flow → shard
//! mapping, never changes. A per-shard restart budget bounds
//! pathological inputs: once exhausted the shard drains its ring into
//! the loss counters instead of looping on poison forever.

use crate::aggregate::LoopEvent;
use crate::epoch::RouteReader;
use crate::faults::{
    inject_panic, install_quiet_panic_hook, EventFate, EventFaults, PacketFault, ShardFaults,
};
use crate::flow::FlowKey;
use crate::memo::{MemoConfig, MemoTable, MemoVerdict};
use crate::metrics::{thread_cpu_ns, ShardMetrics, ShardSnapshot};
use crate::packet::EnginePacket;
use crate::ring::RingConsumer;
use crate::route::{CompiledRoute, RouteId, RouteSet};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unroller_core::SwitchId;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::pipeline::ShimView;
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};
use unroller_topology::NodeId;

/// Cap on §3.5 membership collection: a real switch would bound the
/// report it punts to the controller; 64 IDs covers any loop a sane
/// TTL lets live.
const MEMBERSHIP_CAP: usize = 64;

/// Minimum Ethernet frame length; the scratch frame is padded to it so
/// processing touches realistically sized wire buffers.
const MIN_FRAME_LEN: usize = 64;

/// Sets in a shard's [`ReportTable`] (a power of two).
const REPORT_SETS: usize = 1024;

/// Ways per [`ReportTable`] set.
const REPORT_WAYS: usize = 4;

/// The report back-off ceiling: a resident flow reports on its 1st,
/// 2nd, 4th … `REPORT_PERIOD`-th detection, then on every
/// `REPORT_PERIOD`-th (a power of two).
const REPORT_PERIOD: u64 = 64;

const _: () = assert!(REPORT_SETS.is_power_of_two() && REPORT_PERIOD.is_power_of_two());

/// A shard's reusable walk state, rebuilt on restart: the wire frame
/// frameless packets are walked in, the decoded header every walk runs
/// the control block on, and the report table every detection consults.
/// Walking a packet allocates nothing.
struct Scratch {
    frame: Vec<u8>,
    hdr: WireHeader,
    reports: ReportTable,
}

/// One report-table way: a flow and the detections counted since it
/// was inserted (0 marks a free way), stamped with the table clock at
/// its last detection.
#[derive(Clone, Copy)]
struct ReportEntry {
    flow: FlowKey,
    detections: u64,
    last_use: u64,
}

/// The per-shard report table: decides, per detection, whether the
/// detection becomes a [`LoopEvent`] (see the module docs). Keys are
/// compared in full, so a flow is only ever suppressed by its own
/// entry; a set with no way for a new flow evicts its least recently
/// detected flow.
struct ReportTable {
    /// `REPORT_SETS` sets of `REPORT_WAYS` consecutive ways.
    entries: Box<[ReportEntry]>,
    /// Detections seen, the LRU clock.
    clock: u64,
}

impl ReportTable {
    fn new() -> Self {
        let free = ReportEntry {
            flow: FlowKey {
                src_ip: 0,
                dst_ip: 0,
                src_port: 0,
                dst_port: 0,
                proto: 0,
            },
            detections: 0,
            last_use: 0,
        };
        ReportTable {
            entries: vec![free; REPORT_SETS * REPORT_WAYS].into_boxed_slice(),
            clock: 0,
        }
    }

    /// The set `flow` lives in.
    fn set_of(flow: &FlowKey) -> usize {
        flow.rss_hash() as usize & (REPORT_SETS - 1)
    }

    /// Counts one detection of `flow` and says whether to report it.
    fn should_report(&mut self, flow: FlowKey) -> bool {
        self.clock += 1;
        let base = Self::set_of(&flow) * REPORT_WAYS;
        let set = &mut self.entries[base..base + REPORT_WAYS];
        let way = match set.iter().position(|e| e.detections > 0 && e.flow == flow) {
            Some(way) => way,
            None => {
                // A free way has `last_use` 0, so it goes first.
                let (way, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .expect("a set has REPORT_WAYS > 0 ways");
                set[way].flow = flow;
                set[way].detections = 0;
                way
            }
        };
        let entry = &mut set[way];
        entry.detections += 1;
        entry.last_use = self.clock;
        let n = entry.detections;
        if n <= REPORT_PERIOD {
            n.is_power_of_two()
        } else {
            n.is_multiple_of(REPORT_PERIOD)
        }
    }
}

/// Re-keys the memo from route set `old` to `new`: drops the entry of
/// every slot whose route differs from `old`'s, or that `old` lacks (a
/// set longer than any before is provisioned here). Every other entry
/// was recorded for the very route the slot still holds, and the
/// pipelines and params are fixed for a run, so it stays exact —
/// whatever generations were skipped in between. A republished set
/// costs nothing.
fn rekey(old: &RouteSet, new: &RouteSet, memo: &mut MemoTable) {
    if std::ptr::eq(old, new) {
        return;
    }
    for (slot, route) in new.iter().enumerate() {
        if old.get_checked(RouteId::from_index(slot)) != Some(route) {
            memo.invalidate_slot(slot);
        }
    }
}

/// One shard's processing loop.
pub struct ShardWorker {
    /// Shard index (for event attribution).
    pub shard: usize,
    /// Per-node pipelines, indexed by `NodeId` (`pipelines[node]`),
    /// shared read-only by every shard. Processing takes `&self` and no
    /// pipeline has interior mutability, so a panic mid-walk cannot
    /// leave one half-written.
    pub pipelines: Arc<Vec<UnrollerPipeline>>,
    /// Switch IDs, indexed the same way.
    pub ids: Arc<[SwitchId]>,
    /// This shard's lock-free handle onto the engine's epoch route
    /// table: every packet's `RouteId` resolves against the generation
    /// the reader is on, re-polled once per batch.
    pub routes: RouteReader,
    /// The shim layout shared by all pipelines.
    pub layout: HeaderLayout,
    /// Hop budget per packet (the TTL).
    pub max_hops: u32,
    /// Batch ceiling per ring pull.
    pub batch_size: usize,
    /// This shard's counters, locked once per batch.
    pub metrics: Arc<ShardMetrics>,
    /// Loop events out (MPSC toward the aggregator).
    pub events: Sender<LoopEvent>,
    /// Packets in (SPSC from the dispatcher).
    pub consumer: RingConsumer<EnginePacket>,
    /// Packet/stall fault streams; `None` runs fault-free.
    pub faults: Option<ShardFaults>,
    /// Loop-event fault stream (inactive when fault-free).
    pub event_faults: EventFaults,
    /// Watchdog kick flag: set by the watchdog when this shard stops
    /// consuming while its ring holds packets; aborts injected stalls.
    pub kick: Arc<AtomicBool>,
    /// Per-route verdict memoization for generated traffic; `None`
    /// walks every packet.
    pub memo: Option<MemoConfig>,
}

impl ShardWorker {
    /// Runs until the dispatcher closes the ring. Consumes the worker.
    pub fn run(mut self) {
        if self.faults.is_some() {
            install_quiet_panic_hook();
        }
        let cpu_start = thread_cpu_ns();
        // The memo is sized for the initial set up front: grown slot by
        // slot, the memoized perfbench workload ran 4–5% slower on a
        // 2-vCPU host.
        let mut memo: Option<MemoTable> = self.memo.map(|cfg| {
            let mut table = MemoTable::new(cfg, self.layout.total_bytes());
            table.invalidate(self.routes.routes().len());
            table
        });
        let mut scratch = self.scratch();
        // Highest generation a detection latency was recorded for, so
        // each generation gets one sample per shard, restarts included.
        let mut latency_gen = 0u64;
        let mut batch: Vec<EnginePacket> = Vec::with_capacity(self.batch_size);
        let mut pfaults: Vec<PacketFault> = Vec::new();
        let mut faults = self.faults.take();
        let restart_budget = faults
            .as_ref()
            .map(|f| f.max_restarts())
            .unwrap_or(u64::MAX);
        let mut draining_only = false;
        loop {
            batch.clear();
            let wait_start = Instant::now();
            if !self.consumer.recv_batch(&mut batch, self.batch_size) {
                break;
            }
            let proc_start = Instant::now();
            // An injected stall runs before the counters are locked, so
            // the watchdog can still read them and kick this shard.
            let stall = match faults.as_mut() {
                Some(f) if !draining_only => f.batch_stall().map(|dur| self.stall(dur)),
                _ => None,
            };
            // The shard's counters, locked until the batch ends: a
            // reader sees whole batches only.
            let mut counts = self.metrics.lock();
            counts
                .wait_ns
                .record((proc_start - wait_start).as_nanos() as u64);
            if let Some(aborted) = stall {
                counts.stalls_injected += 1;
                counts.stalls_aborted += u64::from(aborted);
            }
            // Batch boundary: adopt any newly published route-table
            // generation. One atomic load when nothing changed; on a
            // swap, re-key the memo slots whose route changed.
            if let Some(replaced) = self.routes.refresh() {
                if let Some(table) = memo.as_mut() {
                    rekey(&replaced, self.routes.routes(), table);
                }
                counts.route_swaps_observed += 1;
            }
            counts.batches += 1;
            counts.batch_sizes.record(batch.len() as u64);
            if draining_only {
                // Restart budget exhausted: consume and count, never
                // process — the ring must still drain so the dispatcher
                // does not wedge on a Block policy.
                counts.panic_lost += batch.len() as u64;
                continue;
            }
            if let Some(f) = faults.as_mut() {
                // Per-packet fates are drawn up front, in packet order,
                // so decisions replay identically whatever the batch
                // boundaries or panic interleavings turn out to be.
                pfaults.clear();
                pfaults.extend((0..batch.len()).map(|_| f.packet_fault()));
            }
            let cursor = Cell::new(0usize);
            let lost_before = counts.panic_lost;
            loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    while cursor.get() < batch.len() {
                        let i = cursor.get();
                        cursor.set(i + 1);
                        let fault = pfaults.get(i).copied().unwrap_or(PacketFault::None);
                        self.process(
                            &mut batch[i],
                            &mut scratch,
                            fault,
                            &mut memo,
                            &mut counts,
                            &mut latency_gen,
                        );
                    }
                }));
                if outcome.is_ok() {
                    break;
                }
                // The panic took down exactly the packet at cursor-1.
                // The cursor has already moved past it, so it is not
                // retried (a deterministic poison packet must not loop
                // the restart budget away).
                counts.panic_lost += 1;
                if counts.restarts >= restart_budget {
                    counts.panic_lost += (batch.len() - cursor.get()) as u64;
                    draining_only = true;
                    break;
                }
                counts.restarts += 1;
                // Restart: a clean scratch frame, header and report
                // table, discarding whatever the panic left
                // half-written. The memo table is re-warmed from
                // scratch — cheaper than proving a half-recorded entry
                // impossible.
                scratch = self.scratch();
                if let Some(table) = memo.as_mut() {
                    table.invalidate(self.routes.routes().len());
                }
            }
            counts.packets += batch.len() as u64 - (counts.panic_lost - lost_before);
            counts
                .proc_ns
                .record(proc_start.elapsed().as_nanos() as u64);
        }
        if let (Some(start), Some(end)) = (cpu_start, thread_cpu_ns()) {
            self.metrics.lock().cpu_ns = end.saturating_sub(start);
        }
    }

    /// An injected ring stall: stop consuming for `dur`, polling the
    /// watchdog's kick flag so a detected stall is cut short — the
    /// recovery path the watchdog exists to exercise. Returns whether a
    /// kick cut it short.
    fn stall(&self, dur: Duration) -> bool {
        let deadline = Instant::now() + dur;
        while Instant::now() < deadline {
            if self.kick.swap(false, Ordering::Relaxed) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Fresh walk state: a minimum-size Ethernet frame carrying an
    /// all-zero shim, an initial header and an empty report table.
    fn scratch(&self) -> Scratch {
        let hdr = WireHeader::initial(&self.layout);
        let mut frame = build_frame(&self.layout, &EthernetHeader::for_hosts(0, 1), &hdr, &[]);
        frame.resize(frame.len().max(MIN_FRAME_LEN), 0);
        Scratch {
            frame,
            hdr,
            reports: ReportTable::new(),
        }
    }

    /// Processes one packet, applying this packet's injected fault (if
    /// any): one checked route lookup, then one walk — or, for a
    /// generated packet (no frame, no fault) whose walk is a pure
    /// function of its route, the memo when enabled. Packets that carry
    /// recorded wire bytes or an injected fault always walk in their
    /// own state.
    fn process(
        &self,
        packet: &mut EnginePacket,
        scratch: &mut Scratch,
        fault: PacketFault,
        memo: &mut Option<MemoTable>,
        counts: &mut ShardSnapshot,
        latency_gen: &mut u64,
    ) {
        let flip = match fault {
            PacketFault::Panic => {
                counts.panics_injected += 1;
                inject_panic(self.shard);
            }
            PacketFault::BitFlip { at_hop, bit } => Some(Flip {
                at_hop,
                bit,
                landed: &mut counts.bitflips_injected,
            }),
            PacketFault::None => None,
        };
        // Checked lookup: a `RouteId` is minted against some generation
        // but resolved against the reader's *current* one, which may be
        // smaller. An out-of-range id is a route error, not a panic.
        let Some(route) = self.routes.routes().get_checked(packet.route) else {
            counts.route_errors += 1;
            return;
        };
        let end = match (packet.frame.as_deref_mut(), memo.as_mut()) {
            (None, Some(table)) if flip.is_none() => {
                self.walk_memoized(route, packet.route.index(), scratch, table, counts)
            }
            (frame, _) => self.walk(route, frame, scratch, flip),
        };
        self.settle(
            &mut scratch.reports,
            counts,
            latency_gen,
            packet,
            route,
            end,
        );
    }

    /// The memo path for a generated packet: the cached verdict on a
    /// hit (re-walking 1-in-N hits to cross-check it), a walk recorded
    /// into the table on a miss.
    fn walk_memoized(
        &self,
        route: &CompiledRoute,
        idx: usize,
        scratch: &mut Scratch,
        table: &mut MemoTable,
        counts: &mut ShardSnapshot,
    ) -> MemoVerdict {
        let shim_end = ETH_HEADER_LEN + self.layout.total_bytes();
        let Some(cached) = table.lookup_verdict(idx) else {
            counts.memo_misses += 1;
            let end = self.walk(route, None, scratch, None);
            table.record(idx, end, &scratch.frame[ETH_HEADER_LEN..shim_end]);
            return end;
        };
        counts.memo_hits += 1;
        if !table.should_sample() {
            return cached;
        }
        // Sampled cross-check: the full walk stays the ground truth —
        // compare verdict and final shim bit-exactly, count any
        // mismatch, and settle from the walked result so divergence
        // can never leak into the run's accounting.
        counts.memo_sampled_walks += 1;
        let end = self.walk(route, None, scratch, None);
        if end != cached || !table.shim_matches(idx, &scratch.frame[ETH_HEADER_LEN..shim_end]) {
            counts.memo_divergence += 1;
        }
        end
    }

    /// [`walk`]s `route` in the packet's own frame, or, for a generated
    /// packet (`None`), in the scratch frame reset to the all-zero
    /// initial shim.
    fn walk(
        &self,
        route: &CompiledRoute,
        frame: Option<&mut [u8]>,
        scratch: &mut Scratch,
        flip: Option<Flip<'_>>,
    ) -> MemoVerdict {
        let frame = frame.unwrap_or_else(|| {
            let shim_end = ETH_HEADER_LEN + self.layout.total_bytes();
            scratch.frame[ETH_HEADER_LEN..shim_end].fill(0);
            &mut scratch.frame
        });
        walk(
            &self.pipelines,
            &self.layout,
            route.nodes(),
            self.max_hops,
            frame,
            &mut scratch.hdr,
            flip,
        )
    }

    /// Applies a walk outcome to the shard's counters: hop and outcome
    /// counters, and for a detection its live-loop count, its
    /// generation's latency sample and the report decision. The single
    /// accounting sink for every walk flavour — a memoized verdict is
    /// indistinguishable from a walked one here.
    fn settle(
        &self,
        reports: &mut ReportTable,
        counts: &mut ShardSnapshot,
        latency_gen: &mut u64,
        packet: &EnginePacket,
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
                let gen = self.routes.generation();
                if gen > self.routes.initial_generation() {
                    // This loop lives in a route generation published
                    // while traffic was already flowing — live
                    // detection, not replay.
                    counts.loops_after_swap += 1;
                    // First detection this shard makes against `gen`
                    // records the detection latency: swap publish →
                    // detection.
                    if *latency_gen < gen {
                        *latency_gen = gen;
                        if let Some(published) = self.routes.publish_ns(gen) {
                            let latency = self.routes.now_ns().saturating_sub(published);
                            counts.detect_latency_ns.record(latency);
                        }
                    }
                }
                self.report_loop(reports, counts, packet, route, trigger as usize, hop);
            }
            MemoVerdict::TtlDropped { hops } => {
                counts.hops += hops as u64;
                counts.ttl_dropped += 1;
            }
            MemoVerdict::RouteError { hops } => {
                counts.hops += hops as u64;
                counts.route_errors += 1;
            }
            MemoVerdict::FrameError { hops } => {
                counts.hops += hops as u64;
                counts.frame_errors += 1;
            }
        }
    }

    /// When the report table says so, runs §3.5 membership collection
    /// for a detection and sends the loop event: from the trigger
    /// switch, keep following the (known, looping) route recording
    /// switch IDs until the trigger reappears — the recorded set is the
    /// loop.
    fn report_loop(
        &self,
        reports: &mut ReportTable,
        counts: &mut ShardSnapshot,
        packet: &EnginePacket,
        route: &CompiledRoute,
        trigger_node: usize,
        hop: u32,
    ) {
        if !reports.should_report(packet.flow) {
            counts.events_suppressed += 1;
            return;
        }
        counts.events_sent += 1;
        let trigger = self.ids[trigger_node];
        let mut members = vec![trigger];
        let mut complete = false;
        // `hop` is the route index of the hop after the trigger.
        for node in route.nodes().skip(hop as usize) {
            if members.len() == MEMBERSHIP_CAP {
                break;
            }
            let Some(&id) = self.ids.get(node) else {
                break;
            };
            if id == trigger {
                complete = true;
                break;
            }
            members.push(id);
        }
        let event = LoopEvent {
            flow: packet.flow,
            seq: packet.seq,
            shard: self.shard,
            trigger,
            hop,
            members,
            complete,
        };
        match self.event_faults.fate() {
            EventFate::Drop => counts.events_dropped_injected += 1,
            EventFate::Duplicate => {
                counts.events_duplicated_injected += 1;
                self.send_event(event.clone(), counts);
                self.send_event(event, counts);
            }
            EventFate::Deliver => self.send_event(event, counts),
        }
    }

    /// Sends one event toward the aggregator, tolerating a closed
    /// channel: a send can only fail post-aggregator-teardown, which
    /// join ordering rules out in a healthy run — count it and keep
    /// draining rather than panic a worker.
    fn send_event(&self, event: LoopEvent, counts: &mut ShardSnapshot) {
        if self.events.send(event).is_err() {
            counts.events_send_failed += 1;
        }
    }
}

/// An on-the-wire bit flip scheduled into one [`walk`]: fault
/// injection's corruption between two switches.
#[derive(Debug)]
pub struct Flip<'a> {
    /// Hops processed before the flip lands (0: before the first switch).
    pub at_hop: u32,
    /// The wire bit to flip; wraps modulo the shim's bit count
    /// ([`ShimView::flip_bit`]).
    pub bit: u32,
    /// Counts the flip once, when it lands.
    pub landed: &'a mut u64,
}

/// Walks one wire frame through `pipelines` along `nodes` (indices into
/// `pipelines`): the engine's one walk. It returns the terminal outcome
/// and counts nothing but a landed flip, so walked and memoized
/// outcomes settle through the caller's one accounting.
///
/// Each hop runs route end (`nodes` ran out: delivered) → pipeline
/// lookup (a node `pipelines` lacks: route error) → frame validation
/// (first hop only: a malformed frame fails identically at every
/// switch, so it is rejected with no byte written) → the scheduled flip
/// → the control block on `hdr` → the TTL (`max_hops`). The shim is
/// decoded once into `hdr` (any header with the layout's slot count)
/// and encoded back once at the end, unless no hop continued (a
/// first-hop report), which leaves the frame as it came. A flip lands
/// on the walk's current state: the shim is written back if a hop has
/// changed it, the wire bit flipped and the shim decoded again, keeping
/// a TTL-inferred layout's hop count. A flip due before the first hop
/// of a malformed frame counts as landed.
pub fn walk(
    pipelines: &[UnrollerPipeline],
    layout: &HeaderLayout,
    mut nodes: impl Iterator<Item = NodeId>,
    max_hops: u32,
    frame: &mut [u8],
    hdr: &mut WireHeader,
    mut flip: Option<Flip<'_>>,
) -> MemoVerdict {
    let Some(mut node) = nodes.next() else {
        return MemoVerdict::Delivered { hops: 0 };
    };
    let Some(mut pipeline) = pipelines.get(node) else {
        return MemoVerdict::RouteError { hops: 0 };
    };
    let Ok(mut view) = ShimView::new(layout, frame) else {
        if let Some(f) = flip.filter(|f| f.at_hop == 0) {
            *f.landed += 1;
        }
        return MemoVerdict::FrameError { hops: 0 };
    };
    view.decode_into(hdr);
    let mut hop = 0u32;
    let end = loop {
        if let Some(f) = flip.take_if(|f| f.at_hop == hop) {
            if hop > 0 {
                view.encode_from(hdr);
            }
            view.flip_bit(f.bit);
            let xcnt = hdr.xcnt;
            view.decode_into(hdr);
            if layout.xcnt_bits == 0 {
                hdr.xcnt = xcnt;
            }
            *f.landed += 1;
        }
        hop += 1;
        if pipeline.process_header(hdr).reported() {
            break MemoVerdict::Loop {
                trigger: node as u32,
                hop,
            };
        }
        if hop >= max_hops {
            break MemoVerdict::TtlDropped { hops: hop };
        }
        let Some(next) = nodes.next() else {
            break MemoVerdict::Delivered { hops: hop };
        };
        let Some(next_pipeline) = pipelines.get(next) else {
            break MemoVerdict::RouteError { hops: hop };
        };
        (node, pipeline) = (next, next_pipeline);
    };
    // Every hop before a report continued, so only a first-hop report
    // leaves nothing to write back: the frame stays as it came, as after
    // a report at a real switch.
    if !matches!(end, MemoVerdict::Loop { hop: 1, .. }) {
        view.encode_from(hdr);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochRouteTable;
    use crate::faults::FaultPlan;
    use crate::flow::FlowKey;
    use crate::packet::PathSpec;
    use crate::ring::{ring, FullPolicy};
    use crate::route::{RouteId, RouteSet, RouteSetBuilder};
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::HashMap;
    use std::time::Duration;
    use unroller_core::{UnrollerParams, Verdict};

    const RECV_WAIT: Duration = Duration::from_secs(10);

    fn worker_fixture(
        nodes: usize,
        max_hops: u32,
    ) -> (
        ShardWorker,
        crate::ring::RingProducer<EnginePacket>,
        std::sync::mpsc::Receiver<LoopEvent>,
    ) {
        worker_fixture_for(UnrollerParams::default(), nodes, max_hops)
    }

    fn worker_fixture_for(
        params: UnrollerParams,
        nodes: usize,
        max_hops: u32,
    ) -> (
        ShardWorker,
        crate::ring::RingProducer<EnginePacket>,
        std::sync::mpsc::Receiver<LoopEvent>,
    ) {
        let ids: Arc<[SwitchId]> = (0..nodes as u32).map(|i| 100 + i).collect();
        let pipelines = Arc::new(
            ids.iter()
                .map(|&id| UnrollerPipeline::new(id, params).expect("valid params"))
                .collect::<Vec<_>>(),
        );
        // Tests enqueue everything before `run()` starts consuming, so
        // the ring must hold the largest test workload without blocking.
        let (producer, consumer, _) = ring(512, FullPolicy::Block);
        let (ev_tx, ev_rx) = std::sync::mpsc::channel();
        let worker = ShardWorker {
            shard: 0,
            pipelines,
            ids,
            routes: Arc::new(EpochRouteTable::new(RouteSetBuilder::new().build())).reader(),
            layout: HeaderLayout::from_params(&params),
            max_hops,
            batch_size: 8,
            metrics: Arc::new(ShardMetrics::default()),
            events: ev_tx,
            consumer,
            faults: None,
            event_faults: EventFaults::inactive(),
            kick: Arc::new(AtomicBool::new(false)),
            memo: None,
        };
        (worker, producer, ev_rx)
    }

    /// Interns one path and installs the resulting single-route set on
    /// the worker (as generation 1 of a fresh epoch table); most tests
    /// walk exactly one distinct path.
    fn install_route(worker: &mut ShardWorker, path: PathSpec) -> RouteId {
        let mut b = RouteSetBuilder::new();
        let id = b.intern(&path);
        worker.routes = Arc::new(EpochRouteTable::new(b.build())).reader();
        id
    }

    fn packet(seq: u64, route: RouteId) -> EnginePacket {
        EnginePacket {
            flow: FlowKey::synthetic(0, 1, 0),
            seq,
            route,
            frame: None,
        }
    }

    #[test]
    fn delivers_loop_free_packets() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3]));
        let metrics = worker.metrics.clone();
        for seq in 0..10 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 10);
        assert_eq!(snap.delivered, 10);
        assert_eq!(snap.loop_events, 0);
        assert_eq!(snap.hops, 40);
        assert!(snap.batches >= 2);
        assert!(ev_rx.try_recv().is_err(), "no events for clean traffic");
    }

    #[test]
    fn detects_loop_and_collects_membership() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        // 0 → [1, 2, 3] cycling: IDs 101, 102, 103 form the loop.
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2, 3]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 1);
        assert_eq!(snap.delivered, 0);
        assert_eq!(snap.ttl_dropped, 0, "detector beats the TTL");
        let event = ev_rx
            .recv_timeout(RECV_WAIT)
            .expect("worker sent the loop event before exiting");
        assert!(event.complete, "membership closed the cycle");
        let mut members = event.members.clone();
        members.sort_unstable();
        assert_eq!(members, vec![101, 102, 103]);
        assert_eq!(event.hop as u64, snap.hops);
    }

    #[test]
    fn ttl_caps_undetectable_walks() {
        // max_hops below the detection bound (a ping-pong is detected
        // on hop 3, the loop-closing revisit): the TTL fires first.
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 2);
        let route = install_route(&mut worker, PathSpec::looping(vec![], vec![0, 1]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.ttl_dropped, 1);
        assert_eq!(snap.loop_events, 0);
        assert_eq!(snap.hops, 2);
    }

    #[test]
    fn unknown_nodes_count_route_errors() {
        let (mut worker, producer, _ev_rx) = worker_fixture(3, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 99]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.route_errors, 1);
        assert_eq!(snap.hops, 1, "the valid prefix was processed");
    }

    #[test]
    fn looping_route_with_invalid_cycle_hop_errors_out() {
        // The invalid hop sits inside the cycle: the walk's checked
        // pipeline lookup must stop it there instead of letting the
        // wrapped cycle cursor index out of the pipeline array.
        let (mut worker, producer, _ev_rx) = worker_fixture(3, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 88]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.route_errors, 1);
        assert_eq!(snap.hops, 2, "hops 0 and 1 processed before the error");
        assert_eq!(snap.loop_events, 0);
    }

    #[test]
    fn cpu_time_recorded_on_linux() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        if thread_cpu_ns().is_some() {
            // Stored (possibly 0 ticks for so little work, but stored).
            let _ = metrics.snapshot().cpu_ns;
        }
    }

    #[test]
    fn dead_aggregator_is_tolerated_and_counted() {
        // Dropping the event receiver before the worker runs forces
        // every loop-event send to fail: the worker must finish its
        // ring cleanly and count the failures instead of panicking.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2]));
        let metrics = worker.metrics.clone();
        drop(ev_rx);
        for seq in 0..5 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 5, "worker drains despite the dead sink");
        assert_eq!(snap.loop_events, 5);
        assert_eq!(snap.events_sent, 3, "detections 1, 2 and 4 report");
        assert_eq!(snap.events_send_failed, snap.events_sent);
    }

    #[test]
    fn injected_panics_are_supervised_and_accounted() {
        let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2]));
        // Every packet panics; budget of 3 restarts, then drain-only.
        worker.faults = Some(
            FaultPlan {
                seed: 1,
                panic_rate: 1.0,
                max_restarts: 3,
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let metrics = worker.metrics.clone();
        for seq in 0..20 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.restarts, 3, "budget honored exactly");
        assert_eq!(
            snap.packets + snap.panic_lost,
            20,
            "every packet is either processed or counted lost"
        );
        assert_eq!(snap.packets, 0, "all-panic plan processes nothing");
        assert!(snap.panics_injected >= 4, "the supervised panics fired");
    }

    #[test]
    fn moderate_panic_rate_loses_only_the_panicking_packets() {
        let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3]));
        worker.faults = Some(
            FaultPlan {
                seed: 9,
                panic_rate: 0.05,
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let metrics = worker.metrics.clone();
        for seq in 0..400 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert!(snap.panic_lost > 0, "5% over 400 packets fires");
        assert_eq!(snap.packets + snap.panic_lost, 400);
        assert_eq!(
            snap.restarts, snap.panic_lost,
            "each panic loses exactly one packet and costs one restart"
        );
        assert_eq!(snap.delivered, snap.packets, "survivors all deliver");
    }

    #[test]
    fn bitflips_are_injected_and_survive_processing() {
        let (mut worker, producer, _ev_rx) = worker_fixture(8, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3, 4, 5]));
        worker.faults = Some(
            FaultPlan {
                seed: 4,
                bitflip_rate: 1.0,
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let metrics = worker.metrics.clone();
        for seq in 0..100 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 100, "corruption never crashes the walk");
        assert!(snap.bitflips_injected > 0, "flips landed");
        // A flipped header may mis-deliver or false-report, but every
        // packet still terminates one way or another. Flips land inside
        // the shim, so the frame itself stays parseable.
        assert_eq!(snap.frame_errors, 0);
        assert_eq!(
            snap.delivered + snap.ttl_dropped + snap.loop_events + snap.route_errors,
            100
        );
    }

    #[test]
    fn injected_stall_is_cut_short_by_a_kick() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        worker.faults = Some(
            FaultPlan {
                seed: 2,
                stall_rate: 1.0,
                stall_ms: 60_000, // would dwarf the test without a kick
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let kick = worker.kick.clone();
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        // Pre-arm the kick: the stall loop observes it on its first
        // poll and aborts immediately.
        kick.store(true, Ordering::Relaxed);
        let start = Instant::now();
        worker.run();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "kick must abort the stall"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.stalls_injected, 1);
        assert_eq!(snap.stalls_aborted, 1);
        assert_eq!(snap.packets, 1);
    }

    #[test]
    fn carried_frames_are_processed_in_their_own_bytes() {
        // A packet with recorded wire bytes (a capture replay) must be
        // processed in that buffer: a shim pre-walked through switches
        // 0 and 1 re-enters switch 0 and reports on the FIRST hop of
        // the replayed walk — state the scratch frame would not have.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 2, 3]));
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut frame = build_frame(
            &layout,
            &EthernetHeader::for_hosts(0, 1),
            &WireHeader::initial(&layout),
            b"replayed",
        );
        // Pre-walk: the capture point saw the packet after switches
        // 100 and 101 (the fixture's IDs for nodes 0 and 1).
        UnrollerPipeline::new(100, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        UnrollerPipeline::new(101, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        let metrics = worker.metrics.clone();
        let mut p = packet(0, route);
        p.frame = Some(frame.into_boxed_slice());
        producer.push(p);
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 1, "carried shim state must be honored");
        assert_eq!(snap.hops, 1, "reported on the first replayed hop");
        let event = ev_rx.recv_timeout(RECV_WAIT).expect("loop event");
        assert_eq!(event.trigger, 100);
    }

    #[test]
    fn malformed_frames_count_frame_errors() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        let metrics = worker.metrics.clone();
        let mut runt = packet(0, route);
        runt.frame = Some(vec![0u8; 6].into_boxed_slice()); // shorter than an Ethernet header
        producer.push(runt);
        let mut wrong_type = packet(1, route);
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut eth = EthernetHeader::for_hosts(0, 1);
        eth.ethertype = 0x0800;
        wrong_type.frame = Some(
            build_frame(&layout, &eth, &WireHeader::initial(&layout), b"ipv4").into_boxed_slice(),
        );
        producer.push(wrong_type);
        producer.push(packet(2, route)); // healthy
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 3, "malformed frames still count consumed");
        assert_eq!(snap.frame_errors, 2);
        assert_eq!(snap.delivered, 1);
    }

    #[test]
    fn event_faults_drop_and_duplicate_loop_events() {
        let plan = FaultPlan {
            seed: 6,
            event_drop_rate: 0.3,
            event_dup_rate: 0.3,
            ..FaultPlan::default()
        };
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2]));
        worker.event_faults = plan.event_faults(0);
        let metrics = worker.metrics.clone();
        for seq in 0..50 {
            for f in 0..8 {
                producer.push(EnginePacket {
                    flow: FlowKey::synthetic(0, 1, f),
                    ..packet(seq, route)
                });
            }
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 400, "every detection is counted");
        assert_eq!(snap.events_sent, 48, "detections 1, 2, 4 … 32 of 8 flows");
        assert!(snap.events_dropped_injected > 0);
        assert!(snap.events_duplicated_injected > 0);
        let received = ev_rx.try_iter().count() as u64;
        assert_eq!(
            received,
            snap.events_sent - snap.events_dropped_injected + snap.events_duplicated_injected,
            "channel traffic matches the injected drop/dup accounting"
        );
    }

    /// Spins until the worker has consumed `n` packets, so a publish
    /// lands on a batch boundary between two known packets.
    fn wait_for_packets(metrics: &Arc<ShardMetrics>, n: u64) {
        let deadline = Instant::now() + RECV_WAIT;
        while metrics.snapshot().packets < n {
            assert!(
                Instant::now() < deadline,
                "worker never consumed packet {n}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn outcomes_reach_the_metrics_with_each_batch() {
        // One batch (the fixture's batch size) on a ring left open, so
        // the worker is still running when the batch lands in `packets`:
        // its outcomes and memo counters must already be there.
        let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
        let mut b = RouteSetBuilder::new();
        let routes = [
            b.intern(&PathSpec::linear(vec![0, 1, 2])),
            b.intern(&PathSpec::looping(vec![0], vec![1, 2])),
        ];
        worker.routes = Arc::new(EpochRouteTable::new(b.build())).reader();
        worker.memo = Some(MemoConfig { sample_every: 1 });
        let metrics = worker.metrics.clone();
        for seq in 0..8 {
            producer.push(packet(seq, routes[seq as usize % 2]));
        }
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 8);
        let live = metrics.snapshot();
        drop(producer);
        handle.join().unwrap();
        let done = metrics.snapshot();
        assert_eq!((live.delivered, live.loop_events), (4, 4));
        let counts = |s: &crate::metrics::ShardSnapshot| {
            [
                s.packets,
                s.hops,
                s.loop_events,
                s.events_sent,
                s.events_suppressed,
                s.memo_hits,
                s.memo_misses,
                s.memo_sampled_walks,
            ]
        };
        assert_eq!(counts(&live), counts(&done), "nothing waits for the exit");
    }

    #[test]
    fn route_errors_follow_the_swapped_route() {
        // Gen 1: a 3-hop route whose last hop (99) is invalid — the walk
        // errors at hop 2. Gen 2 swaps the *same slot* to a 6-hop fully
        // valid route: a verdict carried over from the old route would
        // flag hop 2 of the new one as a spurious `route_error` (or,
        // worse, index past the old route's end).
        let (mut worker, producer, _ev_rx) = worker_fixture(8, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 99]),
        ])));
        worker.routes = table.reader();
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 1);
        table.publish(RouteSet::from_specs(&[PathSpec::linear(vec![
            0, 1, 2, 3, 4, 5,
        ])]));
        for seq in 1..=2 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 3);
        assert_eq!(snap.route_errors, 1, "only the gen-1 walk errors");
        assert_eq!(snap.delivered, 2, "gen-2 walks deliver, no spurious errors");
        // 2 valid hops before the gen-1 error + 6 per delivered walk.
        assert_eq!(snap.hops, 2 + 12);
        assert_eq!(snap.route_swaps_observed, 1);
        assert_eq!(snap.loops_after_swap, 0);
    }

    #[test]
    fn loops_after_swap_record_detection_latency() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
        ])));
        worker.routes = table.reader();
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 1);
        // Swap the flow's slot to a micro-loop, published mid-traffic.
        table.publish(RouteSet::from_specs(&[PathSpec::looping(
            vec![0],
            vec![1, 2],
        )]));
        producer.push(packet(1, route));
        producer.push(packet(2, route));
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 1, "the gen-1 packet delivered");
        assert_eq!(snap.loop_events, 2);
        assert_eq!(
            snap.loops_after_swap, 2,
            "both loops live in a post-startup generation"
        );
        assert_eq!(
            snap.detect_latency_ns.count, 1,
            "latency recorded once per generation per shard"
        );
        assert!(snap.detect_latency_ns.max < 10_000_000_000, "sane latency");
        assert_eq!(ev_rx.try_iter().count(), 2);
    }

    #[test]
    fn route_swap_never_serves_a_stale_memo_verdict() {
        // Gen 1 caches `Delivered` for slot 0. Gen 2 swaps the SAME
        // slot to a micro-loop with sampling disabled (`sample_every:
        // 0`), so only route-keyed invalidation stands between
        // post-swap packets and the stale cached verdict. A stale hit
        // would count them delivered and raise no loop events.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
        ])));
        worker.routes = table.reader();
        worker.memo = Some(MemoConfig { sample_every: 0 });
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        // Enough gen-1 packets to both fill and then hit the cache.
        for seq in 0..4 {
            producer.push(packet(seq, route));
        }
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 4);
        table.publish(RouteSet::from_specs(&[PathSpec::looping(
            vec![0],
            vec![1, 2],
        )]));
        for seq in 4..8 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 4, "only the gen-1 packets deliver");
        assert_eq!(snap.loop_events, 4, "every post-swap packet re-walks");
        assert_eq!(snap.route_swaps_observed, 1);
        assert!(snap.memo_hits >= 3, "gen-1 cache was actually serving");
        assert!(
            snap.memo_misses >= 2,
            "the swap forced at least one re-warm miss"
        );
        assert_eq!(ev_rx.try_iter().count(), 3, "detections 1, 2 and 4 report");
    }

    #[test]
    fn a_swap_rekeys_only_the_slots_whose_route_changed() {
        // Gen 1: two valid routes, both warmed into the memo. Gen 2
        // keeps slot 0's route, swaps slot 1 to a route through an
        // unknown node and adds slot 2, a micro-loop. Slot 0 must keep
        // serving its cached verdict with no new miss; slot 1's entry
        // must be dropped, so it walks into a route error instead of
        // serving the stale `Delivered`; slot 2 is provisioned by the
        // same pass. Sampling is off, so only the re-keying decides
        // what each slot serves.
        let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
            PathSpec::linear(vec![3, 4]),
        ])));
        worker.routes = table.reader();
        worker.memo = Some(MemoConfig { sample_every: 0 });
        let metrics = worker.metrics.clone();
        for seq in 0..4 {
            producer.push(packet(seq, RouteId::from_index(seq as usize % 2)));
        }
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 4);
        let warm = metrics.snapshot();
        assert_eq!((warm.memo_misses, warm.memo_hits), (2, 2));
        table.publish(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
            PathSpec::linear(vec![3, 99]),
            PathSpec::looping(vec![5], vec![4, 3]),
        ]));
        for seq in 4..10 {
            producer.push(packet(seq, RouteId::from_index(seq as usize % 3)));
        }
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 10);
        assert_eq!(snap.route_swaps_observed, 1);
        assert_eq!(
            snap.memo_misses - warm.memo_misses,
            2,
            "only the changed slot and the new one re-warm"
        );
        assert_eq!(
            snap.delivered, 6,
            "slot 0 delivers on both sides of the swap"
        );
        assert_eq!(snap.route_errors, 2, "slot 1 walked its new route");
        assert_eq!(snap.loop_events, 2, "slot 2 was provisioned and walks");
    }

    #[test]
    fn rekey_touches_only_stale_slots() {
        let set = RouteSet::from_specs(&[PathSpec::linear(vec![0, 9])]);
        let verdict = MemoVerdict::Delivered { hops: 2 };
        let mut memo = MemoTable::new(MemoConfig::default(), 1);
        memo.invalidate(1);
        memo.record(0, verdict, &[7]);
        rekey(&set, &set, &mut memo);
        assert_eq!(
            memo.lookup_verdict(0),
            Some(verdict),
            "a republished set costs nothing"
        );
        let equal = RouteSet::from_specs(&[PathSpec::linear(vec![0, 9])]);
        rekey(&set, &equal, &mut memo);
        assert_eq!(
            memo.lookup_verdict(0),
            Some(verdict),
            "an equal route is not stale"
        );
        let changed = RouteSet::from_specs(&[PathSpec::linear(vec![0, 8])]);
        rekey(&equal, &changed, &mut memo);
        assert_eq!(memo.lookup_verdict(0), None, "a changed route is dropped");
        memo.record(0, verdict, &[7]);
        let longer =
            RouteSet::from_specs(&[PathSpec::linear(vec![0, 8]), PathSpec::linear(vec![1])]);
        rekey(&RouteSet::default(), &longer, &mut memo);
        assert_eq!(
            memo.lookup_verdict(0),
            None,
            "a slot the old set lacked is dropped"
        );
        assert_eq!(memo.len(), 2, "and provisioned");
    }

    #[test]
    fn a_trapped_flow_reports_on_the_back_off_schedule() {
        let path = PathSpec::looping(vec![0], vec![1, 2, 3]);
        // A one-packet run raises the first detection's event.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, path.clone());
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let first = ev_rx
            .recv_timeout(RECV_WAIT)
            .expect("a first detection reports");

        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, path);
        let metrics = worker.metrics.clone();
        for seq in 0..200 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 200);
        assert_eq!(snap.events_sent, 9);
        assert_eq!(snap.events_suppressed, 191);
        let events: Vec<LoopEvent> = ev_rx.try_iter().collect();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        // Packet `seq` is detection `seq + 1`: 1, 2, 4 … 64, then 128, 192.
        assert_eq!(seqs, [0, 1, 3, 7, 15, 31, 63, 127, 191]);
        assert_eq!(events[0], first, "seq, hop, trigger and members");
    }

    #[test]
    fn carried_frames_bypass_the_memo() {
        // A generated packet caches `Delivered` for the route; a
        // replayed frame on the SAME route arrives pre-walked through
        // two other switches and must loop-report in its own bytes —
        // serving it the cached generated-walk verdict would silently
        // drop the detection.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 2, 3]));
        worker.memo = Some(MemoConfig { sample_every: 0 });
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut frame = build_frame(
            &layout,
            &EthernetHeader::for_hosts(0, 1),
            &WireHeader::initial(&layout),
            b"replayed",
        );
        UnrollerPipeline::new(100, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        UnrollerPipeline::new(101, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route)); // warms the cache
        let mut replayed = packet(1, route);
        replayed.frame = Some(frame.into_boxed_slice());
        producer.push(replayed);
        producer.push(packet(2, route)); // hits the cache
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 2, "both generated packets deliver");
        assert_eq!(snap.loop_events, 1, "the carried shim state is honored");
        assert_eq!(snap.memo_misses, 1);
        assert_eq!(snap.memo_hits, 1, "the replayed frame never consulted it");
        assert_eq!(ev_rx.try_iter().count(), 1);
    }

    /// Runs a fixed mixed workload — delivered, looping, route-error
    /// and TTL-capped routes interleaved — under the given memo mode
    /// and returns the shard snapshot.
    fn run_mixed(memo: Option<MemoConfig>) -> crate::metrics::ShardSnapshot {
        let (mut worker, producer, _ev_rx) = worker_fixture(12, 8);
        let mut b = RouteSetBuilder::new();
        let routes = [
            b.intern(&PathSpec::linear(vec![0, 1, 2, 3])),
            b.intern(&PathSpec::looping(vec![0], vec![1, 2, 3])),
            b.intern(&PathSpec::linear(vec![0, 1, 99])),
            // Ten distinct hops: nothing to revisit, so the TTL (8)
            // fires before the route ends.
            b.intern(&PathSpec::linear(vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9])),
        ];
        worker.routes = Arc::new(EpochRouteTable::new(b.build())).reader();
        worker.memo = memo;
        let metrics = worker.metrics.clone();
        for seq in 0..60 {
            producer.push(packet(seq, routes[seq as usize % routes.len()]));
        }
        drop(producer);
        worker.run();
        metrics.snapshot()
    }

    #[test]
    fn memoized_modes_match_walked_accounting() {
        let walked = run_mixed(None);
        assert_eq!(walked.packets, 60);
        assert_eq!(walked.delivered, 15);
        assert_eq!(walked.loop_events, 15);
        assert_eq!(walked.route_errors, 15);
        assert_eq!(walked.ttl_dropped, 15, "the long route outruns the TTL");
        for (name, snap) in [
            ("memo", run_mixed(Some(MemoConfig { sample_every: 1 }))),
            (
                "memo-unsampled",
                run_mixed(Some(MemoConfig { sample_every: 0 })),
            ),
        ] {
            assert_eq!(snap.packets, walked.packets, "{name}: packets");
            assert_eq!(snap.delivered, walked.delivered, "{name}: delivered");
            assert_eq!(snap.loop_events, walked.loop_events, "{name}: loops");
            assert_eq!(
                snap.route_errors, walked.route_errors,
                "{name}: route_errors"
            );
            assert_eq!(snap.ttl_dropped, walked.ttl_dropped, "{name}: ttl");
            assert_eq!(snap.hops, walked.hops, "{name}: hop totals");
            assert_eq!(snap.frame_errors, 0, "{name}: frame_errors");
            assert_eq!(snap.memo_divergence, 0, "{name}: divergence");
        }
        let memoized = run_mixed(Some(MemoConfig { sample_every: 1 }));
        assert_eq!(memoized.memo_misses, 4, "one warm-up walk per route");
        assert_eq!(memoized.memo_hits, 56);
        assert_eq!(
            memoized.memo_sampled_walks, 56,
            "paranoid mode re-walks every hit"
        );
    }

    /// The per-switch reference for one walk, in the worker's hop order
    /// (route end → unknown node → flip → kernel → TTL), with a whole
    /// frame operation at every hop: validate the frame with
    /// `ShimView::new`, decode the shim with the cursor codec
    /// (`WireHeader::decode`), run `process_header` (`process_header_ttl`
    /// with the hops walked so far under a TTL-inferred layout), and
    /// splice `WireHeader::encode` back on `Continue`.
    fn reference_walk(
        pipelines: &[UnrollerPipeline],
        layout: &HeaderLayout,
        route: &CompiledRoute,
        max_hops: u32,
        frame: &mut [u8],
        flip: Option<(u32, u32)>,
        flips: &mut u64,
    ) -> MemoVerdict {
        let mut hop = 0u32;
        loop {
            let Some(node) = route.hop(hop as usize) else {
                return MemoVerdict::Delivered { hops: hop };
            };
            let Some(pipeline) = pipelines.get(node) else {
                return MemoVerdict::RouteError { hops: hop };
            };
            if flip.is_some_and(|(at_hop, _)| at_hop == hop) {
                *flips += 1;
                if let Ok(mut view) = ShimView::new(layout, frame) {
                    view.flip_bit(flip.expect("checked").1);
                }
            }
            let verdict = ShimView::new(layout, frame).map(|_| ()).map(|()| {
                let shim = &mut frame[ETH_HEADER_LEN..];
                let mut hdr = WireHeader::decode(layout, shim).expect("validated frame");
                let verdict = if layout.xcnt_bits > 0 {
                    pipeline.process_header(&mut hdr)
                } else {
                    pipeline.process_header_ttl(&mut hdr, hop.min(255) as u8)
                };
                if verdict == Verdict::Continue {
                    let bytes = hdr.encode(layout);
                    shim[..bytes.len()].copy_from_slice(&bytes);
                }
                verdict
            });
            hop += 1;
            match verdict {
                Err(_) => return MemoVerdict::FrameError { hops: hop - 1 },
                Ok(v) if v.reported() => {
                    return MemoVerdict::Loop {
                        trigger: node as u32,
                        hop,
                    }
                }
                Ok(_) => {}
            }
            if hop >= max_hops {
                return MemoVerdict::TtlDropped { hops: hop };
            }
        }
    }

    fn random_key(rng: &mut impl Rng) -> FlowKey {
        FlowKey {
            src_ip: rng.gen(),
            dst_ip: rng.gen(),
            src_port: rng.gen(),
            dst_port: rng.gen(),
            proto: rng.gen(),
        }
    }

    /// A random flow key whose report-table set satisfies `keep`.
    fn key_in(rng: &mut impl Rng, keep: impl Fn(usize) -> bool) -> FlowKey {
        loop {
            let key = random_key(rng);
            if keep(ReportTable::set_of(&key)) {
                return key;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The report table's contract on random detection streams over
        /// twice as many flows as it holds: every flow's first detection
        /// reports; a flow never goes `REPORT_PERIOD` detections without
        /// a report, evicted or not; and a flow that cannot be evicted
        /// reports exactly at detections 1, 2, 4 … 64, then every 64th.
        /// Hot flows share a crowded set with cold ones (so they are
        /// evicted), and `REPORT_WAYS` hot flows own a quiet set no other
        /// flow maps to (so they never are).
        #[test]
        fn report_table_keeps_its_schedule_under_eviction(
            seed in any::<u64>(),
            crowded_hot in 1usize..=6,
            len in 4_000usize..16_000,
        ) {
            let mut rng = unroller_core::test_rng(seed);
            let quiet = rng.gen_range(0..REPORT_SETS);
            let crowded = (quiet + rng.gen_range(1..REPORT_SETS)) % REPORT_SETS;
            let mut hot: Vec<FlowKey> =
                (0..REPORT_WAYS).map(|_| key_in(&mut rng, |set| set == quiet)).collect();
            hot.extend((0..crowded_hot).map(|_| key_in(&mut rng, |set| set == crowded)));
            let mut cold: Vec<FlowKey> = (0..2 * REPORT_SETS * REPORT_WAYS)
                .map(|_| key_in(&mut rng, |set| set != quiet))
                .collect();
            cold.extend((0..2 * REPORT_WAYS).map(|_| key_in(&mut rng, |set| set == crowded)));

            let mut table = ReportTable::new();
            let mut reports: HashMap<FlowKey, Vec<bool>> = HashMap::new();
            for _ in 0..len {
                let flow = if rng.gen_bool(0.5) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    cold[rng.gen_range(0..cold.len())]
                };
                reports.entry(flow).or_default().push(table.should_report(flow));
            }

            for (flow, reported) in &reports {
                prop_assert!(reported[0], "first detection of {:?} unreported", flow);
                let longest_silence = reported
                    .split(|&r| r)
                    .map(|run| run.len())
                    .max()
                    .unwrap_or(0);
                prop_assert!(
                    longest_silence < REPORT_PERIOD as usize,
                    "{:?} went {} detections without a report", flow, longest_silence
                );
            }
            for flow in &hot[..REPORT_WAYS] {
                let reported = &reports[flow];
                let at: Vec<usize> = (1..=reported.len()).filter(|&n| reported[n - 1]).collect();
                let schedule: Vec<usize> = [1, 2, 4, 8, 16, 32]
                    .into_iter()
                    .chain((1..).map(|k| k * 64))
                    .take_while(|&n| n <= reported.len())
                    .collect();
                prop_assert_eq!(at, schedule);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The decode-once walk against the per-switch path: same
        /// verdict, same final frame bytes, same flip count, across
        /// parameter space (TTL-inferred layouts included), routes with
        /// unknown nodes, loops and TTL caps, carried shims with garbage
        /// in every bit (padding too), payloads short enough that field
        /// accesses fall back from the 8-byte window, scheduled flips,
        /// and truncated or foreign frames.
        #[test]
        fn walk_matches_the_per_switch_path(
            b in 2u32..=9,
            z in 1u32..=32,
            c in 1u32..=4,
            h in 1u32..=4,
            th in 1u32..=8,
            xcnt_in_header in prop::bool::ANY,
            nodes in 1usize..8,
            pre in prop::collection::vec(0usize..10, 0..8),
            cycle in prop::collection::vec(0usize..10, 0..5),
            max_hops in 1u32..48,
            shim in prop::collection::vec(any::<u8>(), 72),
            payload in prop::collection::vec(any::<u8>(), 0..=12),
            flip_at in 0u32..12,
            flip_bit in any::<u32>(),
            damage in 0usize..6,
            cut in any::<usize>(),
            ethertype in any::<u16>(),
        ) {
            let params = UnrollerParams {
                xcnt_in_header,
                ..UnrollerParams::default().with_b(b).with_z(z).with_c(c).with_h(h).with_th(th)
            };
            let layout = HeaderLayout::from_params(&params);
            let flip = (flip_at < 8).then_some((flip_at, flip_bit));
            let (worker, _producer, _events) = worker_fixture_for(params, nodes, max_hops);
            let spec = if cycle.is_empty() {
                PathSpec::linear(pre)
            } else {
                PathSpec::looping(pre, cycle)
            };
            let routes = RouteSet::from_specs(&[spec]);
            let route = routes.get(RouteId::from_index(0));

            let mut frame = build_frame(
                &layout,
                &EthernetHeader::for_hosts(0, 1),
                &WireHeader::initial(&layout),
                &payload,
            );
            let shim_end = ETH_HEADER_LEN + layout.total_bytes();
            frame[ETH_HEADER_LEN..shim_end].copy_from_slice(&shim[..layout.total_bytes()]);
            match damage {
                0 => frame.truncate(cut % shim_end),
                1 if ethertype != unroller_dataplane::ETHERTYPE_UNROLLER => {
                    frame[12..14].copy_from_slice(&ethertype.to_be_bytes());
                }
                _ => {}
            }
            let mut reference = frame.clone();

            // A stale header from an earlier walk must not leak in.
            let mut hdr = WireHeader::initial(&layout);
            hdr.xcnt = 200;
            let mut landed = 0;
            let walked = walk(
                &worker.pipelines,
                &layout,
                route.nodes(),
                max_hops,
                &mut frame,
                &mut hdr,
                flip.map(|(at_hop, bit)| Flip { at_hop, bit, landed: &mut landed }),
            );
            let mut flips = 0;
            let want = reference_walk(
                &worker.pipelines,
                &layout,
                route,
                max_hops,
                &mut reference,
                flip,
                &mut flips,
            );
            prop_assert_eq!(walked, want);
            prop_assert_eq!(&frame, &reference, "final frame bytes");
            prop_assert_eq!(landed, flips);
        }
    }
}
