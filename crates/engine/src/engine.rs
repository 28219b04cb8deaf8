//! The engine runtime: dispatcher → sharded workers → aggregator.
//!
//! ```text
//!                        ┌─ ring 0 ─▶ worker 0 (pipelines clone) ─┐
//!   TrafficSource ─▶ dispatcher (RSS by flow)                     ├─▶ MPSC ─▶ aggregator
//!                        └─ ring N ─▶ worker N (pipelines clone) ─┘        (dedupe → sink)
//! ```
//!
//! Invariants the runtime maintains:
//!
//! * **Flow affinity** — the dispatcher shards by
//!   [`FlowKey::shard`](crate::flow::FlowKey::shard), so a flow's
//!   packets always hit the same worker and its per-flow detection
//!   state is single-threaded by construction.
//! * **Bounded memory** — every ring has a fixed capacity; when full,
//!   the configured [`FullPolicy`] drops (counted) or blocks. Nothing
//!   queues unboundedly.
//! * **No hot-path locks** — workers own their pipelines and metrics;
//!   the only cross-thread traffic is ring hand-off and the (rare)
//!   loop-event channel.
//! * **Total accounting, even under faults** — every offered packet is
//!   enqueued, dropped at a full ring, shed under overload, or
//!   quarantined at ingress; every enqueued packet is processed or
//!   counted lost to a (supervised) worker panic. [`EngineReport::accounted`]
//!   checks the full identity and holds with an active
//!   [`FaultPlan`]. Every detection is reported or suppressed by its
//!   shard, and every reported event reaches the aggregator unless a
//!   fault dropped it; [`EngineReport::events_accounted`] checks that.

use crate::aggregate::{aggregate_with, AggregatorReport, LoopEvent};
use crate::epoch::EpochRouteTable;
use crate::eventlog::{EventLogWriter, RunMeta};
use crate::faults::{
    inject_panic, install_quiet_panic_hook, EventFaults, FaultPlan, InjectedPanic,
};
use crate::flow::FlowKey;
use crate::json::Json;
use crate::memo::MemoConfig;
use crate::metrics::{ShardMetrics, ShardSnapshot};
use crate::packet::EnginePacket;
use crate::ring::{ring, FullPolicy, RingCounters, RingCountersSnapshot};
use crate::source::TrafficSource;
use crate::supervise::{run_watchdog, Shedder, WatchShard, WatchdogReport};
use crate::worker::ShardWorker;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unroller_core::params::{ParamError, UnrollerParams};
use unroller_core::SwitchId;
use unroller_dataplane::{HeaderLayout, UnrollerPipeline};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker shard count.
    pub shards: usize,
    /// Max packets per ring pull / processing batch.
    pub batch_size: usize,
    /// Per-shard ring capacity (packets).
    pub ring_capacity: usize,
    /// Hop budget per packet (the TTL).
    pub max_hops: u32,
    /// Detector parameters provisioned into every pipeline.
    pub params: UnrollerParams,
    /// Backpressure policy on full rings.
    pub full_policy: FullPolicy,
    /// When set, a monitor thread prints a JSON metrics snapshot to
    /// stderr at this interval while the run is live.
    pub snapshot_every: Option<Duration>,
    /// Fault-injection plan; [`FaultPlan::default`] (all rates zero)
    /// runs fault-free with zero hot-path overhead.
    pub faults: FaultPlan,
    /// Enables ingress overload shedding: saturated rings shed the
    /// lowest-priority flows (counted) instead of degrading everyone.
    pub shed: bool,
    /// When set, a watchdog thread polls shard progress at this
    /// interval and kicks shards that stop consuming a non-empty ring.
    pub watchdog: Option<Duration>,
    /// Flows quarantined at ingress (dropped before sharding, counted)
    /// — the controller's degraded-mode answer to a loop it failed to
    /// heal.
    pub quarantine: Vec<FlowKey>,
    /// Pin each shard's worker thread to a CPU core (`shard % cpus`,
    /// via `sched_setaffinity`; Linux only, no-op elsewhere). Off by
    /// default: pinning helps on dedicated cores and hurts on
    /// oversubscribed ones. Which core each shard landed on is
    /// recorded per shard in the metrics JSON (`pinned_core`).
    pub pin_cores: bool,
    /// When set, the aggregator streams every deduplicated loop event
    /// to a JSONL log *during* the run (one flush per record), so runs
    /// that die mid-flight — supervised worker restarts, injected
    /// panics, even a killed process — still leave a parseable log
    /// behind instead of losing everything to a post-run export that
    /// never happens.
    pub events_log: Option<EventsLogConfig>,
    /// Per-route verdict memoization for generated traffic
    /// ([`MemoConfig::sample_every`] sets the 1-in-N cross-check rate);
    /// `None` walks every packet.
    pub memo: Option<MemoConfig>,
}

/// Where and under what identity [`EngineConfig::events_log`] writes.
#[derive(Debug, Clone)]
pub struct EventsLogConfig {
    /// Log file path (created/truncated; parent dirs made as needed).
    pub path: String,
    /// Run identity stamped into the log header.
    pub meta: RunMeta,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 2,
            batch_size: 64,
            ring_capacity: 1024,
            max_hops: 64,
            params: UnrollerParams::default(),
            full_policy: FullPolicy::Drop,
            snapshot_every: None,
            faults: FaultPlan::default(),
            shed: false,
            watchdog: None,
            quarantine: Vec::new(),
            pin_cores: false,
            events_log: None,
            memo: None,
        }
    }
}

/// Engine errors: configuration problems caught before any thread
/// spawns, plus the one runtime failure the engine cannot absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `shards` was 0.
    NoShards,
    /// `batch_size` was 0.
    ZeroBatch,
    /// `ring_capacity` was 0.
    ZeroRing,
    /// `max_hops` was 0.
    ZeroTtl,
    /// No switch IDs were provisioned.
    NoSwitches,
    /// The detector parameters failed validation.
    BadParams(ParamError),
    /// The event log file could not be created (checked before any
    /// thread spawns; carries the I/O error's message).
    EventLogIo(String),
    /// The aggregator thread panicked; carries the panic payload's
    /// message. Workers are supervised and restartable, but a dead
    /// aggregator means loop events were lost unobserved — the run's
    /// detection claims are void, so this surfaces as an error instead
    /// of a report.
    AggregatorPanicked(String),
    /// The watchdog thread panicked; carries the panic payload's
    /// message. Unlike an aggregator loss this does **not** void the
    /// run — detection and accounting are untouched — so
    /// [`Engine::run`] degrades to a default watchdog summary and
    /// reports the panic in
    /// [`EngineReport::watchdog_panic`]; this typed error is what
    /// [`EngineReport::watchdog_error`] hands callers that want to
    /// treat a dead watchdog as fatal.
    WatchdogPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoShards => write!(f, "shard count must be >= 1"),
            EngineError::ZeroBatch => write!(f, "batch size must be >= 1"),
            EngineError::ZeroRing => write!(f, "ring capacity must be >= 1"),
            EngineError::ZeroTtl => write!(f, "max hops must be >= 1"),
            EngineError::NoSwitches => write!(f, "at least one switch ID required"),
            EngineError::BadParams(e) => write!(f, "invalid detector parameters: {e}"),
            EngineError::EventLogIo(e) => write!(f, "cannot open event log: {e}"),
            EngineError::AggregatorPanicked(msg) => {
                write!(f, "loop-event aggregator panicked: {msg}")
            }
            EngineError::WatchdogPanicked(msg) => {
                write!(f, "watchdog panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Extracts a human-readable message from a panic payload (the
/// `Box<dyn Any>` that `JoinHandle::join` returns on the `Err` path).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The complete result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Shard count the run used.
    pub shards: usize,
    /// Per-shard metrics.
    pub shard_snapshots: Vec<ShardSnapshot>,
    /// Per-shard ring counters (same indexing).
    pub ring_snapshots: Vec<RingCountersSnapshot>,
    /// Aggregated, deduplicated loop events.
    pub aggregator: AggregatorReport,
    /// Packets the source offered to the dispatcher.
    pub offered: u64,
    /// Packets dropped at ingress because their flow was quarantined.
    pub quarantined: u64,
    /// What the watchdog observed (all-zero when it was disabled).
    pub watchdog: WatchdogReport,
    /// Panic message if the watchdog thread died mid-run. The run
    /// itself — detection, accounting — is unaffected; `watchdog` holds
    /// the default (all-zero) summary in that case.
    pub watchdog_panic: Option<String>,
    /// The fault plan the run executed (inactive by default).
    pub faults: FaultPlan,
    /// Whether shard-to-core pinning was requested for this run (the
    /// per-shard `pinned_core` metric records where each shard landed).
    pub pin_cores: bool,
    /// Event records streamed to the JSONL log (`None` when no log was
    /// configured).
    pub events_logged: Option<u64>,
    /// The first I/O error hit while streaming the event log, if any.
    /// Logging degrades (stops writing, keeps counting the run) rather
    /// than voiding detection results over a full disk.
    pub event_log_error: Option<String>,
    /// Whether per-route verdict memoization was enabled for this run.
    pub memo_enabled: bool,
    /// Wall-clock duration of the run.
    pub wall_ns: u64,
    /// Host cores available — read this before comparing shard counts:
    /// with fewer cores than shards, wall throughput time-shares while
    /// `aggregate_capacity_pps` still measures true per-shard cost.
    pub cpus: usize,
}

impl EngineReport {
    /// Packets processed across all shards.
    pub fn processed(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.packets).sum()
    }

    /// Packets dropped at ring enqueue (backpressure).
    pub fn dropped_full(&self) -> u64 {
        self.ring_snapshots.iter().map(|r| r.dropped_full).sum()
    }

    /// Packets shed at ingress under overload.
    pub fn shed(&self) -> u64 {
        self.ring_snapshots.iter().map(|r| r.shed).sum()
    }

    /// Packets lost to supervised worker panics.
    pub fn panic_lost(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.panic_lost).sum()
    }

    /// Worker restarts performed by the supervisor.
    pub fn restarts(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.restarts).sum()
    }

    /// Wall-clock throughput: processed packets per second of run time.
    pub fn wall_pps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.processed() as f64 * 1e9 / self.wall_ns as f64
    }

    /// Aggregate processing capacity: the sum over shards of packets
    /// per second of *CPU time*. On a machine with ≥ `shards` free
    /// cores this converges to wall throughput; on fewer cores it is
    /// the honest scaling measure (time-sharing inflates wall time but
    /// not CPU cost).
    pub fn aggregate_capacity_pps(&self) -> f64 {
        self.shard_snapshots.iter().map(|s| s.capacity_pps()).sum()
    }

    /// Whether at least one loop was detected and reported.
    pub fn loop_detected(&self) -> bool {
        self.aggregator.unique_flows > 0
    }

    /// Memo-table hits across all shards.
    pub fn memo_hits(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.memo_hits).sum()
    }

    /// Memo-table misses (warming walks) across all shards.
    pub fn memo_misses(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.memo_misses).sum()
    }

    /// Sampled cross-check walks across all shards.
    pub fn memo_sampled_walks(&self) -> u64 {
        self.shard_snapshots
            .iter()
            .map(|s| s.memo_sampled_walks)
            .sum()
    }

    /// Cache/walk divergences across all shards — must be 0; any other
    /// value means the memoized fast path disagreed with a full walk.
    pub fn memo_divergence(&self) -> u64 {
        self.shard_snapshots.iter().map(|s| s.memo_divergence).sum()
    }

    /// The typed error for a watchdog panic, when one occurred — for
    /// callers that treat losing stall supervision as fatal even though
    /// the run's detection claims still hold.
    pub fn watchdog_error(&self) -> Option<EngineError> {
        self.watchdog_panic
            .as_ref()
            .map(|msg| EngineError::WatchdogPanicked(msg.clone()))
    }

    /// Every offered packet is accounted for — enqueued, dropped at
    /// the ring, shed under overload, or quarantined at ingress — and
    /// everything enqueued was processed or counted lost to a
    /// supervised panic. Holds under an active fault plan; that is the
    /// point.
    pub fn accounted(&self) -> bool {
        let enqueued: u64 = self.ring_snapshots.iter().map(|r| r.enqueued).sum();
        self.offered == enqueued + self.dropped_full() + self.shed() + self.quarantined
            && enqueued == self.processed() + self.panic_lost()
    }

    /// Every detection is accounted for, and so is every loop event:
    /// on each shard `loop_events == events_sent + events_suppressed`,
    /// and the aggregator received exactly the sent events, minus
    /// injected drops and failed sends, plus injected duplicates. Holds
    /// under an active fault plan.
    pub fn events_accounted(&self) -> bool {
        let shards_split = self
            .shard_snapshots
            .iter()
            .all(|s| s.loop_events == s.events_sent + s.events_suppressed);
        let (sent, lost) = self.shard_snapshots.iter().fold((0, 0), |(sent, lost), s| {
            (
                sent + s.events_sent + s.events_duplicated_injected,
                lost + s.events_dropped_injected + s.events_send_failed,
            )
        });
        shards_split && self.aggregator.events_received + lost == sent
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("shards", Json::UInt(self.shards as u64));
        obj.set("cpus", Json::UInt(self.cpus as u64));
        obj.set("offered", Json::UInt(self.offered));
        obj.set("processed", Json::UInt(self.processed()));
        obj.set("dropped_full", Json::UInt(self.dropped_full()));
        obj.set("shed", Json::UInt(self.shed()));
        obj.set("quarantined", Json::UInt(self.quarantined));
        obj.set("panic_lost", Json::UInt(self.panic_lost()));
        obj.set("restarts", Json::UInt(self.restarts()));
        obj.set("pin_cores", Json::Bool(self.pin_cores));
        obj.set("wall_ns", Json::UInt(self.wall_ns));
        obj.set("wall_pps", Json::Float(self.wall_pps()));
        obj.set(
            "aggregate_capacity_pps",
            Json::Float(self.aggregate_capacity_pps()),
        );
        obj.set("loop_detected", Json::Bool(self.loop_detected()));
        obj.set("accounted", Json::Bool(self.accounted()));
        obj.set("events_accounted", Json::Bool(self.events_accounted()));
        let mut memo = Json::object();
        memo.set("enabled", Json::Bool(self.memo_enabled));
        memo.set("hits", Json::UInt(self.memo_hits()));
        memo.set("misses", Json::UInt(self.memo_misses()));
        memo.set("sampled_walks", Json::UInt(self.memo_sampled_walks()));
        memo.set("divergence", Json::UInt(self.memo_divergence()));
        obj.set("memo", memo);
        if let Some(n) = self.events_logged {
            obj.set("events_logged", Json::UInt(n));
        }
        if let Some(err) = &self.event_log_error {
            obj.set("event_log_error", Json::Str(err.clone()));
        }
        if self.faults.active() {
            obj.set("fault_plan", self.faults.to_json());
        }
        let mut watchdog = Json::object();
        watchdog.set("polls", Json::UInt(self.watchdog.polls));
        watchdog.set("stalls_detected", Json::UInt(self.watchdog.stalls_detected));
        watchdog.set("kicks", Json::UInt(self.watchdog.kicks));
        if let Some(msg) = &self.watchdog_panic {
            watchdog.set("panicked", Json::Str(msg.clone()));
        }
        obj.set("watchdog", watchdog);
        obj.set(
            "rings",
            Json::Array(
                self.ring_snapshots
                    .iter()
                    .map(|r| {
                        let mut o = Json::object();
                        o.set("enqueued", Json::UInt(r.enqueued));
                        o.set("dropped_full", Json::UInt(r.dropped_full));
                        o.set("stalls", Json::UInt(r.stalls));
                        o.set("shed", Json::UInt(r.shed));
                        o
                    })
                    .collect(),
            ),
        );
        obj.set(
            "shard_metrics",
            Json::Array(self.shard_snapshots.iter().map(|s| s.to_json()).collect()),
        );
        obj.set("aggregator", self.aggregator.to_json());
        obj
    }
}

/// The sharded engine. Construction validates the configuration and
/// compiles one pipeline per switch; [`Engine::run`] clones that
/// pipeline set into each worker.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    ids: Arc<[SwitchId]>,
    pipelines: Arc<Vec<UnrollerPipeline>>,
    layout: HeaderLayout,
}

impl Engine {
    /// Builds an engine over the given switch-ID assignment
    /// (`ids[node]` is node's switch ID, matching the simulator's).
    pub fn new(cfg: EngineConfig, ids: &[SwitchId]) -> Result<Self, EngineError> {
        if cfg.shards == 0 {
            return Err(EngineError::NoShards);
        }
        if cfg.batch_size == 0 {
            return Err(EngineError::ZeroBatch);
        }
        if cfg.ring_capacity == 0 {
            return Err(EngineError::ZeroRing);
        }
        if cfg.max_hops == 0 {
            return Err(EngineError::ZeroTtl);
        }
        if ids.is_empty() {
            return Err(EngineError::NoSwitches);
        }
        let pipelines = ids
            .iter()
            .map(|&id| UnrollerPipeline::new(id, cfg.params))
            .collect::<Result<Vec<_>, _>>()
            .map_err(EngineError::BadParams)?;
        Ok(Engine {
            layout: HeaderLayout::from_params(&cfg.params),
            ids: ids.into(),
            pipelines: Arc::new(pipelines),
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Drives the source to exhaustion through the sharded pipeline and
    /// returns the full report. The dispatcher runs on the calling
    /// thread; workers, the aggregator, the watchdog, and the optional
    /// metrics monitor run on scoped threads that are all joined before
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`EngineError::AggregatorPanicked`] if the aggregator thread
    /// died: worker panics are supervised in place, but an aggregator
    /// loss silently voids every detection claim, so it is the one
    /// runtime failure reported as an error rather than absorbed.
    pub fn run(&self, source: &mut dyn TrafficSource) -> Result<EngineReport, EngineError> {
        let shards = self.cfg.shards;
        let mut producers = Vec::with_capacity(shards);
        let mut consumers = Vec::with_capacity(shards);
        let mut ring_counters: Vec<Arc<RingCounters>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (p, c, counters) = ring(self.cfg.ring_capacity, self.cfg.full_policy);
            producers.push(p);
            consumers.push(c);
            ring_counters.push(counters);
        }
        let metrics: Vec<Arc<ShardMetrics>> = (0..shards)
            .map(|_| Arc::new(ShardMetrics::default()))
            .collect();
        let kicks: Vec<Arc<AtomicBool>> = (0..shards)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let (ev_tx, ev_rx) = std::sync::mpsc::channel::<LoopEvent>();
        // Open the event log before spawning anything: a bad path is a
        // configuration error, not a mid-run surprise.
        let log_writer = match &self.cfg.events_log {
            Some(log) => Some(
                EventLogWriter::create(&log.path, &log.meta)
                    .map_err(|e| EngineError::EventLogIo(e.to_string()))?,
            ),
            None => None,
        };
        let plan = &self.cfg.faults;
        let quarantine: HashSet<FlowKey> = self.cfg.quarantine.iter().copied().collect();
        // The run's route table. A churn-capable source hands over the
        // live epoch table it publishes new generations into; every
        // other source gets its frozen route set wrapped as generation
        // 1 of a table that never swaps. Either way each worker holds a
        // lock-free reader onto it.
        let route_table = source
            .route_table()
            .unwrap_or_else(|| Arc::new(EpochRouteTable::new(source.routes())));
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);

        let start = Instant::now();
        let mut offered = 0u64;
        let mut quarantined = 0u64;
        let done = AtomicBool::new(false);
        let watchdog_stop = AtomicBool::new(false);

        let joined = std::thread::scope(|scope| {
            for (shard, consumer) in consumers.into_iter().enumerate() {
                let worker = ShardWorker {
                    shard,
                    pipelines: self.pipelines.clone(),
                    ids: self.ids.clone(),
                    routes: route_table.reader(),
                    layout: self.layout,
                    max_hops: self.cfg.max_hops,
                    batch_size: self.cfg.batch_size,
                    metrics: metrics[shard].clone(),
                    events: ev_tx.clone(),
                    consumer,
                    faults: plan.active().then(|| plan.for_shard(shard)),
                    event_faults: if plan.active() {
                        plan.event_faults(shard)
                    } else {
                        EventFaults::inactive()
                    },
                    kick: kicks[shard].clone(),
                    pin_core: self.cfg.pin_cores.then_some(shard % cpus),
                    memo: self.cfg.memo,
                };
                scope.spawn(move || worker.run());
            }
            // Workers hold their own senders now; dropping ours lets the
            // aggregator terminate once every worker has exited.
            drop(ev_tx);
            // The aggregator owns the log writer: each first-per-flow
            // event is written and flushed as it arrives, so the log on
            // disk is always a whole-line prefix of the final log. If
            // the aggregator thread dies mid-run, `BufWriter`'s drop
            // still flushes during unwind — partial runs stay parseable.
            let agg_handle = scope.spawn(move || {
                let mut writer = log_writer;
                let mut io_error: Option<String> = None;
                let report = aggregate_with(ev_rx, |event| {
                    if io_error.is_some() {
                        return;
                    }
                    if let Some(w) = writer.as_mut() {
                        if let Err(e) = w.write_event(event).and_then(|()| w.flush()) {
                            io_error = Some(e.to_string());
                        }
                    }
                });
                let logged = match (writer, &io_error) {
                    (Some(w), None) => w.finish().ok(),
                    _ => None,
                };
                (report, logged, io_error)
            });

            let watchdog_handle = self.cfg.watchdog.map(|interval| {
                let watch: Vec<WatchShard> = (0..shards)
                    .map(|shard| WatchShard {
                        metrics: metrics[shard].clone(),
                        counters: ring_counters[shard].clone(),
                        kick: kicks[shard].clone(),
                    })
                    .collect();
                let stop = &watchdog_stop;
                let wdpanic = plan.watchdog_panic;
                scope.spawn(move || {
                    if wdpanic {
                        install_quiet_panic_hook();
                        inject_panic(usize::MAX);
                    }
                    run_watchdog(&watch, interval, stop)
                })
            });

            if let Some(every) = self.cfg.snapshot_every {
                let metrics = &metrics;
                let ring_counters = &ring_counters;
                let done = &done;
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        std::thread::sleep(every);
                        let mut snap = Json::object();
                        snap.set(
                            "packets",
                            Json::UInt(metrics.iter().map(|m| m.snapshot().packets).sum::<u64>()),
                        );
                        snap.set(
                            "dropped_full",
                            Json::UInt(
                                ring_counters
                                    .iter()
                                    .map(|r| r.snapshot().dropped_full)
                                    .sum::<u64>(),
                            ),
                        );
                        snap.set(
                            "loop_events",
                            Json::UInt(
                                metrics
                                    .iter()
                                    .map(|m| m.snapshot().loop_events)
                                    .sum::<u64>(),
                            ),
                        );
                        eprintln!("{}", snap.render());
                    }
                });
            }

            // The dispatcher: pull bursts from the source, RSS each
            // packet into a per-shard staging buffer — minus
            // quarantined flows (dropped at ingress) and, under
            // overload, shed ones — then hand each shard its slice of
            // the burst in ONE batched ring push. Staging buffers are
            // reused across bursts, so steady-state dispatch allocates
            // nothing.
            let mut shedder = Shedder::new(shards, self.cfg.shed);
            let mut burst: Vec<EnginePacket> = Vec::with_capacity(self.cfg.batch_size * shards);
            let mut staged: Vec<Vec<EnginePacket>> = (0..shards)
                .map(|_| Vec::with_capacity(self.cfg.batch_size * shards))
                .collect();
            loop {
                burst.clear();
                if source.fill(self.cfg.batch_size * shards, &mut burst) == 0 {
                    break;
                }
                offered += burst.len() as u64;
                for packet in burst.drain(..) {
                    if !quarantine.is_empty() && quarantine.contains(&packet.flow) {
                        quarantined += 1;
                        continue;
                    }
                    let shard = packet.flow.shard(shards);
                    if shedder.should_shed(shard, &packet.flow) {
                        producers[shard].record_shed();
                        continue;
                    }
                    staged[shard].push(packet);
                }
                for (shard, stage) in staged.iter_mut().enumerate() {
                    if stage.is_empty() {
                        continue;
                    }
                    let result = producers[shard].push_batch(stage);
                    shedder.observe_batch(shard, &result);
                }
            }
            // Closing the rings ends the workers; their event senders
            // drop as they exit, which ends the aggregator.
            drop(producers);
            let aggregator = agg_handle.join();
            done.store(true, Ordering::Relaxed);
            watchdog_stop.store(true, Ordering::Relaxed);
            // A watchdog panic must not abort a finished run: every
            // packet is already accounted, so degrade to the default
            // (all-zero) summary and surface the panic message instead
            // of losing the report to an `expect`.
            let (watchdog, watchdog_panic) = match watchdog_handle.map(|h| h.join()) {
                None => (WatchdogReport::default(), None),
                Some(Ok(report)) => (report, None),
                Some(Err(payload)) => {
                    let msg = if payload.is::<InjectedPanic>() {
                        "injected watchdog panic (fault plan)".to_string()
                    } else {
                        panic_message(payload)
                    };
                    (WatchdogReport::default(), Some(msg))
                }
            };
            (aggregator, watchdog, watchdog_panic)
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (aggregator, watchdog, watchdog_panic) = joined;
        let (aggregator, events_logged, event_log_error) = aggregator
            .map_err(|payload| EngineError::AggregatorPanicked(panic_message(payload)))?;

        Ok(EngineReport {
            shards,
            shard_snapshots: metrics.iter().map(|m| m.snapshot()).collect(),
            ring_snapshots: ring_counters.iter().map(|r| r.snapshot()).collect(),
            aggregator,
            offered,
            quarantined,
            watchdog,
            watchdog_panic,
            faults: self.cfg.faults.clone(),
            pin_cores: self.cfg.pin_cores,
            events_logged,
            event_log_error,
            memo_enabled: self.cfg.memo.is_some(),
            wall_ns,
            cpus,
        })
    }
}

/// Convenience: RSS mapping for an arbitrary flow (used by tests and
/// the proptest suite to cross-check the dispatcher).
pub fn shard_of(flow: &FlowKey, shards: usize) -> usize {
    flow.shard(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;

    fn ids(n: u32) -> Vec<SwitchId> {
        (0..n).map(|i| 1000 + i).collect()
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        let ids = ids(4);
        for (cfg, err) in [
            (
                EngineConfig {
                    shards: 0,
                    ..EngineConfig::default()
                },
                EngineError::NoShards,
            ),
            (
                EngineConfig {
                    batch_size: 0,
                    ..EngineConfig::default()
                },
                EngineError::ZeroBatch,
            ),
            (
                EngineConfig {
                    ring_capacity: 0,
                    ..EngineConfig::default()
                },
                EngineError::ZeroRing,
            ),
            (
                EngineConfig {
                    max_hops: 0,
                    ..EngineConfig::default()
                },
                EngineError::ZeroTtl,
            ),
        ] {
            assert_eq!(Engine::new(cfg, &ids).unwrap_err(), err);
        }
        assert_eq!(
            Engine::new(EngineConfig::default(), &[]).unwrap_err(),
            EngineError::NoSwitches
        );
    }

    #[test]
    fn clean_traffic_flows_through_all_shards() {
        let engine = Engine::new(
            EngineConfig {
                shards: 4,
                full_policy: FullPolicy::Block,
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        let mut source = SyntheticSource::new(64, 32, 2_000, 0, 0, 9);
        let report = engine.run(&mut source).expect("fault-free run");
        assert_eq!(report.offered, 2_000);
        assert_eq!(report.processed(), 2_000);
        assert!(report.accounted(), "{report:?}");
        assert!(!report.loop_detected());
        assert_eq!(report.dropped_full(), 0, "Block policy never drops");
        let busy_shards = report
            .shard_snapshots
            .iter()
            .filter(|s| s.packets > 0)
            .count();
        assert!(busy_shards >= 3, "RSS should spread 32 flows over 4 shards");
    }

    #[test]
    fn looping_traffic_is_detected_and_deduplicated() {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                full_policy: FullPolicy::Block,
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        // Every 4th of 16 flows loops from packet 500 of 4000.
        let mut source = SyntheticSource::new(64, 16, 4_000, 4, 500, 10);
        let report = engine.run(&mut source).expect("fault-free run");
        assert!(report.loop_detected());
        assert!(report.accounted());
        assert_eq!(report.aggregator.unique_flows, 4);
        assert!(
            report.aggregator.duplicates_suppressed > 0,
            "trapped flows re-detect every packet; dedupe must kick in"
        );
        assert!(report.events_accounted(), "{report:?}");
        let detections: u64 = report.shard_snapshots.iter().map(|s| s.loop_events).sum();
        assert!(
            report.aggregator.events_received < detections,
            "shards suppress repeat detections before the channel"
        );
    }

    #[test]
    fn run_report_serializes() {
        let engine = Engine::new(EngineConfig::default(), &ids(16)).unwrap();
        let mut source = SyntheticSource::new(16, 4, 100, 0, 0, 3);
        let report = engine.run(&mut source).expect("fault-free run");
        let rendered = report.to_json().render_pretty();
        for key in [
            "wall_pps",
            "aggregate_capacity_pps",
            "dropped_full",
            "cpus",
            "shard_metrics",
            "shed",
            "quarantined",
            "watchdog",
            "pin_cores",
            "pinned_core",
            "memo",
            "sampled_walks",
        ] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }

    #[test]
    fn pinned_run_records_cores_and_still_accounts() {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                full_policy: FullPolicy::Block,
                pin_cores: true,
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        let mut source = SyntheticSource::new(64, 8, 1_000, 0, 0, 21);
        let report = engine.run(&mut source).expect("fault-free run");
        assert!(report.pin_cores);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.processed(), 1_000);
        if cfg!(target_os = "linux") {
            for (shard, snap) in report.shard_snapshots.iter().enumerate() {
                assert_eq!(
                    snap.pinned_core,
                    Some((shard % report.cpus) as u64),
                    "shard {shard} pinned round-robin"
                );
            }
        }
    }

    #[test]
    fn events_log_streams_and_survives_injected_panics() {
        let path = std::env::temp_dir()
            .join(format!("unroller_evlog_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let meta = RunMeta {
            run_id: RunMeta::derived_run_id("synthetic:64", 10, 1),
            seed: 10,
            topology: "synthetic:64".to_string(),
            nodes: 64,
            flows: 16,
            packets: 4_000,
            shards: 2,
            epoch: 1,
            id_base: 1000,
            injection: None,
        };
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                full_policy: FullPolicy::Block,
                // Panics mid-run exercise the supervised-restart path
                // while the log is live.
                faults: FaultPlan::parse("seed=5,panic=0.002,restarts=8").unwrap(),
                events_log: Some(EventsLogConfig {
                    path: path.clone(),
                    meta,
                }),
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        let mut source = SyntheticSource::new(64, 16, 4_000, 4, 500, 10);
        let report = engine.run(&mut source).expect("supervised run completes");
        assert!(report.restarts() > 0, "panic faults should have fired");
        assert!(report.loop_detected());
        assert_eq!(report.event_log_error, None);
        let logged = report.events_logged.expect("log was configured");
        assert_eq!(logged, report.aggregator.events.len() as u64);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, logged + 1, "header + one per event");
        assert!(lines[0].starts_with("{\"unroller_event_log\":1,"));
        assert!(lines.iter().all(|l| l.ends_with('}')), "whole lines only");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_events_log_path_fails_before_spawning() {
        let engine = Engine::new(
            EngineConfig {
                events_log: Some(EventsLogConfig {
                    path: "/dev/null/not-a-dir/log.jsonl".to_string(),
                    meta: RunMeta {
                        run_id: "x".to_string(),
                        seed: 0,
                        topology: "synthetic:4".to_string(),
                        nodes: 4,
                        flows: 1,
                        packets: 1,
                        shards: 1,
                        epoch: 0,
                        id_base: 1000,
                        injection: None,
                    },
                }),
                ..EngineConfig::default()
            },
            &ids(4),
        )
        .unwrap();
        let mut source = SyntheticSource::new(4, 1, 10, 0, 0, 1);
        match engine.run(&mut source) {
            Err(EngineError::EventLogIo(_)) => {}
            other => panic!("expected EventLogIo, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_panic_degrades_to_default_summary() {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                full_policy: FullPolicy::Block,
                watchdog: Some(Duration::from_millis(5)),
                faults: FaultPlan::parse("wdpanic=1").unwrap(),
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        let mut source = SyntheticSource::new(64, 8, 2_000, 4, 100, 13);
        let report = engine
            .run(&mut source)
            .expect("a dead watchdog must not abort the run");
        assert!(report.accounted(), "{report:?}");
        assert!(report.loop_detected());
        assert_eq!(
            report.watchdog,
            WatchdogReport::default(),
            "default summary"
        );
        let msg = report
            .watchdog_panic
            .clone()
            .expect("the panic is surfaced, not swallowed");
        match report.watchdog_error() {
            Some(EngineError::WatchdogPanicked(m)) => assert_eq!(m, msg),
            other => panic!("expected WatchdogPanicked, got {other:?}"),
        }
        assert!(report.to_json().render().contains("panicked"));
    }

    #[test]
    fn tiny_rings_with_drop_policy_account_for_losses() {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                ring_capacity: 1,
                batch_size: 1,
                full_policy: FullPolicy::Drop,
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        let mut source = SyntheticSource::new(64, 32, 5_000, 0, 0, 4);
        let report = engine.run(&mut source).expect("fault-free run");
        assert!(report.accounted(), "drops must be counted, never silent");
        assert_eq!(report.processed() + report.dropped_full(), 5_000);
    }

    #[test]
    fn quarantined_flows_are_dropped_at_ingress_and_accounted() {
        // Quarantine a flow the source actually emits (keys derive from
        // the flow's random walk endpoints, so probe the source for one).
        let looping = SyntheticSource::new(64, 8, 2_000, 1, 0, 11).looping_flow_keys()[0];
        let clean_run = |quarantine: Vec<FlowKey>| {
            let engine = Engine::new(
                EngineConfig {
                    shards: 2,
                    full_policy: FullPolicy::Block,
                    quarantine,
                    ..EngineConfig::default()
                },
                &ids(64),
            )
            .unwrap();
            let mut source = SyntheticSource::new(64, 8, 2_000, 1, 0, 11);
            engine.run(&mut source).expect("fault-free run")
        };
        let before = clean_run(Vec::new());
        assert!(before.loop_detected(), "every flow loops in this source");
        let after = clean_run(vec![looping]);
        assert!(after.quarantined > 0, "the flow's packets were intercepted");
        assert!(after.accounted(), "{after:?}");
        assert_eq!(
            after.processed() + after.quarantined,
            2_000,
            "quarantine drops exactly the intercepted packets"
        );
    }

    #[test]
    fn overload_shedding_sheds_low_priority_and_accounts() {
        let engine = Engine::new(
            EngineConfig {
                shards: 2,
                ring_capacity: 1,
                batch_size: 1,
                full_policy: FullPolicy::Drop,
                shed: true,
                ..EngineConfig::default()
            },
            &ids(64),
        )
        .unwrap();
        // Heavy traffic into capacity-1 rings: rings saturate, the
        // shedder engages, and every outcome is still accounted.
        let mut source = SyntheticSource::new(64, 64, 20_000, 0, 0, 12);
        let report = engine.run(&mut source).expect("fault-free run");
        assert!(report.accounted(), "{report:?}");
        assert!(report.shed() > 0, "saturated rings shed under overload");
        assert_eq!(
            report.processed() + report.dropped_full() + report.shed(),
            20_000
        );
    }
}
