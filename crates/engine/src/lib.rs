//! # unroller-engine
//!
//! A sharded, multi-threaded packet-processing runtime that drives the
//! Unroller ingress pipeline (`unroller-dataplane`) over batched packet
//! streams — the software-switch deployment story for the paper's
//! in-band loop detector.
//!
//! Flows are RSS-hashed onto worker shards ([`flow`]), each shard pulls
//! batches off a bounded SPSC ring with explicit backpressure
//! accounting, whose lock each side takes once per batch ([`ring`]),
//! walks packets through the per-switch pipelines every shard shares
//! read-only ([`walk`], run by the shard [`worker`]), and funnels loop
//! events to an aggregator that dedupes per flow and hands localized
//! reports to the `unroller-control` controller ([`aggregate`]). Each
//! shard suppresses a trapped flow's repeat detections first, in a
//! fixed-size report table that re-reports on a back-off schedule; the
//! aggregator's per-flow dedupe behind it stays exact. A metrics layer
//! ([`metrics`]) keeps per-shard counters, which each worker tallies
//! locally and adds once per batch, and latency histograms. The
//! engine's throughput, CPU cost per packet and detection latency are
//! measured end to end by the `perfbench` package at the repository
//! root (`python3 perfbench/run.py`).
//!
//! The runtime is built to *misbehave on request*: a seeded
//! [`faults::FaultPlan`] injects worker panics, header bit-flips, ring
//! stalls, and loop-event channel faults, and the supervision layer
//! ([`worker`] restarts, the [`supervise`] watchdog and overload
//! shedder) recovers from all of them with every action counted —
//! `results/engine_faults.json` sweeps fault rates against detection
//! recall.
//!
//! ```
//! use unroller_engine::{Engine, EngineConfig, FullPolicy, SyntheticSource};
//!
//! let ids: Vec<u32> = (0..32).map(|i| 100 + i).collect();
//! let engine = Engine::new(
//!     EngineConfig { shards: 2, full_policy: FullPolicy::Block, ..Default::default() },
//!     &ids,
//! )
//! .unwrap();
//! // 8 flows over 32 virtual nodes; every 4th flow starts looping at
//! // packet 100 of 1000.
//! let mut source = SyntheticSource::new(32, 8, 1_000, 4, 100, 7);
//! let report = engine.run(&mut source).unwrap();
//! assert!(report.loop_detected());
//! assert!(report.accounted());
//! assert!(report.events_accounted());
//! assert!(report.outcomes_accounted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod churn;
pub mod engine;
pub mod epoch;
pub mod eventlog;
pub mod faults;
pub mod flow;
pub mod json;
pub mod memo;
pub mod metrics;
pub mod packet;
pub mod ring;
pub mod route;
pub mod source;
pub mod supervise;
pub mod worker;

pub use aggregate::{AggregatorReport, ControllerSink, DomainRouter, EventSink, LoopEvent};
pub use churn::{ChurnPlan, ChurnSource};
pub use engine::{Engine, EngineConfig, EngineError, EngineReport, EventsLogConfig};
pub use epoch::{EpochRouteTable, RouteReader};
pub use eventlog::{EventLogWriter, RunMeta, EVENT_LOG_VERSION};
pub use faults::{FaultPlan, FaultSpecError, SplitMix64};
pub use flow::FlowKey;
pub use json::Json;
pub use memo::{MemoConfig, MemoTable, MemoVerdict, DEFAULT_SAMPLE_EVERY};
pub use metrics::{Histogram, HistogramSnapshot, ShardMetrics, ShardSnapshot};
pub use packet::{EnginePacket, PathSpec};
pub use ring::{BatchPush, FullPolicy, PushOutcome, RingCounters, RingCountersSnapshot};
pub use route::{CompiledRoute, RouteId, RouteSet, RouteSetBuilder};
pub use source::{
    CaptureSource, LoopInjection, PcapReplaySource, ReplaySource, SyntheticSource, TrafficSource,
};
pub use supervise::{Shedder, WatchdogReport};
pub use worker::{walk, Flip};
