//! The loop-event aggregator: the funnel between worker shards and the
//! control plane.
//!
//! A trapped flow keeps re-detecting the same loop packet after packet,
//! and the controller needs one report, not thousands. Shards suppress
//! the repeats first: each shard's report table turns a flow's
//! detections into events only on a back-off schedule (1st, 2nd, 4th …
//! 64th, then every 64th; see [`worker`](crate::worker)). Workers
//! publish those [`LoopEvent`]s over an MPSC channel; the aggregator
//! still dedupes them exactly per flow, keeping each flow's first event
//! (which is the flow's first detection), and hands the surviving
//! reports to an [`EventSink`]. The shipped sink wraps
//! [`unroller_control::Controller`], closing the paper's detect →
//! report → localize → heal pipeline at engine scale.

use crate::flow::FlowKey;
use crate::json::Json;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use unroller_core::SwitchId;

/// One reported loop detection, as emitted by a worker shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopEvent {
    /// The flow whose packet tripped the detector.
    pub flow: FlowKey,
    /// The packet's per-flow sequence number.
    pub seq: u64,
    /// The shard that processed it.
    pub shard: usize,
    /// The switch whose pipeline reported the loop.
    pub trigger: SwitchId,
    /// The packet's hop count at the report.
    pub hop: u32,
    /// Loop membership collected §3.5-style: switch IDs recorded from
    /// the trigger until it reappeared.
    pub members: Vec<SwitchId>,
    /// Whether membership collection closed the cycle (saw the trigger
    /// again) before hitting its cap or the path ending.
    pub complete: bool,
}

/// What the aggregator hands the deduplicated events to.
pub trait EventSink {
    /// Called once per unique flow's first loop event.
    fn on_loop(&mut self, event: &LoopEvent);
}

/// An [`EventSink`] that feeds membership reports into the network
/// controller for localization.
#[derive(Debug, Default)]
pub struct ControllerSink {
    /// The wrapped controller.
    pub controller: unroller_control::Controller,
    /// Events whose membership was incomplete (not ingested).
    pub incomplete: u64,
}

impl ControllerSink {
    /// Wraps a controller provisioned with the engine's switch IDs.
    pub fn new(controller: unroller_control::Controller) -> Self {
        ControllerSink {
            controller,
            incomplete: 0,
        }
    }
}

impl EventSink for ControllerSink {
    fn on_loop(&mut self, event: &LoopEvent) {
        if event.complete {
            self.controller.ingest(&event.members);
        } else {
            self.incomplete += 1;
        }
    }
}

/// An [`EventSink`] that routes complete loop events to per-domain
/// buckets for a federated control plane: each event goes to the domain
/// owning its *trigger* switch (the switch that reported the loop),
/// mirroring how a real deployment's report packets land at the local
/// domain controller. Events whose trigger maps to no domain are
/// counted, not dropped silently.
pub struct DomainRouter {
    domain_of: Box<dyn Fn(SwitchId) -> Option<u32>>,
    /// Per-domain event buckets, indexed by domain ID.
    pub buckets: Vec<Vec<LoopEvent>>,
    /// Events whose trigger switch belongs to no known domain.
    pub unroutable: u64,
}

impl std::fmt::Debug for DomainRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainRouter")
            .field("domains", &self.buckets.len())
            .field("unroutable", &self.unroutable)
            .finish()
    }
}

impl DomainRouter {
    /// A router over `domains` buckets; `domain_of` maps a switch ID to
    /// its owning domain (or `None` for foreign switches).
    pub fn new(domains: usize, domain_of: impl Fn(SwitchId) -> Option<u32> + 'static) -> Self {
        DomainRouter {
            domain_of: Box::new(domain_of),
            buckets: vec![Vec::new(); domains],
            unroutable: 0,
        }
    }

    /// Total routed events across all buckets.
    pub fn routed(&self) -> u64 {
        self.buckets.iter().map(|b| b.len() as u64).sum()
    }
}

impl EventSink for DomainRouter {
    fn on_loop(&mut self, event: &LoopEvent) {
        match (self.domain_of)(event.trigger) {
            Some(d) if (d as usize) < self.buckets.len() => {
                self.buckets[d as usize].push(event.clone());
            }
            _ => self.unroutable += 1,
        }
    }
}

/// The aggregator's summary of one engine run.
#[derive(Debug, Clone, Default)]
pub struct AggregatorReport {
    /// Raw events received from all shards.
    pub events_received: u64,
    /// Flows with at least one loop event.
    pub unique_flows: u64,
    /// Events suppressed as duplicates of an already-reported flow.
    pub duplicates_suppressed: u64,
    /// The first event per flow, in arrival order.
    pub events: Vec<LoopEvent>,
}

impl AggregatorReport {
    /// Serializes the summary (event list truncated to the first 16 —
    /// reports are for humans and CI asserts, not bulk export).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("events_received", Json::UInt(self.events_received));
        obj.set("unique_flows", Json::UInt(self.unique_flows));
        obj.set(
            "duplicates_suppressed",
            Json::UInt(self.duplicates_suppressed),
        );
        obj.set(
            "events",
            Json::Array(
                self.events
                    .iter()
                    .take(16)
                    .map(|e| {
                        let mut ev = Json::object();
                        ev.set("shard", Json::UInt(e.shard as u64));
                        ev.set("seq", Json::UInt(e.seq));
                        ev.set("trigger", Json::UInt(e.trigger as u64));
                        ev.set("hop", Json::UInt(e.hop as u64));
                        ev.set(
                            "members",
                            Json::Array(e.members.iter().map(|&m| Json::UInt(m as u64)).collect()),
                        );
                        ev.set("complete", Json::Bool(e.complete));
                        ev
                    })
                    .collect(),
            ),
        );
        obj
    }
}

/// Drains the event channel until every sender hangs up, deduplicating
/// per flow. Runs on the aggregator thread.
pub fn aggregate(rx: Receiver<LoopEvent>) -> AggregatorReport {
    aggregate_with(rx, |_| {})
}

/// [`aggregate`] with a streaming hook: `on_event` fires for each
/// first-per-flow event *as it arrives*, before the run finishes. The
/// engine uses this to persist the event log incrementally so a
/// crashed or fault-aborted run still leaves a parseable log on disk.
pub fn aggregate_with(
    rx: Receiver<LoopEvent>,
    mut on_event: impl FnMut(&LoopEvent),
) -> AggregatorReport {
    let mut report = AggregatorReport::default();
    let mut seen: HashMap<FlowKey, u64> = HashMap::new();
    while let Ok(event) = rx.recv() {
        report.events_received += 1;
        match seen.get_mut(&event.flow) {
            Some(count) => {
                *count += 1;
                report.duplicates_suppressed += 1;
            }
            None => {
                seen.insert(event.flow, 1);
                on_event(&event);
                report.events.push(event);
            }
        }
    }
    report.unique_flows = seen.len() as u64;
    report
}

/// Feeds every deduplicated event to a sink (post-run delivery: the
/// aggregator thread has already joined, so the sink needs no
/// synchronization).
pub fn deliver(events: &[LoopEvent], sink: &mut dyn EventSink) {
    for event in events {
        sink.on_loop(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn event(flow_index: u32, seq: u64, members: Vec<SwitchId>) -> LoopEvent {
        LoopEvent {
            flow: FlowKey::synthetic(1, 2, flow_index),
            seq,
            shard: 0,
            trigger: members.first().copied().unwrap_or(0),
            hop: 7,
            members,
            complete: true,
        }
    }

    #[test]
    fn aggregate_dedupes_per_flow() {
        let (tx, rx) = channel();
        for seq in 0..5 {
            tx.send(event(0, seq, vec![10, 11])).unwrap();
        }
        tx.send(event(1, 0, vec![12, 13])).unwrap();
        drop(tx);
        let report = aggregate(rx);
        assert_eq!(report.events_received, 6);
        assert_eq!(report.unique_flows, 2);
        assert_eq!(report.duplicates_suppressed, 4);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].seq, 0, "keeps the first event per flow");
    }

    #[test]
    fn controller_sink_localizes_complete_memberships() {
        let ids = vec![10u32, 11, 12, 13];
        let mut sink = ControllerSink::new(unroller_control::Controller::new(&ids));
        let mut incomplete = event(0, 0, vec![11, 12]);
        incomplete.complete = false;
        deliver(
            &[
                event(1, 0, vec![11, 12]),
                event(2, 3, vec![12, 11]),
                incomplete,
            ],
            &mut sink,
        );
        let loops = sink.controller.localized_loops();
        assert_eq!(loops.len(), 1, "two rotations of one loop");
        assert_eq!(loops[0].report_count, 2);
        assert_eq!(sink.incomplete, 1);
        assert_eq!(sink.controller.total_reports(), 2);
    }

    #[test]
    fn domain_router_buckets_by_trigger_owner() {
        // Switches 10-11 belong to domain 0, 12-13 to domain 1.
        let mut router = DomainRouter::new(2, |id| match id {
            10 | 11 => Some(0),
            12 | 13 => Some(1),
            _ => None,
        });
        deliver(
            &[
                event(0, 0, vec![10, 12]),
                event(1, 0, vec![12, 10]),
                event(2, 0, vec![99, 10]),
            ],
            &mut router,
        );
        assert_eq!(router.buckets[0].len(), 1);
        assert_eq!(router.buckets[1].len(), 1);
        assert_eq!(router.unroutable, 1);
        assert_eq!(router.routed(), 2);
    }

    #[test]
    fn aggregate_with_streams_first_per_flow_events() {
        let (tx, rx) = channel();
        for seq in 0..4 {
            tx.send(event(0, seq, vec![10, 11])).unwrap();
        }
        tx.send(event(1, 0, vec![12, 13])).unwrap();
        drop(tx);
        let mut streamed = Vec::new();
        let report = aggregate_with(rx, |e| streamed.push(e.flow));
        assert_eq!(streamed.len(), 2, "hook fires once per unique flow");
        assert_eq!(report.events.len(), 2);
        assert_eq!(
            streamed,
            report.events.iter().map(|e| e.flow).collect::<Vec<_>>()
        );
    }

    #[test]
    fn report_json_renders() {
        let (tx, rx) = channel();
        tx.send(event(0, 1, vec![10, 11])).unwrap();
        drop(tx);
        let report = aggregate(rx);
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"unique_flows\":1"));
        assert!(rendered.contains("\"members\":[10,11]"));
    }
}
