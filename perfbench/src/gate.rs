//! The correctness gate every timed and traced run must pass, and the
//! outcome counts the layer replay must reproduce.
//!
//! A run that fails the gate is a failed operation: its numbers are
//! dropped, never averaged in.

use crate::workload::Truth;
use unroller_engine::{EngineReport, FlowKey, LoopEvent};

/// What one run did to its packets — the counts the layer replay must
/// reproduce exactly on static workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Packets the workers finished.
    pub processed: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Loop events raised.
    pub loop_events: u64,
    /// Packets dropped on TTL expiry.
    pub ttl_dropped: u64,
    /// Packets whose route left the pipeline array.
    pub route_errors: u64,
    /// Pipeline steps taken.
    pub hops: u64,
    /// Packets settled from the memo table.
    pub memo_hits: u64,
    /// Packets that walked to warm a memo slot.
    pub memo_misses: u64,
    /// Memo hits re-walked by the sampled cross-check.
    pub memo_sampled: u64,
    /// Route-table generation swaps the worker observed.
    pub swaps_observed: u64,
}

impl Counts {
    /// The counts an engine report carries, summed over shards.
    pub fn from_report(report: &EngineReport) -> Counts {
        let sum = |f: fn(&unroller_engine::ShardSnapshot) -> u64| {
            report.shard_snapshots.iter().map(f).sum::<u64>()
        };
        Counts {
            processed: report.processed(),
            delivered: sum(|s| s.delivered),
            loop_events: sum(|s| s.loop_events),
            ttl_dropped: sum(|s| s.ttl_dropped),
            route_errors: sum(|s| s.route_errors),
            hops: sum(|s| s.hops),
            memo_hits: report.memo_hits(),
            memo_misses: report.memo_misses(),
            memo_sampled: report.memo_sampled_walks(),
            swaps_observed: sum(|s| s.route_swaps_observed),
        }
    }

    /// `(name, value)` for every count, in a fixed order.
    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("processed", self.processed),
            ("delivered", self.delivered),
            ("loop_events", self.loop_events),
            ("ttl_dropped", self.ttl_dropped),
            ("route_errors", self.route_errors),
            ("hops", self.hops),
            ("memo_hits", self.memo_hits),
            ("memo_misses", self.memo_misses),
            ("memo_sampled", self.memo_sampled),
            ("swaps_observed", self.swaps_observed),
        ]
    }
}

/// Requires `replay` to reproduce `timed`. Static traffic makes every
/// outcome a pure function of the inputs, so all counts must match.
/// Under churn the engine's worker adopts a new route generation at
/// whatever batch boundary its thread reaches first, so only the
/// packet total is comparable.
pub fn check_replay(timed: &Counts, replay: &Counts, is_static: bool) -> Result<(), String> {
    let mismatches: Vec<String> = timed
        .fields()
        .iter()
        .zip(replay.fields())
        .filter(|((name, _), _)| is_static || *name == "processed")
        .filter(|((_, t), (_, r))| t != r)
        .map(|((name, t), (_, r))| format!("{name}: run {t}, replay {r}"))
        .collect();
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!("replay disagrees: {}", mismatches.join(", ")))
    }
}

/// The gate for one engine run: exact accounting, nothing lost, no
/// memo divergence, and a detected flow set equal to the ground truth
/// (recall 1.0 with zero false reports).
pub fn check_run(report: &EngineReport, truth: &Truth) -> Result<(), String> {
    if !report.accounted() {
        return Err("packet accounting does not balance".to_string());
    }
    if report.processed() != report.offered {
        return Err(format!(
            "{} of {} offered packets were not processed",
            report.offered - report.processed(),
            report.offered
        ));
    }
    if report.memo_divergence() != 0 {
        return Err(format!(
            "{} memoized verdicts diverged from sampled walks",
            report.memo_divergence()
        ));
    }
    check_detections(&report.aggregator.events, truth)
}

/// Requires the first-per-flow loop events to name exactly the
/// ground-truth flows.
pub fn check_detections(events: &[LoopEvent], truth: &Truth) -> Result<(), String> {
    let detected: Truth = events.iter().map(|e| e.flow).collect();
    if &detected == truth {
        return Ok(());
    }
    let missed: Vec<&FlowKey> = truth.difference(&detected).collect();
    let false_reports: Vec<&FlowKey> = detected.difference(truth).collect();
    Err(format!(
        "detected flows differ from ground truth: {} of {} missed, {} false reports",
        missed.len(),
        truth.len(),
        false_reports.len()
    ))
}

/// Fraction of ground-truth flows detected.
pub fn recall(events: &[LoopEvent], truth: &Truth) -> f64 {
    let hits = events.iter().filter(|e| truth.contains(&e.flow)).count();
    hits as f64 / truth.len().max(1) as f64
}
