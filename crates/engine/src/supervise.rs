//! Shard supervision: the stall watchdog and the overload shedder.
//!
//! Both close the loop between *observing* trouble and *acting* on it
//! inside the runtime, rather than leaving recovery to an operator:
//!
//! * The **watchdog** runs on its own thread while the engine is live
//!   and watches each shard's consumed-packet count (processed +
//!   panic-lost — see [`ShardMetrics::consumed`]). A shard whose count
//!   has not moved between polls *while its ring still holds packets*
//!   is stalled, whatever the cause; the watchdog records the detection
//!   and sets the shard's kick flag, which aborts injected stalls (and
//!   stands in for the recycle signal a production runtime would wire
//!   to thread replacement).
//! * The **shedder** watches enqueue outcomes per shard. A run of
//!   saturated outcomes (blocked or dropped pushes) marks the shard
//!   overloaded, and while it stays overloaded the dispatcher sheds
//!   packets of low-priority flows at ingress — counted, never silent,
//!   so `offered == enqueued + dropped + shed (+ quarantined)` still
//!   balances. Priority comes from [`FlowKey::priority`], so the same
//!   flows are shed on every run: deterministic degradation.

use crate::flow::FlowKey;
use crate::metrics::ShardMetrics;
use crate::ring::{BatchPush, PushOutcome, RingCounters};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Saturated-push streak at which a shard counts as overloaded.
pub const SATURATION_THRESHOLD: u32 = 8;

/// Flows below this priority class (see [`FlowKey::priority`], 0–7)
/// are shed while their shard is overloaded: the bottom half of the
/// priority space degrades first.
pub const SHED_PRIORITY_CUTOFF: u8 = 4;

/// Everything the watchdog needs to observe one shard.
pub struct WatchShard {
    /// The shard's metrics block (for the consumed-progress signal).
    pub metrics: Arc<ShardMetrics>,
    /// The shard's ring counters (for the backlog signal).
    pub counters: Arc<RingCounters>,
    /// Kick flag shared with the worker: set on a detected stall.
    pub kick: Arc<AtomicBool>,
}

/// What the watchdog saw over one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Poll rounds completed.
    pub polls: u64,
    /// Shard-polls that found a stalled shard (no consumption progress
    /// with a non-empty ring).
    pub stalls_detected: u64,
    /// Kick flags raised (one per stalled shard-poll).
    pub kicks: u64,
}

/// Parks the calling thread for `interval`, or until `stop` is raised;
/// whoever raises it unparks this thread. Returns whether `stop` is
/// raised. A wake-up with `stop` still down parks again for the rest of
/// the interval, so a caller that polls between waits polls at most
/// once per interval.
pub(crate) fn wait_or_stop(interval: Duration, stop: &AtomicBool) -> bool {
    let start = Instant::now();
    loop {
        // Acquire pairs with the engine's Release store of the flag: a
        // waiter that sees it raised sees every count made before it.
        if stop.load(Ordering::Acquire) {
            return true;
        }
        let left = interval.saturating_sub(start.elapsed());
        if left.is_zero() {
            return false;
        }
        std::thread::park_timeout(left);
    }
}

/// Polls the shards every `interval` until `stop` is raised, kicking
/// any shard that made no consumption progress while its ring held
/// packets. Returns the tally. Runs on the caller's thread — the
/// engine spawns it inside its worker scope and unparks it when it
/// raises `stop`.
pub fn run_watchdog(
    shards: &[WatchShard],
    interval: Duration,
    stop: &AtomicBool,
) -> WatchdogReport {
    let mut report = WatchdogReport::default();
    let mut last_consumed: Vec<u64> = shards.iter().map(|s| s.metrics.consumed()).collect();
    while !wait_or_stop(interval, stop) {
        report.polls += 1;
        for (shard, watch) in shards.iter().enumerate() {
            let consumed = watch.metrics.consumed();
            let backlog = watch
                .counters
                .enqueued
                .load(Ordering::Relaxed)
                .saturating_sub(consumed);
            if consumed == last_consumed[shard] && backlog > 0 {
                report.stalls_detected += 1;
                // Raise (don't toggle) the kick: a stalled worker
                // clears it when it reacts.
                if !watch.kick.swap(true, Ordering::Relaxed) {
                    report.kicks += 1;
                }
            }
            last_consumed[shard] = consumed;
        }
    }
    report
}

/// Per-shard overload tracker driving ingress shedding.
#[derive(Debug)]
pub struct Shedder {
    streaks: Vec<u32>,
    enabled: bool,
}

impl Shedder {
    /// A shedder over `shards` rings; `enabled = false` makes it a
    /// no-op observer (the default engine configuration).
    pub fn new(shards: usize, enabled: bool) -> Self {
        Shedder {
            streaks: vec![0; shards],
            enabled,
        }
    }

    /// Feeds one enqueue outcome into the shard's saturation streak:
    /// saturated attempts build it, clean enqueues decay it — a single
    /// free slot does not end an overload episode.
    pub fn observe(&mut self, shard: usize, outcome: PushOutcome) {
        let streak = &mut self.streaks[shard];
        if outcome.saturated() {
            *streak = streak.saturating_add(1);
        } else {
            *streak = streak.saturating_sub(1);
        }
    }

    /// Feeds a whole [`BatchPush`] result into the shard's streak, with
    /// the same semantics as observing each item individually: clean
    /// enqueues decay, stalled enqueues and drops build. The batch is
    /// replayed in enqueued → stalled → dropped order, matching how a
    /// batched push actually unfolds (the ring fills, then stalls or
    /// drops the tail).
    pub fn observe_batch(&mut self, shard: usize, batch: &BatchPush) {
        if !self.enabled {
            return;
        }
        for _ in 0..batch.enqueued {
            self.observe(shard, PushOutcome::Enqueued);
        }
        for _ in 0..batch.stalled {
            self.observe(shard, PushOutcome::EnqueuedAfterStall);
        }
        for _ in 0..batch.dropped {
            self.observe(shard, PushOutcome::DroppedFull);
        }
    }

    /// Whether the dispatcher should shed this flow's packet at ingress
    /// instead of offering it: the shard is overloaded and the flow
    /// sits in the shed-first half of the priority space.
    pub fn should_shed(&self, shard: usize, flow: &FlowKey) -> bool {
        self.enabled
            && self.streaks[shard] >= SATURATION_THRESHOLD
            && flow.priority() < SHED_PRIORITY_CUTOFF
    }

    /// The shard's current saturation streak (for tests/reporting).
    pub fn streak(&self, shard: usize) -> u32 {
        self.streaks[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_priority_flow() -> FlowKey {
        // Scan synthetic flows for one in the shed band; determinism
        // makes the first hit stable across runs.
        (0..256)
            .map(|i| FlowKey::synthetic(1, 2, i))
            .find(|f| f.priority() < SHED_PRIORITY_CUTOFF)
            .expect("8 priority classes over 256 flows")
    }

    fn high_priority_flow() -> FlowKey {
        (0..256)
            .map(|i| FlowKey::synthetic(3, 4, i))
            .find(|f| f.priority() >= SHED_PRIORITY_CUTOFF)
            .expect("8 priority classes over 256 flows")
    }

    #[test]
    fn shedder_needs_a_sustained_streak() {
        let mut s = Shedder::new(1, true);
        let flow = low_priority_flow();
        for _ in 0..SATURATION_THRESHOLD - 1 {
            s.observe(0, PushOutcome::DroppedFull);
            assert!(!s.should_shed(0, &flow), "below threshold");
        }
        s.observe(0, PushOutcome::DroppedFull);
        assert!(s.should_shed(0, &flow), "threshold reached");
    }

    #[test]
    fn shedder_spares_high_priority_flows() {
        let mut s = Shedder::new(1, true);
        for _ in 0..SATURATION_THRESHOLD {
            s.observe(0, PushOutcome::EnqueuedAfterStall);
        }
        assert!(s.should_shed(0, &low_priority_flow()));
        assert!(!s.should_shed(0, &high_priority_flow()));
    }

    #[test]
    fn clean_enqueues_decay_the_streak() {
        let mut s = Shedder::new(1, true);
        for _ in 0..SATURATION_THRESHOLD {
            s.observe(0, PushOutcome::DroppedFull);
        }
        assert!(s.should_shed(0, &low_priority_flow()));
        s.observe(0, PushOutcome::Enqueued);
        assert!(
            !s.should_shed(0, &low_priority_flow()),
            "one clean push below threshold again"
        );
        assert_eq!(s.streak(0), SATURATION_THRESHOLD - 1);
    }

    #[test]
    fn batched_observation_matches_per_item_observation() {
        let mut per_item = Shedder::new(1, true);
        let mut batched = Shedder::new(1, true);
        // A batch that filled the ring (3 clean), stalled twice, and
        // dropped the rest — the same stream observed both ways.
        for _ in 0..3 {
            per_item.observe(0, PushOutcome::Enqueued);
        }
        for _ in 0..2 {
            per_item.observe(0, PushOutcome::EnqueuedAfterStall);
        }
        for _ in 0..SATURATION_THRESHOLD as usize {
            per_item.observe(0, PushOutcome::DroppedFull);
        }
        batched.observe_batch(
            0,
            &BatchPush {
                enqueued: 3,
                stalled: 2,
                dropped: SATURATION_THRESHOLD as usize,
            },
        );
        assert_eq!(per_item.streak(0), batched.streak(0));
        let flow = low_priority_flow();
        assert!(batched.should_shed(0, &flow), "saturated tail trips it");
    }

    #[test]
    fn disabled_shedder_never_sheds() {
        let mut s = Shedder::new(1, false);
        for _ in 0..100 {
            s.observe(0, PushOutcome::DroppedFull);
        }
        assert!(!s.should_shed(0, &low_priority_flow()));
    }

    #[test]
    fn streaks_are_per_shard() {
        let mut s = Shedder::new(2, true);
        for _ in 0..SATURATION_THRESHOLD {
            s.observe(1, PushOutcome::DroppedFull);
        }
        let flow = low_priority_flow();
        assert!(!s.should_shed(0, &flow));
        assert!(s.should_shed(1, &flow));
    }

    #[test]
    fn watchdog_kicks_a_stalled_shard() {
        let metrics = Arc::new(ShardMetrics::default());
        let counters = Arc::new(RingCounters::default());
        let kick = Arc::new(AtomicBool::new(false));
        // 5 packets enqueued, none consumed: a stalled shard.
        counters.enqueued.store(5, Ordering::Relaxed);
        let shards = [WatchShard {
            metrics: metrics.clone(),
            counters,
            kick: kick.clone(),
        }];
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let handle = scope.spawn(|| run_watchdog(&shards, Duration::from_millis(5), &stop));
            while !kick.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("watchdog thread")
        });
        assert!(report.stalls_detected >= 1);
        assert!(report.kicks >= 1);
        assert!(report.polls >= 1);
    }

    #[test]
    fn watchdog_ignores_an_idle_shard() {
        // No backlog: a shard with an empty ring is idle, not stalled.
        let shards = [WatchShard {
            metrics: Arc::new(ShardMetrics::default()),
            counters: Arc::new(RingCounters::default()),
            kick: Arc::new(AtomicBool::new(false)),
        }];
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let handle = scope.spawn(|| run_watchdog(&shards, Duration::from_millis(2), &stop));
            std::thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("watchdog thread")
        });
        assert_eq!(report.stalls_detected, 0);
        assert!(!shards[0].kick.load(Ordering::Relaxed));
    }
}
