//! Live engine metrics: one counter set per shard, a fixed-bucket
//! histogram, and per-thread CPU-time measurement.
//!
//! A shard's counters are one [`ShardSnapshot`] behind a lock, its
//! [`ShardMetrics`]. The worker takes that lock once per batch, after
//! its ring pull and any injected stall, counts the batch into it with
//! plain adds and releases it when the batch ends. The watchdog, the
//! live snapshot monitor and the report lock it and clone it, so a
//! reader sees whole batches only and lags by at most one. Histograms
//! use power-of-two buckets (65 of them cover the full `u64` range), so
//! recording is a `leading_zeros` and four adds; good enough to read
//! batch-size and latency shape without per-sample allocation.

use crate::json::Json;
use std::sync::{Mutex, MutexGuard};

/// Number of histogram buckets: one per power of two, plus the zero
/// bucket (`value v` → bucket `64 - v.leading_zeros()`, so 0 → bucket 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram. [`Default`] holds all
/// [`HISTOGRAM_BUCKETS`] buckets, empty, so recording into it or
/// merging into it never loses a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`buckets[k]` holds values in
    /// `[2^(k-1), 2^k)`; bucket 0 holds zeros).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
        self.count += 1;
        // Wraps, never panics: a panic under the worker's counter lock
        // would poison it.
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Mean sample value (0.0 when empty — see
    /// [`SimStats::mean_latency`](unroller_sim::SimStats::mean_latency)
    /// for why empty aggregates must not produce NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Upper bound of the bucket containing the q-quantile (0 ≤ q ≤ 1),
    /// e.g. `quantile_bound(0.99)` for a p99 estimate. Power-of-two
    /// buckets make this exact only to within 2×, which is all the
    /// engine claims.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return if k == 0 { 0 } else { 1u64 << k };
            }
        }
        self.max
    }

    /// Serializes the summary (not the raw buckets) for reports.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("count", Json::UInt(self.count));
        obj.set("mean", Json::Float(self.mean()));
        obj.set("p50_bound", Json::UInt(self.quantile_bound(0.50)));
        obj.set("p99_bound", Json::UInt(self.quantile_bound(0.99)));
        obj.set("max", Json::UInt(self.max));
        obj
    }

    /// Folds `other` into this snapshot (identical bucket layouts, so
    /// the merge is per-bucket addition). Lets a report aggregate one
    /// histogram across shards — e.g. the run-wide detection-latency
    /// distribution from the per-shard `detect_latency_ns` snapshots.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// One shard's counters behind one lock, shared between its worker
/// (the writer) and the watchdog, the live snapshot monitor and the
/// report (the readers). The worker holds the lock for one batch at a
/// time, so a reader sees whole batches only.
#[derive(Debug, Default)]
pub struct ShardMetrics(Mutex<ShardSnapshot>);

impl ShardMetrics {
    /// Locks the counters. Only a panic in the worker outside its
    /// supervised packet loop, while it counts a batch, can poison the
    /// lock; that panic fails the run, so a reader fails with it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardSnapshot> {
        self.0
            .lock()
            .expect("a shard worker panicked while counting a batch")
    }

    /// A copy of every counter and histogram, as of the last whole
    /// batch.
    pub fn snapshot(&self) -> ShardSnapshot {
        self.lock().clone()
    }

    /// Packets this shard has *consumed* off its ring: processed plus
    /// lost-to-panic. The watchdog's progress signal — a shard whose
    /// consumed count stops moving while its ring still holds packets
    /// is stalled, whatever the cause.
    pub fn consumed(&self) -> u64 {
        let counts = self.lock();
        counts.packets + counts.panic_lost
    }
}

/// One shard's counters and histograms: the set its worker counts each
/// batch into, under its [`ShardMetrics`] lock, and the row the report
/// and every live snapshot print.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// Packets fully processed (delivered + ttl_dropped + loop_events +
    /// route_errors + frame_errors).
    pub packets: u64,
    /// Switch-hops executed across all packets.
    pub hops: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets dropped on TTL expiry (still looping, undetected).
    pub ttl_dropped: u64,
    /// Loop detections: packets whose walk ended in a loop report
    /// (`events_sent + events_suppressed`).
    pub loop_events: u64,
    /// Detections the shard's report table reported as loop events,
    /// counted before the event-fault fate is drawn.
    pub events_sent: u64,
    /// Detections the report table suppressed as repeats of a flow it
    /// reported recently (no event built, nothing sent).
    pub events_suppressed: u64,
    /// Batches pulled off this shard's ring.
    pub batches: u64,
    /// Packets whose path referenced an unknown switch.
    pub route_errors: u64,
    /// Packets whose wire frame failed validation (too short for the
    /// shim, wrong EtherType) — replayed captures can carry such runts.
    pub frame_errors: u64,
    /// Batch-size distribution.
    pub batch_sizes: HistogramSnapshot,
    /// Nanoseconds spent blocked waiting on the ring, per batch.
    pub wait_ns: HistogramSnapshot,
    /// Nanoseconds spent processing, per batch.
    pub proc_ns: HistogramSnapshot,
    /// Thread CPU time consumed by this shard's worker (utime+stime),
    /// written once at worker exit; 0 until then or if unavailable.
    pub cpu_ns: u64,
    /// Worker panics caught and recovered from by the supervisor
    /// (injected or real).
    pub restarts: u64,
    /// Panics injected by the fault plan (subset of `restarts` unless
    /// a real bug also fired).
    pub panics_injected: u64,
    /// Packets lost to a panic mid-processing (each panic loses exactly
    /// the packet being processed; the supervisor resumes the batch).
    pub panic_lost: u64,
    /// Header bit-flips injected by the fault plan.
    pub bitflips_injected: u64,
    /// Ring stalls injected by the fault plan.
    pub stalls_injected: u64,
    /// Injected stalls cut short by a watchdog kick.
    pub stalls_aborted: u64,
    /// Loop events the fault plan dropped before they reached the
    /// aggregator.
    pub events_dropped_injected: u64,
    /// Loop events the fault plan delivered twice.
    pub events_duplicated_injected: u64,
    /// Loop-event sends that failed because the aggregator was gone
    /// (tolerated, not panicked on).
    pub events_send_failed: u64,
    /// Route-table generation swaps this shard observed (reader
    /// refreshes that actually moved generations).
    pub route_swaps_observed: u64,
    /// Loop detections against a route generation published *after*
    /// this worker started — live detections, not replay.
    pub loops_after_swap: u64,
    /// Detection latency: generation publish → the first detection
    /// this shard made against that generation (ns, one sample per
    /// generation per shard).
    pub detect_latency_ns: HistogramSnapshot,
    /// Generated packets settled straight from the per-route memo table
    /// (no pipeline walk).
    pub memo_hits: u64,
    /// Memo-eligible packets that had to walk because their route slot
    /// held no entry yet (each miss warms the slot).
    pub memo_misses: u64,
    /// Cache hits that additionally performed the full walk for the
    /// 1-in-N sampling cross-check.
    pub memo_sampled_walks: u64,
    /// Sampled walks whose verdict or final shim differed from the
    /// cached entry. Must stay 0; CI treats any divergence as fatal.
    pub memo_divergence: u64,
}

impl ShardSnapshot {
    /// This shard's *capacity* in packets per second of CPU time: what
    /// the shard would sustain given a dedicated core. Falls back to the
    /// measured per-batch processing time when thread CPU time is
    /// unavailable. 0.0 when nothing was processed.
    pub fn capacity_pps(&self) -> f64 {
        let busy_ns = if self.cpu_ns > 0 {
            self.cpu_ns
        } else {
            self.proc_ns.sum
        };
        if busy_ns == 0 || self.packets == 0 {
            return 0.0;
        }
        self.packets as f64 * 1e9 / busy_ns as f64
    }

    /// Serializes this shard's row of the report.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("packets", Json::UInt(self.packets));
        obj.set("hops", Json::UInt(self.hops));
        obj.set("delivered", Json::UInt(self.delivered));
        obj.set("ttl_dropped", Json::UInt(self.ttl_dropped));
        obj.set("loop_events", Json::UInt(self.loop_events));
        obj.set("events_sent", Json::UInt(self.events_sent));
        obj.set("events_suppressed", Json::UInt(self.events_suppressed));
        obj.set("batches", Json::UInt(self.batches));
        obj.set("route_errors", Json::UInt(self.route_errors));
        obj.set("frame_errors", Json::UInt(self.frame_errors));
        obj.set("cpu_ns", Json::UInt(self.cpu_ns));
        obj.set("capacity_pps", Json::Float(self.capacity_pps()));
        obj.set("batch_size", self.batch_sizes.to_json());
        obj.set("wait_ns", self.wait_ns.to_json());
        obj.set("proc_ns", self.proc_ns.to_json());
        obj.set(
            "route_swaps_observed",
            Json::UInt(self.route_swaps_observed),
        );
        obj.set("loops_after_swap", Json::UInt(self.loops_after_swap));
        obj.set("detect_latency_ns", self.detect_latency_ns.to_json());
        let mut memo = Json::object();
        memo.set("hits", Json::UInt(self.memo_hits));
        memo.set("misses", Json::UInt(self.memo_misses));
        memo.set("sampled_walks", Json::UInt(self.memo_sampled_walks));
        memo.set("divergence", Json::UInt(self.memo_divergence));
        obj.set("memo", memo);
        let mut faults = Json::object();
        faults.set("restarts", Json::UInt(self.restarts));
        faults.set("panics_injected", Json::UInt(self.panics_injected));
        faults.set("panic_lost", Json::UInt(self.panic_lost));
        faults.set("bitflips_injected", Json::UInt(self.bitflips_injected));
        faults.set("stalls_injected", Json::UInt(self.stalls_injected));
        faults.set("stalls_aborted", Json::UInt(self.stalls_aborted));
        faults.set(
            "events_dropped_injected",
            Json::UInt(self.events_dropped_injected),
        );
        faults.set(
            "events_duplicated_injected",
            Json::UInt(self.events_duplicated_injected),
        );
        faults.set("events_send_failed", Json::UInt(self.events_send_failed));
        obj.set("faults", faults);
        obj
    }
}

/// CPU time consumed by the *calling thread*, in nanoseconds. `None`
/// off Linux or if procfs is unreadable. This is what makes
/// single-machine scaling runs honest: wall clock conflates shards
/// with time-sharing when shards outnumber cores, whereas per-thread
/// CPU time measures each shard's actual cost.
///
/// Prefers `/proc/thread-self/schedstat` (nanosecond scheduler
/// accounting; immune to the tick-sampling bias that undercounts
/// threads which sleep between batches) and falls back to the
/// utime+stime ticks of `/proc/thread-self/stat`.
pub fn thread_cpu_ns() -> Option<u64> {
    if let Some(ns) = read_schedstat_ns() {
        return Some(ns);
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), 1-indexed, counted after the
    // parenthesized comm field (which may itself contain spaces).
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration this targets:
    // 10 ms per tick.
    Some((utime + stime) * 10_000_000)
}

/// First field of `/proc/thread-self/schedstat`: nanoseconds this
/// thread has spent on a CPU (requires `CONFIG_SCHED_INFO`, present on
/// all mainstream kernels).
fn read_schedstat_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_ascii_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut snap = HistogramSnapshot::default();
        snap.record(0);
        snap.record(1);
        snap.record(2);
        snap.record(3);
        snap.record(1024);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.max, 1024);
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[11], 1); // 1024
    }

    #[test]
    fn histogram_extremes_do_not_panic() {
        let mut snap = HistogramSnapshot::default();
        snap.record(u64::MAX);
        assert_eq!(snap.buckets[64], 1);
        assert_eq!(snap.max, u64::MAX);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.mean(), 0.0);
        assert!(!snap.mean().is_nan());
        assert_eq!(snap.quantile_bound(0.99), 0);
    }

    #[test]
    fn quantile_bound_is_within_a_factor_of_two() {
        let mut snap = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            snap.record(v);
        }
        let p50 = snap.quantile_bound(0.50);
        assert!((500..=1024).contains(&p50), "p50 bound {p50}");
        let p99 = snap.quantile_bound(0.99);
        assert!((990..=2048).contains(&p99), "p99 bound {p99}");
    }

    #[test]
    fn merging_into_a_default_histogram_keeps_every_bucket() {
        let mut recorded = HistogramSnapshot::default();
        for v in [0, 3, 1024] {
            recorded.record(v);
        }
        let mut merged = HistogramSnapshot::default();
        merged.merge(&recorded);
        assert_eq!(merged, recorded);
        assert_eq!(merged.quantile_bound(0.5), 4);
    }

    #[test]
    fn shard_snapshot_capacity_prefers_cpu_time() {
        let m = ShardMetrics::default();
        m.lock().packets = 1_000;
        m.lock().proc_ns.record(2_000_000_000); // 2 s of measured proc time
        let from_proc = m.snapshot().capacity_pps();
        assert!((from_proc - 500.0).abs() < 1.0, "{from_proc}");
        m.lock().cpu_ns = 1_000_000_000; // 1 s CPU
        let from_cpu = m.snapshot().capacity_pps();
        assert!((from_cpu - 1_000.0).abs() < 1.0, "{from_cpu}");
    }

    #[test]
    fn empty_shard_capacity_is_zero() {
        assert_eq!(ShardMetrics::default().snapshot().capacity_pps(), 0.0);
    }

    #[test]
    fn thread_cpu_time_is_monotone_on_linux() {
        let Some(before) = thread_cpu_ns() else {
            return; // not on Linux: nothing to check
        };
        // Burn a little CPU so the counter can only move forward.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(0x9e37_79b9));
        }
        std::hint::black_box(acc);
        let after = thread_cpu_ns().unwrap();
        assert!(after >= before, "{after} < {before}");
    }

    #[test]
    fn snapshot_json_has_the_report_fields() {
        let m = ShardMetrics::default();
        m.lock().packets = 5;
        let rendered = m.snapshot().to_json().render();
        for key in ["packets", "capacity_pps", "batch_size", "proc_ns"] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }
}
