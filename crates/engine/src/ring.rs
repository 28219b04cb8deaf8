//! Bounded SPSC rings with explicit backpressure accounting.
//!
//! Each worker shard is fed by exactly one ring: the dispatcher is the
//! single producer, the shard worker the single consumer. The ring is
//! *bounded*, so a slow shard pushes back on the dispatcher instead of
//! ballooning memory, and every enqueue-full outcome is **counted** —
//! a packet is either enqueued, or recorded as dropped/stalled, never
//! silently lost. That accounting is what lets the engine report
//! state drop rates instead of implying zero by omission.
//!
//! The implementation is a power-of-two slot array with head/tail
//! indices on **separate cache lines** ([`CachePadded`]) so the
//! producer's publishes never invalidate the line the consumer spins
//! on, and vice versa. Both sides keep a *cached* copy of the other
//! side's index, refreshed only when the ring looks full (producer) or
//! empty (consumer): in steady state an enqueue or a drain touches no
//! shared line beyond its own index publish. [`RingProducer::push_batch`]
//! amortizes even that publish — one `Release` store per burst instead
//! of per packet.
//!
//! Blocking (an empty consumer, or a full ring under
//! [`FullPolicy::Block`]) spins briefly, then parks on a condvar so
//! starved workers consume no CPU — which keeps the per-shard CPU-time
//! capacity metric honest. Wakeups are flagged: the fast path pays one
//! relaxed load of a rarely-written flag, and a short park timeout
//! backstops the (benign, bounded) flag race instead of a `SeqCst`
//! fence per push.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Pads (and aligns) its contents to a 64-byte cache line so two
/// frequently-written atomics cannot false-share one line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// Spin iterations before a blocked side parks on the condvar.
const SPINS: u32 = 64;
/// Park timeout: bounds both teardown latency and the benign
/// flagged-wakeup race (a missed notify costs at most one timeout).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// What the producer does when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullPolicy {
    /// Count the packet as dropped and move on (a line-rate NIC queue).
    #[default]
    Drop,
    /// Count a stall, then block until the consumer frees a slot
    /// (lossless mode for throughput measurements).
    Block,
}

/// The observable result of one enqueue attempt — what the overload
/// shedder keys its saturation tracking on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued on the first try (the ring had room).
    Enqueued,
    /// Enqueued, but only after blocking on a full ring
    /// ([`FullPolicy::Block`]) — a saturation signal.
    EnqueuedAfterStall,
    /// Dropped: the ring was full ([`FullPolicy::Drop`]) or the
    /// consumer is gone. Counted in `dropped_full`.
    DroppedFull,
}

impl PushOutcome {
    /// Whether the item made it onto the ring.
    pub fn enqueued(self) -> bool {
        !matches!(self, PushOutcome::DroppedFull)
    }

    /// Whether this attempt found the ring saturated.
    pub fn saturated(self) -> bool {
        !matches!(self, PushOutcome::Enqueued)
    }
}

/// The summarized result of one [`RingProducer::push_batch`] call.
/// Counter semantics are identical to pushing the items one by one;
/// this is the per-burst view the dispatcher feeds to the shedder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPush {
    /// Items enqueued without waiting.
    pub enqueued: usize,
    /// Items enqueued only after a full-ring wait
    /// ([`FullPolicy::Block`]); each wait episode also counted in
    /// `stalls`.
    pub stalled: usize,
    /// Items dropped (full ring under [`FullPolicy::Drop`], or the
    /// consumer is gone).
    pub dropped: usize,
}

/// Shared enqueue-side counters, readable while the engine runs.
#[derive(Debug, Default)]
pub struct RingCounters {
    /// Packets successfully enqueued.
    pub enqueued: AtomicU64,
    /// Packets dropped because the ring was full ([`FullPolicy::Drop`]).
    pub dropped_full: AtomicU64,
    /// Enqueue attempts that found the ring full and had to block
    /// ([`FullPolicy::Block`]).
    pub stalls: AtomicU64,
    /// Packets the dispatcher shed at ingress (overload protection)
    /// instead of offering to this ring.
    pub shed: AtomicU64,
}

/// A relaxed-read snapshot of [`RingCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCountersSnapshot {
    /// Packets successfully enqueued.
    pub enqueued: u64,
    /// Packets dropped on a full ring.
    pub dropped_full: u64,
    /// Enqueues that stalled on a full ring.
    pub stalls: u64,
    /// Packets shed at ingress under overload.
    pub shed: u64,
}

impl RingCounters {
    /// Reads all counters (relaxed; exact once the producer is done).
    pub fn snapshot(&self) -> RingCountersSnapshot {
        RingCountersSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dropped_full: self.dropped_full.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// The state both halves share. Slots are `Mutex<Option<T>>` — the
/// crate forbids `unsafe`, so this stands in for the `UnsafeCell` slot
/// a lock-free ring would use; SPSC hand-off means every slot lock is
/// uncontended in steady state (the two sides only meet on a slot when
/// the ring is completely full or empty).
#[derive(Debug)]
struct RingShared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    mask: usize,
    /// Logical capacity (may be less than `slots.len()`, which is the
    /// next power of two).
    capacity: usize,
    /// Producer publish index: slots `[head, tail)` are full.
    tail: CachePadded<AtomicUsize>,
    /// Consumer index: the next slot to read.
    head: CachePadded<AtomicUsize>,
    /// Producer dropped: no more items will ever arrive.
    closed: AtomicBool,
    /// Consumer dropped: pushes can only fail.
    consumer_gone: AtomicBool,
    /// Park state: one mutex, one condvar per direction, and a flag per
    /// direction so the fast path can skip the notify entirely.
    park: Mutex<()>,
    data_ready: Condvar,
    space_ready: Condvar,
    consumer_parked: AtomicBool,
    producer_parked: AtomicBool,
}

impl<T> RingShared<T> {
    /// Locks a slot, riding through poisoning: a slot mutex can only be
    /// poisoned if moving a `T` panicked mid-hand-off, and the item is
    /// then accounted as lost by the supervised side — the ring itself
    /// stays usable.
    fn slot(&self, index: usize) -> MutexGuard<'_, Option<T>> {
        match self.slots[index & self.mask].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Wakes the consumer if (and only if) it is parked.
    fn wake_consumer(&self) {
        if self.consumer_parked.load(Ordering::Relaxed) {
            let _guard = self.park.lock();
            self.data_ready.notify_all();
        }
    }

    /// Wakes the producer if (and only if) it is parked.
    fn wake_producer(&self) {
        if self.producer_parked.load(Ordering::Relaxed) {
            let _guard = self.park.lock();
            self.space_ready.notify_all();
        }
    }
}

/// The producer half of a ring (held by the dispatcher).
#[derive(Debug)]
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
    counters: Arc<RingCounters>,
    policy: FullPolicy,
    /// Producer-private copy of `tail` (published on enqueue).
    tail: Cell<usize>,
    /// Cached consumer index, refreshed only on apparent-full — the
    /// steady-state enqueue never reads the consumer's cache line.
    cached_head: Cell<usize>,
}

/// The consumer half of a ring (held by one worker shard).
#[derive(Debug)]
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
    /// Consumer-private copy of `head` (published on drain).
    head: Cell<usize>,
    /// Cached producer index, refreshed only on apparent-empty.
    cached_tail: Cell<usize>,
}

/// Creates a bounded ring of the given capacity. The third return
/// value is the shared counter block (also reachable from the
/// producer), handed out separately so metrics snapshots can read it
/// after the producer has been dropped to close the ring.
pub fn ring<T>(
    capacity: usize,
    policy: FullPolicy,
) -> (RingProducer<T>, RingConsumer<T>, Arc<RingCounters>) {
    assert!(capacity >= 1, "ring capacity must be at least 1");
    let slots = capacity.next_power_of_two();
    let shared = Arc::new(RingShared {
        slots: (0..slots).map(|_| Mutex::new(None)).collect(),
        mask: slots - 1,
        capacity,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        park: Mutex::new(()),
        data_ready: Condvar::new(),
        space_ready: Condvar::new(),
        consumer_parked: AtomicBool::new(false),
        producer_parked: AtomicBool::new(false),
    });
    let counters = Arc::new(RingCounters::default());
    (
        RingProducer {
            shared: shared.clone(),
            counters: counters.clone(),
            policy,
            tail: Cell::new(0),
            cached_head: Cell::new(0),
        },
        RingConsumer {
            shared,
            head: Cell::new(0),
            cached_tail: Cell::new(0),
        },
        counters,
    )
}

impl<T> RingProducer<T> {
    /// Free slots as the producer sees them, refreshing the cached
    /// consumer index only when the ring appears full.
    fn free_slots(&self) -> usize {
        let tail = self.tail.get();
        let mut head = self.cached_head.get();
        if tail - head >= self.shared.capacity {
            head = self.shared.head.0.load(Ordering::Acquire);
            self.cached_head.set(head);
        }
        self.shared.capacity - (tail - head)
    }

    /// Writes `item` into the next slot without publishing it.
    fn stage(&self, item: T) {
        let tail = self.tail.get();
        *self.shared.slot(tail) = Some(item);
        self.tail.set(tail + 1);
    }

    /// Publishes every staged slot and wakes a parked consumer.
    fn publish(&self) {
        self.shared.tail.0.store(self.tail.get(), Ordering::Release);
        self.shared.wake_consumer();
    }

    /// Parks until the consumer frees a slot or dies. Returns `false`
    /// when the consumer is gone.
    fn wait_for_space(&self) -> bool {
        let mut spins = 0u32;
        loop {
            if self.shared.consumer_gone.load(Ordering::Acquire) {
                return false;
            }
            let head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.get() - head < self.shared.capacity {
                self.cached_head.set(head);
                return true;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let guard = match self.shared.park.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            self.shared.producer_parked.store(true, Ordering::Relaxed);
            let _ = self.shared.space_ready.wait_timeout(guard, PARK_TIMEOUT);
            self.shared.producer_parked.store(false, Ordering::Relaxed);
        }
    }

    /// Offers one item. Returns `true` if it was enqueued, `false` if
    /// it was dropped (full ring under [`FullPolicy::Drop`], or the
    /// consumer is gone). Every `false` is visible in the counters.
    pub fn push(&self, item: T) -> bool {
        self.offer(item).enqueued()
    }

    /// Offers one item, reporting how the attempt went so the caller
    /// can track ring saturation. Counter semantics are identical to
    /// [`RingProducer::push`].
    pub fn offer(&self, item: T) -> PushOutcome {
        if self.shared.consumer_gone.load(Ordering::Acquire) {
            self.counters.dropped_full.fetch_add(1, Ordering::Relaxed);
            return PushOutcome::DroppedFull;
        }
        if self.free_slots() > 0 {
            self.stage(item);
            self.publish();
            self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
            return PushOutcome::Enqueued;
        }
        match self.policy {
            FullPolicy::Drop => {
                self.counters.dropped_full.fetch_add(1, Ordering::Relaxed);
                PushOutcome::DroppedFull
            }
            FullPolicy::Block => {
                self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                // A blocking wait wakes with a failure if the consumer
                // dies — bounded wait, never a deadlock.
                if self.wait_for_space() {
                    self.stage(item);
                    self.publish();
                    self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
                    PushOutcome::EnqueuedAfterStall
                } else {
                    self.counters.dropped_full.fetch_add(1, Ordering::Relaxed);
                    PushOutcome::DroppedFull
                }
            }
        }
    }

    /// Enqueues a whole burst, draining `items`: slots are staged in
    /// order and published with **one** index store (and at most one
    /// wakeup check) for the entire batch. Under [`FullPolicy::Drop`] a
    /// full ring drops the rest of the batch (counted); under
    /// [`FullPolicy::Block`] the producer parks until space frees,
    /// counting one stall per wait episode, and only a dead consumer
    /// can make it drop the remainder.
    pub fn push_batch(&self, items: &mut Vec<T>) -> BatchPush {
        let mut result = BatchPush::default();
        let mut drain = items.drain(..);
        let mut remaining = drain.len();
        let mut stalled_round = false;
        while remaining > 0 {
            if self.shared.consumer_gone.load(Ordering::Acquire) {
                break;
            }
            let free = self.free_slots();
            if free == 0 {
                match self.policy {
                    FullPolicy::Drop => break,
                    FullPolicy::Block => {
                        self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                        stalled_round = true;
                        if !self.wait_for_space() {
                            break;
                        }
                        continue;
                    }
                }
            }
            let take = free.min(remaining);
            for _ in 0..take {
                // `drain` yields exactly `remaining` more items.
                let Some(item) = drain.next() else { break };
                self.stage(item);
            }
            self.publish();
            remaining -= take;
            if stalled_round {
                result.stalled += take;
            } else {
                result.enqueued += take;
            }
            stalled_round = false;
        }
        // Anything left in the drain was dropped: count it, then let
        // the drop of `drain` discard the items.
        result.dropped = drain.len();
        drop(drain);
        self.counters
            .enqueued
            .fetch_add((result.enqueued + result.stalled) as u64, Ordering::Relaxed);
        self.counters
            .dropped_full
            .fetch_add(result.dropped as u64, Ordering::Relaxed);
        result
    }

    /// Records a packet shed at ingress instead of being offered to
    /// this ring (the item never touches the slots).
    pub fn record_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.wake_consumer();
        // Also wake unconditionally: the parked flag is advisory.
        let _guard = self.shared.park.lock();
        self.shared.data_ready.notify_all();
    }
}

impl<T> RingConsumer<T> {
    /// Moves up to `max` available items into `out`, publishing the new
    /// head once. Refreshes the cached producer index only when the
    /// ring appears empty.
    fn try_drain(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.head.get();
        let mut tail = self.cached_tail.get();
        if tail == head {
            tail = self.shared.tail.0.load(Ordering::Acquire);
            self.cached_tail.set(tail);
        }
        let take = (tail - head).min(max);
        for i in 0..take {
            let item = self
                .shared
                .slot(head + i)
                .take()
                .expect("published slot must hold an item");
            out.push(item);
        }
        if take > 0 {
            self.head.set(head + take);
            self.shared.head.0.store(head + take, Ordering::Release);
            self.shared.wake_producer();
        }
        take
    }

    /// Receives a batch of up to `max` items: blocks for the first,
    /// then drains whatever else is immediately available. Returns
    /// `false` once the ring is closed (producer dropped) *and* empty.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        debug_assert!(max >= 1);
        let mut spins = 0u32;
        loop {
            if self.try_drain(out, max) > 0 {
                return true;
            }
            if self.shared.closed.load(Ordering::Acquire) {
                // Items published before the close are still owed:
                // force one last refresh past the cache.
                self.cached_tail
                    .set(self.shared.tail.0.load(Ordering::Acquire));
                return self.try_drain(out, max) > 0;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let guard = match self.shared.park.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            self.shared.consumer_parked.store(true, Ordering::Relaxed);
            let _ = self.shared.data_ready.wait_timeout(guard, PARK_TIMEOUT);
            self.shared.consumer_parked.store(false, Ordering::Relaxed);
        }
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
        let _guard = self.shared.park.lock();
        self.shared.space_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_order() {
        let (p, c, counters) = ring(8, FullPolicy::Drop);
        for i in 0..5 {
            assert!(p.push(i));
        }
        let mut out = Vec::new();
        assert!(c.recv_batch(&mut out, 16));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(counters.snapshot().enqueued, 5);
    }

    #[test]
    fn full_ring_drops_are_counted_never_silent() {
        let (p, _c, counters) = ring(2, FullPolicy::Drop);
        assert!(p.push(1));
        assert!(p.push(2));
        assert!(!p.push(3), "third push exceeds capacity");
        assert!(!p.push(4));
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, 2);
        assert_eq!(snap.dropped_full, 2);
        assert_eq!(snap.enqueued + snap.dropped_full, 4, "all pushes accounted");
    }

    #[test]
    fn capacity_is_logical_not_rounded() {
        // Capacity 3 uses 4 physical slots but must still reject the
        // 4th un-drained item.
        let (p, _c, counters) = ring(3, FullPolicy::Drop);
        assert!(p.push(1));
        assert!(p.push(2));
        assert!(p.push(3));
        assert!(!p.push(4), "logical capacity is 3");
        assert_eq!(counters.snapshot().enqueued, 3);
    }

    #[test]
    fn block_policy_waits_for_the_consumer_and_counts_the_stall() {
        let (p, c, counters) = ring(1, FullPolicy::Block);
        assert!(p.push(10));
        let waiter = std::thread::spawn(move || {
            // Fills the ring, then must block until the consumer drains.
            assert!(p.push(20));
            assert!(p.push(30));
        });
        let mut out = Vec::new();
        while out.len() < 3 {
            assert!(c.recv_batch(&mut out, 4));
        }
        waiter.join().unwrap();
        assert_eq!(out, vec![10, 20, 30]);
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, 3);
        assert_eq!(snap.dropped_full, 0);
        assert!(snap.stalls >= 1, "at least one push found the ring full");
    }

    #[test]
    fn closed_ring_terminates_consumer() {
        let (p, c, _) = ring(4, FullPolicy::Drop);
        p.push(1);
        drop(p);
        let mut out = Vec::new();
        assert!(c.recv_batch(&mut out, 4), "drains the remaining item");
        assert_eq!(out, vec![1]);
        assert!(!c.recv_batch(&mut out, 4), "then reports closure");
    }

    #[test]
    fn push_after_consumer_gone_is_counted_drop() {
        let (p, c, counters) = ring(4, FullPolicy::Block);
        drop(c);
        assert!(!p.push(1));
        assert_eq!(counters.snapshot().dropped_full, 1);
    }

    #[test]
    fn block_ring_with_dead_consumer_cannot_deadlock() {
        // A Block-policy producer blocked on a full ring must wake and
        // report a drop when the consumer dies — bounded wait, not a
        // hang. Run the producer on its own thread and bound how long
        // we are willing to wait for it.
        let (p, c, counters) = ring(1, FullPolicy::Block);
        assert!(p.push(1), "fills the ring");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            // Blocks (ring full) until the consumer is dropped below.
            let second = p.push(2);
            done_tx.send(second).expect("main thread is waiting");
        });
        // Give the producer time to reach the blocking wait, then kill
        // the consumer out from under it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(c);
        let second = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("blocked producer must wake once the consumer dies");
        assert!(!second, "the blocked push reports the loss");
        producer.join().expect("producer thread exits cleanly");
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, 1);
        assert_eq!(snap.dropped_full, 1);
        assert!(snap.stalls >= 1, "the blocking attempt was counted");
    }

    #[test]
    fn offer_reports_saturation_and_shed_is_counted() {
        let (p, _c, counters) = ring(1, FullPolicy::Drop);
        assert_eq!(p.offer(1), PushOutcome::Enqueued);
        assert!(!PushOutcome::Enqueued.saturated());
        assert_eq!(p.offer(2), PushOutcome::DroppedFull);
        assert!(PushOutcome::DroppedFull.saturated());
        p.record_shed();
        p.record_shed();
        let snap = counters.snapshot();
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.enqueued, 1);
        assert_eq!(snap.dropped_full, 1);
    }

    #[test]
    fn recv_batch_respects_max() {
        let (p, c, _) = ring(16, FullPolicy::Drop);
        for i in 0..10 {
            p.push(i);
        }
        let mut out = Vec::new();
        assert!(c.recv_batch(&mut out, 4));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn push_batch_drop_policy_fills_then_drops_the_tail() {
        let (p, _c, counters) = ring(4, FullPolicy::Drop);
        let mut batch: Vec<u32> = (0..7).collect();
        let res = p.push_batch(&mut batch);
        assert!(batch.is_empty(), "push_batch drains its input");
        assert_eq!(res.enqueued, 4, "first items fill the ring in order");
        assert_eq!(res.dropped, 3);
        assert_eq!(res.stalled, 0);
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, 4);
        assert_eq!(snap.dropped_full, 3);
    }

    #[test]
    fn push_batch_block_policy_delivers_everything() {
        let (p, c, counters) = ring(2, FullPolicy::Block);
        let producer = std::thread::spawn(move || {
            let mut batch: Vec<u32> = (0..50).collect();
            let res = p.push_batch(&mut batch);
            assert_eq!(res.dropped, 0);
            assert_eq!(res.enqueued + res.stalled, 50);
        });
        let mut out = Vec::new();
        while out.len() < 50 {
            assert!(c.recv_batch(&mut out, 8));
        }
        producer.join().unwrap();
        assert_eq!(out, (0..50).collect::<Vec<u32>>(), "FIFO across waits");
        let snap = counters.snapshot();
        assert_eq!(snap.enqueued, 50);
        assert!(snap.stalls >= 1, "a capacity-2 ring must stall a 50-burst");
    }

    #[test]
    fn push_batch_to_dead_consumer_counts_all_dropped() {
        let (p, c, counters) = ring(8, FullPolicy::Block);
        drop(c);
        let mut batch: Vec<u32> = (0..5).collect();
        let res = p.push_batch(&mut batch);
        assert_eq!(res.enqueued + res.stalled, 0);
        assert_eq!(res.dropped, 5);
        assert_eq!(counters.snapshot().dropped_full, 5);
    }

    #[test]
    fn empty_push_batch_is_a_no_op() {
        let (p, _c, counters) = ring(4, FullPolicy::Drop);
        let mut batch: Vec<u32> = Vec::new();
        assert_eq!(p.push_batch(&mut batch), BatchPush::default());
        assert_eq!(counters.snapshot(), RingCountersSnapshot::default());
    }

    #[test]
    fn interleaved_push_and_push_batch_stay_fifo() {
        let (p, c, counters) = ring(64, FullPolicy::Block);
        p.push(0u32);
        let mut batch: Vec<u32> = (1..10).collect();
        p.push_batch(&mut batch);
        p.push(10);
        drop(p);
        let mut out = Vec::new();
        while c.recv_batch(&mut out, 4) {}
        assert_eq!(out, (0..=10).collect::<Vec<u32>>());
        assert_eq!(counters.snapshot().enqueued, 11);
    }

    #[test]
    fn indices_live_on_separate_cache_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 64);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 64);
    }
}
