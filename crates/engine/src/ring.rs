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
//! The queue is one `Mutex<VecDeque<T>>` per ring, allocated once at
//! the ring's capacity and never grown (the crate forbids `unsafe`, so a
//! lock stands in for the `UnsafeCell` slots of a lock-free ring). Each
//! side takes it once per *batch*, not once per item:
//! [`RingProducer::push_batch`] moves as much of a burst as fits under
//! one lock, and [`RingConsumer::recv_batch`] drains up to `max` items
//! under one lock. With one producer and one consumer the lock is
//! uncontended except when both sides arrive at once.
//!
//! Blocking (an empty consumer, or a full ring under
//! [`FullPolicy::Block`]) spins briefly on a length mirror kept beside
//! the queue, then parks on a condvar so starved workers consume no CPU
//! — which keeps the per-shard CPU-time capacity metric honest. A side
//! sets its parked flag and re-checks the queue while holding the
//! queue lock, and the other side reads that flag under the same lock
//! after moving items, so a wakeup is never lost; the fast path pays
//! no notify when nobody is parked.

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Spin iterations before a blocked side parks on the condvar.
const SPINS: u32 = 64;
/// Park timeout: a parked side re-checks the queue at least this often.
/// No wakeup is lost (see the module docs), so this is only a backstop.
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

impl RingCountersSnapshot {
    /// Serializes this ring's row of the report.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("enqueued", Json::UInt(self.enqueued));
        obj.set("dropped_full", Json::UInt(self.dropped_full));
        obj.set("stalls", Json::UInt(self.stalls));
        obj.set("shed", Json::UInt(self.shed));
        obj
    }
}

/// The state both halves share.
#[derive(Debug)]
struct RingShared<T> {
    /// The items in flight, oldest first. Allocated with `capacity`
    /// slots; a push moves at most `capacity - len` items, so it never
    /// grows.
    queue: Mutex<VecDeque<T>>,
    /// Logical capacity in items.
    capacity: usize,
    /// Mirror of `queue.len()`, stored under the lock after every move:
    /// what a blocked side spins on before taking the lock. Only a
    /// hint — every decision is re-made under the lock.
    len: AtomicUsize,
    /// Producer dropped: no more items will ever arrive. Set under the
    /// lock.
    closed: AtomicBool,
    /// Consumer dropped: pushes can only fail. Set under the lock.
    consumer_gone: AtomicBool,
    /// One condvar per direction, both on `queue`'s mutex, and a flag
    /// per direction, set and cleared under that mutex, so a side that
    /// moved items notifies only when the other side is parked.
    data_ready: Condvar,
    space_ready: Condvar,
    consumer_parked: AtomicBool,
    producer_parked: AtomicBool,
}

impl<T> RingShared<T> {
    /// Locks the queue, riding through poisoning: no panic can strike
    /// while the guard is held (moves into a preallocated queue neither
    /// allocate nor run user code), so the queue is whole either way.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Parks on `ready` (guard released while waiting) with `parked`
    /// raised, for at most [`PARK_TIMEOUT`]. The caller has re-checked,
    /// under `queue`, that it must wait.
    fn park(&self, queue: MutexGuard<'_, VecDeque<T>>, ready: &Condvar, parked: &AtomicBool) {
        parked.store(true, Ordering::Relaxed);
        let queue = match ready.wait_timeout(queue, PARK_TIMEOUT) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
        parked.store(false, Ordering::Relaxed);
        drop(queue);
    }

    /// Moves as many of `items` as fit, in order, under one lock, then
    /// wakes a parked consumer. Returns how many moved.
    fn push_from(&self, items: &mut impl ExactSizeIterator<Item = T>) -> usize {
        let mut queue = self.lock();
        let take = (self.capacity - queue.len()).min(items.len());
        queue.extend(items.by_ref().take(take));
        self.len.store(queue.len(), Ordering::Relaxed);
        let wake = self.consumer_parked.load(Ordering::Relaxed);
        drop(queue);
        if wake {
            self.data_ready.notify_one();
        }
        take
    }

    /// Moves up to `max` items, oldest first, into `out` under one lock,
    /// then wakes a parked producer. Returns how many moved.
    fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut queue = self.lock();
        let take = queue.len().min(max);
        out.extend(queue.drain(..take));
        self.len.store(queue.len(), Ordering::Relaxed);
        let wake = self.producer_parked.load(Ordering::Relaxed);
        drop(queue);
        if wake {
            self.space_ready.notify_one();
        }
        take
    }

    /// Sets `flag` under the lock, then wakes the other side — how each
    /// half announces its drop.
    fn hang_up(&self, flag: &AtomicBool, ready: &Condvar) {
        let queue = self.lock();
        flag.store(true, Ordering::Release);
        drop(queue);
        ready.notify_all();
    }
}

/// The producer half of a ring (held by the dispatcher).
#[derive(Debug)]
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
    counters: Arc<RingCounters>,
    policy: FullPolicy,
}

/// The consumer half of a ring (held by one worker shard).
#[derive(Debug)]
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
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
    let shared = Arc::new(RingShared {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
        len: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
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
        },
        RingConsumer { shared },
        counters,
    )
}

impl<T> RingProducer<T> {
    /// Waits until the consumer frees a slot or dies: spins on the
    /// length mirror, then parks. Returns `false` when the consumer is
    /// gone.
    fn wait_for_space(&self) -> bool {
        let shared = &*self.shared;
        let mut spins = 0u32;
        loop {
            if shared.consumer_gone.load(Ordering::Acquire) {
                return false;
            }
            if shared.len.load(Ordering::Relaxed) < shared.capacity {
                return true;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let queue = shared.lock();
            if queue.len() == shared.capacity && !shared.consumer_gone.load(Ordering::Relaxed) {
                shared.park(queue, &shared.space_ready, &shared.producer_parked);
            }
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
        let pushed = self.push_all(&mut std::iter::once(item));
        if pushed.enqueued > 0 {
            PushOutcome::Enqueued
        } else if pushed.stalled > 0 {
            PushOutcome::EnqueuedAfterStall
        } else {
            PushOutcome::DroppedFull
        }
    }

    /// Enqueues a whole burst, draining `items`: each round moves as
    /// many items as fit, in order, under **one** lock with at most one
    /// wakeup. Under [`FullPolicy::Drop`] a full ring drops the rest of
    /// the batch (counted); under [`FullPolicy::Block`] the producer
    /// waits until space frees, counting one stall per wait episode,
    /// and only a dead consumer can make it drop the remainder.
    pub fn push_batch(&self, items: &mut Vec<T>) -> BatchPush {
        self.push_all(&mut items.drain(..))
    }

    /// The push loop behind [`Self::offer`] and [`Self::push_batch`]:
    /// whatever is left in `items` when it returns was dropped.
    fn push_all(&self, items: &mut impl ExactSizeIterator<Item = T>) -> BatchPush {
        let mut result = BatchPush::default();
        let mut stalled_round = false;
        while items.len() > 0 && !self.shared.consumer_gone.load(Ordering::Acquire) {
            let moved = self.shared.push_from(items);
            if moved == 0 {
                if self.policy == FullPolicy::Drop {
                    break;
                }
                self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                stalled_round = true;
                if !self.wait_for_space() {
                    break;
                }
                continue;
            }
            if stalled_round {
                result.stalled += moved;
            } else {
                result.enqueued += moved;
            }
            stalled_round = false;
        }
        result.dropped = items.len();
        self.counters
            .enqueued
            .fetch_add((result.enqueued + result.stalled) as u64, Ordering::Relaxed);
        self.counters
            .dropped_full
            .fetch_add(result.dropped as u64, Ordering::Relaxed);
        result
    }

    /// Records a packet shed at ingress instead of being offered to
    /// this ring (the item never touches the queue).
    pub fn record_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.shared
            .hang_up(&self.shared.closed, &self.shared.data_ready);
    }
}

impl<T> RingConsumer<T> {
    /// Receives a batch of up to `max` items: waits for the first,
    /// then drains whatever else is immediately available, under one
    /// lock. Returns `false` once the ring is closed (producer dropped)
    /// *and* empty.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        debug_assert!(max >= 1);
        let shared = &*self.shared;
        let mut spins = 0u32;
        loop {
            // Acquire pairs with the close's Release: every item pushed
            // before the close is in the queue the drain locks.
            let closed = shared.closed.load(Ordering::Acquire);
            if closed || shared.len.load(Ordering::Relaxed) > 0 {
                if shared.drain_into(out, max) > 0 {
                    return true;
                }
                if closed {
                    return false;
                }
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let queue = shared.lock();
            if queue.is_empty() && !shared.closed.load(Ordering::Relaxed) {
                shared.park(queue, &shared.data_ready, &shared.consumer_parked);
            }
        }
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.shared
            .hang_up(&self.shared.consumer_gone, &self.shared.space_ready);
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
        // Drain only once the waiter has found the ring full: draining
        // first could let both pushes through without a stall.
        while counters.snapshot().stalls == 0 {
            std::thread::yield_now();
        }
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
}
