//! Epoch/RCU-style hot-swappable route tables.
//!
//! The engine originally compiled one [`RouteSet`] before traffic
//! started and froze it for the whole run — fine for replaying loops,
//! useless for *catching* them, because real routing loops are
//! transient artifacts of protocol convergence. This module makes the
//! route table a sequence of immutable **generations** behind a single
//! atomic version counter:
//!
//! - **Readers never block.** Each shard worker owns a [`RouteReader`]
//!   whose hot path is one `Acquire` load of the published generation
//!   per batch ([`RouteReader::refresh`]). When the generation is
//!   unchanged — the overwhelmingly common case — the reader touches no
//!   lock and keeps using its cached `Arc<RouteSet>`.
//! - **Writers publish with one swap.** [`EpochRouteTable::publish`]
//!   installs a new `Arc<RouteSet>` under the table mutex, then makes
//!   it visible with a single `Release` store of the bumped generation.
//!   Workers observe the swap at their next batch boundary.
//! - **Reclamation is epoch-based.** Every reader advertises the
//!   generation it is pinned to in a cache-padded per-reader slot
//!   (written only when the reader moves generations, so slots never
//!   ping-pong between cores). A retired generation `g` is freed once
//!   `g < min(pinned)` over all live readers — i.e. once every worker
//!   has quiesced past it. `Arc` already guarantees memory safety; the
//!   explicit retired list is what makes retention *bounded and
//!   observable* ([`EpochRouteTable::retained`]), which the churn tests
//!   assert under continuous update storms.
//!
//! Generations are numbered from 1 (the seed set). The table also
//! timestamps every publish ([`EpochRouteTable::publish_ns`], on the
//! table's own monotonic clock) so workers can report **detection
//! latency**: the time from a generation becoming visible to the first
//! loop event a shard raises against it.
//!
//! [`RouteSet`]: crate::route::RouteSet

use crate::ring::CachePadded;
use crate::route::RouteSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Slot value meaning "this reader is gone and pins nothing".
const UNPINNED: u64 = u64::MAX;

/// One reader's advertised pinned generation, on its own cache line so
/// refresh stores never false-share with neighbouring readers.
#[derive(Debug)]
struct ReaderSlot {
    pinned: CachePadded<AtomicU64>,
}

#[derive(Debug)]
struct TableState {
    /// Current generation number (mirrors the atomic, authoritative
    /// under the lock).
    gen: u64,
    /// The current generation's route set.
    current: Arc<RouteSet>,
    /// Retired generations not yet quiesced past by every reader.
    retired: Vec<(u64, Arc<RouteSet>)>,
    /// Live reader slots (a slot is dropped from the registry once its
    /// reader is gone).
    readers: Vec<Arc<ReaderSlot>>,
    /// `publish_ns[g - 1]` = monotonic ns at which generation `g` was
    /// published.
    publish_ns: Vec<u64>,
    /// Total generations reclaimed so far.
    reclaimed: u64,
}

/// A hot-swappable route table: immutable [`RouteSet`] generations
/// published by one writer and read lock-free by shard workers.
#[derive(Debug)]
pub struct EpochRouteTable {
    /// Published generation; the only word the reader hot path touches.
    gen: AtomicU64,
    state: Mutex<TableState>,
    epoch0: Instant,
}

impl EpochRouteTable {
    /// A table whose generation 1 is `initial`.
    pub fn new(initial: Arc<RouteSet>) -> EpochRouteTable {
        EpochRouteTable {
            gen: AtomicU64::new(1),
            state: Mutex::new(TableState {
                gen: 1,
                current: initial,
                retired: Vec::new(),
                readers: Vec::new(),
                publish_ns: vec![0],
                reclaimed: 0,
            }),
            epoch0: Instant::now(),
        }
    }

    /// The table mutex is only ever held for pointer swaps and small
    /// bookkeeping — a panic while holding it leaves the state
    /// consistent, so poison is recovered rather than propagated (a
    /// panicking worker must not take the route table down with it).
    fn lock(&self) -> MutexGuard<'_, TableState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Nanoseconds elapsed on the table's monotonic clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch0.elapsed().as_nanos() as u64
    }

    /// The currently published generation number.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// When generation `gen` was published, in [`now_ns`](Self::now_ns)
    /// time, or `None` for an unknown generation.
    pub fn publish_ns(&self, gen: u64) -> Option<u64> {
        if gen == 0 {
            return None;
        }
        self.lock().publish_ns.get(gen as usize - 1).copied()
    }

    /// A snapshot of the current route set (without registering a
    /// reader). One-shot consumers only; workers should hold a
    /// [`RouteReader`].
    pub fn current(&self) -> Arc<RouteSet> {
        Arc::clone(&self.lock().current)
    }

    /// Publishes `routes` as the next generation and returns its
    /// number. The previous generation is retired and reclaimed once
    /// every reader has quiesced past it.
    pub fn publish(&self, routes: Arc<RouteSet>) -> u64 {
        let mut st = self.lock();
        let old = std::mem::replace(&mut st.current, routes);
        let old_gen = st.gen;
        st.retired.push((old_gen, old));
        st.gen += 1;
        let gen = st.gen;
        st.publish_ns.push(self.now_ns());
        // Make the new generation visible to readers *before* reclaim,
        // so a reader refreshing concurrently can pin it immediately.
        self.gen.store(gen, Ordering::Release);
        Self::reclaim_locked(&mut st);
        gen
    }

    /// Runs a reclamation pass without publishing — used after readers
    /// drop or advance to release retired generations promptly.
    pub fn try_reclaim(&self) {
        Self::reclaim_locked(&mut self.lock());
    }

    /// Retired generations still retained (not yet quiesced past).
    pub fn retained(&self) -> usize {
        self.lock().retired.len()
    }

    /// Total generations reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.lock().reclaimed
    }

    fn reclaim_locked(st: &mut TableState) {
        // Slots are written under this mutex on registration/refresh;
        // the only unlocked write is the UNPINNED store in
        // `RouteReader::drop`, and racing with it is benign — we either
        // keep the generation one pass longer or free it now that the
        // reader (and its own `Arc`) is gone.
        st.readers.retain(|slot| Arc::strong_count(slot) > 1);
        let min_pinned = st
            .readers
            .iter()
            .map(|slot| slot.pinned.0.load(Ordering::Acquire))
            .filter(|&p| p != UNPINNED)
            .min();
        let before = st.retired.len();
        match min_pinned {
            // No pinned readers: nothing can still observe any retired
            // generation.
            None => st.retired.clear(),
            // A retired generation survives only while some reader is
            // still pinned at or before it.
            Some(min) => st.retired.retain(|&(gen, _)| gen >= min),
        }
        st.reclaimed += (before - st.retired.len()) as u64;
    }

    /// Registers a new reader pinned to the current generation.
    pub fn reader(self: &Arc<Self>) -> RouteReader {
        let mut st = self.lock();
        let slot = Arc::new(ReaderSlot {
            pinned: CachePadded(AtomicU64::new(st.gen)),
        });
        st.readers.push(Arc::clone(&slot));
        let gen = st.gen;
        let current = Arc::clone(&st.current);
        drop(st);
        RouteReader {
            table: Arc::clone(self),
            slot,
            initial_gen: gen,
            gen,
            current,
        }
    }
}

/// A shard worker's lock-free handle onto an [`EpochRouteTable`].
///
/// Call [`refresh`](Self::refresh) once per batch: when nothing was
/// published it is a single atomic load; when the table moved it pins
/// the new generation and hands back the set it replaced, so the
/// caller can re-key its per-slot caches (the worker's validity table
/// and memo) for exactly the slots whose route changed.
#[derive(Debug)]
pub struct RouteReader {
    table: Arc<EpochRouteTable>,
    slot: Arc<ReaderSlot>,
    initial_gen: u64,
    gen: u64,
    current: Arc<RouteSet>,
}

impl RouteReader {
    /// The generation this reader is pinned to.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The generation the reader was registered at — anything above it
    /// was published *after* this reader (worker) started.
    #[inline]
    pub fn initial_generation(&self) -> u64 {
        self.initial_gen
    }

    /// The pinned generation's route set.
    #[inline]
    pub fn routes(&self) -> &RouteSet {
        &self.current
    }

    /// Advances to the published generation if it moved. Returns the
    /// set it was pinned to before on a swap (the new generation's
    /// number is [`generation`](Self::generation)), `None` when already
    /// current. Several publishes may have landed since the last
    /// refresh, so the replaced set can be older than the new one's
    /// predecessor; a writer may also republish the same set, in which
    /// case both are the same `Arc`.
    #[inline]
    pub fn refresh(&mut self) -> Option<Arc<RouteSet>> {
        if self.table.gen.load(Ordering::Acquire) == self.gen {
            return None;
        }
        let st = self.table.lock();
        let replaced = std::mem::replace(&mut self.current, Arc::clone(&st.current));
        self.gen = st.gen;
        self.slot.pinned.0.store(self.gen, Ordering::Release);
        Some(replaced)
    }

    /// When `gen` was published, on the table's clock.
    pub fn publish_ns(&self, gen: u64) -> Option<u64> {
        self.table.publish_ns(gen)
    }

    /// Nanoseconds elapsed on the table's clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.table.now_ns()
    }

    /// The underlying table (for tests and reporting).
    pub fn table(&self) -> &Arc<EpochRouteTable> {
        &self.table
    }
}

impl Drop for RouteReader {
    fn drop(&mut self) {
        self.slot.pinned.0.store(UNPINNED, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PathSpec;

    /// A route set whose length encodes the generation it was built
    /// for, so tests can verify a reader sees exactly the set matching
    /// its pinned generation.
    fn tagged_set(generation: usize) -> Arc<RouteSet> {
        let specs: Vec<PathSpec> = (0..generation)
            .map(|i| PathSpec::linear(vec![i, i + 1]))
            .collect();
        RouteSet::from_specs(&specs)
    }

    #[test]
    fn publish_bumps_generation_and_reader_refreshes() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut reader = table.reader();
        assert_eq!(reader.generation(), 1);
        assert!(reader.refresh().is_none());

        assert_eq!(table.publish(tagged_set(2)), 2);
        assert_eq!(table.generation(), 2);
        // The reader still sees its pinned generation until it
        // refreshes.
        assert_eq!(reader.routes().len(), 1);
        let replaced = reader.refresh().expect("a swap was pending");
        assert_eq!(replaced.len(), 1, "refresh hands back the replaced set");
        assert_eq!(reader.generation(), 2);
        assert_eq!(reader.routes().len(), 2);
        assert!(reader.refresh().is_none());
    }

    #[test]
    fn retired_generation_survives_until_every_reader_quiesces() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut fast = table.reader();
        let mut slow = table.reader();
        let gen1 = table.current();
        let weak1 = Arc::downgrade(&gen1);
        drop(gen1);

        table.publish(tagged_set(2));
        fast.refresh();
        table.try_reclaim();
        // `slow` is still pinned at generation 1: it must stay
        // observable.
        assert!(weak1.upgrade().is_some(), "gen 1 reclaimed under a reader");
        assert_eq!(slow.routes().len(), 1);
        assert_eq!(table.retained(), 1);

        slow.refresh();
        table.try_reclaim();
        assert!(weak1.upgrade().is_none(), "gen 1 leaked after quiescence");
        assert_eq!(table.retained(), 0);
        assert_eq!(table.reclaimed(), 1);
    }

    #[test]
    fn dropping_a_reader_unpins_it() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let reader = table.reader();
        table.publish(tagged_set(2));
        assert_eq!(table.retained(), 1);
        drop(reader);
        table.try_reclaim();
        assert_eq!(table.retained(), 0);
    }

    #[test]
    fn retention_is_bounded_under_continuous_churn() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut reader = table.reader();
        for g in 2..200u64 {
            table.publish(tagged_set(g as usize));
            reader.refresh();
            // The reader always advances, so at most the generation
            // retired by the *next* publish is pending.
            assert!(
                table.retained() <= 1,
                "unbounded retention at gen {g}: {}",
                table.retained()
            );
        }
        assert!(table.reclaimed() >= 197);
    }

    #[test]
    fn publish_timestamps_are_monotone() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        table.publish(tagged_set(2));
        table.publish(tagged_set(3));
        let t1 = table.publish_ns(1).unwrap();
        let t2 = table.publish_ns(2).unwrap();
        let t3 = table.publish_ns(3).unwrap();
        assert!(t1 <= t2 && t2 <= t3);
        assert!(table.publish_ns(4).is_none());
        assert!(table.publish_ns(0).is_none());
        assert!(table.now_ns() >= t3);
    }

    #[test]
    fn concurrent_readers_always_observe_a_coherent_generation() {
        use std::sync::atomic::AtomicBool;
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mut reader = table.reader();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut swaps = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if reader.refresh().is_some() {
                            swaps += 1;
                        }
                        // The invariant: the set a reader holds always
                        // matches the generation it is pinned to.
                        assert_eq!(reader.routes().len() as u64, reader.generation());
                        std::hint::spin_loop();
                    }
                    swaps
                })
            })
            .collect();
        for g in 2..=300u64 {
            table.publish(tagged_set(g as usize));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        // Readers were live the whole time, so at least one swap was
        // observed somewhere.
        assert!(total >= 1);
        table.try_reclaim();
        assert_eq!(table.retained(), 0);
    }
}
