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
//! - **Ownership frees old generations.** Each reader holds its own
//!   generation's set; the table holds the current set and the one its
//!   last publish replaced. A set is freed by whoever drops its last
//!   `Arc`, so at most readers + 2 sets are alive however far a reader
//!   lags. Keeping the replaced set one publish longer means that, once
//!   the readers have moved on, the publishing thread (which allocated
//!   the set) is the one that frees it, not a worker mid-batch.
//!
//! Generations are numbered from 1 (the seed set). The table also
//! timestamps every publish ([`EpochRouteTable::publish_ns`], on the
//! table's own monotonic clock) so workers can report **detection
//! latency**: the time from a generation becoming visible to the first
//! loop event a shard raises against it.
//!
//! [`RouteSet`]: crate::route::RouteSet

use crate::route::RouteSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug)]
struct TableState {
    /// Current generation number (mirrors the atomic, authoritative
    /// under the lock).
    gen: u64,
    /// The current generation's route set.
    current: Arc<RouteSet>,
    /// The set the last publish replaced, dropped by the next publish.
    previous: Option<Arc<RouteSet>>,
    /// `publish_ns[g - 1]` = monotonic ns at which generation `g` was
    /// published.
    publish_ns: Vec<u64>,
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
                previous: None,
                publish_ns: vec![0],
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

    /// A snapshot of the current route set. One-shot consumers only;
    /// workers should hold a [`RouteReader`].
    pub fn current(&self) -> Arc<RouteSet> {
        Arc::clone(&self.lock().current)
    }

    /// Publishes `routes` as the next generation and returns its
    /// number. The replaced set is kept until the next publish; the
    /// one kept before it is dropped here, after unlocking, and freed
    /// if no reader still holds it.
    pub fn publish(&self, routes: Arc<RouteSet>) -> u64 {
        let mut st = self.lock();
        let replaced = std::mem::replace(&mut st.current, routes);
        let stale = st.previous.replace(replaced);
        st.gen += 1;
        let gen = st.gen;
        st.publish_ns.push(self.now_ns());
        self.gen.store(gen, Ordering::Release);
        drop(st);
        drop(stale);
        gen
    }

    /// A new reader on the current generation.
    pub fn reader(self: &Arc<Self>) -> RouteReader {
        let st = self.lock();
        RouteReader {
            table: Arc::clone(self),
            initial_gen: st.gen,
            gen: st.gen,
            current: Arc::clone(&st.current),
        }
    }
}

/// A shard worker's lock-free handle onto an [`EpochRouteTable`].
///
/// Call [`refresh`](Self::refresh) once per batch: when nothing was
/// published it is a single atomic load; when the table moved it takes
/// the new generation's set and hands back the one it replaced, so the
/// caller can re-key its per-slot caches (the worker's memo) for
/// exactly the slots whose route changed.
#[derive(Debug)]
pub struct RouteReader {
    table: Arc<EpochRouteTable>,
    initial_gen: u64,
    gen: u64,
    current: Arc<RouteSet>,
}

impl RouteReader {
    /// The generation this reader is on.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The generation the reader was created at — anything above it
    /// was published *after* this reader (worker) started.
    #[inline]
    pub fn initial_generation(&self) -> u64 {
        self.initial_gen
    }

    /// The route set of the reader's generation.
    #[inline]
    pub fn routes(&self) -> &RouteSet {
        &self.current
    }

    /// Advances to the published generation if it moved. Returns the
    /// set the reader held before on a swap (the new generation's
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PathSpec;
    use std::sync::Weak;

    /// A route set whose length encodes the generation it was built
    /// for, so tests can verify a reader sees exactly the set matching
    /// its generation.
    fn tagged_set(generation: usize) -> Arc<RouteSet> {
        let specs: Vec<PathSpec> = (0..generation)
            .map(|i| PathSpec::linear(vec![i, i + 1]))
            .collect();
        RouteSet::from_specs(&specs)
    }

    /// Publishes a fresh tagged set and returns a weak handle on it.
    fn publish_tagged(table: &EpochRouteTable, generation: usize) -> Weak<RouteSet> {
        let set = tagged_set(generation);
        let weak = Arc::downgrade(&set);
        table.publish(set);
        weak
    }

    fn alive(set: &Weak<RouteSet>) -> bool {
        set.strong_count() > 0
    }

    #[test]
    fn publish_bumps_generation_and_reader_refreshes() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut reader = table.reader();
        assert_eq!(reader.generation(), 1);
        assert!(reader.refresh().is_none());

        assert_eq!(table.publish(tagged_set(2)), 2);
        assert_eq!(table.generation(), 2);
        // The reader still sees its own generation until it refreshes.
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
        let gen1 = Arc::downgrade(&table.current());

        let gen2 = publish_tagged(&table, 2);
        fast.refresh();
        publish_tagged(&table, 3);
        // Only `slow`, still on generation 1, holds it now.
        assert!(alive(&gen1), "gen 1 freed under a reader");
        assert_eq!(slow.routes().len(), 1);
        slow.refresh();
        assert!(!alive(&gen1), "gen 1 leaked after its last reader moved on");

        // Generation 2 has no reader left: the table's `previous` alone
        // keeps it, until the next publish.
        fast.refresh();
        assert!(alive(&gen2), "the table keeps the replaced set");
        publish_tagged(&table, 4);
        assert!(!alive(&gen2), "gen 2 leaked after the next publish");
    }

    #[test]
    fn dropping_a_reader_unpins_it() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let stuck = table.reader();
        let mut sets = vec![Arc::downgrade(&table.current())];
        for g in 2..=10 {
            sets.push(publish_tagged(&table, g));
        }
        // Generation 1 (the stuck reader's), 9 (the table's previous)
        // and 10 (current) are alive; nothing between them is.
        let live: Vec<usize> = (1..=10).filter(|&g| alive(&sets[g - 1])).collect();
        assert_eq!(live, vec![1, 9, 10]);
        drop(stuck);
        assert!(!alive(&sets[0]), "a dropped reader frees its set");
    }

    #[test]
    fn retention_is_bounded_under_continuous_churn() {
        let table = Arc::new(EpochRouteTable::new(tagged_set(1)));
        let mut reader = table.reader();
        let mut sets = vec![Arc::downgrade(&table.current())];
        for g in 2..200usize {
            sets.push(publish_tagged(&table, g));
            reader.refresh();
            // Only the current set and the one its publish replaced.
            let live = sets.iter().filter(|s| alive(s)).count();
            assert_eq!(live, 2, "unbounded retention at gen {g}");
        }
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
                        // matches the generation it is on.
                        assert_eq!(reader.routes().len() as u64, reader.generation());
                        std::hint::spin_loop();
                    }
                    swaps
                })
            })
            .collect();
        let sets: Vec<_> = (2..=300).map(|g| publish_tagged(&table, g)).collect();
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        // Readers were live the whole time, so at least one swap was
        // observed somewhere.
        assert!(total >= 1);
        // With every reader gone, only the table's two sets remain.
        let live: Vec<usize> = (2..=300).filter(|&g| alive(&sets[g - 2])).collect();
        assert_eq!(live, vec![299, 300]);
    }
}
