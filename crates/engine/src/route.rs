//! Interned, pre-compiled routes: the per-packet route `Vec` deleted.
//!
//! Before this layer existed every [`EnginePacket`] carried its own
//! [`PathSpec`] — two `Arc` hop lists whose refcounts were bumped by
//! the dispatcher and dropped by a worker on another core, a guaranteed
//! cache-line ping-pong per packet. A traffic source now compiles each
//! *distinct* path once into a [`CompiledRoute`] inside a shared
//! read-only [`RouteSet`], and packets carry a plain [`RouteId`] — four
//! bytes, no refcount, no allocation, no cross-core write traffic.
//!
//! Validity is checked where it is used: [`crate::walk`] ends in a route
//! error at the first node the pipeline array lacks, the bounds check
//! its lookup pays anyway.
//!
//! [`EnginePacket`]: crate::packet::EnginePacket

use crate::packet::PathSpec;
use std::collections::HashMap;
use std::sync::Arc;
use unroller_topology::NodeId;

/// A cheap, copyable handle into a [`RouteSet`]. This is what packets
/// carry across the dispatch rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId(u32);

impl RouteId {
    /// The route's dense index within its [`RouteSet`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A `RouteId` addressing slot `index` of a *slot-stable* set (one
    /// built by [`RouteSet::from_specs`], where route `i` belongs to
    /// flow `i`). Pair with [`RouteSet::get_checked`] when the id may
    /// outlive the set that defined it.
    #[inline]
    pub fn from_index(index: usize) -> RouteId {
        RouteId(u32::try_from(index).expect("more than u32::MAX routes"))
    }
}

/// One distinct forwarding path, compiled once: a finite `pre` hop list
/// followed by a `cycle` repeating forever (empty when loop-free) —
/// the same finite form as [`PathSpec`], but owned inline (`Box`, not
/// `Arc`) because a compiled route is shared *via its set*, never
/// cloned per packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRoute {
    /// Hops before the cycle (the full path when loop-free).
    pub pre: Box<[NodeId]>,
    /// The repeating hop cycle (empty when loop-free).
    pub cycle: Box<[NodeId]>,
}

impl CompiledRoute {
    fn compile(spec: &PathSpec) -> Self {
        CompiledRoute {
            pre: spec.pre.iter().copied().collect(),
            cycle: spec.cycle.iter().copied().collect(),
        }
    }

    /// The node at hop `i` (0-based), or `None` when a loop-free route
    /// has ended. Same semantics as [`PathSpec::hop`].
    #[inline]
    pub fn hop(&self, i: usize) -> Option<NodeId> {
        if i < self.pre.len() {
            return Some(self.pre[i]);
        }
        if self.cycle.is_empty() {
            return None;
        }
        Some(self.cycle[(i - self.pre.len()) % self.cycle.len()])
    }

    /// The route's nodes in walk order: `pre`, then `cycle` forever (so
    /// a loop-free route ends after `pre`).
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pre.iter().chain(self.cycle.iter().cycle()).copied()
    }

    /// Whether this route traps packets in a loop.
    #[inline]
    pub fn loops(&self) -> bool {
        !self.cycle.is_empty()
    }

    /// The first hop index that references a node outside
    /// `0..node_count`, or `None` when every reachable hop is valid.
    /// Walk order is `pre` then the first cycle pass — the first pass
    /// visits every cycle node, so nothing later can fail first.
    /// Only `perfbench`'s replay uses it (the engine's walk finds the
    /// same hop by its pipeline lookup); it goes with that replay.
    pub fn first_invalid_hop(&self, node_count: usize) -> Option<u32> {
        for (i, &node) in self.pre.iter().enumerate() {
            if node >= node_count {
                return Some(i as u32);
            }
        }
        for (j, &node) in self.cycle.iter().enumerate() {
            if node >= node_count {
                return Some((self.pre.len() + j) as u32);
            }
        }
        None
    }
}

/// An immutable set of compiled routes, built by a traffic source and
/// shared (one `Arc` per worker, not per packet) with every shard.
#[derive(Debug, Default)]
pub struct RouteSet {
    routes: Vec<CompiledRoute>,
}

impl RouteSet {
    /// A *slot-stable* set: one route per spec, in order, with **no**
    /// deduplication — `RouteId::from_index(i)` resolves to `specs[i]`.
    /// This is the churn-side contract: every generation published into
    /// an [`EpochRouteTable`](crate::epoch::EpochRouteTable) keeps flow
    /// `i`'s route at slot `i`, so in-flight packets minted under an
    /// older generation still resolve to *their flow's* current route
    /// after a swap.
    pub fn from_specs<'a, I>(specs: I) -> Arc<RouteSet>
    where
        I: IntoIterator<Item = &'a PathSpec>,
    {
        Arc::new(RouteSet {
            routes: specs.into_iter().map(CompiledRoute::compile).collect(),
        })
    }

    /// The route behind `id`. Panics on a foreign `id` — route IDs are
    /// only ever minted by this set's builder, so a miss is a logic bug,
    /// not an input error.
    #[inline]
    pub fn get(&self, id: RouteId) -> &CompiledRoute {
        &self.routes[id.index()]
    }

    /// The route behind `id`, or `None` when the id falls outside this
    /// set — the defensive lookup workers use once route tables can be
    /// swapped mid-run and an id minted against one generation may be
    /// resolved against another.
    #[inline]
    pub fn get_checked(&self, id: RouteId) -> Option<&CompiledRoute> {
        self.routes.get(id.index())
    }

    /// Number of distinct routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the set holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates routes in `RouteId` order.
    pub fn iter(&self) -> impl Iterator<Item = &CompiledRoute> {
        self.routes.iter()
    }

    /// The per-route first-invalid-hop table against a pipeline count,
    /// indexed by [`RouteId::index`], into a caller-owned buffer (its
    /// allocation is reused); `u32::MAX` marks a fully valid route.
    /// Only `perfbench`'s replay uses it; it goes with that replay.
    pub fn first_invalid_hops_into(&self, node_count: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.routes
                .iter()
                .map(|r| r.first_invalid_hop(node_count).unwrap_or(u32::MAX)),
        );
    }
}

/// Builds a [`RouteSet`], deduplicating structurally equal paths: ten
/// thousand flows over twenty distinct paths intern twenty routes.
#[derive(Debug, Default)]
pub struct RouteSetBuilder {
    routes: Vec<CompiledRoute>,
    index: HashMap<PathSpec, RouteId>,
}

impl RouteSetBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `spec`, returning the existing ID when an equal path was
    /// interned before.
    pub fn intern(&mut self, spec: &PathSpec) -> RouteId {
        if let Some(&id) = self.index.get(spec) {
            return id;
        }
        let id = RouteId(u32::try_from(self.routes.len()).expect("more than u32::MAX routes"));
        self.routes.push(CompiledRoute::compile(spec));
        self.index.insert(spec.clone(), id);
        id
    }

    /// Finalizes the set. The `Arc` is handed to the engine once per
    /// run and to each worker once per shard — never per packet.
    pub fn build(self) -> Arc<RouteSet> {
        Arc::new(RouteSet {
            routes: self.routes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_equal_paths() {
        let mut b = RouteSetBuilder::new();
        let a = b.intern(&PathSpec::linear(vec![0, 1, 2]));
        let same = b.intern(&PathSpec::linear(vec![0, 1, 2]));
        let other = b.intern(&PathSpec::looping(vec![0], vec![1, 2]));
        assert_eq!(a, same);
        assert_ne!(a, other);
        let set = b.build();
        assert_eq!(set.len(), 2);
        assert!(!set.get(a).loops());
        assert!(set.get(other).loops());
    }

    #[test]
    fn compiled_hop_matches_pathspec_hop() {
        let specs = [
            PathSpec::linear(vec![4, 5, 6]),
            PathSpec::looping(vec![0], vec![1, 2, 3]),
            PathSpec::looping(vec![], vec![7]),
        ];
        let mut b = RouteSetBuilder::new();
        let ids: Vec<RouteId> = specs.iter().map(|s| b.intern(s)).collect();
        let set = b.build();
        for (spec, &id) in specs.iter().zip(&ids) {
            let route = set.get(id);
            assert_eq!(route.loops(), spec.loops());
            for i in 0..32 {
                assert_eq!(route.hop(i), spec.hop(i), "hop {i}");
            }
        }
    }

    #[test]
    fn first_invalid_hop_is_precomputed() {
        let mut b = RouteSetBuilder::new();
        let ok = b.intern(&PathSpec::linear(vec![0, 1, 2]));
        let bad_pre = b.intern(&PathSpec::linear(vec![0, 99]));
        let bad_cycle = b.intern(&PathSpec::looping(vec![0, 1], vec![2, 99]));
        let set = b.build();
        assert_eq!(set.get(ok).first_invalid_hop(3), None);
        assert_eq!(set.get(bad_pre).first_invalid_hop(3), Some(1));
        assert_eq!(set.get(bad_cycle).first_invalid_hop(3), Some(3));
        // The same route against a bigger node space is valid.
        assert_eq!(set.get(bad_pre).first_invalid_hop(100), None);
        let mut table = vec![7; 5];
        set.first_invalid_hops_into(3, &mut table);
        assert_eq!(table, vec![u32::MAX, 1, 3]);
    }

    #[test]
    fn from_specs_is_slot_stable_and_never_dedupes() {
        let specs = [
            PathSpec::linear(vec![0, 1, 2]),
            PathSpec::linear(vec![0, 1, 2]), // duplicate kept: slot == flow
            PathSpec::looping(vec![0], vec![1, 2]),
        ];
        let set = RouteSet::from_specs(&specs);
        assert_eq!(set.len(), 3);
        for (i, spec) in specs.iter().enumerate() {
            let route = set.get_checked(RouteId::from_index(i)).unwrap();
            assert_eq!(route.loops(), spec.loops());
            assert_eq!(route.hop(0), spec.hop(0));
        }
        assert!(set.get_checked(RouteId::from_index(3)).is_none());
    }

    #[test]
    fn route_ids_are_small_and_copyable() {
        assert_eq!(std::mem::size_of::<RouteId>(), 4);
        let mut b = RouteSetBuilder::new();
        let id = b.intern(&PathSpec::linear(vec![0]));
        let copy = id;
        assert_eq!(id, copy);
    }
}
