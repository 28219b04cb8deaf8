//! A distance-vector routing protocol (RIP-style) whose convergence
//! transients produce *natural* routing loops.
//!
//! The paper motivates Unroller with loops caused by route dynamics and
//! instability (§1, citing Hengartner et al. and Sridharan et al.). The
//! simulator can inject loops by poisoning forwarding entries; this
//! module generates them the way real networks do: after a link fails,
//! distance-vector routing counts to infinity, and until it converges
//! the per-destination next-hop graphs can contain micro-loops.
//!
//! The model is synchronous Bellman-Ford with a RIP-style infinity cap
//! and optional split horizon: each round, every node recomputes its
//! distance vector from its neighbors' *previous-round* vectors. This
//! is the classic setting in which two-node count-to-infinity loops
//! form (and in which split horizon suppresses them).
//!
//! A round re-evaluates only *dirty* entries, the way RIP's triggered
//! updates send only the routes that changed. An entry `(node, dst)` is
//! dirty when one of its inputs changed since it was last evaluated: a
//! neighbor's distance or next hop toward `dst`, a link at `node`
//! failing or coming back, or a local withdrawal of the entry itself.
//! Every other entry would recompute to the value it already holds, so
//! skipping it changes nothing: a round evaluates the dirty entries
//! against the unchanged state, then applies the changed ones in
//! `(node, dst)` order. The deltas, the `changed` flag and the tables
//! are exactly those of the full synchronous round.

use unroller_topology::{Graph, NodeId};

/// RIP's "infinity": distances at or above this are unreachable.
pub const INFINITY: u32 = 16;

/// A single forwarding-rule change: `node`'s next hop toward `dst`
/// moved from `old` to `new`.
///
/// The distance-vector process emits these from
/// [`DistanceVector::step_record`] and
/// [`DistanceVector::fail_link_record`], and `unroller-verify`'s
/// incremental forwarding checker consumes them one at a time —
/// distance changes that leave the next hop alone do not produce a
/// delta, because only next-hop edges shape the per-destination
/// successor graph a loop can live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleDelta {
    /// The destination whose forwarding column changed.
    pub dst: NodeId,
    /// The node whose next hop changed.
    pub node: NodeId,
    /// The previous next hop (`None` = no route).
    pub old: Option<NodeId>,
    /// The new next hop (`None` = no route).
    pub new: Option<NodeId>,
}

/// Reusable scratch for [`DistanceVector::loop_toward_in`]: the visit
/// markers and walk buffer survive across calls, so sweeping every
/// destination ([`DistanceVector::any_loop_in`]) allocates nothing
/// after the first call. Epoch stamping makes clearing free: each call
/// bumps the epoch instead of zeroing the marker array.
#[derive(Debug, Default, Clone)]
pub struct LoopScratch {
    mark: Vec<u64>,
    walk: Vec<NodeId>,
    epoch: u64,
}

/// The entries due for evaluation in the next round, each listed once.
#[derive(Debug, Clone)]
struct DirtySet {
    /// `flag[node * n + dst]`: whether the entry is listed.
    flag: Vec<bool>,
    /// The listed entries' indices, in marking order.
    list: Vec<usize>,
}

impl DirtySet {
    fn mark(&mut self, at: usize) {
        if !self.flag[at] {
            self.flag[at] = true;
            self.list.push(at);
        }
    }
}

/// A synchronous distance-vector routing process over a topology.
#[derive(Debug, Clone)]
pub struct DistanceVector {
    graph: Graph,
    /// Node count: the row length of the flat tables.
    n: usize,
    /// `dist[node * n + dst]`, capped at [`INFINITY`].
    dist: Vec<u32>,
    /// `next[node * n + dst]`.
    next: Vec<Option<NodeId>>,
    /// `up[node][i]`: whether the link to `graph.neighbors(node)[i]`
    /// is up.
    up: Vec<Vec<bool>>,
    /// Whether split horizon is enabled (a neighbor that routes to
    /// destination *via us* is not considered a candidate next hop).
    /// Fixed at construction: it is an input of every entry.
    split_horizon: bool,
    dirty: DirtySet,
    /// Round scratch: `(entry, dist, next)` for each evaluated entry
    /// whose value changes.
    changes: Vec<(usize, u32, Option<NodeId>)>,
}

impl DistanceVector {
    /// Creates the process and runs it to initial convergence. Every
    /// entry starts dirty, so the first round evaluates them all.
    pub fn new(graph: Graph, split_horizon: bool) -> Self {
        let n = graph.node_count();
        let mut dist = vec![INFINITY; n * n];
        for v in 0..n {
            dist[v * n + v] = 0;
        }
        let mut dv = DistanceVector {
            n,
            dist,
            next: vec![None; n * n],
            up: graph.nodes().map(|u| vec![true; graph.degree(u)]).collect(),
            split_horizon,
            dirty: DirtySet {
                flag: vec![false; n * n],
                list: Vec::with_capacity(n * n),
            },
            changes: Vec::new(),
            graph,
        };
        for at in 0..n * n {
            if at / n != at % n {
                dv.dirty.mark(at);
            }
        }
        dv.converge(4 * n as u32 + INFINITY);
        dv
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether split horizon is enabled.
    pub fn split_horizon(&self) -> bool {
        self.split_horizon
    }

    /// Marks every entry that reads `(node, dst)`: the same
    /// destination's entry at each of `node`'s neighbors.
    fn mark_readers(&mut self, node: NodeId, dst: NodeId) {
        for &m in self.graph.neighbors(node) {
            if m != dst {
                self.dirty.mark(m * self.n + dst);
            }
        }
    }

    /// Sets the link `u`–`v` up or down and marks every entry at both
    /// endpoints, whose candidate next hops just changed.
    fn set_link(&mut self, u: NodeId, v: NodeId, up: bool) {
        for (a, b) in [(u, v), (v, u)] {
            if let Some(i) = self.graph.neighbors(a).iter().position(|&x| x == b) {
                self.up[a][i] = up;
            }
            for dst in (0..self.n).filter(|&dst| dst != a) {
                self.dirty.mark(a * self.n + dst);
            }
        }
    }

    /// Fails a link. Adjacent nodes immediately invalidate routes that
    /// used it (the local part of RIP's triggered update); the rest of
    /// the network only learns through subsequent [`step`](Self::step)s
    /// — which is exactly when transient loops form.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        self.fail_link_record(u, v, |_| {});
    }

    /// [`fail_link`](Self::fail_link), reporting every next-hop entry
    /// the local invalidation withdrew through `sink`.
    pub fn fail_link_record(&mut self, u: NodeId, v: NodeId, mut sink: impl FnMut(RuleDelta)) {
        assert!(self.graph.has_edge(u, v), "no such link");
        self.set_link(u, v, false);
        for dst in 0..self.n {
            for (node, via) in [(u, v), (v, u)] {
                let at = node * self.n + dst;
                if self.next[at] == Some(via) {
                    self.dist[at] = INFINITY;
                    self.next[at] = None;
                    sink(RuleDelta {
                        dst,
                        node,
                        old: Some(via),
                        new: None,
                    });
                    self.mark_readers(node, dst);
                }
            }
        }
    }

    /// Restores a failed link.
    pub fn restore_link(&mut self, u: NodeId, v: NodeId) {
        self.set_link(u, v, true);
    }

    /// One synchronous routing round: every node recomputes from its
    /// neighbors' previous-round vectors. Returns true if any entry
    /// changed.
    pub fn step(&mut self) -> bool {
        self.step_record(|_| {})
    }

    /// [`step`](Self::step), reporting every next-hop change the round
    /// produced through `sink` (distance-only changes are silent: they
    /// do not alter the successor graph).
    pub fn step_record(&mut self, mut sink: impl FnMut(RuleDelta)) -> bool {
        let n = self.n;
        // Phase 1: evaluate the dirty entries against the unchanged
        // state, in (node, dst) order.
        let mut round = std::mem::take(&mut self.dirty.list);
        round.sort_unstable();
        self.changes.clear();
        for &at in &round {
            self.dirty.flag[at] = false;
            let (best, best_next) = self.evaluate(at / n, at % n);
            if best != self.dist[at] || best_next != self.next[at] {
                self.changes.push((at, best, best_next));
            }
        }
        round.clear();
        self.dirty.list = round;
        // Phase 2: apply the changes in the same order; each one
        // dirties its readers for the next round.
        let changes = std::mem::take(&mut self.changes);
        for &(at, best, best_next) in &changes {
            let (node, dst) = (at / n, at % n);
            if best_next != self.next[at] {
                sink(RuleDelta {
                    dst,
                    node,
                    old: self.next[at],
                    new: best_next,
                });
            }
            self.dist[at] = best;
            self.next[at] = best_next;
            self.mark_readers(node, dst);
        }
        let changed = !changes.is_empty();
        self.changes = changes;
        changed
    }

    /// The value entry `(node, dst)` takes from its neighbors' current
    /// vectors: the first neighbor, over an up link, offering the
    /// fewest hops.
    fn evaluate(&self, node: NodeId, dst: NodeId) -> (u32, Option<NodeId>) {
        let mut best = INFINITY;
        let mut best_next = None;
        for (&nb, &up) in self.graph.neighbors(node).iter().zip(&self.up[node]) {
            if !up {
                continue;
            }
            let at = nb * self.n + dst;
            // Split horizon: ignore routes the neighbor sends back
            // through us.
            if self.split_horizon && self.next[at] == Some(node) {
                continue;
            }
            let via = self.dist[at].saturating_add(1).min(INFINITY);
            if via < best {
                best = via;
                best_next = Some(nb);
            }
        }
        if best >= INFINITY {
            (INFINITY, None)
        } else {
            (best, best_next)
        }
    }

    /// Steps until quiescent or `max_rounds`; returns rounds taken.
    pub fn converge(&mut self, max_rounds: u32) -> u32 {
        for round in 0..max_rounds {
            if !self.step() {
                return round;
            }
        }
        max_rounds
    }

    /// The forwarding column toward `dst` in the current state,
    /// installable via `Simulator::set_routes`.
    pub fn forwarding(&self, dst: NodeId) -> Vec<Option<NodeId>> {
        (0..self.n).map(|node| self.next_hop(node, dst)).collect()
    }

    /// `node`'s current next hop toward `dst` (`None` = no route).
    #[inline]
    pub fn next_hop(&self, node: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next[node * self.n + dst]
    }

    /// Current distance from `node` to `dst` ([`INFINITY`] =
    /// unreachable).
    pub fn distance(&self, node: NodeId, dst: NodeId) -> u32 {
        self.dist[node * self.n + dst]
    }

    /// Finds a forwarding loop toward `dst` in the current next-hop
    /// graph, if one exists: the returned nodes form the cycle in
    /// traversal order.
    ///
    /// Allocates fresh visit markers per call; when sweeping many
    /// destinations or polling across convergence rounds, use
    /// [`loop_toward_in`](Self::loop_toward_in) with a shared
    /// [`LoopScratch`] instead.
    pub fn loop_toward(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        self.loop_toward_in(dst, &mut LoopScratch::default())
    }

    /// [`loop_toward`](Self::loop_toward) with caller-owned scratch:
    /// the marker array is allocated once and epoch-stamped thereafter,
    /// so repeated calls (every destination, every round of a
    /// count-to-infinity transient) do no per-call allocation. Each
    /// node is visited at most once per call — `O(n)` time, not
    /// `O(n)` fresh memory.
    pub fn loop_toward_in(&self, dst: NodeId, scratch: &mut LoopScratch) -> Option<Vec<NodeId>> {
        let n = self.graph.node_count();
        if scratch.mark.len() < n {
            scratch.mark.resize(n, 0);
        }
        // Two fresh stamps per call: `on_walk` for nodes on the current
        // chase, `done` for nodes proven loop-free (or returned as the
        // cycle). Anything below `on_walk` is stale from an earlier
        // call and counts as unvisited.
        scratch.epoch += 2;
        let on_walk = scratch.epoch;
        let done = scratch.epoch + 1;
        for start in 0..n {
            if scratch.mark[start] >= on_walk {
                continue;
            }
            scratch.walk.clear();
            let mut cur = start;
            loop {
                if cur == dst || scratch.mark[cur] == done {
                    break;
                }
                if scratch.mark[cur] == on_walk {
                    // Found a cycle: `on_walk` means `cur` was pushed on
                    // this very walk, so the lookup cannot miss; a
                    // defensive miss just ends the walk loop-free.
                    if let Some(at) = scratch.walk.iter().position(|&w| w == cur) {
                        for &w in &scratch.walk {
                            scratch.mark[w] = done;
                        }
                        return Some(scratch.walk[at..].to_vec());
                    }
                    break;
                }
                scratch.mark[cur] = on_walk;
                scratch.walk.push(cur);
                match self.next_hop(cur, dst) {
                    Some(nx) => cur = nx,
                    None => break,
                }
            }
            for &w in &scratch.walk {
                scratch.mark[w] = done;
            }
        }
        None
    }

    /// True if any destination currently has a forwarding loop.
    pub fn any_loop(&self) -> Option<(NodeId, Vec<NodeId>)> {
        self.any_loop_in(&mut LoopScratch::default())
    }

    /// [`any_loop`](Self::any_loop) with caller-owned scratch — one
    /// marker allocation for the whole destination sweep.
    pub fn any_loop_in(&self, scratch: &mut LoopScratch) -> Option<(NodeId, Vec<NodeId>)> {
        (0..self.graph.node_count())
            .find_map(|dst| self.loop_toward_in(dst, scratch).map(|c| (dst, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use unroller_topology::generators::{grid, random_connected, ring};

    fn line(n: usize) -> Graph {
        grid(n, 1)
    }

    #[test]
    fn converges_to_shortest_paths() {
        for g in [line(6), ring(8), grid(3, 3)] {
            let dv = DistanceVector::new(g.clone(), false);
            for u in g.nodes() {
                let bfs = g.bfs_distances(u);
                for v in g.nodes() {
                    assert_eq!(dv.distance(v, u), bfs[v] as u32, "{u}->{v}");
                }
            }
            assert!(dv.any_loop().is_none());
        }
    }

    #[test]
    fn count_to_infinity_creates_transient_loop() {
        // Classic: line 0-1-2-3, destination 3, fail link 2-3. Node 2
        // invalidates immediately, but one synchronous round later node
        // 1 adopts node 0's *stale* route (which points back through
        // node 1) — a 0↔1 micro-loop that node 2 also chains into —
        // until the distances count up to infinity.
        let mut dv = DistanceVector::new(line(4), false);
        dv.fail_link(2, 3);
        assert!(dv.loop_toward(3).is_none(), "no loop before any update");
        dv.step();
        let cycle = dv.loop_toward(3).expect("transient micro-loop");
        let mut c = cycle.clone();
        c.sort_unstable();
        assert_eq!(c, vec![0, 1]);
        // Node 2 forwards into the cycle.
        assert_eq!(dv.forwarding(3)[2], Some(1));
        // The loop persists for ~INFINITY rounds, then resolves.
        let rounds = dv.converge(200);
        assert!(rounds <= 2 * INFINITY + 2, "converged in {rounds}");
        assert!(
            dv.loop_toward(3).is_none(),
            "loop must clear at convergence"
        );
        assert_eq!(dv.distance(0, 3), INFINITY, "3 is partitioned");
    }

    #[test]
    fn split_horizon_prevents_two_node_loop() {
        let mut dv = DistanceVector::new(line(4), true);
        dv.fail_link(2, 3);
        for _ in 0..40 {
            dv.step();
            assert!(
                dv.loop_toward(3).is_none(),
                "split horizon must suppress the 1-2 micro-loop"
            );
        }
        assert_eq!(dv.distance(2, 3), INFINITY);
    }

    #[test]
    fn reroutes_around_failure_on_a_ring() {
        // On a ring an alternate path exists: after failure the protocol
        // converges to it.
        let mut dv = DistanceVector::new(ring(8), false);
        assert_eq!(dv.distance(0, 4), 4);
        dv.fail_link(0, 1);
        dv.converge(200);
        assert!(dv.any_loop().is_none());
        // 0's route to 1 now goes the long way: 7 hops.
        assert_eq!(dv.distance(0, 1), 7);
        assert_eq!(dv.forwarding(1)[0], Some(7));
    }

    #[test]
    fn restore_heals_distances() {
        let mut dv = DistanceVector::new(ring(6), false);
        dv.fail_link(0, 1);
        dv.converge(200);
        assert_eq!(dv.distance(0, 1), 5);
        dv.restore_link(0, 1);
        dv.converge(200);
        assert_eq!(dv.distance(0, 1), 1);
    }

    /// Replays a recorded delta stream over a snapshot of the
    /// forwarding state and checks it reproduces the live state —
    /// the contract the incremental checker relies on.
    fn apply_deltas(snapshot: &mut [Vec<Option<NodeId>>], deltas: &[RuleDelta]) {
        for d in deltas {
            assert_eq!(
                snapshot[d.node][d.dst], d.old,
                "delta {d:?} does not match the snapshot"
            );
            snapshot[d.node][d.dst] = d.new;
        }
    }

    #[test]
    fn deltas_replay_to_the_live_forwarding_state() {
        let mut dv = DistanceVector::new(grid(4, 3), false);
        let n = dv.graph().node_count();
        let mut snapshot: Vec<Vec<Option<NodeId>>> = (0..n)
            .map(|node| (0..n).map(|dst| dv.next_hop(node, dst)).collect())
            .collect();
        let mut deltas = Vec::new();
        dv.fail_link_record(1, 2, |d| deltas.push(d));
        for _ in 0..6 {
            dv.step_record(|d| deltas.push(d));
        }
        dv.restore_link(1, 2);
        for _ in 0..6 {
            dv.step_record(|d| deltas.push(d));
        }
        assert!(!deltas.is_empty(), "churn must produce next-hop deltas");
        apply_deltas(&mut snapshot, &deltas);
        for (node, row) in snapshot.iter().enumerate() {
            for (dst, &next) in row.iter().enumerate() {
                assert_eq!(next, dv.next_hop(node, dst), "{node}->{dst}");
            }
        }
    }

    #[test]
    fn quiescent_step_emits_no_deltas() {
        let mut dv = DistanceVector::new(ring(8), false);
        let mut count = 0;
        let changed = dv.step_record(|_| count += 1);
        assert!(!changed);
        assert_eq!(count, 0);
    }

    #[test]
    fn distance_only_changes_are_silent() {
        // During count-to-infinity the two looping nodes keep pointing
        // at each other while their distances ratchet up: those rounds
        // must emit no deltas for the stable entries.
        let mut dv = DistanceVector::new(line(4), false);
        dv.fail_link(2, 3);
        dv.step(); // the 0↔1 micro-loop forms
        let before = dv.forwarding(3);
        let mut deltas = Vec::new();
        dv.step_record(|d| deltas.push(d));
        let after = dv.forwarding(3);
        for d in deltas.iter().filter(|d| d.dst == 3) {
            assert_ne!(before[d.node], after[d.node], "silent entry emitted {d:?}");
        }
    }

    #[test]
    fn scratch_walk_matches_allocating_walk_on_long_chain() {
        // Regression for the loop_toward worst case: a long
        // count-to-infinity chain polled every round used to allocate
        // fresh markers per (call × destination). The scratch variant
        // must agree with a naive reference at every round and clear at
        // convergence, with one marker buffer for the whole run.
        let n = 200;
        let mut dv = DistanceVector::new(line(n), false);
        dv.fail_link(n - 2, n - 1);
        let dst = n - 1;
        let mut scratch = LoopScratch::default();
        let mut saw_loop = false;
        for _ in 0..(2 * INFINITY + 4) {
            dv.step();
            let fast = dv.loop_toward_in(dst, &mut scratch);
            let reference = reference_loop_toward(&dv, dst);
            assert_eq!(fast.is_some(), reference.is_some());
            if let Some(cycle) = &fast {
                saw_loop = true;
                // The cycle is a real forwarding cycle toward dst.
                for (i, &u) in cycle.iter().enumerate() {
                    let next = cycle[(i + 1) % cycle.len()];
                    assert_eq!(dv.forwarding(dst)[u], Some(next));
                }
            }
        }
        assert!(saw_loop, "the chain must loop while counting to infinity");
        dv.converge(10 * (n as u32 + INFINITY));
        assert!(dv.loop_toward_in(dst, &mut scratch).is_none());
        // The scratch's markers were sized once for this topology.
        assert_eq!(scratch.mark.len(), n);
    }

    /// Brute-force cycle finder: walks every start node with a fresh
    /// visited set, `O(n²)` but obviously correct.
    fn reference_loop_toward(dv: &DistanceVector, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = dv.graph().node_count();
        for start in 0..n {
            let mut walk = Vec::new();
            let mut cur = start;
            let mut dead_end = false;
            while cur != dst && !walk.contains(&cur) {
                walk.push(cur);
                match dv.forwarding(dst)[cur] {
                    Some(nx) => cur = nx,
                    None => {
                        dead_end = true;
                        break;
                    }
                }
            }
            if cur != dst && !dead_end {
                if let Some(at) = walk.iter().position(|&w| w == cur) {
                    return Some(walk[at..].to_vec());
                }
            }
        }
        None
    }

    #[test]
    fn forwarding_column_is_installable() {
        // Every next hop the protocol produces is an adjacent node.
        let g = grid(4, 3);
        let dv = DistanceVector::new(g.clone(), false);
        for dst in g.nodes() {
            for (node, &nx) in dv.forwarding(dst).iter().enumerate() {
                if let Some(nx) = nx {
                    assert!(g.has_edge(node, nx));
                }
            }
        }
    }

    /// The full synchronous round every entry re-evaluates: the
    /// reference the dirty rounds must reproduce exactly.
    struct FullRound {
        graph: Graph,
        dist: Vec<Vec<u32>>,
        next: Vec<Vec<Option<NodeId>>>,
        down: HashSet<(NodeId, NodeId)>,
        split_horizon: bool,
    }

    impl FullRound {
        fn new(graph: Graph, split_horizon: bool) -> Self {
            let n = graph.node_count();
            let mut dv = FullRound {
                dist: vec![vec![INFINITY; n]; n],
                next: vec![vec![None; n]; n],
                down: HashSet::new(),
                split_horizon,
                graph,
            };
            for v in 0..n {
                dv.dist[v][v] = 0;
            }
            for _ in 0..4 * n as u32 + INFINITY {
                if !dv.step_record(|_| {}) {
                    break;
                }
            }
            dv
        }

        fn fail_link_record(&mut self, u: NodeId, v: NodeId, mut sink: impl FnMut(RuleDelta)) {
            self.down.insert((u.min(v), u.max(v)));
            for dst in 0..self.graph.node_count() {
                for (node, via) in [(u, v), (v, u)] {
                    if self.next[node][dst] == Some(via) {
                        self.dist[node][dst] = INFINITY;
                        self.next[node][dst] = None;
                        sink(RuleDelta {
                            dst,
                            node,
                            old: Some(via),
                            new: None,
                        });
                    }
                }
            }
        }

        fn restore_link(&mut self, u: NodeId, v: NodeId) {
            self.down.remove(&(u.min(v), u.max(v)));
        }

        fn step_record(&mut self, mut sink: impl FnMut(RuleDelta)) -> bool {
            let n = self.graph.node_count();
            let prev_dist = self.dist.clone();
            let prev_next = self.next.clone();
            let mut changed = false;
            for node in 0..n {
                for dst in 0..n {
                    if node == dst {
                        continue;
                    }
                    let mut best = INFINITY;
                    let mut best_next = None;
                    for &nb in self.graph.neighbors(node) {
                        if self.down.contains(&(node.min(nb), node.max(nb))) {
                            continue;
                        }
                        if self.split_horizon && prev_next[nb][dst] == Some(node) {
                            continue;
                        }
                        let via = prev_dist[nb][dst].saturating_add(1).min(INFINITY);
                        if via < best {
                            best = via;
                            best_next = Some(nb);
                        }
                    }
                    if best >= INFINITY {
                        best = INFINITY;
                        best_next = None;
                    }
                    if best != self.dist[node][dst] || best_next != self.next[node][dst] {
                        if best_next != self.next[node][dst] {
                            sink(RuleDelta {
                                dst,
                                node,
                                old: self.next[node][dst],
                                new: best_next,
                            });
                        }
                        self.dist[node][dst] = best;
                        self.next[node][dst] = best_next;
                        changed = true;
                    }
                }
            }
            changed
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum DvOp {
        Fail(usize),
        Restore(usize),
        Step,
    }

    fn dv_op() -> impl Strategy<Value = DvOp> {
        (0u8..6, any::<usize>()).prop_map(|(kind, pick)| match kind {
            0 => DvOp::Fail(pick),
            1 => DvOp::Restore(pick),
            _ => DvOp::Step,
        })
    }

    fn same_tables(dv: &DistanceVector, reference: &FullRound) -> Result<(), TestCaseError> {
        let n = dv.graph().node_count();
        for node in 0..n {
            for dst in 0..n {
                prop_assert_eq!(dv.distance(node, dst), reference.dist[node][dst]);
                prop_assert_eq!(dv.next_hop(node, dst), reference.next[node][dst]);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Dirty rounds are the full synchronous round: from `new()`
        /// and after every fail, restore and step, both processes hold
        /// the same tables, and every step emits the same deltas in the
        /// same order with the same `changed` flag.
        #[test]
        fn dirty_rounds_match_the_full_round(
            n in 2usize..14,
            extra in 0usize..12,
            seed in any::<u64>(),
            split in any::<bool>(),
            ops in prop::collection::vec(dv_op(), 1..60),
        ) {
            let graph = random_connected(n, extra, seed);
            let edges = graph.edges();
            let mut dv = DistanceVector::new(graph.clone(), split);
            let mut reference = FullRound::new(graph, split);
            same_tables(&dv, &reference)?;
            for op in ops {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                match op {
                    DvOp::Fail(pick) => {
                        let (u, v) = edges[pick % edges.len()];
                        dv.fail_link_record(u, v, |d| got.push(d));
                        reference.fail_link_record(u, v, |d| want.push(d));
                    }
                    DvOp::Restore(pick) => {
                        let (u, v) = edges[pick % edges.len()];
                        dv.restore_link(u, v);
                        reference.restore_link(u, v);
                    }
                    DvOp::Step => {
                        let changed = dv.step_record(|d| got.push(d));
                        prop_assert_eq!(changed, reference.step_record(|d| want.push(d)));
                    }
                }
                prop_assert_eq!(&got, &want, "{:?}", op);
                same_tables(&dv, &reference)?;
            }
        }
    }
}
