//! The per-domain controller: local localization plus fault-tolerant
//! digest exchange.
//!
//! Each [`DomainController`] wraps the existing
//! [`unroller_control::Controller`] provisioned with *only its region's*
//! switch-ID mapping (via `Controller::with_mapping`), so purely local
//! loops localize and heal exactly as in the single-controller
//! deployment, while reports naming foreign switches become
//! [`LoopDigest`]s exchanged over the bus.
//!
//! Robustness machinery:
//!
//! * **Per-peer retry** — every digest send is tracked until acked;
//!   retransmits back off exponentially with a bounded attempt budget
//!   and virtual timeout, reusing the exact
//!   [`HealPolicy`] shape (1 step ≡
//!   [`STEP_NS`] virtual nanoseconds).
//! * **Degraded mode** — a peer that exhausts its retry budget is
//!   marked unreachable; sends to it are skipped (counted) instead of
//!   queued, so a dead peer degrades the federation to local-only
//!   detection without ever blocking. Any message from the peer marks
//!   it reachable again.
//! * **Crash + resync** — a crash wipes everything except the
//!   write-ahead list of digests this controller *originated* (its own
//!   observations survive, like a journaled controller). Restart
//!   replays the journal, re-broadcasts it, and asks every peer for a
//!   [`Payload::Summary`] snapshot.
//! * **Anti-entropy gossip** — a staggered periodic summary to every
//!   peer (including unreachable ones — the recovery probe) bounds
//!   convergence time even when acks were lost or partitions healed.

use crate::bus::{Msg, Payload};
use crate::digest::{DomainId, LoopDigest};
use std::collections::{BTreeMap, BTreeSet};
use unroller_control::{Controller, HealPolicy};
use unroller_core::{CycleKey, SwitchId};
use unroller_topology::NodeId;

/// Virtual nanoseconds per federation step: 1 ms, so the default
/// [`HealPolicy`] backoff schedule (1 ms base, doubling) maps to 1, 2,
/// 4, … steps.
pub const STEP_NS: u64 = 1_000_000;

/// Steps between anti-entropy summaries (staggered per domain).
pub const GOSSIP_EVERY: u64 = 16;

/// Per-controller accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Reports fully resolved in-region (no exchange needed).
    pub local_loops: u64,
    /// Reports that required cross-domain digests.
    pub cross_reports: u64,
    /// Digest retransmissions.
    pub retransmits: u64,
    /// Sends skipped because the peer was unreachable.
    pub skipped_sends: u64,
    /// Peers ever declared unreachable.
    pub peers_lost: u64,
    /// Peers that came back after being unreachable.
    pub peers_recovered: u64,
    /// Resync requests answered.
    pub resyncs_served: u64,
    /// Crashes survived (restarts).
    pub restarts: u64,
    /// Steps spent with at least one unreachable peer.
    pub degraded_steps: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    attempts: u32,
    first_step: u64,
    next_step: u64,
}

/// One domain's controller.
#[derive(Debug)]
pub struct DomainController {
    /// This controller's domain.
    pub domain: DomainId,
    domains: usize,
    mapping: Vec<(SwitchId, NodeId)>,
    /// The wrapped single-domain controller (region-scoped mapping).
    pub controller: Controller,
    digests: BTreeMap<CycleKey, LoopDigest>,
    /// Write-ahead journal of own-origin digests (survives crashes).
    journal: Vec<LoopDigest>,
    /// Keys whose digest completed — the localized set.
    pub localized: BTreeSet<CycleKey>,
    pending: BTreeMap<(DomainId, CycleKey), Pending>,
    unreachable: BTreeSet<DomainId>,
    /// Whether this controller is currently crashed (set by the sim).
    pub crashed: bool,
    policy: HealPolicy,
    /// Accounting.
    pub stats: ControllerStats,
}

impl DomainController {
    /// A controller for `domain` of `domains`, owning the switches in
    /// `mapping` (switch ID → topology node).
    pub fn new(
        domain: DomainId,
        domains: usize,
        mapping: Vec<(SwitchId, NodeId)>,
        policy: HealPolicy,
    ) -> Self {
        assert!((domain as usize) < domains);
        DomainController {
            domain,
            domains,
            controller: Controller::with_mapping(&mapping),
            mapping,
            digests: BTreeMap::new(),
            journal: Vec::new(),
            localized: BTreeSet::new(),
            pending: BTreeMap::new(),
            unreachable: BTreeSet::new(),
            crashed: false,
            policy,
            stats: ControllerStats::default(),
        }
    }

    fn owns(&self, id: SwitchId) -> bool {
        self.controller.resolve(id).is_some()
    }

    /// Whether any peer is currently unreachable — detection continues
    /// local-only for loops involving that peer's switches.
    pub fn degraded(&self) -> bool {
        !self.unreachable.is_empty()
    }

    /// Whether this controller has unacked digest sends outstanding.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Every digest currently known, by key.
    pub fn digests(&self) -> &BTreeMap<CycleKey, LoopDigest> {
        &self.digests
    }

    fn backoff_steps(&self, attempt: u32) -> u64 {
        (self.policy.backoff_ns(attempt) / STEP_NS).max(1)
    }

    fn send_digest(&mut self, key: &CycleKey, step: u64, outbox: &mut Vec<Msg>) {
        let Some(digest) = self.digests.get(key).cloned() else {
            return;
        };
        for peer in 0..self.domains as DomainId {
            if peer == self.domain {
                continue;
            }
            if self.unreachable.contains(&peer) {
                self.stats.skipped_sends += 1;
                continue;
            }
            outbox.push(Msg {
                from: self.domain,
                to: peer,
                payload: Payload::Digest(digest.clone()),
            });
            self.pending.insert(
                (peer, key.clone()),
                Pending {
                    attempts: 1,
                    first_step: step,
                    next_step: step + self.backoff_steps(1),
                },
            );
        }
    }

    /// Ingests one loop-membership report from the local data plane.
    /// Fully in-region reports localize through the wrapped controller;
    /// anything naming foreign switches becomes (or refreshes) a digest
    /// broadcast to every reachable peer.
    pub fn ingest_report(&mut self, members: &[SwitchId], step: u64, outbox: &mut Vec<Msg>) {
        if members.len() >= 2 && members.iter().all(|&m| self.owns(m)) {
            self.controller.ingest(members);
            self.stats.local_loops += 1;
            let key = CycleKey::canonicalize(members);
            self.localized.insert(key.clone());
            // Journal the local localization too: no peer ever hears
            // about it, so a crash would otherwise lose it for good.
            if !self.journal.iter().any(|d| d.key == key) {
                let mut digest = LoopDigest::new(key, self.domain);
                digest.claim(self.domain, |_| true);
                self.journal.push(digest);
            }
            return;
        }
        self.stats.cross_reports += 1;
        // Foreign members present: count the unresolvable local ingest
        // (the wrapped controller's accounting) and open a digest.
        self.controller.ingest(members);
        let key = CycleKey::canonicalize(members);
        let domain = self.domain;
        let entry = self
            .digests
            .entry(key.clone())
            .or_insert_with(|| LoopDigest::new(key.clone(), domain));
        let ctl = &self.controller;
        entry.claim(domain, |id| ctl.resolve(id).is_some());
        if entry.is_complete() {
            self.localized.insert(key.clone());
        }
        // Journal own-origin digests so a crash cannot lose what this
        // domain itself observed.
        if entry.origin == domain {
            let snapshot = entry.clone();
            match self.journal.iter_mut().find(|d| d.key == snapshot.key) {
                Some(j) => {
                    j.merge(&snapshot);
                }
                None => self.journal.push(snapshot),
            }
        }
        self.send_digest(&key, step, outbox);
    }

    fn mark_reachable(&mut self, peer: DomainId) {
        if self.unreachable.remove(&peer) {
            self.stats.peers_recovered += 1;
        }
    }

    /// Merges a digest (from a [`Payload::Digest`] or one summary
    /// entry), claims what this domain owns, records completion, and
    /// re-broadcasts when the merge learned anything new.
    fn absorb(&mut self, incoming: &LoopDigest, step: u64, outbox: &mut Vec<Msg>) {
        let key = incoming.key.clone();
        let domain = self.domain;
        let entry = self
            .digests
            .entry(key.clone())
            .or_insert_with(|| LoopDigest::new(key.clone(), incoming.origin));
        let mut changed = entry.merge(incoming);
        let ctl = &self.controller;
        changed |= entry.claim(domain, |id| ctl.resolve(id).is_some());
        let complete = entry.is_complete();
        if complete {
            self.localized.insert(key.clone());
        }
        if changed {
            self.send_digest(&key, step, outbox);
        }
    }

    /// Handles one delivered bus message.
    pub fn receive(&mut self, msg: Msg, step: u64, outbox: &mut Vec<Msg>) {
        debug_assert_eq!(msg.to, self.domain);
        self.mark_reachable(msg.from);
        match msg.payload {
            Payload::Digest(digest) => {
                outbox.push(Msg {
                    from: self.domain,
                    to: msg.from,
                    payload: Payload::Ack(digest.key.clone()),
                });
                self.absorb(&digest, step, outbox);
            }
            Payload::Ack(key) => {
                self.pending.remove(&(msg.from, key));
            }
            Payload::ResyncRequest => {
                self.stats.resyncs_served += 1;
                outbox.push(Msg {
                    from: self.domain,
                    to: msg.from,
                    payload: Payload::Summary(self.digests.values().cloned().collect()),
                });
            }
            Payload::Summary(digests) => {
                for digest in &digests {
                    self.absorb(digest, step, outbox);
                }
            }
        }
    }

    /// One control step: due retransmissions (exponential backoff,
    /// bounded attempts, virtual timeout — the `HealPolicy` schedule)
    /// and staggered anti-entropy gossip.
    pub fn tick(&mut self, step: u64, outbox: &mut Vec<Msg>) {
        if self.degraded() {
            self.stats.degraded_steps += 1;
        }
        // Retransmits.
        let due: Vec<(DomainId, CycleKey)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_step <= step)
            .map(|((peer, key), _)| (*peer, key.clone()))
            .collect();
        let mut newly_lost: BTreeSet<DomainId> = BTreeSet::new();
        for (peer, key) in due {
            let Some(p) = self.pending.get_mut(&(peer, key.clone())) else {
                continue;
            };
            let elapsed_ns = (step - p.first_step).saturating_mul(STEP_NS);
            if p.attempts >= self.policy.max_attempts || elapsed_ns > self.policy.timeout_ns {
                self.pending.remove(&(peer, key));
                newly_lost.insert(peer);
                continue;
            }
            p.attempts += 1;
            p.next_step = step + (self.policy.backoff_ns(p.attempts) / STEP_NS).max(1);
            if let Some(digest) = self.digests.get(&key).cloned() {
                self.stats.retransmits += 1;
                outbox.push(Msg {
                    from: self.domain,
                    to: peer,
                    payload: Payload::Digest(digest),
                });
            }
        }
        for peer in newly_lost {
            if self.unreachable.insert(peer) {
                self.stats.peers_lost += 1;
            }
            // Degrade: drop every other pending send to the dead peer.
            self.pending.retain(|(p, _), _| *p != peer);
        }
        // Anti-entropy: summaries probe even unreachable peers — that
        // is how a healed partition or restarted peer is rediscovered.
        if !self.digests.is_empty() && (step + self.domain as u64 * 3).is_multiple_of(GOSSIP_EVERY)
        {
            let incomplete: Vec<LoopDigest> = self
                .digests
                .values()
                .filter(|d| !d.is_complete())
                .cloned()
                .collect();
            if !incomplete.is_empty() {
                for peer in 0..self.domains as DomainId {
                    if peer != self.domain {
                        outbox.push(Msg {
                            from: self.domain,
                            to: peer,
                            payload: Payload::Summary(incomplete.clone()),
                        });
                    }
                }
            }
        }
    }

    /// Crashes the controller: every in-memory structure is lost except
    /// the write-ahead journal of own-origin digests.
    pub fn crash(&mut self) {
        self.crashed = true;
        self.controller = Controller::with_mapping(&self.mapping);
        self.digests.clear();
        self.localized.clear();
        self.pending.clear();
        self.unreachable.clear();
    }

    /// Restarts after a crash: replays the journal, re-broadcasts every
    /// journaled digest, and asks all peers for a resync snapshot.
    pub fn restart(&mut self, step: u64, outbox: &mut Vec<Msg>) {
        self.crashed = false;
        self.stats.restarts += 1;
        let journal = self.journal.clone();
        for digest in &journal {
            self.absorb(digest, step, outbox);
            self.send_digest(&digest.key, step, outbox);
        }
        for peer in 0..self.domains as DomainId {
            if peer != self.domain {
                outbox.push(Msg {
                    from: self.domain,
                    to: peer,
                    payload: Payload::ResyncRequest,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(range: std::ops::Range<usize>) -> Vec<(SwitchId, NodeId)> {
        range.map(|n| (100 + n as u32, n)).collect()
    }

    fn ctl(domain: DomainId) -> DomainController {
        // Domain d owns nodes 4d..4d+4 of a 16-node world.
        let d = domain as usize;
        DomainController::new(domain, 4, mapping(4 * d..4 * d + 4), HealPolicy::default())
    }

    #[test]
    fn local_reports_localize_without_any_messages() {
        let mut c = ctl(0);
        let mut outbox = Vec::new();
        c.ingest_report(&[101, 102], 0, &mut outbox);
        assert!(outbox.is_empty(), "no exchange for an in-region loop");
        assert_eq!(c.stats.local_loops, 1);
        assert!(c.localized.contains(&CycleKey::canonicalize(&[101, 102])));
        assert_eq!(c.controller.localized_loops().len(), 1);
    }

    #[test]
    fn cross_domain_reports_open_digests_and_broadcast() {
        let mut c = ctl(0);
        let mut outbox = Vec::new();
        // 101 is domain 0's, 105 is domain 1's.
        c.ingest_report(&[101, 105], 0, &mut outbox);
        assert_eq!(c.stats.cross_reports, 1);
        assert_eq!(outbox.len(), 3, "digest to each of 3 peers");
        assert!(c.has_pending());
        let key = CycleKey::canonicalize(&[101, 105]);
        let digest = &c.digests()[&key];
        assert_eq!(digest.claims.get(&101), Some(&0));
        assert!(digest.missing().contains(&105));
        assert!(!c.localized.contains(&key));
    }

    #[test]
    fn merge_of_peer_claims_completes_and_localizes() {
        let mut a = ctl(0);
        let mut b = ctl(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.ingest_report(&[101, 105], 0, &mut out_a);
        // Deliver a's digest to b; b claims 105 and re-broadcasts.
        let to_b = out_a.iter().find(|m| m.to == 1).unwrap().clone();
        b.receive(to_b, 1, &mut out_b);
        let key = CycleKey::canonicalize(&[101, 105]);
        assert!(b.localized.contains(&key), "b saw both claims");
        // b's re-broadcast reaches a: a localizes too.
        let back = out_b
            .iter()
            .find(|m| m.to == 0 && matches!(m.payload, Payload::Digest(_)))
            .unwrap()
            .clone();
        a.receive(back, 2, &mut out_a);
        assert!(a.localized.contains(&key));
    }

    #[test]
    fn unacked_sends_retransmit_then_degrade() {
        let mut c = ctl(0);
        let mut outbox = Vec::new();
        c.ingest_report(&[101, 105], 0, &mut outbox);
        outbox.clear();
        // Never ack: drive ticks until the attempt budget (5) is spent.
        for step in 1..200 {
            c.tick(step, &mut outbox);
        }
        assert!(c.stats.retransmits > 0);
        assert!(!c.has_pending(), "budget exhausted");
        assert!(c.degraded(), "peers are unreachable now");
        assert_eq!(c.stats.peers_lost, 3);
        // Further cross-domain reports skip dead peers, not block.
        let before = outbox.len();
        c.ingest_report(&[102, 106], 200, &mut outbox);
        assert_eq!(outbox.len(), before, "no sends to unreachable peers");
        assert!(c.stats.skipped_sends > 0);
        // A message from a peer marks it reachable again.
        c.receive(
            Msg {
                from: 1,
                to: 0,
                payload: Payload::ResyncRequest,
            },
            201,
            &mut outbox,
        );
        assert_eq!(c.stats.peers_recovered, 1);
    }

    #[test]
    fn ack_clears_pending() {
        let mut c = ctl(0);
        let mut outbox = Vec::new();
        c.ingest_report(&[101, 105], 0, &mut outbox);
        let key = CycleKey::canonicalize(&[101, 105]);
        for peer in 1..4 {
            c.receive(
                Msg {
                    from: peer,
                    to: 0,
                    payload: Payload::Ack(key.clone()),
                },
                1,
                &mut outbox,
            );
        }
        assert!(!c.has_pending());
        let mut quiet = Vec::new();
        c.tick(2, &mut quiet);
        assert!(quiet.is_empty(), "nothing to retransmit");
    }

    #[test]
    fn crash_loses_peer_state_but_journal_survives_restart() {
        let mut c = ctl(0);
        let mut outbox = Vec::new();
        c.ingest_report(&[101, 105], 0, &mut outbox);
        // Learn a foreign digest too.
        let foreign_key = CycleKey::canonicalize(&[106, 110]);
        let mut foreign = LoopDigest::new(foreign_key.clone(), 1);
        foreign.claims.insert(106, 1);
        foreign.claims.insert(110, 2);
        c.receive(
            Msg {
                from: 1,
                to: 0,
                payload: Payload::Digest(foreign),
            },
            1,
            &mut outbox,
        );
        assert!(c.localized.contains(&foreign_key));
        c.crash();
        assert!(c.digests().is_empty() && c.localized.is_empty());
        outbox.clear();
        c.restart(10, &mut outbox);
        // Own observation is back and re-broadcast; the foreign digest
        // is gone until resync answers.
        let own_key = CycleKey::canonicalize(&[101, 105]);
        assert!(c.digests().contains_key(&own_key), "journal replayed");
        assert!(!c.digests().contains_key(&foreign_key));
        assert!(outbox
            .iter()
            .any(|m| matches!(m.payload, Payload::ResyncRequest)));
        assert_eq!(c.stats.restarts, 1);
    }

    #[test]
    fn resync_request_is_answered_with_a_summary() {
        let mut c = ctl(1);
        let mut outbox = Vec::new();
        c.ingest_report(&[105, 110], 0, &mut outbox);
        outbox.clear();
        c.receive(
            Msg {
                from: 0,
                to: 1,
                payload: Payload::ResyncRequest,
            },
            5,
            &mut outbox,
        );
        assert_eq!(c.stats.resyncs_served, 1);
        match &outbox[0].payload {
            Payload::Summary(digests) => assert_eq!(digests.len(), 1),
            other => panic!("expected summary, got {other:?}"),
        }
    }
}
