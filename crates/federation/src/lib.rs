//! # unroller-federation
//!
//! A federated multi-domain control plane for Unroller deployments that
//! span administrative domains: the topology is partitioned into
//! contiguous regions ([`unroller_topology::DomainMap`]), each region
//! gets a [`DomainController`] wrapping the existing
//! `unroller-control` localize/heal machinery for its own switches, and
//! the controllers exchange compact loop-membership digests
//! ([`LoopDigest`], keyed by the shared rotation-canonical
//! [`unroller_core::CycleKey`]) over a bounded-queue message bus.
//!
//! The exchange is built for a hostile transport: the [`Bus`] injects
//! seeded message loss, duplication, reordering, delay, and pairwise
//! partitions; controllers crash and restart from a write-ahead journal
//! plus peer resync. Digest merge is an idempotent, commutative claims
//! union, so duplicated or reordered delivery is harmless by
//! construction, and the [`FederationSim`] invariant holds under any
//! injected fault schedule: every cross-domain loop in the
//! `verify::fwdcheck` oracle is eventually localized by some
//! controller or explicitly reported unresolvable.
//!
//! * [`digest`] — [`LoopDigest`] and its property-tested merge.
//! * [`bus`] — the faulty bounded bus and the [`BusFaults`] spec
//!   grammar (`loss=0.05,dup=0.05,partition=0.01:32,crash=0.002:48`).
//! * [`controller`] — [`DomainController`]: region-scoped
//!   localization, per-peer retry with `HealPolicy` backoff, degraded
//!   local-only mode, crash journal + resync.
//! * [`sim`] — the discrete-step [`FederationSim`] harness.
//! * [`scenario`] — end-to-end runs: topology → engine detection →
//!   per-domain event routing → federation → oracle recall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod controller;
pub mod digest;
pub mod scenario;
pub mod sim;

pub use bus::{Bus, BusCounters, BusFaults, BusSpecError, Msg, Payload};
pub use controller::{ControllerStats, DomainController, GOSSIP_EVERY, STEP_NS};
pub use digest::{DomainId, LoopDigest};
pub use scenario::{run_scenario, ScenarioConfig, ScenarioError, ScenarioOutcome};
pub use sim::{FederationOutcome, FederationSim};
