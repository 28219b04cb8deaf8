//! Deterministic fault injection: the engine's chaos layer.
//!
//! A [`FaultPlan`] is a *seeded* description of how the world
//! misbehaves during a run: worker panics, ring stalls, on-the-wire
//! header bit-flips (corrupting the Unroller ID/phase fields the
//! detector depends on), dropped and duplicated loop events, and
//! controller heal failures. Every decision is drawn from a per-shard
//! SplitMix64 stream keyed by the plan's seed, so a chaos run is as
//! replayable as a clean one — the same seed injects the same faults
//! in the same per-shard packet positions, CI can assert on the
//! outcome, and a failure found under faults can be re-run under a
//! debugger.
//!
//! The plan is pure configuration; the runtime hooks live in the
//! worker ([`ShardFaults`]), the dispatcher (shedding, quarantine —
//! see [`crate::engine`]), and the post-run heal phase
//! ([`FaultyHealer`]). A plan with every rate at zero is *inactive*
//! and the engine takes its original lock-free fast paths.

use std::fmt;
use std::sync::Once;
use std::time::Duration;

/// How the engine should misbehave during a run. All rates are
/// per-draw probabilities in `[0, 1]`; 0 disables that fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision stream.
    pub seed: u64,
    /// Per-packet probability that the worker panics *before*
    /// processing the packet (the packet is lost and counted).
    pub panic_rate: f64,
    /// Per-packet probability that one bit of the packet's Unroller
    /// header is flipped at a random early hop — corruption on the
    /// wire, invisible to the emitting switch.
    pub bitflip_rate: f64,
    /// Per-batch probability that the worker stalls (stops consuming
    /// its ring) for [`FaultPlan::stall_ms`].
    pub stall_rate: f64,
    /// Injected stall duration in milliseconds.
    pub stall_ms: u64,
    /// Per-event probability that a loop event is dropped on its way
    /// to the aggregator.
    pub event_drop_rate: f64,
    /// Per-event probability that a loop event is delivered twice.
    pub event_dup_rate: f64,
    /// Per-attempt probability that a controller heal operation fails.
    pub heal_fail_rate: f64,
    /// Per-shard restart budget: after this many panics a shard stops
    /// processing and drains its ring into the loss counters instead
    /// of looping forever on a poisoned input.
    pub max_restarts: u64,
    /// Panic the watchdog thread as soon as it starts — exercises the
    /// engine's degraded join path (default watchdog summary, run and
    /// accounting preserved).
    pub watchdog_panic: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_rate: 0.0,
            bitflip_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 20,
            event_drop_rate: 0.0,
            event_dup_rate: 0.0,
            heal_fail_rate: 0.0,
            max_restarts: 64,
            watchdog_panic: false,
        }
    }
}

/// A malformed `--faults` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// Whether any fault class can fire. Inactive plans cost the hot
    /// path nothing beyond one branch per batch.
    pub fn active(&self) -> bool {
        self.panic_rate > 0.0
            || self.bitflip_rate > 0.0
            || self.stall_rate > 0.0
            || self.event_drop_rate > 0.0
            || self.event_dup_rate > 0.0
            || self.heal_fail_rate > 0.0
            || self.watchdog_panic
    }

    /// Parses a `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed`, `panic`, `bitflip`, `stall` (rate, optionally
    /// `rate:ms`), `evdrop`, `evdup`, `healfail`, `restarts`,
    /// `wdpanic` (0/1).
    /// Example: `seed=42,panic=2e-4,bitflip=1e-3,healfail=0.5`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{part}` is not key=value")))?;
            let key = key.trim();
            let value = value.trim();
            let rate = |v: &str| -> Result<f64, FaultSpecError> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| FaultSpecError(format!("`{v}` is not a number")))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(FaultSpecError(format!("rate `{v}` outside [0, 1]")));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| FaultSpecError(format!("`{value}` is not a seed")))?;
                }
                "panic" => plan.panic_rate = rate(value)?,
                "bitflip" => plan.bitflip_rate = rate(value)?,
                "stall" => {
                    let (r, ms) = match value.split_once(':') {
                        Some((r, ms)) => (
                            r,
                            ms.parse()
                                .map_err(|_| FaultSpecError(format!("`{ms}` is not ms")))?,
                        ),
                        None => (value, plan.stall_ms),
                    };
                    plan.stall_rate = rate(r)?;
                    plan.stall_ms = ms;
                }
                "evdrop" => plan.event_drop_rate = rate(value)?,
                "evdup" => plan.event_dup_rate = rate(value)?,
                "healfail" => plan.heal_fail_rate = rate(value)?,
                "restarts" => {
                    plan.max_restarts = value
                        .parse()
                        .map_err(|_| FaultSpecError(format!("`{value}` is not a count")))?;
                }
                "wdpanic" => {
                    plan.watchdog_panic = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(FaultSpecError(format!("`{value}` is not 0 or 1"))),
                    };
                }
                other => return Err(FaultSpecError(format!("unknown key `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// The same plan with every rate multiplied by `mult` (clamped to
    /// 1.0) — the fault-sweep's knob.
    pub fn scaled(&self, mult: f64) -> FaultPlan {
        let scale = |r: f64| (r * mult).clamp(0.0, 1.0);
        FaultPlan {
            panic_rate: scale(self.panic_rate),
            bitflip_rate: scale(self.bitflip_rate),
            stall_rate: scale(self.stall_rate),
            event_drop_rate: scale(self.event_drop_rate),
            event_dup_rate: scale(self.event_dup_rate),
            heal_fail_rate: scale(self.heal_fail_rate),
            ..self.clone()
        }
    }

    /// The fault decision streams for one worker shard. Each fault
    /// class draws from its own stream, so per-packet decisions depend
    /// only on the packet's position in the shard's stream and
    /// per-event decisions only on the event index — never on batch
    /// boundaries, which timing makes nondeterministic.
    pub fn for_shard(&self, shard: usize) -> ShardFaults {
        let shard_seed = self.seed ^ 0xfa17 ^ ((shard as u64) << 32);
        ShardFaults {
            packet_rng: SplitMix64::new(shard_seed ^ 0x01),
            stall_rng: SplitMix64::new(shard_seed ^ 0x02),
            plan: self.clone(),
        }
    }

    /// The loop-event fault stream for one shard (interior-mutable so
    /// the worker can draw fates from inside its supervised section).
    pub fn event_faults(&self, shard: usize) -> EventFaults {
        let shard_seed = self.seed ^ 0xfa17 ^ ((shard as u64) << 32);
        EventFaults {
            state: std::cell::Cell::new(shard_seed ^ 0x03),
            drop_rate: self.event_drop_rate,
            dup_rate: self.event_dup_rate,
        }
    }

    /// The heal-failure decision stream (controller side).
    pub fn healer(&self) -> FaultyHealer {
        FaultyHealer {
            rng: SplitMix64::new(self.seed ^ 0x4ea1),
            fail_rate: self.heal_fail_rate,
        }
    }

    /// Serializes the plan for run reports.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut obj = Json::object();
        obj.set("seed", Json::UInt(self.seed));
        obj.set("panic_rate", Json::Float(self.panic_rate));
        obj.set("bitflip_rate", Json::Float(self.bitflip_rate));
        obj.set("stall_rate", Json::Float(self.stall_rate));
        obj.set("stall_ms", Json::UInt(self.stall_ms));
        obj.set("event_drop_rate", Json::Float(self.event_drop_rate));
        obj.set("event_dup_rate", Json::Float(self.event_dup_rate));
        obj.set("heal_fail_rate", Json::Float(self.heal_fail_rate));
        obj.set("max_restarts", Json::UInt(self.max_restarts));
        obj.set("watchdog_panic", Json::Bool(self.watchdog_panic));
        obj
    }
}

/// SplitMix64 — the same mix the engine's RSS hash uses, here as a
/// sequential stream. Tiny, allocation-free, and deterministic, which
/// is the whole point: fault decisions must replay exactly. Public so
/// other fault injectors (the federation message bus) draw from the
/// same replayable stream family instead of reimplementing it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, bound)` (`0` when `bound` is 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// True with probability `p` (53-bit uniform draw).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// What (if anything) goes wrong with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFault {
    /// Nothing; process normally.
    None,
    /// The worker panics before processing this packet.
    Panic,
    /// Flip header bit `bit` once the packet reaches hop `at_hop`.
    BitFlip {
        /// Hop index at which the corruption lands.
        at_hop: u32,
        /// Wire bit index into the shim, wrapping modulo its bit count
        /// (see [`ShimView::flip_bit`](unroller_dataplane::pipeline::ShimView::flip_bit)).
        bit: u32,
    },
}

/// What happens to one loop event on its way to the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFate {
    /// Delivered once (the normal case).
    Deliver,
    /// Lost in transit.
    Drop,
    /// Delivered twice.
    Duplicate,
}

/// Per-shard fault decision streams. One per worker, owned by that
/// worker's thread — no synchronization, fully deterministic given
/// (plan seed, shard index, per-shard packet order).
#[derive(Debug, Clone)]
pub struct ShardFaults {
    packet_rng: SplitMix64,
    stall_rng: SplitMix64,
    plan: FaultPlan,
}

impl ShardFaults {
    /// Draws this packet's fate. Panic takes precedence over bit-flips
    /// (a panicking worker never gets to corrupt anything).
    pub fn packet_fault(&mut self) -> PacketFault {
        if self.plan.panic_rate > 0.0 && self.packet_rng.chance(self.plan.panic_rate) {
            return PacketFault::Panic;
        }
        if self.plan.bitflip_rate > 0.0 && self.packet_rng.chance(self.plan.bitflip_rate) {
            // Corrupt early in the walk so the damaged header passes
            // through many switches — the worst case for the detector.
            let at_hop = (self.packet_rng.next_u64() % 8) as u32;
            let bit = (self.packet_rng.next_u64() & 0xffff_ffff) as u32;
            return PacketFault::BitFlip { at_hop, bit };
        }
        PacketFault::None
    }

    /// Draws this batch's stall, if any.
    pub fn batch_stall(&mut self) -> Option<Duration> {
        if self.plan.stall_rate > 0.0 && self.stall_rng.chance(self.plan.stall_rate) {
            Some(Duration::from_millis(self.plan.stall_ms))
        } else {
            None
        }
    }

    /// The shard's restart budget (copied from the plan).
    pub fn max_restarts(&self) -> u64 {
        self.plan.max_restarts
    }
}

/// Loop-event fault stream, interior-mutable so the worker can draw
/// fates through a shared reference from inside its supervised
/// (catch-unwind) section. Single-threaded per shard like everything
/// else worker-owned.
#[derive(Debug)]
pub struct EventFaults {
    state: std::cell::Cell<u64>,
    drop_rate: f64,
    dup_rate: f64,
}

impl EventFaults {
    /// A stream that always delivers (for fault-free runs).
    pub fn inactive() -> Self {
        EventFaults {
            state: std::cell::Cell::new(0),
            drop_rate: 0.0,
            dup_rate: 0.0,
        }
    }

    /// Draws one loop event's fate.
    pub fn fate(&self) -> EventFate {
        if self.drop_rate <= 0.0 && self.dup_rate <= 0.0 {
            return EventFate::Deliver;
        }
        let mut rng = SplitMix64::new(0);
        rng.0 = self.state.get();
        let fate = if rng.chance(self.drop_rate) {
            EventFate::Drop
        } else if rng.chance(self.dup_rate) {
            EventFate::Duplicate
        } else {
            EventFate::Deliver
        };
        self.state.set(rng.0);
        fate
    }
}

/// The marker payload injected panics carry, so the supervision layer
/// (and the process-wide quiet hook) can tell chaos from genuine bugs.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic {
    /// The shard that panicked.
    pub shard: usize,
}

/// Panics with an [`InjectedPanic`] payload. Callers must run under
/// the supervised worker loop, which catches and accounts for it.
pub fn inject_panic(shard: usize) -> ! {
    std::panic::panic_any(InjectedPanic { shard })
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// [`InjectedPanic`] payloads and forwards everything else to the
/// previous hook. Without this, a chaos run with thousands of injected
/// panics would bury real diagnostics in backtrace spam.
pub fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedPanic>() {
                previous(info);
            }
        }));
    });
}

/// Deterministic heal-failure source for the controller's retry path.
#[derive(Debug, Clone)]
pub struct FaultyHealer {
    rng: SplitMix64,
    fail_rate: f64,
}

impl FaultyHealer {
    /// Whether the next heal attempt fails.
    pub fn attempt_fails(&mut self) -> bool {
        self.rng.chance(self.fail_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_fires() {
        let plan = FaultPlan::default();
        assert!(!plan.active());
        let mut faults = plan.for_shard(0);
        let events = plan.event_faults(0);
        for _ in 0..10_000 {
            assert_eq!(faults.packet_fault(), PacketFault::None);
            assert_eq!(events.fate(), EventFate::Deliver);
            assert!(faults.batch_stall().is_none());
        }
        assert!(!plan.healer().attempt_fails());
    }

    #[test]
    fn decisions_replay_per_seed_and_shard() {
        let plan = FaultPlan {
            seed: 7,
            panic_rate: 0.01,
            bitflip_rate: 0.05,
            event_drop_rate: 0.1,
            event_dup_rate: 0.1,
            ..FaultPlan::default()
        };
        let draw = |shard: usize| {
            let mut f = plan.for_shard(shard);
            let ev = plan.event_faults(shard);
            (0..2_000)
                .map(|_| (f.packet_fault(), ev.fate()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0), "same seed+shard replays exactly");
        assert_ne!(draw(0), draw(1), "shards get independent streams");
        assert!(
            draw(0).iter().any(|(p, _)| *p == PacketFault::Panic),
            "1% over 2000 draws should fire"
        );
    }

    #[test]
    fn parse_round_trips_the_full_spec() {
        let plan =
            FaultPlan::parse("seed=42,panic=2e-4,bitflip=1e-3,stall=0.01:50,evdrop=0.1,evdup=0.2,healfail=0.5,restarts=9,wdpanic=1")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.panic_rate, 2e-4);
        assert_eq!(plan.bitflip_rate, 1e-3);
        assert_eq!(plan.stall_rate, 0.01);
        assert_eq!(plan.stall_ms, 50);
        assert_eq!(plan.event_drop_rate, 0.1);
        assert_eq!(plan.event_dup_rate, 0.2);
        assert_eq!(plan.heal_fail_rate, 0.5);
        assert_eq!(plan.max_restarts, 9);
        assert!(plan.watchdog_panic);
        assert!(plan.active());
    }

    #[test]
    fn wdpanic_alone_activates_the_plan() {
        let plan = FaultPlan::parse("wdpanic=1").unwrap();
        assert!(plan.watchdog_panic);
        assert!(plan.active());
        assert!(!FaultPlan::parse("wdpanic=0").unwrap().active());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "panic",
            "panic=2",
            "panic=-0.5",
            "mystery=1",
            "stall=0.1:abc",
            "seed=x",
            "wdpanic=yes",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn scaling_multiplies_and_clamps() {
        let base = FaultPlan {
            panic_rate: 0.4,
            heal_fail_rate: 0.9,
            ..FaultPlan::default()
        };
        let doubled = base.scaled(2.0);
        assert_eq!(doubled.panic_rate, 0.8);
        assert_eq!(doubled.heal_fail_rate, 1.0, "clamped");
        assert!(!base.scaled(0.0).active());
    }

    #[test]
    fn healer_failure_rate_is_roughly_right() {
        let plan = FaultPlan {
            seed: 3,
            heal_fail_rate: 0.5,
            ..FaultPlan::default()
        };
        let mut healer = plan.healer();
        let fails = (0..10_000).filter(|_| healer.attempt_fails()).count();
        assert!((4_000..6_000).contains(&fails), "{fails} of 10000");
    }
}
