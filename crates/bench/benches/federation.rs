//! The federation chaos benchmark: cross-domain loop localization
//! recall and convergence latency as bus/controller fault rates scale
//! from fault-free to 4× the baseline plan plus controller crashes.
//!
//! Each level replays the same end-to-end scenario (fat-tree:4 split
//! into 4 contiguous domains, a cross-domain forwarding cycle injected
//! mid-stream, data-plane detection by the sharded engine, per-domain
//! digest federation over the faulty bus) across several seeds, with
//! the fault plan scaled by the level's multiplier and — at every
//! faulted level — seeded controller crash/restart windows on top.
//!
//! Committed gates, re-checked by CI's `federation-smoke` job:
//! * recall vs the forwarding-state oracle stays 1.0 at every level
//!   (the robustness invariant: nothing is silently dropped, and the
//!   step budget is enough to absorb 4× chaos), and
//! * engine packet accounting and bus message conservation balance in
//!   every run.
//!
//! ```text
//! cargo bench -p unroller-bench --bench federation -- [--quick] [--out PATH]
//! ```

use std::time::Instant;
use unroller_engine::Json;
use unroller_federation::{run_scenario, BusFaults, ScenarioConfig};

/// Baseline per-message fault rates; multipliers scale these.
const BASELINE: &str = "loss=0.05,dup=0.05,reorder=0.05,delay=0.05:4,partition=0.005:16";
/// Controller crash plan applied (scaled) at every faulted level. The
/// per-step rate is high because convergence is fast — a handful of
/// federation steps — and the chaos level must actually lose
/// controllers mid-exchange to prove the journal + resync path.
const CRASH: f64 = 0.02;
const CRASH_LEN: u64 = 12;
const CRASH_CAP: f64 = 0.08;

struct Level {
    mult: f64,
    runs: Vec<RunSample>,
    wall_secs: f64,
}

struct RunSample {
    seed: u64,
    recall: f64,
    converged_step: Option<u64>,
    steps: u64,
    crashes: u64,
    retransmits: u64,
    degraded: bool,
    unresolvable: usize,
    accounted: bool,
}

fn run_level(mult: f64, seeds: &[u64], quick: bool) -> Level {
    let start = Instant::now();
    let mut runs = Vec::new();
    for &seed in seeds {
        let mut faults = BusFaults::parse(&format!("seed={seed},{BASELINE}"))
            .expect("baseline plan parses")
            .scaled(mult);
        if mult > 0.0 {
            faults.crash = (CRASH * mult).min(CRASH_CAP);
            faults.crash_len = CRASH_LEN;
        }
        let cfg = ScenarioConfig {
            topology: "fat-tree:4".to_string(),
            domains: 4,
            flows: 16,
            packets: if quick { 6_000 } else { 12_000 },
            shards: 2,
            seed,
            faults,
            max_steps: 2_048,
        };
        let outcome = run_scenario(&cfg).expect("valid scenario");
        assert!(
            outcome.engine.loop_detected(),
            "seed {seed}: traffic must hit the injected loop"
        );
        assert!(
            !outcome.oracle_cross.is_empty(),
            "seed {seed}: the injected cycle is cross-domain"
        );
        runs.push(RunSample {
            seed,
            recall: outcome.recall,
            converged_step: outcome.federation.converged_step,
            steps: outcome.federation.steps,
            crashes: outcome.federation.crashes,
            retransmits: outcome.controllers.iter().map(|s| s.retransmits).sum(),
            degraded: outcome.federation.degraded,
            unresolvable: outcome.federation.unresolvable.len(),
            accounted: outcome.accounted(),
        });
    }
    Level {
        mult,
        runs,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn level_json(level: &Level) -> Json {
    let n = level.runs.len() as f64;
    let recall_min = level.runs.iter().map(|r| r.recall).fold(f64::MAX, f64::min);
    let recall_mean = level.runs.iter().map(|r| r.recall).sum::<f64>() / n;
    let converged: Vec<u64> = level.runs.iter().filter_map(|r| r.converged_step).collect();
    let mut doc = Json::object();
    doc.set("fault_mult", Json::Float(level.mult))
        .set("runs", Json::UInt(level.runs.len() as u64))
        .set("recall_min", Json::Float(recall_min))
        .set("recall_mean", Json::Float(recall_mean))
        .set("converged_runs", Json::UInt(converged.len() as u64))
        .set(
            "convergence_steps_mean",
            if converged.is_empty() {
                Json::Null
            } else {
                Json::Float(converged.iter().sum::<u64>() as f64 / converged.len() as f64)
            },
        )
        .set(
            "convergence_steps_max",
            converged
                .iter()
                .max()
                .map_or(Json::Null, |&s| Json::UInt(s)),
        )
        .set(
            "steps_max",
            level
                .runs
                .iter()
                .map(|r| r.steps)
                .max()
                .map_or(Json::Null, Json::UInt),
        )
        .set(
            "crashes",
            Json::UInt(level.runs.iter().map(|r| r.crashes).sum()),
        )
        .set(
            "retransmits",
            Json::UInt(level.runs.iter().map(|r| r.retransmits).sum()),
        )
        .set(
            "degraded_runs",
            Json::UInt(level.runs.iter().filter(|r| r.degraded).count() as u64),
        )
        .set(
            "unresolvable",
            Json::UInt(level.runs.iter().map(|r| r.unresolvable as u64).sum()),
        )
        .set("wall_secs", Json::Float(level.wall_secs))
        .set(
            "seeds",
            Json::Array(level.runs.iter().map(|r| Json::UInt(r.seed)).collect()),
        );
    doc
}

fn main() {
    let mut quick = false;
    let mut out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_federation.json"
    )
    .to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("federation: --out requires an argument");
                    std::process::exit(2);
                })
            }
            "--bench" | "--test" => {}
            other => {
                eprintln!("federation: unknown argument `{other}` (--quick, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let seeds: Vec<u64> = if quick {
        vec![3, 11]
    } else {
        vec![3, 7, 11, 19, 23]
    };
    let mults = [0.0, 1.0, 2.0, 4.0];

    let mut levels = Vec::new();
    for &mult in &mults {
        eprintln!("federation: {}x faults over {} seeds...", mult, seeds.len());
        let level = run_level(mult, &seeds, quick);
        for run in &level.runs {
            assert!(
                run.accounted,
                "seed {} at {mult}x: accounting identities violated",
                run.seed
            );
        }
        levels.push(level);
    }

    // Committed gates: full recall at every level, including 4× chaos
    // with controller crashes, and the fault-free level converges in
    // every run.
    for level in &levels {
        let recall_min = level.runs.iter().map(|r| r.recall).fold(f64::MAX, f64::min);
        assert_eq!(
            recall_min, 1.0,
            "recall regression at {}x faults",
            level.mult
        );
    }
    assert!(
        levels[0].runs.iter().all(|r| r.converged_step.is_some()),
        "fault-free runs must converge"
    );
    let chaos = levels.last().expect("levels non-empty");
    assert!(
        chaos.runs.iter().map(|r| r.crashes).sum::<u64>() > 0,
        "the 4x level must actually crash controllers"
    );

    let mut root = Json::object();
    root.set("bench", Json::Str("federation".to_string()))
        .set("quick", Json::Bool(quick))
        .set("topology", Json::Str("fat-tree:4".to_string()))
        .set("domains", Json::UInt(4))
        .set("baseline_faults", Json::Str(BASELINE.to_string()))
        .set(
            "crash_plan",
            Json::Str(format!("crash={CRASH}:{CRASH_LEN} (scaled per level)")),
        )
        .set(
            "levels",
            Json::Array(levels.iter().map(level_json).collect()),
        )
        .set("gates", {
            let mut g = Json::object();
            g.set("recall_min", Json::Float(1.0))
                .set("accounting", Json::Bool(true));
            g
        });
    let rendered = root.render_pretty();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &rendered).expect("write benchmark output");
    println!("{rendered}");
    eprintln!("federation: wrote {out}");
}
