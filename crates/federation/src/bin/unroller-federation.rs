//! `unroller-federation` — run one federated multi-domain scenario and
//! report cross-domain loop localization against the forwarding-state
//! oracle.
//!
//! The scenario injects a cross-domain forwarding cycle into a
//! partitioned topology, detects it in the data plane with the sharded
//! engine, routes each loop event to the domain controller owning its
//! trigger switch, and federates the controllers over a faulty message
//! bus. The run exits non-zero unless the robustness invariant holds:
//! every cross-domain loop the oracle sees is either localized by some
//! controller or explicitly reported unresolvable — never silently
//! dropped — and every accounting identity (engine packets, bus message
//! conservation) balances.

use unroller_engine::Json;
use unroller_federation::{run_scenario, BusFaults, ScenarioConfig, ScenarioOutcome};

struct Options {
    cfg: ScenarioConfig,
    fault_mult: f64,
    out: Option<String>,
    min_recall: Option<f64>,
    quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cfg: ScenarioConfig::default(),
            fault_mult: 1.0,
            out: None,
            min_recall: None,
            quick: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: unroller-federation [options]\n\
         \n\
         Runs one federated scenario: a cross-domain routing loop is\n\
         injected, detected in the data plane, and localized by\n\
         per-domain controllers exchanging digests over a faulty bus.\n\
         \n\
         options:\n\
           --topology SPEC   ring:N | grid:WxH | fat-tree:K | wan:N |\n\
                             random:N[:EXTRA[:SEED]] (default fat-tree:4)\n\
           --domains N       administrative domains (default 4)\n\
           --flows N         concurrent flows (default 32)\n\
           --packets N       total packets to stream (default 20000)\n\
           --shards N        engine worker shards (default 2)\n\
           --seed N          traffic / injection seed (default 7)\n\
           --bus-faults SPEC seeded bus/controller fault plan,\n\
                             comma-separated k=v: seed=N loss=R dup=R\n\
                             reorder=R delay=R[:MAX] partition=R[:LEN]\n\
                             crash=R[:LEN] (rates in [0,1]; e.g.\n\
                             seed=3,loss=0.1,dup=0.05,crash=0.002:48)\n\
           --fault-mult F    scale every fault rate by F (default 1)\n\
           --max-steps N     federation step budget (default 512)\n\
           --min-recall F    exit 1 if cross-domain localization recall\n\
                             falls below F\n\
           --out PATH        write the JSON report here (also printed)\n\
           --quick           smaller run for smoke tests\n\
           --help            this text"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        })
    }
    fn num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {flag}: {raw}");
            std::process::exit(2);
        })
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--topology" => opts.cfg.topology = value(&mut args, "--topology"),
            "--domains" => opts.cfg.domains = num(&value(&mut args, "--domains"), "--domains"),
            "--flows" => opts.cfg.flows = num(&value(&mut args, "--flows"), "--flows"),
            "--packets" => opts.cfg.packets = num(&value(&mut args, "--packets"), "--packets"),
            "--shards" => opts.cfg.shards = num(&value(&mut args, "--shards"), "--shards"),
            "--seed" => opts.cfg.seed = num(&value(&mut args, "--seed"), "--seed"),
            "--bus-faults" => {
                let raw = value(&mut args, "--bus-faults");
                opts.cfg.faults = BusFaults::parse(&raw).unwrap_or_else(|e| {
                    eprintln!("bad --bus-faults: {e}");
                    std::process::exit(2);
                });
            }
            "--fault-mult" => {
                opts.fault_mult = num(&value(&mut args, "--fault-mult"), "--fault-mult")
            }
            "--max-steps" => {
                opts.cfg.max_steps = num(&value(&mut args, "--max-steps"), "--max-steps")
            }
            "--min-recall" => {
                opts.min_recall = Some(num(&value(&mut args, "--min-recall"), "--min-recall"))
            }
            "--out" => opts.out = Some(value(&mut args, "--out")),
            "--quick" => opts.quick = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }
    if opts.quick {
        opts.cfg.packets = opts.cfg.packets.min(6_000);
        opts.cfg.flows = opts.cfg.flows.min(16);
        opts.cfg.max_steps = opts.cfg.max_steps.min(384);
    }
    if opts.fault_mult != 1.0 {
        opts.cfg.faults = opts.cfg.faults.scaled(opts.fault_mult);
    }
    opts
}

fn report_json(opts: &Options, outcome: &ScenarioOutcome, invariant: bool) -> Json {
    let cfg = &opts.cfg;
    let mut config = Json::object();
    config
        .set("topology", Json::Str(cfg.topology.clone()))
        .set("domains", Json::UInt(cfg.domains as u64))
        .set("flows", Json::UInt(cfg.flows as u64))
        .set("packets", Json::UInt(cfg.packets))
        .set("shards", Json::UInt(cfg.shards as u64))
        .set("seed", Json::UInt(cfg.seed))
        .set("fault_mult", Json::Float(opts.fault_mult))
        .set("max_steps", Json::UInt(cfg.max_steps));

    let mut oracle = Json::object();
    oracle
        .set("cross", Json::UInt(outcome.oracle_cross.len() as u64))
        .set("local", Json::UInt(outcome.oracle_local.len() as u64));

    let fed = &outcome.federation;
    let mut federation = Json::object();
    federation
        .set("steps", Json::UInt(fed.steps))
        .set(
            "converged_step",
            fed.converged_step.map_or(Json::Null, Json::UInt),
        )
        .set("localized", Json::UInt(fed.localized.len() as u64))
        .set(
            "unresolvable",
            Json::Array(
                fed.unresolvable
                    .iter()
                    .map(|(key, missing)| {
                        let mut e = Json::object();
                        e.set(
                            "cycle",
                            Json::Array(
                                key.members()
                                    .iter()
                                    .map(|&m| Json::UInt(m as u64))
                                    .collect(),
                            ),
                        )
                        .set(
                            "unclaimed",
                            Json::Array(missing.iter().map(|&m| Json::UInt(m as u64)).collect()),
                        );
                        e
                    })
                    .collect(),
            ),
        )
        .set("crashes", Json::UInt(fed.crashes))
        .set("degraded", Json::Bool(fed.degraded));

    let b = &outcome.bus;
    let mut bus = Json::object();
    bus.set("offered", Json::UInt(b.offered))
        .set("admitted", Json::UInt(b.admitted))
        .set("duplicated", Json::UInt(b.duplicated))
        .set("lost", Json::UInt(b.lost))
        .set("dropped_partition", Json::UInt(b.dropped_partition))
        .set("dropped_full", Json::UInt(b.dropped_full))
        .set("dropped_crashed", Json::UInt(b.dropped_crashed))
        .set("delivered", Json::UInt(b.delivered))
        .set("delayed", Json::UInt(b.delayed))
        .set("partitions", Json::UInt(b.partitions))
        .set("in_flight", Json::UInt(outcome.bus_in_flight));

    let controllers = Json::Array(
        outcome
            .controllers
            .iter()
            .map(|s| {
                let mut c = Json::object();
                c.set("local_loops", Json::UInt(s.local_loops))
                    .set("cross_reports", Json::UInt(s.cross_reports))
                    .set("retransmits", Json::UInt(s.retransmits))
                    .set("skipped_sends", Json::UInt(s.skipped_sends))
                    .set("peers_lost", Json::UInt(s.peers_lost))
                    .set("peers_recovered", Json::UInt(s.peers_recovered))
                    .set("resyncs_served", Json::UInt(s.resyncs_served))
                    .set("restarts", Json::UInt(s.restarts))
                    .set("degraded_steps", Json::UInt(s.degraded_steps));
                c
            })
            .collect(),
    );

    let mut doc = Json::object();
    doc.set("unroller_federation", Json::UInt(1))
        .set("config", config)
        .set("nodes", Json::UInt(outcome.nodes as u64))
        .set(
            "injected_cycle",
            Json::Array(
                outcome
                    .injected_cycle
                    .iter()
                    .map(|&n| Json::UInt(n as u64))
                    .collect(),
            ),
        )
        .set("oracle", oracle)
        .set("engine", outcome.engine.to_json())
        .set(
            "routed_events",
            Json::Array(
                outcome
                    .routed_events
                    .iter()
                    .map(|&n| Json::UInt(n))
                    .collect(),
            ),
        )
        .set("unroutable_events", Json::UInt(outcome.unroutable_events))
        .set("federation", federation)
        .set("recall", Json::Float(outcome.recall))
        .set("bus", bus)
        .set("controllers", controllers)
        .set("accounted", Json::Bool(outcome.accounted()))
        .set("invariant_holds", Json::Bool(invariant));
    doc
}

fn main() {
    let opts = parse_args();
    let outcome = run_scenario(&opts.cfg).unwrap_or_else(|e| {
        eprintln!("cannot run the scenario: {e}");
        std::process::exit(2);
    });

    // The robustness invariant: every oracle cross-domain cycle is
    // localized or explicitly listed unresolvable.
    let invariant = outcome.oracle_cross.iter().all(|key| {
        outcome.federation.localized.contains(key)
            || outcome
                .federation
                .unresolvable
                .iter()
                .any(|(k, _)| k == key)
    });

    let doc = report_json(&opts, &outcome, invariant);
    let rendered = doc.render_pretty();
    println!("{rendered}");
    if let Some(path) = &opts.out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let mut failures = Vec::new();
    if !invariant {
        failures.push("an oracle cross-domain loop was neither localized nor reported".to_string());
    }
    let broken = outcome.broken_identities();
    if !broken.is_empty() {
        failures.push(format!(
            "accounting identities violated: {}",
            broken.join(", ")
        ));
    }
    if let Some(min) = opts.min_recall {
        if outcome.recall < min {
            failures.push(format!(
                "recall {} below --min-recall {min}",
                outcome.recall
            ));
        }
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!(
        "localized {}/{} cross-domain loops in {} steps ({} crashes, {} retransmits)",
        outcome
            .oracle_cross
            .iter()
            .filter(|k| outcome.federation.localized.contains(*k))
            .count(),
        outcome.oracle_cross.len(),
        outcome.federation.steps,
        outcome.federation.crashes,
        outcome
            .controllers
            .iter()
            .map(|s| s.retransmits)
            .sum::<u64>(),
    );
}
