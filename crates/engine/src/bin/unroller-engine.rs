//! `unroller-engine` — run the sharded engine over synthetic routed
//! traffic with a routing loop injected mid-stream.
//!
//! Single-run mode processes the stream at a fixed shard count, hands
//! the deduplicated loop reports to the controller for localization and
//! (fault-tolerant) healing, and prints the full JSON report;
//! `--fault-sweep 0,0.5,1,2,4` replays the same (same-seed) stream
//! under the `--faults` plan scaled by each multiplier and writes
//! detection recall and heal latency per fault level to
//! `results/engine_faults.json`. Either mode exits 1 when a run breaks
//! one of the report's accounting identities, or when a `--memo` run's
//! cached verdicts diverged from its sampled walks, naming the broken
//! check (and, in a sweep, the multiplier) after the JSON is written.

use std::collections::HashSet;
use std::time::Duration;
use unroller_control::{Controller, FlakyHealer, HealPolicy, HealReport, SimHealer};
use unroller_dataplane::HeaderLayout;
use unroller_engine::{
    aggregate::deliver, CaptureSource, ChurnPlan, ChurnSource, ControllerSink, Engine,
    EngineConfig, EngineReport, FaultPlan, FlowKey, FullPolicy, HistogramSnapshot, Json,
    LoopInjection, MemoConfig, PcapReplaySource, ReplaySource, TrafficSource, DEFAULT_SAMPLE_EVERY,
};
use unroller_sim::{NullDetector, SimConfig, Simulator};
use unroller_topology::ids::assign_sequential_ids;
use unroller_topology::{generators, Graph, NodeId};
use unroller_verify::FwdChecker;

struct Options {
    shards: usize,
    fault_sweep: Option<Vec<f64>>,
    packets: u64,
    batch: usize,
    ring: usize,
    topology: String,
    flows: usize,
    loop_at: Option<u64>, // None = --no-loop
    ttl: u32,
    policy: FullPolicy,
    seed: u64,
    out: Option<String>,
    snapshot_ms: Option<u64>,
    expect_loop: bool,
    faults: FaultPlan,
    shed: bool,
    watchdog_ms: Option<u64>,
    replay: Option<String>,
    capture: Option<String>,
    oracle: bool,
    events_out: Option<String>,
    epoch: u64,
    run_id: Option<String>,
    churn: Option<ChurnPlan>,
    memo: bool,
    memo_sample: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            shards: 2,
            fault_sweep: None,
            packets: 200_000,
            batch: 64,
            ring: 1024,
            topology: "ring:32".to_string(),
            flows: 64,
            loop_at: Some(0), // placeholder; resolved after parsing
            ttl: 64,
            policy: FullPolicy::Drop,
            seed: 1,
            out: None,
            snapshot_ms: None,
            expect_loop: false,
            faults: FaultPlan::default(),
            shed: false,
            watchdog_ms: None,
            replay: None,
            capture: None,
            oracle: false,
            events_out: None,
            epoch: 0,
            run_id: None,
            churn: None,
            memo: false,
            memo_sample: DEFAULT_SAMPLE_EVERY,
        }
    }
}

fn usage() -> ! {
    println!(
        "usage: unroller-engine [options]\n\
         \n\
         Runs the sharded Unroller engine over synthetic traffic routed\n\
         through a simulated topology, with a routing loop injected\n\
         mid-stream (detected in-band by the per-switch pipelines).\n\
         \n\
         options:\n\
           --shards N        worker shards (default 2)\n\
           --packets N       total packets to stream (default 200000)\n\
           --batch N         max packets per processing batch (default 64)\n\
           --ring N          per-shard ring capacity (default 1024)\n\
           --topology SPEC   ring:N | grid:WxH | fat-tree:K | wan:N |\n\
                             random:N[:EXTRA[:SEED]] (default ring:32)\n\
           --flows N         concurrent flows (default 64)\n\
           --loop-at N       packet index where the loop appears\n\
                             (default packets/4)\n\
           --no-loop         do not inject a loop\n\
           --ttl N           per-packet hop budget (default 64)\n\
           --policy P        drop | block on full rings (default drop)\n\
           --seed N          traffic seed (default 1)\n\
           --out PATH        write the JSON report here (fault sweeps\n\
                             default to results/engine_faults.json)\n\
           --snapshot-ms N   print live metric snapshots to stderr\n\
           --expect-loop     exit 1 unless a loop was detected\n\
           --faults SPEC     seeded fault plan, comma-separated k=v:\n\
                             seed=N panic=R bitflip=R stall=R[:MS]\n\
                             evdrop=R evdup=R healfail=R restarts=N\n\
                             (rates in [0,1]; e.g.\n\
                             seed=7,panic=0.001,bitflip=0.01,healfail=0.5)\n\
           --shed            shed lowest-priority flows at ingress when\n\
                             a shard's ring saturates (counted)\n\
           --watchdog-ms N   poll shard progress every N ms and kick\n\
                             stalled shards\n\
           --replay FILE     replay a classic pcap capture instead of\n\
                             generating traffic: frames are attributed\n\
                             to flows by their Unroller MAC convention\n\
                             and processed in their recorded bytes\n\
                             (single-run mode only)\n\
           --capture FILE    record the traffic the engine processes\n\
                             as a classic pcap capture, replayable\n\
                             with --replay (single-run mode only)\n\
           --oracle          derive looping-flow ground truth from the\n\
                             static forwarding-state checker instead of\n\
                             the recorded per-flow routes; cross-checks\n\
                             both and exits 1 on any disagreement\n\
                             (single-run synthetic traffic only)\n\
           --events-out PATH write the deduplicated loop events as a\n\
                             JSONL log (header line with run metadata,\n\
                             one event per line) for offline analysis\n\
                             with unroller-analytics (single-run only)\n\
           --epoch N         epoch stamped into the event log and the\n\
                             run_meta report section (default 0);\n\
                             analytics marks loops seen in >= 2 epochs\n\
                             as persistent\n\
           --run-id STR      override the derived run identifier that\n\
                             joins this run's artifacts\n\
           --churn SPEC      live control-plane churn: replay seeded\n\
                             distance-vector link failures as route\n\
                             generations swapped mid-run (replaces the\n\
                             static --loop-at injection) and score\n\
                             recall against the live forwarding oracle;\n\
                             comma-separated k=v: rate=N (control\n\
                             events per million packets) seed=N links=N\n\
                             (e.g. rate=400,seed=7,links=2)\n\
           --fault-sweep L   comma-separated rate multipliers (e.g.\n\
                             0,0.5,1,2,4) applied to the --faults plan;\n\
                             replays the stream per level and writes\n\
                             recall + heal latency per fault rate\n\
           --memo            memoize per-route walk verdicts for\n\
                             generated traffic (a slot's entry is\n\
                             dropped when a swap changes its route); a\n\
                             seeded sample of cache hits is still\n\
                             walked and cross-checked bit-exactly — any\n\
                             divergence exits 1\n\
           --memo-sample N   cross-check one in N cache hits with a full\n\
                             walk (default 64; 0 = never, 1 = every hit;\n\
                             implies --memo)\n\
           --help            this text"
    );
    std::process::exit(0);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut explicit_loop_at = None;
    let mut no_loop = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("unroller-engine: {name} requires an argument");
                std::process::exit(2);
            })
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("unroller-engine: invalid value for {name}: {v}");
                std::process::exit(2);
            })
        }
        match arg.as_str() {
            "--shards" => opts.shards = num("--shards", value("--shards")),
            "--fault-sweep" => {
                let list = value("--fault-sweep");
                let mults: Vec<f64> = list
                    .split(',')
                    .map(|p| num("--fault-sweep", p.trim().to_string()))
                    .collect();
                if mults.is_empty() || mults.iter().any(|&m| m < 0.0) {
                    eprintln!("unroller-engine: --fault-sweep needs non-negative multipliers");
                    std::process::exit(2);
                }
                opts.fault_sweep = Some(mults);
            }
            "--packets" => opts.packets = num("--packets", value("--packets")),
            "--batch" => opts.batch = num("--batch", value("--batch")),
            "--ring" => opts.ring = num("--ring", value("--ring")),
            "--topology" => opts.topology = value("--topology"),
            "--flows" => {
                opts.flows = num("--flows", value("--flows"));
                if opts.flows == 0 {
                    eprintln!("unroller-engine: --flows must be >= 1");
                    std::process::exit(2);
                }
            }
            "--loop-at" => explicit_loop_at = Some(num("--loop-at", value("--loop-at"))),
            "--no-loop" => no_loop = true,
            "--ttl" => opts.ttl = num("--ttl", value("--ttl")),
            "--policy" => {
                opts.policy = match value("--policy").as_str() {
                    "drop" => FullPolicy::Drop,
                    "block" => FullPolicy::Block,
                    other => {
                        eprintln!("unroller-engine: unknown policy `{other}` (drop|block)");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => opts.seed = num("--seed", value("--seed")),
            "--out" => opts.out = Some(value("--out")),
            "--snapshot-ms" => {
                opts.snapshot_ms = Some(num("--snapshot-ms", value("--snapshot-ms")))
            }
            "--expect-loop" => opts.expect_loop = true,
            "--faults" => {
                let spec = value("--faults");
                opts.faults = FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("unroller-engine: bad --faults spec: {e}");
                    std::process::exit(2);
                });
            }
            "--churn" => {
                let spec = value("--churn");
                opts.churn = Some(ChurnPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("unroller-engine: bad --churn spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--replay" => opts.replay = Some(value("--replay")),
            "--capture" => opts.capture = Some(value("--capture")),
            "--events-out" => opts.events_out = Some(value("--events-out")),
            "--epoch" => opts.epoch = num("--epoch", value("--epoch")),
            "--run-id" => opts.run_id = Some(value("--run-id")),
            "--oracle" => opts.oracle = true,
            "--memo" => opts.memo = true,
            "--memo-sample" => {
                opts.memo_sample = num("--memo-sample", value("--memo-sample"));
                opts.memo = true;
            }
            "--shed" => opts.shed = true,
            "--watchdog-ms" => {
                opts.watchdog_ms = Some(num("--watchdog-ms", value("--watchdog-ms")))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unroller-engine: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    // Churn mode's loops come from the live control plane, not a
    // statically injected cycle.
    opts.loop_at = if no_loop || opts.churn.is_some() {
        None
    } else {
        Some(explicit_loop_at.unwrap_or(opts.packets / 4))
    };
    opts
}

/// Picks a 2-switch forwarding cycle to inject: the first link whose
/// endpoints both differ from the chosen destination, or `None` when
/// every link touches it.
fn pick_injection(graph: &Graph, dst: NodeId, at_packet: u64) -> Option<LoopInjection> {
    for u in 0..graph.node_count() {
        if u == dst {
            continue;
        }
        for &v in graph.neighbors(u) {
            if v != dst {
                return Some(LoopInjection {
                    cycle: vec![u, v],
                    dst,
                    at_packet,
                });
            }
        }
    }
    None
}

/// Writes `contents` to `path`, creating missing parent directories;
/// exits 1 on any I/O error.
fn write_report(path: &str, contents: &[u8]) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                eprintln!("unroller-engine: cannot create {}: {e}", parent.display());
                std::process::exit(1);
            });
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("unroller-engine: cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path} ({} bytes)", contents.len());
}

/// Runs `source` through `engine`, teed into a pcap capture written to
/// `capture` when one is given; exits 1 if the run fails.
fn run_source(
    engine: &Engine,
    source: &mut dyn TrafficSource,
    capture: Option<&str>,
) -> EngineReport {
    let run = |source: &mut dyn TrafficSource| {
        engine.run(source).unwrap_or_else(|e| {
            eprintln!("unroller-engine: {e}");
            std::process::exit(1);
        })
    };
    let Some(path) = capture else {
        return run(source);
    };
    let mut tee = CaptureSource::new(source, HeaderLayout::from_params(&engine.config().params));
    let report = run(&mut tee);
    write_report(path, &tee.finish());
    report
}

/// Derives looping-flow ground truth statically: installs the
/// simulator's (post-injection) forwarding columns into the
/// incremental forwarding-state checker and classifies every flow from
/// its endpoints, independently of the per-flow routes the source
/// recorded. Returns the oracle's JSON section, its looping-flow set,
/// and whether that set matches `looping_flow_keys()` exactly.
fn oracle_ground_truth(
    graph: &Graph,
    sim: &Simulator<NullDetector>,
    source: &ReplaySource,
) -> (Json, Vec<FlowKey>, bool) {
    let t0 = std::time::Instant::now();
    let mut checker = FwdChecker::from_columns(graph.clone(), |dst| sim.forwarding(dst).to_vec());
    let keys = source.flow_keys();
    let endpoints: Vec<(NodeId, NodeId)> = keys
        .iter()
        .map(|k| {
            let (s, d) = k.synthetic_endpoints();
            (s as NodeId, d as NodeId)
        })
        .collect();
    checker.register_flows(endpoints.clone());
    let oracle_keys: Vec<FlowKey> = keys
        .iter()
        .zip(&endpoints)
        .filter(|&(_, &(s, d))| checker.flow_trapped(s, d))
        .map(|(k, _)| *k)
        .collect();
    let build_ns = t0.elapsed().as_nanos() as u64;

    let recorded: HashSet<FlowKey> = source.looping_flow_keys().into_iter().collect();
    let derived: HashSet<FlowKey> = oracle_keys.iter().copied().collect();
    let agrees = recorded == derived;

    let mut j = Json::object();
    j.set("flows", Json::UInt(keys.len() as u64));
    j.set("looping_flows", Json::UInt(oracle_keys.len() as u64));
    j.set(
        "imperiled_flows",
        Json::UInt(checker.imperiled_flows().len() as u64),
    );
    // Distinct endpoint-pair counts: downstream tooling that observes
    // traffic (unroller-analytics) sees pairs, not flow instances, so
    // the oracle exposes both granularities.
    let distinct: HashSet<(NodeId, NodeId)> = endpoints.iter().copied().collect();
    let imperiled_pairs: HashSet<(NodeId, NodeId)> =
        checker.imperiled_flows().into_iter().collect();
    let trapped_pairs: HashSet<(NodeId, NodeId)> = distinct
        .iter()
        .copied()
        .filter(|&(s, d)| checker.flow_trapped(s, d))
        .collect();
    j.set("distinct_pairs", Json::UInt(distinct.len() as u64));
    j.set(
        "imperiled_pairs_distinct",
        Json::UInt(imperiled_pairs.len() as u64),
    );
    j.set(
        "looping_pairs_distinct",
        Json::UInt(trapped_pairs.len() as u64),
    );
    j.set(
        "looping_routers",
        Json::UInt(checker.looping_routers().len() as u64),
    );
    j.set(
        "looping_dsts",
        Json::UInt(graph.nodes().filter(|&d| checker.has_loop(d)).count() as u64),
    );
    j.set("build_ns", Json::UInt(build_ns));
    j.set("agrees_with_replay_routes", Json::Bool(agrees));
    (j, oracle_keys, agrees)
}

/// Fraction of ground-truth looping flows the run detected; 1.0 when
/// nothing loops (there was nothing to miss).
fn detection_recall(report: &EngineReport, looping: &[FlowKey]) -> (f64, usize) {
    if looping.is_empty() {
        return (1.0, 0);
    }
    let detected: HashSet<FlowKey> = report.aggregator.events.iter().map(|e| e.flow).collect();
    let hits = looping.iter().filter(|f| detected.contains(f)).count();
    (hits as f64 / looping.len() as f64, hits)
}

/// Exits 1 with one stderr line naming every accounting identity the
/// report breaks: packets, events or per-shard outcomes. `context`
/// follows "mismatch" (a sweep names the multiplier).
fn accounting_gate(report: &EngineReport, context: &str) {
    let broken: Vec<&str> = [
        ("accounted", report.accounted()),
        ("events_accounted", report.events_accounted()),
        ("outcomes_accounted", report.outcomes_accounted()),
    ]
    .into_iter()
    .filter_map(|(name, holds)| (!holds).then_some(name))
    .collect();
    if !broken.is_empty() {
        eprintln!(
            "unroller-engine: internal accounting mismatch{context}: {}",
            broken.join(", ")
        );
        std::process::exit(1);
    }
}

/// Prints the memo layer's counters and exits 1 on any sampled
/// divergence — a cross-check mismatch means the cache served a verdict
/// the full walk disagrees with, which is always a bug, never a data
/// condition. `context` ends both lines (a sweep names the multiplier).
fn memo_gate(report: &EngineReport, context: &str) {
    if !report.memo_enabled {
        return;
    }
    eprintln!(
        "memo: hits={} misses={} sampled_walks={} divergence={}{context}",
        report.memo_hits(),
        report.memo_misses(),
        report.memo_sampled_walks(),
        report.memo_divergence(),
    );
    if report.memo_divergence() > 0 {
        eprintln!("unroller-engine: memoized verdicts diverged from sampled walks{context}");
        std::process::exit(1);
    }
}

fn heal_json(heal: &HealReport) -> Json {
    let mut obj = Json::object();
    obj.set("healed", Json::UInt(heal.healed.len() as u64));
    obj.set("quarantined", Json::UInt(heal.quarantined.len() as u64));
    obj.set("attempts", Json::UInt(heal.attempts));
    obj.set("retries", Json::UInt(heal.retries));
    obj.set("backoff_ns", Json::UInt(heal.backoff_ns));
    obj.set("timeouts", Json::UInt(heal.timeouts));
    obj.set("already_healed", Json::UInt(heal.already_healed));
    obj
}

/// Runs the controller phase over a finished engine run: localize the
/// reported memberships, then heal through the (possibly fault-injected)
/// executor. Returns the sink and the heal outcome.
fn localize_and_heal(
    report: &EngineReport,
    ids: &[u32],
    sim: &mut Simulator<NullDetector>,
    plan: &FaultPlan,
) -> (ControllerSink, HealReport) {
    let mut sink = ControllerSink::new(Controller::new(ids));
    deliver(&report.aggregator.events, &mut sink);
    let mut healer = plan.healer();
    let mut sim_healer = SimHealer(sim);
    let mut flaky = FlakyHealer {
        inner: &mut sim_healer,
        fails: move || healer.attempt_fails(),
    };
    let heal = sink.controller.heal_all(HealPolicy::default(), &mut flaky);
    (sink, heal)
}

fn main() {
    let opts = parse_args();
    if (opts.replay.is_some() || opts.capture.is_some() || opts.events_out.is_some())
        && opts.fault_sweep.is_some()
    {
        eprintln!("unroller-engine: --replay/--capture/--events-out are single-run options");
        std::process::exit(2);
    }
    if opts.oracle && (opts.replay.is_some() || opts.fault_sweep.is_some()) {
        eprintln!("unroller-engine: --oracle applies to single-run synthetic traffic only");
        std::process::exit(2);
    }
    if opts.churn.is_some() && (opts.replay.is_some() || opts.oracle || opts.fault_sweep.is_some())
    {
        eprintln!(
            "unroller-engine: --churn is a single-run mode with its own live oracle \
             (no --replay/--oracle/--fault-sweep)"
        );
        std::process::exit(2);
    }

    let graph = generators::from_spec(&opts.topology).unwrap_or_else(|| {
        eprintln!(
            "unroller-engine: bad topology spec `{}` (try --help)",
            opts.topology
        );
        std::process::exit(2);
    });
    let n = graph.node_count();
    // A topology the traffic source cannot run on is a usage error:
    // churn needs a third node to reroute through, generated traffic
    // needs two endpoints.
    let min_nodes = match (&opts.churn, &opts.replay) {
        (Some(_), _) => 3,
        (None, None) => 2,
        (None, Some(_)) => 1,
    };
    if n < min_nodes {
        eprintln!(
            "unroller-engine: topology `{}` has {n} node(s); this mode needs at least {min_nodes}",
            opts.topology
        );
        std::process::exit(2);
    }
    let ids = assign_sequential_ids(n, 100);
    // Destination in the "middle" of the ID space; the injected cycle
    // avoids it by construction.
    let dst = n / 2;
    let injection = opts.loop_at.map(|at| {
        pick_injection(&graph, dst, at).unwrap_or_else(|| {
            eprintln!(
                "unroller-engine: topology `{}` has no link avoiding node {dst} to inject a loop on \
                 (try --no-loop)",
                opts.topology
            );
            std::process::exit(2);
        })
    });
    let run_meta = unroller_engine::RunMeta {
        run_id: opts.run_id.clone().unwrap_or_else(|| {
            unroller_engine::RunMeta::derived_run_id(&opts.topology, opts.seed, opts.epoch)
        }),
        seed: opts.seed,
        topology: opts.topology.clone(),
        nodes: n,
        flows: opts.flows,
        packets: opts.packets,
        shards: opts.shards,
        epoch: opts.epoch,
        id_base: 100,
        injection: injection.clone(),
    };

    let cfg = EngineConfig {
        shards: opts.shards,
        batch_size: opts.batch,
        ring_capacity: opts.ring,
        max_hops: opts.ttl,
        full_policy: opts.policy,
        snapshot_every: opts.snapshot_ms.map(Duration::from_millis),
        faults: opts.faults.clone(),
        shed: opts.shed,
        watchdog: opts.watchdog_ms.map(Duration::from_millis),
        memo: opts.memo.then_some(MemoConfig {
            sample_every: opts.memo_sample,
        }),
        ..EngineConfig::default()
    };

    // Each run gets a fresh simulator (injection mutates its tables)
    // and an identically-seeded source, so every configuration
    // processes the same traffic. The simulator is returned alongside
    // the source because the post-run heal phase repairs *it*.
    let build = || -> (Simulator<NullDetector>, ReplaySource) {
        let mut sim = Simulator::new(
            graph.clone(),
            ids.clone(),
            NullDetector,
            SimConfig::default(),
        );
        let source = ReplaySource::from_sim(
            &mut sim,
            opts.flows,
            opts.packets,
            injection.as_ref(),
            opts.seed,
        );
        (sim, source)
    };

    if let Some(multipliers) = &opts.fault_sweep {
        if !opts.faults.active() {
            eprintln!("unroller-engine: --fault-sweep needs an active --faults plan to scale");
            std::process::exit(2);
        }
        let mut runs = Vec::with_capacity(multipliers.len());
        let mut reports = Vec::with_capacity(multipliers.len());
        for &mult in multipliers {
            let plan = opts.faults.scaled(mult);
            let run_cfg = EngineConfig {
                faults: plan.clone(),
                ..cfg.clone()
            };
            let engine = Engine::new(run_cfg, &ids).unwrap_or_else(|e| {
                eprintln!("unroller-engine: {e}");
                std::process::exit(2);
            });
            let (mut sim, mut source) = build();
            let looping = source.looping_flow_keys();
            let report = engine.run(&mut source).unwrap_or_else(|e| {
                eprintln!("unroller-engine: run at multiplier {mult} failed: {e}");
                std::process::exit(1);
            });
            let (recall, hits) = detection_recall(&report, &looping);
            let (_, heal) = localize_and_heal(&report, &ids, &mut sim, &plan);
            eprintln!(
                "mult={mult:<4} recall={recall:.3} restarts={} panic_lost={} bitflips={} \
                 heal_attempts={} heal_backoff_ns={} quarantined={} accounted={}",
                report.restarts(),
                report.panic_lost(),
                report
                    .shard_snapshots
                    .iter()
                    .map(|s| s.bitflips_injected)
                    .sum::<u64>(),
                heal.attempts,
                heal.backoff_ns,
                heal.quarantined.len(),
                report.accounted(),
            );
            let mut row = Json::object();
            row.set("multiplier", Json::Float(mult));
            row.set("fault_plan", plan.to_json());
            row.set("looping_flows", Json::UInt(looping.len() as u64));
            row.set("detected_looping_flows", Json::UInt(hits as u64));
            row.set("recall", Json::Float(recall));
            row.set("restarts", Json::UInt(report.restarts()));
            row.set("panic_lost", Json::UInt(report.panic_lost()));
            row.set("shed", Json::UInt(report.shed()));
            row.set("accounted", Json::Bool(report.accounted()));
            row.set("wall_ns", Json::UInt(report.wall_ns));
            row.set("heal", heal_json(&heal));
            row.set("report", report.to_json());
            runs.push(row);
            reports.push((mult, report));
        }
        let mut sweep = Json::object();
        sweep.set("base_plan", opts.faults.to_json());
        sweep.set(
            "multipliers",
            Json::Array(multipliers.iter().map(|&m| Json::Float(m)).collect()),
        );
        sweep.set("runs", Json::Array(runs));
        let out = opts
            .out
            .clone()
            .unwrap_or_else(|| "results/engine_faults.json".to_string());
        write_report(&out, sweep.render_pretty().as_bytes());
        // Gated after writing, so a broken row can be inspected.
        for (mult, report) in &reports {
            let context = format!(" at multiplier {mult}");
            accounting_gate(report, &context);
            memo_gate(report, &context);
        }
    } else if let Some(plan) = opts.churn.clone() {
        // Live churn: the control plane fails and heals links while the
        // engine is processing, publishing each event's routes as a new
        // epoch-table generation. Recall is scored against the
        // ever-trapped flow set the live FwdChecker mirror accumulated.
        let mut cfg = cfg;
        cfg.events_log = opts
            .events_out
            .clone()
            .map(|path| unroller_engine::EventsLogConfig {
                path,
                meta: run_meta.clone(),
            });
        let engine = Engine::new(cfg, &ids).unwrap_or_else(|e| {
            eprintln!("unroller-engine: {e}");
            std::process::exit(2);
        });
        let mut source = ChurnSource::new(graph.clone(), &plan, opts.flows, opts.packets);
        let report = run_source(&engine, &mut source, opts.capture.as_deref());
        if let Some(path) = &opts.events_out {
            if let Some(err) = &report.event_log_error {
                eprintln!("unroller-engine: event log {path} truncated: {err}");
                std::process::exit(1);
            }
        }
        if let Err(e) = source.oracle_check() {
            eprintln!("unroller-engine: live oracle diverged from the control plane: {e}");
            std::process::exit(1);
        }
        let looping = source.looping_flow_keys();
        let (recall, hits) = detection_recall(&report, &looping);
        let loops_after_swap: u64 = report
            .shard_snapshots
            .iter()
            .map(|s| s.loops_after_swap)
            .sum();
        let swaps_observed: u64 = report
            .shard_snapshots
            .iter()
            .map(|s| s.route_swaps_observed)
            .sum();
        let mut latency = HistogramSnapshot::default();
        for snap in &report.shard_snapshots {
            latency.merge(&snap.detect_latency_ns);
        }
        eprintln!(
            "churn: {} generations over {} link failures ({} rule deltas, {} routes changed), \
             {} trapped flows, recall={recall:.3}, {} loops after swap",
            source.generations_published(),
            source.links_failed(),
            source.rules_applied(),
            source.routes_changed(),
            looping.len(),
            loops_after_swap,
        );
        let mut churn_section = Json::object();
        churn_section.set("plan", plan.to_json());
        churn_section.set(
            "generations_published",
            Json::UInt(source.generations_published()),
        );
        churn_section.set("rules_applied", Json::UInt(source.rules_applied()));
        churn_section.set("routes_changed", Json::UInt(source.routes_changed()));
        churn_section.set("links_failed", Json::UInt(source.links_failed()));
        churn_section.set("trapped_flows", Json::UInt(looping.len() as u64));
        churn_section.set("detected_trapped_flows", Json::UInt(hits as u64));
        churn_section.set("recall", Json::Float(recall));
        churn_section.set("loops_after_swap", Json::UInt(loops_after_swap));
        churn_section.set("route_swaps_observed", Json::UInt(swaps_observed));
        churn_section.set("detect_latency_ns", latency.to_json());
        churn_section.set("dv_round_ns", source.dv_round_ns().to_json());
        churn_section.set("update_publish_ns", source.update_publish_ns().to_json());
        let mut rendered = report.to_json();
        rendered.set("run_meta", run_meta.to_json());
        rendered.set("recall", Json::Float(recall));
        rendered.set("churn", churn_section);
        let rendered = rendered.render_pretty();
        println!("{rendered}");
        if let Some(out) = &opts.out {
            write_report(out, rendered.as_bytes());
        }
        accounting_gate(&report, "");
        memo_gate(&report, "");
        if opts.expect_loop && (!report.loop_detected() || loops_after_swap == 0) {
            eprintln!("unroller-engine: expected a loop detection on a post-swap generation");
            std::process::exit(1);
        }
    } else {
        // Stream the event log during the run (flushed per record) so
        // an aborted run still leaves a parseable log behind.
        let mut cfg = cfg;
        cfg.events_log = opts
            .events_out
            .clone()
            .map(|path| unroller_engine::EventsLogConfig {
                path,
                meta: run_meta.clone(),
            });
        let engine = Engine::new(cfg, &ids).unwrap_or_else(|e| {
            eprintln!("unroller-engine: {e}");
            std::process::exit(2);
        });
        // Traffic: either the simulator-routed generator or a pcap
        // capture whose frames are resolved against the same (possibly
        // loop-injected) routing state, then processed in their own
        // recorded bytes.
        let mut oracle: Option<(Json, Vec<FlowKey>, bool)> = None;
        let (mut sim, mut source, looping): (_, Box<dyn TrafficSource>, Vec<FlowKey>) =
            if let Some(path) = &opts.replay {
                let mut sim = Simulator::new(
                    graph.clone(),
                    ids.clone(),
                    NullDetector,
                    SimConfig::default(),
                );
                if let Some(inj) = &injection {
                    sim.inject_cycle(&inj.cycle, inj.dst);
                }
                let replay = PcapReplaySource::open(path, |src, dst| {
                    if src >= n || dst >= n {
                        return None;
                    }
                    let route = sim.route(src, dst);
                    if route.is_empty() {
                        None
                    } else {
                        Some(unroller_engine::PathSpec::from_route(&route))
                    }
                })
                .unwrap_or_else(|e| {
                    eprintln!("unroller-engine: cannot read {path}: {e}");
                    std::process::exit(2);
                })
                .unwrap_or_else(|e| {
                    eprintln!("unroller-engine: malformed capture {path}: {e}");
                    std::process::exit(2);
                });
                eprintln!(
                    "replaying {path}: {} packets, {} unattributable records skipped",
                    replay.packet_count(),
                    replay.skipped_frames(),
                );
                let looping = replay.looping_flow_keys();
                (sim, Box::new(replay), looping)
            } else {
                let (sim, source) = build();
                if opts.oracle {
                    oracle = Some(oracle_ground_truth(&graph, &sim, &source));
                }
                // With --oracle, recall's ground truth comes from the
                // static checker; otherwise from the recorded routes.
                let looping = match &oracle {
                    Some((_, keys, _)) => keys.clone(),
                    None => source.looping_flow_keys(),
                };
                (sim, Box::new(source), looping)
            };
        let report = run_source(&engine, &mut *source, opts.capture.as_deref());
        if let Some(path) = &opts.events_out {
            if let Some(err) = &report.event_log_error {
                eprintln!("unroller-engine: event log {path} truncated: {err}");
                std::process::exit(1);
            }
            let written = report.events_logged.unwrap_or(0);
            eprintln!("wrote {path} ({written} loop events, streamed)");
        }
        let (recall, _) = detection_recall(&report, &looping);
        let (sink, heal) = localize_and_heal(&report, &ids, &mut sim, &opts.faults);
        let mut rendered = report.to_json();
        rendered.set("run_meta", run_meta.to_json());
        rendered.set("recall", Json::Float(recall));
        if let Some((section, _, _)) = &oracle {
            rendered.set("oracle", section.clone());
        }
        let mut controller = Json::object();
        controller.set(
            "localized_loops",
            Json::UInt(sink.controller.localized_loops().len() as u64),
        );
        controller.set("total_reports", Json::UInt(sink.controller.total_reports()));
        controller.set("incomplete_reports", Json::UInt(sink.incomplete));
        controller.set("heal", heal_json(&heal));
        rendered.set("controller", controller);
        let rendered = rendered.render_pretty();
        println!("{rendered}");
        if let Some(out) = &opts.out {
            write_report(out, rendered.as_bytes());
        }
        accounting_gate(&report, "");
        memo_gate(&report, "");
        if let Some((_, _, agrees)) = &oracle {
            if !agrees {
                eprintln!("unroller-engine: oracle ground truth disagrees with recorded routes");
                std::process::exit(1);
            }
        }
        if opts.expect_loop && !report.loop_detected() {
            eprintln!("unroller-engine: expected a loop detection");
            std::process::exit(1);
        }
    }
}
