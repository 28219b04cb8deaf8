//! The live-churn benchmark: detection recall and detection latency
//! versus update-storm rate.
//!
//! Workload: the sharded engine processes a fixed packet stream while a
//! distance-vector control plane fails and heals links underneath it
//! (see `unroller-engine`'s `ChurnSource`). Each recompiled route set
//! is published as a new epoch-table generation and swapped under the
//! workers mid-traffic, so count-to-infinity micro-loops form and heal
//! *while frames are in flight*. The storm is replayed at several rates
//! (control-plane events per million packets); per rate the benchmark
//! reports
//!
//! * `recall` — detected trapped flows over the ever-trapped flow set
//!   the live [`FwdChecker`] oracle accumulated (must be 1.0: the
//!   engine asserts the oracle mirror stayed bit-for-bit in sync with
//!   the authoritative columns, so a miss is a real miss);
//! * `detect_latency_ns` — swap-publish → first loop event on that
//!   generation, per (shard, generation), merged across shards;
//! * realized control-plane throughput (rule deltas and generations
//!   published per second of wall time), the route slots those
//!   generations changed, and each event's two parts: the DV round
//!   (`dv_round_ns`) and the update from deltas to a published
//!   generation (`update_publish_ns`).
//!
//! Output is JSON (schema in `results/README.md`):
//!
//! ```text
//! cargo bench -p unroller-bench --bench churn -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the stream for CI; the committed baseline
//! `results/BENCH_churn.json` is a full run (1M packets per rate).

use unroller_engine::{
    ChurnPlan, ChurnSource, Engine, EngineConfig, FullPolicy, HistogramSnapshot, Json,
};
use unroller_topology::generators::ring;

struct RateRun {
    row: Json,
    recall: f64,
    latency: Option<HistogramSnapshot>,
}

/// One full engine run at `rate` events per million packets.
fn run_rate(rate: u64, packets: u64, flows: usize, seed: u64) -> RateRun {
    let plan = ChurnPlan {
        rate,
        seed,
        links: 3,
    };
    let graph = ring(16);
    let ids: Vec<u32> = (0..16).map(|i| 100 + i).collect();
    let mut source = ChurnSource::new(graph, &plan, flows, packets);
    let table = source.table();
    // Block (not drop) on full rings: recall is only meaningful if
    // every offered packet is actually processed. A small ring keeps
    // the in-flight backlog well under one churn interval, so packets
    // emitted while a flow is trapped are processed while it still is.
    let engine = Engine::new(
        EngineConfig {
            shards: 2,
            ring_capacity: 256,
            full_policy: FullPolicy::Block,
            ..EngineConfig::default()
        },
        &ids,
    )
    .expect("engine config");
    let report = engine.run(&mut source).expect("churn run completes");
    assert!(report.accounted(), "accounting must hold");
    source
        .oracle_check()
        .expect("live oracle must match the control plane");

    let trapped = source.looping_flow_keys();
    let detected: std::collections::HashSet<_> =
        report.aggregator.events.iter().map(|e| e.flow).collect();
    let hits = trapped.iter().filter(|f| detected.contains(f)).count();
    let recall = if trapped.is_empty() {
        1.0
    } else {
        hits as f64 / trapped.len() as f64
    };

    let loops_after_swap: u64 = report
        .shard_snapshots
        .iter()
        .map(|s| s.loops_after_swap)
        .sum();
    let mut latency: Option<HistogramSnapshot> = None;
    for snap in &report.shard_snapshots {
        match &mut latency {
            None => latency = Some(snap.detect_latency_ns.clone()),
            Some(merged) => merged.merge(&snap.detect_latency_ns),
        }
    }

    let wall_s = report.wall_ns as f64 / 1e9;
    let mut row = Json::object();
    row.set("rate_per_million", Json::UInt(rate));
    row.set("interval_packets", Json::UInt(plan.interval()));
    row.set("packets", Json::UInt(packets));
    row.set("wall_ns", Json::UInt(report.wall_ns));
    row.set("pps", Json::Float(packets as f64 / wall_s));
    row.set(
        "generations_published",
        Json::UInt(source.generations_published()),
    );
    row.set("rules_applied", Json::UInt(source.rules_applied()));
    row.set(
        "updates_per_sec_realized",
        Json::Float(source.rules_applied() as f64 / wall_s),
    );
    row.set("routes_changed", Json::UInt(source.routes_changed()));
    row.set("links_failed", Json::UInt(source.links_failed()));
    row.set("trapped_flows", Json::UInt(trapped.len() as u64));
    row.set("detected_trapped_flows", Json::UInt(hits as u64));
    row.set("recall", Json::Float(recall));
    row.set("loops_after_swap", Json::UInt(loops_after_swap));
    row.set("generations_reclaimed", Json::UInt(table.reclaimed()));
    if let Some(l) = &latency {
        row.set("detect_latency_ns", l.to_json());
    }
    row.set("dv_round_ns", source.dv_round_ns().to_json());
    row.set("update_publish_ns", source.update_publish_ns().to_json());
    RateRun {
        row,
        recall,
        latency,
    }
}

fn main() {
    let mut quick = false;
    let mut out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_churn.json"
    )
    .to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("churn: --out requires an argument");
                    std::process::exit(2);
                })
            }
            "--bench" | "--test" => {}
            other => {
                eprintln!("churn: unknown argument `{other}` (--quick, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let (packets, rates): (u64, &[u64]) = if quick {
        (150_000, &[200, 800])
    } else {
        (1_000_000, &[100, 400, 1000])
    };
    let flows = 32;

    let mut rows = Vec::new();
    let mut recall_min = 1.0f64;
    for &rate in rates {
        eprintln!("churn: rate {rate}/Mpkt over {packets} packets...");
        let run = run_rate(rate, packets, flows, 7);
        let (count, mean, p99) = run
            .latency
            .as_ref()
            .map(|l| (l.count, l.mean(), l.quantile_bound(0.99)))
            .unwrap_or((0, 0.0, 0));
        eprintln!(
            "  recall={:.3} detect_latency mean={:.0}ns p99<={}ns over {} generations",
            run.recall, mean, p99, count,
        );
        recall_min = recall_min.min(run.recall);
        rows.push(run.row);
    }

    let mut config = Json::object();
    config.set("topology", Json::Str("ring:16".to_string()));
    config.set("flows", Json::UInt(flows as u64));
    config.set("shards", Json::UInt(2));
    config.set("ring_capacity", Json::UInt(256));
    config.set("policy", Json::Str("block".to_string()));
    config.set("links", Json::UInt(3));
    config.set("seed", Json::UInt(7));

    let mut summary = Json::object();
    summary.set("recall_min", Json::Float(recall_min));

    let mut root = Json::object();
    root.set("bench", Json::Str("churn".to_string()));
    root.set("quick", Json::Bool(quick));
    root.set("config", config);
    root.set("rates", Json::Array(rows));
    root.set("summary", summary);
    let rendered = root.render_pretty();

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, &rendered).expect("write benchmark output");
    eprintln!("wrote {out}");
    assert!(
        recall_min >= 1.0,
        "live-churn recall degraded: {recall_min}"
    );
    eprintln!("churn: recall 1.0 at every rate");
}
