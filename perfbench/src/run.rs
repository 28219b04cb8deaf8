//! One benchmark invocation: timed engine runs, the optional traced
//! pass, the correctness gate on every run, and the metrics.

use crate::gate::{self, Counts};
use crate::measure::{busy_threads, host_steal_ns, median, process_usage};
use crate::trace::{self, FillSpan, Layer, TimedSource};
use crate::workload::{schedule_seed, Inputs, Source, Truth, Workload, SHARDS};
use std::path::Path;
use std::time::Instant;
use unroller_engine::metrics::thread_cpu_ns;
use unroller_engine::{HistogramSnapshot, Json};

/// Timed runs always made, however short `--seconds` is.
const MIN_RUNS: usize = 5;
/// Traced engine runs behind the timing source decorator.
const TRACED_RUNS: usize = 3;
/// Share of the timed runs, the fastest, that the timings come from.
const FASTEST_SHARE: f64 = 0.1;
/// The fewest runs the timings come from.
const MIN_FASTEST: usize = 3;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed there.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What an invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Engine runs and replays attempted.
    pub attempted: u64,
    /// Of those, the ones that failed the correctness gate.
    pub failed: u64,
    /// The metrics (end-to-end or per-layer, by `--trace`).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn fail(&mut self, what: &str, err: String) {
        eprintln!("perfbench: {what} failed the correctness gate: {err}");
        self.failed += 1;
    }

    /// Every attempt passed the gate and there is something to report.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The result object, rendered as one line.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let mut entry = Json::object();
            entry.set("value", Json::Float(m.value));
            entry.set("unit", Json::Str(m.unit.to_string()));
            metrics.set(m.name, entry);
        }
        let mut root = Json::object();
        root.set("correct", Json::Bool(self.correct()));
        root.set("attempted", Json::UInt(self.attempted));
        root.set("failed", Json::UInt(self.failed));
        root.set("metrics", metrics);
        root.render()
    }
}

/// One gated engine run's numbers.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    /// The input set the run drew (see [`Workload::schedules`]).
    schedule: usize,
    setup_ns: u64,
    wall_ns: u64,
    offered: u64,
    /// CPU time the hypervisor took from this machine during the run.
    steal_ns: u64,
    process_cpu_ns: u64,
    dispatcher_cpu_ns: u64,
    worker_cpu_ns: u64,
    worker_busy_ns: u64,
    worker_wait_ns: u64,
    stalls: u64,
    batches: u64,
    events_received: u64,
    unique_flows: u64,
    latency: HistogramSnapshot,
    latency_ns: f64,
    detect_hops_mean: f64,
    recall: f64,
    counts: Counts,
    fills: Vec<FillSpan>,
}

impl Sample {
    fn per_packet(&self, value: f64) -> f64 {
        value / self.counts.processed as f64
    }

    /// Processed ÷ offered: `1 - loss_ratio`, so it is never zero.
    fn processed_ratio(&self) -> f64 {
        self.counts.processed as f64 / self.offered.max(1) as f64
    }

    fn throughput_pps(&self) -> f64 {
        self.counts.processed as f64 * 1e9 / self.wall_ns as f64
    }

    /// Share of the busy threads' CPU time that the hypervisor gave to
    /// other guests during the run.
    fn steal_share(&self) -> f64 {
        self.steal_ns as f64 / (self.wall_ns as f64 * busy_threads(SHARDS) as f64)
    }
}

/// Runs the engine once on `inputs` and gates the result.
pub(crate) fn run_once(
    inputs: Inputs,
    static_truth: Option<&Truth>,
    traced: bool,
    expected_fills: usize,
) -> Result<Sample, String> {
    let Inputs {
        engine,
        mut source,
        setup_ns,
        ..
    } = inputs;
    let steal_before = host_steal_ns();
    let before = process_usage();
    let dispatcher_before = thread_cpu_ns();
    let (report, fills) = if traced {
        let mut timed = TimedSource::new(&mut source, expected_fills);
        let report = engine.run(&mut timed);
        (report, timed.fills)
    } else {
        (engine.run(&mut source), Vec::new())
    };
    let dispatcher_after = thread_cpu_ns();
    let after = process_usage();
    let steal_after = host_steal_ns();
    let report = report.map_err(|e| e.to_string())?;
    let truth = source.truth_after_run(static_truth)?;
    gate::check_run(&report, &truth)?;

    let mut latency = HistogramSnapshot::default();
    for (i, shard) in report.shard_snapshots.iter().enumerate() {
        if i == 0 {
            latency = shard.detect_latency_ns.clone();
        } else {
            latency.merge(&shard.detect_latency_ns);
        }
    }
    let latency_ns = match &source {
        Source::Static(s) => {
            if latency.count != 1 {
                return Err(format!(
                    "expected one injection latency sample, got {}",
                    latency.count
                ));
            }
            s.injection_latency_ns(latency.sum)
                .ok_or("detection precedes the loop injection")? as f64
        }
        Source::Churn(_) => {
            if latency.count == 0 {
                return Err("no swap-to-detection latency sample".to_string());
            }
            latency.mean()
        }
    };
    let events = &report.aggregator.events;
    let shard = |f: fn(&unroller_engine::ShardSnapshot) -> u64| {
        report.shard_snapshots.iter().map(f).sum::<u64>()
    };
    Ok(Sample {
        schedule: 0,
        setup_ns,
        wall_ns: report.wall_ns,
        offered: report.offered,
        steal_ns: match (steal_before, steal_after) {
            (Some(b), Some(a)) => a - b,
            _ => 0,
        },
        process_cpu_ns: after.cpu_ns - before.cpu_ns,
        dispatcher_cpu_ns: match (dispatcher_before, dispatcher_after) {
            (Some(b), Some(a)) => a - b,
            _ => 0,
        },
        worker_cpu_ns: shard(|s| s.cpu_ns),
        worker_busy_ns: shard(|s| s.proc_ns.sum),
        worker_wait_ns: shard(|s| s.wait_ns.sum),
        stalls: report.ring_snapshots.iter().map(|r| r.stalls).sum(),
        batches: shard(|s| s.batches),
        events_received: report.aggregator.events_received,
        unique_flows: report.aggregator.unique_flows,
        latency,
        latency_ns,
        detect_hops_mean: events.iter().map(|e| e.hop as f64).sum::<f64>()
            / events.len().max(1) as f64,
        recall: gate::recall(events, &truth),
        counts: Counts::from_report(&report),
        fills,
    })
}

/// How many of `n` samples a timing comes from: the fastest tenth, at
/// least [`MIN_FASTEST`], at most all of them.
fn fastest_count(n: usize) -> usize {
    ((n as f64 * FASTEST_SHARE).ceil() as usize)
        .max(MIN_FASTEST)
        .min(n)
}

/// Median over samples of `f`.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Runs the benchmark for one workload and seed.
pub fn benchmark(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_path: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let expected_fills = workload.packets as usize / crate::workload::BATCH + 2;
    // Ground truth per input set (static sets know theirs up front);
    // set 0's inputs then serve as the warm-up run.
    let mut truths: Vec<Option<Truth>> = Vec::with_capacity(workload.schedules);
    let mut warm_up = None;
    for k in 0..workload.schedules {
        let (inputs, truth) = workload.build_with_truth(schedule_seed(seed, k));
        match truth.transpose() {
            Ok(truth) => truths.push(truth),
            Err(e) => {
                out.attempted += 1;
                out.fail("ground truth", e);
                return out;
            }
        }
        warm_up.get_or_insert(inputs);
    }
    // Warm-up: gated like any run, not measured.
    out.attempted += 1;
    if let Some(inputs) = warm_up {
        if let Err(e) = run_once(inputs, truths[0].as_ref(), false, 0) {
            out.fail("warm-up run", e);
        }
    }

    // Runs cycle through the workload's input sets and end on a whole
    // cycle, so each set weighs the same.
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut runs = 0usize;
    while runs < MIN_RUNS
        || start.elapsed().as_secs_f64() < seconds
        || !runs.is_multiple_of(workload.schedules)
    {
        let schedule = runs % workload.schedules;
        let inputs = workload.build(schedule_seed(seed, schedule));
        runs += 1;
        out.attempted += 1;
        match run_once(inputs, truths[schedule].as_ref(), false, 0) {
            Ok(s) => samples.push(Sample { schedule, ..s }),
            Err(e) => out.fail("timed run", e),
        }
    }
    if samples.is_empty() {
        return out;
    }
    // Static traffic makes every count a pure function of the inputs:
    // each run must repeat the first run of its input set exactly.
    if workload.churn.is_none() {
        for s in &samples {
            let first = samples
                .iter()
                .find(|f| f.schedule == s.schedule)
                .expect("s itself");
            if s.counts != first.counts {
                out.fail(
                    "determinism check",
                    format!("{:?} vs {:?}", s.counts, first.counts),
                );
                break;
            }
        }
    }
    let peak_rss_mb = process_usage().max_rss_kib as f64 / 1024.0;
    print_runs(workload, seed, &samples);

    if !traced {
        // Timings are medians over the fastest tenth of their samples.
        // Other guests on a shared host only ever slow the code down, and
        // they come and go for seconds at a time: a median over every run
        // jumps between the disturbed and the undisturbed level, while the
        // fastest runs measure the code.
        let mut fastest: Vec<Sample> = samples.clone();
        fastest.sort_by(|a, b| b.throughput_pps().total_cmp(&a.throughput_pps()));
        fastest.truncate(fastest_count(samples.len()));
        // Set-up samples are spread over the whole invocation, one per
        // run, so that some of them fall where the host left it alone.
        let mut setup_ns: Vec<f64> = samples.iter().map(|s| s.setup_ns as f64).collect();
        setup_ns.sort_by(f64::total_cmp);
        setup_ns.truncate(fastest_count(samples.len()));
        eprintln!(
            "timings from the fastest {} of {} runs",
            fastest.len(),
            samples.len()
        );
        let m = &mut out.metrics;
        let mut push = |name, unit, value| m.push(Metric { name, unit, value });
        push(
            "throughput_pps",
            "packets/s",
            med(&fastest, Sample::throughput_pps),
        );
        push(
            "cpu_ns_per_packet",
            "ns",
            med(&fastest, |s| s.per_packet(s.process_cpu_ns as f64)),
        );
        push(
            "detect_latency_us_mean",
            "us",
            med(&fastest, |s| s.latency_ns / 1e3),
        );
        push(
            "detect_hops_mean",
            "hops",
            med(&samples, |s| s.detect_hops_mean),
        );
        push("recall", "ratio", med(&samples, |s| s.recall));
        push(
            "processed_ratio",
            "ratio",
            med(&samples, Sample::processed_ratio),
        );
        push("setup_s", "s", median(&setup_ns) / 1e9);
        push("peak_rss_mb", "MB", peak_rss_mb);
        print_metrics(&out.metrics);
        return out;
    }

    layer_metrics(
        &mut out,
        workload,
        seed,
        &samples,
        truths[0].as_ref(),
        expected_fills,
        spans_path,
    );
    print_metrics(&out.metrics);
    out
}

/// The traced pass and every per-layer metric.
fn layer_metrics(
    out: &mut Outcome,
    workload: &Workload,
    seed: u64,
    samples: &[Sample],
    static_truth: Option<&Truth>,
    expected_fills: usize,
    spans_path: Option<&Path>,
) {
    let churn = workload.churn.is_some();
    // The traced pass and the replay run input set 0; they are compared
    // with the timed runs of that set.
    let set0: Vec<Sample> = samples
        .iter()
        .filter(|s| s.schedule == 0)
        .cloned()
        .collect();
    if set0.is_empty() {
        out.fail(
            "traced pass",
            "no timed run of input set 0 passed".to_string(),
        );
        return;
    }
    // Part 1: the real engine behind the timing source decorator.
    let mut traced: Vec<Sample> = Vec::new();
    for _ in 0..TRACED_RUNS {
        out.attempted += 1;
        match run_once(workload.build(seed), static_truth, true, expected_fills) {
            Ok(s) => traced.push(s),
            Err(e) => out.fail("traced run", e),
        }
    }
    // Part 2: the single-threaded layer replay.
    out.attempted += 1;
    let replay = trace::replay(workload, seed);
    let replay_truth = replay.source.truth_after_run(static_truth);
    let replay_gate = replay_truth
        .and_then(|truth| gate::check_detections(&replay.events, &truth))
        .and_then(|()| match replay.memo_divergence {
            0 => Ok(()),
            n => Err(format!("{n} memoized verdicts diverged in the replay")),
        })
        .and_then(|()| gate::check_replay(&set0[0].counts, &replay.counts, !churn));
    if let Err(e) = replay_gate {
        out.fail("layer replay", e);
    }
    if let Some(path) = spans_path {
        match replay.write_spans(path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                replay.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    if traced.is_empty() {
        return;
    }

    let m = &mut out.metrics;
    let mut push = |name, unit, value| m.push(Metric { name, unit, value });
    // Counters the engine already keeps, from the untraced timed runs.
    push(
        "dispatcher.cpu_ns_per_packet",
        "ns",
        med(samples, |s| s.per_packet(s.dispatcher_cpu_ns as f64)),
    );
    push(
        "worker.cpu_ns_per_packet",
        "ns",
        med(samples, |s| s.per_packet(s.worker_cpu_ns as f64)),
    );
    push(
        "worker.busy_ns_per_packet",
        "ns",
        med(samples, |s| s.per_packet(s.worker_busy_ns as f64)),
    );
    push(
        "worker.wait_ns_per_packet",
        "ns",
        med(samples, |s| s.per_packet(s.worker_wait_ns as f64)),
    );
    push(
        "aggregate.cpu_ns_per_packet",
        "ns",
        med(samples, |s| {
            s.per_packet(
                s.process_cpu_ns as f64 - s.dispatcher_cpu_ns as f64 - s.worker_cpu_ns as f64,
            )
        }),
    );
    push(
        "ring.stalls_per_mpkt",
        "1/Mpkt",
        med(samples, |s| s.per_packet(s.stalls as f64 * 1e6)),
    );
    push(
        "ring.batch_mean",
        "packets",
        med(samples, |s| {
            s.counts.processed as f64 / s.batches.max(1) as f64
        }),
    );
    push(
        "memo.hit_ratio",
        "ratio",
        med(samples, |s| {
            let c = &s.counts;
            c.memo_hits as f64 / (c.memo_hits + c.memo_misses).max(1) as f64
        }),
    );
    push(
        "memo.misses_per_generation",
        "count",
        med(samples, |s| {
            s.counts.memo_misses as f64 / s.counts.swaps_observed.max(1) as f64
        }),
    );
    push(
        "dataplane.hops_per_packet",
        "hops",
        med(samples, |s| s.per_packet(s.counts.hops as f64)),
    );
    push(
        "epoch.swaps_observed",
        "count",
        med(samples, |s| s.counts.swaps_observed as f64),
    );
    push(
        "aggregate.events_per_kpkt",
        "1/kpkt",
        med(samples, |s| s.per_packet(s.events_received as f64 * 1e3)),
    );
    push(
        "aggregate.dup_ratio",
        "ratio",
        med(samples, |s| {
            (s.events_received - s.unique_flows) as f64 / s.events_received.max(1) as f64
        }),
    );

    // Part 1: the dispatcher's source, timed inside the real engine.
    let splits: Vec<trace::FillSplit> = traced
        .iter()
        .map(|s| trace::split_fills(&s.fills, churn))
        .collect();
    let fill_ns_per_packet = median(
        &splits
            .iter()
            .map(|f| f.fill_ns as f64 / f.packets.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let advance_ns_per_packet = median(
        &splits
            .iter()
            .map(|f| f.advance_ns as f64 / f.packets.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let advance_us = median(
        &splits
            .iter()
            .map(|f| f.advance_ns as f64 / 1e3 / f.advances.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    push("source.fill_ns_per_packet", "ns", fill_ns_per_packet);
    push("churn.advance_us_per_generation", "us", advance_us);

    // Part 2: the replay's per-layer self times.
    let packets = replay.counts.processed.max(1) as f64;
    let per_packet = |layer| replay.layer_ns(layer) as f64 / packets;
    let walked_hops: u64 = replay.walked_hops;
    let mut layers: Vec<(&str, f64)> = vec![
        ("source.fill", fill_ns_per_packet),
        ("churn.advance", advance_ns_per_packet),
    ];
    for layer in [
        Layer::Shard,
        Layer::Push,
        Layer::Recv,
        Layer::Refresh,
        Layer::MemoLookup,
        Layer::Walk,
        Layer::MemoRecord,
        Layer::Settle,
        Layer::Aggregate,
    ] {
        layers.push((layer.name(), per_packet(layer)));
    }
    push("flow.shard_ns_per_packet", "ns", per_packet(Layer::Shard));
    push("ring.push_ns_per_packet", "ns", per_packet(Layer::Push));
    push("ring.recv_ns_per_packet", "ns", per_packet(Layer::Recv));
    push(
        "epoch.refresh_ns_per_batch",
        "ns",
        replay.layer_ns(Layer::Refresh) as f64 / replay.span_count(Layer::Refresh).max(1) as f64,
    );
    push(
        "memo.lookup_ns_per_packet",
        "ns",
        per_packet(Layer::MemoLookup),
    );
    push(
        "memo.record_ns_per_miss",
        "ns",
        replay.layer_ns(Layer::MemoRecord) as f64 / replay.counts.memo_misses.max(1) as f64,
    );
    push(
        "dataplane.hop_ns",
        "ns",
        replay.layer_ns(Layer::Walk) as f64 / walked_hops.max(1) as f64,
    );
    push(
        "dataplane.walk_ns_per_packet",
        "ns",
        per_packet(Layer::Walk),
    );
    push(
        "worker.settle_ns_per_packet",
        "ns",
        per_packet(Layer::Settle),
    );
    push(
        "aggregate.ns_per_event",
        "ns",
        replay.layer_ns(Layer::Aggregate) as f64 / replay.events_received.max(1) as f64,
    );
    let layer_sum: f64 = layers.iter().map(|(_, ns)| ns).sum();
    let cpu_ns_per_packet = med(&set0, |s| s.per_packet(s.process_cpu_ns as f64));
    push("trace.layer_sum_ns_per_packet", "ns", layer_sum);
    push(
        "trace.unaccounted_ns_per_packet",
        "ns",
        cpu_ns_per_packet - layer_sum,
    );
    push(
        "trace.overhead_ratio",
        "ratio",
        med(&set0, Sample::throughput_pps) / med(&traced, Sample::throughput_pps),
    );

    eprintln!(
        "layers ({}, seed {seed}; source.fill and churn.advance timed inside the engine, the rest \
         by the single-threaded replay of {} packets in {:.3} s):",
        workload.name,
        replay.counts.processed,
        replay.wall_ns as f64 / 1e9
    );
    let mut sorted = layers.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in &sorted {
        eprintln!(
            "  {name:<16} {ns:>9.1} ns/packet  {:>5.1}%",
            100.0 * ns / layer_sum.max(f64::MIN_POSITIVE)
        );
    }
    eprintln!(
        "  {:<16} {layer_sum:>9.1} ns/packet  vs {cpu_ns_per_packet:.1} ns/packet process CPU \
         in the timed runs",
        "sum"
    );
    eprintln!("dominant layer: {}", sorted[0].0);
    // The same layers grouped by the engine thread that runs them.
    let side = |names: &[&str]| -> f64 {
        layers
            .iter()
            .filter(|(name, _)| names.contains(name))
            .map(|(_, ns)| ns)
            .sum()
    };
    let dispatcher = side(&["source.fill", "churn.advance", "flow.shard", "ring.push"]);
    let aggregator = side(&["aggregate"]);
    eprintln!(
        "by thread: dispatcher {dispatcher:.1}, worker {:.1}, aggregator {aggregator:.1} ns/packet",
        layer_sum - dispatcher - aggregator
    );
}

/// One line per timed run, then the spread, on stderr.
fn print_runs(workload: &Workload, seed: u64, samples: &[Sample]) {
    eprintln!(
        "{} seed {seed}: {} timed runs of {} packets",
        workload.name,
        samples.len(),
        workload.packets
    );
    for s in samples {
        eprintln!(
            "  setup {:>6.2} ms  {:>12.0} pps  {:>7.1} ns/pkt cpu  latency {:>9.1} us (n={}, p50<={} ns, p99<={} ns)  \
             hops {:>6.2}  loops {}  loss_ratio {}  steal {:.2}%",
            s.setup_ns as f64 / 1e6,
            s.throughput_pps(),
            s.per_packet(s.process_cpu_ns as f64),
            s.latency_ns / 1e3,
            s.latency.count,
            s.latency.quantile_bound(0.5),
            s.latency.quantile_bound(0.99),
            s.detect_hops_mean,
            s.unique_flows,
            1.0 - s.processed_ratio(),
            100.0 * s.steal_share(),
        );
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}
