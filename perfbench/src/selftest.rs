//! Self-tests: tiny instances of every workload, run through the same
//! code as the benchmark.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use crate::gate::{self, Counts};
use crate::run::{self, run_once};
use crate::trace;
use crate::workload::{self, Truth, Workload};
use unroller_engine::FlowKey;

const SEED: u64 = 5;

/// Each workload at a size that runs in well under a second per run.
/// Churn needs enough packets for every schedule to trap a flow.
fn tiny_workloads() -> Vec<Workload> {
    workload::all()
        .into_iter()
        .map(|w| {
            let packets = if w.churn.is_some() { 200_000 } else { 20_000 };
            w.with_packets(packets)
        })
        .collect()
}

/// `(name, unit)` of every metric listed under `section` of the
/// repository's `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &text[start..];
    let end = body.find(']').expect("the section is a list");
    let body = &body[..end];
    let strings = |key: &str| -> Vec<String> {
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| {
                let value = rest.split('"').nth(1).expect("a quoted value");
                value.to_string()
            })
            .collect()
    };
    let names = strings("name");
    let units = strings("unit");
    assert_eq!(names.len(), units.len(), "every metric has a unit");
    names.into_iter().zip(units).collect()
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let wanted = declared(section);
        assert!(!wanted.is_empty());
        for w in tiny_workloads() {
            let outcome = run::benchmark(&w, SEED, 0.001, traced, None);
            assert!(
                outcome.correct(),
                "{} (trace {traced}) failed its gate",
                w.name
            );
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, wanted, "{} (trace {traced})", w.name);
            let line = outcome.result_line();
            assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
            for (name, unit) in &wanted {
                let entry = format!("\"{name}\":{{\"value\":");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let rest = &line[at..];
                let close = rest.find('}').expect("entry closes");
                assert!(
                    rest[..close].ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{name} printed without unit {unit}: {}",
                    &rest[..close]
                );
            }
        }
    }
}

#[test]
fn gate_trips_on_tampered_ground_truth() {
    for w in tiny_workloads() {
        let (inputs, static_truth) = w.build_with_truth(SEED);
        let static_truth: Option<Truth> = static_truth.map(|t| t.expect("ground truth"));
        let mut source = inputs.source;
        let report = inputs.engine.run(&mut source).expect("engine runs");
        let truth = source
            .truth_after_run(static_truth.as_ref())
            .expect("ground truth after the run");
        gate::check_run(&report, &truth).expect("an untampered run passes");

        let mut missing = truth.clone();
        let dropped = *missing.iter().next().expect("some flow loops");
        missing.remove(&dropped);
        let mut extra = truth.clone();
        extra.insert(FlowKey::synthetic(0, 1, u32::MAX));
        for tampered in [&missing, &extra] {
            assert!(
                gate::check_run(&report, tampered).is_err(),
                "{}: the gate passed a tampered truth",
                w.name
            );
        }

        // The timed path applies the same gate: a static run checked
        // against a tampered truth is a failed run.
        if static_truth.is_some() {
            for tampered in [&missing, &extra] {
                assert!(run_once(w.build(SEED), Some(tampered), false, 0).is_err());
            }
        }
    }
}

#[test]
fn replay_check_trips_on_tampered_count() {
    for w in tiny_workloads() {
        let is_static = w.churn.is_none();
        let inputs = w.build(SEED);
        let mut source = inputs.source;
        let report = inputs.engine.run(&mut source).expect("engine runs");
        let timed = Counts::from_report(&report);
        let replay = trace::replay(&w, SEED);
        gate::check_replay(&timed, &replay.counts, is_static)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let mut tampered = replay.counts;
        tampered.processed += 1;
        assert!(gate::check_replay(&timed, &tampered, is_static).is_err());
        if is_static {
            let fields: [fn(&mut Counts) -> &mut u64; 9] = [
                |c| &mut c.delivered,
                |c| &mut c.loop_events,
                |c| &mut c.ttl_dropped,
                |c| &mut c.route_errors,
                |c| &mut c.hops,
                |c| &mut c.memo_hits,
                |c| &mut c.memo_misses,
                |c| &mut c.memo_sampled,
                |c| &mut c.swaps_observed,
            ];
            for field in fields {
                let mut tampered = replay.counts;
                *field(&mut tampered) += 1;
                assert!(
                    gate::check_replay(&timed, &tampered, true).is_err(),
                    "{}: a tampered count passed",
                    w.name
                );
            }
        }
    }
}
