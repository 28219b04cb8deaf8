//! The `--faults` and `--churn` spec grammars on untrusted input.
//!
//! [`FaultPlan::parse`] and [`ChurnPlan::parse`] must return a plan or
//! their typed error — never panic — on arbitrary strings and on
//! mutations of valid specs: truncation, repeated keys, empty values,
//! stray `:` or `=`, and numbers past `u64::MAX`. A plan they do return
//! keeps the grammar's ranges: fault rates in `[0, 1]`, churn `rate` and
//! `links` at least 1.

use proptest::prelude::*;
use unroller_engine::churn::ChurnSpecError;
use unroller_engine::{ChurnPlan, FaultPlan, FaultSpecError};

/// Pieces arbitrary strings are built from: every key, the grammar's
/// separators, number fragments and strings that parse to odd floats.
/// Any other character comes from a random scalar value.
const PIECES: &[&str] = &[
    "seed",
    "panic",
    "bitflip",
    "stall",
    "evdrop",
    "evdup",
    "healfail",
    "restarts",
    "wdpanic",
    "rate",
    "links",
    "=",
    "=",
    ",",
    ",",
    ":",
    ".",
    "e",
    "-",
    "+",
    " ",
    "0",
    "1",
    "7",
    "0.5",
    "1e400",
    "NaN",
    "inf",
    "18446744073709551616",
    "é",
    "∞",
    "\t",
];

/// A number one past `u64::MAX`, followed by up to three more digits.
fn past_u64_max(extra: u64) -> String {
    let digits = extra.to_string();
    format!("18446744073709551616{}", &digits[..digits.len().min(3)])
}

/// A string of `PIECES` and random characters.
fn arbitrary_spec(picks: &[(usize, u32)]) -> String {
    picks
        .iter()
        .map(|&(i, raw)| match PIECES.get(i) {
            Some(piece) => piece.to_string(),
            None => char::from_u32(raw % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
        })
        .collect()
}

/// A well-formed `--faults` spec: a random subset of the keys with
/// in-range values, one `key=value` part each.
fn valid_fault_parts(raw: &[u64]) -> Vec<String> {
    let rate = |r: u64| format!("{}", (r % 1001) as f64 / 1000.0);
    let mut parts = Vec::new();
    for (key, &r) in [
        "seed", "panic", "bitflip", "stall", "evdrop", "evdup", "healfail", "restarts", "wdpanic",
    ]
    .iter()
    .zip(raw)
    {
        if r % 3 == 0 {
            continue;
        }
        let value = match *key {
            "seed" | "restarts" => (r >> 2).to_string(),
            "stall" if r % 2 == 0 => format!("{}:{}", rate(r >> 3), r >> 40),
            "wdpanic" => (r % 2).to_string(),
            _ => rate(r >> 3),
        };
        parts.push(format!("{key}={value}"));
    }
    parts
}

/// A well-formed `--churn` spec.
fn valid_churn_parts(raw: &[u64]) -> Vec<String> {
    let mut parts = Vec::new();
    for (key, &r) in ["rate", "seed", "links"].iter().zip(raw) {
        if r % 3 == 0 {
            continue;
        }
        let value = match *key {
            "seed" => r >> 2,
            _ => 1 + (r >> 2) % 100_000,
        };
        parts.push(format!("{key}={value}"));
    }
    parts
}

/// Both parsers on `spec`: a plan inside the grammar's ranges, or the
/// typed error.
fn parse_both(spec: &str) -> Result<(), TestCaseError> {
    let faults: Result<FaultPlan, FaultSpecError> = FaultPlan::parse(spec);
    if let Ok(plan) = &faults {
        for rate in [
            plan.panic_rate,
            plan.bitflip_rate,
            plan.stall_rate,
            plan.event_drop_rate,
            plan.event_dup_rate,
            plan.heal_fail_rate,
        ] {
            prop_assert!((0.0..=1.0).contains(&rate), "{spec:?} gave rate {rate}");
        }
    }
    let churn: Result<ChurnPlan, ChurnSpecError> = ChurnPlan::parse(spec);
    if let Ok(plan) = &churn {
        prop_assert!(plan.rate >= 1 && plan.links >= 1, "{spec:?} gave {plan:?}");
    }
    Ok(())
}

/// `spec` cut at a char boundary at or before `cut`.
fn truncated(spec: &str, cut: usize) -> &str {
    let mut end = cut % (spec.len() + 1);
    while !spec.is_char_boundary(end) {
        end -= 1;
    }
    &spec[..end]
}

/// `spec` with `c` inserted at a char boundary at or before `at`.
fn with_stray(spec: &str, at: usize, c: char) -> String {
    let head = truncated(spec, at);
    format!("{head}{c}{}", &spec[head.len()..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary strings over the grammar's pieces and random characters.
    #[test]
    fn arbitrary_strings_parse_or_error(
        picks in prop::collection::vec((0usize..PIECES.len() + 4, any::<u32>()), 0..24),
    ) {
        parse_both(&arbitrary_spec(&picks))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutations of a valid `--faults` spec.
    #[test]
    fn fault_spec_mutations_parse_or_error(
        raw in prop::collection::vec(any::<u64>(), 9),
        pick in any::<usize>(),
        at in any::<usize>(),
        extra in any::<u64>(),
    ) {
        let parts = valid_fault_parts(&raw);
        let spec = parts.join(",");
        let plan = FaultPlan::parse(&spec);
        prop_assert!(plan.is_ok(), "valid spec {spec:?} failed: {plan:?}");
        parse_both(&spec)?;
        parse_both(truncated(&spec, at))?;
        parse_both(&with_stray(&spec, at, ':'))?;
        parse_both(&with_stray(&spec, at, '='))?;
        if parts.is_empty() {
            return Ok(());
        }
        let part = &parts[pick % parts.len()];
        let key = part.split_once('=').expect("key=value").0;
        // A repeated part changes nothing: the last value wins and it is
        // the same value.
        prop_assert_eq!(FaultPlan::parse(&format!("{spec},{part}")), plan.clone());
        let others: Vec<&str> = parts.iter().filter(|p| *p != part).map(|p| p.as_str()).collect();
        for bad in [String::new(), past_u64_max(extra)] {
            let mutated = format!("{},{key}={bad}", others.join(","));
            prop_assert!(FaultPlan::parse(&mutated).is_err(), "{mutated:?} parsed");
            parse_both(&mutated)?;
        }
        let stall_ms = format!("{spec},stall=0.5:{}", past_u64_max(extra));
        prop_assert!(FaultPlan::parse(&stall_ms).is_err(), "{stall_ms:?} parsed");
    }

    /// Mutations of a valid `--churn` spec.
    #[test]
    fn churn_spec_mutations_parse_or_error(
        raw in prop::collection::vec(any::<u64>(), 3),
        pick in any::<usize>(),
        at in any::<usize>(),
        extra in any::<u64>(),
    ) {
        let parts = valid_churn_parts(&raw);
        let spec = parts.join(",");
        let plan = ChurnPlan::parse(&spec);
        prop_assert!(plan.is_ok(), "valid spec {spec:?} failed: {plan:?}");
        parse_both(&spec)?;
        parse_both(truncated(&spec, at))?;
        parse_both(&with_stray(&spec, at, ':'))?;
        parse_both(&with_stray(&spec, at, '='))?;
        if parts.is_empty() {
            return Ok(());
        }
        let part = &parts[pick % parts.len()];
        let key = part.split_once('=').expect("key=value").0;
        prop_assert_eq!(ChurnPlan::parse(&format!("{spec},{part}")), plan.clone());
        let others: Vec<&str> = parts.iter().filter(|p| *p != part).map(|p| p.as_str()).collect();
        for bad in [String::new(), past_u64_max(extra)] {
            let mutated = format!("{},{key}={bad}", others.join(","));
            prop_assert!(ChurnPlan::parse(&mutated).is_err(), "{mutated:?} parsed");
            parse_both(&mutated)?;
        }
    }
}
