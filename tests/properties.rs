//! Property-based tests (proptest) over the core invariants:
//!
//! * no false negatives — every looping walk is eventually reported;
//! * Theorem 1's worst-case bound on the analysis schedule;
//! * zero false positives with full-width identifiers;
//! * software detector ↔ dataplane pipeline bit-exact agreement;
//! * header encode/decode roundtrips;
//! * phase schedules partition the hop line.

use proptest::prelude::*;
use unroller::core::walk::run_detector;
use unroller::core::{
    bounds, InPacketDetector, PhaseSchedule, Unroller, UnrollerParams, Verdict, Walk,
};
use unroller::dataplane::header::{HeaderLayout, WireHeader};
use unroller::dataplane::pipeline::UnrollerPipeline;
use unroller::dataplane::{ETHERTYPE_UNROLLER, ETH_HEADER_LEN};

/// Strategy for arbitrary valid parameter sets (kept small enough that
/// detection finishes quickly).
fn params_strategy() -> impl Strategy<Value = UnrollerParams> {
    (
        2u32..=6,        // b
        1u32..=32,       // z
        1u32..=4,        // c
        1u32..=4,        // h
        1u32..=4,        // th
        prop::bool::ANY, // schedule
    )
        .prop_map(|(b, z, c, h, th, power)| UnrollerParams {
            b,
            z,
            c,
            h,
            th,
            schedule: if power {
                PhaseSchedule::PowerBoundary
            } else {
                PhaseSchedule::CumulativeGeometric
            },
            xcnt_in_header: true,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No false negatives: every configuration detects every loop.
    #[test]
    fn every_loop_is_detected(
        params in params_strategy(),
        b_hops in 0usize..12,
        l in 1usize..16,
        seed in any::<u64>(),
    ) {
        let det = Unroller::from_params(params).unwrap();
        let mut rng = unroller::core::test_rng(seed);
        let walk = Walk::random(b_hops, l, &mut rng);
        // Generous cap: worst case is O(max(b·B, b·L·Th)).
        let cap = 64 + (params.b as u64 + 1)
            * (params.th as u64 + 2)
            * (b_hops as u64 + l as u64 + 1)
            * 4;
        let out = run_detector(&det, &walk, cap);
        prop_assert!(
            out.reported_at.is_some(),
            "missed loop: {params:?} B={b_hops} L={l} cap={cap}"
        );
    }

    /// Theorem 1 bound on the analysis schedule with a single full ID,
    /// for every identifier arrangement proptest throws at it.
    #[test]
    fn theorem1_bound_holds(
        b in 2u32..=6,
        b_hops in 0usize..10,
        l in 1usize..14,
        seed in any::<u64>(),
    ) {
        let det = Unroller::from_params(UnrollerParams::analysis(b)).unwrap();
        let mut rng = unroller::core::test_rng(seed);
        let walk = Walk::random(b_hops, l, &mut rng);
        let hops = run_detector(&det, &walk, 1 << 22).reported_at.unwrap() as f64;
        let bound = bounds::worst_case_bound(b, b_hops as u64, l as u64);
        prop_assert!(hops <= bound, "b={b} B={b_hops} L={l}: {hops} > {bound}");
    }

    /// Adversarial minimum placement still respects the bound.
    #[test]
    fn theorem1_bound_holds_adversarially(
        b_hops in 0usize..8,
        l in 1usize..10,
        pos_seed in any::<u64>(),
    ) {
        let det = Unroller::from_params(UnrollerParams::analysis(4)).unwrap();
        let pos = 1 + (pos_seed as usize) % (b_hops + l);
        let walk = bounds::walk_with_min_at(b_hops, l, pos);
        let hops = run_detector(&det, &walk, 1 << 22).reported_at.unwrap() as f64;
        let bound = bounds::worst_case_bound(4, b_hops as u64, l as u64);
        prop_assert!(hops <= bound);
    }

    /// Full-width identifiers never produce a false positive.
    #[test]
    fn no_false_positive_with_full_ids(
        path_len in 1usize..64,
        c in 1u32..=4,
        seed in any::<u64>(),
    ) {
        // c > 1 with z = 32 and H = 1 still uses the identity family.
        let det = Unroller::from_params(UnrollerParams::default().with_c(c)).unwrap();
        let mut rng = unroller::core::test_rng(seed);
        let walk = Walk::random_loop_free(path_len, &mut rng);
        let out = run_detector(&det, &walk, path_len as u64 + 1);
        prop_assert_eq!(out.reported_at, None);
    }

    /// The dataplane pipeline is bit-exact against the software
    /// detector on arbitrary walks and configurations (below Xcnt
    /// saturation).
    #[test]
    fn pipeline_equals_software(
        params in params_strategy(),
        b_hops in 0usize..8,
        l in 1usize..10,
        seed in any::<u64>(),
    ) {
        let det = Unroller::from_params(params).unwrap();
        let layout = HeaderLayout::from_params(&params);
        let mut rng = unroller::core::test_rng(seed);
        let walk = Walk::random(b_hops, l, &mut rng);
        let mut sw = det.init_state();
        let mut hw = WireHeader::initial(&layout);
        for hop in 1..=200u64 {
            let switch = walk.switch_at(hop).unwrap();
            let s = det.on_switch(&mut sw, switch).reported();
            let h = UnrollerPipeline::new(switch, params)
                .unwrap()
                .process_header(&mut hw)
                .reported();
            prop_assert_eq!(s, h, "hop {} for {:?}", hop, params);
            if s {
                break;
            }
        }
    }

    /// Wire headers roundtrip for every layout and field content.
    #[test]
    fn header_roundtrips(
        params in params_strategy(),
        xcnt in any::<u8>(),
        raw in prop::collection::vec(any::<u32>(), 16),
        thcnt_raw in any::<u32>(),
    ) {
        let layout = HeaderLayout::from_params(&params);
        let hdr = WireHeader {
            xcnt,
            thcnt: if params.th == 1 { 0 } else { thcnt_raw % params.th },
            swids: (0..params.slots())
                .map(|i| raw[i % raw.len()] & params.z_mask())
                .collect(),
        };
        let bytes = hdr.encode(&layout);
        prop_assert_eq!(bytes.len(), layout.total_bytes());
        let back = WireHeader::decode(&layout, &bytes).unwrap();
        prop_assert_eq!(back, hdr);
    }

    /// Phase schedules tile the hop line: consecutive hops are either in
    /// the same phase or in adjacent phases with no gap.
    #[test]
    fn schedules_partition_hops(
        b in 2u32..=8,
        c in 1u32..=8,
        x in 1u64..100_000,
        power in any::<bool>(),
    ) {
        let schedule = if power {
            PhaseSchedule::PowerBoundary
        } else {
            PhaseSchedule::CumulativeGeometric
        };
        let p1 = schedule.position(x, b, c);
        let p2 = schedule.position(x + 1, b, c);
        prop_assert!(p1.phase_start <= x && x < p1.phase_start + p1.phase_len);
        if p2.phase == p1.phase {
            prop_assert_eq!(p1.phase_start, p2.phase_start);
        } else {
            prop_assert_eq!(p2.phase, p1.phase + 1);
            prop_assert_eq!(p2.phase_start, p1.phase_start + p1.phase_len);
        }
        prop_assert!(p1.chunk < c);
        prop_assert!(p1.chunk_start <= x);
    }

    /// The shim decoder never panics on arbitrary bytes — it either
    /// parses or reports a structured error (robustness against
    /// corrupted packets).
    #[test]
    fn decoder_never_panics_on_garbage(
        params in params_strategy(),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let layout = HeaderLayout::from_params(&params);
        let _ = WireHeader::decode(&layout, &bytes); // must not panic
    }

    /// Frame processing on arbitrary bytes never panics: it validates,
    /// decodes, runs the control block and encodes, or returns a
    /// structured `FrameError`. Half the frames carry the Unroller
    /// EtherType, so garbage shims reach the control block. An error or
    /// a report leaves every byte as it came; a `Continue` changes no
    /// byte outside the shim.
    #[test]
    fn frame_processing_never_panics_on_garbage(
        params in params_strategy(),
        mut bytes in prop::collection::vec(any::<u8>(), 0..96),
        tagged in prop::bool::ANY,
    ) {
        if tagged && bytes.len() >= ETH_HEADER_LEN {
            bytes[12..14].copy_from_slice(&ETHERTYPE_UNROLLER.to_be_bytes());
        }
        let before = bytes.clone();
        let shim_end = ETH_HEADER_LEN + HeaderLayout::from_params(&params).total_bytes();
        let pipe = UnrollerPipeline::new(7, params).unwrap();
        match pipe.process_frame_in_place(&mut bytes) {
            Ok(Verdict::Continue) => {
                prop_assert_eq!(&bytes[..ETH_HEADER_LEN], &before[..ETH_HEADER_LEN]);
                prop_assert_eq!(&bytes[shim_end..], &before[shim_end..]);
            }
            Ok(Verdict::LoopReported) | Err(_) => prop_assert_eq!(&bytes, &before),
        }
    }

    /// Detection time never improves when the threshold rises (same
    /// walk, Th = 1 vs Th = 2).
    #[test]
    fn threshold_never_speeds_detection(
        b_hops in 0usize..8,
        l in 1usize..12,
        seed in any::<u64>(),
    ) {
        let d1 = Unroller::from_params(UnrollerParams::default()).unwrap();
        let d2 = Unroller::from_params(UnrollerParams::default().with_th(2)).unwrap();
        let mut rng = unroller::core::test_rng(seed);
        let walk = Walk::random(b_hops, l, &mut rng);
        let t1 = run_detector(&d1, &walk, 1 << 22).reported_at.unwrap();
        let t2 = run_detector(&d2, &walk, 1 << 22).reported_at.unwrap();
        prop_assert!(t2 >= t1, "Th=2 detected earlier ({t2}) than Th=1 ({t1})");
    }
}
