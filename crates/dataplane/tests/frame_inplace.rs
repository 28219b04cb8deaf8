//! Property-based equivalence tests for the per-switch frame op:
//! [`UnrollerPipeline::process_frame_in_place`] (a one-hop walk over the
//! frame's offset accessors) must be bit-exact with the reference
//! [`WireHeader::decode`] → [`UnrollerPipeline::process_header`] →
//! [`WireHeader::encode`] path, built on the independent cursor codec,
//! for every layout the parameter space can produce, every starting
//! shim state, and every hop sequence — and malformed frames must error
//! without touching a byte.

use proptest::prelude::*;
use unroller_core::params::UnrollerParams;
use unroller_core::Verdict;
use unroller_dataplane::header::{HeaderLayout, WireHeader};
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{EthernetHeader, FrameError, UnrollerPipeline, ETH_HEADER_LEN};

/// A random-but-valid wire header for `layout`: `xcnt` only when the
/// layout carries it, `thcnt` below the threshold, switch IDs masked to
/// `z` bits.
fn random_shim(layout: &HeaderLayout, p: &UnrollerParams, seed: u64) -> WireHeader {
    WireHeader {
        xcnt: if p.xcnt_in_header { seed as u8 } else { 0 },
        thcnt: (seed >> 8) as u32 % p.th,
        swids: (0..layout.slots)
            .map(|s| (seed.rotate_left(s * 7 + 3) as u32) & p.z_mask())
            .collect(),
    }
}

/// The reference hop on a well-formed frame: decode the shim with the
/// cursor codec, run the control block, splice the re-encoded shim back
/// in on `Continue` (on `LoopReported` the switch drops the frame
/// unchanged). A TTL-inferred shim decodes `Xcnt` as 0, so every call is
/// a first hop, as it is for `process_frame_in_place`.
fn reference_hop(pipeline: &UnrollerPipeline, layout: &HeaderLayout, frame: &mut [u8]) -> Verdict {
    let mut shim = WireHeader::decode(layout, &frame[ETH_HEADER_LEN..]).expect("well-formed frame");
    let verdict = pipeline.process_header(&mut shim);
    if verdict == Verdict::Continue {
        let bytes = shim.encode(layout);
        frame[ETH_HEADER_LEN..ETH_HEADER_LEN + bytes.len()].copy_from_slice(&bytes);
    }
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Walking a frame through a random switch sequence, the in-place
    /// path and the decode→process→encode path agree on every verdict
    /// and every byte at every hop, and the payload never changes.
    #[test]
    fn in_place_is_bit_exact_with_the_struct_path(
        b in 2u32..=9,
        z in 1u32..=32,
        c in 1u32..=4,
        h in 1u32..=4,
        th in 1u32..=8,
        xcnt_in_header in prop::bool::ANY,
        shim_seed in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        hops in prop::collection::vec(0u32..12, 1..24),
    ) {
        let p = UnrollerParams {
            xcnt_in_header,
            ..UnrollerParams::default().with_b(b).with_z(z).with_c(c).with_h(h).with_th(th)
        };
        let layout = HeaderLayout::from_params(&p);
        let shim = random_shim(&layout, &p, shim_seed);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut in_place = build_frame(&layout, &eth, &shim, &payload);
        let mut reference = in_place.clone();

        for &hop in &hops {
            let pipeline = UnrollerPipeline::new(100 + hop, p).unwrap();
            let got = pipeline.process_frame_in_place(&mut in_place);
            let want = Ok(reference_hop(&pipeline, &layout, &mut reference));
            prop_assert_eq!(&got, &want, "verdict diverged at switch {}", 100 + hop);
            prop_assert_eq!(&in_place, &reference, "bytes diverged at switch {}", 100 + hop);
            let tail = &in_place[ETH_HEADER_LEN + layout.total_bytes()..];
            prop_assert_eq!(tail, &payload[..], "payload disturbed at switch {}", 100 + hop);
            if got == Ok(Verdict::LoopReported) {
                break; // the switch drops the frame; nothing further to walk
            }
        }
    }

    /// Garbage in the shim's padding bits never desynchronizes the two
    /// paths: the first `Continue` hop normalizes the padding to zero on
    /// both, and a `LoopReported` hop touches neither.
    #[test]
    fn padding_garbage_is_normalized_identically(
        z in 1u32..=32,
        c in 1u32..=4,
        h in 1u32..=4,
        th in 1u32..=8,
        shim_seed in any::<u64>(),
        garbage in 1u8..=255,
        hops in prop::collection::vec(0u32..12, 1..12),
    ) {
        let p = UnrollerParams::default().with_z(z).with_c(c).with_h(h).with_th(th);
        let layout = HeaderLayout::from_params(&p);
        let pad_bits = layout.total_bytes() * 8 - layout.total_bits() as usize;
        prop_assume!(pad_bits > 0);

        let shim = random_shim(&layout, &p, shim_seed);
        let mut in_place = build_frame(&layout, &EthernetHeader::for_hosts(1, 2), &shim, b"pad");
        // Adversarial wire input: set the padding bits a conforming
        // encoder would have zeroed.
        let last = ETH_HEADER_LEN + layout.total_bytes() - 1;
        in_place[last] |= garbage & ((1u8 << pad_bits) - 1);
        let mut reference = in_place.clone();

        for &hop in &hops {
            let pipeline = UnrollerPipeline::new(100 + hop, p).unwrap();
            let got = pipeline.process_frame_in_place(&mut in_place);
            let want = Ok(reference_hop(&pipeline, &layout, &mut reference));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&in_place, &reference);
            if got == Ok(Verdict::LoopReported) {
                break;
            }
        }
    }

    /// Truncated or foreign frames are rejected with a typed error and
    /// left byte-for-byte untouched.
    #[test]
    fn malformed_frames_error_without_writes(
        z in 1u32..=32,
        c in 1u32..=4,
        h in 1u32..=4,
        cut in any::<u16>(),
        ethertype in any::<u16>(),
    ) {
        let p = UnrollerParams::default().with_z(z).with_c(c).with_h(h);
        let layout = HeaderLayout::from_params(&p);
        let pipeline = UnrollerPipeline::new(7, p).unwrap();
        let shim = WireHeader::initial(&layout);
        let full = build_frame(&layout, &EthernetHeader::for_hosts(1, 2), &shim, b"xyz");
        let need = ETH_HEADER_LEN + layout.total_bytes();

        // Any strict prefix of the headers is too short.
        let len = cut as usize % need;
        let mut short = full[..len].to_vec();
        let before = short.clone();
        prop_assert_eq!(
            pipeline.process_frame_in_place(&mut short),
            Err(FrameError::TooShort { len, need })
        );
        prop_assert_eq!(&short, &before, "a rejected frame must not be written");

        // A non-Unroller EtherType is refused before any shim access.
        prop_assume!(ethertype != unroller_dataplane::ETHERTYPE_UNROLLER);
        let mut foreign = full.clone();
        foreign[12..14].copy_from_slice(&ethertype.to_be_bytes());
        let before = foreign.clone();
        prop_assert_eq!(
            pipeline.process_frame_in_place(&mut foreign),
            Err(FrameError::WrongEthertype(ethertype))
        );
        prop_assert_eq!(&foreign, &before);
    }
}
