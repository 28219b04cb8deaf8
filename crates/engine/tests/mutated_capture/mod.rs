//! Shared by the capture property tests: a capture recorded through
//! the engine's capture tee, and the ways the tests damage it before
//! feeding it to the pcap readers.

use proptest::prelude::*;
use unroller_core::UnrollerParams;
use unroller_dataplane::HeaderLayout;
use unroller_engine::{CaptureSource, SyntheticSource, TrafficSource};

/// Length of the pcap global header.
const GLOBAL_HEADER_LEN: usize = 24;
/// Length of each per-record header.
const RECORD_HEADER_LEN: usize = 16;

/// 24 packets of 6 flows over 16 hosts, half of them on looping
/// routes, recorded through [`CaptureSource`].
pub fn seed_capture() -> Vec<u8> {
    let mut source = SyntheticSource::new(16, 6, 24, 2, 12, 5);
    let layout = HeaderLayout::from_params(&UnrollerParams::default());
    let mut tee = CaptureSource::new(&mut source, layout);
    let mut out = Vec::new();
    while tee.fill(8, &mut out) > 0 {}
    tee.finish()
}

/// One way to damage a capture.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Arbitrary bytes instead of the capture.
    Noise(Vec<u8>),
    /// The capture's global header, then arbitrary bytes.
    NoiseAfterHeader(Vec<u8>),
    /// The capture cut at this offset (mod its length + 1).
    Truncate(usize),
    /// The capture with these bits flipped (offsets mod its bit length).
    FlipBits(Vec<usize>),
    /// Record `.0`'s (mod the record count) captured length set to `.1`.
    InflateIncl(usize, u32),
    /// The declared snaplen set to `.1`, and record `.0`'s captured
    /// length with it.
    InflateSnaplen(usize, u32),
}

/// Mutations of every kind. Lengths are log-uniform, from a few bytes
/// to `u32::MAX`, so both torn and absurd records come up.
pub fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..6,
        any::<usize>(),
        any::<u32>(),
        0u32..32,
        prop::collection::vec(any::<u8>(), 0..300),
        prop::collection::vec(any::<usize>(), 1..9),
    )
        .prop_map(|(kind, at, len, shift, bytes, bits)| match kind {
            0 => Mutation::Noise(bytes),
            1 => Mutation::NoiseAfterHeader(bytes),
            2 => Mutation::Truncate(at),
            3 => Mutation::FlipBits(bits),
            4 => Mutation::InflateIncl(at, len >> shift),
            _ => Mutation::InflateSnaplen(at, len >> shift),
        })
}

/// Byte offset of each record header in an undamaged capture.
fn record_offsets(capture: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = GLOBAL_HEADER_LEN;
    while pos + RECORD_HEADER_LEN <= capture.len() {
        offsets.push(pos);
        let incl = u32::from_le_bytes(capture[pos + 8..pos + 12].try_into().unwrap());
        pos += RECORD_HEADER_LEN + incl as usize;
    }
    offsets
}

/// `seed` damaged by `mutation`.
pub fn apply(seed: &[u8], mutation: &Mutation) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    let set_incl = |bytes: &mut Vec<u8>, record: usize, len: u32| {
        let offsets = record_offsets(seed);
        let at = offsets[record % offsets.len()] + 8;
        bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
    };
    match mutation {
        Mutation::Noise(noise) => bytes = noise.clone(),
        Mutation::NoiseAfterHeader(noise) => {
            bytes.truncate(GLOBAL_HEADER_LEN);
            bytes.extend_from_slice(noise);
        }
        Mutation::Truncate(at) => bytes.truncate(at % (seed.len() + 1)),
        Mutation::FlipBits(bits) => {
            for bit in bits {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Mutation::InflateIncl(record, len) => set_incl(&mut bytes, *record, *len),
        Mutation::InflateSnaplen(record, len) => {
            bytes[16..20].copy_from_slice(&len.to_le_bytes());
            set_incl(&mut bytes, *record, *len);
        }
    }
    bytes
}
