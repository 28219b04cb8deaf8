//! The Unroller shim header, bit-exact per the paper's Table 3.
//!
//! | field | width | meaning |
//! |---|---|---|
//! | `Xcnt`    | 8 bits (0 if TTL-inferred) | hops traversed |
//! | `Thcnt`   | `⌈log₂ Th⌉` bits | matches seen |
//! | `SWids[]` | `c · H · z` bits | stored identifiers |
//!
//! Slot *occupancy* is **not** on the wire: which slots hold meaningful
//! values is fully determined by `Xcnt` (a chunk's slot is valid once
//! the chunk has begun), so switches derive it from a lookup table —
//! see [`crate::pipeline`].

use crate::bitio::{read_bits_at, write_bits_at, BitReadError, BitReader, BitWriter};
use std::fmt;
use std::ops::{Deref, DerefMut};
use unroller_core::params::{UnrollerParams, MAX_SLOTS};

/// The wire layout derived from detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderLayout {
    /// Width of the `Xcnt` field (8, or 0 when inferred from the TTL).
    pub xcnt_bits: u32,
    /// Width of the `Thcnt` field (`⌈log₂ Th⌉`).
    pub thcnt_bits: u32,
    /// Width of each stored identifier (`z`).
    pub z: u32,
    /// Number of identifier slots (`c · H`).
    pub slots: u32,
}

impl HeaderLayout {
    /// Derives the layout from parameters.
    pub fn from_params(p: &UnrollerParams) -> Self {
        HeaderLayout {
            xcnt_bits: if p.xcnt_in_header { 8 } else { 0 },
            thcnt_bits: p.thcnt_bits(),
            z: p.z,
            slots: p.c * p.h,
        }
    }

    /// Total header bits — identical to
    /// [`UnrollerParams::overhead_bits`].
    pub fn total_bits(&self) -> u32 {
        self.xcnt_bits + self.thcnt_bits + self.z * self.slots
    }

    /// Header bytes on the wire (bit-packed, zero-padded).
    pub fn total_bytes(&self) -> usize {
        (self.total_bits() as usize).div_ceil(8)
    }

    /// Bit offset of the `Thcnt` field.
    #[inline]
    fn thcnt_pos(&self) -> usize {
        self.xcnt_bits as usize
    }

    /// Bit offset of identifier slot `slot`.
    #[inline]
    fn swid_pos(&self, slot: u32) -> usize {
        debug_assert!(slot < self.slots);
        (self.xcnt_bits + self.thcnt_bits) as usize + (slot * self.z) as usize
    }

    /// Reads `Xcnt` straight off a shim buffer (0 when TTL-inferred).
    #[inline]
    pub(crate) fn read_xcnt(&self, shim: &[u8]) -> u8 {
        if self.xcnt_bits == 0 {
            return 0;
        }
        read_bits_at(shim, 0, self.xcnt_bits) as u8
    }

    /// Writes `Xcnt` in place (no-op when TTL-inferred).
    #[inline]
    pub(crate) fn write_xcnt(&self, shim: &mut [u8], xcnt: u8) {
        if self.xcnt_bits == 0 {
            return;
        }
        write_bits_at(shim, 0, self.xcnt_bits, xcnt as u64);
    }

    /// Reads `Thcnt` straight off a shim buffer.
    #[inline]
    pub(crate) fn read_thcnt(&self, shim: &[u8]) -> u32 {
        read_bits_at(shim, self.thcnt_pos(), self.thcnt_bits) as u32
    }

    /// Writes `Thcnt` in place.
    #[inline]
    pub(crate) fn write_thcnt(&self, shim: &mut [u8], thcnt: u32) {
        write_bits_at(shim, self.thcnt_pos(), self.thcnt_bits, thcnt as u64);
    }

    /// Reads identifier slot `slot` straight off a shim buffer.
    #[inline]
    pub(crate) fn read_swid(&self, shim: &[u8], slot: u32) -> u32 {
        read_bits_at(shim, self.swid_pos(slot), self.z) as u32
    }

    /// Writes identifier slot `slot` in place.
    #[inline]
    pub(crate) fn write_swid(&self, shim: &mut [u8], slot: u32, id: u32) {
        write_bits_at(shim, self.swid_pos(slot), self.z, id as u64);
    }

    /// Zeroes the padding bits in the final shim byte so
    /// [`WireHeader::encode_into`] stays bit-exact with
    /// [`WireHeader::encode`], which always emits zero padding.
    #[inline]
    pub(crate) fn clear_padding(&self, shim: &mut [u8]) {
        let pad = self.total_bytes() * 8 - self.total_bits() as usize;
        if pad > 0 {
            shim[self.total_bytes() - 1] &= !((1u8 << pad) - 1);
        }
    }
}

/// The identifier slots of a [`WireHeader`]: up to [`MAX_SLOTS`] IDs
/// inline, the first `len` of them live. It derefs to the live slots,
/// so it indexes, iterates and counts like a slice; slots past `len`
/// stay zero, so the derived equality compares live slots.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Swids {
    ids: [u32; MAX_SLOTS],
    len: u8,
}

impl Swids {
    /// `len` zeroed slots. Panics past [`MAX_SLOTS`], which
    /// [`UnrollerParams::validate`] rules out.
    pub fn zeroed(len: usize) -> Self {
        assert!(len <= MAX_SLOTS, "{len} slots exceed {MAX_SLOTS}");
        Swids {
            ids: [0; MAX_SLOTS],
            len: len as u8,
        }
    }
}

impl Deref for Swids {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

impl DerefMut for Swids {
    fn deref_mut(&mut self) -> &mut [u32] {
        &mut self.ids[..self.len as usize]
    }
}

/// Collects IDs into slots, in order; panics past [`MAX_SLOTS`].
impl FromIterator<u32> for Swids {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut swids = Swids::zeroed(0);
        for id in iter {
            swids.ids[swids.len as usize] = id;
            swids.len += 1;
        }
        swids
    }
}

impl fmt::Debug for Swids {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A decoded Unroller shim header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Hop counter (8-bit on the wire; saturates at 255, past which the
    /// TTL would have expired anyway).
    pub xcnt: u8,
    /// Threshold counter.
    pub thcnt: u32,
    /// Stored identifiers, indexed `hash_index · c + chunk_index`.
    pub swids: Swids,
}

impl WireHeader {
    /// The all-zero header a source host emits. Panics if the layout
    /// has more than [`MAX_SLOTS`] slots.
    pub fn initial(layout: &HeaderLayout) -> Self {
        WireHeader {
            xcnt: 0,
            thcnt: 0,
            swids: Swids::zeroed(layout.slots as usize),
        }
    }

    /// Serializes per the layout.
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds its layout width (e.g. `thcnt` too
    /// large for `thcnt_bits`) or the slot count mismatches.
    pub fn encode(&self, layout: &HeaderLayout) -> Vec<u8> {
        assert_eq!(
            self.swids.len(),
            layout.slots as usize,
            "slot count mismatch"
        );
        let mut w = BitWriter::new();
        if layout.xcnt_bits > 0 {
            w.write(self.xcnt as u64, layout.xcnt_bits);
        }
        w.write(self.thcnt as u64, layout.thcnt_bits);
        for &id in self.swids.iter() {
            w.write(id as u64, layout.z);
        }
        w.into_bytes()
    }

    /// Parses a header from the front of `bytes`.
    pub fn decode(layout: &HeaderLayout, bytes: &[u8]) -> Result<Self, BitReadError> {
        let mut r = BitReader::new(bytes);
        let xcnt = if layout.xcnt_bits > 0 {
            r.read(layout.xcnt_bits)? as u8
        } else {
            0
        };
        let thcnt = r.read(layout.thcnt_bits)? as u32;
        let mut swids = Swids::zeroed(layout.slots as usize);
        for id in swids.iter_mut() {
            *id = r.read(layout.z)? as u32;
        }
        Ok(WireHeader { xcnt, thcnt, swids })
    }

    /// Decodes the shim at the front of `shim` into `self` through the
    /// offset accessors: [`Self::decode`] for a buffer already known to
    /// hold the header. `shim` may run past the header (a frame tail),
    /// which lets the accessors load whole 8-byte windows. `xcnt` reads
    /// as 0 when the layout infers it from the TTL.
    ///
    /// # Panics
    ///
    /// Panics if the slot count mismatches or `shim` is shorter than
    /// the layout.
    pub(crate) fn decode_into(&mut self, layout: &HeaderLayout, shim: &[u8]) {
        assert_eq!(
            self.swids.len(),
            layout.slots as usize,
            "slot count mismatch"
        );
        self.xcnt = layout.read_xcnt(shim);
        self.thcnt = layout.read_thcnt(shim);
        for (slot, id) in self.swids.iter_mut().enumerate() {
            *id = layout.read_swid(shim, slot as u32);
        }
    }

    /// Writes `self` over the front of `shim` in place, padding bits
    /// zeroed: the header's bytes come out identical to
    /// [`Self::encode`], and bytes past them are untouched.
    ///
    /// # Panics
    ///
    /// As [`Self::encode`], or if `shim` is shorter than the layout.
    pub(crate) fn encode_into(&self, layout: &HeaderLayout, shim: &mut [u8]) {
        assert_eq!(
            self.swids.len(),
            layout.slots as usize,
            "slot count mismatch"
        );
        layout.write_xcnt(shim, self.xcnt);
        layout.write_thcnt(shim, self.thcnt);
        for (slot, &id) in self.swids.iter().enumerate() {
            layout.write_swid(shim, slot as u32, id);
        }
        layout.clear_padding(shim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn layout_matches_params_overhead() {
        for (c, h, z, th) in [
            (1u32, 1u32, 32u32, 1u32),
            (2, 2, 8, 4),
            (4, 1, 7, 2),
            (1, 4, 12, 1),
        ] {
            let p = UnrollerParams::default()
                .with_c(c)
                .with_h(h)
                .with_z(z)
                .with_th(th);
            let layout = HeaderLayout::from_params(&p);
            assert_eq!(
                layout.total_bits(),
                p.overhead_bits(),
                "c={c} h={h} z={z} th={th}"
            );
        }
    }

    #[test]
    fn paper_example_header_is_9_bits() {
        // §3.3: z = 7, Th = 4, Xcnt from TTL → 9 bits → 2 bytes padded.
        let p = UnrollerParams {
            z: 7,
            th: 4,
            xcnt_in_header: false,
            ..UnrollerParams::default()
        };
        let layout = HeaderLayout::from_params(&p);
        assert_eq!(layout.total_bits(), 9);
        assert_eq!(layout.total_bytes(), 2);
    }

    #[test]
    fn default_header_is_5_bytes() {
        // 8 (Xcnt) + 32 (one ID) = 40 bits.
        let layout = HeaderLayout::from_params(&UnrollerParams::default());
        assert_eq!(layout.total_bits(), 40);
        assert_eq!(layout.total_bytes(), 5);
    }

    #[test]
    fn roundtrip_random_headers() {
        let mut rng = unroller_core::test_rng(62);
        for _ in 0..300 {
            let c = rng.gen_range(1..=4u32);
            let h = rng.gen_range(1..=4u32);
            let z = rng.gen_range(1..=32u32);
            let th = rng.gen_range(1..=8u32);
            let p = UnrollerParams::default()
                .with_c(c)
                .with_h(h)
                .with_z(z)
                .with_th(th);
            let layout = HeaderLayout::from_params(&p);
            let hdr = WireHeader {
                xcnt: rng.gen(),
                thcnt: rng.gen_range(0..th),
                swids: (0..(c * h))
                    .map(|_| rng.gen::<u32>() & p.z_mask())
                    .collect(),
            };
            let bytes = hdr.encode(&layout);
            assert_eq!(bytes.len(), layout.total_bytes());
            let back = WireHeader::decode(&layout, &bytes).unwrap();
            assert_eq!(back, hdr);
        }
    }

    #[test]
    fn offset_accessors_match_decode() {
        let mut rng = unroller_core::test_rng(65);
        for _ in 0..200 {
            let c = rng.gen_range(1..=4u32);
            let h = rng.gen_range(1..=4u32);
            let z = rng.gen_range(1..=32u32);
            let th = rng.gen_range(1..=8u32);
            let xcnt_in_header = rng.gen();
            let p = UnrollerParams {
                xcnt_in_header,
                ..UnrollerParams::default()
                    .with_c(c)
                    .with_h(h)
                    .with_z(z)
                    .with_th(th)
            };
            let layout = HeaderLayout::from_params(&p);
            let hdr = WireHeader {
                xcnt: if xcnt_in_header { rng.gen() } else { 0 },
                thcnt: rng.gen_range(0..th),
                swids: (0..(c * h))
                    .map(|_| rng.gen::<u32>() & p.z_mask())
                    .collect(),
            };
            let mut shim = hdr.encode(&layout);
            assert_eq!(layout.read_xcnt(&shim), hdr.xcnt);
            assert_eq!(layout.read_thcnt(&shim), hdr.thcnt);
            for (slot, &id) in hdr.swids.iter().enumerate() {
                assert_eq!(layout.read_swid(&shim, slot as u32), id);
            }
            // Bytes after the header (a frame tail) change nothing.
            shim.extend((0..rng.gen_range(0..12)).map(|_| rng.gen::<u8>()));
            let mut decoded = WireHeader::initial(&layout);
            decoded.xcnt = 1;
            decoded.decode_into(&layout, &shim);
            assert_eq!(decoded, hdr);
        }
    }

    #[test]
    fn offset_writes_match_encode() {
        let mut rng = unroller_core::test_rng(66);
        for _ in 0..200 {
            let c = rng.gen_range(1..=4u32);
            let h = rng.gen_range(1..=4u32);
            let z = rng.gen_range(1..=32u32);
            let th = rng.gen_range(1..=8u32);
            let p = UnrollerParams::default()
                .with_c(c)
                .with_h(h)
                .with_z(z)
                .with_th(th);
            let layout = HeaderLayout::from_params(&p);
            // Start from garbage: in-place writes of every field plus
            // padding clear must reproduce encode() exactly.
            let mut shim: Vec<u8> = (0..layout.total_bytes()).map(|_| rng.gen()).collect();
            let hdr = WireHeader {
                xcnt: rng.gen(),
                thcnt: rng.gen_range(0..th),
                swids: (0..(c * h))
                    .map(|_| rng.gen::<u32>() & p.z_mask())
                    .collect(),
            };
            layout.write_xcnt(&mut shim, hdr.xcnt);
            layout.write_thcnt(&mut shim, hdr.thcnt);
            for (slot, &id) in hdr.swids.iter().enumerate() {
                layout.write_swid(&mut shim, slot as u32, id);
            }
            layout.clear_padding(&mut shim);
            assert_eq!(shim, hdr.encode(&layout));
            // encode_into does the same over a frame tail, which it
            // leaves alone.
            let tail: Vec<u8> = (0..rng.gen_range(0..12)).map(|_| rng.gen()).collect();
            let mut framed: Vec<u8> = (0..layout.total_bytes()).map(|_| rng.gen()).collect();
            framed.extend_from_slice(&tail);
            hdr.encode_into(&layout, &mut framed);
            assert_eq!(framed[..layout.total_bytes()], shim[..]);
            assert_eq!(framed[layout.total_bytes()..], tail[..]);
        }
    }

    #[test]
    fn decode_short_buffer_errors() {
        let layout = HeaderLayout::from_params(&UnrollerParams::default());
        assert!(WireHeader::decode(&layout, &[0u8; 2]).is_err());
    }

    #[test]
    fn initial_header_is_zero() {
        let layout = HeaderLayout::from_params(&UnrollerParams::default().with_c(2));
        let hdr = WireHeader::initial(&layout);
        assert_eq!(hdr.xcnt, 0);
        assert_eq!(*hdr.swids, [0, 0]);
        assert!(hdr.encode(&layout).iter().all(|&b| b == 0));
    }
}
