//! Bit-granular serialization for the Unroller shim header.
//!
//! The header packs fields of arbitrary bit widths (`Xcnt` 8 bits,
//! `Thcnt` `⌈log₂ Th⌉` bits, each stored identifier `z` bits) back to
//! back, most-significant-bit first — the same layout a P4 deparser
//! emits. [`BitWriter`] builds such a byte string; [`BitReader`] parses
//! one.

/// Writes values of arbitrary bit width, MSB first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the last byte (0 = byte boundary).
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value` (MSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits above `width`.
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64);
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        let mut remaining = width;
        while remaining > 0 {
            if self.used == 0 {
                self.buf.push(0);
            }
            let space = 8 - self.used;
            let take = space.min(remaining);
            debug_assert!((1..=8).contains(&take), "chunk of {take} bits");
            let shift = remaining - take;
            let bits = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            let last = self.buf.last_mut().expect("pushed above");
            debug_assert_eq!(
                *last & (bits << (space - take)),
                0,
                "would overwrite already-written bits"
            );
            *last |= bits << (space - take);
            self.used = (self.used + take) % 8;
            debug_assert!(self.used < 8);
            remaining -= take;
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8
            - if self.used == 0 {
                0
            } else {
                (8 - self.used) as usize
            }
    }

    /// Finishes, returning the byte buffer (zero-padded to a byte
    /// boundary).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads values of arbitrary bit width, MSB first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize, // bit position
}

/// Error returned when a read runs past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReadError {
    /// Bits requested by the failing read.
    pub wanted: u32,
    /// Bits that were still available.
    pub available: usize,
}

impl std::fmt::Display for BitReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bit read past end of buffer: wanted {} bits, {} available",
            self.wanted, self.available
        )
    }
}

impl std::error::Error for BitReadError {}

/// Reads `width` bits starting at absolute bit position `pos`
/// (MSB first), without any cursor state — the random-access primitive
/// the shim's decode and encode over a frame are built on.
///
/// # Panics
///
/// Panics if `width > 64` or the read runs past the end of `buf`. A
/// frame is validated once, when its `ShimView` is built, so per-field
/// reads are in bounds by construction; a violation here is a caller
/// bug, not a malformed packet.
#[inline]
pub fn read_bits_at(buf: &[u8], pos: usize, width: u32) -> u64 {
    assert!(width <= 64);
    assert!(
        pos + width as usize <= buf.len() * 8,
        "bit read past end of buffer: pos {pos} width {width}, {} bits available",
        buf.len() * 8
    );
    if width == 0 {
        return 0;
    }
    // Fast path: when the field fits inside one 8-byte window of the
    // buffer, a single big-endian load + shift + mask replaces the
    // per-byte loop. The window starts at the field's first byte, so it
    // fires only when 8 bytes remain from there: callers hand in the
    // shim *plus the frame bytes after it* (`pipeline::ShimView`), and a
    // field within the last 7 bytes of the buffer takes the loop.
    let byte = pos / 8;
    let offset = (pos % 8) as u32;
    if offset + width <= 64 && byte + 8 <= buf.len() {
        let window = u64::from_be_bytes(buf[byte..byte + 8].try_into().expect("8-byte window"));
        return (window << offset) >> (64 - width);
    }
    let mut value = 0u64;
    let mut pos = pos;
    let mut remaining = width;
    while remaining > 0 {
        let byte = buf[pos / 8];
        let offset = (pos % 8) as u32;
        let space = 8 - offset;
        let take = space.min(remaining);
        debug_assert!((1..=8).contains(&take), "chunk of {take} bits");
        let bits = (byte >> (space - take)) & ((1u16 << take) - 1) as u8;
        value = (value << take) | bits as u64;
        pos += take as usize;
        remaining -= take;
    }
    value
}

/// Writes the low `width` bits of `value` at absolute bit position
/// `pos` (MSB first), clearing the target bits first — unlike
/// [`BitWriter`], which assumes a zeroed buffer, this overwrites
/// whatever was there, so a shim field can be rewritten in place.
/// Surrounding bits are untouched.
///
/// # Panics
///
/// Panics if `width > 64`, `value` has bits above `width`, or the
/// write runs past the end of `buf`.
#[inline]
pub fn write_bits_at(buf: &mut [u8], pos: usize, width: u32, value: u64) {
    assert!(width <= 64);
    if width < 64 {
        assert!(
            value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
    }
    assert!(
        pos + width as usize <= buf.len() * 8,
        "bit write past end of buffer: pos {pos} width {width}, {} bits available",
        buf.len() * 8
    );
    if width == 0 {
        return;
    }
    // Fast path mirroring `read_bits_at`: load the 8-byte window, mask
    // in the new field, store it back — one read-modify-write instead of
    // up to nine per-byte masked writes.
    let byte = pos / 8;
    let offset = (pos % 8) as u32;
    if offset + width <= 64 && byte + 8 <= buf.len() {
        let mut window = u64::from_be_bytes(buf[byte..byte + 8].try_into().expect("8-byte window"));
        let shift = 64 - offset - width;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << shift
        };
        window = (window & !mask) | (value << shift);
        buf[byte..byte + 8].copy_from_slice(&window.to_be_bytes());
        return;
    }
    let mut pos = pos;
    let mut remaining = width;
    while remaining > 0 {
        let offset = (pos % 8) as u32;
        let space = 8 - offset;
        let take = space.min(remaining);
        debug_assert!((1..=8).contains(&take), "chunk of {take} bits");
        let shift = remaining - take;
        let bits = ((value >> shift) & ((1u64 << take) - 1)) as u8;
        let mask = (((1u16 << take) - 1) as u8) << (space - take);
        let byte = &mut buf[pos / 8];
        *byte = (*byte & !mask) | (bits << (space - take));
        pos += take as usize;
        remaining -= take;
    }
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Reads the next `width` bits (MSB first).
    pub fn read(&mut self, width: u32) -> Result<u64, BitReadError> {
        assert!(width <= 64);
        let available = self.buf.len() * 8 - self.pos;
        if (width as usize) > available {
            return Err(BitReadError {
                wanted: width,
                available,
            });
        }
        let mut value = 0u64;
        let mut remaining = width;
        while remaining > 0 {
            debug_assert!(self.pos / 8 < self.buf.len(), "read past checked bound");
            let byte = self.buf[self.pos / 8];
            let offset = (self.pos % 8) as u32;
            let space = 8 - offset;
            let take = space.min(remaining);
            debug_assert!((1..=8).contains(&take), "chunk of {take} bits");
            let bits = (byte >> (space - take)) & ((1u16 << take) - 1) as u8;
            value = (value << take) | bits as u64;
            self.pos += take as usize;
            remaining -= take;
        }
        debug_assert!(self.pos <= self.buf.len() * 8);
        Ok(value)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn roundtrip_simple() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xff, 8);
        w.write(0, 1);
        w.write(0x1234, 16);
        assert_eq!(w.bit_len(), 28);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(8).unwrap(), 0xff);
        assert_eq!(r.read(1).unwrap(), 0);
        assert_eq!(r.read(16).unwrap(), 0x1234);
    }

    #[test]
    fn roundtrip_random_widths() {
        let mut rng = unroller_core::test_rng(61);
        for _ in 0..200 {
            let fields: Vec<(u64, u32)> = (0..rng.gen_range(1..20))
                .map(|_| {
                    let width = rng.gen_range(1..=64u32);
                    let value = if width == 64 {
                        rng.gen()
                    } else {
                        rng.gen::<u64>() & ((1u64 << width) - 1)
                    };
                    (value, width)
                })
                .collect();
            let mut w = BitWriter::new();
            for &(v, wd) in &fields {
                w.write(v, wd);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &(v, wd) in &fields {
                assert_eq!(r.read(wd).unwrap(), v, "width {wd}");
            }
        }
    }

    #[test]
    fn msb_first_layout() {
        // Writing 4 bits 0b1010 then 4 bits 0b0101 yields byte 0xa5.
        let mut w = BitWriter::new();
        w.write(0b1010, 4);
        w.write(0b0101, 4);
        assert_eq!(w.into_bytes(), vec![0xa5]);
    }

    #[test]
    fn overflow_value_panics() {
        let mut w = BitWriter::new();
        let result = std::panic::catch_unwind(move || w.write(8, 3));
        assert!(result.is_err());
    }

    #[test]
    fn read_past_end_errors() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read(8).is_ok());
        let err = r.read(1).unwrap_err();
        assert_eq!(err.available, 0);
    }

    #[test]
    fn read_at_matches_cursor_reader() {
        let mut rng = unroller_core::test_rng(63);
        for _ in 0..100 {
            let fields: Vec<(u64, u32)> = (0..rng.gen_range(1..16))
                .map(|_| {
                    let width = rng.gen_range(0..=64u32);
                    let value = if width == 64 {
                        rng.gen()
                    } else if width == 0 {
                        0
                    } else {
                        rng.gen::<u64>() & ((1u64 << width) - 1)
                    };
                    (value, width)
                })
                .collect();
            let mut w = BitWriter::new();
            for &(v, wd) in &fields {
                w.write(v, wd);
            }
            let bytes = w.into_bytes();
            let mut pos = 0usize;
            for &(v, wd) in &fields {
                assert_eq!(read_bits_at(&bytes, pos, wd), v, "pos {pos} width {wd}");
                pos += wd as usize;
            }
        }
    }

    #[test]
    fn write_at_overwrites_only_the_target_bits() {
        let mut rng = unroller_core::test_rng(64);
        for _ in 0..200 {
            let len = rng.gen_range(1..=12usize);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let total = len * 8;
            let width = rng.gen_range(0..=64.min(total) as u32);
            let pos = rng.gen_range(0..=total - width as usize);
            let value = if width == 64 {
                rng.gen()
            } else if width == 0 {
                0
            } else {
                rng.gen::<u64>() & ((1u64 << width) - 1)
            };
            let before = buf.clone();
            write_bits_at(&mut buf, pos, width, value);
            assert_eq!(read_bits_at(&buf, pos, width), value);
            // Every bit outside [pos, pos + width) is untouched.
            for bit in 0..total {
                if bit >= pos && bit < pos + width as usize {
                    continue;
                }
                assert_eq!(
                    read_bits_at(&buf, bit, 1),
                    read_bits_at(&before, bit, 1),
                    "bit {bit} disturbed (pos {pos}, width {width})"
                );
            }
        }
    }

    #[test]
    fn write_at_then_read_at_roundtrips_unaligned() {
        let mut buf = vec![0xffu8; 4];
        write_bits_at(&mut buf, 3, 13, 0x0aaa);
        assert_eq!(read_bits_at(&buf, 3, 13), 0x0aaa);
        assert_eq!(read_bits_at(&buf, 0, 3), 0b111, "leading bits kept");
        assert_eq!(read_bits_at(&buf, 16, 16), 0xffff, "trailing bits kept");
    }

    #[test]
    fn offset_primitives_bounds_checked() {
        let buf = [0u8; 2];
        assert!(std::panic::catch_unwind(|| read_bits_at(&buf, 9, 8)).is_err());
        let mut buf = [0u8; 2];
        let result = std::panic::catch_unwind(move || write_bits_at(&mut buf, 16, 1, 0));
        assert!(result.is_err());
    }

    #[test]
    fn zero_width_fields() {
        // Th = 1 ⇒ a 0-bit Thcnt field: writing/reading 0 bits is a
        // no-op that must not consume buffer.
        let mut w = BitWriter::new();
        w.write(0, 0);
        w.write(0x3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(0).unwrap(), 0);
        assert_eq!(r.read(2).unwrap(), 3);
    }
}
