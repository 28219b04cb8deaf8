//! A from-scratch libpcap file writer and reader, so simulated Unroller
//! frames can be inspected in Wireshark (the same facility the smoltcp
//! examples expose as `--pcap`) and captures can be replayed through the
//! engine (`unroller-engine --replay`).
//!
//! Implements the classic pcap container: a 24-byte global header
//! (magic `0xa1b2c3d4`, version 2.4, LINKTYPE_ETHERNET) followed by one
//! 16-byte record header per captured frame. Timestamps are split into
//! seconds + microseconds from the simulator's nanosecond clock. The
//! reader accepts both byte orders (the magic tells which endianness the
//! capturing host used).

/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// The classic pcap magic in the writing host's byte order.
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;

/// Length of the pcap global header.
const GLOBAL_HEADER_LEN: usize = 24;

/// Length of each per-record header.
const RECORD_HEADER_LEN: usize = 16;

/// libpcap's largest snapshot length. [`PcapStream`] never sizes a
/// record buffer above it, whatever snaplen the file declares.
const MAX_SNAPLEN: u32 = 262_144;

/// Builds a pcap capture in memory.
#[derive(Debug, Clone)]
pub struct PcapWriter {
    buf: Vec<u8>,
    snaplen: u32,
    packets: u32,
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new(65_535)
    }
}

impl PcapWriter {
    /// Creates a writer; frames longer than `snaplen` are truncated in
    /// the capture (their original length is preserved in the record
    /// header). A `snaplen` of 0 — which would silently drop every
    /// captured byte — is clamped to the conventional 65 535.
    pub fn new(snaplen: u32) -> Self {
        let snaplen = if snaplen == 0 { 65_535 } else { snaplen };
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&PCAP_MAGIC.to_le_bytes()); // magic
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&snaplen.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapWriter {
            buf,
            snaplen,
            packets: 0,
        }
    }

    /// Appends one frame captured at `time_ns`.
    pub fn push(&mut self, time_ns: u64, frame: &[u8]) {
        let secs = (time_ns / 1_000_000_000) as u32;
        let usecs = (time_ns % 1_000_000_000 / 1_000) as u32;
        let incl = (frame.len() as u32).min(self.snaplen);
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&usecs.to_le_bytes());
        self.buf.extend_from_slice(&incl.to_le_bytes());
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&frame[..incl as usize]);
        self.packets += 1;
    }

    /// Number of frames captured.
    pub fn packet_count(&self) -> u32 {
        self.packets
    }

    /// The complete pcap file contents.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes the capture to a file.
    pub fn write_to(self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.finish())
    }
}

/// Errors reading a pcap capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// The file is shorter than the 24-byte global header.
    TruncatedGlobalHeader {
        /// Bytes present.
        len: usize,
    },
    /// The first four bytes are not the classic pcap magic in either
    /// byte order (nanosecond-resolution `0xa1b23c4d` captures and
    /// pcapng are out of scope).
    BadMagic(u32),
    /// The link type is not Ethernet.
    WrongLinkType(u32),
    /// A record header or its payload runs past the end of the file.
    TruncatedRecord {
        /// Zero-based index of the offending record.
        index: usize,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::TruncatedGlobalHeader { len } => {
                write!(f, "pcap global header truncated: {len} of 24 bytes")
            }
            PcapError::BadMagic(m) => write!(f, "not a classic pcap file (magic {m:#010x})"),
            PcapError::WrongLinkType(t) => write!(f, "unsupported link type {t} (want Ethernet)"),
            PcapError::TruncatedRecord { index } => write!(f, "pcap record {index} truncated"),
        }
    }
}

impl std::error::Error for PcapError {}

/// One captured frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp (microsecond resolution widened to ns).
    pub time_ns: u64,
    /// The frame's length on the wire (may exceed `data.len()` when the
    /// capture truncated it to the snaplen).
    pub orig_len: u32,
    /// The captured bytes (at most snaplen of them).
    pub data: Vec<u8>,
}

impl PcapRecord {
    /// Whether the capture dropped trailing frame bytes (snaplen).
    pub fn truncated(&self) -> bool {
        (self.data.len() as u32) < self.orig_len
    }
}

/// Parses a classic pcap capture from memory, yielding records in file
/// order. Iteration stops at the first malformed record (after yielding
/// the error).
#[derive(Debug, Clone)]
pub struct PcapReader {
    buf: Vec<u8>,
    snaplen: u32,
    swapped: bool,
    pos: usize,
    index: usize,
    failed: bool,
}

impl PcapReader {
    /// Validates the global header and positions the reader at the
    /// first record.
    pub fn new(buf: Vec<u8>) -> Result<Self, PcapError> {
        if buf.len() < GLOBAL_HEADER_LEN {
            return Err(PcapError::TruncatedGlobalHeader { len: buf.len() });
        }
        let raw_magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        let swapped = match raw_magic {
            PCAP_MAGIC => false,
            m if m == PCAP_MAGIC.swap_bytes() => true,
            m => return Err(PcapError::BadMagic(m)),
        };
        let field = |bytes: [u8; 4]| {
            if swapped {
                u32::from_be_bytes(bytes)
            } else {
                u32::from_le_bytes(bytes)
            }
        };
        let snaplen = field(buf[16..20].try_into().expect("4 bytes"));
        let linktype = field(buf[20..24].try_into().expect("4 bytes"));
        if linktype != LINKTYPE_ETHERNET {
            return Err(PcapError::WrongLinkType(linktype));
        }
        Ok(PcapReader {
            buf,
            snaplen,
            swapped,
            pos: GLOBAL_HEADER_LEN,
            index: 0,
            failed: false,
        })
    }

    /// Loads a capture file.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Result<Self, PcapError>> {
        Ok(Self::new(std::fs::read(path)?))
    }

    /// The capture's declared snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    fn read_u32(&self, at: usize) -> u32 {
        let bytes: [u8; 4] = self.buf[at..at + 4].try_into().expect("4 bytes");
        if self.swapped {
            u32::from_be_bytes(bytes)
        } else {
            u32::from_le_bytes(bytes)
        }
    }
}

impl Iterator for PcapReader {
    type Item = Result<PcapRecord, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos == self.buf.len() {
            return None;
        }
        if self.pos + RECORD_HEADER_LEN > self.buf.len() {
            self.failed = true;
            return Some(Err(PcapError::TruncatedRecord { index: self.index }));
        }
        let secs = self.read_u32(self.pos) as u64;
        let usecs = self.read_u32(self.pos + 4) as u64;
        let incl = self.read_u32(self.pos + 8) as usize;
        let orig_len = self.read_u32(self.pos + 12);
        let start = self.pos + RECORD_HEADER_LEN;
        if incl > self.buf.len() - start {
            self.failed = true;
            return Some(Err(PcapError::TruncatedRecord { index: self.index }));
        }
        self.pos = start + incl;
        self.index += 1;
        Some(Ok(PcapRecord {
            time_ns: secs * 1_000_000_000 + usecs * 1_000,
            orig_len,
            data: self.buf[start..start + incl].to_vec(),
        }))
    }
}

/// An item yielded by [`PcapStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapItem {
    /// A fully read record.
    Record(PcapRecord),
    /// The capture ended mid-record (a crashed or still-writing
    /// capturer): everything before this point was read intact, the
    /// partial record's bytes are accounted here, and iteration ends.
    Truncated {
        /// Zero-based index of the partial record.
        index: usize,
        /// Bytes of the partial record consumed (header + payload).
        bytes_dropped: usize,
    },
}

/// A chunked, bounded-memory pcap reader over any [`std::io::Read`]:
/// holds one record in memory at a time, so multi-GB captures stream in
/// `O(snaplen)` space (what `unroller-analytics` requires), and no
/// record buffer exceeds libpcap's 262,144-byte maximum snaplen.
///
/// Unlike [`PcapReader`], a capture cut off mid-record — the common
/// fate of the *final* record when the capturing process dies — is not
/// an error: the stream yields every intact record, then one
/// [`PcapItem::Truncated`] marker, then ends.
#[derive(Debug)]
pub struct PcapStream<R: std::io::Read> {
    inner: R,
    snaplen: u32,
    swapped: bool,
    index: usize,
    done: bool,
}

/// Reads from `r` until `buf` is full or EOF; returns the bytes read.
fn read_full(r: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

impl PcapStream<std::io::BufReader<std::fs::File>> {
    /// Opens a capture file for streaming (buffered).
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Result<Self, PcapError>> {
        let file = std::fs::File::open(path)?;
        Self::new(std::io::BufReader::new(file))
    }
}

impl<R: std::io::Read> PcapStream<R> {
    /// Validates the global header and positions the stream at the
    /// first record. The outer `Result` is I/O, the inner one format.
    pub fn new(mut inner: R) -> std::io::Result<Result<Self, PcapError>> {
        let mut hdr = [0u8; GLOBAL_HEADER_LEN];
        let got = read_full(&mut inner, &mut hdr)?;
        if got < GLOBAL_HEADER_LEN {
            return Ok(Err(PcapError::TruncatedGlobalHeader { len: got }));
        }
        let raw_magic = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes"));
        let swapped = match raw_magic {
            PCAP_MAGIC => false,
            m if m == PCAP_MAGIC.swap_bytes() => true,
            m => return Ok(Err(PcapError::BadMagic(m))),
        };
        let field = |bytes: [u8; 4]| {
            if swapped {
                u32::from_be_bytes(bytes)
            } else {
                u32::from_le_bytes(bytes)
            }
        };
        let snaplen = field(hdr[16..20].try_into().expect("4 bytes"));
        let linktype = field(hdr[20..24].try_into().expect("4 bytes"));
        if linktype != LINKTYPE_ETHERNET {
            return Ok(Err(PcapError::WrongLinkType(linktype)));
        }
        Ok(Ok(PcapStream {
            inner,
            snaplen,
            swapped,
            index: 0,
            done: false,
        }))
    }

    /// The capture's declared snapshot length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    fn field(&self, bytes: [u8; 4]) -> u32 {
        if self.swapped {
            u32::from_be_bytes(bytes)
        } else {
            u32::from_le_bytes(bytes)
        }
    }
}

impl<R: std::io::Read> Iterator for PcapStream<R> {
    type Item = std::io::Result<PcapItem>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut hdr = [0u8; RECORD_HEADER_LEN];
        let got = match read_full(&mut self.inner, &mut hdr) {
            Ok(n) => n,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        if got == 0 {
            self.done = true;
            return None; // clean end of capture
        }
        if got < RECORD_HEADER_LEN {
            self.done = true;
            return Some(Ok(PcapItem::Truncated {
                index: self.index,
                bytes_dropped: got,
            }));
        }
        let secs = self.field(hdr[0..4].try_into().expect("4 bytes")) as u64;
        let usecs = self.field(hdr[4..8].try_into().expect("4 bytes")) as u64;
        let incl = self.field(hdr[8..12].try_into().expect("4 bytes")) as usize;
        let orig_len = self.field(hdr[12..16].try_into().expect("4 bytes"));
        // A captured length beyond the declared snaplen can only come
        // from a corrupt or torn header — treat it like truncation
        // rather than attempting an unbounded allocation. The snaplen is
        // as untrusted as the length, so libpcap's maximum caps it.
        // (Snaplen 0 in the header gets the same conventional clamp as
        // the writer.)
        let limit = if self.snaplen == 0 {
            65_535
        } else {
            self.snaplen.min(MAX_SNAPLEN)
        };
        if incl > limit as usize {
            self.done = true;
            return Some(Ok(PcapItem::Truncated {
                index: self.index,
                bytes_dropped: RECORD_HEADER_LEN,
            }));
        }
        let mut data = vec![0u8; incl];
        let body = match read_full(&mut self.inner, &mut data) {
            Ok(n) => n,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        if body < incl {
            self.done = true;
            return Some(Ok(PcapItem::Truncated {
                index: self.index,
                bytes_dropped: RECORD_HEADER_LEN + body,
            }));
        }
        self.index += 1;
        Some(Ok(PcapItem::Record(PcapRecord {
            time_ns: secs * 1_000_000_000 + usecs * 1_000,
            orig_len,
            data,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_header_layout() {
        let w = PcapWriter::new(1500);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]),
            1500
        );
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn records_carry_timestamps_and_frames() {
        let mut w = PcapWriter::default();
        let frame = [0xaau8; 60];
        w.push(3_000_123_000, &frame); // 3 s + 123 µs
        assert_eq!(w.packet_count(), 1);
        let bytes = w.finish();
        let rec = &bytes[24..];
        assert_eq!(u32::from_le_bytes(rec[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(rec[4..8].try_into().unwrap()), 123);
        assert_eq!(u32::from_le_bytes(rec[8..12].try_into().unwrap()), 60);
        assert_eq!(u32::from_le_bytes(rec[12..16].try_into().unwrap()), 60);
        assert_eq!(&rec[16..76], &frame);
    }

    #[test]
    fn snaplen_truncates_but_preserves_original_length() {
        let mut w = PcapWriter::new(16);
        let frame = [0x55u8; 100];
        w.push(0, &frame);
        let bytes = w.finish();
        let rec = &bytes[24..];
        assert_eq!(u32::from_le_bytes(rec[8..12].try_into().unwrap()), 16);
        assert_eq!(u32::from_le_bytes(rec[12..16].try_into().unwrap()), 100);
        assert_eq!(bytes.len(), 24 + 16 + 16);
    }

    #[test]
    fn multiple_records_concatenate() {
        let mut w = PcapWriter::default();
        w.push(0, &[1, 2, 3]);
        w.push(1_000, &[4, 5]);
        assert_eq!(w.packet_count(), 2);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 24 + (16 + 3) + (16 + 2));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = PcapWriter::default();
        w.push(3_000_123_000, &[0xaa; 60]);
        w.push(3_000_124_000, &[0x55; 9]);
        let mut r = PcapReader::new(w.finish()).unwrap();
        assert_eq!(r.snaplen(), 65_535);
        let a = r.next().unwrap().unwrap();
        assert_eq!(a.time_ns, 3_000_123_000);
        assert_eq!(a.orig_len, 60);
        assert_eq!(a.data, vec![0xaa; 60]);
        assert!(!a.truncated());
        let b = r.next().unwrap().unwrap();
        assert_eq!(b.data, vec![0x55; 9]);
        assert!(r.next().is_none());
        assert!(r.next().is_none(), "fused at end of capture");
    }

    #[test]
    fn zero_snaplen_is_clamped_so_frames_survive() {
        // Regression: PcapWriter::new(0) used to emit records whose
        // every byte was dropped (incl == 0). The clamp keeps them.
        let mut w = PcapWriter::new(0);
        w.push(7_000, &[1, 2, 3, 4]);
        let mut r = PcapReader::new(w.finish()).unwrap();
        assert_eq!(r.snaplen(), 65_535);
        let rec = r.next().unwrap().unwrap();
        assert_eq!(rec.data, vec![1, 2, 3, 4]);
        assert_eq!(rec.orig_len, 4);
        assert!(!rec.truncated());
    }

    #[test]
    fn tiny_snaplen_roundtrips_record_headers() {
        let mut w = PcapWriter::new(16);
        w.push(1_000_000, &[0x11; 100]);
        w.push(2_000_000, &[0x22; 8]); // shorter than snaplen — intact
        let mut r = PcapReader::new(w.finish()).unwrap();
        assert_eq!(r.snaplen(), 16);
        let a = r.next().unwrap().unwrap();
        assert_eq!(a.time_ns, 1_000_000);
        assert_eq!(a.orig_len, 100);
        assert_eq!(a.data, vec![0x11; 16]);
        assert!(a.truncated());
        let b = r.next().unwrap().unwrap();
        assert_eq!(b.orig_len, 8);
        assert_eq!(b.data, vec![0x22; 8]);
        assert!(!b.truncated());
        assert!(r.next().is_none());
    }

    #[test]
    fn reader_accepts_big_endian_captures() {
        // Hand-build the same capture a big-endian host would write.
        let mut buf = Vec::new();
        buf.extend_from_slice(&PCAP_MAGIC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1500u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&3u32.to_be_bytes()); // secs
        buf.extend_from_slice(&123u32.to_be_bytes()); // usecs
        buf.extend_from_slice(&2u32.to_be_bytes()); // incl
        buf.extend_from_slice(&2u32.to_be_bytes()); // orig
        buf.extend_from_slice(&[0xab, 0xcd]);
        let mut r = PcapReader::new(buf).unwrap();
        assert_eq!(r.snaplen(), 1500);
        let rec = r.next().unwrap().unwrap();
        assert_eq!(rec.time_ns, 3_000_123_000);
        assert_eq!(rec.data, vec![0xab, 0xcd]);
    }

    #[test]
    fn reader_rejects_malformed_captures() {
        assert_eq!(
            PcapReader::new(vec![0u8; 10]).unwrap_err(),
            PcapError::TruncatedGlobalHeader { len: 10 }
        );
        let mut not_pcap = PcapWriter::default().finish();
        not_pcap[0..4].copy_from_slice(&0x0a0d_0d0au32.to_le_bytes()); // pcapng
        assert!(matches!(
            PcapReader::new(not_pcap),
            Err(PcapError::BadMagic(_))
        ));
        let mut wrong_link = PcapWriter::default().finish();
        wrong_link[20..24].copy_from_slice(&101u32.to_le_bytes()); // RAW
        assert_eq!(
            PcapReader::new(wrong_link).unwrap_err(),
            PcapError::WrongLinkType(101)
        );
    }

    #[test]
    fn stream_roundtrips_and_matches_reader() {
        let mut w = PcapWriter::default();
        w.push(3_000_123_000, &[0xaa; 60]);
        w.push(3_000_124_000, &[0x55; 9]);
        w.push(4_000_000_000, &[0x11; 1]);
        let bytes = w.finish();
        let via_reader: Vec<PcapRecord> = PcapReader::new(bytes.clone())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mut s = PcapStream::new(&bytes[..]).unwrap().unwrap();
        assert_eq!(s.snaplen(), 65_535);
        let via_stream: Vec<PcapRecord> = (&mut s)
            .map(|item| match item.unwrap() {
                PcapItem::Record(r) => r,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(via_stream, via_reader);
        assert_eq!(via_stream.len(), 3);
        assert!(s.next().is_none(), "fused at end of capture");
    }

    #[test]
    fn stream_recovers_from_truncated_final_payload() {
        let mut w = PcapWriter::default();
        w.push(0, &[1, 2, 3]);
        w.push(0, &[4, 5, 6]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2); // chop the last record's tail
        let mut s = PcapStream::new(&bytes[..]).unwrap().unwrap();
        match s.next().unwrap().unwrap() {
            PcapItem::Record(r) => assert_eq!(r.data, vec![1, 2, 3]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            s.next().unwrap().unwrap(),
            PcapItem::Truncated {
                index: 1,
                bytes_dropped: RECORD_HEADER_LEN + 1,
            }
        );
        assert!(s.next().is_none(), "stream ends after the marker");
    }

    #[test]
    fn stream_recovers_from_truncated_final_header() {
        let mut w = PcapWriter::default();
        w.push(0, &[1, 2, 3]);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0u8; 5]); // 5 bytes of a torn header
        let mut s = PcapStream::new(&bytes[..]).unwrap().unwrap();
        assert!(matches!(s.next().unwrap().unwrap(), PcapItem::Record(_)));
        assert_eq!(
            s.next().unwrap().unwrap(),
            PcapItem::Truncated {
                index: 1,
                bytes_dropped: 5,
            }
        );
        assert!(s.next().is_none());
    }

    #[test]
    fn stream_treats_absurd_lengths_as_truncation() {
        let mut bytes = PcapWriter::new(1500).finish();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // secs
        bytes.extend_from_slice(&0u32.to_le_bytes()); // usecs
        bytes.extend_from_slice(&0x7fff_ffffu32.to_le_bytes()); // incl >> snaplen
        bytes.extend_from_slice(&4u32.to_le_bytes()); // orig
        let mut s = PcapStream::new(&bytes[..]).unwrap().unwrap();
        assert_eq!(
            s.next().unwrap().unwrap(),
            PcapItem::Truncated {
                index: 0,
                bytes_dropped: RECORD_HEADER_LEN,
            }
        );
        assert!(s.next().is_none());
    }

    #[test]
    fn stream_accepts_big_endian_and_rejects_bad_headers() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&PCAP_MAGIC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1500u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&3u32.to_be_bytes()); // secs
        buf.extend_from_slice(&123u32.to_be_bytes()); // usecs
        buf.extend_from_slice(&2u32.to_be_bytes()); // incl
        buf.extend_from_slice(&2u32.to_be_bytes()); // orig
        buf.extend_from_slice(&[0xab, 0xcd]);
        let mut s = PcapStream::new(&buf[..]).unwrap().unwrap();
        assert_eq!(s.snaplen(), 1500);
        match s.next().unwrap().unwrap() {
            PcapItem::Record(r) => {
                assert_eq!(r.time_ns, 3_000_123_000);
                assert_eq!(r.data, vec![0xab, 0xcd]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            PcapStream::new(&[0u8; 10][..]).unwrap().unwrap_err(),
            PcapError::TruncatedGlobalHeader { len: 10 }
        );
        let mut wrong_link = PcapWriter::default().finish();
        wrong_link[20..24].copy_from_slice(&101u32.to_le_bytes());
        assert_eq!(
            PcapStream::new(&wrong_link[..]).unwrap().unwrap_err(),
            PcapError::WrongLinkType(101)
        );
    }

    #[test]
    fn reader_reports_truncated_records_then_fuses() {
        let mut w = PcapWriter::default();
        w.push(0, &[1, 2, 3]);
        w.push(0, &[4, 5, 6]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2); // chop the last record's tail
        let mut r = PcapReader::new(bytes).unwrap();
        assert!(r.next().unwrap().is_ok());
        assert_eq!(
            r.next().unwrap().unwrap_err(),
            PcapError::TruncatedRecord { index: 1 }
        );
        assert!(r.next().is_none(), "iterator fuses after an error");
    }
}
