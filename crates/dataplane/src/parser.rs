//! Ethernet framing for the Unroller shim.
//!
//! The simulator and examples carry Unroller state in a shim header
//! between the Ethernet header and the payload, tagged with an
//! experimental EtherType — the same place an INT shim would sit. This
//! module is the framing only: the Ethernet header, the EtherType, the
//! frame builder and the [`FrameError`] a malformed frame gets. The
//! frame is validated, and the shim decoded and written back, by
//! [`crate::pipeline::ShimView`].
//!
//! ```text
//! +----------------+------------------+-------------+
//! | Ethernet (14B) | Unroller shim    | payload ... |
//! |  dst src type  | (bit-packed)     |             |
//! +----------------+------------------+-------------+
//! ```

use crate::header::{HeaderLayout, WireHeader};

/// Experimental/private EtherType carrying the Unroller shim.
pub const ETHERTYPE_UNROLLER: u16 = 0x88B5;

/// Length of the Ethernet header.
pub const ETH_HEADER_LEN: usize = 14;

/// A parsed Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: [u8; 6],
    /// Source MAC address.
    pub src: [u8; 6],
    /// EtherType ([`ETHERTYPE_UNROLLER`] for frames carrying a shim).
    pub ethertype: u16,
}

impl EthernetHeader {
    /// A header with locally-administered unicast MACs derived from
    /// small host numbers (handy in examples and tests).
    pub fn for_hosts(src_host: u32, dst_host: u32) -> Self {
        let mac = |h: u32| {
            let b = h.to_be_bytes();
            [0x02, 0x00, b[0], b[1], b[2], b[3]]
        };
        EthernetHeader {
            dst: mac(dst_host),
            src: mac(src_host),
            ethertype: ETHERTYPE_UNROLLER,
        }
    }

    /// Recovers `(src_host, dst_host)` from a header whose MACs follow
    /// the [`EthernetHeader::for_hosts`] pattern; `None` for foreign
    /// MACs (e.g. frames replayed from a capture taken elsewhere).
    pub fn host_pair(&self) -> Option<(u32, u32)> {
        let host = |mac: &[u8; 6]| {
            (mac[0] == 0x02 && mac[1] == 0x00)
                .then(|| u32::from_be_bytes([mac[2], mac[3], mac[4], mac[5]]))
        };
        Some((host(&self.src)?, host(&self.dst)?))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst);
        out.extend_from_slice(&self.src);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
    }

    /// Parses the header from the front of `bytes`; `None` when fewer
    /// than [`ETH_HEADER_LEN`] bytes are present.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < ETH_HEADER_LEN {
            return None;
        }
        Some(EthernetHeader {
            dst: bytes[0..6].try_into().expect("6 bytes"),
            src: bytes[6..12].try_into().expect("6 bytes"),
            ethertype: u16::from_be_bytes([bytes[12], bytes[13]]),
        })
    }
}

/// Framing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than an Ethernet header + shim.
    TooShort {
        /// Bytes present.
        len: usize,
        /// Bytes needed for the headers.
        need: usize,
    },
    /// The EtherType does not carry an Unroller shim.
    WrongEthertype(u16),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { len, need } => {
                write!(f, "frame too short: {len} bytes, need {need}")
            }
            FrameError::WrongEthertype(t) => write!(f, "unexpected ethertype {t:#06x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Builds a complete frame: Ethernet header, shim, payload.
pub fn build_frame(
    layout: &HeaderLayout,
    eth: &EthernetHeader,
    shim: &WireHeader,
    payload: &[u8],
) -> Vec<u8> {
    let shim_bytes = shim.encode(layout);
    let mut frame = Vec::with_capacity(ETH_HEADER_LEN + shim_bytes.len() + payload.len());
    eth.encode_into(&mut frame);
    frame.extend_from_slice(&shim_bytes);
    frame.extend_from_slice(payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use unroller_core::params::UnrollerParams;

    fn layout() -> HeaderLayout {
        HeaderLayout::from_params(&UnrollerParams::default().with_c(2).with_th(4))
    }

    #[test]
    fn frame_roundtrip() {
        let layout = layout();
        let eth = EthernetHeader::for_hosts(1, 2);
        let shim = WireHeader {
            xcnt: 17,
            thcnt: 2,
            swids: vec![0xdeadbeef, 0x12345678],
        };
        let payload = b"hello, loops";
        let frame = build_frame(&layout, &eth, &shim, payload);
        assert_eq!(EthernetHeader::decode(&frame), Some(eth));
        let shim_end = ETH_HEADER_LEN + layout.total_bytes();
        let shim2 = WireHeader::decode(&layout, &frame[ETH_HEADER_LEN..shim_end]).unwrap();
        assert_eq!(shim2, shim);
        assert_eq!(&frame[shim_end..], payload);
    }

    #[test]
    fn host_macs_are_locally_administered() {
        let eth = EthernetHeader::for_hosts(3, 4);
        assert_eq!(eth.src[0] & 0x02, 0x02);
        assert_eq!(eth.dst[0] & 0x01, 0); // unicast
        assert_ne!(eth.src, eth.dst);
    }

    #[test]
    fn host_pair_roundtrips_and_rejects_foreign_macs() {
        assert_eq!(
            EthernetHeader::for_hosts(3, 0x00ab_cdef).host_pair(),
            Some((3, 0x00ab_cdef))
        );
        let mut eth = EthernetHeader::for_hosts(1, 2);
        eth.src = [0xde, 0xad, 0xbe, 0xef, 0x00, 0x01];
        assert_eq!(eth.host_pair(), None);
    }
}
