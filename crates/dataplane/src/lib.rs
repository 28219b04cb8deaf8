//! # unroller-dataplane
//!
//! A P4-like programmable-dataplane model of Unroller (paper §4): the
//! same algorithm as `unroller-core`, but implemented the way a switch
//! pipeline must — a bit-packed wire header, per-switch registers with
//! pre-hashed identifiers, and a 256-entry phase lookup table indexed by
//! the 8-bit hop counter.
//!
//! * [`bitio`] — MSB-first bit-granular serialization.
//! * [`header`] — the Table 3 shim layout ([`header::WireHeader`]).
//! * [`parser`] — Ethernet framing: the header, the EtherType and the
//!   frame builder.
//! * [`pipeline`] — the ingress control block
//!   ([`pipeline::UnrollerPipeline`]), bit-exact against the software
//!   detector, and the validated frame view it runs on
//!   ([`pipeline::ShimView`]).
//! * [`resources`] — the Table 4 substitute resource accounting.
//!
//! ```
//! use unroller_dataplane::header::{HeaderLayout, WireHeader};
//! use unroller_dataplane::pipeline::UnrollerPipeline;
//! use unroller_core::prelude::*;
//!
//! let params = UnrollerParams::default();
//! let layout = HeaderLayout::from_params(&params);
//! let mut shim = WireHeader::initial(&layout);
//!
//! // Two switches ping-ponging a packet: 7 → 9 → 7 reports.
//! let s7 = UnrollerPipeline::new(7, params).unwrap();
//! let s9 = UnrollerPipeline::new(9, params).unwrap();
//! assert!(!s7.process_header(&mut shim).reported());
//! assert!(!s9.process_header(&mut shim).reported());
//! assert!(s7.process_header(&mut shim).reported());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod header;
pub mod p4ast;
pub mod p4gen;
pub mod parser;
pub mod pcap;
pub mod pipeline;
pub mod resources;

pub use header::{HeaderLayout, WireHeader};
pub use parser::{EthernetHeader, FrameError, ETHERTYPE_UNROLLER, ETH_HEADER_LEN};
pub use pcap::{PcapError, PcapItem, PcapReader, PcapRecord, PcapStream, PcapWriter};
pub use pipeline::UnrollerPipeline;
pub use resources::ResourceReport;
