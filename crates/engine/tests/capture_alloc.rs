//! Damaged captures must not make the pcap readers allocate what their
//! headers ask for.
//!
//! The inputs are arbitrary bytes and mutations of a
//! [`CaptureSource`](unroller_engine::CaptureSource) capture
//! (truncation, bit flips, inflated captured length or snaplen). A
//! tracking `GlobalAlloc` wrapper, as in the dataplane's
//! `tests/pcap_alloc.rs`, records the largest single allocation while
//! [`PcapReader`] and [`PcapStream`] read each one: it may not exceed
//! the input's length or libpcap's 262,144-byte maximum snaplen,
//! whichever is larger, plus a small slack.
//!
//! The lib crate forbids `unsafe_code`; this test file opts back in
//! only for the `GlobalAlloc` impl (the trait itself is unsafe to
//! implement), which does nothing beyond recording sizes and delegating
//! to [`System`].

#![allow(unsafe_code)]

mod mutated_capture;

use mutated_capture::{apply, mutation, seed_capture};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use unroller_dataplane::{PcapReader, PcapStream};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct TrackingAlloc;

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// libpcap's maximum snaplen.
const MAX_SNAPLEN: usize = 262_144;

/// Headroom for the test's own bookkeeping allocations.
const SLACK: usize = 4_096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One test only: the largest-allocation mark is process-global.
    #[test]
    fn damaged_captures_allocate_at_most_their_length_or_max_snaplen(m in mutation()) {
        let bytes = apply(&seed_capture(), &m);
        let owned = bytes.clone();
        LARGEST.store(0, Ordering::Relaxed);
        if let Ok(reader) = PcapReader::new(owned) {
            reader.for_each(drop);
        }
        if let Ok(stream) = PcapStream::new(&bytes[..]).expect("in-memory reads do not fail") {
            stream.for_each(drop);
        }
        let largest = LARGEST.load(Ordering::Relaxed);
        let cap = bytes.len().max(MAX_SNAPLEN) + SLACK;
        prop_assert!(
            largest <= cap,
            "largest allocation {} bytes exceeds {} for a {}-byte input ({:?})",
            largest,
            cap,
            bytes.len(),
            m
        );
    }
}
