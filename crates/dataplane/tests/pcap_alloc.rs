//! A crafted capture must not make [`PcapStream`] allocate what its
//! headers ask for.
//!
//! The file declares snaplen `0xFFFF_FFFF` and one record of captured
//! length `0xFFFF_FFF0`, in 40 bytes. A tracking `GlobalAlloc` wrapper
//! records the largest single allocation while the stream reads it: the
//! record must end the stream as [`PcapItem::Truncated`], and no
//! allocation may exceed libpcap's 262,144-byte maximum snaplen plus a
//! small slack.
//!
//! The lib crate forbids `unsafe_code`; this test file opts back in
//! only for the `GlobalAlloc` impl (the trait itself is unsafe to
//! implement), which does nothing beyond recording sizes and delegating
//! to [`System`].

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use unroller_dataplane::pcap::{PcapItem, PcapStream};

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

/// One test only: the largest-allocation mark is process-global.
#[test]
fn crafted_lengths_end_in_truncation_without_a_huge_allocation() {
    let mut capture = Vec::with_capacity(40);
    capture.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes()); // magic
    capture.extend_from_slice(&2u16.to_le_bytes()); // version major
    capture.extend_from_slice(&4u16.to_le_bytes()); // version minor
    capture.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    capture.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    capture.extend_from_slice(&0xffff_ffffu32.to_le_bytes()); // snaplen
    capture.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
    capture.extend_from_slice(&0u32.to_le_bytes()); // secs
    capture.extend_from_slice(&0u32.to_le_bytes()); // usecs
    capture.extend_from_slice(&0xffff_fff0u32.to_le_bytes()); // captured length
    capture.extend_from_slice(&64u32.to_le_bytes()); // original length
    assert_eq!(capture.len(), 40);

    LARGEST.store(0, Ordering::Relaxed);
    let mut stream = PcapStream::new(&capture[..])
        .expect("in-memory reads do not fail")
        .expect("the global header is well formed");
    let first = stream.next();
    let end = stream.next();
    let largest = LARGEST.load(Ordering::Relaxed);

    match first {
        Some(Ok(PcapItem::Truncated { index: 0, .. })) => {}
        other => panic!("expected a truncation marker, got {other:?}"),
    }
    assert!(end.is_none(), "the stream ends after the marker");
    assert!(
        largest <= MAX_SNAPLEN + SLACK,
        "largest allocation {largest} bytes exceeds the {MAX_SNAPLEN}-byte cap"
    );
}
