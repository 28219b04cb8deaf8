//! The shim header is plain data: building, decoding and processing it
//! allocates nothing.
//!
//! A counting `GlobalAlloc` wrapper tallies every allocation in the
//! process. Frames and pipelines are built first; then, over 10,000
//! frames, [`WireHeader::initial`], [`WireHeader::decode`] and
//! [`UnrollerPipeline::process_frame_in_place`] run inside the counted
//! window, which must see zero allocations. The frames mix the default
//! one-slot layout with a 16-slot layout (`c = 4`, `H = 4`).
//!
//! The lib crate forbids `unsafe_code`; this test file opts back in
//! only for the `GlobalAlloc` impl (the trait itself is unsafe to
//! implement), which does nothing beyond counting and delegating to
//! [`System`].

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use unroller_core::params::UnrollerParams;
use unroller_dataplane::header::{HeaderLayout, WireHeader};
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{EthernetHeader, UnrollerPipeline, ETH_HEADER_LEN};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FRAMES: usize = 10_000;

/// One test only: the allocation counter is process-global.
#[test]
fn header_ops_allocate_nothing_over_ten_thousand_frames() {
    let configs = [
        UnrollerParams::default(),
        UnrollerParams::default().with_c(4).with_h(4).with_z(12),
    ];
    let setups: Vec<(HeaderLayout, Vec<UnrollerPipeline>)> = configs
        .iter()
        .map(|params| {
            let pipes = (0..8)
                .map(|i| UnrollerPipeline::new(100 + i, *params).expect("valid params"))
                .collect();
            (HeaderLayout::from_params(params), pipes)
        })
        .collect();
    let mut frames: Vec<Vec<u8>> = (0..FRAMES)
        .map(|i| {
            let (layout, _) = &setups[i % setups.len()];
            build_frame(
                layout,
                &EthernetHeader::for_hosts(1, 2),
                &WireHeader::initial(layout),
                b"payload",
            )
        })
        .collect();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut reported = 0u64;
    for (i, frame) in frames.iter_mut().enumerate() {
        let (layout, pipes) = &setups[i % setups.len()];
        black_box(WireHeader::initial(layout));
        let shim_end = ETH_HEADER_LEN + layout.total_bytes();
        black_box(WireHeader::decode(layout, &frame[ETH_HEADER_LEN..shim_end]).expect("decodes"));
        // Three hops over two switches: the third revisits the first.
        for hop in [0, 1, 0] {
            let verdict = pipes[(i + hop) % pipes.len()]
                .process_frame_in_place(frame)
                .expect("well-formed frame");
            reported += verdict.reported() as u64;
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(reported > 0, "the revisits reported loops");
    assert_eq!(allocs, 0, "{allocs} allocations over {FRAMES} frames");
}
