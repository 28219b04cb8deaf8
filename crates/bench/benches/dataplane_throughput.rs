//! The Table 4 throughput analogue: packets per second through the
//! dataplane pipeline model (the paper reports ~220 Mpps on Xilinx /
//! ~190 Mpps on Intel FPGAs, i.e. > 100 Gbps for minimum-sized frames).
//!
//! `header_only` measures the control block alone (the work the
//! synthesized logic does); `full_frame` adds the frame around it: one
//! switch's validate → decode → control block → encode of the
//! bit-packed shim. Criterion reports ns/packet — invert for Mpps.
//! `benches/hotpath.rs` measures the same paths, plus multi-hop walks,
//! into the machine-readable `results/BENCH_hotpath.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use unroller_core::params::UnrollerParams;
use unroller_dataplane::header::{HeaderLayout, WireHeader};
use unroller_dataplane::parser::{build_frame, EthernetHeader};
use unroller_dataplane::pipeline::UnrollerPipeline;

fn bench_header_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataplane_header_only");
    group.throughput(Throughput::Elements(1));
    for (name, params) in [
        ("default_b4", UnrollerParams::default()),
        ("z7_th4", UnrollerParams::default().with_z(7).with_th(4)),
        (
            "c2h2_z8",
            UnrollerParams::default().with_c(2).with_h(2).with_z(8),
        ),
        ("b3_lut", UnrollerParams::default().with_b(3)),
    ] {
        let layout = HeaderLayout::from_params(&params);
        let pipes: Vec<UnrollerPipeline> = (0..16u32)
            .map(|i| UnrollerPipeline::new(0x1000 + i, params).unwrap())
            .collect();
        let mut hdr = WireHeader::initial(&layout);
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                if i.is_multiple_of(64) {
                    hdr = WireHeader::initial(&layout);
                }
                let v = pipes[i % pipes.len()].process_header(black_box(&mut hdr));
                i += 1;
                black_box(v)
            })
        });
    }
    group.finish();
}

fn bench_full_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataplane_full_frame");
    group.throughput(Throughput::Elements(1));
    let params = UnrollerParams::default();
    let layout = HeaderLayout::from_params(&params);
    // Minimum-sized Ethernet payload (64-byte frame total).
    let payload = vec![0u8; 64usize.saturating_sub(14 + layout.total_bytes())];
    let eth = EthernetHeader::for_hosts(1, 2);
    let template = build_frame(&layout, &eth, &WireHeader::initial(&layout), &payload);
    let pipes: Vec<UnrollerPipeline> = (0..16u32)
        .map(|i| UnrollerPipeline::new(0x2000 + i, params).unwrap())
        .collect();
    let mut frame = template.clone();
    let mut i = 0usize;
    group.bench_function("min_sized_frame_in_place", |b| {
        b.iter(|| {
            if i.is_multiple_of(64) {
                frame.copy_from_slice(&template);
            }
            let v = pipes[i % pipes.len()]
                .process_frame_in_place(black_box(&mut frame))
                .unwrap();
            i += 1;
            black_box(v)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_header_only, bench_full_frame);
criterion_main!(benches);
