//! Dataplane walkthrough: watch the bit-packed Unroller shim evolve as
//! a real Ethernet frame crosses a chain of switch pipelines and gets
//! trapped in a loop.
//!
//! ```sh
//! cargo run --release --example dataplane_pipeline
//! ```
//!
//! This drives the P4-model code path (validate → decode → 256-entry
//! phase LUT → compare/min-update → encode) byte-for-byte, and prints
//! the resource report that substitutes for the paper's Table 4.

use unroller::core::{UnrollerParams, Verdict};
use unroller::dataplane::header::{HeaderLayout, WireHeader};
use unroller::dataplane::parser::{build_frame, EthernetHeader, ETH_HEADER_LEN};
use unroller::dataplane::pcap::PcapWriter;
use unroller::dataplane::pipeline::UnrollerPipeline;

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    // A compressed configuration so the shim is interestingly small:
    // z = 12-bit hashed IDs, threshold Th = 2.
    let params = UnrollerParams::default().with_z(12).with_th(2);
    let layout = HeaderLayout::from_params(&params);
    println!(
        "shim layout: Xcnt {} bits + Thcnt {} bits + {}x{} ID bits = {} bits ({} bytes on the wire)",
        layout.xcnt_bits,
        layout.thcnt_bits,
        layout.slots,
        layout.z,
        layout.total_bits(),
        layout.total_bytes()
    );

    // The packet's journey: three access switches, then a 4-switch loop.
    let path: Vec<u32> = vec![0xA1, 0xB2, 0xC3];
    let loop_switches: Vec<u32> = vec![0x11, 0x22, 0x33, 0x44];
    let pipelines: Vec<UnrollerPipeline> = path
        .iter()
        .chain(loop_switches.iter().cycle().take(40))
        .map(|&id| UnrollerPipeline::new(id, params).expect("valid params"))
        .collect();

    let eth = EthernetHeader::for_hosts(1, 2);
    let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"payload");
    println!(
        "\ninitial frame ({} bytes): eth[14] | shim[{}] | payload[7]",
        frame.len(),
        layout.total_bytes()
    );

    // Capture the frame as it appears at every hop, Wireshark-readable.
    let mut pcap = PcapWriter::default();
    pcap.push(0, &frame);

    for (i, pipe) in pipelines.iter().enumerate() {
        let verdict = pipe
            .process_frame_in_place(&mut frame)
            .expect("well-formed frame");
        pcap.push((i as u64 + 1) * 1_500, &frame);
        let shim_bytes = &frame[ETH_HEADER_LEN..ETH_HEADER_LEN + layout.total_bytes()];
        let shim = WireHeader::decode(&layout, shim_bytes).expect("shim decodes");
        println!(
            "hop {:>2} @ switch {:#04x}: shim = [{}]  Xcnt={:>3} Thcnt={} SWid={:#05x}",
            i + 1,
            pipe.switch_id(),
            hex(shim_bytes),
            shim.xcnt,
            shim.thcnt,
            shim.swids[0],
        );
        if verdict == Verdict::LoopReported {
            println!(
                "==> switch {:#04x} REPORTS THE LOOP at hop {} (packet dropped, controller notified)",
                pipe.switch_id(),
                i + 1
            );
            break;
        }
    }

    let captured = pcap.packet_count();
    let path = std::env::temp_dir().join("unroller_pipeline.pcap");
    pcap.write_to(&path).expect("pcap written");
    println!(
        "\ncaptured {} frames to {} (open in Wireshark; the shim follows the\n\
         0x88B5 EtherType)",
        captured,
        path.display()
    );

    println!("\n{}", pipelines[0].resources());
}
