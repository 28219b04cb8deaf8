//! The wire-frame hot-path baseline: a machine-readable benchmark of
//! the ways a packet moves through the Unroller control block, in
//! ns/hop.
//!
//! Paths measured (single-threaded, default parameters, 64-byte
//! frames, 16 distinct switch pipelines round-robined so the walk
//! resembles a real multi-hop journey):
//!
//! * `struct_path` — [`UnrollerPipeline::process_header`] on a decoded
//!   [`WireHeader`]: the control block alone, no wire format in sight.
//! * `walk_path_5`, `walk_path_16` — [`unroller_engine::walk`], the
//!   engine's one walk, over routes of 5 and 16 hops: one
//!   frame validation and one decode per walk, `process_header` at
//!   every hop, one encode at the end, the shim re-zeroed between walks
//!   as for a fresh packet. Engine traffic on `wan:200` averages about
//!   5.4 hops per packet.
//! * `frame_in_place_path` — [`UnrollerPipeline::process_frame_in_place`]:
//!   a walk of a single hop, paying the validation, the decode and the
//!   encode at every hop.
//!
//! The engine end to end is measured by `perfbench`
//! (`python3 perfbench/run.py`), not here.
//!
//! Output is JSON (written with [`unroller_engine::Json`], schema
//! documented in `results/README.md`):
//!
//! ```text
//! cargo bench -p unroller-bench --bench hotpath -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks iteration counts for CI smoke runs; the committed
//! baseline `results/BENCH_hotpath.json` is a full run. CI's
//! `bench-smoke` job asserts the output parses and that a 5-hop walk
//! costs no more per hop than the one-hop frame op: decoding and
//! encoding once per walk is the premise of the engine's walk.

use std::hint::black_box;
use std::time::Instant;
use unroller_core::UnrollerParams;
use unroller_dataplane::header::{HeaderLayout, WireHeader};
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{EthernetHeader, UnrollerPipeline, ETH_HEADER_LEN};
use unroller_engine::{walk, Json};

const SWITCHES: u32 = 16;
/// Reset the walked header/frame to its initial state every this many
/// hops, bounding `thcnt` growth the way a real TTL-bounded walk does.
const RESET_EVERY: usize = 64;

struct PathStats {
    hops: u64,
    ns_per_hop: f64,
    headers_per_sec: f64,
}

impl PathStats {
    fn from_total(total_ns: u128, hops: u64) -> Self {
        let ns_per_hop = total_ns as f64 / hops as f64;
        PathStats {
            hops,
            ns_per_hop,
            headers_per_sec: 1.0e9 / ns_per_hop,
        }
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("iters", Json::UInt(self.hops));
        obj.set("ns_per_hop", Json::Float(self.ns_per_hop));
        obj.set("headers_per_sec", Json::Float(self.headers_per_sec));
        obj
    }
}

/// Times `hop` for `iters` iterations after a small warmup, taking the
/// best of three samples to shave scheduler noise.
fn time_path(iters: u64, mut hop: impl FnMut(usize)) -> u128 {
    for i in 0..(iters / 10).max(1) as usize {
        hop(i);
    }
    let mut best = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..iters as usize {
            hop(i);
        }
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

fn bench_struct_path(pipes: &[UnrollerPipeline], layout: &HeaderLayout, iters: u64) -> PathStats {
    let mut hdr = WireHeader::initial(layout);
    let total = time_path(iters, |i| {
        if i % RESET_EVERY == 0 {
            hdr = WireHeader::initial(layout);
        }
        black_box(pipes[i % pipes.len()].process_header(black_box(&mut hdr)));
    });
    PathStats::from_total(total, iters)
}

/// Times walks of `hops` hops, about `iters` hops in all, and reports
/// ns per hop. Walk `w` starts at pipeline `w * hops`, so consecutive
/// walks cover different switches, and no walk revisits one (nor needs
/// a TTL).
fn bench_walk_path(
    pipes: &[UnrollerPipeline],
    layout: &HeaderLayout,
    template: &[u8],
    hops: usize,
    iters: u64,
) -> PathStats {
    let mut frame = template.to_vec();
    let shim_end = ETH_HEADER_LEN + layout.total_bytes();
    let mut hdr = WireHeader::initial(layout);
    let walks = iters / hops as u64;
    let total = time_path(walks, |w| {
        frame[ETH_HEADER_LEN..shim_end].fill(0);
        let nodes = (0..hops).map(|hop| (w * hops + hop) % pipes.len());
        let frame = black_box(&mut frame[..]);
        black_box(walk(pipes, layout, nodes, u32::MAX, frame, &mut hdr, None));
    });
    PathStats::from_total(total, walks * hops as u64)
}

fn bench_frame_in_place_path(pipes: &[UnrollerPipeline], template: &[u8], iters: u64) -> PathStats {
    let mut frame = template.to_vec();
    let total = time_path(iters, |i| {
        if i % RESET_EVERY == 0 {
            frame.copy_from_slice(template);
        }
        black_box(
            pipes[i % pipes.len()]
                .process_frame_in_place(black_box(&mut frame))
                .unwrap(),
        );
    });
    PathStats::from_total(total, iters)
}

fn main() {
    let mut quick = false;
    // `cargo bench` runs with the crate as CWD; anchor the default at
    // the workspace root so the baseline lands in the tracked results/.
    let mut out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_hotpath.json"
    )
    .to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("hotpath: --out requires an argument");
                    std::process::exit(2);
                })
            }
            // `cargo bench` forwards its own flags (e.g. --bench).
            "--bench" | "--test" => {}
            other => {
                eprintln!("hotpath: unknown argument `{other}` (--quick, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let iters: u64 = if quick { 200_000 } else { 2_000_000 };

    let params = UnrollerParams::default();
    let layout = HeaderLayout::from_params(&params);
    let pipes: Vec<UnrollerPipeline> = (0..SWITCHES)
        .map(|i| UnrollerPipeline::new(0x3000 + i, params).unwrap())
        .collect();
    let payload = vec![0u8; 64usize.saturating_sub(14 + layout.total_bytes())];
    let template = build_frame(
        &layout,
        &EthernetHeader::for_hosts(1, 2),
        &WireHeader::initial(&layout),
        &payload,
    );

    eprintln!("hotpath: timing dataplane paths ({iters} hops each)...");
    let struct_path = bench_struct_path(&pipes, &layout, iters);
    let walk_5 = bench_walk_path(&pipes, &layout, &template, 5, iters);
    let walk_16 = bench_walk_path(&pipes, &layout, &template, 16, iters);
    let in_place_path = bench_frame_in_place_path(&pipes, &template, iters);
    let mut dataplane = Json::object();
    for (name, s) in [
        ("struct_path", &struct_path),
        ("walk_path_5", &walk_5),
        ("walk_path_16", &walk_16),
        ("frame_in_place_path", &in_place_path),
    ] {
        eprintln!(
            "  {name:<22} {:>8.2} ns/hop  {:>12.0} headers/s",
            s.ns_per_hop, s.headers_per_sec
        );
        dataplane.set(name, s.to_json());
    }

    let mut root = Json::object();
    root.set("bench", Json::Str("hotpath".to_string()));
    root.set("quick", Json::Bool(quick));
    root.set("frame_len", Json::UInt(template.len() as u64));
    root.set("switch_pipelines", Json::UInt(SWITCHES as u64));
    root.set("params", Json::Str(params.to_string()));
    root.set("dataplane", dataplane);
    let rendered = root.render_pretty();

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, &rendered).expect("write benchmark output");
    eprintln!("wrote {out}");

    let ratio = in_place_path.ns_per_hop / walk_5.ns_per_hop;
    eprintln!("hotpath: the one-hop frame op costs {ratio:.2}x a 5-hop walk per hop");
}
