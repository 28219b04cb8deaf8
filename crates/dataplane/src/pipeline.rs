//! The Unroller ingress control block as a programmable-dataplane
//! program (paper §4).
//!
//! This module models the constraints the P4/BMv2/FPGA ports face:
//!
//! * All per-switch configuration lives in **registers**
//!   ([`SwitchRegisters`]): the switch ID, its pre-hashed identifiers
//!   ("it is possible to store pre-hashed identifiers into registers, to
//!   reduce the number of hash operations"), and the parameters.
//! * Phase and chunk positions come from a **256-entry lookup table**
//!   ([`PhaseLuts`]) indexed by the 8-bit `Xcnt`, exactly as the BMv2
//!   port does for bases that are not powers of two (for `b ∈ {2,4,8}`
//!   the same information is a single bitwise test — the LUT is built
//!   from [`PhaseSchedule::is_phase_start`], so the two agree by
//!   construction).
//! * The per-packet work is the fixed sequence of the paper: read
//!   registers & increment `Xcnt` → hash → compare/update → verdict.
//!   [`UnrollerPipeline::process_header`] is the one control block,
//!   bit-exact against the software detector (`unroller-core`) for hop
//!   counts below the 8-bit saturation point — the equivalence tests at
//!   the bottom check this on thousands of random walks.
//!
//! The P4-To-VHDL port's dummy match-action table (actions may only be
//! called from tables) is modelled where it matters: the generated P4
//! ([`crate::p4gen`]) and the resource report count it.

use crate::header::{HeaderLayout, WireHeader};
use crate::parser::{FrameError, ETHERTYPE_UNROLLER, ETH_HEADER_LEN};
use crate::resources::ResourceReport;
use unroller_core::hashing::HashFamily;
use unroller_core::params::{ParamError, UnrollerParams};
use unroller_core::phase::PhaseSchedule;
use unroller_core::{SwitchId, Verdict};

/// A frame proven to carry an Unroller shim: long enough for the
/// Ethernet header plus the shim, and tagged [`ETHERTYPE_UNROLLER`].
/// Building one is the data path's single frame-validation point;
/// everything it offers then cannot fail.
///
/// The view spans the shim *and every byte after it*, so a field that
/// starts at least 8 bytes before the frame's end is read and written
/// with one 8-byte window (see [`crate::bitio::read_bits_at`]). Bytes
/// past the shim are never changed.
///
/// A walk along many switches (the engine's `walk`) validates once,
/// decodes once with [`Self::decode_into`], runs
/// [`UnrollerPipeline::process_header`] at every hop, and writes the
/// shim back once with [`Self::encode_from`].
#[derive(Debug)]
pub struct ShimView<'a> {
    layout: HeaderLayout,
    /// `frame[ETH_HEADER_LEN..]`: the shim, then the payload.
    bytes: &'a mut [u8],
}

impl<'a> ShimView<'a> {
    /// Validates `frame` for `layout`: a typed error for a frame too
    /// short to hold the headers or not tagged as carrying the shim.
    /// Nothing is written either way.
    pub fn new(layout: &HeaderLayout, frame: &'a mut [u8]) -> Result<Self, FrameError> {
        let need = ETH_HEADER_LEN + layout.total_bytes();
        if frame.len() < need {
            return Err(FrameError::TooShort {
                len: frame.len(),
                need,
            });
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != ETHERTYPE_UNROLLER {
            return Err(FrameError::WrongEthertype(ethertype));
        }
        Ok(ShimView {
            layout: *layout,
            bytes: &mut frame[ETH_HEADER_LEN..],
        })
    }

    /// Decodes the shim into `hdr`. `xcnt` reads as 0 under a
    /// TTL-inferred layout.
    #[inline]
    pub fn decode_into(&self, hdr: &mut WireHeader) {
        hdr.decode_into(&self.layout, self.bytes);
    }

    /// Writes `hdr` back over the shim with zero padding: the shim
    /// bytes come out identical to [`WireHeader::encode`].
    #[inline]
    pub fn encode_from(&mut self, hdr: &WireHeader) {
        hdr.encode_into(&self.layout, self.bytes);
    }

    /// Flips one *wire* bit of the shim: on-the-wire corruption between
    /// two switches. The index wraps modulo the shim's bit count
    /// (MSB-first, matching the deparsed layout), so any `u32` is a
    /// valid draw and every flip lands on a bit a real transmission
    /// error could touch — never on padding, the Ethernet header or the
    /// payload.
    pub fn flip_bit(&mut self, bit: u32) {
        let total = self.layout.total_bits();
        if total == 0 {
            return;
        }
        let bit = (bit % total) as usize;
        self.bytes[bit / 8] ^= 0x80 >> (bit % 8);
    }
}

/// Lookup tables indexed by the 8-bit hop counter. Entry 0 of
/// `chunk`/`fresh` is unused (hops are 1-based); `occupied[x]` is the
/// per-chunk occupancy bitmask *after* `x` hops.
#[derive(Debug, Clone)]
pub struct PhaseLuts {
    chunk: [u8; 256],
    fresh: [bool; 256],
    occupied: [u64; 256],
}

impl PhaseLuts {
    /// Builds the tables for a schedule, base and chunk count.
    pub fn build(schedule: PhaseSchedule, b: u32, c: u32) -> Self {
        let mut chunk = [0u8; 256];
        let mut fresh = [false; 256];
        let mut occupied = [0u64; 256];
        for x in 1..256u64 {
            let pos = schedule.position(x, b, c);
            chunk[x as usize] = pos.chunk as u8;
            fresh[x as usize] = pos.is_chunk_start(x);
            occupied[x as usize] = occupied[x as usize - 1] | (1u64 << pos.chunk);
        }
        PhaseLuts {
            chunk,
            fresh,
            occupied,
        }
    }

    /// Bits of block RAM this table occupies (per entry: 8-bit chunk
    /// index, 1 fresh bit, `c` occupancy bits).
    pub fn bits(&self, c: u32) -> u64 {
        256 * (8 + 1 + c as u64)
    }
}

/// Per-switch register file provisioned by the controller.
#[derive(Debug, Clone)]
pub struct SwitchRegisters {
    /// This switch's unique identifier.
    pub switch_id: SwitchId,
    /// Pre-hashed identifiers `h_i(switch_id) & z_mask` — computed once
    /// at provisioning time so the data path performs zero hash
    /// operations per packet.
    pub prehashed: Vec<u32>,
}

/// The compiled Unroller ingress pipeline for one switch.
#[derive(Debug, Clone)]
pub struct UnrollerPipeline {
    params: UnrollerParams,
    layout: HeaderLayout,
    registers: SwitchRegisters,
    luts: PhaseLuts,
}

impl UnrollerPipeline {
    /// Compiles the pipeline for `switch_id` with the default hash
    /// family (identical to [`unroller_core::Unroller::from_params`]).
    pub fn new(switch_id: SwitchId, params: UnrollerParams) -> Result<Self, ParamError> {
        Self::with_hashes(
            switch_id,
            params,
            HashFamily::default_for(params.z, params.h),
        )
    }

    /// Compiles the pipeline with an explicit hash family.
    pub fn with_hashes(
        switch_id: SwitchId,
        params: UnrollerParams,
        hashes: HashFamily,
    ) -> Result<Self, ParamError> {
        params.validate()?;
        if hashes.len() != params.h as usize {
            return Err(ParamError::NoHashes);
        }
        let mut prehashed = vec![0u32; params.h as usize];
        hashes.hash_all_into(switch_id, params.z_mask(), &mut prehashed);
        Ok(UnrollerPipeline {
            layout: HeaderLayout::from_params(&params),
            registers: SwitchRegisters {
                switch_id,
                prehashed,
            },
            luts: PhaseLuts::build(params.schedule, params.b, params.c),
            params,
        })
    }

    /// The switch this pipeline is provisioned for.
    pub fn switch_id(&self) -> SwitchId {
        self.registers.switch_id
    }

    /// The shim layout this pipeline parses and deparses.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// The configured parameters.
    pub fn params(&self) -> &UnrollerParams {
        &self.params
    }

    /// Processes a parsed shim header in place — the control block's
    /// `apply` section. Returns the verdict; on [`Verdict::LoopReported`]
    /// the header is left unmodified, and a real switch would drop the
    /// packet and notify the controller.
    pub fn process_header(&self, hdr: &mut WireHeader) -> Verdict {
        let p = &self.params;
        let (h, c) = (p.h as usize, p.c as usize);
        debug_assert_eq!(hdr.swids.len(), h * c, "shim sized for wrong params");

        // Stage 1: read registers and the hop counter (saturating
        // increment — past 255 hops the packet's TTL has long expired;
        // saturating avoids a bogus phase restart on wrap-around). No
        // field is written yet: on LoopReported the header comes out as
        // it went in, so a walk may write it back after a report.
        let prev = hdr.xcnt;
        let saturated = prev == u8::MAX;
        let x = if saturated { prev } else { prev + 1 };

        // Stage 2: compare the pre-hashed identifiers against every
        // *valid* stored slot. Validity is derived from the hop counter
        // (occupancy after `prev` hops), not carried on the wire.
        let occ = self.luts.occupied[prev as usize];
        let mut matched = false;
        'outer: for (i, &hv) in self.registers.prehashed.iter().enumerate() {
            for j in 0..c {
                if occ & (1 << j) != 0 && hdr.swids[i * c + j] == hv {
                    matched = true;
                    break 'outer;
                }
            }
        }
        if matched {
            let thcnt = hdr.thcnt + 1;
            if thcnt >= p.th {
                return Verdict::LoopReported;
            }
            hdr.thcnt = thcnt;
        }
        hdr.xcnt = x;

        // Stage 2 (continued): update the current chunk's slots — reset
        // at a chunk boundary, min-merge otherwise.
        let j = self.luts.chunk[x as usize] as usize;
        let fresh = !saturated && self.luts.fresh[x as usize];
        let was_occupied = occ & (1 << j) != 0;
        for (i, &hv) in self.registers.prehashed.iter().enumerate() {
            let slot = i * c + j;
            if fresh || !was_occupied || hv < hdr.swids[slot] {
                hdr.swids[slot] = hv;
            }
        }
        Verdict::Continue
    }

    /// Processing for the TTL-inferred hop-count configuration (paper
    /// footnote 3: "in cases where the hop number can be inferred from
    /// the TTL we can avoid storing Xcnt"): the shim carries no `Xcnt`
    /// field (`xcnt_in_header = false`, saving 8 bits), and the switch
    /// derives the hops already traversed as
    /// `initial_ttl − current_ttl`, passed here as `hops_before`.
    ///
    /// The decoded header's `xcnt` is overwritten from the TTL before
    /// the control block runs, so behaviour is identical to the
    /// header-carried variant.
    pub fn process_header_ttl(&self, hdr: &mut WireHeader, hops_before: u8) -> Verdict {
        hdr.xcnt = hops_before;
        self.process_header(hdr)
    }

    /// One switch's data-path processing of an Ethernet frame carrying
    /// the shim: a walk of one hop. The frame is validated through a
    /// [`ShimView`], the shim decoded, [`Self::process_header`] run, and
    /// the shim encoded back on [`Verdict::Continue`] (padding zeroed).
    /// On [`Verdict::LoopReported`] or an error the frame is left
    /// untouched — the switch would drop it and punt a report to the
    /// controller.
    ///
    /// Nothing is allocated: the decoded header lives on the stack. A
    /// multi-hop walk decodes once and runs [`Self::process_header`] at
    /// every hop instead (see [`ShimView`]). Under a TTL-inferred layout the frame
    /// carries no hop count, so every call runs as the packet's first
    /// hop.
    pub fn process_frame_in_place(&self, frame: &mut [u8]) -> Result<Verdict, FrameError> {
        let mut view = ShimView::new(&self.layout, frame)?;
        let mut hdr = WireHeader::initial(&self.layout);
        view.decode_into(&mut hdr);
        let verdict = self.process_header(&mut hdr);
        if verdict == Verdict::Continue {
            view.encode_from(&hdr);
        }
        Ok(verdict)
    }

    /// The resource footprint of this pipeline (the Table 4 substitute;
    /// see `DESIGN.md` §3).
    pub fn resources(&self) -> ResourceReport {
        let p = &self.params;
        // What the emitted P4 source declares: z bits per pre-hashed
        // identifier, plus the phase/chunk LUT registers when present.
        let p4_lut_bits = if !p.b.is_power_of_two() {
            256 * (1 + 8)
        } else if p.c > 1 {
            256 * 8
        } else {
            0
        };
        ResourceReport {
            config: format!(
                "b={} z={} c={} H={} Th={} ({:?})",
                p.b, p.z, p.c, p.h, p.th, p.schedule
            ),
            pipeline_stages: 2,
            register_bits: 32 + 32 * p.h as u64 + self.luts.bits(p.c),
            // The dummy table's one default entry, plus the LUT.
            table_entries: 1 + 256,
            header_bits: self.layout.total_bits(),
            p4_register_bits: (p.z * p.h) as u64 + p4_lut_bits,
            p4_tables: 1,
            per_packet_hash_ops: 0, // pre-hashed into registers
            per_packet_compares: (p.c * p.h) as u64,
            per_packet_min_updates: p.h as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{build_frame, EthernetHeader};
    use proptest::prelude::*;
    use rand::Rng;
    use unroller_core::{InPacketDetector, Unroller};

    /// Drives a chain of per-switch pipelines along a hop sequence.
    fn drive_pipelines(params: UnrollerParams, hops: &[SwitchId]) -> Option<usize> {
        let layout = HeaderLayout::from_params(&params);
        let mut hdr = WireHeader::initial(&layout);
        for (i, &sw) in hops.iter().enumerate() {
            let pipe = UnrollerPipeline::new(sw, params).unwrap();
            if pipe.process_header(&mut hdr).reported() {
                return Some(i + 1);
            }
        }
        None
    }

    /// Drives the software detector along the same sequence.
    fn drive_software(params: UnrollerParams, hops: &[SwitchId]) -> Option<usize> {
        let det = Unroller::from_params(params).unwrap();
        let mut st = det.init_state();
        for (i, &sw) in hops.iter().enumerate() {
            if det.on_switch(&mut st, sw).reported() {
                return Some(i + 1);
            }
        }
        None
    }

    #[test]
    fn pipeline_matches_software_detector_exactly() {
        // The headline equivalence: the bit-packed dataplane pipeline
        // behaves identically to the reference software detector across
        // parameter space, on both looping and loop-free hop sequences.
        let mut rng = unroller_core::test_rng(71);
        let configs = [
            UnrollerParams::default(),
            UnrollerParams::default().with_b(2),
            UnrollerParams::default().with_schedule(PhaseSchedule::CumulativeGeometric),
            UnrollerParams::default().with_z(8),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_c(4).with_h(1),
            UnrollerParams::default().with_b(3), // LUT path (non power of two)
        ];
        for params in configs {
            for _ in 0..40 {
                let b = rng.gen_range(0..8);
                let l = rng.gen_range(1..12);
                let walk = unroller_core::Walk::random(b, l, &mut rng);
                let hops: Vec<SwitchId> = (1..=200u64).map_while(|h| walk.switch_at(h)).collect();
                assert_eq!(
                    drive_pipelines(params, &hops),
                    drive_software(params, &hops),
                    "divergence for {params:?} on B={b} L={l}"
                );
            }
            // Loop-free paths too (false-positive behaviour must match).
            for _ in 0..20 {
                let walk = unroller_core::Walk::random_loop_free(30, &mut rng);
                let hops: Vec<SwitchId> = (1..=30u64).map_while(|h| walk.switch_at(h)).collect();
                assert_eq!(
                    drive_pipelines(params, &hops),
                    drive_software(params, &hops),
                    "loop-free divergence for {params:?}"
                );
            }
        }
    }

    #[test]
    fn frame_level_processing_detects_loop() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let shim = WireHeader::initial(&layout);
        let mut frame = build_frame(&layout, &eth, &shim, b"data");

        // Ping-pong between switches 100 and 200.
        let s100 = UnrollerPipeline::new(100, params).unwrap();
        let s200 = UnrollerPipeline::new(200, params).unwrap();
        let mut hop = |pipe: &UnrollerPipeline| pipe.process_frame_in_place(&mut frame).unwrap();
        assert_eq!(hop(&s100), Verdict::Continue);
        assert_eq!(hop(&s200), Verdict::Continue);
        assert_eq!(hop(&s100), Verdict::LoopReported);
    }

    #[test]
    fn payload_untouched_by_processing() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"payload!");
        let pipe = UnrollerPipeline::new(7, params).unwrap();
        pipe.process_frame_in_place(&mut frame).unwrap();
        assert_eq!(&frame[ETH_HEADER_LEN + layout.total_bytes()..], b"payload!");
    }

    #[test]
    fn xcnt_saturates_instead_of_wrapping() {
        let params = UnrollerParams::default();
        let pipe = UnrollerPipeline::new(5, params).unwrap();
        let layout = HeaderLayout::from_params(&params);
        let mut hdr = WireHeader::initial(&layout);
        hdr.xcnt = 255;
        hdr.swids[0] = 999_999;
        let v = pipe.process_header(&mut hdr);
        assert_eq!(v, Verdict::Continue);
        assert_eq!(hdr.xcnt, 255, "must not wrap to 0");
        // Saturated hops must never act as a phase start: the stored ID
        // only min-merges.
        assert_eq!(hdr.swids[0], 5);
        let mut hdr2 = WireHeader::initial(&layout);
        hdr2.xcnt = 255;
        hdr2.swids[0] = 1; // smaller than switch ID 5
        pipe.process_header(&mut hdr2);
        assert_eq!(hdr2.swids[0], 1, "min must survive while saturated");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The control block decides its verdict before writing: on
        /// `LoopReported` the header equals its input, so a walk that
        /// ends in a report at hop > 1 may encode it back unchanged.
        /// Random parameters, starting headers (any `Xcnt`, any `Thcnt`
        /// its width holds, any `z`-bit IDs) and walks that revisit a
        /// handful of switches.
        #[test]
        fn report_leaves_the_header_as_it_came(
            b in 2u32..=9,
            z in 1u32..=32,
            c in 1u32..=4,
            h in 1u32..=4,
            th in 1u32..=8,
            xcnt in any::<u8>(),
            thcnt in any::<u32>(),
            swids in prop::collection::vec(any::<u32>(), 16),
            hops in prop::collection::vec(0u32..6, 1..40),
        ) {
            let params = UnrollerParams::default().with_b(b).with_z(z).with_c(c).with_h(h).with_th(th);
            let layout = HeaderLayout::from_params(&params);
            let mut hdr = WireHeader {
                xcnt,
                thcnt: thcnt & ((1u64 << layout.thcnt_bits) - 1) as u32,
                swids: swids[..layout.slots as usize].iter().map(|&id| id & params.z_mask()).collect(),
            };
            for &hop in &hops {
                let before = hdr;
                let pipe = UnrollerPipeline::new(100 + hop, params).unwrap();
                if pipe.process_header(&mut hdr) == Verdict::LoopReported {
                    prop_assert_eq!(&hdr, &before, "report at switch {} wrote the header", 100 + hop);
                    break;
                }
            }
        }
    }

    #[test]
    fn in_place_leaves_frame_untouched_on_report() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"x");
        let s100 = UnrollerPipeline::new(100, params).unwrap();
        let s200 = UnrollerPipeline::new(200, params).unwrap();
        s100.process_frame_in_place(&mut frame).unwrap();
        s200.process_frame_in_place(&mut frame).unwrap();
        let before = frame.clone();
        assert_eq!(
            s100.process_frame_in_place(&mut frame).unwrap(),
            Verdict::LoopReported
        );
        assert_eq!(frame, before, "reported frame must not be rewritten");
    }

    #[test]
    fn in_place_rejects_malformed_frames() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let pipe = UnrollerPipeline::new(1, params).unwrap();
        let mut short = vec![0u8; 10];
        assert!(matches!(
            pipe.process_frame_in_place(&mut short),
            Err(FrameError::TooShort { len: 10, .. })
        ));
        let mut eth = EthernetHeader::for_hosts(1, 2);
        eth.ethertype = 0x0800;
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"");
        let before = frame.clone();
        assert_eq!(
            pipe.process_frame_in_place(&mut frame),
            Err(FrameError::WrongEthertype(0x0800))
        );
        assert_eq!(frame, before, "rejected frame must not be modified");
    }

    #[test]
    fn flip_bit_lands_in_the_shim_and_is_reversible() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"payload");
        let shim_end = ETH_HEADER_LEN + layout.total_bytes();
        for bit in [0u32, 7, 8, 39, layout.total_bits() - 1, u32::MAX] {
            let mut flipped = frame.clone();
            ShimView::new(&layout, &mut flipped).unwrap().flip_bit(bit);
            assert_ne!(flipped, frame, "bit {bit} must land");
            assert_eq!(
                flipped[..ETH_HEADER_LEN],
                frame[..ETH_HEADER_LEN],
                "Ethernet header untouched (bit {bit})"
            );
            assert_eq!(
                flipped[shim_end..],
                frame[shim_end..],
                "payload untouched (bit {bit})"
            );
            // XOR is involutive: the same flip restores the frame.
            ShimView::new(&layout, &mut flipped).unwrap().flip_bit(bit);
            assert_eq!(flipped, frame);
        }
        // A frame too short to hold the shim yields no view to flip.
        let mut runt = vec![0u8; 8];
        assert!(ShimView::new(&layout, &mut runt).is_err());
    }

    #[test]
    fn lut_agrees_with_bitwise_power_check() {
        // For b = 4 the fresh LUT must mark exactly the powers of four —
        // the hardware's single bitwise test.
        let luts = PhaseLuts::build(PhaseSchedule::PowerBoundary, 4, 1);
        for x in 1..256usize {
            let is_pow4 = x.is_power_of_two() && (x.trailing_zeros() % 2 == 0);
            assert_eq!(luts.fresh[x], is_pow4, "x={x}");
        }
    }

    #[test]
    fn occupancy_grows_monotonically() {
        for c in [1u32, 2, 4, 8] {
            let luts = PhaseLuts::build(PhaseSchedule::PowerBoundary, 4, c);
            for x in 1..256usize {
                assert_eq!(
                    luts.occupied[x - 1] & !luts.occupied[x],
                    0,
                    "occupancy lost bits at x={x}, c={c}"
                );
            }
            // Eventually every chunk is occupied.
            assert_eq!(luts.occupied[255], (1u64 << c) - 1);
        }
    }

    #[test]
    fn ttl_inferred_variant_matches_header_variant() {
        // Same algorithm, 8 fewer header bits: drive both variants along
        // identical walks and require identical verdict sequences.
        let hdr_params = UnrollerParams::default().with_z(12).with_th(2);
        let ttl_params = UnrollerParams {
            xcnt_in_header: false,
            ..hdr_params
        };
        assert_eq!(
            ttl_params.overhead_bits() + 8,
            hdr_params.overhead_bits(),
            "TTL variant saves exactly the Xcnt field"
        );
        let mut rng = unroller_core::test_rng(73);
        for _ in 0..20 {
            let walk = unroller_core::Walk::random(4, 8, &mut rng);
            let mut h1 = WireHeader::initial(&HeaderLayout::from_params(&hdr_params));
            let mut h2 = WireHeader::initial(&HeaderLayout::from_params(&ttl_params));
            let initial_ttl = 64u8;
            let mut ttl = initial_ttl;
            for hop in 1..=100u64 {
                let sw = walk.switch_at(hop).unwrap();
                let a = UnrollerPipeline::new(sw, hdr_params)
                    .unwrap()
                    .process_header(&mut h1)
                    .reported();
                let hops_before = initial_ttl - ttl;
                let b = UnrollerPipeline::new(sw, ttl_params)
                    .unwrap()
                    .process_header_ttl(&mut h2, hops_before)
                    .reported();
                ttl -= 1;
                assert_eq!(a, b, "hop {hop}");
                if a {
                    break;
                }
            }
        }
    }

    #[test]
    fn resource_report_sane() {
        let pipe = UnrollerPipeline::new(1, UnrollerParams::default()).unwrap();
        let r = pipe.resources();
        assert_eq!(r.pipeline_stages, 2); // §4: "Unroller requires two pipeline stages"
        assert_eq!(r.header_bits, 40);
        assert_eq!(r.per_packet_hash_ops, 0);
        assert!(r.register_bits > 0);
    }

    #[test]
    fn mismatched_hash_family_rejected() {
        let fam = HashFamily::default_for(8, 2);
        assert!(
            UnrollerPipeline::with_hashes(1, UnrollerParams::default().with_h(4), fam).is_err()
        );
    }
}
