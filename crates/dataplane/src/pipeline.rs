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
//! * Packet manipulation is dispatched through a **dummy match-action
//!   table** with a single default action ([`MatchActionTable`]),
//!   mirroring the P4-To-VHDL constraint that actions may only be called
//!   from tables, not straight from a control block.
//! * The per-packet work is the fixed sequence of the paper: read
//!   registers & increment `Xcnt` → hash → compare/update → verdict.
//!   [`UnrollerPipeline::process_header`] is bit-exact against the
//!   software detector (`unroller-core`) for hop counts below the 8-bit
//!   saturation point — the equivalence tests at the bottom check this
//!   on thousands of random walks.

use crate::header::{HeaderLayout, WireHeader};
use crate::parser::{parse_frame, rewrite_shim, FrameError, ETHERTYPE_UNROLLER, ETH_HEADER_LEN};
use crate::resources::ResourceReport;
use unroller_core::hashing::HashFamily;
use unroller_core::params::{ParamError, UnrollerParams};
use unroller_core::phase::PhaseSchedule;
use unroller_core::{SwitchId, Verdict};

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

/// The dummy match-action table required by the P4-To-VHDL port: a
/// single entry whose default action processes the packet
/// unconditionally.
#[derive(Debug, Clone)]
pub struct MatchActionTable {
    name: &'static str,
    entries: u32,
}

impl MatchActionTable {
    fn dummy(name: &'static str) -> Self {
        MatchActionTable { name, entries: 1 }
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of installed entries (always 1 — the default action).
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// "Matches" the packet: the default action always fires.
    #[inline]
    fn apply<R>(&self, action: impl FnOnce() -> R) -> R {
        action()
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
    table: MatchActionTable,
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
            table: MatchActionTable::dummy("tab_unroller_apply"),
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
    /// a real switch would drop the packet and notify the controller.
    pub fn process_header(&self, hdr: &mut WireHeader) -> Verdict {
        self.table.apply(|| self.apply_action(hdr))
    }

    fn apply_action(&self, hdr: &mut WireHeader) -> Verdict {
        let p = &self.params;
        let (h, c) = (p.h as usize, p.c as usize);
        debug_assert_eq!(hdr.swids.len(), h * c, "shim sized for wrong params");

        // Stage 1: read registers, increment Xcnt (saturating — past 255
        // hops the packet's TTL has long expired; saturating avoids a
        // bogus phase restart on wrap-around).
        let prev = hdr.xcnt;
        let saturated = prev == u8::MAX;
        if !saturated {
            hdr.xcnt = prev + 1;
        }
        let x = hdr.xcnt as usize;

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
            hdr.thcnt += 1;
            if hdr.thcnt >= p.th {
                return Verdict::LoopReported;
            }
        }

        // Stage 2 (continued): update the current chunk's slots — reset
        // at a chunk boundary, min-merge otherwise.
        let j = self.luts.chunk[x] as usize;
        let fresh = !saturated && self.luts.fresh[x];
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

    /// Full data-path processing of an Ethernet frame carrying the shim:
    /// parse → control block → deparse (in place). On
    /// [`Verdict::LoopReported`] the frame is left unmodified — the
    /// switch would drop it and punt a report to the controller.
    pub fn process_frame(&self, frame: &mut [u8]) -> Result<Verdict, FrameError> {
        let (_eth, mut shim, _payload) = parse_frame(&self.layout, frame)?;
        let verdict = self.process_header(&mut shim);
        if verdict == Verdict::Continue {
            rewrite_shim(&self.layout, frame, &shim);
        }
        Ok(verdict)
    }

    /// Zero-copy data-path processing: the control block reads and
    /// rewrites shim bits **directly in the frame buffer**, with no
    /// header decode, no struct, and no per-hop allocation. Bit-exact
    /// with [`UnrollerPipeline::process_frame`] (property-tested in
    /// `tests/frame_inplace.rs`): on [`Verdict::Continue`] the rewritten
    /// frame is byte-identical to what decode → [`Self::process_header`]
    /// → re-encode would produce, and on [`Verdict::LoopReported`] the
    /// frame is left untouched.
    pub fn process_frame_in_place(&self, frame: &mut [u8]) -> Result<Verdict, FrameError> {
        let need = ETH_HEADER_LEN + self.layout.total_bytes();
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
        let shim = &mut frame[ETH_HEADER_LEN..need];
        Ok(self.table.apply(|| self.apply_action_in_place(shim)))
    }

    fn apply_action_in_place(&self, shim: &mut [u8]) -> Verdict {
        let p = &self.params;
        let c = p.c as usize;
        let layout = &self.layout;

        // Stage 1: read the hop counter off the wire (saturating
        // increment, mirroring `apply_action`). No bits are written yet:
        // on LoopReported the frame must come out byte-identical to how
        // it went in, exactly like `process_frame`.
        let prev = layout.read_xcnt(shim);
        let saturated = prev == u8::MAX;
        let x = if saturated { prev } else { prev + 1 } as usize;

        // Stage 2: compare the pre-hashed identifiers against every
        // valid stored slot, straight off the frame bytes.
        let occ = self.luts.occupied[prev as usize];
        let mut matched = false;
        'outer: for (i, &hv) in self.registers.prehashed.iter().enumerate() {
            for j in 0..c {
                if occ & (1 << j) != 0 && layout.read_swid(shim, (i * c + j) as u32) == hv {
                    matched = true;
                    break 'outer;
                }
            }
        }
        let mut thcnt = 0;
        if matched {
            thcnt = layout.read_thcnt(shim) + 1;
            if thcnt >= p.th {
                return Verdict::LoopReported;
            }
        }

        // Continue: deparse every mutated field back into the buffer.
        layout.write_xcnt(shim, x as u8);
        if matched {
            layout.write_thcnt(shim, thcnt);
        }
        let j = self.luts.chunk[x] as usize;
        let fresh = !saturated && self.luts.fresh[x];
        let was_occupied = occ & (1 << j) != 0;
        for (i, &hv) in self.registers.prehashed.iter().enumerate() {
            let slot = (i * c + j) as u32;
            if fresh || !was_occupied || hv < layout.read_swid(shim, slot) {
                layout.write_swid(shim, slot, hv);
            }
        }
        // encode() always emits zero padding; match it so the two frame
        // paths stay bit-exact even on adversarial input padding.
        layout.clear_padding(shim);
        Verdict::Continue
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
            table_entries: self.table.entries() + 256,
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
        assert_eq!(s100.process_frame(&mut frame).unwrap(), Verdict::Continue);
        assert_eq!(s200.process_frame(&mut frame).unwrap(), Verdict::Continue);
        assert_eq!(
            s100.process_frame(&mut frame).unwrap(),
            Verdict::LoopReported
        );
    }

    #[test]
    fn payload_untouched_by_processing() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"payload!");
        let pipe = UnrollerPipeline::new(7, params).unwrap();
        pipe.process_frame(&mut frame).unwrap();
        let (_, _, payload) = parse_frame(&layout, &frame).unwrap();
        assert_eq!(payload, b"payload!");
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

    #[test]
    fn in_place_matches_frame_path_on_random_walks() {
        // The zero-copy path must produce byte-identical frames and
        // identical verdicts to the decode/encode frame path, hop by
        // hop, across parameter space (incl. multi-chunk, multi-hash,
        // non-power-of-two bases and th=1's zero-width Thcnt).
        let mut rng = unroller_core::test_rng(79);
        for params in [
            UnrollerParams::default(),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_b(3).with_th(2),
            UnrollerParams::default().with_c(4).with_h(1).with_z(9),
        ] {
            let layout = HeaderLayout::from_params(&params);
            for _ in 0..20 {
                let b = rng.gen_range(0..6);
                let l = rng.gen_range(1..10);
                let walk = unroller_core::Walk::random(b, l, &mut rng);
                let eth = EthernetHeader::for_hosts(1, 2);
                let shim = WireHeader::initial(&layout);
                let mut frame_a = build_frame(&layout, &eth, &shim, b"equivalence");
                let mut frame_b = frame_a.clone();
                for hop in 1..=200u64 {
                    let Some(sw) = walk.switch_at(hop) else { break };
                    let pipe = UnrollerPipeline::new(sw, params).unwrap();
                    let va = pipe.process_frame(&mut frame_a).unwrap();
                    let vb = pipe.process_frame_in_place(&mut frame_b).unwrap();
                    assert_eq!(va, vb, "verdict diverged at hop {hop} for {params:?}");
                    assert_eq!(
                        frame_a, frame_b,
                        "bytes diverged at hop {hop} for {params:?}"
                    );
                    if va.reported() {
                        break;
                    }
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
