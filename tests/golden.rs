//! Golden regression tests: exact payload and wire sizes for scripted
//! scenarios. Any unintentional change to a codec's bit format, the payload
//! framing, or the flit quantization shows up here as an exact-value
//! mismatch (intentional format changes must update these numbers and the
//! format documentation together).

use cable::common::{Address, LineData};
use cable::compress::{Bdi, Compressor, Cpack, EngineKind, Lbe, Lzss, Oracle, SeededCompressor};
use cable::core::{CableConfig, CableLink, Link, TransferKind};

fn object_line() -> LineData {
    LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + (i as u32) * 0x111))
}

#[test]
fn golden_engine_payload_bits() {
    let zero = LineData::zeroed();
    let splat = LineData::splat_word(0xdead_beef);
    let object = object_line();

    // CPACK per-line.
    let mut cpack = Cpack::per_line();
    assert_eq!(cpack.compress(&zero).len_bits(), 32); // 16 x zzzz
    assert_eq!(cpack.compress(&splat).len_bits(), 34 + 15 * 6); // literal + mmmm
                                                                // First word is a literal; the rest share high-16 bits (mmxx, 24 bits).
    assert_eq!(cpack.compress(&object).len_bits(), 34 + 15 * 24);

    // BDI.
    let mut bdi = Bdi::new();
    assert_eq!(bdi.compress(&zero).len_bits(), 4);
    assert_eq!(bdi.compress(&splat).len_bits(), 4 + 64);

    // LBE unseeded.
    let lbe = Lbe::seeded();
    assert_eq!(lbe.compress_seeded(&[], &zero).len_bits(), 6); // one zero run
    assert_eq!(lbe.compress_seeded(&[], &splat).len_bits(), 35 + 7); // literal + repeat

    // LBE seeded with an exact duplicate: one copy command.
    assert_eq!(lbe.compress_seeded(&[object], &object).len_bits(), 12);

    // ORACLE picks LBE's word coding for the exact duplicate (+1 mode bit).
    let oracle = Oracle::new();
    assert_eq!(oracle.compress_seeded(&[object], &object).len_bits(), 13);

    // LZSS streaming: second occurrence of a line is one 24-bit token.
    let mut lzss = Lzss::new(32 << 10);
    lzss.compress(&object);
    assert_eq!(lzss.compress(&object).len_bits(), 24);
}

#[test]
fn golden_cable_wire_sizes() {
    let mut link = CableLink::new(CableConfig::memory_link_default());

    // Zero line: flag(1) + count(2) + LBE zero run(6) = 9 bits -> 1 flit.
    let t = link.request(Address::new(0x0000), LineData::zeroed());
    assert_eq!(t.kind(), TransferKind::Unseeded);
    assert_eq!(t.payload_bits(), 9);
    assert_eq!(t.wire_bits(), 16);

    // Incompressible line: raw flag + 512 bits -> 33 flits.
    let mut rng = cable::common::SplitMix64::new(5);
    let mut words = [0u32; 16];
    for w in &mut words {
        *w = rng.next_u32();
    }
    let t = link.request(Address::new(0x0040), LineData::from_words(words));
    assert_eq!(t.kind(), TransferKind::Raw);
    assert_eq!(t.payload_bits(), 513);
    assert_eq!(t.wire_bits(), 528);

    // Exact duplicate of a cached object: flag(1) + count(2) + one 14-bit
    // RemoteLID (1 MB 8-way remote = 2^14 lines) + 12-bit LBE copy
    // = 29 bits -> 2 flits.
    let object = object_line();
    link.request(Address::new(0x0080), object);
    let t = link.request(Address::new(0x9000), object);
    assert_eq!(t.kind(), TransferKind::Diff);
    assert_eq!(t.refs(), 1);
    assert_eq!(t.payload_bits(), 1 + 2 + 14 + 12);
    assert_eq!(t.wire_bits(), 32);

    // One-word edit: copy + wide literal + copy = 12 + 35 + 12 DIFF bits.
    let mut edited = object;
    edited.set_word(7, 0x0123_4567);
    let t = link.request(Address::new(0xa000), edited);
    assert_eq!(t.kind(), TransferKind::Diff);
    assert_eq!(t.payload_bits(), 1 + 2 + 14 + 59);
    assert_eq!(t.wire_bits(), 80);
}

#[test]
fn golden_line_id_widths() {
    use cable::cache::CacheGeometry;
    // The paper's pointer-size arithmetic, pinned exactly (§III-D).
    assert_eq!(CacheGeometry::new(8 << 20, 8).line_id_bits(), 17);
    assert_eq!(CacheGeometry::new(16 << 20, 8).line_id_bits(), 18);
    assert_eq!(CacheGeometry::new(1 << 20, 8).line_id_bits(), 14);
    assert_eq!(CacheGeometry::new(4 << 20, 16).line_id_bits(), 16);
}

#[test]
fn golden_engine_dispatch_sizes_are_stable() {
    // The same scripted sequence under every CABLE engine: sizes may only
    // change with a deliberate codec revision.
    let object = object_line();
    let mut edited = object;
    edited.set_word(3, 0x0999_9999);
    let expect = [
        // CPACK's seeded dictionary indexes 32 words (5 bits): a full
        // match costs 7 bits; the edited word is a 34-bit literal that
        // also shifts later indices into mmxx patterns.
        (EngineKind::Cpack128, 16 * 7, 139),
        (EngineKind::Lbe, 12, 59),
        (EngineKind::Lzss, 24, 84),
        (EngineKind::Oracle, 13, 60),
    ];
    for (kind, dup_bits, edit_bits) in expect {
        let engine = kind.build();
        let dup = engine.compress_seeded(&[object], &object).len_bits();
        let edit = engine.compress_seeded(&[object], &edited).len_bits();
        assert_eq!(dup, dup_bits, "{kind} duplicate payload");
        assert_eq!(edit, edit_bits, "{kind} edited payload");
    }
}

/// `LinkStats` of a `scheme` link with the given home and remote caches
/// (16-bit link, §VI-A engine setup) after a fixed stream of `workload`
/// instance 0 sent in 64-access batches: 20,480 warm-up accesses,
/// `reset_stats`, then 20,480 measured ones.
fn link_stats(
    scheme: cable::sim::Scheme,
    workload: &str,
    home: cable::cache::CacheGeometry,
    remote: cable::cache::CacheGeometry,
) -> cable::core::LinkStats {
    use cable::core::BatchAccess;
    use cable::sim::CompressedLink;
    use cable::trace::WorkloadGen;

    let mut link = CompressedLink::build(scheme, home, remote, 16);
    let mut gen = WorkloadGen::new(cable::trace::by_name(workload).unwrap(), 0);
    let mut batch = Vec::new();
    let mut xfers = Vec::new();
    let mut drive = |link: &mut CompressedLink, batches: usize| {
        for _ in 0..batches {
            batch.clear();
            for _ in 0..64 {
                let a = gen.next_access();
                let memory = gen.content(a.addr);
                batch.push(if a.is_write {
                    BatchAccess::write(a.addr, memory, gen.store_data(a.addr))
                } else {
                    BatchAccess::read(a.addr, memory)
                });
            }
            xfers.clear();
            link.request_batch(&batch, &mut xfers);
        }
    };
    drive(&mut link, 320);
    link.reset_stats();
    drive(&mut link, 320);
    *link.stats()
}

/// Every `LinkStats` field of the §VI-A CABLE+LBE link (4 MB 16-way home
/// L4, 1 MB 8-way remote LLC; the link perfbench's `encode-dealII` drives)
/// on the fixed dealII stream is pinned, so a host-side change that moves a
/// modelled count (data-array reads, compression operations, bit toggles)
/// on this geometry fails here.
#[test]
fn golden_section_vi_a_link_stats() {
    use cable::cache::CacheGeometry;
    use cable::core::LinkStats;
    use cable::sim::Scheme;

    let expect = LinkStats {
        fills: 6_582,
        remote_hits: 13_898,
        writebacks: 277,
        home_hits: 4,
        raw_transfers: 331,
        unseeded_transfers: 1_719,
        diff_transfers: 4_809,
        refs_sent: 5_165,
        uncompressed_bits: 3_511_808,
        payload_bits: 766_834,
        wire_bits: 818_752,
        wire_bits_packed: 836_986,
        data_array_reads: 39_307,
        compression_ops: 16_746,
        bit_toggles: 400_043,
        flits: 51_172,
    };
    let stats = link_stats(
        Scheme::Cable(EngineKind::Lbe),
        "dealII",
        CacheGeometry::new(4 << 20, 16),
        CacheGeometry::new(1 << 20, 8),
    );
    assert_eq!(stats, expect);
}

/// Every `LinkStats` field of the Uncompressed and the CPACK
/// `BaselineLink` on the Table IV thread shape perfbench's `starved-mcf`
/// runs (4 MB 16-way home L4, 1 MB 8-way remote LLC, 16-bit link) over the
/// fixed mcf stream. Reads, exclusive fills, remote-hit upgrades and
/// remote stores all run, so a change to the baseline link's tag walks
/// that moves a modelled count fails here.
#[test]
fn golden_baseline_link_stats() {
    use cable::cache::CacheGeometry;
    use cable::core::{BaselineKind, LinkStats};
    use cable::sim::Scheme;

    let stats = |scheme| {
        link_stats(
            scheme,
            "mcf",
            CacheGeometry::new(4 << 20, 16),
            CacheGeometry::new(1 << 20, 8),
        )
    };
    let uncompressed = LinkStats {
        fills: 9_238,
        remote_hits: 11_242,
        writebacks: 1_072,
        home_hits: 115,
        raw_transfers: 10_310,
        unseeded_transfers: 0,
        diff_transfers: 0,
        refs_sent: 0,
        uncompressed_bits: 5_278_720,
        payload_bits: 5_278_720,
        wire_bits: 5_278_720,
        wire_bits_packed: 5_340_580,
        data_array_reads: 0,
        compression_ops: 0,
        bit_toggles: 854_087,
        flits: 329_920,
    };
    let cpack = LinkStats {
        fills: 9_238,
        remote_hits: 11_242,
        writebacks: 1_072,
        home_hits: 115,
        raw_transfers: 0,
        unseeded_transfers: 10_310,
        diff_transfers: 0,
        refs_sent: 0,
        uncompressed_bits: 5_278_720,
        payload_bits: 1_261_270,
        wire_bits: 1_291_296,
        wire_bits_packed: 1_332_612,
        data_array_reads: 0,
        compression_ops: 20_620,
        bit_toggles: 552_668,
        flits: 80_706,
    };
    assert_eq!(stats(Scheme::Uncompressed), uncompressed);
    assert_eq!(stats(Scheme::Baseline(BaselineKind::Cpack)), cpack);
}

/// The same stream on a small CABLE+LBE link: 128 KB 4-way home, 64 KB
/// 8-way remote. The §VI-A link above sees few write-backs and home hits.
/// Here every §III-F signature-removal path runs thousands of times over
/// the 40,960 accesses: about 11,500 home evictions, 2,500 inclusive
/// back-invalidations, 10,100 displaced-home removals, 16,200 upgrades and
/// 3,000 write-backs. Their removals feed the pinned counts.
#[test]
fn golden_small_cache_link_stats() {
    use cable::cache::CacheGeometry;
    use cable::core::LinkStats;
    use cable::sim::Scheme;

    let stats = link_stats(
        Scheme::Cable(EngineKind::Lbe),
        "dealII",
        CacheGeometry::new(128 << 10, 4),
        CacheGeometry::new(64 << 10, 8),
    );
    assert!(
        stats.writebacks >= 1_000,
        "removal paths not exercised: {stats:?}"
    );
    let expect = LinkStats {
        fills: 6_800,
        remote_hits: 13_680,
        writebacks: 1_966,
        home_hits: 24,
        raw_transfers: 979,
        unseeded_transfers: 6_296,
        diff_transfers: 1_491,
        refs_sent: 1_621,
        uncompressed_bits: 4_488_192,
        payload_bits: 2_705_341,
        wire_bits: 2_779_824,
        wire_bits_packed: 2_799_020,
        data_array_reads: 95_457,
        compression_ops: 15_628,
        bit_toggles: 1_365_955,
        flits: 173_739,
    };
    assert_eq!(stats, expect);
}

/// Fault-mode counterpart of the small-cache golden: the same CABLE+LBE
/// link (128 KB 4-way home, 64 KB 8-way remote) over the fixed dealII
/// stream with fault injection armed, and one access in four replaced by
/// an `evict_remote` of its line. Every `LinkStats` and `FaultStats` field
/// is pinned, so a change to the fault-mode receiver that moves a modelled
/// count (compression operations, data-array reads, NACKs) fails here.
#[test]
fn golden_small_cache_fault_mode_stats() {
    use cable::cache::CacheGeometry;
    use cable::common::SplitMix64;
    use cable::core::{FaultConfig, FaultStats, LinkStats};

    let mut cfg = CableConfig::memory_link_default()
        .with_geometries(
            CacheGeometry::new(128 << 10, 4),
            CacheGeometry::new(64 << 10, 8),
        )
        .with_engine(EngineKind::Lbe)
        .with_link_width(16);
    cfg.data_access_count = 16;
    let mut link = CableLink::new(cfg);
    link.enable_fault_injection(FaultConfig::with_rate(0xFA17, 2e-3));
    let mut gen = cable::trace::WorkloadGen::new(cable::trace::by_name("dealII").unwrap(), 0);
    let mut rng = SplitMix64::new(27);
    // DIFF transfers per direction: fills from the returned transfers,
    // write-backs from the evictions of dirty lines.
    let (mut fill_diffs, mut writeback_diffs) = (0u64, 0u64);
    for _ in 0..20_480 {
        let a = gen.next_access();
        if rng.next_bounded(4) == 0 {
            let before = link.stats().diff_transfers;
            link.evict_remote(a.addr);
            writeback_diffs += link.stats().diff_transfers - before;
            continue;
        }
        let memory = gen.content(a.addr);
        let t = if a.is_write {
            let t = link.request_exclusive(a.addr, memory);
            link.remote_store(a.addr, gen.store_data(a.addr));
            t
        } else {
            link.request(a.addr, memory)
        };
        fill_diffs += u64::from(t.kind() == TransferKind::Diff);
    }
    let stats = *link.stats();
    let faults = *link.fault_stats().expect("fault mode on");
    // Each receiver branch ran: a raw fallback, a reference resolved from
    // the eviction buffer, and DIFFs decoded in both directions.
    assert!(faults.fallback_raw >= 1, "{faults:?}");
    assert!(faults.evict_buffer_hits >= 1, "{faults:?}");
    assert!(fill_diffs >= 1 && writeback_diffs >= 1, "{stats:?}");
    let expect = LinkStats {
        fills: 7_626,
        remote_hits: 7_679,
        writebacks: 1_781,
        home_hits: 952,
        raw_transfers: 1_005,
        unseeded_transfers: 7_112,
        diff_transfers: 1_290,
        refs_sent: 1_397,
        uncompressed_bits: 4_816_384,
        payload_bits: 9_936_745,
        wire_bits: 10_365_056,
        wire_bits_packed: 10_186_286,
        data_array_reads: 91_466,
        compression_ops: 24_080,
        bit_toggles: 4_835_718,
        flits: 647_816,
    };
    let expect_faults = FaultStats {
        frames_sent: 21_850,
        injected_frames: 12_820,
        injected_bit_flips: 18_981,
        injected_truncations: 931,
        dropped_notices: 683,
        delayed_notices: 293,
        nacks: 12_822,
        fallback_raw: 1_436,
        retransmitted_bits: 6_539_440,
        escalations: 0,
        reliable_frames: 0,
        evict_buffer_hits: 74,
        resyncs: 0,
        resync_repairs: 0,
    };
    assert_eq!((fill_diffs, writeback_diffs), (1_105, 90));
    assert_eq!(stats, expect);
    assert_eq!(faults, expect_faults);
}

/// Fig. 13's measurement, pinned: a 4-chip `NumaSim` (round-robin page
/// interleave, one CABLE or CPACK pipeline per coherence link pair) after
/// 20,000 accesses of mcf and of gcc. Every `LinkStats` field of
/// `combined_stats()` and the `access_split()` are pinned, so a change to
/// the NUMA loop that moves what the coherence links carry fails here.
#[test]
fn golden_numa_combined_stats() {
    use cable::core::{BaselineKind, LinkStats};
    use cable::sim::{NumaSim, Scheme};

    let cpack = Scheme::Baseline(BaselineKind::Cpack);
    let cable_lbe = Scheme::Cable(EngineKind::Lbe);
    let expect = [
        (
            "mcf",
            cpack,
            (5_190, 14_810),
            LinkStats {
                fills: 7_138,
                remote_hits: 7_672,
                writebacks: 27,
                home_hits: 1,
                raw_transfers: 0,
                unseeded_transfers: 7_165,
                diff_transfers: 0,
                refs_sent: 0,
                uncompressed_bits: 3_668_480,
                payload_bits: 849_940,
                wire_bits: 870_960,
                wire_bits_packed: 899_270,
                data_array_reads: 0,
                compression_ops: 14_330,
                bit_toggles: 367_254,
                flits: 54_435,
            },
        ),
        (
            "mcf",
            cable_lbe,
            (5_190, 14_810),
            LinkStats {
                fills: 7_138,
                remote_hits: 7_672,
                writebacks: 27,
                home_hits: 1,
                raw_transfers: 0,
                unseeded_transfers: 5_300,
                diff_transfers: 1_865,
                refs_sent: 1_952,
                uncompressed_bits: 3_668_480,
                payload_bits: 478_858,
                wire_bits: 528_400,
                wire_bits_packed: 562_286,
                data_array_reads: 6_113,
                compression_ops: 10_941,
                bit_toggles: 238_114,
                flits: 33_025,
            },
        ),
        (
            "gcc",
            cpack,
            (4_563, 15_437),
            LinkStats {
                fills: 5_091,
                remote_hits: 10_346,
                writebacks: 3,
                home_hits: 0,
                raw_transfers: 2,
                unseeded_transfers: 5_092,
                diff_transfers: 0,
                refs_sent: 0,
                uncompressed_bits: 2_608_128,
                payload_bits: 1_383_328,
                wire_bits: 1_414_112,
                wire_bits_packed: 1_429_148,
                data_array_reads: 0,
                compression_ops: 10_188,
                bit_toggles: 691_816,
                flits: 88_382,
            },
        ),
        (
            "gcc",
            cable_lbe,
            (4_563, 15_437),
            LinkStats {
                fills: 5_091,
                remote_hits: 10_346,
                writebacks: 3,
                home_hits: 0,
                raw_transfers: 233,
                unseeded_transfers: 3_839,
                diff_transfers: 1_022,
                refs_sent: 1_038,
                uncompressed_bits: 2_608_128,
                payload_bits: 1_269_425,
                wire_bits: 1_311_984,
                wire_bits_packed: 1_324_548,
                data_array_reads: 5_142,
                compression_ops: 7_398,
                bit_toggles: 658_074,
                flits: 81_999,
            },
        ),
    ];
    for (name, scheme, split, stats) in expect {
        let mut sim = NumaSim::new(cable::trace::by_name(name).unwrap(), scheme, 4);
        sim.run(20_000);
        let label = scheme.label();
        assert_eq!(sim.access_split(), split, "{name} {label} access split");
        assert_eq!(sim.combined_stats(), stats, "{name} {label} link stats");
    }
}
