//! Criterion micro-benchmarks for the hot kernels: each compression
//! engine, signature extraction and H3 hashing, the search pipeline, and
//! the end-to-end link request.
//!
//! These measure the *host* cost of the model (lines/second of simulation),
//! not the modelled hardware latency — Table IV cycle counts cover that.

use cable_common::{Address, LineData, SplitMix64};
use cable_compress::{Bdi, Compressor, Cpack, EngineKind, Lbe, Lzss, Oracle, SeededCompressor};
use cable_core::h3::H3;
use cable_core::{CableConfig, CableLink, SignatureBuf, SignatureExtractor};
use cable_trace::WorkloadGen;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn test_lines(n: usize, seed: u64) -> Vec<LineData> {
    let p = cable_trace::by_name("gcc").expect("gcc profile");
    let gen = WorkloadGen::new(p, seed);
    (0..n as u64)
        .map(|i| gen.content(Address::from_line_number(i)))
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let lines = test_lines(256, 0);
    let mut group = c.benchmark_group("compress_line");
    group.throughput(Throughput::Bytes(64));

    group.bench_function("cpack_per_line", |b| {
        let mut enc = Cpack::per_line();
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("cpack128_streaming", |b| {
        let mut enc = Cpack::streaming(128);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("bdi", |b| {
        let mut enc = Bdi::new();
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("lbe256_streaming", |b| {
        let mut enc = Lbe::streaming(256);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("lzss_32k", |b| {
        let mut enc = Lzss::new(32 << 10);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.finish();
}

fn bench_seeded(c: &mut Criterion) {
    let lines = test_lines(64, 1);
    let refs = [lines[0], lines[1], lines[2]];
    let target = {
        let mut t = lines[0];
        t.set_word(5, 0x0123_4567);
        t
    };
    let mut group = c.benchmark_group("seeded_diff");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("lbe", |b| {
        let engine = Lbe::seeded();
        b.iter(|| engine.compress_seeded(&refs, &target).len_bits());
    });
    group.bench_function("cpack128", |b| {
        let engine = Cpack::seeded();
        b.iter(|| engine.compress_seeded(&refs, &target).len_bits());
    });
    group.bench_function("oracle", |b| {
        let engine = Oracle::new();
        b.iter(|| engine.compress_seeded(&refs, &target).len_bits());
    });
    group.finish();
}

fn bench_signature_extract(c: &mut Criterion) {
    let extractor = SignatureExtractor::new(1);
    let lines = test_lines(256, 0);
    let mut group = c.benchmark_group("signature_extract");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("search", |b| {
        let mut sigs = SignatureBuf::new();
        let mut i = 0;
        b.iter(|| {
            extractor.search_signatures_into(&lines[i % lines.len()], &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.bench_function("insert", |b| {
        let mut sigs = SignatureBuf::new();
        let mut i = 0;
        b.iter(|| {
            extractor.insert_signatures_into(&lines[i % lines.len()], 2, &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.finish();
}

fn bench_h3(c: &mut Criterion) {
    let h = H3::new(0xcab1e, 32);
    let words: Vec<[u32; 16]> = test_lines(256, 1).iter().map(LineData::to_words).collect();
    let mut group = c.benchmark_group("h3_hash");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("hash_line", |b| {
        let mut i = 0;
        b.iter(|| {
            let hs = h.hash_line(&words[i % words.len()]);
            i += 1;
            hs.iter().fold(0u64, |a, &x| a ^ x)
        });
    });
    group.bench_function("hash_per_word", |b| {
        let mut i = 0;
        b.iter(|| {
            let ws = &words[i % words.len()];
            i += 1;
            ws.iter().fold(0u64, |a, &w| a ^ h.hash(w))
        });
    });
    group.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("cable_link");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("request_end_to_end", |b| {
        b.iter_batched(
            || {
                let mut cfg = CableConfig::memory_link_default();
                cfg.engine = EngineKind::Lbe;
                let link = CableLink::new(cfg);
                let p = cable_trace::by_name("dealII").expect("profile");
                (link, WorkloadGen::new(p, 0))
            },
            |(mut link, mut gen)| {
                for _ in 0..512 {
                    let a = gen.next_access();
                    let m = gen.content(a.addr);
                    link.request(a.addr, m);
                }
                link.stats().wire_bits
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
    use cable_core::hash_table::SignatureTable;
    use cable_core::search::search_references;
    use cable_core::SignatureExtractor;

    // A populated cache + table, then time the search pipeline alone.
    let geometry = CacheGeometry::new(1 << 20, 8);
    let extractor = SignatureExtractor::new(1);
    let mut cache = SetAssocCache::new(geometry);
    let mut table = SignatureTable::new(geometry.lines() / 2, 2);
    let lines = test_lines(4096, 3);
    for (i, line) in lines.iter().enumerate() {
        let outcome = cache.insert(
            Address::from_line_number(i as u64),
            *line,
            CoherenceState::Shared,
        );
        let packed = outcome.line_id.pack(&geometry) as u32;
        for sig in extractor.insert_signatures(line) {
            table.insert(sig, packed);
        }
    }
    let mut rng = SplitMix64::new(9);
    let mut group = c.benchmark_group("search_pipeline");
    group.bench_function("search_references_6", |b| {
        b.iter(|| {
            let target = lines[rng.next_bounded(4096) as usize];
            search_references(&target, &extractor, &table, &cache, None, 6, 3).1
        });
    });
    group.bench_function("search_references_64", |b| {
        b.iter(|| {
            let target = lines[rng.next_bounded(4096) as usize];
            search_references(&target, &extractor, &table, &cache, None, 64, 3).1
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_seeded,
    bench_signature_extract,
    bench_h3,
    bench_link,
    bench_search
);
criterion_main!(benches);
