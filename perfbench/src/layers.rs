//! The traced run (`--trace 1`): every workload again, with timers around
//! each public call into a layer and isolated kernel replays, giving the
//! per-layer metrics. End-to-end metrics never come from here.
//!
//! Each workload's traced passes also replay its untraced measured phase,
//! so `bench.trace_overhead.<workload>` (traced ÷ untraced host time) and
//! the traced-versus-untraced digest check come from the same run.

use crate::encode::{self, Feeder};
use crate::group::{self, SCHEMES};
use crate::passes::{self, PassOut, Passes};
use crate::report::{Digest, Metric};
use crate::telem;
use crate::Run;
use cable_cache::{CoherenceState, SetAssocCache};
use cable_common::{Address, LineData};
use cable_compress::{Cpack, Lbe, SeededCompressor};
use cable_core::codec::PayloadCodec;
use cable_core::h3::H3;
use cable_core::signature::INSERT_SIGNATURES;
use cable_core::{LinkStats, SignatureBuf, SignatureExtractor};
use cable_sim::SimArena;
use cable_telemetry::Telemetry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_access", "ns"),
    ("core.link_ns_per_access", "ns"),
    ("core.signature_ns_per_line", "ns"),
    ("core.h3_ns_per_line", "ns"),
    ("core.codec_ns_per_frame", "ns"),
    ("compress.lbe_ns_per_line", "ns"),
    ("compress.cpack_ns_per_line", "ns"),
    ("cache.ns_per_access", "ns"),
    ("core.remote_hit_frac", "frac"),
    ("core.home_hit_frac", "frac"),
    ("core.diff_frac", "frac"),
    ("core.unseeded_frac", "frac"),
    ("core.raw_frac", "frac"),
    ("core.refs_per_diff", "refs"),
    ("core.data_array_reads_per_fill", "reads"),
    ("core.wire_bits_per_fill", "bits"),
    ("sim.ns_per_instr.uncompressed", "ns"),
    ("sim.ns_per_instr.cpack", "ns"),
    ("sim.ns_per_instr.cable-lbe", "ns"),
    ("sim.setup_s.uncompressed", "s"),
    ("sim.setup_s.cpack", "s"),
    ("sim.setup_s.cable-lbe", "s"),
    ("sim.group_ips.uncompressed", "instr/sim_s"),
    ("sim.group_ips.cpack", "instr/sim_s"),
    ("sim.group_ips.cable-lbe", "instr/sim_s"),
    ("sim.lat.hier.p50_ps", "sim_ps"),
    ("sim.lat.hier.p99_ps", "sim_ps"),
    ("sim.lat.hier.share", "frac"),
    ("sim.lat.codec.p50_ps", "sim_ps"),
    ("sim.lat.codec.p99_ps", "sim_ps"),
    ("sim.lat.codec.share", "frac"),
    ("sim.lat.queue.p50_ps", "sim_ps"),
    ("sim.lat.queue.p99_ps", "sim_ps"),
    ("sim.lat.queue.share", "frac"),
    ("sim.lat.wire.p50_ps", "sim_ps"),
    ("sim.lat.wire.p99_ps", "sim_ps"),
    ("sim.lat.wire.share", "frac"),
    ("sim.lat.retry.p50_ps", "sim_ps"),
    ("sim.lat.retry.p99_ps", "sim_ps"),
    ("sim.lat.retry.share", "frac"),
    ("sim.lat.dram.p50_ps", "sim_ps"),
    ("sim.lat.dram.p99_ps", "sim_ps"),
    ("sim.lat.dram.share", "frac"),
    ("telemetry.events", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.jsonl_mb", "MB"),
    ("telemetry.ns_per_event", "ns"),
    ("telemetry.report_ns_per_event", "ns"),
    ("telemetry.to_json_ms", "ms"),
    ("bench.trace_overhead.encode-dealII", "ratio"),
    ("bench.trace_overhead.starved-mcf", "ratio"),
    ("bench.trace_overhead.telemetry-mcf", "ratio"),
];

/// Run shapes of the traced run: smaller than the untraced ones, since the
/// traced run replays each workload twice per pass and covers all three.
pub const ENCODE: encode::Size = encode::Size {
    warm: 60_000,
    windows: 8,
    per_window: 16_384,
};
pub const GROUP: group::Size = group::Size {
    warm: 20_000,
    instructions: 30_000,
    rounds: 1,
};
pub const TELEM: telem::Size = telem::Size {
    warm: 20_000,
    instructions: 20_000,
};

/// Lines captured from each traced encode pass for the kernel replays.
pub const CAPTURE: usize = 8_192;

/// Runs every workload traced, each on a third of the budget.
pub fn traced(seed: u64, budget: Duration) -> Run {
    let third = budget / 3;
    let parts = [
        traced_encode(seed, ENCODE, third),
        traced_group(GROUP, third),
        traced_telemetry(TELEM, third),
    ];
    let mut run = Run {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        shape: Vec::new(),
    };
    for (name, part) in ["encode", "group", "telemetry"].into_iter().zip(parts) {
        run.attempted += part.passes.attempted;
        run.failed += part.passes.failed;
        run.errors.extend(part.errors);
        run.metrics.extend(part.metrics);
        run.shape.push((
            name,
            format!(
                "{} passes x {} windows",
                part.passes.floor.passes(),
                part.passes.floor.windows()
            ),
        ));
    }
    // Report in table order; every per-layer metric must be present.
    run.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = run
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("traced run did not measure {name}"));
            Metric::new(name, unit, m.value)
        })
        .collect();
    run
}

struct Part {
    passes: Passes,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

fn frac(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

/// Kernels replayed on a pass's captured lines, in window order.
const KERNELS: usize = 6;

/// Times each isolated kernel over the captured `(address, line)` pairs;
/// every replayed line is checked (decode round trips, frames parse).
fn replay_kernels(lines: &[(Address, LineData)], digest: &mut Digest) -> [f64; KERNELS] {
    let refs_of = |i: usize| -> Vec<LineData> {
        (i.saturating_sub(3)..i).rev().map(|j| lines[j].1).collect()
    };
    let mut times = [0.0; KERNELS];

    // Signature search and insert.
    let ext = SignatureExtractor::new(0);
    let (mut search, mut insert) = (SignatureBuf::new(), SignatureBuf::new());
    let t = Instant::now();
    let mut sigs = 0;
    for (_, line) in lines {
        ext.search_signatures_into(line, &mut search);
        ext.insert_signatures_into(line, INSERT_SIGNATURES, &mut insert);
        sigs += search.len() + insert.len();
    }
    times[0] = passes::secs(t);
    digest.add(sigs as u64);

    // H3 over whole lines.
    let h3 = H3::new(0, 32);
    let t = Instant::now();
    let mut fold = 0u64;
    for (_, line) in lines {
        fold ^= black_box(h3.hash_line(&line.to_words()))[0];
    }
    times[1] = passes::secs(t);
    digest.add(fold);

    // Seeded compress plus decompress, against up to three earlier lines.
    let engines: [&dyn SeededCompressor; 2] = [&Lbe::seeded(), &Cpack::seeded()];
    let mut diffs = Vec::with_capacity(lines.len());
    for (k, engine) in engines.iter().enumerate() {
        let t = Instant::now();
        let mut bits = 0;
        for (i, (_, line)) in lines.iter().enumerate() {
            let refs = refs_of(i);
            let enc = engine.compress_seeded(&refs, line);
            let back = engine
                .decompress_seeded(&refs, &enc)
                .expect("seeded payload decodes");
            assert_eq!(&back, line, "{} round trip", engine.name());
            bits += enc.len_bits();
            if k == 0 {
                diffs.push(enc);
            }
        }
        times[3 + k] = passes::secs(t);
        digest.add(bits as u64);
    }

    // Guarded frame encode and parse of the LBE payloads.
    let codec = PayloadCodec::new(encode::home().line_id_bits(), 16);
    let lid_mask = (1u64 << codec.lid_bits()) - 1;
    let t = Instant::now();
    let mut frame_bits = 0;
    for (i, ((_, line), diff)) in lines.iter().zip(&diffs).enumerate() {
        let lids: Vec<u64> = (0..i.min(3)).map(|j| (i + j) as u64 & lid_mask).collect();
        let frame = codec.encode_guarded(&codec.encode_compressed(&lids, diff), line);
        let (_, crc) = codec
            .parse_guarded(frame.as_slice(), frame.len_bits())
            .expect("guarded frame parses");
        frame_bits += frame.len_bits() + (crc & 1) as usize;
    }
    times[2] = passes::secs(t);
    digest.add(frame_bits as u64);

    // Home-geometry cache: look up, fill on a miss.
    let mut cache = SetAssocCache::new(encode::home());
    let t = Instant::now();
    for &(addr, line) in lines {
        if cache.access(addr).is_none() {
            cache.insert(addr, line, CoherenceState::Shared);
        }
    }
    times[5] = passes::secs(t);
    let (hits, misses) = cache.stats();
    digest.add(hits);
    digest.add(misses);
    times
}

fn traced_encode(seed: u64, size: encode::Size, budget: Duration) -> Part {
    let w = size.windows;
    // Windows: untraced [0, w), traced [w, 2w), trace generation per traced
    // window [2w, 3w), link calls per traced window [3w, 4w), then the
    // kernels.
    let (fill_slot, send_slot, kernel_slot) = (2 * w, 3 * w, 4 * w);
    let input = encode::generator(seed);
    let mut stats = LinkStats::default();
    let mut errors = Vec::new();
    let passes = passes::run(1, kernel_slot + KERNELS, budget, || {
        let t = Instant::now();
        let (mut link, mut gen) = encode::warmed(&input, size);
        let setup_s = passes::secs(t);
        let mut feeder = Feeder::default();
        let mut window_s: Vec<f64> = (0..w)
            .map(|_| {
                let t = Instant::now();
                feeder.drive(&mut link, &mut gen, size.per_window);
                passes::secs(t)
            })
            .collect();
        let untraced = *link.stats();

        let (mut link, mut gen) = encode::warmed(&input, size);
        let mut feeder = Feeder::default();
        let (mut fill_s, mut send_s) = (vec![0.0; w], vec![0.0; w]);
        let mut captured = Vec::with_capacity(CAPTURE);
        for i in 0..w {
            let window = Instant::now();
            let mut left = size.per_window;
            while left > 0 {
                let n = left.min(encode::BATCH as u64) as usize;
                let t0 = Instant::now();
                feeder.fill(&mut gen, n);
                let t1 = Instant::now();
                feeder.send(&mut link);
                let t2 = Instant::now();
                fill_s[i] += (t1 - t0).as_secs_f64();
                send_s[i] += (t2 - t1).as_secs_f64();
                let room = CAPTURE - captured.len();
                captured.extend(feeder.batch.iter().take(room).map(|b| (b.addr, b.memory)));
                left -= n as u64;
            }
            window_s.push(passes::secs(window));
        }
        window_s.extend(fill_s);
        window_s.extend(send_s);
        stats = *link.stats();
        if stats != untraced {
            errors.push("traced encode pass diverged from the untraced one".to_string());
        }
        let mut digest = Digest::default();
        encode::digest_stats(&mut digest, &stats);
        window_s.extend(replay_kernels(&captured, &mut digest));
        PassOut {
            setup_s: vec![setup_s],
            window_s,
            digest,
        }
    });
    let f = &passes.floor;
    let accesses = (w as u64 * size.per_window) as f64;
    let lines = CAPTURE as f64;
    let kernel_ns = |k: usize| f.host_s_of(kernel_slot + k..kernel_slot + k + 1) * 1e9 / lines;
    let s = &stats;
    let fills = s.fills;
    let metrics = vec![
        Metric::new(
            "trace.ns_per_access",
            "ns",
            f.host_s_of(fill_slot..fill_slot + w) * 1e9 / accesses,
        ),
        Metric::new(
            "core.link_ns_per_access",
            "ns",
            f.host_s_of(send_slot..send_slot + w) * 1e9 / accesses,
        ),
        Metric::new("core.signature_ns_per_line", "ns", kernel_ns(0)),
        Metric::new("core.h3_ns_per_line", "ns", kernel_ns(1)),
        Metric::new("core.codec_ns_per_frame", "ns", kernel_ns(2)),
        Metric::new("compress.lbe_ns_per_line", "ns", kernel_ns(3)),
        Metric::new("compress.cpack_ns_per_line", "ns", kernel_ns(4)),
        Metric::new("cache.ns_per_access", "ns", kernel_ns(5)),
        Metric::new(
            "core.remote_hit_frac",
            "frac",
            s.remote_hits as f64 / accesses,
        ),
        Metric::new("core.home_hit_frac", "frac", frac(s.home_hits, fills)),
        Metric::new("core.diff_frac", "frac", frac(s.diff_transfers, fills)),
        Metric::new(
            "core.unseeded_frac",
            "frac",
            frac(s.unseeded_transfers, fills),
        ),
        Metric::new("core.raw_frac", "frac", frac(s.raw_transfers, fills)),
        Metric::new(
            "core.refs_per_diff",
            "refs",
            frac(s.refs_sent, s.diff_transfers),
        ),
        Metric::new(
            "core.data_array_reads_per_fill",
            "reads",
            frac(s.data_array_reads, fills),
        ),
        Metric::new("core.wire_bits_per_fill", "bits", frac(s.wire_bits, fills)),
        Metric::new(
            "bench.trace_overhead.encode-dealII",
            "ratio",
            f.host_s_of(w..2 * w) / f.host_s_of(0..w),
        ),
    ];
    Part {
        passes,
        metrics,
        errors,
    }
}

fn traced_group(size: group::Size, budget: Duration) -> Part {
    let n = SCHEMES.len();
    // Set-up parts: each scheme's warm-up. Windows: the three calls under
    // one timer [0]; the same three calls each under its own timer, as a
    // whole [1] and per call [2, 2 + n).
    let calls_slot = 2;
    let mut results = Vec::new();
    let mut errors = Vec::new();
    let passes = passes::run(n, calls_slot + n, budget, || {
        let mut arena = SimArena::new();
        let warm_s = group::warm_arena(&mut arena, size);
        let t = Instant::now();
        let untraced: Vec<_> = SCHEMES
            .iter()
            .map(|&(scheme, _)| group::call(&mut arena, scheme, size))
            .collect();
        let mut window_s = vec![passes::secs(t), 0.0];
        let mut digest = Digest::default();
        results.clear();
        let traced = Instant::now();
        for (scheme, label) in SCHEMES {
            let t = Instant::now();
            let r = group::call(&mut arena, scheme, size);
            window_s.push(passes::secs(t));
            group::digest_result(&mut digest, &r);
            if (r.group_instructions, r.elapsed_ps)
                != (
                    untraced[results.len()].group_instructions,
                    untraced[results.len()].elapsed_ps,
                )
            {
                errors.push(format!(
                    "traced {label} call diverged from the untraced one"
                ));
            }
            results.push(r);
        }
        window_s[1] = passes::secs(traced);
        PassOut {
            setup_s: warm_s.to_vec(),
            window_s,
            digest,
        }
    });
    let f = &passes.floor;
    let mut metrics = Vec::new();
    for (i, ((_, label), r)) in SCHEMES.iter().zip(&results).enumerate() {
        metrics.push(Metric::new(
            format!("sim.ns_per_instr.{label}"),
            "ns",
            f.host_s_of(calls_slot + i..calls_slot + i + 1) * 1e9 / r.group_instructions as f64,
        ));
        metrics.push(Metric::new(
            format!("sim.setup_s.{label}"),
            "s",
            f.setup_s_of(i..i + 1),
        ));
        metrics.push(Metric::new(
            format!("sim.group_ips.{label}"),
            "instr/sim_s",
            r.group_ips(),
        ));
    }
    metrics.push(Metric::new(
        "bench.trace_overhead.starved-mcf",
        "ratio",
        f.host_s_of(1..2) / f.host_s_of(0..1),
    ));
    Part {
        passes,
        metrics,
        errors,
    }
}

fn traced_telemetry(size: telem::Size, budget: Duration) -> Part {
    // Windows: the untraced workload (stream, report), then traced: the
    // same group untraced, stream, parse, to_json.
    let buf = telem::TraceBuf::default();
    let mut last = None;
    let mut errors = Vec::new();
    let passes = passes::run(1, 6, budget, || {
        let t = Instant::now();
        let _ = telem::call(size, 0, &Telemetry::disabled());
        let setup_s = passes::secs(t);
        let t = Instant::now();
        let _ = telem::stream(size, &buf);
        let stream_s = passes::secs(t);
        let text = buf.take_text();
        let t = Instant::now();
        let _ = telem::report(&text);
        let report_s = passes::secs(t);
        buf.recycle(text);

        let t = Instant::now();
        let plain = telem::call(size, size.instructions, &Telemetry::disabled());
        let plain_s = passes::secs(t);
        let t = Instant::now();
        let streamed = telem::stream(size, &buf);
        let traced_s = passes::secs(t);
        let text = buf.take_text();
        let t = Instant::now();
        let rep = cable_telemetry::Report::from_jsonl(&text).expect("the streamed trace parses");
        let parse_s = passes::secs(t);
        let t = Instant::now();
        let json = rep.to_json();
        let json_s = passes::secs(t);
        let jsonl_bytes = text.len();
        buf.recycle(text);

        let mut digest = Digest::default();
        group::digest_result(&mut digest, &streamed.result);
        digest.add(streamed.events);
        digest.add(streamed.dropped);
        telem::digest_lat(&mut digest, &rep);
        if (plain.group_instructions, plain.elapsed_ps)
            != (
                streamed.result.group_instructions,
                streamed.result.elapsed_ps,
            )
        {
            errors.push("telemetry changed the simulated result".to_string());
        }
        if let Err(e) = telem::exact_sum(&rep) {
            errors.push(e);
        }
        if streamed.dropped > 0 {
            errors.push(format!("{} events dropped", streamed.dropped));
        }
        last = Some((streamed, rep, jsonl_bytes, json.len()));
        PassOut {
            setup_s: vec![setup_s],
            window_s: vec![stream_s, report_s, plain_s, traced_s, parse_s, json_s],
            digest,
        }
    });
    let (streamed, rep, jsonl_bytes, _) = last.expect("at least one pass ran");
    let f = &passes.floor;
    let one = |i: usize| f.host_s_of(i..i + 1);
    let events = streamed.events.max(1) as f64;
    let total = telem::lat(&rep, "total");
    let mut metrics = Vec::new();
    for stage in telem::STAGES {
        let h = telem::lat(&rep, stage);
        metrics.push(Metric::new(
            format!("sim.lat.{stage}.p50_ps"),
            "sim_ps",
            h.p50 as f64,
        ));
        metrics.push(Metric::new(
            format!("sim.lat.{stage}.p99_ps"),
            "sim_ps",
            h.p99 as f64,
        ));
        metrics.push(Metric::new(
            format!("sim.lat.{stage}.share"),
            "frac",
            frac(h.sum, total.sum),
        ));
    }
    metrics.extend([
        Metric::new("telemetry.events", "count", streamed.events as f64),
        Metric::new("telemetry.dropped", "count", streamed.dropped as f64),
        Metric::new("telemetry.jsonl_mb", "MB", jsonl_bytes as f64 / 1e6),
        Metric::new(
            "telemetry.ns_per_event",
            "ns",
            (one(3) - one(2)) * 1e9 / events,
        ),
        Metric::new("telemetry.report_ns_per_event", "ns", one(4) * 1e9 / events),
        Metric::new("telemetry.to_json_ms", "ms", one(5) * 1e3),
        Metric::new(
            "bench.trace_overhead.telemetry-mcf",
            "ratio",
            (one(3) + one(4) + one(5)) / (one(0) + one(1)),
        ),
    ]);
    Part {
        passes,
        metrics,
        errors,
    }
}
