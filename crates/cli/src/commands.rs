//! Subcommand parsing and execution.

use cable_bench::runner::{compression_study, default_schemes, StudyConfig};
use cable_compress::EngineKind;
use cable_core::area::{
    crc_guard_bits, home_side_area, paper_offchip_config, remote_side_area, CRC_ENGINE_ROWS,
    SEARCH_LOGIC_ROWS,
};
use cable_core::{BaselineKind, BatchAccess, FaultConfig};
use cable_sim::{run_group, run_single_telemetry, DegradePolicy, Scheme, SystemConfig};
use cable_telemetry::json::{self, validate_jsonl};
use cable_telemetry::{diff_reports, JsonlSink, Report, SloSpec, Telemetry, TracerConfig};
use cable_trace::record::{record_synthetic, TraceReader, TraceRecord};
use cable_trace::WorkloadGen;
use std::io::Write;

/// Usage text shown on errors and `cable help`.
pub const USAGE: &str = "\
usage: cable <command> [args]

commands:
  workloads                        list the synthetic SPEC2006-like benchmarks
  bench <workload> [accesses]      compression ratios of every scheme
  record <workload> <n> <file>     capture a synthetic trace (CBTR format)
  replay <file>                    evaluate compression schemes on a trace
  throughput <workload> [threads]  throughput speedups at a thread count
  fabric <workload> [nodes] [GB/s] multi-chip PTP-link throughput (§V-B);
                                   --fault-rate R arms lossy links (per-bit
                                   flip rate R) and --degrade the
                                   closed-loop ladder
                                   (Compressed -> RawOnly -> LinkOff with
                                   scheduled resyncs); --mesh-fault-rate R
                                   arms the mesh wires only (overriding
                                   --fault-rate there), --mesh-fault-hop H
                                   pins the faults to one wire, and
                                   --trace PREFIX streams the CABLE run's
                                   telemetry to <PREFIX>.jsonl for
                                   `cable report --hops`
  stats <workload> [lines]         data-pattern statistics of a workload
  area                             Table III-style area overhead report
  trace <workload> [ins] [prefix]  run with telemetry; write <prefix>.jsonl
                                   and <prefix>.trace.json (Chrome/Perfetto);
                                   --stream drains the JSONL incrementally so
                                   any region length runs in O(ring) memory
  report <trace.jsonl> [out.json]  analyse a trace: per-phase link/DRAM/mesh
                                   utilization, encode mix, NACK rates,
                                   histogram p50/p90/p99/p999, and per-stage
                                   access-latency percentile tables (hier/
                                   codec/queue/wire/retry/dram/total);
                                   --hops prints only the per-hop mesh wire
                                   table (busy permille, queue-depth p50/p99,
                                   fault counts, heatmap) with the --top K
                                   hottest/faultiest wires (default 3);
                                   --slo stage.pXX<=N_ps gates a latency
                                   percentile (e.g. total.p99<=1_200_000_ps)
                                   and exits nonzero on breach
  report --diff <A.json> <B.json>  field-by-field delta of two report
                                   artifacts (encode mix, fault counts,
                                   percentiles); exits nonzero when a field
                                   drifts more than --threshold permille
                                   (default 100); --slo additionally gates
                                   the candidate (B) artifact
  help                             this text";

/// Parses and runs one invocation.
///
/// # Errors
///
/// Returns a message suitable for the user on unknown commands, missing
/// arguments, unknown workloads, or I/O failures.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let no_flags = |_: &str, _: &mut FlagValues| Ok(false);
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            positionals(cmd, &args[1..], 0, no_flags)?;
            println!("{USAGE}");
            Ok(())
        }
        "workloads" => {
            positionals(cmd, &args[1..], 0, no_flags)?;
            workloads();
            Ok(())
        }
        "bench" => {
            let rest = positionals(cmd, &args[1..], 2, no_flags)?;
            let name = rest.first().ok_or("bench needs a workload name")?;
            let accesses = parse_or(rest.get(1).copied(), 60_000)?;
            bench(name, accesses)
        }
        "record" => {
            let rest = positionals(cmd, &args[1..], 3, no_flags)?;
            let name = rest.first().ok_or("record needs a workload name")?;
            let n = parse_or(rest.get(1).copied(), 0)?;
            if n == 0 {
                return Err("record needs an access count".into());
            }
            let path = rest.get(2).ok_or("record needs an output file")?;
            record(name, n, path)
        }
        "replay" => {
            let rest = positionals(cmd, &args[1..], 1, no_flags)?;
            let path = rest.first().ok_or("replay needs a trace file")?;
            replay(path)
        }
        "throughput" => {
            let rest = positionals(cmd, &args[1..], 2, no_flags)?;
            let name = rest.first().ok_or("throughput needs a workload name")?;
            let threads = parse_or(rest.get(1).copied(), 2048)?;
            throughput(name, threads as usize)
        }
        "fabric" => {
            let (name, nodes, gbps, opts) = parse_fabric(&args[1..])?;
            fabric(name, nodes, gbps, &opts, &mut std::io::stdout().lock())
        }
        "stats" => {
            let rest = positionals(cmd, &args[1..], 2, no_flags)?;
            let name = rest.first().ok_or("stats needs a workload name")?;
            let lines = parse_or(rest.get(1).copied(), 50_000)?;
            stats(name, lines)
        }
        "area" => {
            positionals(cmd, &args[1..], 0, no_flags)?;
            area();
            Ok(())
        }
        "trace" => {
            let mut stream = false;
            let rest = positionals(cmd, &args[1..], 3, |flag, _| {
                stream |= flag == "--stream";
                Ok(flag == "--stream")
            })?;
            let name = rest.first().ok_or("trace needs a workload name")?;
            let instructions = parse_or(rest.get(1).copied(), 20_000)?;
            let prefix = rest.get(2).unwrap_or(name);
            trace(name, instructions, prefix, stream)
        }
        "report" => {
            let (mut threshold, mut top, mut slo) = (None, None, None);
            let (mut diff, mut hops) = (false, false);
            let paths = positionals(cmd, &args[1..], 2, |flag, values| {
                let mut value = || values.next().ok_or(format!("{flag} needs a value"));
                match flag {
                    "--threshold" => threshold = Some(value()?),
                    "--top" => top = Some(value()?),
                    "--slo" => slo = Some(value()?),
                    "--diff" => diff = true,
                    "--hops" => hops = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let threshold = threshold
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| format!("`{s}` is not a permille threshold"))
                })
                .transpose()?
                .unwrap_or(DIFF_THRESHOLD_PERMILLE);
            let top = top
                .map(|s| {
                    s.parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| format!("`{s}` is not a top-K count (>= 1)"))
                })
                .transpose()?
                .unwrap_or(cable_telemetry::DEFAULT_HOP_TOP);
            let slo = slo.map(|s| SloSpec::parse(s)).transpose()?;
            if diff {
                let [a, b] = paths[..] else {
                    return Err("report --diff needs two report.json files".into());
                };
                report_diff(a, b, threshold, slo.as_ref())
            } else {
                let trace_path = paths.first().ok_or("report needs a trace.jsonl file")?;
                report(trace_path, paths.get(1).copied(), hops, top, slo.as_ref())
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The arguments after a `--` flag, from which a flag takes its value.
type FlagValues<'a> = std::slice::Iter<'a, String>;

/// Splits `cmd`'s arguments into at most `max` positionals. Each `--`
/// argument goes to `flag`, which takes the flag's value, if it has one,
/// from the arguments after it and returns `Ok(false)` for a flag `cmd`
/// does not know.
///
/// # Errors
///
/// `<cmd>: unknown flag` and `<cmd>: unexpected argument`, or the first
/// error `flag` returns.
fn positionals<'a>(
    cmd: &str,
    args: &'a [String],
    max: usize,
    mut flag: impl FnMut(&str, &mut FlagValues<'a>) -> Result<bool, String>,
) -> Result<Vec<&'a str>, String> {
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            rest.push(a.as_str());
        } else if !flag(a, &mut it)? {
            return Err(format!("{cmd}: unknown flag `{a}`"));
        }
    }
    match rest.get(max) {
        Some(extra) => Err(format!("{cmd}: unexpected argument `{extra}`")),
        None => Ok(rest),
    }
}

fn parse_or(arg: Option<&str>, default: u64) -> Result<u64, String> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("`{s}` is not a number")),
    }
}

fn profile(name: &str) -> Result<&'static cable_trace::WorkloadProfile, String> {
    cable_trace::by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `cable workloads`)"))
}

fn workloads() {
    println!(
        "{:12} {:>9} {:>8} {:>7}  traits",
        "name", "WS lines", "mem/ins", "writes"
    );
    for p in cable_trace::ALL_WORKLOADS {
        let mut traits = Vec::new();
        if p.zero_dominant {
            traits.push("zero-dominant");
        }
        if p.hot_frac > 0.5 {
            traits.push("compute-bound");
        }
        if p.byte_shift_frac > 0.0 {
            traits.push("byte-shifted");
        }
        if p.content_diverges {
            traits.push("instances-diverge");
        }
        println!(
            "{:12} {:>9} {:>8.2} {:>7.2}  {}",
            p.name,
            p.working_set_lines,
            p.mem_ratio,
            p.write_frac,
            traits.join(", ")
        );
    }
}

fn bench(name: &str, accesses: u64) -> Result<(), String> {
    let p = profile(name)?;
    println!("{name}: {accesses} measured accesses (plus half that as warm-up)\n");
    println!(
        "{:12} {:>7} {:>8} {:>9} {:>7} {:>7}",
        "scheme", "ratio", "diffs", "unseeded", "raw", "wb"
    );
    let cfg = StudyConfig {
        warmup_accesses: accesses / 2,
        accesses,
        ..StudyConfig::paper_defaults()
    };
    for scheme in default_schemes() {
        let s = compression_study(p, scheme, &cfg);
        println!(
            "{:12} {:>6.2}x {:>8} {:>9} {:>7} {:>7}",
            scheme.label(),
            s.compression_ratio(),
            s.diff_transfers,
            s.unseeded_transfers,
            s.raw_transfers,
            s.writebacks
        );
    }
    Ok(())
}

fn record(name: &str, n: u64, path: &str) -> Result<(), String> {
    let p = profile(name)?;
    let mut gen = WorkloadGen::new(p, 0);
    let trace = record_synthetic(&mut gen, n);
    std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "recorded {n} accesses of {name} to {path} ({} KB)",
        trace.len() / 1024
    );
    Ok(())
}

fn replay(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    println!("{:12} {:>7} {:>8} {:>7}", "scheme", "ratio", "fills", "wb");
    let accesses = TraceReader::new(bytes)
        .map_err(|e| e.to_string())?
        .map(|r| {
            let TraceRecord {
                addr,
                is_write,
                data,
            } = r.map_err(|e| e.to_string())?;
            Ok(if is_write {
                BatchAccess::write(addr, data, data)
            } else {
                BatchAccess::read(addr, data)
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for scheme in default_schemes() {
        let mut link = StudyConfig::paper_defaults().build_link(scheme);
        link.request_batch(&accesses, &mut Vec::with_capacity(accesses.len()));
        let s = link.stats();
        println!(
            "{:12} {:>6.2}x {:>8} {:>7}",
            scheme.label(),
            s.compression_ratio(),
            s.fills,
            s.writebacks
        );
    }
    Ok(())
}

fn throughput(name: &str, threads: usize) -> Result<(), String> {
    if threads < 8 || !threads.is_multiple_of(8) {
        return Err("thread count must be a positive multiple of 8".into());
    }
    let p = profile(name)?;
    let cfg = SystemConfig::paper_defaults();
    let instrs = 25_000;
    println!("{name} at {threads} threads (groups of 8 share bandwidth):\n");
    let base = run_group(p, Scheme::Uncompressed, threads, instrs, &cfg);
    println!("{:12} {:>12.3e} ins/s", "uncompressed", base.system_ips());
    for scheme in [
        Scheme::Baseline(BaselineKind::Cpack),
        Scheme::Baseline(BaselineKind::Gzip),
        Scheme::Cable(EngineKind::Lbe),
    ] {
        let r = run_group(p, scheme, threads, instrs, &cfg);
        println!(
            "{:12} {:>12.3e} ins/s  ({:.2}x)",
            scheme.label(),
            r.system_ips(),
            r.system_ips() / base.system_ips()
        );
    }
    Ok(())
}

/// Seed of the CLI's fault schedules (`fabric --fault-rate`).
const FABRIC_FAULT_SEED: u64 = 0x000c_ab1e_c11e;

/// Parsed `fabric` flags.
#[derive(Clone, Debug, Default)]
struct FabricOpts {
    fault_rate: Option<f64>,
    degrade: bool,
    mesh_fault_rate: Option<f64>,
    mesh_fault_hop: Option<u32>,
    trace_prefix: Option<String>,
}

/// Parses `fabric`'s arguments (after the command name) into the
/// workload name, chip count, PTP bandwidth in GB/s and flags.
fn parse_fabric(args: &[String]) -> Result<(&str, usize, f64, FabricOpts), String> {
    let mut opts = FabricOpts::default();
    let rate = |flag: &str, values: &mut FlagValues| {
        let s = values.next().ok_or(format!("{flag} needs a value"))?;
        s.parse::<f64>()
            .ok()
            .filter(|r| *r > 0.0 && *r < 1.0)
            .ok_or_else(|| format!("`{s}` is not a per-bit fault rate in (0, 1) ({flag})"))
    };
    let rest = positionals("fabric", args, 3, |flag, values| {
        match flag {
            "--fault-rate" => opts.fault_rate = Some(rate(flag, values)?),
            "--mesh-fault-rate" => opts.mesh_fault_rate = Some(rate(flag, values)?),
            "--mesh-fault-hop" => {
                let s = values.next().ok_or("--mesh-fault-hop needs a value")?;
                opts.mesh_fault_hop = Some(
                    s.parse::<u32>()
                        .map_err(|_| format!("`{s}` is not a mesh hop index"))?,
                );
            }
            "--trace" => {
                let s = values.next().ok_or("--trace needs an output prefix")?;
                opts.trace_prefix = Some(s.clone());
            }
            "--degrade" => opts.degrade = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let name = rest.first().ok_or("fabric needs a workload name")?;
    let nodes = parse_or(rest.get(1).copied(), 4)? as usize;
    let gbps = rest
        .get(2)
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("`{s}` is not a number"))
        })
        .transpose()?
        .unwrap_or(2.4);
    Ok((name, nodes, gbps, opts))
}

fn fabric(
    name: &str,
    nodes: usize,
    gbps: f64,
    opts: &FabricOpts,
    out: &mut dyn Write,
) -> Result<(), String> {
    let write_err = |e: std::io::Error| format!("cannot write output: {e}");
    if nodes < 2 {
        return Err("a fabric needs at least two chips".into());
    }
    if gbps <= 0.0 {
        return Err("PTP bandwidth must be positive".into());
    }
    let wires = nodes * (nodes - 1) / 2;
    if opts.mesh_fault_hop.is_some() && opts.mesh_fault_rate.is_none() {
        return Err("--mesh-fault-hop requires --mesh-fault-rate".into());
    }
    if let Some(h) = opts.mesh_fault_hop {
        if h as usize >= wires {
            return Err(format!(
                "mesh hop {h} is out of range: a {nodes}-chip mesh has {wires} wires (0..{})",
                wires - 1
            ));
        }
    }
    let p = profile(name)?;
    let cfg = SystemConfig {
        fault: opts
            .fault_rate
            .map(|r| FaultConfig::with_rate(FABRIC_FAULT_SEED, r)),
        degrade: opts.degrade.then(DegradePolicy::paper_defaults),
        mesh_fault: opts
            .mesh_fault_rate
            .map(|r| FaultConfig::with_rate(FABRIC_FAULT_SEED, r)),
        mesh_fault_hop: opts.mesh_fault_hop,
        ..SystemConfig::paper_defaults()
    };
    let loop_desc = match (opts.fault_rate, opts.degrade) {
        (Some(r), true) => format!(", {r:.0e} faults/bit + degradation ladder"),
        (Some(r), false) => format!(", {r:.0e} faults/bit"),
        (None, true) => ", degradation ladder armed".to_string(),
        (None, false) => String::new(),
    };
    let mesh_desc = match (opts.mesh_fault_rate, opts.mesh_fault_hop) {
        (Some(r), Some(h)) => format!(", {r:.0e} mesh faults/bit pinned to hop {h}"),
        (Some(r), None) => format!(", {r:.0e} mesh faults/bit"),
        (None, _) => String::new(),
    };
    writeln!(
        out,
        "{name}: {nodes}-chip fabric, {gbps} GB/s per PTP link{loop_desc}{mesh_desc}\n"
    )
    .map_err(write_err)?;
    let mut base =
        cable_sim::FabricSim::with_config(p, Scheme::Uncompressed, nodes, gbps * 1e9, &cfg);
    let rb = base.run(20_000);
    writeln!(out, "{:12} {:>12.3e} ins/s", "uncompressed", rb.ips()).map_err(write_err)?;
    for scheme in [
        Scheme::Baseline(BaselineKind::Cpack),
        Scheme::Cable(EngineKind::Lbe),
    ] {
        let mut f = cable_sim::FabricSim::with_config(p, scheme, nodes, gbps * 1e9, &cfg);
        // `--trace` streams the CABLE run (the scheme the per-hop fault
        // counters instrument) to <prefix>.jsonl for `report --hops`.
        let traced = matches!(scheme, Scheme::Cable(_));
        let tel = match (&opts.trace_prefix, traced) {
            (Some(prefix), true) => {
                let jsonl_path = format!("{prefix}.jsonl");
                let file = std::fs::File::create(&jsonl_path)
                    .map_err(|e| format!("cannot create {jsonl_path}: {e}"))?;
                let sink = JsonlSink::streaming(std::io::BufWriter::new(file))
                    .map_err(|e| format!("cannot write {jsonl_path}: {e}"))?;
                let mut tcfg = TracerConfig::with_capacity(STREAM_TRACK_CAPACITY);
                tcfg.drain_threshold = Some(STREAM_DRAIN_THRESHOLD);
                let tel = Telemetry::streaming(tcfg, Box::new(sink));
                f.set_telemetry(tel.clone());
                Some((tel, jsonl_path))
            }
            _ => None,
        };
        let r = f.run(20_000);
        let s = f.coherence_stats();
        writeln!(
            out,
            "{:12} {:>12.3e} ins/s  ({:.2}x, PTP ratio {:.2}x)",
            scheme.label(),
            r.ips(),
            r.ips() / rb.ips(),
            s.compression_ratio()
        )
        .map_err(write_err)?;
        if let Some(fs) = f.fault_stats() {
            writeln!(
                out,
                "{:12} faults: {} injected, {} NACKs, {} reliable frames",
                "", fs.injected_frames, fs.nacks, fs.reliable_frames
            )
            .map_err(write_err)?;
        }
        if cfg.mesh_fault.is_some() {
            for h in f.hop_stats() {
                let (inj, nacks) = h.fault.map_or((0, 0), |fs| (fs.injected_frames, fs.nacks));
                writeln!(
                    out,
                    "{:12} hop {} ({}-{}): {} wire bits, {} ps busy, {} injected, {} NACKs",
                    "", h.hop, h.chips.0, h.chips.1, h.bits_sent, h.busy_ps, inj, nacks
                )
                .map_err(write_err)?;
            }
        }
        if let Some((tel, jsonl_path)) = tel {
            let (events, dropped) = tel
                .finish_stream()
                .map_err(|e| format!("cannot finish {jsonl_path}: {e}"))?;
            writeln!(
                out,
                "{:12} wrote {jsonl_path} ({events} events, {dropped} dropped) — next: `cable report {jsonl_path} --hops`",
                ""
            )
            .map_err(write_err)?;
        }
        if let Some(deg) = f.degradation_stats() {
            let worst = f
                .degrade_levels()
                .into_iter()
                .max()
                .unwrap_or(cable_sim::DegradeLevel::Compressed);
            writeln!(
                out,
                "{:12} ladder: {} windows, {} demotions, {} promotions, {} resyncs \
                 ({} repair bits), final worst rung {:?}",
                "",
                deg.windows,
                deg.demotions,
                deg.promotions,
                deg.scheduled_resyncs,
                deg.resync_cost_bits,
                worst
            )
            .map_err(write_err)?;
        }
    }
    Ok(())
}

fn stats(name: &str, lines: u64) -> Result<(), String> {
    let p = profile(name)?;
    let gen = WorkloadGen::new(p, 0);
    let mut analyzer = cable_compress::analysis::StreamAnalyzer::new();
    for n in 0..lines {
        analyzer.push(&gen.content(cable_common::Address::from_line_number(n)));
    }
    let s = analyzer.finish();
    println!("{name}: {} lines analysed", s.lines);
    println!("  zero lines      {:>6.1}%", s.zero_line_frac * 100.0);
    println!("  zero words      {:>6.1}%", s.zero_word_frac * 100.0);
    println!("  trivial words   {:>6.1}%", s.trivial_word_frac * 100.0);
    println!("  duplicate lines {:>6.1}%", s.duplicate_line_frac * 100.0);
    println!("  distinct words  {:>6.2} per line", s.mean_distinct_words);
    println!("  word entropy    {:>6.2} bits", s.word_entropy_bits);
    Ok(())
}

/// Streaming-mode ring capacity per track — deliberately small so the
/// drain path carries the trace and memory stays bounded regardless of
/// how long the measured region runs.
const STREAM_TRACK_CAPACITY: usize = 1 << 10;
/// Buffered-event threshold that triggers an incremental drain.
const STREAM_DRAIN_THRESHOLD: usize = 2 * STREAM_TRACK_CAPACITY;

fn trace(name: &str, instructions: u64, prefix: &str, stream: bool) -> Result<(), String> {
    let p = profile(name)?;
    let jsonl_path = format!("{prefix}.jsonl");
    let tel = if stream {
        let file = std::fs::File::create(&jsonl_path)
            .map_err(|e| format!("cannot create {jsonl_path}: {e}"))?;
        let sink = JsonlSink::streaming(std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {jsonl_path}: {e}"))?;
        let mut tcfg = TracerConfig::with_capacity(STREAM_TRACK_CAPACITY);
        tcfg.drain_threshold = Some(STREAM_DRAIN_THRESHOLD);
        Telemetry::streaming(tcfg, Box::new(sink))
    } else {
        Telemetry::enabled()
    };
    let cfg = SystemConfig::paper_defaults();
    // Warm for half the measured budget; the handle attaches after warm-up,
    // so the trace window covers exactly the measured instructions.
    let r = run_single_telemetry(
        p,
        Scheme::Cable(EngineKind::Lbe),
        instructions / 2,
        instructions,
        &cfg,
        &tel,
    );

    // The Chrome view renders from the retained ring — in streaming mode
    // that is the most recent window (the full stream lives in the JSONL).
    // Must render before `finish_stream` takes the events out.
    let chrome = tel.export_chrome_trace();
    json::parse(&chrome)
        .map(drop)
        .map_err(|e| format!("internal error: Chrome trace invalid: {e}"))?;
    let chrome_path = format!("{prefix}.trace.json");
    std::fs::write(&chrome_path, &chrome)
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;

    let (written, dropped, jsonl_len) = if stream {
        let (events, dropped) = tel
            .finish_stream()
            .map_err(|e| format!("cannot finish {jsonl_path}: {e}"))?;
        let jsonl = std::fs::read_to_string(&jsonl_path)
            .map_err(|e| format!("cannot read back {jsonl_path}: {e}"))?;
        validate_jsonl(&jsonl)
            .map_err(|e| format!("internal error: streamed JSONL invalid: {e}"))?;
        (events, dropped, jsonl.len())
    } else {
        let jsonl = tel.export_jsonl();
        validate_jsonl(&jsonl).map_err(|e| format!("internal error: JSONL export invalid: {e}"))?;
        std::fs::write(&jsonl_path, &jsonl)
            .map_err(|e| format!("cannot write {jsonl_path}: {e}"))?;
        (tel.events().len() as u64, tel.dropped_events(), jsonl.len())
    };

    let snap = tel.snapshot();
    println!(
        "{name}: {} instructions in {:.1} us simulated (IPC {:.2})",
        r.instructions,
        r.elapsed_ps as f64 * 1e-6,
        r.ipc()
    );
    println!(
        "  {} metrics, {} trace events {}, {} dropped",
        snap.metrics.len(),
        written,
        if stream { "streamed" } else { "retained" },
        dropped
    );
    println!("  wrote {jsonl_path} ({} KB)", jsonl_len / 1024);
    println!(
        "  wrote {chrome_path} ({} KB) — open in about://tracing or ui.perfetto.dev",
        chrome.len() / 1024
    );
    println!("  next: `cable report {jsonl_path}`");
    Ok(())
}

fn report(
    trace_path: &str,
    out: Option<&str>,
    hops_only: bool,
    top: usize,
    slo: Option<&SloSpec>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let rep = Report::from_jsonl(&text).map_err(|e| format!("cannot parse {trace_path}: {e}"))?;
    let artifact = rep.to_json();
    json::parse(&artifact)
        .map(drop)
        .map_err(|e| format!("internal error: report JSON invalid: {e}"))?;
    let out_path = match out {
        Some(p) => p.to_string(),
        None => format!(
            "{}.report.json",
            trace_path.strip_suffix(".jsonl").unwrap_or(trace_path)
        ),
    };
    std::fs::write(&out_path, &artifact).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    if hops_only {
        if rep.hops.is_empty() {
            println!(
                "no mesh-hop data in {trace_path} (trace a fabric run with `cable fabric --trace`)"
            );
        } else {
            print!("{}", rep.render_hops(top));
        }
    } else {
        print!("{}", rep.render_text());
    }
    println!("\nwrote {out_path} ({} bytes)", artifact.len());
    check_slo(slo, &rep)
}

/// Applies an `--slo` gate to a report: `Ok` when every matching latency
/// percentile is within bound, a gate-failure `Err` (nonzero exit) on any
/// breach — or when the spec matches no latency histogram at all, since a
/// gate that measures nothing must not read as a pass.
fn check_slo(slo: Option<&SloSpec>, rep: &Report) -> Result<(), String> {
    let Some(slo) = slo else { return Ok(()) };
    let breaches = slo.check(rep)?;
    if breaches.is_empty() {
        println!("SLO {slo}: ok");
        return Ok(());
    }
    let detail: Vec<String> = breaches
        .iter()
        .map(|(id, v)| format!("{id} = {v} ps"))
        .collect();
    Err(format!("SLO {slo} breached: {}", detail.join(", ")))
}

/// Default drift tolerance of `report --diff`, in permille (10%).
const DIFF_THRESHOLD_PERMILLE: u64 = 100;

fn report_diff(
    a_path: &str,
    b_path: &str,
    threshold_permille: u64,
    slo: Option<&SloSpec>,
) -> Result<(), String> {
    let load = |path: &str| -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Report::from_report_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let diff = diff_reports(&a, &b, threshold_permille);
    println!("report diff: a = {a_path}, b = {b_path} (threshold {threshold_permille}\u{2030})\n");
    print!("{}", diff.render_text());
    // `--slo` composes with `--diff`: the gate judges the candidate (b),
    // and a drift failure and an SLO breach each force a nonzero exit.
    let slo_result = check_slo(slo, &b);
    let breaches = diff.breaches();
    if breaches.is_empty() {
        println!("\nno field drifted more than {threshold_permille}\u{2030}");
        slo_result
    } else {
        let fields: Vec<&str> = breaches.iter().map(|r| r.field.as_str()).collect();
        let mut msg = format!(
            "{} field(s) drifted more than {threshold_permille}\u{2030}: {}",
            breaches.len(),
            fields.join(", ")
        );
        if let Err(slo_msg) = slo_result {
            msg = format!("{msg}; {slo_msg}");
        }
        Err(msg)
    }
}

fn area() {
    let cfg = paper_offchip_config();
    let home = home_side_area(&cfg);
    let remote = remote_side_area(&cfg);
    println!("off-chip configuration (16 MB buffer / 8 MB LLC):");
    println!(
        "  buffer : hash table {:.2}%  WMT {:.2}%  RemoteLID {} bits",
        home.hash_table_fraction * 100.0,
        home.wmt_fraction * 100.0,
        home.remote_lid_bits
    );
    println!(
        "  on-chip: hash table {:.2}%  (no WMT)     RemoteLID {} bits",
        remote.hash_table_fraction * 100.0,
        remote.remote_lid_bits
    );
    println!("\nsearch-pipeline logic (paper's 32 nm OpenPiton synthesis):");
    for (label, cells, per_l2, per_tile) in SEARCH_LOGIC_ROWS {
        println!("  {label:18} {cells:>6} cells  {per_l2:>5.2}% /L2  {per_tile:>5.2}% /tile");
    }
    println!("\nfault-mode CRC guard logic (per link endpoint, same node):");
    for (label, cells, per_l2, per_tile) in CRC_ENGINE_ROWS {
        println!("  {label:22} {cells:>6} cells  {per_l2:>5.2}% /L2  {per_tile:>5.2}% /tile");
    }
    println!(
        "  guard state: {} bits SRAM per endpoint (frame buffer + CRC accumulators)",
        crc_guard_bits(&cfg)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_telemetry::json::Value;

    fn run(args: &[&str]) -> Result<(), String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        dispatch(&owned)
    }

    /// The array under `key` in a parsed JSON object.
    fn array<'v, 'a>(v: &'v Value<'a>, key: &str) -> &'v [Value<'a>] {
        match v.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    #[test]
    fn help_and_empty_succeed() {
        assert!(run(&[]).is_ok());
        assert!(run(&["help"]).is_ok());
        assert!(run(&["--help"]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn workloads_lists() {
        assert!(run(&["workloads"]).is_ok());
    }

    #[test]
    fn area_reports() {
        assert!(run(&["area"]).is_ok());
    }

    #[test]
    fn stats_reports() {
        assert!(run(&["stats", "mcf", "3000"]).is_ok());
        assert!(run(&["stats", "nope"]).is_err());
    }

    #[test]
    fn bench_validates_workload() {
        assert!(run(&["bench"]).is_err());
        assert!(run(&["bench", "nonexistent"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(run(&["bench", "gcc", "abc"])
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn bench_runs_small() {
        assert!(run(&["bench", "povray", "2000"]).is_ok());
    }

    #[test]
    fn record_and_replay_round_trip() {
        let path = std::env::temp_dir().join("cable_cli_test.cbtr");
        let path = path.to_str().unwrap();
        assert!(run(&["record", "gcc", "2000", path]).is_ok());
        assert!(run(&["replay", path]).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn record_validates_arguments() {
        assert!(run(&["record", "gcc"]).is_err());
        assert!(run(&["record", "gcc", "100"])
            .unwrap_err()
            .contains("output file"));
    }

    #[test]
    fn replay_missing_file_fails() {
        assert!(run(&["replay", "/nonexistent/file.cbtr"])
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn fabric_validates_arguments() {
        assert!(run(&["fabric"]).is_err());
        assert!(run(&["fabric", "gcc", "1"])
            .unwrap_err()
            .contains("two chips"));
        assert!(run(&["fabric", "gcc", "4", "-1"])
            .unwrap_err()
            .contains("must be positive"));
    }

    #[test]
    fn fabric_rejects_unknown_flags_and_extra_positionals() {
        // Unknown flags and surplus positionals fail before any fabric is
        // built, instead of being silently ignored. The retired sharding
        // flag is spelled in two pieces so a search for it finds no live
        // use.
        let retired = concat!("--", "shards");
        assert!(run(&["fabric", "povray", "2", "2.4", retired, "2"])
            .unwrap_err()
            .contains(&format!("unknown flag `{retired}`")));
        assert!(run(&["fabric", "--bogus", "povray", "2"])
            .unwrap_err()
            .contains("unknown flag `--bogus`"));
        assert!(run(&["fabric", "povray", "2", "2.4", "7"])
            .unwrap_err()
            .contains("unexpected argument `7`"));
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        // A misspelt flag fails before the command runs instead of being
        // dropped (`--hop` would print the full report, `--strem` would
        // trace without streaming).
        for args in [
            &["help", "--bogus"][..],
            &["workloads", "--bogus"],
            &["bench", "mcf", "--bogus"],
            &["record", "gcc", "10", "t.cbtr", "--bogus"],
            &["replay", "t.cbtr", "--bogus"],
            &["throughput", "gcc", "--bogus"],
            &["fabric", "gcc", "--bogus"],
            &["stats", "mcf", "--bogus"],
            &["area", "--bogus"],
            &["trace", "mcf", "100", "p", "--strem"],
            &["report", "t.jsonl", "--hop"],
            &["report", "--diff", "a.json", "b.json", "--bogus"],
        ] {
            let flag = args.last().unwrap();
            assert_eq!(
                run(args).unwrap_err(),
                format!("{}: unknown flag `{flag}`", args[0]),
                "{args:?}"
            );
        }
    }

    #[test]
    fn every_command_rejects_extra_positionals() {
        for args in [
            &["help", "x"][..],
            &["workloads", "x"],
            &["bench", "mcf", "100", "x"],
            &["record", "gcc", "10", "t.cbtr", "x"],
            &["replay", "t.cbtr", "x"],
            &["throughput", "gcc", "8", "x"],
            &["fabric", "gcc", "2", "2.4", "x"],
            &["stats", "mcf", "100", "x"],
            &["area", "x"],
            &["trace", "mcf", "100", "p", "--stream", "x"],
            &["report", "t.jsonl", "out.json", "x"],
            &["report", "--diff", "a.json", "b.json", "x"],
        ] {
            assert_eq!(
                run(args).unwrap_err(),
                format!("{}: unexpected argument `x`", args[0]),
                "{args:?}"
            );
        }
    }

    #[test]
    fn fabric_validates_fault_flags() {
        assert!(run(&["fabric", "gcc", "--fault-rate"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(run(&["fabric", "gcc", "--fault-rate", "2.0"])
            .unwrap_err()
            .contains("fault rate"));
        assert!(run(&["fabric", "gcc", "--fault-rate", "x"])
            .unwrap_err()
            .contains("fault rate"));
    }

    #[test]
    fn fabric_validates_mesh_fault_flags() {
        assert!(run(&["fabric", "gcc", "--mesh-fault-rate"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(run(&["fabric", "gcc", "--mesh-fault-rate", "2.0"])
            .unwrap_err()
            .contains("fault rate"));
        assert!(run(&["fabric", "gcc", "--mesh-fault-hop", "1"])
            .unwrap_err()
            .contains("requires --mesh-fault-rate"));
        assert!(run(&["fabric", "gcc", "--mesh-fault-hop", "x"])
            .unwrap_err()
            .contains("mesh hop index"));
        // A 4-chip mesh has wires 0..=5.
        assert!(run(&[
            "fabric",
            "gcc",
            "4",
            "2.4",
            "--mesh-fault-rate",
            "1e-3",
            "--mesh-fault-hop",
            "6"
        ])
        .unwrap_err()
        .contains("out of range"));
        assert!(run(&["fabric", "gcc", "--trace"])
            .unwrap_err()
            .contains("output prefix"));
    }

    #[test]
    fn mesh_faulted_fabric_trace_localizes_the_armed_wire() {
        // The acceptance scenario: a 4-chip mesh with one asymmetrically
        // faulted wire; `cable report --hops` on the streamed trace must
        // rank that wire first on BOTH the fault-count and busy-permille
        // columns.
        let prefix = std::env::temp_dir().join("cable_cli_mesh_fault_test");
        let prefix = prefix.to_str().unwrap();
        assert!(run(&[
            "fabric",
            "mcf",
            "4",
            "2.4",
            "--mesh-fault-rate",
            "1e-2",
            "--mesh-fault-hop",
            "2",
            "--trace",
            prefix
        ])
        .is_ok());
        let jsonl_path = format!("{prefix}.jsonl");
        assert!(run(&["report", &jsonl_path, "--hops", "--top", "2"]).is_ok());
        let out_path = format!("{prefix}.report.json");
        let text = std::fs::read_to_string(&out_path).unwrap();
        let artifact = json::parse(&text).expect("hop artifact parses");
        let hops = array(&artifact, "hops");
        assert_eq!(hops.len(), 6, "all six wires carried traffic");
        for h in hops {
            for key in [
                "hop",
                "busy_ps",
                "busy_permille",
                "transfers",
                "bits",
                "depth_p50",
                "depth_p99",
                "nacks",
                "faults",
                "retransmitted_bits",
                "util_permille",
            ] {
                assert!(h.get(key).is_some(), "hop row lacks {key}: {h:?}");
            }
        }
        let rep = Report::from_report_json(&text).expect("hop artifact parses");
        let faultiest = rep.hops.iter().max_by_key(|h| h.faults).unwrap();
        assert_eq!(faultiest.hop, 2, "fault counters localize the armed wire");
        assert!(faultiest.faults > 0);
        assert!(faultiest.nacks > 0);
        let hottest = rep.hops.iter().max_by_key(|h| h.busy_permille).unwrap();
        assert_eq!(
            hottest.hop, 2,
            "retransmissions make the armed wire the busiest: {:?}",
            rep.hops
        );
        assert!(
            rep.hops.iter().all(|h| h.hop == 2 || h.faults == 0),
            "unfaulted wires stay clean: {:?}",
            rep.hops
        );
        assert!(run(&["report", &jsonl_path, "--top", "0"])
            .unwrap_err()
            .contains("top-K"));
        std::fs::remove_file(jsonl_path).ok();
        std::fs::remove_file(out_path).ok();
    }

    /// Runs `cable fabric <args>` and returns what it printed.
    fn fabric_output(args: &[&str]) -> String {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let (name, nodes, gbps, opts) = parse_fabric(&owned).unwrap();
        let mut out = Vec::new();
        fabric(name, nodes, gbps, &opts, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// The one printed ladder line (only the CABLE fabric arms ladders).
    fn ladder_line(out: &str) -> &str {
        let lines: Vec<&str> = out.lines().filter(|l| l.contains("ladder:")).collect();
        assert_eq!(lines.len(), 1, "{out}");
        lines[0]
    }

    #[test]
    fn fabric_runs_the_closed_fault_loop() {
        // mcf reaches the ladder's 256-op window at the CLI's 20,000
        // instructions per chip; povray does not.
        let out = fabric_output(&["mcf", "2", "2.4", "--fault-rate", "1e-3", "--degrade"]);
        let ladder = ladder_line(&out);
        assert!(!ladder.contains("ladder: 0 windows"), "{ladder}");
        assert!(run(&["fabric", "--degrade", "povray", "2", "2.4"]).is_ok());
    }

    #[test]
    fn degrade_armed_fabric_trace_carries_the_ladder() {
        // mcf at 1e-3 faults/bit walks the ladder within the CLI's run,
        // so the streamed trace must carry the transition markers and the
        // rung gauge, and `cable report` must read it.
        let prefix = std::env::temp_dir().join("cable_cli_degrade_trace_test");
        let prefix = prefix.to_str().unwrap();
        let out = fabric_output(&[
            "mcf",
            "2",
            "2.4",
            "--fault-rate",
            "1e-3",
            "--degrade",
            "--trace",
            prefix,
        ]);
        assert!(ladder_line(&out).ends_with("final worst rung LinkOff"));
        let jsonl_path = format!("{prefix}.jsonl");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        validate_jsonl(&jsonl).expect("streamed JSONL parses");
        assert!(jsonl.contains("\"name\":\"degrade.demote\""));
        // The gauge is the fabric's worst rung: LinkOff (2), not the
        // rung of whichever pipeline stepped last.
        let rung = jsonl
            .lines()
            .rfind(|l| l.contains("\"id\":\"adaptive.degrade_level\""))
            .expect("the rung gauge is exported");
        assert!(rung.ends_with("\"value\":2}"), "{rung}");
        assert!(run(&["report", &jsonl_path]).is_ok());
        std::fs::remove_file(jsonl_path).ok();
        std::fs::remove_file(format!("{prefix}.report.json")).ok();
    }

    #[test]
    fn report_diff_compares_artifacts_and_gates_drift() {
        let dir = std::env::temp_dir();
        let a_path = dir.join("cable_cli_diff_a.json");
        let b_path = dir.join("cable_cli_diff_b.json");
        let a = {
            let tel = Telemetry::enabled();
            tel.record(cable_telemetry::Event::Phase { name: "measure" });
            tel.set_now_ps(100);
            tel.record(cable_telemetry::Event::Nack { class: "transient" });
            Report::from_jsonl(&tel.export_jsonl()).expect("trace parses")
        };
        let mut b = a.clone();
        b.phases[0].nacks = 40; // 1 -> 40: far past any sane threshold
        std::fs::write(&a_path, a.to_json()).unwrap();
        std::fs::write(&b_path, b.to_json()).unwrap();
        let a_str = a_path.to_str().unwrap();
        let b_str = b_path.to_str().unwrap();
        // Identical artifacts pass at the default threshold.
        assert!(run(&["report", "--diff", a_str, a_str]).is_ok());
        // Drift past the threshold is a nonzero exit naming the field.
        let err = run(&["report", "--diff", a_str, b_str]).unwrap_err();
        assert!(err.contains("nacks"), "{err}");
        // A generous threshold tolerates the same drift.
        assert!(run(&["report", "--diff", a_str, b_str, "--threshold", "999000"]).is_ok());
        assert!(run(&["report", "--diff", a_str])
            .unwrap_err()
            .contains("two report"));
        assert!(run(&["report", "--diff", a_str, b_str, "--threshold", "x"])
            .unwrap_err()
            .contains("permille"));
        std::fs::remove_file(a_path).ok();
        std::fs::remove_file(b_path).ok();
    }

    #[test]
    fn throughput_validates_thread_count() {
        assert!(run(&["throughput", "gcc", "12"])
            .unwrap_err()
            .contains("multiple of 8"));
    }

    #[test]
    fn trace_validates_workload() {
        assert!(run(&["trace"]).is_err());
        assert!(run(&["trace", "nonexistent"])
            .unwrap_err()
            .contains("unknown workload"));
    }

    #[test]
    fn streaming_trace_covers_regions_far_beyond_the_ring() {
        // The bounded-memory acceptance check: the region traces far
        // more events than the streaming ring retains, yet every event
        // reaches the file and none are dropped.
        let prefix = std::env::temp_dir().join("cable_cli_stream_test");
        let prefix = prefix.to_str().unwrap();
        assert!(run(&["trace", "mcf", "20000", prefix, "--stream"]).is_ok());
        let jsonl = std::fs::read_to_string(format!("{prefix}.jsonl")).unwrap();
        validate_jsonl(&jsonl).expect("streamed JSONL parses");
        assert!(jsonl.lines().next().unwrap().contains("\"streaming\":true"));
        let summary = jsonl
            .lines()
            .rev()
            .find(|l| l.contains("\"type\":\"summary\""))
            .expect("streamed trace ends with a summary line");
        assert!(summary.contains("\"dropped_events\":0"));
        let event_lines = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"event\""))
            .count();
        assert!(
            event_lines >= 10 * super::STREAM_TRACK_CAPACITY,
            "region must stream ≥10x the ring capacity ({event_lines} events)"
        );
        std::fs::remove_file(format!("{prefix}.jsonl")).ok();
        std::fs::remove_file(format!("{prefix}.trace.json")).ok();
    }

    #[test]
    fn report_analyses_a_trace_end_to_end() {
        let prefix = std::env::temp_dir().join("cable_cli_report_test");
        let prefix = prefix.to_str().unwrap();
        assert!(run(&["trace", "mcf", "5000", prefix]).is_ok());
        let jsonl_path = format!("{prefix}.jsonl");
        assert!(run(&["report", &jsonl_path]).is_ok());
        let out_path = format!("{prefix}.report.json");
        let text = std::fs::read_to_string(&out_path).unwrap();
        let artifact = json::parse(&text).expect("report artifact parses");
        assert_eq!(
            artifact.get("type").and_then(Value::as_str),
            Some("cable_report")
        );
        assert_eq!(artifact.get("version").and_then(Value::as_u64), Some(1));
        let phases = array(&artifact, "phases");
        assert!(!phases.is_empty(), "report must carry at least one phase");
        for key in ["encodes", "nacks_per_1k_encodes", "link_util_permille"] {
            assert!(phases[0].get(key).is_some(), "phase 0 lacks {key}");
        }
        assert!(phases
            .iter()
            .any(|p| p.get("name").and_then(Value::as_str) == Some("measure")));
        let histograms = array(&artifact, "histograms");
        assert!(!histograms.is_empty());
        for h in histograms {
            for key in ["p50", "p90", "p99"] {
                assert!(h.get(key).is_some(), "histogram lacks {key}: {h:?}");
            }
        }
        std::fs::remove_file(jsonl_path).ok();
        std::fs::remove_file(out_path).ok();
        std::fs::remove_file(format!("{prefix}.trace.json")).ok();
    }

    #[test]
    fn report_flags_need_values() {
        for flag in ["--threshold", "--top", "--slo"] {
            let err = run(&["report", "t.jsonl", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
        assert_eq!(
            run(&["report", "t.jsonl", "--top", "0"]).unwrap_err(),
            "`0` is not a top-K count (>= 1)"
        );
        assert!(run(&["report", "--diff", "a.json", "--threshold"])
            .unwrap_err()
            .contains("--threshold needs a value"));
    }

    #[test]
    fn report_validates_inputs() {
        assert!(run(&["report"]).is_err());
        assert!(run(&["report", "/nonexistent/trace.jsonl"])
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn trace_writes_valid_exports() {
        let prefix = std::env::temp_dir().join("cable_cli_trace_test");
        let prefix = prefix.to_str().unwrap();
        assert!(run(&["trace", "mcf", "5000", prefix]).is_ok());
        let jsonl = std::fs::read_to_string(format!("{prefix}.jsonl")).unwrap();
        validate_jsonl(&jsonl).expect("emitted JSONL parses");
        assert!(jsonl.lines().next().unwrap().contains("\"meta\""));
        let chrome = std::fs::read_to_string(format!("{prefix}.trace.json")).unwrap();
        let trace = json::parse(&chrome).expect("emitted Chrome trace parses");
        assert!(!array(&trace, "traceEvents").is_empty());
        std::fs::remove_file(format!("{prefix}.jsonl")).ok();
        std::fs::remove_file(format!("{prefix}.trace.json")).ok();
    }
}
