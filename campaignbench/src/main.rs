//! Campaign benchmark: the end-to-end cost of four campaign workloads, and
//! (with `--trace 1`) the same cost split by layer.
//!
//! ```text
//! campaignbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets the workload up several times (reporting the median set-up
//! time), then checks seeds derived from `--seed` one after another for
//! `--seconds` seconds: a closed batch on one campaign worker, reported as
//! seeds and events per second. Every seed must meet its workload's expected verdict;
//! any mismatch makes the run print `"correct": false` and exit 1. The last
//! line of standard output is one JSON object with the metrics: the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! Outputs (the simulated-statistics digest and the traced run's spans) go
//! to `.campaignbench/` in the working directory.

mod spans;
mod stats;
mod workloads;

use spans::{Recorder, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};
use workloads::{Digest, Prepared, SeedResult, Seeds, Workload, WORKLOADS};

const USAGE: &str = "usage: campaignbench --workload NAME|all --seed N --seconds S --trace 0|1";

/// Where the digest and span files go, relative to the working directory.
const OUT_DIR: &str = ".campaignbench";

/// Set-ups per run, `setup_s` being their median: at least the minimum,
/// and more while they have taken less than `SETUP_BUDGET_S` in total, so a
/// set-up of a few milliseconds is still a median of many.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 1.0;

/// The digest printed and hashed covers this many of the first seeds.
const DIGEST_SEEDS: usize = 4;

/// The end-to-end metrics, reported with `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("seeds_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported with `--trace 1`: `(name, unit)`.
/// Timings are medians over traced seeds (over the seeds that reach the
/// span, e.g. failing seeds for `harness.shrink_ms`); counts are means per
/// traced seed. A metric whose layer the workload never enters reads 0.
/// `seed_ms_p50` and `seed_ms_tail` are end-to-end, but reported here
/// without a bound. With one worker the median seed time is the reciprocal
/// of `seeds_per_s` in all but robustness, and on a shared host whose speed
/// changes in phases of a second or two, the median of ~100 ms seeds flips
/// between the phases: its run-to-run spread was up to 0.29 of its median
/// where that of `seeds_per_s` was 0.18. A few seconds of host contention
/// move the tail by more than the largest bound a gated metric may have.
const PER_LAYER: [(&str, &str); 58] = [
    ("seed_ms_p50", "ms"),
    ("seed_ms_tail", "ms"),
    ("harness.run_ms", "ms"),
    ("harness.rerun_ms", "ms"),
    ("harness.rerun_share", "ratio"),
    ("harness.merge_ms", "ms"),
    ("harness.shrink_ms", "ms"),
    ("harness.shrink_runs", "count"),
    ("harness.shrink_keep_ratio", "ratio"),
    ("harness.artifact_write_ms", "ms"),
    ("harness.artifact_read_ms", "ms"),
    ("harness.replay_ms", "ms"),
    ("harness.artifact_bytes", "B"),
    ("harness.repro_ms_p50", "ms"),
    ("harness.self_ms", "ms"),
    ("simnet.events", "count"),
    ("simnet.msgs_sent", "count"),
    ("simnet.bytes_sent", "B"),
    ("simnet.msgs_dropped", "count"),
    ("simnet.ns_per_event", "ns"),
    ("trace.spans_recorded", "count"),
    ("trace.spans_evicted", "count"),
    ("trace.provenance_spans", "count"),
    ("trace.blame_ms", "ms"),
    ("trace.explain_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("core.decisions", "count"),
    ("core.decision_wall_ns_mean", "ns"),
    ("core.decision_wall_ns_p50", "ns"),
    ("core.decision_wall_ns_p99", "ns"),
    ("core.ladder.rung_lookahead", "count"),
    ("core.ladder.rung_cached", "count"),
    ("core.ladder.rung_precomputed", "count"),
    ("core.ladder.rung_learned", "count"),
    ("core.ladder.rung_heuristic", "count"),
    ("core.ladder.rung_static", "count"),
    ("core.governor.step_downs", "count"),
    ("core.policy.hit_ratio", "ratio"),
    ("core.evalcache.hit_ratio", "ratio"),
    ("mck.states_visited", "count"),
    ("mck.states_per_decision", "count"),
    ("mck.dedup_ratio", "ratio"),
    ("policy.record_s", "s"),
    ("policy.save_ms", "ms"),
    ("policy.load_ms", "ms"),
    ("policy.entries", "count"),
    ("workload.offered", "count"),
    ("workload.shed", "count"),
    ("workload.retry_amplification", "ratio"),
    ("workload.goodput", "ratio"),
    ("telemetry.keys", "count"),
    ("telemetry.json_ms", "ms"),
    ("corpus.ingest_ms", "ms"),
    ("corpus.save_ms", "ms"),
    ("corpus.index_bytes", "B"),
    ("corpus.self_ms", "ms"),
    ("bench.seed_self_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, not '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants a whole number, not '{v}'"))
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("campaignbench: {e}\n{USAGE}");
        exit(2)
    });
    if args.workload == "all" {
        exit(run_all(&args));
    }
    let Some(workload) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "campaignbench: unknown workload '{}' (workloads: {}, all)",
            args.workload,
            names.join(", ")
        );
        exit(2)
    };
    match run(workload, &args, process_start) {
        Ok(correct) => exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("campaignbench: {}: {e}", workload.name);
            exit(1)
        }
    }
}

/// `--workload all`: every workload untraced then traced, each in a child
/// process of its own so peak memory is per workload.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let child_args = [
                "--workload".to_string(),
                w.name.to_string(),
                "--seed".to_string(),
                args.seed.to_string(),
                "--seconds".to_string(),
                args.seconds.to_string(),
                "--trace".to_string(),
                trace.to_string(),
            ];
            println!("== {} --trace {trace}", w.name);
            match std::process::Command::new(&exe).args(&child_args).status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("campaignbench: {} --trace {trace}: {status}", w.name);
                    code = 1;
                }
                Err(e) => {
                    eprintln!("campaignbench: {}: {e}", w.name);
                    code = 1;
                }
            }
        }
    }
    code
}

/// Campaign workers, in set-up (policy training) and in measurement. One:
/// on a small shared host a second worker contends with the first for the
/// same caches and memory bandwidth, and in ten interleaved pairs of
/// gossip-1k runs it doubled the run-to-run spread of `seeds_per_s`
/// (quartile spread 0.22 of the median against 0.11).
const WORKERS: usize = 1;

/// What the measurement checked.
#[derive(Default)]
struct Measured {
    untraced: Vec<SeedResult>,
    traced: Vec<SeedResult>,
    /// From the start of measurement to the last completed seed.
    busy_ns: u64,
    spans: Vec<Span>,
}

/// Sets the workload up, measures it, checks it, and prints the report.
/// Returns whether every seed met its expected verdict.
fn run(workload: &Workload, args: &Args, process_start: Instant) -> Result<bool, String> {
    let seeds = Seeds::new(args.seed).ok_or("--seed is too large")?;
    let out = PathBuf::from(OUT_DIR);
    let dir = out.join(workload.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut setup_rec = Recorder::new(process_start, 0);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    let mut rep_start = process_start;
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        prepared = Some(workload.prepare(seeds, &dir, WORKERS, &mut setup_rec)?);
        setup_s.push(rep_start.elapsed().as_secs_f64());
        rep_start = Instant::now();
    }
    let prepared = prepared.expect("set-up runs at least once");
    // Memory is read after set-up plus one seed, the warm-up seed, checked
    // through the measured path: the whole-run peak depends on which seeds
    // the run reaches, the set-up seeds do not.
    let probe = workloads::check_untraced(&prepared, seeds.warmup(), &dir);
    if let Some(m) = probe.mismatch {
        return Err(format!("warm-up seed {}: {m}", probe.digest.seed));
    }
    let peak_rss_mb = vm_hwm_mb();

    let measured = measure(&prepared, seeds, &dir, args, process_start);
    let _ = std::fs::remove_dir_all(&dir);

    let mut spans = setup_rec.into_spans();
    spans.extend(measured.spans.iter().cloned());
    let all: Vec<&SeedResult> = measured.untraced.iter().chain(&measured.traced).collect();
    let attempted = all.len();
    let mut mismatches: Vec<String> = all
        .iter()
        .filter_map(|r| {
            r.mismatch
                .as_ref()
                .map(|m| format!("seed {}: {m}", r.digest.seed))
        })
        .collect();
    let digests = digest_table(&all, &mut mismatches);
    mismatches.sort();
    let failed = mismatches.len();

    println!(
        "workload {} (base seed {}, {} worker(s), {} s)",
        workload.name, args.seed, WORKERS, args.seconds
    );
    println!("  why: {}", workload.why);
    if let Some((entries, failures)) = prepared.policy {
        println!(
            "  policy pile: {entries} entries from {} training seeds, {failures} of which \
             failed an oracle (recorded anyway, as `campaign --record-policy` does)",
            workloads::TRAINING_SEEDS
        );
    }
    write_digest(&out, workload, args.seed, &digests)?;
    let metrics = if args.trace {
        let path = out.join(format!("{}.spans.json", workload.name));
        std::fs::write(&path, spans::to_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {} -> {}", spans.len(), path.display());
        per_layer(&measured, &spans, &prepared)
    } else {
        end_to_end(&measured, &setup_s, peak_rss_mb)
    };
    println!(
        "  seeds checked: {attempted}, mismatching the expected verdict: {failed} \
         (failed_ratio {:.4})",
        failed as f64 / attempted.max(1) as f64
    );
    let violated = all.iter().filter(|r| r.violated).count();
    if violated > 0 {
        println!(
            "  seeds failing an oracle: {violated} (each replayed on kv-triage; elsewhere each \
             fails the same way without the warm start)"
        );
    }
    for m in mismatches.iter().take(10) {
        eprintln!("  MISMATCH {m}");
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Checks seeds one after another until `args.seconds` have passed; a seed
/// started before the deadline runs to completion. Traced runs check every
/// seed both ways, alternating which goes first. Spans are recorded as
/// worker 1 (set-up is worker 0).
fn measure(prepared: &Prepared, seeds: Seeds, dir: &Path, args: &Args, epoch: Instant) -> Measured {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut rec = Recorder::new(epoch, 1);
    let mut out = Measured::default();
    let mut i = 0;
    while Instant::now() < deadline {
        let seed = seeds.measured(i);
        let traced_first = i % 2 == 1;
        if args.trace && traced_first {
            out.traced
                .push(workloads::check_traced(prepared, seed, dir, &mut rec));
        }
        out.untraced
            .push(workloads::check_untraced(prepared, seed, dir));
        if args.trace && !traced_first {
            out.traced
                .push(workloads::check_traced(prepared, seed, dir, &mut rec));
        }
        out.busy_ns = start.elapsed().as_nanos() as u64;
        i += 1;
    }
    out.spans = rec.into_spans();
    out
}

/// One digest row per seed, in seed order. A seed checked twice (traced
/// runs) must give identical rows; a difference is recorded as a mismatch.
fn digest_table(all: &[&SeedResult], mismatches: &mut Vec<String>) -> Vec<Digest> {
    let mut rows: BTreeMap<u64, &Digest> = BTreeMap::new();
    for r in all {
        if let Some(prev) = rows.insert(r.digest.seed, &r.digest) {
            if prev != &r.digest {
                mismatches.push(format!(
                    "seed {}: simulated statistics differ between the traced and untraced check",
                    r.digest.seed
                ));
            }
        }
    }
    rows.into_values().cloned().collect()
}

/// Prints the digest of the first seeds with its hash, and stores every
/// row in `<OUT_DIR>/<workload>-seed<N>.digest.json`.
fn write_digest(out: &Path, w: &Workload, base: u64, rows: &[Digest]) -> Result<(), String> {
    let head = &rows[..rows.len().min(DIGEST_SEEDS)];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in head {
        for b in row.to_json().bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    println!(
        "  digest of the first {} seed(s): {hash:016x}  (events msgs bytes decisions states \
         spans goodput)",
        head.len()
    );
    for d in head {
        let goodput = d.goodput().map_or("-".into(), |g| format!("{g:.6}"));
        println!(
            "    seed {:>8}  {} {} {} {} {} {} {goodput}",
            d.seed, d.events, d.msgs_sent, d.bytes_sent, d.decisions, d.states, d.spans
        );
    }
    let path = out.join(format!("{}-seed{base}.digest.json", w.name));
    let body: Vec<String> = rows.iter().map(Digest::to_json).collect();
    std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(m: &Measured, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let seed_ms = untraced_ms(m);
    let rate = |count: &dyn Fn(&SeedResult) -> f64| -> f64 {
        m.untraced.iter().map(count).sum::<f64>() / (m.busy_ns.max(1) as f64 / 1e9)
    };
    let (tail, tail_pct) = stats::tail(&seed_ms);
    let goodput = served_ratio(m.untraced.iter());
    let values = [
        stats::median(setup_s),
        rate(&|_| 1.0),
        rate(&|r| r.events as f64),
        peak_rss_mb,
    ];
    let metrics: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    for &(name, unit, v) in &metrics {
        println!("  {name:<16} {v:>14.4} {unit}");
    }
    println!(
        "  seed_ms_p50      {:>14.4} ms (also reported by the traced run)",
        stats::median(&seed_ms)
    );
    println!(
        "  seed_ms_tail     {tail:>14.4} ms (p{tail_pct:.1}; also reported by the traced run)"
    );
    println!(
        "  (setup_s: median of {} set-ups; seed_ms: {} samples; \
         peak_rss_mb: set-up plus one seed alone, {:.1} MB over the whole run)",
        setup_s.len(),
        seed_ms.len(),
        vm_hwm_mb()
    );
    if let Some(g) = goodput {
        println!("  goodput          {g:>14.6} ratio (sim: served / offered)");
    }
    println!("  repro_ms_p50: reported by the traced run as harness.repro_ms_p50");
    metrics
}

/// Host time of each untraced seed, in ms.
fn untraced_ms(m: &Measured) -> Vec<f64> {
    m.untraced.iter().map(|r| r.wall_ns as f64 / 1e6).collect()
}

/// `served / offered` over the seeds that offered load.
fn served_ratio<'a>(rs: impl Iterator<Item = &'a SeedResult>) -> Option<f64> {
    let (served, offered) = rs.fold((0, 0), |(s, o), r| {
        (s + r.digest.served, o + r.digest.offered)
    });
    (offered > 0).then(|| served as f64 / offered as f64)
}

fn per_layer(m: &Measured, spans: &[Span], prepared: &Prepared) -> Metrics {
    use cb_telemetry::keys;
    let traced: Vec<&SeedResult> = m.traced.iter().collect();
    let counts: Vec<&workloads::TracedCounts> =
        traced.iter().filter_map(|r| r.traced.as_ref()).collect();
    let n = traced.len().max(1) as f64;
    let mut telemetry = cb_telemetry::Registry::new();
    for c in &counts {
        telemetry.merge(&c.telemetry);
    }
    let per_seed = |key: &str| telemetry.counter(key) as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean = |xs: Vec<f64>| ratio(xs.iter().sum(), xs.len() as f64);

    // Span durations by name, per seed-level span, in ms.
    let mut ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        ms.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
    }
    let p50 = |name: &str| ms.get(name).map_or(0.0, |v| stats::median(v));
    let total = |name: &str| ms.get(name).map_or(0.0, |v| v.iter().sum::<f64>());

    // Self time per layer, over the spans of traced seeds (not set-up).
    let seed_spans: Vec<Span> = spans.iter().filter(|s| s.worker > 0).cloned().collect();
    let by_name = spans::self_time_by_name(&seed_spans);
    let layer_self = |layer: &str| -> f64 {
        by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
            / n
    };
    println!("  self time per traced seed, by span (ms):");
    for (name, ns) in &by_name {
        println!("    {name:<24} {:>12.4}", *ns as f64 / 1e6 / n);
    }

    let events = per_seed_events(&traced);
    let run_ns = total("harness.run") * 1e6;
    let decision_wall = telemetry.hist(keys::CORE_DECISION_LATENCY_WALL_NS);
    let wall_q = |q: f64| decision_wall.map_or(0.0, |h| h.quantile(q) as f64);
    let shrinks: Vec<(u64, u64)> = counts.iter().filter_map(|c| c.shrink).collect();
    let untraced_ms = untraced_ms(m);
    let traced_ms: Vec<f64> = traced.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let (traced_p50, untraced_p50) = (stats::median(&traced_ms), stats::median(&untraced_ms));
    println!(
        "  tracing overhead: traced seed p50 {traced_p50:.4} ms vs untraced {untraced_p50:.4} ms \
         ({} / {} seeds)",
        traced_ms.len(),
        untraced_ms.len()
    );
    let policy_hits = telemetry.counter(keys::CORE_POLICY_HITS) as f64;
    let evalcache_hits = telemetry.counter(keys::CORE_EVALCACHE_HITS) as f64;
    let offered = telemetry.counter(keys::WORKLOAD_OFFERED) as f64;

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("seed_ms_p50", stats::median(&untraced_ms));
    v.insert("seed_ms_tail", stats::tail(&untraced_ms).0);
    v.insert("harness.run_ms", p50("harness.run"));
    v.insert("harness.rerun_ms", p50("harness.rerun"));
    v.insert(
        "harness.rerun_share",
        ratio(total("harness.rerun"), total("seed")),
    );
    v.insert("harness.merge_ms", p50("harness.merge"));
    v.insert("harness.shrink_ms", p50("harness.shrink"));
    v.insert(
        "harness.shrink_runs",
        mean(shrinks.iter().map(|s| s.0 as f64).collect()),
    );
    v.insert(
        "harness.shrink_keep_ratio",
        ratio(
            shrinks.iter().map(|s| s.1 as f64).sum(),
            shrinks.iter().map(|s| s.0 as f64).sum(),
        ),
    );
    v.insert("harness.artifact_write_ms", p50("harness.artifact_write"));
    v.insert("harness.artifact_read_ms", p50("harness.artifact_read"));
    v.insert("harness.replay_ms", p50("harness.replay"));
    v.insert(
        "harness.artifact_bytes",
        mean(
            counts
                .iter()
                .filter_map(|c| c.artifact_bytes)
                .map(|b| b as f64)
                .collect(),
        ),
    );
    v.insert("harness.repro_ms_p50", p50("harness.repro"));
    v.insert("harness.self_ms", layer_self("harness"));
    v.insert("simnet.events", events);
    v.insert("simnet.msgs_sent", per_seed(keys::NET_MSGS_SENT));
    v.insert("simnet.bytes_sent", per_seed(keys::NET_BYTES_SENT));
    v.insert("simnet.msgs_dropped", per_seed(keys::NET_MSGS_DROPPED));
    v.insert("simnet.ns_per_event", ratio(run_ns, events * n));
    v.insert("trace.spans_recorded", per_seed(keys::TRACE_SPANS_RECORDED));
    v.insert("trace.spans_evicted", per_seed(keys::TRACE_SPANS_EVICTED));
    v.insert(
        "trace.provenance_spans",
        mean(counts.iter().map(|c| c.provenance_spans as f64).collect()),
    );
    v.insert("trace.blame_ms", p50("trace.blame"));
    v.insert("trace.explain_ms", p50("trace.explain"));
    v.insert("trace.self_ms", layer_self("trace"));
    v.insert("core.decisions", per_seed(keys::CORE_DECISIONS_TOTAL));
    v.insert(
        "core.decision_wall_ns_mean",
        decision_wall.map_or(0.0, |h| h.mean()),
    );
    v.insert("core.decision_wall_ns_p50", wall_q(0.5));
    v.insert("core.decision_wall_ns_p99", wall_q(0.99));
    for (name, key) in [
        (
            "core.ladder.rung_lookahead",
            keys::CORE_LADDER_RUNG_LOOKAHEAD,
        ),
        ("core.ladder.rung_cached", keys::CORE_LADDER_RUNG_CACHED),
        (
            "core.ladder.rung_precomputed",
            keys::CORE_LADDER_RUNG_PRECOMPUTED,
        ),
        ("core.ladder.rung_learned", keys::CORE_LADDER_RUNG_LEARNED),
        (
            "core.ladder.rung_heuristic",
            keys::CORE_LADDER_RUNG_HEURISTIC,
        ),
        ("core.ladder.rung_static", keys::CORE_LADDER_RUNG_STATIC),
        ("core.governor.step_downs", keys::CORE_GOVERNOR_STEP_DOWNS),
        ("mck.states_visited", keys::MCK_STATES_VISITED),
        ("workload.offered", keys::WORKLOAD_OFFERED),
        ("workload.shed", keys::WORKLOAD_SHED),
    ] {
        v.insert(name, per_seed(key));
    }
    v.insert(
        "core.policy.hit_ratio",
        ratio(
            policy_hits,
            policy_hits + telemetry.counter(keys::CORE_POLICY_MISSES) as f64,
        ),
    );
    v.insert(
        "core.evalcache.hit_ratio",
        ratio(
            evalcache_hits,
            evalcache_hits + telemetry.counter(keys::CORE_EVALCACHE_MISSES) as f64,
        ),
    );
    v.insert(
        "mck.states_per_decision",
        cb_telemetry::summary::states_per_decision(&telemetry),
    );
    v.insert(
        "mck.dedup_ratio",
        cb_telemetry::summary::dedup_ratio(&telemetry).unwrap_or(0.0),
    );
    v.insert("policy.record_s", p50("policy.record") / 1e3);
    v.insert("policy.save_ms", p50("policy.save"));
    v.insert("policy.load_ms", p50("policy.load"));
    v.insert(
        "policy.entries",
        prepared.policy.map_or(0, |(entries, _)| entries) as f64,
    );
    v.insert(
        "workload.retry_amplification",
        ratio(telemetry.counter(keys::WORKLOAD_ATTEMPTS) as f64, offered),
    );
    v.insert(
        "workload.goodput",
        ratio(telemetry.counter(keys::WORKLOAD_SERVED) as f64, offered),
    );
    v.insert(
        "telemetry.keys",
        mean(counts.iter().map(|c| c.telemetry_keys as f64).collect()),
    );
    v.insert("telemetry.json_ms", p50("telemetry.json"));
    v.insert("corpus.ingest_ms", p50("corpus.ingest"));
    v.insert("corpus.save_ms", p50("corpus.save"));
    v.insert(
        "corpus.index_bytes",
        mean(
            counts
                .iter()
                .filter_map(|c| c.index_bytes)
                .map(|b| b as f64)
                .collect(),
        ),
    );
    v.insert("corpus.self_ms", layer_self("corpus"));
    v.insert("bench.seed_self_ms", layer_self("seed"));
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * ratio(traced_p50 - untraced_p50, untraced_p50),
    );

    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = v
                .remove(name)
                .unwrap_or_else(|| panic!("{name} was not computed"));
            (name, unit, value)
        })
        .collect();
    assert!(
        v.is_empty(),
        "computed metrics missing from PER_LAYER: {v:?}"
    );
    println!("  per-layer metrics:");
    for &(name, unit, value) in &metrics {
        println!("    {name:<30} {value:>16.4} {unit}");
    }
    metrics
}

/// Mean first-run events per traced seed.
fn per_seed_events(traced: &[&SeedResult]) -> f64 {
    let total: u64 = traced.iter().map(|r| r.digest.events).sum();
    total as f64 / traced.len().max(1) as f64
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result object the last line of standard output carries.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    #[test]
    fn metric_counts_stay_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        let mut expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        expected.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
        assert_eq!(listed, expected);
        for w in &WORKLOADS {
            assert!(
                text.contains(&format!("\"why\": \"{}\"", w.why)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &vec![("setup_s", "s", 0.5), ("x", "ms", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload kv-triage --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-triage", 7, 3, true)
        );
        let bad = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(bad("--workload x --trace 2").is_err());
        assert!(bad("--seed 1").is_err());
        assert!(bad("--workload x --seconds 0").is_err());
        assert!(bad("--workload x --bogus 1").is_err());
    }
}
