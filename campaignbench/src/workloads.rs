//! The four workloads, their set-up, and the two ways one seed is checked:
//! through `run_campaign` (untraced), or as the same sequence of public
//! calls with a span around each (traced).

use crate::spans::Recorder;
use cb_harness::prelude::*;
use cb_harness::{read_artifact, replay_artifact, write_artifact};
use cb_policy::PolicyPile;
use cb_telemetry::keys;
use cb_trace::{blame, explain, SpanKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload. `why` is the reason it is in the benchmark, as
/// recorded in `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    RandtreeLadder,
    Gossip1k,
    KvFlashWarm,
    KvTriage,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "randtree-ladder",
        why: "randtree with ladder and storm: every decision runs lookahead and most time goes to \
              full-mode trace and fingerprint recording",
        kind: Kind::RandtreeLadder,
    },
    Workload {
        name: "gossip-1k",
        why: "gossip at 1000 nodes: ~600k events per run through the timer wheel and lite trace, \
              zero decisions, so the decision path is bypassed",
        kind: Kind::Gossip1k,
    },
    Workload {
        name: "kv-flash-warm",
        why: "kv under a flash crowd warm-started from a recorded policy pile: the decision-heavy \
              path (ladder, policy store, governor, admission, WGL oracle)",
        kind: Kind::KvFlashWarm,
    },
    Workload {
        name: "kv-triage",
        why: "kv with unsafe reads: most seeds fail by design, each is shrunk, written, read, \
              replayed, blamed and ingested into a corpus",
        kind: Kind::KvTriage,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeds of one run, all derived from the base seed given on the command
/// line. Measured seeds and set-up seeds (policy training, warm-up) come
/// from disjoint halves of the base seed's block, so training never sees a
/// measured seed.
#[derive(Clone, Copy)]
pub struct Seeds {
    block: u64,
}

impl Seeds {
    const BLOCK: u64 = 1 << 20;
    const HALF: u64 = Self::BLOCK / 2;

    pub fn new(base: u64) -> Option<Seeds> {
        base.checked_mul(Self::BLOCK)?.checked_add(Self::BLOCK)?;
        Some(Seeds {
            block: base * Self::BLOCK,
        })
    }

    /// The `i`-th measured seed.
    pub fn measured(&self, i: u64) -> u64 {
        assert!(
            i < Self::HALF - 1,
            "measured seed index {i} leaves its half"
        );
        self.block + 1 + i
    }

    /// The `j`-th set-up seed (policy training, then the warm-up seed).
    pub fn setup(&self, j: u64) -> u64 {
        assert!(j < Self::HALF, "set-up seed index {j} leaves its half");
        self.block + Self::HALF + j
    }

    /// The seed set-up runs once to warm the program up.
    pub fn warmup(&self) -> u64 {
        self.setup(TRAINING_SEEDS)
    }
}

/// Seeds the kv-flash-warm policy pile is recorded from.
pub const TRAINING_SEEDS: u64 = 8;

/// A workload ready to measure.
pub struct Prepared {
    pub scenario: Box<dyn Scenario>,
    triage: bool,
    /// The same scenario without the warm start (kv-flash-warm only).
    cold: Option<Box<dyn Scenario>>,
    /// Entries of the loaded policy pile, and how many training seeds
    /// failed an oracle (kv-flash-warm only).
    pub policy: Option<(usize, u64)>,
}

impl Workload {
    /// Builds the scenario and runs one warm-up seed; on kv-flash-warm,
    /// first records a policy pile from training seeds, saves it under
    /// `dir`, and warm-starts the scenario from the reloaded pile. Spans
    /// are recorded under a `setup` root.
    pub fn prepare(
        &self,
        seeds: Seeds,
        dir: &Path,
        workers: usize,
        rec: &mut Recorder,
    ) -> Result<Prepared, String> {
        let tag = seeds.setup(0);
        rec.time("setup", tag, |rec| {
            let mut policy = None;
            let mut cold: Option<Box<dyn Scenario>> = None;
            let scenario: Box<dyn Scenario> = match self.kind {
                Kind::RandtreeLadder => Box::new(cb_randtree::RandTreeCampaign {
                    ladder: true,
                    storm: true,
                    ..Default::default()
                }),
                Kind::Gossip1k => Box::new(cb_gossip::GossipCampaign {
                    nodes: 1000,
                    ..Default::default()
                }),
                Kind::KvTriage => Box::new(cb_kv::KvCampaign {
                    unsafe_reads: true,
                    ..Default::default()
                }),
                Kind::KvFlashWarm => {
                    let (store, training_failures) = warm_policy(seeds, dir, workers, rec)?;
                    policy = Some((store.len(), training_failures));
                    cold = Some(Box::new(cb_kv::KvCampaign {
                        workload: Some(flash()),
                        ..Default::default()
                    }));
                    Box::new(cb_kv::KvCampaign {
                        workload: Some(flash()),
                        policy: Some(Arc::new(store)),
                        ..Default::default()
                    })
                }
            };
            let warm = seeds.warmup();
            rec.time("harness.warmup", warm, |_| {
                scenario.run(warm, &scenario.default_plan(warm))
            });
            Ok(Prepared {
                scenario,
                triage: self.kind == Kind::KvTriage,
                cold,
                policy,
            })
        })
    }
}

fn flash() -> cb_workload::WorkloadProfile {
    cb_workload::WorkloadProfile::by_name("flash").expect("the flash profile is registered")
}

/// Records the kv flash policy from the training seeds, then saves and
/// reloads it as a pile. Like `campaign --record-policy`, it records from
/// every training seed, including one that fails an oracle; returns the
/// store and the number of such seeds.
fn warm_policy(
    seeds: Seeds,
    dir: &Path,
    workers: usize,
    rec: &mut Recorder,
) -> Result<(cb_policy::PolicyStore, u64), String> {
    let tag = seeds.setup(0);
    let (recorded, failures) = rec.time("policy.record", tag, |_| {
        let trainer = cb_kv::KvCampaign {
            workload: Some(flash()),
            record_policy: true,
            ..Default::default()
        };
        let outcome = run_campaign(
            &trainer,
            &CampaignConfig {
                base_seed: tag,
                seeds: TRAINING_SEEDS,
                workers,
                check_determinism: false,
                shrink: false,
                artifact_dir: None,
                plan_override: None,
                keep_reports: false,
            },
        );
        let failures = outcome.failures.len() as u64;
        let store = outcome.policy.ok_or("policy training recorded no store")?;
        Ok::<_, String>((store, failures))
    })?;
    let mut pile = PolicyPile::new();
    pile.insert_store(recorded);
    let path = dir.join("kv-flash.cbp");
    rec.time("policy.save", tag, |_| pile.save(&path))
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let loaded = rec
        .time("policy.load", tag, |_| PolicyPile::load(&path))
        .map_err(|e| format!("loading {}: {e}", path.display()))?;
    if loaded.content_id() != pile.content_id() {
        return Err("policy pile changed across save and load".into());
    }
    let store = loaded.get("kv").ok_or("policy pile holds no kv store")?;
    Ok((store.clone(), failures))
}

/// Simulated statistics of one seed's first run. A pure function of the
/// workload and seed, so a change that only speeds the program up leaves
/// every row identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digest {
    pub seed: u64,
    pub events: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub decisions: u64,
    pub states: u64,
    pub spans: u64,
    pub offered: u64,
    pub served: u64,
}

impl Digest {
    fn new(seed: u64, events: u64, t: &Registry) -> Digest {
        Digest {
            seed,
            events,
            msgs_sent: t.counter(keys::NET_MSGS_SENT),
            bytes_sent: t.counter(keys::NET_BYTES_SENT),
            decisions: t.counter(keys::CORE_DECISIONS_TOTAL),
            states: t.counter(keys::CORE_STATES_EXPLORED),
            spans: t.counter(keys::TRACE_SPANS_RECORDED),
            offered: t.counter(keys::WORKLOAD_OFFERED),
            served: t.counter(keys::WORKLOAD_SERVED),
        }
    }

    pub fn goodput(&self) -> Option<f64> {
        (self.offered > 0).then(|| self.served as f64 / self.offered as f64)
    }

    pub fn to_json(&self) -> String {
        let goodput = self.goodput().map_or("null".into(), |g| g.to_string());
        format!(
            "{{\"seed\":{},\"events\":{},\"msgs_sent\":{},\"bytes_sent\":{},\"decisions\":{},\
             \"states\":{},\"spans\":{},\"offered\":{},\"served\":{},\"goodput\":{}}}",
            self.seed,
            self.events,
            self.msgs_sent,
            self.bytes_sent,
            self.decisions,
            self.states,
            self.spans,
            self.offered,
            self.served,
            goodput
        )
    }
}

/// Counts one traced seed reports besides its spans.
#[derive(Clone, Debug, Default)]
pub struct TracedCounts {
    /// First-run telemetry registry.
    pub telemetry: Registry,
    pub provenance_spans: u64,
    pub telemetry_keys: u64,
    /// `(runs attempted, faults dropped)` by the shrinker.
    pub shrink: Option<(u64, u64)>,
    pub artifact_bytes: Option<u64>,
    pub index_bytes: Option<u64>,
}

/// The result of checking one seed.
pub struct SeedResult {
    pub digest: Digest,
    /// Host time for the seed, nanoseconds.
    pub wall_ns: u64,
    /// Events of both runs.
    pub events: u64,
    /// Whether an oracle failed on the first run.
    pub violated: bool,
    /// Why the seed's outcome differs from the workload's expected verdict.
    pub mismatch: Option<String>,
    /// Present on traced seeds only.
    pub traced: Option<TracedCounts>,
}

/// Untraced: one `run_campaign` call over the seed, then (kv-triage) the
/// artifact's read, replay, blame and explain and the corpus ingestion.
pub fn check_untraced(p: &Prepared, seed: u64, dir: &Path) -> SeedResult {
    let start = Instant::now();
    let outcome = run_campaign(
        p.scenario.as_ref(),
        &CampaignConfig {
            base_seed: seed,
            seeds: 1,
            workers: 1,
            check_determinism: true,
            shrink: p.triage,
            artifact_dir: p.triage.then(|| dir.to_path_buf()),
            plan_override: None,
            keep_reports: p.triage,
        },
    );
    let mut mismatch = None;
    let mut artifacts = Vec::new();
    if !outcome.nondeterministic_seeds.is_empty() {
        mismatch = Some("re-run fingerprint differs".to_string());
    } else if p.triage {
        for failure in &outcome.failures {
            match &failure.artifact {
                Some(path) => {
                    if let Err(e) = repro(p.scenario.as_ref(), path) {
                        mismatch = Some(e);
                    }
                    artifacts.push(path.clone());
                }
                None => mismatch = Some("failure artifact was not written".into()),
            }
        }
        let corpus_dir = dir.join(format!("corpus-{seed}"));
        let mut corpus = cb_corpus::Corpus::new();
        corpus.ingest_outcome(&outcome);
        if let Err(e) = corpus.save(&corpus_dir) {
            mismatch = Some(format!("corpus save: {e}"));
        }
        artifacts.push(corpus_dir);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    remove_all(&artifacts);
    if let Some(f) = outcome.failures.first().filter(|_| mismatch.is_none()) {
        mismatch = unexpected_failure(p, &f.report);
    }
    SeedResult {
        digest: Digest::new(seed, outcome.total_events, &outcome.telemetry),
        wall_ns,
        events: 2 * outcome.total_events,
        violated: !outcome.failures.is_empty(),
        mismatch,
        traced: None,
    }
}

/// Whether a failing oracle on a passing workload is a mismatch. It is not
/// when the workload has a cold-start twin that fails the same oracles on
/// the same seed and plan: the program fails there with or without the
/// warm start. Runs outside the timed section.
fn unexpected_failure(p: &Prepared, report: &RunReport) -> Option<String> {
    if p.triage {
        return None;
    }
    let warm = report.failing_oracles();
    match &p.cold {
        Some(cold) => {
            let cold = cold.run(report.seed, &report.plan);
            (cold.failing_oracles() != warm).then(|| {
                format!(
                    "oracles failed: {warm:?}, cold start failed {:?}",
                    cold.failing_oracles()
                )
            })
        }
        None => Some(format!("oracles failed: {warm:?}")),
    }
}

/// Reads, replays and blames one artifact; the untraced twin of the
/// `harness.repro` tail in [`check_traced`].
fn repro(scenario: &dyn Scenario, path: &Path) -> Result<(), String> {
    let artifact = read_artifact(path).map_err(|e| e.to_string())?;
    let replayed = replay_artifact(scenario, &artifact).map_err(|e| e.to_string())?;
    if replayed.fingerprint != artifact.fingerprint {
        return Err("replayed fingerprint differs from the artifact's".into());
    }
    let chain = blame_violation(&artifact.provenance)?;
    if let Some(d) = chain.decisions.first() {
        std::hint::black_box(explain(&artifact.provenance, *d));
    }
    Ok(())
}

fn blame_violation(spans: &[cb_trace::Span]) -> Result<cb_trace::BlameChain, String> {
    let violation = spans
        .iter()
        .find(|s| s.kind == SpanKind::Violation)
        .ok_or("artifact holds no violation span")?;
    blame(spans, violation.id).ok_or_else(|| "blame did not resolve the violation".into())
}

/// Traced: the calls `run_campaign` makes for one seed, plus the triage
/// tail, each inside a span; then a `telemetry.json` control span outside
/// the seed.
pub fn check_traced(p: &Prepared, seed: u64, dir: &Path, rec: &mut Recorder) -> SeedResult {
    let scenario = p.scenario.as_ref();
    let mut counts = TracedCounts::default();
    let mut mismatch = None;
    let mut artifacts = Vec::new();
    let start = Instant::now();
    let report = rec.time("seed", seed, |rec| {
        let plan = scenario.default_plan(seed);
        let report = rec.time("harness.run", seed, |_| scenario.run(seed, &plan));
        let again = rec.time("harness.rerun", seed, |_| scenario.run(seed, &plan));
        rec.time("harness.merge", seed, |_| {
            counts.telemetry.merge(&report.telemetry)
        });
        if again.fingerprint != report.fingerprint {
            mismatch = Some("re-run fingerprint differs".to_string());
        } else if report.violated() && p.triage {
            let path = rec.time("harness.repro", seed, |rec| {
                traced_repro(scenario, &report, dir, rec, &mut counts)
            });
            match path {
                Ok(path) => artifacts.push(path),
                Err(e) => mismatch = Some(e),
            }
        }
        if p.triage {
            let corpus_dir = dir.join(format!("corpus-{seed}"));
            let mut corpus = cb_corpus::Corpus::new();
            rec.time("corpus.ingest", seed, |_| corpus.ingest_report(&report));
            if let Err(e) = rec.time("corpus.save", seed, |_| corpus.save(&corpus_dir)) {
                mismatch = Some(format!("corpus save: {e}"));
            }
            counts.index_bytes = Some(corpus.index_bytes().len() as u64);
            artifacts.push(corpus_dir);
        }
        report
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let json = rec.time("telemetry.json", seed, |_| {
        telemetry_json(&report.telemetry).to_string_compact()
    });
    std::hint::black_box(json);
    remove_all(&artifacts);
    if mismatch.is_none() && report.violated() {
        mismatch = unexpected_failure(p, &report);
    }
    counts.provenance_spans = report.provenance.len() as u64;
    let t = &report.telemetry;
    counts.telemetry_keys = (t.counters().count() + t.gauges().count() + t.hists().count()) as u64;
    SeedResult {
        digest: Digest::new(seed, report.events_processed, t),
        wall_ns,
        events: 2 * report.events_processed,
        violated: report.violated(),
        mismatch,
        traced: Some(counts),
    }
}

/// Shrink, artifact write, read, replay, blame and explain for one failing
/// seed. Returns the artifact's path.
fn traced_repro(
    scenario: &dyn Scenario,
    report: &RunReport,
    dir: &Path,
    rec: &mut Recorder,
    counts: &mut TracedCounts,
) -> Result<PathBuf, String> {
    let seed = report.seed;
    let counted = Counting {
        inner: scenario,
        runs: AtomicU64::new(0),
    };
    let (shrunk_plan, shrunk_report) = rec.time("harness.shrink", seed, |_| {
        shrink_plan(&counted, seed, &report.plan, report)
    });
    counts.shrink = Some((
        counted.runs.load(Ordering::Relaxed),
        (report.plan.len() - shrunk_plan.len()) as u64,
    ));
    let path = rec
        .time("harness.artifact_write", seed, |_| {
            write_artifact(dir, report, &shrunk_plan, &shrunk_report)
        })
        .map_err(|e| format!("artifact write: {e}"))?;
    counts.artifact_bytes = std::fs::metadata(&path).ok().map(|m| m.len());
    let artifact = rec
        .time("harness.artifact_read", seed, |_| read_artifact(&path))
        .map_err(|e| e.to_string())?;
    let replayed = rec
        .time("harness.replay", seed, |_| {
            replay_artifact(scenario, &artifact)
        })
        .map_err(|e| e.to_string())?;
    if replayed.fingerprint != artifact.fingerprint {
        return Err("replayed fingerprint differs from the artifact's".into());
    }
    let chain = rec.time("trace.blame", seed, |_| {
        blame_violation(&artifact.provenance)
    })?;
    if let Some(d) = chain.decisions.first() {
        let text = rec.time("trace.explain", seed, |_| explain(&artifact.provenance, *d));
        std::hint::black_box(text);
    }
    Ok(path)
}

/// Counts the runs the shrinker makes.
struct Counting<'a> {
    inner: &'a dyn Scenario,
    runs: AtomicU64,
}

impl Scenario for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn default_plan(&self, seed: u64) -> FaultPlan {
        self.inner.default_plan(seed)
    }

    fn run(&self, seed: u64, plan: &FaultPlan) -> RunReport {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.run(seed, plan)
    }
}

fn remove_all(paths: &[PathBuf]) {
    for p in paths {
        let _ = if p.is_dir() {
            std::fs::remove_dir_all(p)
        } else {
            std::fs::remove_file(p)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_seeds_never_overlap_measured_seeds() {
        for base in [0u64, 1, 2, 17, 1 << 30] {
            let s = Seeds::new(base).unwrap();
            let measured = s.measured(0)..=s.measured(Seeds::HALF - 2);
            let setup = s.setup(0)..=s.setup(Seeds::HALF - 1);
            assert!(measured.end() < setup.start(), "base {base}");
            // Neighbouring bases do not share seeds either.
            let next = Seeds::new(base + 1).unwrap();
            assert!(setup.end() < &next.measured(0), "base {base}");
        }
        assert!(Seeds::new(u64::MAX / 2).is_none());
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(by_name(w.name).unwrap(), w));
            assert!(!w.why.is_empty() && w.why.len() <= 200, "{}", w.name);
        }
        assert!(by_name("nope").is_none());
    }
}
