//! Chaos property suite: crash the daemon anywhere, corrupt what it left
//! behind, and prove recovery is invisible in the results.
//!
//! The daemon schedules no faults; this file is the harness that does.
//! [`run_chaos`] executes the same (possibly input-faulted) order stream
//! twice:
//!
//! 1. the **reference** run — an uninterrupted daemon without
//!    persistence;
//! 2. the **chaos** run — a checkpointing daemon whose store fails its
//!    first writes, fed up to the crash point and dropped there (no final
//!    checkpoint, no drain), its newest checkpoint optionally torn or
//!    bit-flipped, then resumed from the newest *valid* generation and
//!    re-fed the tail of the stream.
//!
//! The contract under test ([`ChaosOutcome::is_consistent`]): for a fixed
//! order stream, a crash after an arbitrary seeded line, a torn or
//! bit-flipped newest checkpoint and transient checkpoint-IO errors never
//! change the final measurements, KPIs (modulo wall-clock timing), ingest
//! counters or robustness counters. Recovery restores the newest *valid*
//! generation (falling back past corrupted ones) and replays the tail;
//! the result must be bit-identical to an uninterrupted run of the same
//! stream.

use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use watter::runner::{sim_config, watter_config};
use watter_core::{CorruptKind, FaultPlan, Order};
use watter_obs::Recorder;
use watter_road::OracleStack;
use watter_sim::{
    BackpressurePolicy, CheckpointStore, Daemon, DaemonConfig, DaemonOutput, IngestConfig,
    WatterDispatcher,
};
use watter_strategy::OnlinePolicy;
use watter_workload::{CityProfile, Scenario, ScenarioParams};

/// The order feed's own faults, baked into the line stream *before* any
/// daemon sees it, so the reference and the crashed run consume the
/// exact same bytes: roughly one line in `malformed_every` is truncated
/// mid-token, and one in `delay_every` slips `delay_slots` positions
/// later (late delivery — the daemon's ingest then refuses it as stale if
/// its release has already passed). Every draw is a pure function of
/// `(seed, line index)`.
#[derive(Clone, Copy, Debug, Default)]
struct InputFaults {
    seed: u64,
    malformed_every: Option<u64>,
    delay_every: Option<u64>,
    delay_slots: u64,
}

impl InputFaults {
    /// Should input line `i` (0-based) be replaced with malformed JSON?
    fn is_malformed(&self, i: u64) -> bool {
        match self.malformed_every {
            Some(k) if k > 0 => fault_hash(self.seed, i, 0x4D41_4C46).is_multiple_of(k),
            _ => false,
        }
    }

    /// How many feed positions input line `i` slips by (0 = on time).
    fn delay_of(&self, i: u64) -> u64 {
        match self.delay_every {
            Some(k) if k > 0 && fault_hash(self.seed, i, 0x4445_4C41).is_multiple_of(k) => {
                self.delay_slots.max(1)
            }
            _ => 0,
        }
    }

    /// `orders` as daemon wire lines with these faults baked in.
    fn lines(&self, orders: &[Order]) -> Vec<String> {
        let mut keyed: Vec<(u64, u64, String)> = orders
            .iter()
            .enumerate()
            .map(|(i, order)| {
                let i = i as u64;
                let mut line = serde_json::to_string(order).expect("orders serialize");
                if self.is_malformed(i) {
                    line.truncate(line.len() / 2);
                }
                (i + self.delay_of(i), i, line)
            })
            .collect();
        keyed.sort_by_key(|&(slot, i, _)| (slot, i));
        keyed.into_iter().map(|(_, _, line)| line).collect()
    }
}

/// Stateless fault draw: splitmix64 finalizer over `(seed, index, tag)`,
/// the same construction the cancellation model uses for its
/// deterministic per-order draws.
fn fault_hash(seed: u64, index: u64, tag: u64) -> u64 {
    let mut x =
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One chaos experiment: the stream's faults, the crash, and the
/// daemon's knobs.
#[derive(Clone, Copy, Debug)]
struct ChaosSpec {
    /// Faults in the line stream both runs read.
    input: InputFaults,
    /// Drop the chaos run's daemon after this many consumed lines. 0, or
    /// a point past the end of the stream, crashes nowhere.
    crash_after: Option<u64>,
    /// Damage the newest checkpoint generation the crash left behind.
    corrupt: Option<CorruptKind>,
    /// Checkpoint write attempts the chaos run's store fails first.
    io_failures: u32,
    /// Backpressure policy for *both* runs.
    policy: BackpressurePolicy,
    /// Backlog watermark engaging backpressure.
    high_watermark: usize,
    /// Backlog watermark releasing backpressure.
    low_watermark: usize,
    /// Checkpoint cadence in consumed lines (0 = event trigger off).
    checkpoint_every_events: u64,
    /// Checkpoint generations to retain.
    keep: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            input: InputFaults::default(),
            crash_after: None,
            corrupt: None,
            io_failures: 0,
            policy: BackpressurePolicy::Block,
            high_watermark: usize::MAX,
            low_watermark: 0,
            checkpoint_every_events: 8,
            keep: 3,
        }
    }
}

/// Outcome of a chaos experiment (see the module docs).
struct ChaosOutcome {
    /// The uninterrupted reference run.
    reference: DaemonOutput,
    /// The crashed-and-recovered run (or the same uninterrupted run when
    /// no crash fired).
    recovered: DaemonOutput,
    /// Line count the crash fired after, if it fired.
    crashed_at: Option<u64>,
    /// Replay cursor of the checkpoint recovery restored from (`0` when
    /// the crash predated every valid checkpoint and recovery restarted
    /// from scratch).
    resumed_from: Option<u64>,
    /// Checkpoint generations recovery had to skip as corrupt.
    discarded_generations: u64,
}

impl ChaosOutcome {
    /// The recovery contract: everything deterministic matches bit for
    /// bit between the reference and the recovered run.
    fn is_consistent(&self) -> bool {
        self.recovered.measurements.without_timing() == self.reference.measurements.without_timing()
            && self.recovered.kpis.without_timing() == self.reference.kpis.without_timing()
            && self.recovered.ingest == self.reference.ingest
            && self.recovered.robustness == self.reference.robustness
            && self.recovered.lines_consumed == self.reference.lines_consumed
    }
}

/// Feed `tail`, close the stream, drain, and account.
fn feed_and_drain(
    mut daemon: Daemon<'_, WatterDispatcher<OnlinePolicy>>,
    tail: &[String],
) -> DaemonOutput {
    for line in tail {
        daemon.feed_line(line);
    }
    daemon.close_and_drain();
    daemon.finish()
}

/// Run the chaos experiment on `scenario` with the WATTER online
/// dispatcher, built afresh for every daemon instance — reference, chaos,
/// recovery — so each starts from identical construction-time
/// configuration. `ckpt_dir` receives the chaos run's checkpoint
/// generations; it is wiped first so repeated invocations are
/// independent.
fn run_chaos(scenario: &Scenario, spec: &ChaosSpec, ckpt_dir: &Path) -> ChaosOutcome {
    let lines = spec.input.lines(&scenario.orders);
    let sim = sim_config(scenario);
    let stack = OracleStack::new(Arc::clone(&scenario.oracle), Recorder::disabled());
    let oracle = stack.top();
    let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
    let cfg = DaemonConfig {
        checkpoint_every_events: spec.checkpoint_every_events,
        policy: spec.policy,
        high_watermark: spec.high_watermark,
        low_watermark: spec.low_watermark,
    };
    let make = || WatterDispatcher::new(watter_config(scenario), OnlinePolicy);
    let fresh = |store| {
        Daemon::new(
            scenario.workers.clone(),
            sim,
            make(),
            oracle,
            ingest_cfg,
            cfg,
            store,
        )
    };

    // Reference: uninterrupted, no persistence, no faults but the stream's.
    let reference = feed_and_drain(fresh(None), &lines);

    // Chaos run: a checkpointing daemon whose store fails its first writes.
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let faulty = FaultPlan {
        io_failures: spec.io_failures,
    };
    let store = CheckpointStore::open(ckpt_dir, spec.keep, faulty).expect("open store");
    let mut chaos = fresh(Some(store));
    let crash = spec
        .crash_after
        .filter(|&k| (1..=lines.len() as u64).contains(&k));
    let Some(crash_line) = crash else {
        // No crash point inside the stream: the chaos run itself is the
        // recovered run.
        return ChaosOutcome {
            reference,
            recovered: feed_and_drain(chaos, &lines),
            crashed_at: None,
            resumed_from: None,
            discarded_generations: 0,
        };
    };
    for line in &lines[..crash_line as usize] {
        chaos.feed_line(line);
    }
    // The power cut: abandon the daemon mid-flight. No final checkpoint,
    // no drain — only what the store already persisted survives, perhaps
    // with its newest generation damaged by the crash.
    drop(chaos);
    let store = CheckpointStore::open(ckpt_dir, spec.keep, FaultPlan::NONE).expect("reopen store");
    if let Some(kind) = spec.corrupt {
        store
            .corrupt_newest(kind)
            .expect("damage the newest generation");
    }

    // Recovery: newest valid generation, re-feed the tail.
    let recovered = Daemon::resume_or_new(
        store,
        scenario.workers.clone(),
        sim,
        make(),
        oracle,
        ingest_cfg,
        cfg,
    )
    .unwrap_or_else(|e| panic!("recovery failed after crash at {crash_line}: {e}"));
    // The replay cursor: 0 when the crash predates every valid checkpoint
    // and recovery restarted from scratch.
    let resumed_from = recovered.lines_consumed();
    let discarded = recovered.store_ops().map_or(0, |ops| ops.discarded);
    let recovered = feed_and_drain(recovered, &lines[resumed_from as usize..]);
    ChaosOutcome {
        reference,
        recovered,
        crashed_at: crash,
        resumed_from: Some(resumed_from),
        discarded_generations: discarded,
    }
}

fn scenario(pidx: usize, seed: u64, n_orders: usize) -> Scenario {
    let mut params = ScenarioParams::default_for(CityProfile::ALL[pidx % CityProfile::ALL.len()]);
    params.n_orders = n_orders;
    params.n_workers = 12;
    params.city_side = 10;
    params.seed = seed;
    Scenario::build(params)
}

/// Per-test checkpoint directory; wiped by the harness before each run.
fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("watter_chaos_{}_{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core chaos property: arbitrary seeded crash point, arbitrary
    /// corruption of the newest checkpoint, input faults in the stream,
    /// any backpressure policy — recovery is bit-identical.
    #[test]
    fn crash_recover_replay_is_bit_identical(
        pidx in 0usize..3,
        seed in 0u64..1000,
        crash_frac in 0.05f64..0.95,
        corrupt in 0usize..3,
        policy in 0usize..3,
        ckpt_every in 1u64..16,
    ) {
        let n_orders = 100;
        let scenario = scenario(pidx, seed, n_orders);
        let spec = ChaosSpec {
            // Input stream carries one malformed line in ~10 and one
            // delayed line in ~7 so recovery must also reproduce the
            // rejected/reordered bookkeeping, not just clean orders.
            input: InputFaults {
                seed,
                malformed_every: Some(10),
                delay_every: Some(7),
                delay_slots: 2,
            },
            crash_after: Some((n_orders as f64 * crash_frac) as u64),
            corrupt: [None, Some(CorruptKind::Torn), Some(CorruptKind::BitFlip)][corrupt],
            io_failures: 0,
            policy: [
                BackpressurePolicy::Block,
                BackpressurePolicy::Shed,
                BackpressurePolicy::Degrade,
            ][policy],
            // Tight enough that backpressure engages on real streams.
            high_watermark: 6,
            low_watermark: 3,
            checkpoint_every_events: ckpt_every,
            keep: 3,
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("prop"));
        prop_assert!(outcome.crashed_at.is_some(), "crash must fire inside the stream");
        prop_assert!(
            outcome.is_consistent(),
            "recovered run diverged: crashed_at={:?} resumed_from={:?} discarded={} \
             ref=({:?}, shed={} deg={} blk={}) rec=({:?}, shed={} deg={} blk={})",
            outcome.crashed_at,
            outcome.resumed_from,
            outcome.discarded_generations,
            outcome.reference.measurements.without_timing(),
            outcome.reference.robustness.shed,
            outcome.reference.robustness.degraded,
            outcome.reference.robustness.blocked,
            outcome.recovered.measurements.without_timing(),
            outcome.recovered.robustness.shed,
            outcome.recovered.robustness.degraded,
            outcome.recovered.robustness.blocked,
        );
    }

    /// Transient checkpoint-IO failures are retried (or at worst skip a
    /// checkpoint) without ever poisoning recovery.
    #[test]
    fn checkpoint_io_failures_never_poison_recovery(
        seed in 0u64..1000,
        io_failures in 1u32..3,
    ) {
        let scenario = scenario(0, seed, 80);
        let spec = ChaosSpec {
            crash_after: Some(50),
            io_failures,
            checkpoint_every_events: 5,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("io"));
        prop_assert!(outcome.is_consistent());
    }
}

/// Corrupting the newest checkpoint forces recovery to discard it and fall
/// back a generation — and the result still matches bit for bit.
#[test]
fn corrupted_newest_checkpoint_falls_back_a_generation() {
    for (kind, tag) in [(CorruptKind::Torn, "torn"), (CorruptKind::BitFlip, "flip")] {
        let scenario = scenario(1, 42, 90);
        let spec = ChaosSpec {
            crash_after: Some(60),
            corrupt: Some(kind),
            checkpoint_every_events: 8,
            keep: 4,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir(tag));
        assert_eq!(outcome.crashed_at, Some(60), "{tag}: crash point");
        assert!(
            outcome.discarded_generations >= 1,
            "{tag}: the corrupted newest generation must be discarded"
        );
        assert!(outcome.is_consistent(), "{tag}: fallback recovery diverged");
        // Fallback means the replay cursor is at least one cadence short
        // of the newest (corrupted) checkpoint's position.
        let resumed = outcome.resumed_from.expect("resumed from a checkpoint");
        assert!(
            resumed + spec.checkpoint_every_events <= 60,
            "{tag}: resumed_from={resumed} should predate the corrupted generation"
        );
    }
}

/// A crash before the first *restorable* checkpoint — none has landed yet,
/// or the only one is the one the crash corrupted: recovery restarts from
/// scratch (resumed_from = 0), counts the damage, and still converges.
#[test]
fn crash_before_first_checkpoint_restarts_from_scratch() {
    let scenario = scenario(2, 7, 80);
    for (crash_at, ckpt_every, corrupt, discarded) in
        [(3, 50, None, 0), (10, 8, Some(CorruptKind::Torn), 1)]
    {
        let spec = ChaosSpec {
            crash_after: Some(crash_at),
            corrupt,
            checkpoint_every_events: ckpt_every,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("scratch"));
        assert_eq!(outcome.crashed_at, Some(crash_at));
        assert_eq!(
            outcome.resumed_from,
            Some(0),
            "crash at {crash_at}: no valid checkpoint should predate the crash"
        );
        assert_eq!(outcome.discarded_generations, discarded);
        assert!(outcome.is_consistent(), "crash at {crash_at}");
    }
}

/// Shed and Degrade accounting reconciles against the ingest totals even
/// across a crash: every admitted order is either dispatched into the core
/// or counted shed, and the counters survive recovery unchanged.
#[test]
fn shed_and_degrade_counts_reconcile_after_recovery() {
    let scenario = scenario(0, 11, 120);
    for policy in [BackpressurePolicy::Shed, BackpressurePolicy::Degrade] {
        let spec = ChaosSpec {
            crash_after: Some(70),
            corrupt: Some(CorruptKind::Torn),
            policy,
            high_watermark: 4,
            low_watermark: 2,
            checkpoint_every_events: 6,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("reconcile"));
        assert!(outcome.is_consistent(), "{policy:?}: recovery diverged");
        let run = &outcome.recovered;
        assert_eq!(
            run.measurements.total_orders,
            run.ingest.admitted - run.robustness.shed,
            "{policy:?}: admitted orders must be dispatched or counted shed"
        );
        match policy {
            BackpressurePolicy::Shed => {
                assert!(run.robustness.shed > 0, "watermarks this tight must shed");
                assert_eq!(run.robustness.degraded, 0);
            }
            BackpressurePolicy::Degrade => {
                assert!(
                    run.robustness.degraded > 0,
                    "watermarks this tight must degrade"
                );
                assert_eq!(run.robustness.shed, 0);
            }
            BackpressurePolicy::Block => unreachable!(),
        }
    }
}

/// The `--trace` recovery contract, end to end at the daemon level: a
/// killed daemon's drained journal plus the resumed daemon's journal —
/// the resumed half on a *fresh* recorder, seeded only by the sequence
/// number its checkpoint carried — deduplicated by `seq`, equals the
/// uninterrupted run's journal bit for bit. Replayed events re-emit
/// the same sequence numbers as the originals, so stitching never
/// double-counts.
///
/// Each process builds its own oracle stack with its recorder attached,
/// as the binary does. On the dense table that is the bare backend; on
/// ALT it is a cache that the resumed process starts *cold* — so the
/// journal must carry nothing that depends on cache warmth.
///
/// The report's counters and gauges survive the same way: the recovered
/// daemon's drained `report().obs` reads what the uninterrupted one's
/// does, set aside the `checkpoint*` and `cache_*` counters (the store
/// and the cache belong to the process).
#[test]
fn trace_journal_survives_kill_restore_replay() {
    use std::collections::BTreeMap;
    use watter::prelude::{ObsSnapshot, OracleKind, TraceRecord};

    // The counters and gauges that describe the run, not the process.
    let run_counts = |obs: Option<ObsSnapshot>| -> Vec<(String, i64)> {
        let obs = obs.expect("the registry is on");
        let counters = obs
            .counters
            .into_iter()
            .filter(|c| !c.name.starts_with("checkpoint") && !c.name.starts_with("cache_"))
            .map(|c| (c.name, c.value as i64));
        let gauges = obs.gauges.into_iter().map(|g| (g.name, g.value));
        counters.chain(gauges).collect()
    };

    // The ALT city is large enough for its working set to collide in the
    // cache: evictions are the warmth-dependent state in question.
    for (kind, tag, city_side) in [
        (OracleKind::Dense, "dense", 10),
        (OracleKind::Alt { landmarks: 4 }, "alt", 24),
    ] {
        let mut params = ScenarioParams::default_for(CityProfile::ALL[0]);
        params.n_orders = 90;
        params.n_workers = 12;
        params.city_side = city_side;
        params.seed = 11;
        params.oracle = kind;
        let scenario = Scenario::build(params);
        let lines = InputFaults::default().lines(&scenario.orders);
        let sim = sim_config(&scenario);
        let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
        let stack =
            |recorder: &Recorder| OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
        let make = || WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let cfg = DaemonConfig {
            checkpoint_every_events: 8,
            ..DaemonConfig::default()
        };
        let open = |name: &str, wipe: bool| {
            let dir = ckpt_dir(&format!("{name}_{tag}"));
            if wipe {
                let _ = std::fs::remove_dir_all(&dir);
            }
            CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open store")
        };

        // Reference: uninterrupted, with its own store so checkpoint trace
        // events land at the same line counts as in the killed run.
        let recorder = Recorder::enabled();
        let oracle = stack(&recorder);
        let mut reference = Daemon::new(
            scenario.workers.clone(),
            sim,
            make(),
            oracle.top(),
            ingest_cfg,
            cfg,
            Some(open("trace_ref", true)),
        );
        reference.set_recorder(recorder);
        for line in &lines {
            reference.feed_line(line);
        }
        reference.close_and_drain();
        let expected = reference.recorder().drain_trace();
        let expected_counts = run_counts(reference.report().obs);
        assert!(!expected.is_empty(), "{tag}: degenerate scenario");
        if let Some(cache) = oracle.cache_stats() {
            assert!(
                cache.evictions > 0,
                "{tag}: no eviction — the warmth-dependence check is inert"
            );
        }

        // The kill: feed 21 lines, drop — past the checkpoint at 16 but not
        // on a checkpoint boundary, so recovery replays lines 17..=21 and
        // re-emits their trace events.
        let recorder = Recorder::enabled();
        let oracle = stack(&recorder);
        let mut crashed = Daemon::new(
            scenario.workers.clone(),
            sim,
            make(),
            oracle.top(),
            ingest_cfg,
            cfg,
            Some(open("trace_kill", true)),
        );
        crashed.set_recorder(recorder);
        for line in &lines[..21] {
            crashed.feed_line(line);
        }
        assert_eq!(crashed.lines_consumed(), 21, "{tag}: the kill point");
        // What a `--trace` tail had flushed before the power cut.
        let part1 = crashed.recorder().drain_trace();
        drop(crashed);

        // A new process: fresh recorder, fresh (cold) stack.
        let recorder = Recorder::enabled();
        let oracle = stack(&recorder);
        let mut recovered = Daemon::resume(
            open("trace_kill", false),
            make(),
            oracle.top(),
            ingest_cfg,
            cfg,
        )
        .expect("resume")
        .expect("a checkpoint predates the crash");
        // Attached *after* restore: the recorder resumes numbering from
        // the checkpoint's carried sequence, not from zero.
        recovered.set_recorder(recorder);
        let skip = recovered.lines_consumed() as usize;
        assert!(
            skip > 0 && skip < 21,
            "{tag}: crash must outrun a checkpoint"
        );
        for line in &lines[skip..] {
            recovered.feed_line(line);
        }
        recovered.close_and_drain();
        let part2 = recovered.recorder().drain_trace();
        let counts = run_counts(recovered.report().obs);
        assert_eq!(counts, expected_counts, "{tag}: counters and gauges");
        assert_eq!(counts.len(), 10 + 3, "{tag}: {counts:?}");

        // Stitch by sequence number. A seq seen twice (the replayed
        // overlap) must carry the identical record.
        let mut by_seq: BTreeMap<u64, TraceRecord> = BTreeMap::new();
        for rec in part1.into_iter().chain(part2) {
            if let Some(prev) = by_seq.insert(rec.seq, rec.clone()) {
                assert_eq!(prev, rec, "{tag}: conflicting records under one seq");
            }
        }
        let stitched: Vec<TraceRecord> = by_seq.into_values().collect();
        assert_eq!(stitched, expected, "{tag}");
    }
}

/// With no process faults scheduled the chaos harness degenerates to two
/// identical uninterrupted runs — a sanity anchor for the suite.
#[test]
fn no_faults_is_trivially_consistent() {
    let scenario = scenario(1, 3, 60);
    let spec = ChaosSpec::default();
    let outcome = run_chaos(&scenario, &spec, &ckpt_dir("clean"));
    assert_eq!(outcome.crashed_at, None);
    assert!(outcome.is_consistent());
}

/// The chaos study: every city profile × a clean, torn or bit-flipped
/// newest checkpoint × block, shed or degrade, each crashed half way
/// through a stream with malformed and delayed lines while the store
/// fails its first write. Every one of the 27 cells recovers bit for
/// bit, and a damaged newest generation is the one generation recovery
/// skips.
#[test]
fn chaos_study_every_profile_corruption_and_policy_recovers() {
    let corruptions = [None, Some(CorruptKind::Torn), Some(CorruptKind::BitFlip)];
    let policies = [
        BackpressurePolicy::Block,
        BackpressurePolicy::Shed,
        BackpressurePolicy::Degrade,
    ];
    for profile in CityProfile::ALL {
        // A tenth of the profile's load on a 12×12 city.
        let mut params = ScenarioParams::default_for(profile);
        params.n_orders /= 10;
        params.n_workers /= 10;
        params.city_side = params.city_side.min(12);
        let scenario = Scenario::build(params);
        let crash_at = (scenario.orders.len() / 2) as u64;
        for corrupt in corruptions {
            for policy in policies {
                let spec = ChaosSpec {
                    input: InputFaults {
                        seed: 0xC4A0 ^ crash_at,
                        malformed_every: Some(11),
                        delay_every: Some(9),
                        delay_slots: 2,
                    },
                    crash_after: Some(crash_at),
                    corrupt,
                    io_failures: 1,
                    policy,
                    high_watermark: 6,
                    low_watermark: 3,
                    checkpoint_every_events: 7,
                    keep: 3,
                };
                let cell = format!("{} {corrupt:?} {policy:?}", profile.tag());
                let outcome = run_chaos(&scenario, &spec, &ckpt_dir("study"));
                assert_eq!(outcome.crashed_at, Some(crash_at), "{cell}");
                assert_eq!(
                    outcome.discarded_generations,
                    u64::from(corrupt.is_some()),
                    "{cell}"
                );
                assert!(outcome.is_consistent(), "{cell}: recovery diverged");
            }
        }
    }
}

/// The none plan injects nothing: no malformed or delayed line, and no
/// crash.
#[test]
fn none_plan_injects_nothing() {
    let p = InputFaults::default();
    for i in 0..1_000 {
        assert!(!p.is_malformed(i));
        assert_eq!(p.delay_of(i), 0);
    }
    assert_eq!(ChaosSpec::default().crash_after, None);
}

#[test]
fn fault_draws_are_deterministic_and_seed_sensitive() {
    let a = InputFaults {
        seed: 7,
        malformed_every: Some(5),
        delay_every: Some(7),
        delay_slots: 3,
    };
    let b = InputFaults { seed: 8, ..a };
    let draws = |p: &InputFaults| {
        (0..200)
            .map(|i| (p.is_malformed(i), p.delay_of(i)))
            .collect::<Vec<_>>()
    };
    assert_eq!(draws(&a), draws(&a), "same plan must draw identically");
    assert_ne!(draws(&a), draws(&b), "different seeds must differ");
    let malformed = (0..200).filter(|&i| a.is_malformed(i)).count();
    assert!(
        (10..=90).contains(&malformed),
        "1-in-5 rate should land near 40/200, got {malformed}"
    );
}

#[test]
fn fault_lines_bake_deterministic_input_faults() {
    let scenario = scenario(0, 11, 40);
    let orders = &scenario.orders;
    let plan = InputFaults {
        seed: 11,
        malformed_every: Some(6),
        delay_every: Some(8),
        delay_slots: 3,
    };
    let a = plan.lines(orders);
    assert_eq!(a, plan.lines(orders), "must be deterministic");
    assert_eq!(a.len(), orders.len(), "faults never lose lines");
    let clean = InputFaults::default().lines(orders);
    assert_ne!(a, clean, "plan must actually perturb the stream");
    let malformed = a
        .iter()
        .filter(|l| serde_json::from_str::<Order>(l).is_err())
        .count();
    assert!(malformed > 0, "1-in-6 over 40 lines should corrupt some");
    // And the daemon digests the faulted stream without panicking,
    // counting every malformed line.
    let d = Daemon::new(
        scenario.workers.clone(),
        sim_config(&scenario),
        WatterDispatcher::new(watter_config(&scenario), OnlinePolicy),
        scenario.oracle.as_ref(),
        IngestConfig::for_nodes(scenario.graph.node_count()),
        DaemonConfig::default(),
        None,
    );
    let out = feed_and_drain(d, &a);
    assert_eq!(out.ingest.malformed as usize, malformed);
    assert_eq!(out.lines_consumed as usize, a.len());
}
