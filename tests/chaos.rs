//! Chaos property suite: crash the daemon anywhere, corrupt what it left
//! behind, and prove recovery is invisible in the results.
//!
//! The contract under test ([`watter::chaos`]): for a fixed (possibly
//! input-faulted) order stream, *process* faults — a crash after an
//! arbitrary seeded line, a torn or bit-flipped newest checkpoint,
//! transient checkpoint-IO errors — never change the final measurements,
//! KPIs, ingest counters or robustness counters. Recovery restores the
//! newest *valid* generation (falling back past corrupted ones) and
//! replays the tail; the result must be bit-identical to an uninterrupted
//! run of the same stream.

use proptest::prelude::*;
use watter::chaos::{run_chaos, ChaosSpec};
use watter_core::{CorruptKind, FaultPlan};
use watter_sim::BackpressurePolicy;
use watter_workload::{CityProfile, Scenario, ScenarioParams};

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
            fault: FaultPlan {
                seed,
                // Input stream carries one malformed line in ~10 and one
                // delayed line in ~7 so recovery must also reproduce the
                // rejected/reordered bookkeeping, not just clean orders.
                malformed_every: Some(10),
                delay_every: Some(7),
                delay_slots: 2,
                crash_after_events: Some((n_orders as f64 * crash_frac) as u64),
                corrupt_on_crash: [None, Some(CorruptKind::Torn), Some(CorruptKind::BitFlip)]
                    [corrupt],
                io_failures: 0,
            },
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
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("prop")).unwrap();
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
            fault: FaultPlan {
                seed,
                crash_after_events: Some(50),
                io_failures,
                ..FaultPlan::NONE
            },
            checkpoint_every_events: 5,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("io")).unwrap();
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
            fault: FaultPlan {
                seed: 42,
                crash_after_events: Some(60),
                corrupt_on_crash: Some(kind),
                ..FaultPlan::NONE
            },
            checkpoint_every_events: 8,
            keep: 4,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir(tag)).unwrap();
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
            fault: FaultPlan {
                seed: 7,
                crash_after_events: Some(crash_at),
                corrupt_on_crash: corrupt,
                ..FaultPlan::NONE
            },
            checkpoint_every_events: ckpt_every,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("scratch")).unwrap();
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
            fault: FaultPlan {
                seed: 11,
                crash_after_events: Some(70),
                corrupt_on_crash: Some(CorruptKind::Torn),
                ..FaultPlan::NONE
            },
            policy,
            high_watermark: 4,
            low_watermark: 2,
            checkpoint_every_events: 6,
            ..ChaosSpec::default()
        };
        let outcome = run_chaos(&scenario, &spec, &ckpt_dir("reconcile")).unwrap();
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
    use std::sync::Arc;
    use watter::prelude::{ObsSnapshot, OracleKind, Recorder, TraceRecord};
    use watter::runner::{sim_config, watter_config};
    use watter_road::OracleStack;
    use watter_sim::{
        fault_lines, CheckpointStore, Daemon, DaemonConfig, FeedOutcome, IngestConfig,
        WatterDispatcher,
    };
    use watter_strategy::OnlinePolicy;

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
        let lines = fault_lines(&scenario.orders, &FaultPlan::NONE);
        let sim = sim_config(&scenario);
        let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
        let stack =
            |recorder: &Recorder| OracleStack::new(Arc::clone(&scenario.oracle), recorder.clone());
        let make = || WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
        let cfg = |fault| DaemonConfig {
            checkpoint_every_events: 8,
            fault,
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
            cfg(FaultPlan::NONE),
            Some(open("trace_ref", true)),
        );
        reference.set_recorder(recorder);
        for line in &lines {
            assert!(!matches!(reference.feed_line(line), FeedOutcome::Crashed));
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

        // The kill: crash after line 21 — past the checkpoint at 16 but not
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
            cfg(FaultPlan::crash_at(21, None)),
            Some(open("trace_kill", true)),
        );
        crashed.set_recorder(recorder);
        let mut died = false;
        for line in &lines {
            if matches!(crashed.feed_line(line), FeedOutcome::Crashed) {
                died = true;
                break;
            }
        }
        assert!(died, "{tag}: fault plan must fire");
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
            cfg(FaultPlan::NONE),
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
            assert!(!matches!(recovered.feed_line(line), FeedOutcome::Crashed));
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
    let outcome = run_chaos(&scenario, &spec, &ckpt_dir("clean")).unwrap();
    assert_eq!(outcome.crashed_at, None);
    assert!(outcome.is_consistent());
}
