//! Snapshot/restore contract: `restore(snapshot at tick k) +
//! replay(tail) == uninterrupted run`, bit for bit.
//!
//! A run is driven order by order (checks interleaved, as a daemon
//! would); at a proptest-chosen cut point the core and dispatcher are
//! serialized to JSON, dropped, parsed back, restored into a *freshly
//! constructed* dispatcher, and the tail replayed. Everything but the
//! wall-clock timing fields must equal the uninterrupted run — across
//! all three city profiles. A snapshot written in another schema version
//! is refused with a typed error at every level it can arrive through.

use proptest::prelude::*;
use watter::prelude::*;
use watter::runner::{sim_config, watter_config};
use watter_core::Ts;
use watter_sim::DispatchCore;
use watter_strategy::OnlinePolicy;

fn scenario_for(pidx: usize, seed: u64) -> Scenario {
    let mut params = ScenarioParams::default_for(CityProfile::ALL[pidx]);
    params.n_orders = 120;
    params.n_workers = 12;
    params.city_side = 10;
    params.seed = seed;
    Scenario::build(params)
}

/// Drive the scenario through the core order by order. With `cut =
/// Some(t)`, snapshot when the first order releasing after `t` shows up,
/// JSON-round-trip the snapshot, restore into a fresh dispatcher and
/// continue from there.
fn drive(scenario: &Scenario, cut: Option<Ts>) -> (Measurements, Kpis) {
    use watter_sim::Event;
    let cfg = sim_config(scenario);
    let mut dispatcher = WatterDispatcher::new(watter_config(scenario), OnlinePolicy);
    let mut core = DispatchCore::new(scenario.workers.clone(), cfg);
    let mut pending_cut = cut;
    for order in scenario.orders.clone() {
        core.catch_up_to(order.release, &mut dispatcher, scenario.oracle.as_ref());
        if pending_cut.is_some_and(|t| order.release > t) {
            pending_cut = None;
            let snap = core.snapshot(&dispatcher);
            let json = serde_json::to_string(&snap).expect("serialize snapshot");
            drop((core, dispatcher));
            let snap: DispatchSnapshot = serde_json::from_str(&json).expect("parse snapshot");
            dispatcher = WatterDispatcher::new(watter_config(scenario), OnlinePolicy);
            core = DispatchCore::restore(&snap, &mut dispatcher).expect("restore snapshot");
        }
        core.step(
            Event::Arrive(order),
            &mut dispatcher,
            scenario.oracle.as_ref(),
        );
    }
    core.close_and_drain(&mut dispatcher, scenario.oracle.as_ref());
    core.finish()
}

proptest! {
    // Each case simulates the scenario twice; keep case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot at a random point of the run, restore, replay the tail:
    /// bit-identical to the uninterrupted run on every profile.
    #[test]
    fn restore_plus_replay_equals_uninterrupted_run(
        pidx in 0usize..3,
        seed in 0u64..1_000,
        frac in 0.1f64..0.9,
    ) {
        let scenario = scenario_for(pidx, seed);
        let (first, last) = (
            scenario.orders.first().map(|o| o.release).unwrap_or(0),
            scenario.orders.last().map(|o| o.release).unwrap_or(0),
        );
        let cut = first + ((last - first) as f64 * frac) as Ts;

        let (m_ref, k_ref) = drive(&scenario, None);
        prop_assert!(m_ref.served_orders > 0, "degenerate scenario");
        let (m_cut, k_cut) = drive(&scenario, Some(cut));

        prop_assert_eq!(m_cut.without_timing(), m_ref.without_timing());
        prop_assert_eq!(k_cut.without_timing(), k_ref.without_timing());
    }
}

/// Drive the scenario with the trace journal on. With `cut = Some(t)`
/// the run is snapshotted mid-stream and the first recorder is drained
/// and *abandoned with the dying process state* — the restored half
/// attaches a fresh recorder, exactly like a crash-recovered daemon.
/// Returns the concatenated journal (first half ++ second half).
fn drive_traced(scenario: &Scenario, cut: Option<Ts>) -> Vec<TraceRecord> {
    use watter_sim::Event;
    let cfg = sim_config(scenario);
    let mut recorder = Recorder::enabled();
    let mut records = Vec::new();
    let mut dispatcher = WatterDispatcher::new(watter_config(scenario), OnlinePolicy);
    dispatcher.set_recorder(recorder.clone());
    let mut core = DispatchCore::new(scenario.workers.clone(), cfg);
    core.set_recorder(recorder.clone());
    let mut pending_cut = cut;
    for order in scenario.orders.clone() {
        core.catch_up_to(order.release, &mut dispatcher, scenario.oracle.as_ref());
        if pending_cut.is_some_and(|t| order.release > t) {
            pending_cut = None;
            let snap = core.snapshot(&dispatcher);
            let json = serde_json::to_string(&snap).expect("serialize snapshot");
            records.extend(recorder.drain_trace());
            drop((core, dispatcher, recorder));
            let snap: DispatchSnapshot = serde_json::from_str(&json).expect("parse snapshot");
            recorder = Recorder::enabled();
            dispatcher = WatterDispatcher::new(watter_config(scenario), OnlinePolicy);
            dispatcher.set_recorder(recorder.clone());
            core = DispatchCore::restore(&snap, &mut dispatcher).expect("restore snapshot");
            // Attach after restore: the snapshot carries the journal's
            // next sequence number and the fresh recorder resumes from
            // it instead of renumbering from zero.
            core.set_recorder(recorder.clone());
        }
        core.step(
            Event::Arrive(order),
            &mut dispatcher,
            scenario.oracle.as_ref(),
        );
    }
    core.close_and_drain(&mut dispatcher, scenario.oracle.as_ref());
    records.extend(recorder.drain_trace());
    records
}

/// The trace-journal recovery contract: sequence numbers survive the
/// snapshot → restore → replay cycle even when the restored half runs
/// on a *fresh* recorder, and the stitched journal is bit-identical to
/// an uninterrupted run's (trace stamps are virtual time, so nothing
/// needs stripping).
#[test]
fn trace_seq_continues_across_snapshot_restore() {
    let scenario = scenario_for(0, 7);
    let (first, last) = (
        scenario.orders.first().map(|o| o.release).unwrap_or(0),
        scenario.orders.last().map(|o| o.release).unwrap_or(0),
    );
    let cut = first + (last - first) / 2;

    let reference = drive_traced(&scenario, None);
    assert!(!reference.is_empty(), "degenerate scenario");
    let stitched = drive_traced(&scenario, Some(cut));

    // Contiguous numbering from zero — the fresh recorder picked up
    // where the abandoned one stopped, with no gap and no restart.
    for (i, rec) in stitched.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "gap or renumbering at {i}: {rec:?}");
    }
    assert_eq!(stitched, reference);
}

/// A snapshot taken from one dispatcher kind must refuse to load into
/// another.
#[test]
fn snapshot_refuses_mismatched_dispatcher() {
    use watter_baselines::NonSharingDispatcher;
    use watter_sim::{Event, SnapshotDispatcher};

    let scenario = scenario_for(1, 3);
    let cfg = sim_config(&scenario);
    let mut d = NonSharingDispatcher::new();
    let mut core = DispatchCore::new(scenario.workers.clone(), cfg);
    for order in scenario.orders.iter().take(10).cloned() {
        core.step(Event::Arrive(order), &mut d, scenario.oracle.as_ref());
    }
    core.step(Event::Check, &mut d, scenario.oracle.as_ref());
    let snap = core.snapshot(&d);
    assert!(matches!(
        snap.dispatcher,
        watter_sim::DispatcherState::Queue { .. }
    ));

    let mut watter = WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
    assert!(watter.load_state(&snap.dispatcher).is_err());
}

/// A checkpoint from before the snapshot schema was versioned — no
/// `version` field, best groups carrying `detours` — must come back as a
/// typed refusal, not as a parse panic, a "missing field" string or a
/// restored pool with a wrong expiry; `resume` then reports the store as
/// holding nothing usable, which hosts answer by starting from scratch.
#[test]
fn old_schema_checkpoint_is_refused_with_a_typed_error() {
    use watter_core::FaultPlan;
    use watter_sim::checkpoint::fnv1a64;
    use watter_sim::{
        CheckpointError, CheckpointStore, Daemon, DaemonConfig, DaemonError, Event, IngestConfig,
        SnapshotError, SNAPSHOT_VERSION,
    };

    let scenario = scenario_for(0, 11);
    let dir = std::env::temp_dir().join(format!("watter_old_schema_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make = || WatterDispatcher::new(watter_config(&scenario), OnlinePolicy);
    let ingest_cfg = IngestConfig::for_nodes(scenario.graph.node_count());
    let cfg = DaemonConfig {
        checkpoint_every_events: 0,
        ..DaemonConfig::default()
    };

    // Half a run through a checkpointing daemon, then a power cut.
    let store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open store");
    let mut daemon = Daemon::new(
        scenario.workers.clone(),
        sim_config(&scenario),
        make(),
        scenario.oracle.as_ref(),
        ingest_cfg,
        cfg,
        Some(store),
    );
    for order in &scenario.orders[..scenario.orders.len() / 2] {
        daemon.feed_line(&serde_json::to_string(order).expect("orders serialize"));
    }
    assert_eq!(daemon.checkpoint_now().expect("checkpoint"), Some(0));
    drop(daemon);

    // Rewrite generation 0 in the old schema, header and checksum valid.
    let path = dir.join("ckpt-0.json");
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
    let (_, payload) = text.split_once('\n').expect("header line");
    assert!(
        payload.contains("\"subroute_costs\":["),
        "the checkpoint must carry best groups for this test to bite"
    );
    let old = payload
        .replace(&format!("\"version\":{SNAPSHOT_VERSION},"), "")
        .replace("\"subroute_costs\":", "\"detours\":");
    assert_ne!(old, payload);
    let header = format!(
        "WATTERCKPT1 {} {:016x}\n",
        old.len(),
        fnv1a64(old.as_bytes())
    );
    std::fs::write(&path, header + &old).expect("write old-schema checkpoint");

    let refused = CheckpointError::Snapshot(SnapshotError::Version {
        found: 1,
        expected: SNAPSHOT_VERSION,
    });
    assert_eq!(CheckpointStore::read_file(&path).unwrap_err(), refused);

    let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen store");
    assert_eq!(
        store.latest_valid().unwrap_err(),
        CheckpointError::NoValidCheckpoint
    );
    assert_eq!(store.ops().discarded, 1);

    let store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("reopen store");
    let resumed = Daemon::resume(store, make(), scenario.oracle.as_ref(), ingest_cfg, cfg);
    assert_eq!(
        resumed.err(),
        Some(DaemonError::Checkpoint(CheckpointError::NoValidCheckpoint))
    );
    std::fs::remove_dir_all(&dir).ok();

    // The same refusal for a snapshot handed over in memory.
    let mut dispatcher = make();
    let mut core = DispatchCore::new(scenario.workers.clone(), sim_config(&scenario));
    for order in scenario.orders.iter().take(10).cloned() {
        core.step(
            Event::Arrive(order),
            &mut dispatcher,
            scenario.oracle.as_ref(),
        );
    }
    let mut snap = core.snapshot(&dispatcher);
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    snap.version = 1;
    assert_eq!(
        DispatchCore::restore(&snap, &mut make()).err(),
        Some(SnapshotError::Version {
            found: 1,
            expected: SNAPSHOT_VERSION,
        })
    );
}
