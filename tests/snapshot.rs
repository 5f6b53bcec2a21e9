//! Snapshot/restore contract: `restore(snapshot at tick k) +
//! replay(tail) == uninterrupted run`, bit for bit.
//!
//! A run is driven order by order (checks interleaved, as a daemon
//! would); at a proptest-chosen cut point the core and dispatcher are
//! serialized to JSON, dropped, parsed back, restored into a *freshly
//! constructed* dispatcher, and the tail replayed. Everything but the
//! wall-clock timing fields must equal the uninterrupted run — across
//! all three city profiles.

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
        while !core.is_drained() && core.next_due().is_some_and(|due| due < order.release) {
            core.step(Event::Check, &mut dispatcher, scenario.oracle.as_ref());
        }
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
    core.step(Event::Close, &mut dispatcher, scenario.oracle.as_ref());
    while !core.is_drained() {
        core.step(Event::Check, &mut dispatcher, scenario.oracle.as_ref());
    }
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
        while !core.is_drained() && core.next_due().is_some_and(|due| due < order.release) {
            core.step(Event::Check, &mut dispatcher, scenario.oracle.as_ref());
        }
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
    core.step(Event::Close, &mut dispatcher, scenario.oracle.as_ref());
    while !core.is_drained() {
        core.step(Event::Check, &mut dispatcher, scenario.oracle.as_ref());
    }
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
