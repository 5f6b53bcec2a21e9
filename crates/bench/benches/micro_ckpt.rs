//! Checkpoint data-path micro-benchmarks: the four layers one generation
//! passes through — typed state → JSON text (`json/to_string_170k`, the
//! dispatch thread's share of a save), JSON text → `Value` tree,
//! `CheckpointStore::save` + `wait` (`ckpt/save_170k`: serialise, then on
//! the writer thread FNV + write + fsync + rename + rotate — the durable
//! cost) and `CheckpointStore::read_file` (read + verify + parse + typed
//! load) — on the state `benchmark/`'s `stream_ckpt_timeout` workload
//! checkpoints: a 24×24 dense city, 1 500 orders / 150 workers through
//! `Daemon::feed_line` under `TimeoutPolicy`, captured half way through the
//! stream — where that workload drops its daemon and resumes, so this is
//! also the state a restore parses. The `170k` in the names is the
//! benchmark's mean generation size; the state captured here is printed
//! with its own byte count (≈ 210 kB).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::{Path, PathBuf};
use watter::runner::{sim_config, watter_config};
use watter_core::FaultPlan;
use watter_sim::{
    CheckpointStore, Daemon, DaemonCheckpoint, DaemonConfig, IngestConfig, WatterDispatcher,
};
use watter_strategy::TimeoutPolicy;
use watter_workload::{CityProfile, Scenario, ScenarioParams};

fn scenario() -> Scenario {
    let mut p = ScenarioParams::default_for(CityProfile::Chengdu);
    p.n_orders = 1_500;
    p.n_workers = 150;
    p.city_side = 24;
    Scenario::build(p)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("watter_micro_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon<'a>(
    s: &'a Scenario,
    store: Option<CheckpointStore>,
) -> Daemon<'a, WatterDispatcher<TimeoutPolicy>> {
    let sim = sim_config(s);
    let policy = TimeoutPolicy {
        check_period: sim.check_period,
    };
    Daemon::new(
        s.workers.clone(),
        sim,
        WatterDispatcher::new(watter_config(s), policy),
        s.oracle.as_ref(),
        IngestConfig::for_nodes(s.graph.node_count()),
        // Checkpoints are taken by hand, at the chosen line only.
        DaemonConfig {
            checkpoint_every_events: 0,
            ..DaemonConfig::default()
        },
        store,
    )
}

/// The daemon's checkpoint half way through the stream, through the
/// public surface only: feed, checkpoint into `dir`, read the generation
/// back.
fn midrun_checkpoint(s: &Scenario, dir: &Path) -> DaemonCheckpoint {
    let store = CheckpointStore::open(dir, 1, FaultPlan::NONE).expect("open store");
    let mut d = daemon(s, Some(store));
    for order in &s.orders[..s.orders.len() / 2] {
        d.feed_line(&serde_json::to_string(order).expect("orders serialize"));
    }
    let gen = d
        .checkpoint_now()
        .expect("checkpoint")
        .expect("store attached");
    CheckpointStore::read_file(&dir.join(format!("ckpt-{gen}.json"))).expect("read back")
}

fn bench_ckpt(c: &mut Criterion) {
    let s = scenario();
    let dir = scratch_dir("state");
    let ckpt = midrun_checkpoint(&s, &dir);
    let text = serde_json::to_string(&ckpt).expect("serialize");
    println!(
        "checkpoint state: {} B of JSON, {} lines consumed",
        text.len(),
        ckpt.lines_consumed
    );

    let mut g = c.benchmark_group("json");
    g.sample_size(200);
    g.bench_function("to_string_170k", |b| {
        b.iter(|| serde_json::to_string(black_box(&ckpt)).expect("serialize"))
    });
    g.bench_function("parse_170k", |b| {
        b.iter(|| serde_json::parse_value(black_box(&text)).expect("parse"))
    });
    g.finish();

    let mut g = c.benchmark_group("ckpt");
    g.sample_size(200);
    g.bench_function("save_170k", |b| {
        let dir = scratch_dir("save");
        let mut store = CheckpointStore::open(&dir, 3, FaultPlan::NONE).expect("open store");
        b.iter(|| {
            store.save(black_box(&ckpt)).expect("save");
            store.wait().expect("write")
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    g.bench_function("read_file_170k", |b| {
        let file = dir.join("ckpt-0.json");
        b.iter(|| CheckpointStore::read_file(black_box(&file)).expect("read"))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_ckpt);
criterion_main!(benches);
