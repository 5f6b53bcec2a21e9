//! Every workload at 1/20 size: seconds to run, no timing asserts.

use watter_benchmark::run::{run, Args, Report};
use watter_benchmark::suite::benchmark_file;
use watter_benchmark::workload::DEFAULT_SEED;

fn small(workload: &str, trace: bool) -> Report {
    let args = Args {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        scale: 20,
        // Two untraced reps, so the digest is checked to repeat.
        min_reps: if trace { 1 } else { 2 },
    };
    let report = run(&args).expect("the run completes");
    assert!(report.correct, "{workload}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    assert!(report.attempted > 0);
    report
}

fn names_and_units(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_every_metric_of_benchmark_json() {
    let bench = benchmark_file();
    let end_to_end: Vec<_> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let per_layer: Vec<_> = bench
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for w in &bench.workloads {
        let untraced = small(&w.name, false);
        assert_eq!(names_and_units(&untraced), end_to_end, "{}", w.name);
        for m in &untraced.metrics {
            assert!(m.value() > 0.0, "{}: {} must never be 0", w.name, m.name);
        }
        let traced = small(&w.name, true);
        assert_eq!(names_and_units(&traced), per_layer, "{}", w.name);
        let residual = traced
            .metrics
            .iter()
            .find(|m| m.name == "trace.residual_pct")
            .expect("listed above");
        assert!(residual.value().is_finite(), "{}", w.name);
        assert_eq!(
            traced.digest, untraced.digest,
            "{}: tracing changed outcomes",
            w.name
        );
    }
}

#[test]
fn two_threads_reproduce_one_thread() {
    let one = small("dense_deep_online", false);
    let two = small("dense_deep_online_t2", false);
    assert_eq!(one.digest, two.digest);
    assert_eq!(two.reference_digest, Some(one.digest));
}

#[test]
fn a_resumed_stream_matches_an_uninterrupted_one() {
    let resumed = small("stream_ckpt_timeout", false);
    assert_eq!(resumed.reference_digest, Some(resumed.digest));
}
