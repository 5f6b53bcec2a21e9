//! Table printing and JSON persistence for experiment results.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Print a fixed-width table of experiment rows.
pub fn print_table(title: &str, rows: &[crate::ExperimentRow]) {
    println!("\n## {title}");
    println!(
        "{:<6} {:<10} {:<18} {:>13} {:>13} {:>11} {:>13} {:>8}",
        "city", "x", "algorithm", "extra(s)", "unified", "service(%)", "run(ms/ord)", "avg|g|"
    );
    for r in rows {
        println!(
            "{:<6} {:<10} {:<18} {:>13.0} {:>13.0} {:>11.1} {:>13.4} {:>8.2}",
            r.city,
            r.x,
            r.algorithm,
            r.stats.extra_time,
            r.stats.unified_cost,
            r.stats.service_rate_pct,
            r.stats.running_time * 1e3,
            r.stats.mean_group_size
        );
    }
}

/// Serialize any result set to pretty JSON under `results/`.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    let s = serde_json::to_string_pretty(value).expect("results serialize");
    f.write_all(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use watter::core::DriverCounts;
    use watter::prelude::{Kpis, Measurements, Recorder, RunReport};

    #[test]
    fn json_roundtrips() {
        let dir = std::env::temp_dir().join("watter_bench_test");
        let path = dir.join("probe.json");
        let mut stats = RunReport::new(
            &Measurements::default(),
            &Kpis::new(3),
            None,
            DriverCounts::default(),
            &Recorder::disabled(),
        );
        stats.extra_time = 1.0;
        let rows = vec![crate::ExperimentRow {
            city: "CDC".into(),
            x: "n=1000".into(),
            algorithm: "GDP".into(),
            stats,
        }];
        write_json(&path, &rows).unwrap();
        let back: Vec<crate::ExperimentRow> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].stats.extra_time, 1.0);
        assert_eq!(back[0].stats.fleet_size, 3);
        std::fs::remove_dir_all(dir).ok();
    }
}
