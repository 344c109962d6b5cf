//! `dbbench spread DIR...`: the run-to-run spread of every metric.
//!
//! Reads the result files (`<workload>.json`) in each directory, and per
//! workload prints each metric's quartiles and its spread: the distance
//! between the first and third quartile as a share of the median, as
//! Python's `statistics.quantiles(values, n=4)` gives them. End-to-end
//! metrics whose spread exceeds their `BENCHMARK.json` bound are flagged
//! `OVER`, and the command then exits 1.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats;

/// The end-to-end metrics' bounds, by name, in declaration order.
pub fn bounds(benchmark: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| match (m.get("name").and_then(Json::str), m.get("bound").and_then(Json::num)) {
            (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
            _ => Err("BENCHMARK.json: end_to_end entry without name or bound".to_string()),
        })
        .collect()
}

/// Metric values by workload, then metric name.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path, runs: &mut Runs) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = doc
        .get("workload")
        .and_then(Json::str)
        .ok_or_else(|| format!("{}: not a dbbench result file", path.display()))?;
    let metrics = runs.entry(workload.to_string()).or_default();
    for (name, m) in doc.get("metrics").map(Json::members).unwrap_or_default() {
        if let Some(v) = m.get("value").and_then(Json::num) {
            metrics.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(())
}

/// Prints the spread report for the result files under `dirs`; returns
/// `false` when an end-to-end spread exceeds its bound.
pub fn run(dirs: &[String], bounds: &[(String, f64)]) -> Result<bool, String> {
    if dirs.is_empty() {
        return Err("usage: dbbench spread DIR...".into());
    }
    let mut runs = Runs::new();
    for dir in dirs {
        let dir = Path::new(dir);
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && !p.to_string_lossy().ends_with(".trace.json")
            })
            .collect();
        files.sort();
        for f in files {
            load(&f, &mut runs)?;
        }
    }
    let mut all_within = true;
    for (workload, metrics) in &runs {
        let n = metrics.values().map(Vec::len).max().unwrap_or(0);
        println!("{workload} ({n} runs)");
        println!(
            "  {:<32} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        let bound_of = |name: &str| bounds.iter().find(|(b, _)| b == name).map(|&(_, v)| v);
        // End-to-end metrics first, in declaration order, then the rest.
        let mut names: Vec<&String> = metrics.keys().collect();
        names.sort_by_key(|name| {
            (bounds.iter().position(|(b, _)| b == *name).unwrap_or(usize::MAX), (*name).clone())
        });
        for name in names {
            let values = &metrics[name];
            let Some([q1, q2, q3]) = stats::quartiles(values) else { continue };
            let spread = stats::spread(values);
            let bound = bound_of(name);
            let flag = match (spread, bound) {
                (Some(s), Some(b)) if s > b => {
                    all_within = false;
                    "OVER"
                }
                (None, Some(_)) => {
                    all_within = false;
                    "OVER"
                }
                (Some(s), Some(b)) if s > b / 3.0 => "> b/3",
                _ => "",
            };
            let pct = |v: Option<f64>| {
                v.map_or_else(|| "-".to_string(), |v| format!("{:.2}%", v * 100.0))
            };
            println!(
                "  {name:<32} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8} {:>7} {flag}",
                pct(spread),
                pct(bound)
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_bounds_in_declaration_order() {
        let b = bounds(
            r#"{"end_to_end": [{"name": "b", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "a", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(b, vec![("b".to_string(), 0.25), ("a".to_string(), 0.1)]);
        assert!(bounds(r#"{"end_to_end": [{"name": "a"}]}"#).is_err());
    }

    #[test]
    fn flags_spreads_over_their_bound() {
        let dir = std::env::temp_dir().join(format!("dbbench-spread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, v) in [100.0, 101.0, 99.0, 100.5].iter().enumerate() {
            let doc = format!(
                r#"{{"workload": "w", "metrics": {{"m": {{"value": {v}, "unit": "s"}}}}}}"#
            );
            std::fs::write(dir.join(format!("r{i}.json")), doc).unwrap();
        }
        let dirs = [dir.to_string_lossy().into_owned()];
        assert!(run(&dirs, &[("m".to_string(), 0.1)]).unwrap());
        assert!(!run(&dirs, &[("m".to_string(), 0.001)]).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
