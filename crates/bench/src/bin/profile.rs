//! Rough component timing (dev tool).
#![allow(clippy::unwrap_used, clippy::expect_used)] // binaries/examples: abort on a broken build

use dbhist_bench::experiments::Scale;
use dbhist_core::{Query, SelectivityEstimator, SynopsisBuilder};
use dbhist_data::workload::{Workload, WorkloadConfig};
use std::time::Instant;

fn main() {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let db = SynopsisBuilder::new(&rel).budget(3072).build_mhist().unwrap();
    println!("model {}", db.model().notation());
    for f in db.factors() {
        println!("  clique {} leaves {}", f.attrs(), f.bucket_count());
    }
    println!(
        "jt edges: {:?}",
        db.model()
            .junction_tree()
            .edges()
            .iter()
            .map(|e| (e.a, e.b, e.separator.to_string()))
            .collect::<Vec<_>>()
    );
    let w = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 4, queries: 25, min_count: 50, seed: 9 },
    );
    for q in &w.queries {
        let t = Instant::now();
        let est = db.estimate(&Query::from(q.ranges.as_slice()));
        let el = t.elapsed();
        if el.as_millis() > 100 {
            println!(
                "SLOW {:?}: {:?} est {est:.0} exact {}",
                q.ranges.iter().map(|r| r.0).collect::<Vec<_>>(),
                el,
                q.exact
            );
        }
    }
}
