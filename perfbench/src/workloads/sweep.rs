//! `sweep`: the incremental-sweep path of the scenario matrix.
//!
//! Why: `rv_store` is measured nowhere else, and here it dominates —
//! `append` rewrites the whole segment, which costs more than the short
//! run it persists. The store is used both ways: written cold, read warm.
//!
//! Population: the scenario matrix's rendezvous cells, in seeded order.
//! A pass runs every cell cold — content key as `rv_bench::cells`
//! computes it, the run, and an append of its row to a fresh store —
//! then re-opens the store warm and serves every row with `get`. Each
//! cell's cold path is one timed run; the warm re-open and gets are
//! timed as the pass's extra time.
//!
//! Check: a cell fails if its warm row differs from the cold row, if a
//! `get` misses, or if the re-open reports truncated bytes.

use super::{lapped, timed, Failure, Pass, Run, SimCounts, Workload};
use crate::adapter::{self, CellSpec, Graph, Store};
use crate::rng::Rng;
use std::path::{Path, PathBuf};

/// The matrix's default trial count, part of every cell's content key.
const TRIALS: usize = 1;

struct Item {
    cell: CellSpec,
    graph: Graph,
}

pub struct Sweep {
    items: Vec<Item>,
    dir: PathBuf,
}

impl Sweep {
    pub fn new(seed: u64, dir: &Path) -> Self {
        Self::build(seed, dir, usize::MAX)
    }

    /// The population cut to its first `cells` cells in seeded order.
    fn build(seed: u64, dir: &Path, cells: usize) -> Self {
        let mut rng = Rng::new(seed, "sweep");
        let mut items: Vec<Item> = adapter::matrix_rendezvous_cells()
            .into_iter()
            .map(|cell| Item {
                graph: adapter::cell_graph(&cell),
                cell,
            })
            .collect();
        rng.shuffle(&mut items);
        items.truncate(cells);
        let w = Sweep {
            items,
            dir: dir.join("sweep-store"),
        };
        w.cold(&w.items[0], false); // warm-up, without the store's I/O
        w
    }

    /// A cell's cold path without the append: content key, run, row.
    fn cold(&self, item: &Item, traced: bool) -> (u64, adapter::Outcome, String) {
        let key = adapter::cell_key(&item.cell, TRIALS);
        let out = adapter::rendezvous(&adapter::cell_rendezvous(&item.cell, &item.graph), traced);
        let row = format!(
            "{}\t{:?}\t{}\t{}\t{:?}\n",
            adapter::cell_id(&item.cell),
            out.end,
            out.traversals,
            out.actions,
            out.per_agent
        );
        (key, out, row)
    }
}

/// The check on one warm row.
fn warm_failure(served: Option<&[u8]>, cold: &str, truncated: usize) -> Option<Failure> {
    match served {
        None => Some("warm get missed the cold row".to_string()),
        Some(bytes) if bytes != cold.as_bytes() => {
            Some("warm row differs from the cold row".to_string())
        }
        Some(_) if truncated > 0 => Some(format!("warm re-open truncated {truncated} bytes")),
        Some(_) => None,
    }
    .map(Failure::wrong)
}

fn io<T>(what: &str, r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("sweep store {what}: {e}"))
}

impl Workload for Sweep {
    fn pass(&mut self, traced: bool) -> Pass {
        if self.dir.exists() {
            io("reset", std::fs::remove_dir_all(&self.dir));
        }
        let mut pass = Pass::default();
        let (mut store, ns) = timed(|| io("create", Store::open(&self.dir)));
        pass.extra_ns += ns;
        let mut rows = Vec::with_capacity(self.items.len());
        let mut sim = SimCounts::default();
        let mut written = 0;
        for item in &self.items {
            let ((key, out, row), laps) = lapped(|| {
                let (key, out, row) = self.cold(item, traced);
                io("append", store.append(key, row.as_bytes()));
                (key, out, row)
            });
            written += io("stat", store.segment_bytes());
            sim.add(&out, out.end == adapter::RunEnd::Meeting);
            pass.runs.push(Run {
                id: adapter::cell_id(&item.cell),
                laps,
                traversals: out.traversals,
                fingerprint: String::new(),
                failure: None,
            });
            rows.push((key, row));
        }
        let segment = io("stat", store.segment_bytes());
        drop(store);

        let (warm, ns) = timed(|| io("re-open", Store::open(&self.dir)));
        pass.extra_ns += ns;
        let truncated = warm.truncated_bytes();
        for (run, (key, row)) in pass.runs.iter_mut().zip(&rows) {
            let (served, ns) = timed(|| warm.get(*key).map(<[u8]>::to_vec));
            pass.extra_ns += ns;
            let failure = warm_failure(served.as_deref(), row, truncated);
            run.fingerprint = format!("{row:?}/{failure:?}");
            run.failure = if traced { None } else { failure };
        }
        pass.sim_cost = sim.traversals;
        pass.counts = sim.counts();
        pass.counts.push(("store.bytes_written", written as f64));
        pass.counts.push(("store.segment_bytes", segment as f64));
        pass
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        // Best effort: a leftover store only costs disk space in the
        // build directory, and the next pass resets it anyway.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()))
    }

    #[test]
    fn the_same_seed_serves_every_row_back_and_repeats_its_counts() {
        let (da, db) = (temp_dir("a"), temp_dir("b"));
        let mut a = Sweep::build(6, &da, 20);
        let mut b = Sweep::build(6, &db, 20);
        let (pa, pb) = (a.pass(false), b.pass(false));
        let prints = |p: &Pass| {
            p.runs
                .iter()
                .map(|r| r.fingerprint.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(prints(&pa), prints(&pb));
        assert_eq!(pa.counts, pb.counts);
        assert_eq!(pa.runs.len(), 20);
        assert!(pa.runs.iter().all(|r| r.failure.is_none()));
        drop((a, b));
        assert!(
            !da.join("sweep-store").exists(),
            "the store is removed on drop"
        );
    }

    #[test]
    fn the_classifier_fails_missing_changed_or_truncated_rows() {
        assert_eq!(warm_failure(Some(b"row"), "row", 0), None);
        assert!(warm_failure(None, "row", 0).expect("fails").wrong);
        assert!(warm_failure(Some(b"rox"), "row", 0).expect("fails").wrong);
        assert!(warm_failure(Some(b"row"), "row", 3).expect("fails").wrong);
    }
}
