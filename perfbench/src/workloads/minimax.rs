//! `minimax`: memoized, symmetry-quotiented `search_worst_case` along
//! horizon curves, with the options a caller gets by default plus the
//! family's automorphisms.
//!
//! Why: the transposition table collapses interleavings that differ
//! only by commuting moves, so this workload exercises apply/undo,
//! fingerprinting and table probes, and bypasses long cursor streams,
//! ESST and the store. Its gains cannot show on a forward-simulation
//! workload.
//!
//! Population: for each of ring4 (horizons 14, 20, 28, 40), ring6 (18),
//! ring8 (28) and path4 (12, 16), every ordered pair of distinct labels
//! in 1..=6, searched at every horizon of its graph. Pair `j` starts at
//! nodes 0 and `1 + j mod (n − 1)`, mapped by a seeded automorphism of
//! the graph: the seed moves the placement, not the distance between the
//! agents. The automorphisms keep adjacency but not port numbers (only
//! the identity keeps them here), so a reflection hands the agents other
//! walks, and the searches' summed worst cost moves by about 8 % between
//! seeds.
//!
//! Check: a search fails if its worst case differs from the plain
//! (`memo: false`) search, computed in set-up at the horizons where
//! plain enumeration is feasible; if the worst meeting cost shrinks as
//! the horizon grows; or if it exceeds `2·Π(n, m)` (each agent at most
//! `Π`).

use super::{lapped, Failure, Pass, Run, Workload};
use crate::adapter::{self, Automorphisms, Big, Graph, GraphFamily, SearchOutcome};
use crate::rng::Rng;

/// The horizon curves: family, order, horizons (ascending).
const CURVES: [(GraphFamily, usize, &[usize]); 4] = [
    (GraphFamily::Ring, 4, &[14, 20, 28, 40]),
    (GraphFamily::Ring, 6, &[18]),
    (GraphFamily::Ring, 8, &[28]),
    (GraphFamily::Path, 4, &[12, 16]),
];

/// Labels are every ordered pair of distinct values up to this.
const MAX_LABEL: u64 = 6;

/// Largest horizon the plain reference search is run at.
const PLAIN_MAX_DEPTH: usize = 14;

struct Item {
    id: String,
    graph: usize,
    starts: [usize; 2],
    labels: [u64; 2],
    depth: usize,
    /// Index of the same draw's search at the next smaller horizon.
    shorter: Option<usize>,
    /// The plain search's result, where it was computed.
    plain: Option<SearchOutcome>,
    pi: Big,
}

pub struct Minimax {
    graphs: Vec<(Graph, Automorphisms)>,
    items: Vec<Item>,
}

impl Minimax {
    pub fn new(seed: u64) -> Self {
        Self::build(seed, MAX_LABEL)
    }

    /// The population over labels up to `max_label`.
    fn build(seed: u64, max_label: u64) -> Self {
        let mut rng = Rng::new(seed, "minimax");
        let mut graphs = Vec::new();
        let mut items: Vec<Item> = Vec::new();
        for (family, n, depths) in CURVES {
            let g = adapter::generate(family, n, 0);
            let autos = adapter::automorphisms(family, &g);
            let pairs = (1..=max_label)
                .flat_map(|a| (1..=max_label).map(move |b| (a, b)))
                .filter(|(a, b)| a != b);
            for (j, (a, b)) in pairs.enumerate() {
                let element = rng.next();
                let s = [0, 1 + j % (n - 1)].map(|v| adapter::symmetric_image(&autos, element, v));
                let pi = adapter::pi_bound(n, adapter::label_bits(a.min(b))) * 2u64;
                let mut shorter = None;
                for &depth in depths {
                    items.push(Item {
                        id: format!(
                            "{family:?}{n}/d{depth}/labels:{a},{b}/starts:{},{}",
                            s[0], s[1]
                        ),
                        graph: graphs.len(),
                        starts: [s[0], s[1]],
                        labels: [a, b],
                        depth,
                        shorter,
                        plain: None,
                        pi: pi.clone(),
                    });
                    shorter = Some(items.len() - 1);
                }
            }
            graphs.push((g, autos));
        }
        let mut w = Minimax { graphs, items };
        for i in 0..w.items.len() {
            if w.items[i].depth <= PLAIN_MAX_DEPTH {
                w.items[i].plain = Some(w.search(i, false).0);
            }
        }
        w.search(0, true); // warm-up
        w
    }

    fn search(&self, i: usize, memo: bool) -> (SearchOutcome, Vec<u64>) {
        let item = &self.items[i];
        let (g, automorphisms) = &self.graphs[item.graph];
        let spec = adapter::Search {
            g,
            automorphisms,
            starts: item.starts,
            labels: item.labels,
            depth: item.depth,
        };
        lapped(|| adapter::search(&spec, memo))
    }

    fn failure(&self, item: &Item, out: &SearchOutcome, worst: &[Option<u64>]) -> Option<Failure> {
        let same = |a: &SearchOutcome, b: &SearchOutcome| {
            (a.max_meeting_cost, a.some_schedule_avoids, a.leaves)
                == (b.max_meeting_cost, b.some_schedule_avoids, b.leaves)
        };
        if let Some(plain) = item.plain.as_ref().filter(|p| !same(p, out)) {
            return Some(Failure::wrong(format!(
                "memoized {out:?} differs from plain {plain:?}"
            )));
        }
        if let Some(j) = item.shorter {
            if out.max_meeting_cost < worst[j] {
                return Some(Failure::wrong(format!(
                    "worst cost {:?} fell below {:?} at the shorter horizon",
                    out.max_meeting_cost, worst[j]
                )));
            }
        }
        out.max_meeting_cost
            .filter(|&c| Big::from(c) > item.pi)
            .map(|c| Failure::wrong(format!("worst cost {c} exceeds 2·Π = {:?}", item.pi)))
    }
}

impl Workload for Minimax {
    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut worst = Vec::with_capacity(self.items.len());
        let (mut leaves, mut probes, mut hits, mut entries) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..self.items.len() {
            let (out, laps) = self.search(i, true);
            let memo = out.memo.expect("memoized searches report table counters");
            leaves += out.leaves;
            probes += memo.probes;
            hits += memo.hits;
            entries += memo.entries;
            let cost = out.max_meeting_cost.unwrap_or(0);
            let failure = if traced {
                None
            } else {
                self.failure(&self.items[i], &out, &worst)
            };
            worst.push(out.max_meeting_cost);
            pass.runs.push(Run {
                id: self.items[i].id.clone(),
                laps,
                traversals: cost,
                failure,
                fingerprint: format!(
                    "{:?}/{}/{}",
                    out.max_meeting_cost, out.some_schedule_avoids, out.leaves
                ),
            });
        }
        pass.sim_cost = worst.iter().map(|c| c.unwrap_or(0)).sum();
        pass.counts = vec![
            ("minimax.leaves", leaves as f64),
            ("memo.probes", probes as f64),
            ("memo.hits", hits as f64),
            ("memo.entries", entries as f64),
            ("memo.hit_ratio", hits as f64 / probes as f64),
        ];
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_repeats_every_worst_case_and_count() {
        let mut a = Minimax::build(4, 2);
        let mut b = Minimax::build(4, 2);
        let (pa, pb) = (a.pass(false), b.pass(false));
        let prints = |p: &Pass| {
            p.runs
                .iter()
                .map(|r| r.fingerprint.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(prints(&pa), prints(&pb));
        assert_eq!(pa.sim_cost, pb.sim_cost);
        assert!(pa.runs.iter().all(|r| r.failure.is_none()));
        assert!(
            a.items.iter().any(|i| i.plain.is_some()),
            "some horizons have a plain reference"
        );
    }

    #[test]
    fn the_classifier_fails_a_worst_case_that_differs_shrinks_or_exceeds_pi() {
        let w = Minimax::build(4, 2);
        let i = w
            .items
            .iter()
            .position(|i| i.plain.is_some())
            .expect("a plain reference");
        let item = &w.items[i];
        let plain = item.plain.clone().expect("checked above");
        assert_eq!(w.failure(item, &plain, &[]), None);
        let wrong = SearchOutcome {
            leaves: plain.leaves + 1,
            ..plain.clone()
        };
        assert!(w.failure(item, &wrong, &[]).expect("fails").wrong);

        let longer = w
            .items
            .iter()
            .position(|i| i.shorter.is_some())
            .expect("a curve");
        let shorter = w.items[longer].shorter.expect("checked above");
        let mut worst = vec![None; longer];
        worst[shorter] = Some(u64::MAX - 1);
        let out = SearchOutcome {
            max_meeting_cost: Some(3),
            some_schedule_avoids: false,
            leaves: 1,
            memo: None,
        };
        let item = Item {
            plain: None,
            ..clone_item(&w.items[longer])
        };
        assert!(w.failure(&item, &out, &worst).expect("fails").wrong);
        let huge = Item {
            pi: Big::from(2u64),
            shorter: None,
            ..clone_item(&item)
        };
        assert!(w.failure(&huge, &out, &[]).expect("fails").wrong);
    }

    fn clone_item(i: &Item) -> Item {
        Item {
            id: i.id.clone(),
            graph: i.graph,
            starts: i.starts,
            labels: i.labels,
            depth: i.depth,
            shorter: i.shorter,
            plain: i.plain.clone(),
            pi: i.pi.clone(),
        }
    }
}
