//! `rendezvous`: two-agent RV-asynch-poly runs that stop at the first
//! meeting, under the divergence detector.
//!
//! Why: runs are short (10²–10⁴ traversals), so the per-action cost of
//! the runtime, the adversary and the stop policy dominates. No ESST,
//! SGL, transposition table or store is involved.
//!
//! Population: a fixed draw — every graph family × the four
//! adversaries that do not schedule in exact lockstep × four label
//! classes × 18 draws, two at each order of 8..=16, each with a graph,
//! starts, labels and adversary seed drawn from `POPULATION_SEED`. Then
//! the runs the detector must retire: the fence trap
//! `crates/sim/tests/rendezvous.rs` pins (round-robin lockstep on the
//! 3-cube, which never meets at a feasible cost), and the scenario
//! matrix's F6 `unscaled` slice, the ablation cells the detector retires
//! as divergent. The seed only orders the runs.
//!
//! Every run of the draws must meet, so the draws stay out of the fence
//! trap: a trapped run computes nothing wrong (Theorem 3.1's guarantee
//! engages only at pieces whose cost is astronomical, within `Π(n, m)`),
//! but the detector retires it unmet. With the exact-lockstep adversaries
//! (round-robin, eager-meet) and orders up to 32, about 5 % of a draw was
//! trapped, so both are left out; orders 8..=16 are the range the
//! detector's window is calibrated on. Even then about one fresh draw in
//! 40 holds a trapped run (a lazy adversary on a small tree, e.g.
//! `RandomTree15/lazy(1)` with labels 349, 312, unmet after 3M
//! traversals), so the population is one fixed draw, checked to meet in
//! full, rather than a fresh draw per seed.
//!
//! Check: a seeded run fails unless it ends `Meeting` with each agent's
//! traversals within Theorem 3.1's `Π(n, m)` (exact, in `Big`; `m` is
//! the smaller label's bit length). A fence-trap or ablation run fails
//! unless it ends `Diverged`.

use super::{lapped, Failure, Pass, Run, SimCounts, Workload};
use crate::adapter::{self, AdversaryKind, Big, Graph, GraphFamily, RunEnd, RvVariant};
use crate::rng::Rng;
use std::collections::BTreeMap;

/// Traversal backstop; the detector retires non-meeting runs long before.
const CUTOFF: u64 = 4_000_000;

/// The label-pair classes of the paper-variant population.
const LABEL_CLASSES: [&str; 4] = ["small-small", "small-huge", "equal-length", "20-bit"];

/// The adversaries of the seeded draws: every one but the lockstep
/// schedulers round-robin and eager-meet.
const ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::Random,
    AdversaryKind::LazyFirst,
    AdversaryKind::LazySecond,
    AdversaryKind::GreedyAvoid,
];

/// The seed of the population's draw (a draw every run of which meets).
const POPULATION_SEED: u64 = 1;

/// Draws per (family, adversary, label class) stratum. Draw `j` has
/// order `MIN_ORDER + j mod 9`, so every seed covers the orders alike.
const DRAWS: u64 = 18;

const MIN_ORDER: u64 = 8;
const MAX_ORDER: u64 = 16;

enum Check {
    /// Must meet within `Π`, the index into `pis`.
    Paper(usize),
    /// Must be retired as divergent.
    Diverges,
}

struct Item {
    id: String,
    graph: usize,
    starts: [usize; 2],
    labels: [u64; 2],
    variant: RvVariant,
    adversary: AdversaryKind,
    adversary_seed: u64,
    check: Check,
}

pub struct Rendezvous {
    graphs: Vec<Graph>,
    items: Vec<Item>,
    pis: Vec<Big>,
}

fn distinct_pair(rng: &mut Rng, mut draw: impl FnMut(&mut Rng) -> u64) -> [u64; 2] {
    let a = draw(rng);
    loop {
        let b = draw(rng);
        if b != a {
            return [a, b];
        }
    }
}

fn labels_for(class: &str, rng: &mut Rng) -> [u64; 2] {
    match class {
        "small-small" => distinct_pair(rng, |r| r.range(1, 15)),
        "small-huge" => {
            let bits = rng.range(32, 48) as u32;
            [rng.range(1, 15), rng.label_of_bits(bits)]
        }
        "equal-length" => {
            let bits = rng.range(3, 10) as u32;
            distinct_pair(rng, |r| r.label_of_bits(bits))
        }
        _ => distinct_pair(rng, |r| r.label_of_bits(20)),
    }
}

impl Rendezvous {
    pub fn new(seed: u64) -> Self {
        Self::build(POPULATION_SEED, seed, DRAWS)
    }

    /// The population drawn from `population` with `draws` draws per
    /// stratum, in an order drawn from `seed`.
    fn build(population: u64, seed: u64, draws: u64) -> Self {
        let mut rng = Rng::new(population, "rendezvous");
        let mut graphs = Vec::new();
        let mut items = Vec::new();
        let mut pi_index: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        let mut pis = Vec::new();
        for family in GraphFamily::ALL {
            for adversary in ADVERSARIES {
                for (class, draw) in LABEL_CLASSES
                    .iter()
                    .flat_map(|c| (0..draws).map(move |j| (c, j)))
                {
                    let order = MIN_ORDER + draw % (MAX_ORDER - MIN_ORDER + 1);
                    let g = adapter::generate(family, order as usize, rng.next());
                    let n = g.order();
                    let s = rng.distinct_nodes(n, 2);
                    let labels = labels_for(class, &mut rng);
                    let m = adapter::label_bits(labels[0].min(labels[1]));
                    let pi = *pi_index.entry((n, m)).or_insert_with(|| {
                        pis.push(adapter::pi_bound(n, m));
                        pis.len() - 1
                    });
                    items.push(Item {
                        id: format!(
                            "{family:?}{n}/{adversary}/paper/{class}:{},{}",
                            labels[0], labels[1]
                        ),
                        graph: graphs.len(),
                        starts: [s[0], s[1]],
                        labels,
                        variant: RvVariant::default(),
                        adversary,
                        adversary_seed: rng.next(),
                        check: Check::Paper(pi),
                    });
                    graphs.push(g);
                }
            }
        }
        let cube = adapter::generate(GraphFamily::Hypercube, 8, 0);
        items.push(Item {
            id: format!("Hypercube{}/round-robin/paper/fence-trap:6,9", cube.order()),
            graph: graphs.len(),
            starts: [0, 4],
            labels: [6, 9],
            variant: RvVariant::default(),
            adversary: AdversaryKind::RoundRobin,
            adversary_seed: 1,
            check: Check::Diverges,
        });
        graphs.push(cube);
        for cell in adapter::matrix_rendezvous_cells() {
            if adapter::cell_id(&cell).ends_with("/unscaled") && diverges(&cell) {
                let g = adapter::cell_graph(&cell);
                let spec = adapter::cell_rendezvous(&cell, &g);
                items.push(Item {
                    id: adapter::cell_id(&cell),
                    graph: graphs.len(),
                    starts: spec.starts,
                    labels: spec.labels,
                    variant: spec.variant,
                    adversary: spec.adversary,
                    adversary_seed: spec.adversary_seed,
                    check: Check::Diverges,
                });
                graphs.push(g);
            }
        }
        let mut w = Rendezvous { graphs, items, pis };
        w.run(0, false); // warm-up: the draw's first run, on every seed
        Rng::new(seed, "rendezvous").shuffle(&mut w.items);
        w
    }

    fn run(&self, i: usize, traced: bool) -> (adapter::Outcome, Vec<u64>) {
        let item = &self.items[i];
        let spec = adapter::Rendezvous {
            g: &self.graphs[item.graph],
            starts: item.starts,
            labels: item.labels,
            variant: item.variant,
            adversary: item.adversary,
            adversary_seed: item.adversary_seed,
            cutoff: CUTOFF,
        };
        lapped(|| adapter::rendezvous(&spec, traced))
    }

    fn failure(&self, item: &Item, out: &adapter::Outcome) -> Option<Failure> {
        match item.check {
            Check::Paper(pi) => {
                if out.end != RunEnd::Meeting {
                    return Some(Failure::unfinished(format!(
                        "ended {:?} after {} traversals instead of meeting",
                        out.end, out.traversals
                    )));
                }
                let bound = &self.pis[pi];
                out.per_agent
                    .iter()
                    .find(|&&t| Big::from(t) > *bound)
                    .map(|t| {
                        Failure::wrong(format!("an agent made {t} traversals, above Π = {bound:?}"))
                    })
            }
            Check::Diverges => (out.end != RunEnd::Diverged)
                .then(|| Failure::wrong(format!("run ended {:?}, not Diverged", out.end))),
        }
    }
}

/// The matrix's divergent `unscaled` slice: order 16 on ring, path and
/// tree under every swept adversary but random, plus the smaller ring
/// and path cells the meeting-postponing adversaries hold apart. These
/// are the 18 cells `perf_baseline`'s `matrix_slice/diverge18` pins.
fn diverges(cell: &adapter::CellSpec) -> bool {
    let id = adapter::cell_id(cell);
    let stem = id.split('/').next().unwrap_or_default();
    matches!(stem, "ring16" | "path16" | "tree16")
        || (matches!(stem, "ring8" | "ring12" | "path8" | "path12") && id.contains("/lazy(1)/"))
        || (matches!(stem, "ring12" | "path12") && id.contains("/greedy-avoid/"))
}

impl Workload for Rendezvous {
    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut sim = SimCounts::default();
        for i in 0..self.items.len() {
            let (out, laps) = self.run(i, traced);
            let item = &self.items[i];
            sim.add(&out, out.end == RunEnd::Meeting);
            pass.runs.push(Run {
                id: item.id.clone(),
                laps,
                traversals: out.traversals,
                failure: if traced {
                    None
                } else {
                    self.failure(item, &out)
                },
                fingerprint: format!("{out:?}"),
            });
        }
        pass.sim_cost = sim.traversals;
        pass.counts = sim.counts();
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_repeats_every_outcome_and_count_and_tracing_changes_none() {
        let mut a = Rendezvous::build(3, 3, 1);
        let mut b = Rendezvous::build(3, 3, 1);
        let (pa, pb) = (a.pass(false), b.pass(false));
        let prints = |p: &Pass| {
            p.runs
                .iter()
                .map(|r| r.fingerprint.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(prints(&pa), prints(&pb));
        assert_eq!(pa.sim_cost, pb.sim_cost);
        assert_eq!(pa.counts, pb.counts);
        assert_eq!(prints(&a.pass(false)), prints(&pa));
        crate::trace::set_enabled(true);
        let traced = a.pass(true);
        crate::trace::set_enabled(false);
        assert!(!crate::trace::take().is_empty());
        assert_eq!(prints(&traced), prints(&pa));
    }

    #[test]
    fn every_run_of_the_population_completes_its_task() {
        let mut w = Rendezvous::new(0);
        let pass = w.pass(false);
        let failed: Vec<_> = pass
            .runs
            .iter()
            .filter_map(|r| r.failure.as_ref().map(|f| (&r.id, &f.reason)))
            .collect();
        assert_eq!(failed, Vec::<(&String, &String)>::new());
    }

    #[test]
    fn the_classifier_fails_runs_that_miss_the_meeting_or_the_bound() {
        let mut w = Rendezvous::build(3, 3, 1);
        w.pis.push(Big::from(100u64));
        let paper = Item {
            id: "small-bound".into(),
            graph: 0,
            starts: [0, 1],
            labels: [1, 2],
            variant: RvVariant::default(),
            adversary: AdversaryKind::RoundRobin,
            adversary_seed: 0,
            check: Check::Paper(w.pis.len() - 1),
        };
        let met = adapter::Outcome {
            end: RunEnd::Meeting,
            traversals: 120,
            per_agent: vec![60, 60],
            actions: 240,
            meetings: 1,
        };
        assert_eq!(w.failure(&paper, &met), None);
        let diverged = adapter::Outcome {
            end: RunEnd::Diverged,
            ..met.clone()
        };
        assert!(!w.failure(&paper, &diverged).expect("fails").wrong);
        let over = adapter::Outcome {
            per_agent: vec![101, 19],
            ..met.clone()
        };
        assert!(w.failure(&paper, &over).expect("fails").wrong);
        let ablation = Item {
            check: Check::Diverges,
            ..paper
        };
        assert!(w.failure(&ablation, &met).expect("fails").wrong);
        assert_eq!(w.failure(&ablation, &diverged), None);
    }
}
