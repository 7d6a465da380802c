//! `sgl`: teams of k ∈ {2, 3, 4} SGL agents run to quiescence under the
//! adaptive stall policy.
//!
//! Why: runs are long (10⁵–10⁶ traversals) and the cost is agent-side —
//! ESST exploration and the bag exchange at every meeting. The
//! meeting-postponing adversaries (`lazy(1)`, `greedy-avoid`) pin token
//! ghosts, so their cells close on suspended-token certificates; the
//! round-robin and eager-meet cells do not. Certificates move `sim_cost`
//! here and nowhere else.
//!
//! Population: a fixed grid — every team size × every protocol adversary,
//! the 12 teams cycling through the orders 5..=8 and every family the
//! matrix runs SGL on, with the matrix's graph seed, adversary seed and
//! labels (6, 9, 14, 21, the first k), and agents spread evenly as the
//! matrix places them. The seed only orders the runs. SGL's cost climbs
//! a geometric ladder of exploration phases, so any seeded input moves
//! whole teams a rung, which a few dozen teams cannot average out:
//! seeded graphs and labels swung `sim_cost` by ±9 % and peak memory
//! (the largest team's meeting log) by ±35 % between seeds, and seeded
//! adversaries still moved `run_p90_ms` by 26 %. From arbitrary starts,
//! exact-lockstep schedules on rings can trap the traveller phase in the
//! fence trap the `rendezvous` workload measures, and such a run burns
//! the whole backstop.
//!
//! The grid is small so that a run times every team 15–20 times: a
//! team's time sums its laps' fastest times over the passes, and with
//! the 48 teams of orders up to 16 (2–3 passes) or 12 teams up to 16
//! (about 10), the host's slow spells still moved `runs_per_s` and
//! `run_p90_ms` by 16–35 % between runs; 12 teams up to order 8 spread
//! 2–10 %.
//!
//! Check: a run fails unless it ends `AllParked` with SGL's
//! postcondition (`rv_bench::sgl_postcondition_violations`) holding and
//! `rv_protocols::solve` agreeing with the team: team size k, leader the
//! minimal label, new names a permutation of 1..k.

use super::{lapped, Failure, Pass, Run, SimCounts, Workload};
use crate::adapter::{self, AdversaryKind, Graph, GraphFamily, RunEnd};
use crate::rng::Rng;

/// Traversal backstop; the stall policy retires stuck runs long before.
const CUTOFF: u64 = 10_000_000;

const TEAM_SIZES: [usize; 3] = [2, 3, 4];

/// The protocol adversaries (the scenario matrix's spread).
const ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::RoundRobin,
    AdversaryKind::LazySecond,
    AdversaryKind::GreedyAvoid,
    AdversaryKind::EagerMeet,
];

/// The families the matrix runs SGL on.
const FAMILIES: [GraphFamily; 5] = [
    GraphFamily::Ring,
    GraphFamily::Path,
    GraphFamily::RandomTree,
    GraphFamily::Gnp,
    GraphFamily::Lollipop,
];

/// Teams per (team size, adversary) stratum.
const TEAMS: usize = 1;

/// Graph orders, cycled through by the grid.
const MIN_ORDER: usize = 5;
const MAX_ORDER: usize = 8;

struct Item {
    id: String,
    graph: usize,
    starts: Vec<usize>,
    labels: Vec<u64>,
    adversary: AdversaryKind,
    adversary_seed: u64,
}

pub struct Sgl {
    graphs: Vec<Graph>,
    items: Vec<Item>,
}

impl Sgl {
    pub fn new(seed: u64) -> Self {
        Self::build(seed, TEAMS, MAX_ORDER)
    }

    /// The grid with `teams` teams per stratum and orders up to
    /// `max_order`.
    fn build(seed: u64, teams: usize, max_order: usize) -> Self {
        let mut rng = Rng::new(seed, "sgl");
        let mut graphs = Vec::new();
        let mut items = Vec::new();
        let orders = max_order - MIN_ORDER + 1;
        for k in TEAM_SIZES {
            for adversary in ADVERSARIES {
                for _ in 0..teams {
                    // 5 is coprime to the number of orders, so
                    // consecutive teams step through all of them.
                    let order = MIN_ORDER + (items.len() * 5) % orders;
                    let family = FAMILIES[items.len() % FAMILIES.len()];
                    let g = adapter::generate(family, order, adapter::MATRIX_GRAPH_SEED);
                    let n = g.order();
                    let starts = (0..k).map(|i| i * n / k).collect();
                    let labels = adapter::MATRIX_SGL_LABELS[..k].to_vec();
                    items.push(Item {
                        id: format!("{family:?}{n}/{adversary}/sgl-k{k}"),
                        graph: graphs.len(),
                        starts,
                        labels,
                        adversary,
                        adversary_seed: adapter::MATRIX_ADVERSARY_SEED,
                    });
                    graphs.push(g);
                }
            }
        }
        let mut w = Sgl { graphs, items };
        w.run(0, false); // warm-up: the grid's first team, on every seed
        rng.shuffle(&mut w.items);
        w
    }

    fn run(&self, i: usize, traced: bool) -> (adapter::TeamOutcome, Vec<u64>) {
        let item = &self.items[i];
        let spec = adapter::Team {
            g: &self.graphs[item.graph],
            starts: item.starts.clone(),
            labels: item.labels.clone(),
            adversary: item.adversary,
            adversary_seed: item.adversary_seed,
            cutoff: CUTOFF,
        };
        lapped(|| adapter::sgl(&spec, traced))
    }
}

fn failure(out: &adapter::TeamOutcome) -> Option<Failure> {
    if out.outcome.end != RunEnd::AllParked {
        return Some(Failure::unfinished(format!(
            "ended {:?} after {} traversals instead of quiescing",
            out.outcome.end, out.outcome.traversals
        )));
    }
    (!out.violations.is_empty()).then(|| Failure::wrong(out.violations.join("; ")))
}

impl Workload for Sgl {
    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut sim = SimCounts::default();
        let (mut meetings, mut certified) = (0u64, 0u64);
        for i in 0..self.items.len() {
            let (out, laps) = self.run(i, traced);
            let o = &out.outcome;
            sim.add(o, o.end == RunEnd::AllParked);
            meetings += o.meetings;
            certified += out.certified;
            pass.runs.push(Run {
                id: self.items[i].id.clone(),
                laps,
                traversals: o.traversals,
                failure: if traced { None } else { failure(&out) },
                fingerprint: format!("{o:?}"),
            });
        }
        pass.sim_cost = sim.traversals;
        pass.counts = sim.counts();
        pass.counts
            .push(("esst.certified_agents", certified as f64));
        pass.counts.push((
            "sgl.meetings_per_ktraversal",
            meetings as f64 * 1000.0 / sim.traversals as f64,
        ));
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_repeats_every_outcome_and_count_and_tracing_changes_none() {
        let mut a = Sgl::build(5, 1, 5);
        let mut b = Sgl::build(5, 1, 5);
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
        assert!(pa.runs.iter().all(|r| r.failure.is_none()), "{:?}", pa.runs);
        crate::trace::set_enabled(true);
        let traced = a.pass(true);
        crate::trace::set_enabled(false);
        crate::trace::take();
        assert_eq!(prints(&traced), prints(&pa));
    }

    #[test]
    fn the_classifier_fails_unquiesced_runs_and_wrong_team_outputs() {
        let quiesced = adapter::TeamOutcome {
            outcome: adapter::Outcome {
                end: RunEnd::AllParked,
                traversals: 10,
                per_agent: vec![5, 5],
                actions: 20,
                meetings: 3,
            },
            certified: 0,
            violations: Vec::new(),
        };
        assert_eq!(failure(&quiesced), None);
        let mut wrong = quiesced.clone();
        wrong.violations.push("agent 1 elected leader 9".into());
        assert!(failure(&wrong).expect("fails").wrong);
        let mut stalled = quiesced.clone();
        stalled.outcome.end = RunEnd::Stalled;
        assert!(!failure(&stalled).expect("fails").wrong);
    }
}
