//! The four workloads. Each draws its population from the seed in
//! `setup`, then runs it in whole passes; the engine only ever receives
//! the generated inputs.

pub mod minimax;
pub mod rendezvous;
pub mod sgl;
pub mod sweep;

pub use crate::laps::{lapped, timed};

/// One run of a pass.
#[derive(Clone, Debug)]
pub struct Run {
    /// The population member's id (a matrix-style cell id).
    pub id: String,
    /// Host time of the timed section, ns, in laps (see `laps.rs`).
    pub laps: Vec<u64>,
    /// Simulated edge traversals (the numerator of
    /// `sim_traversals_per_s`).
    pub traversals: u64,
    /// Everything the run computed that must repeat exactly: compared
    /// across passes and between the untraced and the traced run.
    pub fingerprint: String,
    /// Why the run failed its workload's check, if it did. Untraced
    /// passes classify every run; traced passes leave this `None` and
    /// are judged by their fingerprint.
    pub failure: Option<Failure>,
}

/// A run that failed its workload's check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    pub reason: String,
    /// `true` when the run produced a wrong result (a bound exceeded, a
    /// wrong team output, a wrong stored row); `false` when it only
    /// ended without completing its task (retired by a stop policy).
    pub wrong: bool,
}

impl Failure {
    /// The run ended without completing its task.
    pub fn unfinished(reason: String) -> Self {
        Failure {
            reason,
            wrong: false,
        }
    }

    /// The run produced a wrong result.
    pub fn wrong(reason: String) -> Self {
        Failure {
            reason,
            wrong: true,
        }
    }
}

/// A whole pass over the population.
#[derive(Debug, Default)]
pub struct Pass {
    pub runs: Vec<Run>,
    /// Timed host time outside the runs (the sweep's warm re-open).
    pub extra_ns: u64,
    /// The paper's cost summed over the population (deterministic).
    pub sim_cost: u64,
    /// Deterministic per-layer counts of the pass.
    pub counts: Vec<Count>,
}

/// A deterministic per-layer count, computed from a pass's outcomes.
pub type Count = (&'static str, f64);

pub trait Workload {
    /// One pass over the whole population.
    fn pass(&mut self, traced: bool) -> Pass;
}

/// The counts every simulating workload reports, summed over a pass.
#[derive(Default)]
pub struct SimCounts {
    actions: u64,
    pub traversals: u64,
    /// Traversals of runs retired before completing their task.
    wasted: u64,
}

impl SimCounts {
    /// Adds a run; `completed` says whether it ended as its task asks.
    pub fn add(&mut self, out: &crate::adapter::Outcome, completed: bool) {
        self.actions += out.actions;
        self.traversals += out.traversals;
        if !completed {
            self.wasted += out.traversals;
        }
    }

    pub fn counts(&self) -> Vec<Count> {
        vec![
            ("runtime.actions", self.actions as f64),
            ("runtime.traversals", self.traversals as f64),
            (
                "stop.wasted_traversal_share",
                self.wasted as f64 / self.traversals as f64,
            ),
        ]
    }
}

/// Sets a workload up from `seed`, including its untimed warm-up run.
pub fn setup(name: &str, seed: u64, dir: &std::path::Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "rendezvous" => Box::new(rendezvous::Rendezvous::new(seed)),
        "sgl" => Box::new(sgl::Sgl::new(seed)),
        "minimax" => Box::new(minimax::Minimax::new(seed)),
        "sweep" => Box::new(sweep::Sweep::new(seed, dir)),
        _ => return None,
    })
}
