//! Every call from the benchmark into the workspace crates goes through
//! this file, so an API cleanup in the engine touches the benchmark in
//! one place. It uses only surfaces the roadmap keeps: `Runtime::new`
//! with a plain `RunConfig`, `run_with_policy`, `search_worst_case` with
//! `..SearchOptions::default()`, and `Store::open`/`append`/`get`.
//!
//! The traced run wraps the engine's public `Behavior`, `Adversary` and
//! `StopPolicy` traits in delegating types that time each call (see
//! [`crate::trace`]); the untraced run calls the engine types directly,
//! its stop policy wrapped only to end a lap at each check (see
//! [`crate::laps`]).

use crate::trace::{self, Layer};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{NodeId, PortId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::Adversary;
use rv_sim::stop::{BehaviorProgress, Progress, StopPolicy};
use rv_sim::{
    AdaptiveThreshold, Behavior, Choice, ChoiceInfo, DivergenceDetector, MeetingPlace, RunConfig,
    RunOutcome, Runtime, RvBehavior, SearchOptions,
};

pub use rv_arith::Big;
pub use rv_bench::cells::{
    CellSpec, ADVERSARY_SEED as MATRIX_ADVERSARY_SEED, GRAPH_SEED as MATRIX_GRAPH_SEED,
    SGL_LABELS as MATRIX_SGL_LABELS,
};
pub use rv_core::RvVariant;
pub use rv_graph::{Automorphisms, Graph, GraphFamily};
pub use rv_sim::adversary::AdversaryKind;
pub use rv_sim::RunEnd;

/// The exploration provider every workload uses: the scenario matrix's.
fn provider() -> SeededUxs {
    SeededUxs::quadratic()
}

fn label(value: u64) -> Label {
    Label::new(value).expect("workload labels are positive")
}

/// Bit length of a label value.
pub fn label_bits(value: u64) -> u64 {
    u64::from(label(value).bit_length())
}

/// A member of `family` with order close to `n`.
pub fn generate(family: GraphFamily, n: usize, seed: u64) -> Graph {
    trace::span(Layer::GraphGenerate, || family.generate(n, seed))
}

/// The verified automorphism group of a family member.
pub fn automorphisms(family: GraphFamily, g: &Graph) -> Automorphisms {
    trace::span(Layer::GraphAutomorphisms, || family.automorphisms(g))
}

/// The image of node `v` under a seeded element of the group.
pub fn symmetric_image(autos: &Automorphisms, element: u64, v: usize) -> usize {
    let k = (element % autos.len() as u64) as usize;
    autos.map(k, NodeId(v)).0
}

/// Theorem 3.1's bound `Π(n, m)` for the workloads' provider.
pub fn pi_bound(n: usize, m: u64) -> Big {
    trace::span(Layer::CorePiBound, || {
        rv_core::pi_bound(provider(), n as u64, m)
    })
}

/// What a simulated run did: everything the classifiers and the
/// traced-equals-untraced check compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub end: RunEnd,
    pub traversals: u64,
    pub per_agent: Vec<u64>,
    pub actions: u64,
    pub meetings: u64,
}

impl Outcome {
    fn of(out: &RunOutcome) -> Self {
        Outcome {
            end: out.end,
            traversals: out.total_traversals,
            per_agent: out.per_agent.clone(),
            actions: out.actions,
            meetings: out.meetings.len() as u64,
        }
    }
}

/// Builds a runtime and runs it under `adversary` and `policy`, wrapping
/// all three in the tracing delegates when `traced`.
fn drive<'g, B: Behavior>(
    g: &'g Graph,
    behaviors: Vec<B>,
    config: RunConfig,
    adversary: &mut dyn Adversary,
    policy: &mut dyn StopPolicy,
    traced: bool,
    inspect: impl FnOnce(&Runtime<'g, B>, &RunOutcome),
) -> Outcome {
    if traced {
        let behaviors: Vec<Traced<B>> = behaviors.into_iter().map(Traced).collect();
        let mut rt = trace::span(Layer::RuntimeNew, || Runtime::new(g, behaviors, config));
        let mut adversary = TracedAdversary(adversary);
        let mut policy = TracedPolicy(policy);
        let out = trace::span(Layer::RuntimeRun, || {
            rt.run_with_policy(&mut adversary, &mut policy)
        });
        Outcome::of(&out)
    } else {
        let mut rt = Runtime::new(g, behaviors, config);
        let out = rt.run_with_policy(adversary, &mut Lapped(policy));
        inspect(&rt, &out);
        Outcome::of(&out)
    }
}

/// One two-agent RV-asynch-poly run that stops at the first meeting,
/// under the divergence detector.
#[derive(Clone, Debug)]
pub struct Rendezvous<'g> {
    pub g: &'g Graph,
    pub starts: [usize; 2],
    pub labels: [u64; 2],
    pub variant: RvVariant,
    pub adversary: AdversaryKind,
    pub adversary_seed: u64,
    pub cutoff: u64,
}

/// Runs a [`Rendezvous`].
pub fn rendezvous(spec: &Rendezvous<'_>, traced: bool) -> Outcome {
    let agents: Vec<_> = (0..2)
        .map(|i| {
            RvBehavior::with_variant(
                spec.g,
                provider(),
                NodeId(spec.starts[i]),
                label(spec.labels[i]),
                spec.variant,
            )
        })
        .collect();
    let config = RunConfig {
        stop_on_first_meeting: true,
        max_total_traversals: spec.cutoff,
    };
    let mut adversary = spec.adversary.build(spec.adversary_seed);
    let mut policy = DivergenceDetector::default();
    drive(
        spec.g,
        agents,
        config,
        adversary.as_mut(),
        &mut policy,
        traced,
        |_, _| {},
    )
}

/// One SGL team run to quiescence under the adaptive stall policy.
#[derive(Clone, Debug)]
pub struct Team<'g> {
    pub g: &'g Graph,
    pub starts: Vec<usize>,
    pub labels: Vec<u64>,
    pub adversary: AdversaryKind,
    pub adversary_seed: u64,
    pub cutoff: u64,
}

/// The gossip value agent `label` carries.
fn gossip_value(label: u64) -> u64 {
    label + 1000
}

/// An SGL run's outcome plus what only the untraced run inspects.
#[derive(Clone, Debug)]
pub struct TeamOutcome {
    pub outcome: Outcome,
    /// Agents whose exploration phase closed on a suspended-token
    /// certificate.
    pub certified: u64,
    /// Postcondition and application violations (checked on untraced
    /// runs only; the traced run is compared against an untraced one).
    pub violations: Vec<String>,
}

/// Runs a [`Team`] and, untraced, checks SGL's postcondition and the
/// applications derived from it with `rv_protocols::solve`.
pub fn sgl(spec: &Team<'_>, traced: bool) -> TeamOutcome {
    let agents: Vec<_> = spec
        .starts
        .iter()
        .zip(&spec.labels)
        .map(|(&start, &l)| {
            SglBehavior::new(
                spec.g,
                provider(),
                NodeId(start),
                label(l),
                gossip_value(l),
                SglConfig::default(),
            )
        })
        .collect();
    let config = RunConfig {
        stop_on_first_meeting: false,
        max_total_traversals: spec.cutoff,
    };
    let mut adversary = spec.adversary.build(spec.adversary_seed);
    let mut policy = AdaptiveThreshold::default();
    let mut certified = 0;
    let mut violations = Vec::new();
    let outcome = drive(
        spec.g,
        agents,
        config,
        adversary.as_mut(),
        &mut policy,
        traced,
        |rt, out| {
            certified = (0..rt.agent_count())
                .filter(|&i| rt.behavior(i).certificate().is_some())
                .count() as u64;
            if out.end == RunEnd::AllParked {
                violations = team_violations(rt, &spec.labels);
            }
        },
    );
    TeamOutcome {
        outcome,
        certified,
        violations,
    }
}

fn team_violations(rt: &Runtime<'_, SglBehavior<'_, SeededUxs>>, labels: &[u64]) -> Vec<String> {
    let mut out = rv_bench::sgl_postcondition_violations(rt, labels, gossip_value);
    let k = labels.len();
    let leader = labels.iter().copied().min().expect("teams are non-empty");
    let mut names = Vec::new();
    for i in 0..rt.agent_count() {
        let b = rt.behavior(i);
        let Some(set) = b.output() else { continue };
        let s = rv_protocols::solve(b.label().value(), set);
        if s.team_size != k {
            out.push(format!("agent {i} derived team size {}", s.team_size));
        }
        if s.leader != leader {
            out.push(format!("agent {i} elected leader {}", s.leader));
        }
        names.push(s.new_name);
    }
    names.sort_unstable();
    if names != (1..=k).collect::<Vec<_>>() {
        out.push(format!(
            "new names are not a permutation of 1..{k}: {names:?}"
        ));
    }
    out
}

/// One exhaustive worst-case search over two RV-asynch-poly agents.
#[derive(Clone, Debug)]
pub struct Search<'g> {
    pub g: &'g Graph,
    pub automorphisms: &'g Automorphisms,
    pub starts: [usize; 2],
    pub labels: [u64; 2],
    pub depth: usize,
}

/// Transposition-table counters of a memoized search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoCounts {
    pub probes: u64,
    pub hits: u64,
    pub entries: u64,
}

/// A search's worst case plus its table counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    pub max_meeting_cost: Option<u64>,
    pub some_schedule_avoids: bool,
    pub leaves: u64,
    pub memo: Option<MemoCounts>,
}

/// Runs a [`Search`] with the options a caller gets by default plus the
/// family's automorphisms; `memo: false` gives the plain reference.
pub fn search(spec: &Search<'_>, memo: bool) -> SearchOutcome {
    let opts = SearchOptions {
        memo,
        automorphisms: Some(spec.automorphisms),
        ..SearchOptions::default()
    };
    let make = || {
        (0..2)
            .map(|i| {
                RvBehavior::new(
                    spec.g,
                    provider(),
                    NodeId(spec.starts[i]),
                    label(spec.labels[i]),
                )
            })
            .collect::<Vec<_>>()
    };
    let report = trace::span(Layer::MinimaxSearch, || {
        rv_sim::search_worst_case(spec.g, make, spec.depth, &opts)
    });
    SearchOutcome {
        max_meeting_cost: report.worst.max_meeting_cost,
        some_schedule_avoids: report.worst.some_schedule_avoids,
        leaves: report.worst.schedules_explored,
        memo: report.memo.map(|m| MemoCounts {
            probes: m.probes,
            hits: m.hits,
            entries: m.entries,
        }),
    }
}

/// The worker count `SearchOptions::default()` resolves to: the host's
/// available parallelism.
pub fn search_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rendezvous slice of the scenario matrix's cell table.
pub fn matrix_rendezvous_cells() -> Vec<CellSpec> {
    rv_bench::cells::cells()
        .into_iter()
        .filter(|c| matches!(c.kind, rv_bench::cells::CellKind::Rendezvous { .. }))
        .collect()
}

/// A matrix cell's scenario id.
pub fn cell_id(cell: &CellSpec) -> String {
    cell.scenario_id()
}

/// The cell's content key, as the matrix computes it.
pub fn cell_key(cell: &CellSpec, trials: usize) -> u64 {
    trace::span(Layer::CellsContentKey, || {
        cell.content_key(trials, cell.full_cutoff())
    })
}

/// The cell's graph.
pub fn cell_graph(cell: &CellSpec) -> Graph {
    trace::span(Layer::GraphGenerate, || cell.graph())
}

/// The run a rendezvous cell asks for, as the matrix runs it.
pub fn cell_rendezvous<'g>(cell: &CellSpec, g: &'g Graph) -> Rendezvous<'g> {
    let rv_bench::cells::CellKind::Rendezvous { variant, .. } = cell.kind else {
        panic!("{} is not a rendezvous cell", cell.scenario_id());
    };
    Rendezvous {
        g,
        starts: [0, g.order() / 2],
        labels: [rv_bench::cells::LABELS.0, rv_bench::cells::LABELS.1],
        variant,
        adversary: cell.adversary,
        adversary_seed: MATRIX_ADVERSARY_SEED,
        cutoff: cell.full_cutoff(),
    }
}

/// The content-addressed result store.
pub struct Store(rv_store::Store);

impl Store {
    /// Opens (or creates) the store in `dir`.
    pub fn open(dir: &std::path::Path) -> std::io::Result<Store> {
        trace::span(Layer::StoreOpen, || rv_store::Store::open(dir)).map(Store)
    }

    fn key(cell: u64) -> rv_store::StoreKey {
        rv_store::StoreKey {
            cell,
            engine: rv_store::ENGINE_FINGERPRINT,
        }
    }

    /// Appends `row` under the cell key.
    pub fn append(&mut self, cell: u64, row: &[u8]) -> std::io::Result<()> {
        trace::span(Layer::StoreAppend, || self.0.append(Self::key(cell), row))
    }

    /// The row stored under the cell key.
    pub fn get(&self, cell: u64) -> Option<&[u8]> {
        trace::span(Layer::StoreGet, || self.0.get(Self::key(cell)))
    }

    /// Bytes of torn tail the last open discarded.
    pub fn truncated_bytes(&self) -> usize {
        self.0.open_report().truncated_bytes
    }

    /// Size of the segment file on disk.
    pub fn segment_bytes(&self) -> std::io::Result<u64> {
        Ok(std::fs::metadata(self.0.segment_path())?.len())
    }
}

/// Times every behavior call the runtime makes.
struct Traced<B>(B);

impl<B: Behavior> Behavior for Traced<B> {
    type Info = B::Info;

    fn start_node(&self) -> NodeId {
        self.0.start_node()
    }

    fn next_port(&mut self) -> Option<PortId> {
        trace::leaf(Layer::BehaviorNextPort, || self.0.next_port())
    }

    fn info(&self) -> B::Info {
        trace::leaf(Layer::BehaviorInfo, || self.0.info())
    }

    fn on_meeting(&mut self, place: MeetingPlace, peers: &[B::Info]) {
        trace::leaf(Layer::BehaviorOnMeeting, || self.0.on_meeting(place, peers))
    }

    fn fork(&self) -> Self {
        Traced(self.0.fork())
    }

    // The stop policies read progress and the minimax table reads the
    // look-ahead: without these forwards the detectors would see a flat
    // metric and fire, and the traced run would measure another program.
    fn progress(&self) -> BehaviorProgress {
        self.0.progress()
    }

    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        self.0.future_ports(out, limit)
    }

    fn warm(&mut self) {
        self.0.warm()
    }
}

/// Times every adversary decision.
struct TracedAdversary<'a>(&'a mut dyn Adversary);

impl Adversary for TracedAdversary<'_> {
    fn choose(&mut self, choices: &[ChoiceInfo], tick: u64) -> Choice {
        trace::leaf(Layer::AdversaryChoose, || self.0.choose(choices, tick))
    }
}

/// Times every stop-policy check.
/// Delegates to a stop policy, ending a lap of the timed run at each
/// check (see [`crate::laps`]).
struct Lapped<'a>(&'a mut dyn StopPolicy);

impl StopPolicy for Lapped<'_> {
    fn cadence(&self) -> u64 {
        self.0.cadence()
    }

    fn check(&mut self, progress: &Progress) -> Option<RunEnd> {
        crate::laps::mark();
        self.0.check(progress)
    }
}

struct TracedPolicy<'a>(&'a mut dyn StopPolicy);

impl StopPolicy for TracedPolicy<'_> {
    fn cadence(&self) -> u64 {
        self.0.cadence()
    }

    fn check(&mut self, progress: &Progress) -> Option<RunEnd> {
        trace::leaf(Layer::StopCheck, || self.0.check(progress))
    }
}
