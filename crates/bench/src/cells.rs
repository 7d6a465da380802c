//! The declarative cell table behind `scenario_matrix` — **specs as pure
//! values**, separated from the runner that measures them.
//!
//! Every cell of the scenario matrix is a [`CellSpec`]: mode, graph
//! family, order, adversary, team size / algorithm variant / search
//! horizon, stop policy, seeds, and (for the chaos tier) a seeded fault
//! plan. The 454-row table is nothing but `cells()` — data produced by
//! iterating the sub-table axes — so consumers (the matrix runner, the
//! `--check` gate, the content-addressed store, tests) share one source
//! of truth instead of each re-deriving the cartesian product.
//!
//! A spec also knows its **canonical serialisation**
//! ([`CellSpec::canonical`]): a versioned, line-oriented rendering of
//! every knob that influences the measured result — including the run
//! configuration (trials, cutoff) and the fully-derived fault plan, not
//! just the seed that named it. [`CellSpec::content_key`] hashes that
//! rendering with [`rv_store::content_hash`], and the pair
//! `(content_key, rv_store::ENGINE_FINGERPRINT)` addresses the cell's
//! stored result: change *what* a cell asks and its key moves; change
//! *how the engine computes* and the fingerprint moves; change neither
//! and the stored row replays verbatim (see `docs/STORE.md`).
//!
//! Four sub-tables:
//!
//! * **Rendezvous** — family × order (8, 12, 16) × adversary × algorithm
//!   variant (the paper's algorithm plus the three F6 ablations).
//! * **Protocol (SGL)** — family × order (5, 6, 8) × adversary × team
//!   size k ∈ {2, 3, 4}, plus the ring large-order cells (12, 16) and
//!   one certificate-ablation cell (`+nocert`).
//! * **Chaos (seeded faults)** — SGL cells re-run under
//!   [`FaultPlan::seeded`] crash-stop plans: {ring, gnp} × order 6 ×
//!   {round-robin, greedy-avoid} × k = 3 × fault seed ∈ {1, 2, 3}. The
//!   derived plan participates in the cell's content key, so two seeds
//!   are two cells.
//! * **Minimax** — the memoized symmetry-quotiented worst-case searches.

use rv_core::RvVariant;
use rv_graph::GraphFamily;
use rv_sim::adversary::AdversaryKind;
use rv_sim::{FaultPlan, FaultProfile};

/// Graph families swept, with their scenario-id stem.
pub const FAMILIES: [(GraphFamily, &str); 5] = [
    (GraphFamily::Ring, "ring"),
    (GraphFamily::Path, "path"),
    (GraphFamily::RandomTree, "tree"),
    (GraphFamily::Gnp, "gnp"),
    (GraphFamily::Lollipop, "lollipop"),
];

/// Graph orders swept by the rendezvous cells.
pub const SIZES: [usize; 3] = [8, 12, 16];

/// Graph orders swept by the regular protocol (SGL) cells — the range
/// `expt_f4_sgl` sweeps (quiescence cost grows with the ESST order bound
/// cubed).
pub const PROTOCOL_SIZES: [usize; 3] = [5, 6, 8];

/// SGL team sizes swept by the regular protocol cells.
pub const TEAM_SIZES: [usize; 3] = [2, 3, 4];

/// Orders of the large protocol cells (the rendezvous orders, unlocked by
/// the adaptive policy).
pub const LARGE_PROTOCOL_SIZES: [usize; 2] = [12, 16];

/// Team sizes of the large protocol cells.
pub const LARGE_TEAM_SIZES: [usize; 2] = [2, 3];

/// Adversaries swept (a spread from cooperative to strongest-avoiding;
/// seeded strategies use [`ADVERSARY_SEED`]).
pub const ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::RoundRobin,
    AdversaryKind::LazySecond,
    AdversaryKind::GreedyAvoid,
    AdversaryKind::EagerMeet,
];

/// Adversaries of the large protocol cells. `lazy(1)` used to stay out —
/// its adversarially pinned final ESST phase burned tens of millions of
/// traversals — but the suspended-token certificate retires those cells
/// certified-quiescent under a million traversals, so the axis is now
/// the full protocol spread minus none (see `docs/STALL_TRACE.md`).
pub const LARGE_ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::RoundRobin,
    AdversaryKind::LazySecond,
    AdversaryKind::GreedyAvoid,
    AdversaryKind::EagerMeet,
];

/// Families of the chaos (seeded-fault) tier: one sparse canonical family
/// and one seeded irregular one.
pub const CHAOS_FAMILIES: [(GraphFamily, &str); 2] =
    [(GraphFamily::Ring, "ring"), (GraphFamily::Gnp, "gnp")];

/// Graph order of the chaos tier — small enough that a crash-free run
/// quiesces well under the protocol cutoff, so every non-quiescing end is
/// attributable to the injected faults.
pub const CHAOS_ORDER: usize = 6;

/// Adversaries of the chaos tier (one cooperative, one avoiding).
pub const CHAOS_ADVERSARIES: [AdversaryKind; 2] =
    [AdversaryKind::RoundRobin, AdversaryKind::GreedyAvoid];

/// Team size of the chaos tier: k = 3, so one crash-stop fault leaves a
/// two-agent majority alive.
pub const CHAOS_TEAM: usize = 3;

/// Fault seeds of the chaos tier — each names a distinct derived
/// [`FaultPlan`] (and therefore a distinct cell).
pub const CHAOS_FAULT_SEEDS: [u64; 3] = [1, 2, 3];

/// Fixed graph seed (matches the golden suite's instances).
pub const GRAPH_SEED: u64 = 5;
/// Fixed adversary seed for the seeded strategies.
pub const ADVERSARY_SEED: u64 = 3;
/// Rendezvous budget backstop: generous for every converging cell; the
/// divergence detector retires diverging cells ~20× earlier.
pub const CUTOFF: u64 = 100_000;
/// Protocol budget backstop, full mode, regular orders: above every known
/// quiescence cost there, so `Cutoff` rows flag genuine surprises (the
/// known non-quiescers read `Stalled` long before).
pub const PROTOCOL_CUTOFF: u64 = 2_500_000;
/// Protocol budget backstop for the large-order cells. Generous on
/// purpose: ring(16) needed ≈ 17.8M traversals before the suspended-token
/// certificate (every large cell now retires certified-quiescent under
/// a million), and the headroom keeps `Cutoff` rows meaning "genuine
/// surprise" if a certificate regresses.
pub const LARGE_PROTOCOL_CUTOFF: u64 = 50_000_000;
/// Protocol cutoff under `--smoke`: bounds the CI gate's wall-clock (the
/// gate checks schema and coverage; protocol smoke rows all read
/// `end == "Cutoff"` by design and record this cutoff in the row).
pub const PROTOCOL_SMOKE_CUTOFF: u64 = 40_000;
/// Rendezvous agent labels, as in the F1 experiments and the golden suite.
pub const LABELS: (u64, u64) = (6, 9);
/// SGL labels by agent index (protocol cells take the first k).
pub const SGL_LABELS: [u64; 4] = [6, 9, 14, 21];

/// Minimax cells: `(family, stem, order, horizon)` — the memoized
/// symmetry-quotiented worst-case searches (the `perf_baseline` minimax
/// scenarios plus the depth-14 headline). Small instances only: each cell
/// enumerates a full schedule DAG.
pub const MINIMAX_CELLS: [(GraphFamily, &str, usize, usize); 5] = [
    (GraphFamily::Path, "path", 3, 10),
    (GraphFamily::Path, "path", 3, 12),
    (GraphFamily::Ring, "ring", 4, 8),
    (GraphFamily::Ring, "ring", 4, 12),
    (GraphFamily::Ring, "ring", 4, 14),
];

/// Algorithm variants swept: the paper's algorithm plus the three F6
/// ablations (each disables one ingredient §3.1 argues is necessary).
pub fn variants() -> [(&'static str, RvVariant); 4] {
    let paper = RvVariant::default();
    [
        ("paper", paper),
        (
            "single-atoms",
            RvVariant {
                doubled_atoms: false,
                ..paper
            },
        ),
        (
            "unscaled",
            RvVariant {
                scaled_params: false,
                ..paper
            },
        ),
        (
            "raw-label",
            RvVariant {
                modified_label: false,
                ..paper
            },
        ),
    ]
}

/// The fault-plan shape of the chaos tier: exactly one crash-stop fault
/// in the first 2000 actions (well inside every chaos cell's run), no
/// outages, no log losses. Graph-independent on purpose: the profile
/// must not depend on the instance, or the plan would stop being a pure
/// function of `(seed, k)`.
pub fn chaos_fault_profile(k: usize) -> FaultProfile {
    FaultProfile {
        horizon_actions: 2000,
        agents: k,
        edges: 1,
        crashes: 1,
        outages: 0,
        max_outage_actions: 1,
        log_losses: 0,
    }
}

/// What a cell measures (the family × adversary axes are shared).
#[derive(Clone, Copy, Debug)]
pub enum CellKind {
    /// Two agents, stop at the first meeting, divergence detector.
    Rendezvous {
        /// Variant name (the `variant` column).
        vname: &'static str,
        /// Algorithm-variant flags the agents run with.
        variant: RvVariant,
    },
    /// k SGL agents run to quiescence, adaptive stall detector. A
    /// `fault_seed` puts the cell in the chaos tier: the runtime runs
    /// under the [`FaultPlan::seeded`] plan that seed derives.
    Sgl {
        /// Team size.
        k: usize,
        /// Chaos-tier fault seed (`None` = fault-free cell).
        fault_seed: Option<u64>,
        /// Whether the explorer's suspended-token census is armed (the
        /// engine default). `false` only on the ablation cell, which
        /// keeps the certificate-free behavior of a suspension cell
        /// measured in the matrix (scenario id suffix `+nocert`).
        certify: bool,
    },
    /// Memoized worst-case search to an action horizon (no adversary
    /// axis: the search quantifies over all of them).
    Minimax {
        /// Action horizon the search enumerates to.
        depth: usize,
    },
}

/// One declared cell of the scenario matrix — a pure value; running it is
/// the consumer's job.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Graph family of the instance.
    pub family: GraphFamily,
    /// Scenario-id stem of the family.
    pub fname: &'static str,
    /// Graph order requested.
    pub n: usize,
    /// Adversary (unused by minimax cells, which quantify over all;
    /// `RoundRobin` is the placeholder there).
    pub adversary: AdversaryKind,
    /// What the cell measures.
    pub kind: CellKind,
}

impl CellSpec {
    /// The cell's scenario id, `family<n>/adversary/variant` — the
    /// human-readable key of a row (`--only` filters on it; the row's
    /// `scenario` column carries it). Chaos cells append `+f<seed>` to the
    /// variant; the certificate ablation cell appends `+nocert`.
    pub fn scenario_id(&self) -> String {
        let (fname, n, adversary) = (self.fname, self.n, self.adversary);
        match self.kind {
            CellKind::Rendezvous { vname, .. } => format!("{fname}{n}/{adversary}/{vname}"),
            CellKind::Sgl {
                k,
                fault_seed,
                certify,
            } => {
                let mut id = format!("{fname}{n}/{adversary}/sgl-k{k}");
                if let Some(seed) = fault_seed {
                    id.push_str(&format!("+f{seed}"));
                }
                if !certify {
                    id.push_str("+nocert");
                }
                id
            }
            CellKind::Minimax { depth } => format!("{fname}{n}/worst-case/memo-d{depth}"),
        }
    }

    /// The `mode` column.
    pub fn mode(&self) -> &'static str {
        match self.kind {
            CellKind::Rendezvous { .. } => "rendezvous",
            CellKind::Sgl { .. } => "protocol",
            CellKind::Minimax { .. } => "minimax",
        }
    }

    /// The `policy` column (the stop policy the consumer must run the
    /// cell under).
    pub fn policy(&self) -> &'static str {
        match self.kind {
            CellKind::Rendezvous { .. } => "divergence",
            CellKind::Sgl { .. } => "adaptive",
            CellKind::Minimax { .. } => "exhaustive",
        }
    }

    /// The `agents` column (2, or the SGL team size).
    pub fn agents(&self) -> usize {
        match self.kind {
            CellKind::Rendezvous { .. } | CellKind::Minimax { .. } => 2,
            CellKind::Sgl { k, .. } => k,
        }
    }

    /// The `adversary` column (minimax cells read `worst-case`: the
    /// search quantifies over every adversary, so the axis value names
    /// the quantifier, not a strategy).
    pub fn adversary_name(&self) -> String {
        match self.kind {
            CellKind::Minimax { .. } => "worst-case".to_string(),
            _ => self.adversary.to_string(),
        }
    }

    /// The `variant` column.
    pub fn variant_name(&self) -> String {
        match self.kind {
            CellKind::Rendezvous { vname, .. } => vname.to_string(),
            CellKind::Sgl { k, .. } => format!("sgl-k{k}"),
            CellKind::Minimax { depth } => format!("memo-d{depth}"),
        }
    }

    /// The `faults` column: `"none"`, or `"seeded:<seed>"` for chaos
    /// cells (the seed names the whole derived plan — see
    /// [`CellSpec::fault_plan`]).
    pub fn fault_label(&self) -> String {
        match self.kind {
            CellKind::Sgl {
                fault_seed: Some(seed),
                ..
            } => format!("seeded:{seed}"),
            _ => "none".to_string(),
        }
    }

    /// Whether the cell's SGL agents arm the suspended-token census
    /// (true everywhere except the `+nocert` ablation cell; vacuously
    /// true off the protocol sub-tables).
    pub fn certify(&self) -> bool {
        !matches!(self.kind, CellKind::Sgl { certify: false, .. })
    }

    /// The fully-derived fault plan of a chaos cell (`None` off the chaos
    /// tier). A pure function of the spec: seed and team size alone.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match self.kind {
            CellKind::Sgl {
                k,
                fault_seed: Some(seed),
                ..
            } => Some(FaultPlan::seeded(seed, &chaos_fault_profile(k))),
            _ => None,
        }
    }

    /// The traversal budget backstop of the cell (full mode). Minimax
    /// cells have no traversal cutoff; their budget is the action horizon.
    pub fn full_cutoff(&self) -> u64 {
        match self.kind {
            CellKind::Rendezvous { .. } => CUTOFF,
            CellKind::Sgl { .. } if self.n > 8 => LARGE_PROTOCOL_CUTOFF,
            CellKind::Sgl { .. } => PROTOCOL_CUTOFF,
            CellKind::Minimax { depth } => depth as u64,
        }
    }

    /// The cutoff the cell runs under in the given mode (`--smoke` caps
    /// protocol cells; everything else keeps its full budget).
    pub fn cutoff(&self, smoke: bool) -> u64 {
        if smoke && matches!(self.kind, CellKind::Sgl { .. }) {
            PROTOCOL_SMOKE_CUTOFF
        } else {
            self.full_cutoff()
        }
    }

    /// The graph instance the cell runs on. Minimax cells use the raw
    /// generators: `GraphFamily::generate` floors the order at 4, and the
    /// path(3) reference instance sits below it.
    pub fn graph(&self) -> rv_graph::Graph {
        match self.kind {
            CellKind::Minimax { .. } => match self.family {
                GraphFamily::Path => rv_graph::generators::path(self.n),
                _ => rv_graph::generators::ring(self.n),
            },
            _ => self.family.generate(self.n, GRAPH_SEED),
        }
    }

    /// The canonical serialisation of the cell under a run configuration
    /// — the preimage of [`CellSpec::content_key`]. Versioned (`v1`
    /// header), line-oriented, and exhaustive over everything that can
    /// change the measured row short of the engine itself: identity axes,
    /// stop policy, seeds, agent labels, trials, cutoff, variant flags,
    /// and the **derived** fault plan (not just its seed, so a change to
    /// the derivation or profile moves the key honestly).
    pub fn canonical(&self, trials: usize, cutoff: u64) -> String {
        let mut out = String::from("rv-cell-v1\n");
        out.push_str(&format!("scenario={}\n", self.scenario_id()));
        out.push_str(&format!("mode={}\n", self.mode()));
        out.push_str(&format!("policy={}\n", self.policy()));
        out.push_str(&format!("graph_seed={GRAPH_SEED}\n"));
        out.push_str(&format!("adversary_seed={ADVERSARY_SEED}\n"));
        match self.kind {
            CellKind::Rendezvous { variant, .. } => {
                out.push_str(&format!("labels={},{}\n", LABELS.0, LABELS.1));
                out.push_str(&format!(
                    "variant_flags=doubled_atoms:{},scaled_params:{},modified_label:{}\n",
                    variant.doubled_atoms, variant.scaled_params, variant.modified_label
                ));
            }
            CellKind::Sgl { k, certify, .. } => {
                let labels: Vec<String> = SGL_LABELS[..k].iter().map(|l| l.to_string()).collect();
                out.push_str(&format!("labels={}\n", labels.join(",")));
                // The suspension policy is part of what the cell asks:
                // the derived thresholds are spelled out (not just a
                // flag), so retuning the engine default moves the key.
                match if certify {
                    rv_protocols::SglConfig::default().suspension
                } else {
                    None
                } {
                    Some(p) => out.push_str(&format!(
                        "suspension=sightings:{},span:{}\n",
                        p.min_sightings, p.min_span
                    )),
                    None => out.push_str("suspension=none\n"),
                }
            }
            CellKind::Minimax { .. } => {
                out.push_str("labels=1,2\n");
            }
        }
        let faults = match self.fault_plan() {
            Some(plan) => serde_json::to_string(&plan).expect("fault plans serialise"),
            None => "none".to_string(),
        };
        out.push_str(&format!("faults={faults}\n"));
        out.push_str(&format!("trials={trials}\n"));
        out.push_str(&format!("cutoff={cutoff}\n"));
        out
    }

    /// The cell's content key under a run configuration: the
    /// [`rv_store::content_hash`] of [`CellSpec::canonical`]. Together
    /// with [`rv_store::ENGINE_FINGERPRINT`] this addresses the cell's
    /// stored result.
    pub fn content_key(&self, trials: usize, cutoff: u64) -> u64 {
        rv_store::content_hash(self.canonical(trials, cutoff).as_bytes())
    }
}

/// Every declared cell, in emission order: rendezvous and regular
/// protocol cells interleaved per family, then the ring large-order
/// protocol cells, then the chaos tier, then the minimax cells.
pub fn cells() -> Vec<CellSpec> {
    let mut out = Vec::with_capacity(cell_count());
    for (family, fname) in FAMILIES {
        for n in SIZES {
            for adversary in ADVERSARIES {
                for (vname, variant) in variants() {
                    out.push(CellSpec {
                        family,
                        fname,
                        n,
                        adversary,
                        kind: CellKind::Rendezvous { vname, variant },
                    });
                }
            }
        }
        for n in PROTOCOL_SIZES {
            for adversary in ADVERSARIES {
                for k in TEAM_SIZES {
                    out.push(CellSpec {
                        family,
                        fname,
                        n,
                        adversary,
                        kind: CellKind::Sgl {
                            k,
                            fault_seed: None,
                            certify: true,
                        },
                    });
                }
            }
        }
    }
    for n in LARGE_PROTOCOL_SIZES {
        for adversary in LARGE_ADVERSARIES {
            for k in LARGE_TEAM_SIZES {
                out.push(CellSpec {
                    family: GraphFamily::Ring,
                    fname: "ring",
                    n,
                    adversary,
                    kind: CellKind::Sgl {
                        k,
                        fault_seed: None,
                        certify: true,
                    },
                });
            }
        }
    }
    // The certificate ablation cell: one former outlier re-run with the
    // suspended-token census disarmed — the matrix keeps a measured
    // `Stalled` row (and its structural suspension evidence) so the
    // certificate's effect stays visible as a same-table comparison.
    out.push(CellSpec {
        family: GraphFamily::Gnp,
        fname: "gnp",
        n: 8,
        adversary: AdversaryKind::GreedyAvoid,
        kind: CellKind::Sgl {
            k: 4,
            fault_seed: None,
            certify: false,
        },
    });
    for (family, fname) in CHAOS_FAMILIES {
        for adversary in CHAOS_ADVERSARIES {
            for seed in CHAOS_FAULT_SEEDS {
                out.push(CellSpec {
                    family,
                    fname,
                    n: CHAOS_ORDER,
                    adversary,
                    kind: CellKind::Sgl {
                        k: CHAOS_TEAM,
                        fault_seed: Some(seed),
                        certify: true,
                    },
                });
            }
        }
    }
    for (family, fname, n, depth) in MINIMAX_CELLS {
        out.push(CellSpec {
            family,
            fname,
            n,
            adversary: AdversaryKind::RoundRobin,
            kind: CellKind::Minimax { depth },
        });
    }
    out
}

/// Number of cells in the declared matrix (the `+ 1` is the certificate
/// ablation cell).
pub fn cell_count() -> usize {
    let rendezvous = FAMILIES.len() * SIZES.len() * ADVERSARIES.len() * variants().len();
    let protocol = FAMILIES.len() * PROTOCOL_SIZES.len() * ADVERSARIES.len() * TEAM_SIZES.len();
    let large = LARGE_PROTOCOL_SIZES.len() * LARGE_ADVERSARIES.len() * LARGE_TEAM_SIZES.len();
    let chaos = CHAOS_FAMILIES.len() * CHAOS_ADVERSARIES.len() * CHAOS_FAULT_SEEDS.len();
    rendezvous + protocol + large + 1 + chaos + MINIMAX_CELLS.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declared_matrix_has_454_cells_and_unique_scenario_ids() {
        let all = cells();
        assert_eq!(all.len(), cell_count());
        assert_eq!(all.len(), 454, "240 rendezvous + 209 protocol + 5 minimax");
        let mut ids: Vec<String> = all.iter().map(|c| c.scenario_id()).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total, "scenario ids must be unique");
        // The ablation cell is declared exactly once, certificate-free,
        // and distinguishable both by id and by content key.
        let ablations: Vec<&CellSpec> = all.iter().filter(|c| !c.certify()).collect();
        assert_eq!(ablations.len(), 1, "exactly one +nocert ablation cell");
        let ab = ablations[0];
        assert_eq!(ab.scenario_id(), "gnp8/greedy-avoid/sgl-k4+nocert");
        let twin = all
            .iter()
            .find(|c| c.scenario_id() == "gnp8/greedy-avoid/sgl-k4")
            .expect("the certified twin is declared");
        assert_ne!(
            ab.content_key(5, ab.cutoff(false)),
            twin.content_key(5, twin.cutoff(false)),
            "the suspension line must separate the ablation from its twin"
        );
        // The certificate unlocked the large lazy(1) cells: declared now.
        for id in ["ring12/lazy(1)/sgl-k2", "ring16/lazy(1)/sgl-k3"] {
            assert!(
                all.iter().any(|c| c.scenario_id() == id),
                "{id} must be a declared cell"
            );
        }
    }

    #[test]
    fn content_keys_separate_every_cell_and_every_configuration() {
        // Distinct cells must never collide under either run mode — a
        // collision would silently serve one cell's stored row as
        // another's.
        for smoke in [false, true] {
            let mut keys: Vec<u64> = cells()
                .iter()
                .map(|c| c.content_key(if smoke { 1 } else { 5 }, c.cutoff(smoke)))
                .collect();
            let total = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), total, "content keys must be unique");
        }
        // And the run configuration is part of the key: smoke rows
        // (1 trial, capped cutoff) must not alias full rows.
        let cell = &cells()[0];
        assert_ne!(
            cell.content_key(1, cell.cutoff(true)),
            cell.content_key(5, cell.cutoff(false)),
            "trials and cutoff participate in the key"
        );
    }

    #[test]
    fn chaos_cells_carry_derived_crash_plans_keyed_by_seed() {
        let chaos: Vec<CellSpec> = cells()
            .into_iter()
            .filter(|c| {
                matches!(
                    c.kind,
                    CellKind::Sgl {
                        fault_seed: Some(_),
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(chaos.len(), 12, "the chaos tier is 2×2×3 cells");
        for cell in &chaos {
            let plan = cell.fault_plan().expect("chaos cells derive a plan");
            assert_eq!(plan.crashes.len(), 1, "exactly one crash-stop fault");
            assert!(plan.outages.is_empty() && plan.log_losses.is_empty());
            assert!(
                plan.crashes[0].at_action <= 2000,
                "the crash lands inside the profile horizon"
            );
            assert!(cell.fault_label().starts_with("seeded:"));
            assert!(cell.scenario_id().contains("+f"));
        }
        // Same axes, different seed → different plan and different key.
        assert_ne!(chaos[0].fault_plan(), chaos[1].fault_plan());
        assert_ne!(
            chaos[0].content_key(5, chaos[0].cutoff(false)),
            chaos[1].content_key(5, chaos[1].cutoff(false))
        );
        // Fault-free cells have no plan and say so in the column.
        let clean = cells()[0];
        assert!(clean.fault_plan().is_none());
        assert_eq!(clean.fault_label(), "none");
    }

    #[test]
    fn canonical_serialisation_is_versioned_and_exhaustive() {
        let cell = &cells()[0];
        let c = cell.canonical(5, cell.cutoff(false));
        assert!(c.starts_with("rv-cell-v1\n"), "the preimage is versioned");
        for field in [
            "scenario=",
            "mode=",
            "policy=",
            "graph_seed=",
            "adversary_seed=",
            "labels=",
            "variant_flags=",
            "faults=",
            "trials=",
            "cutoff=",
        ] {
            assert!(c.contains(field), "canonical form must record {field}");
        }
        // A chaos cell's canonical form embeds the derived plan, not just
        // the seed that named it.
        let chaos = cells()
            .into_iter()
            .find(|c| c.fault_plan().is_some())
            .expect("chaos tier exists");
        assert!(chaos
            .canonical(5, chaos.cutoff(false))
            .contains("\"crashes\":[{\"at_action\":"));
    }
}
