//! Exhaustive worst-case scheduling for *tiny* horizons.
//!
//! The simulator's adversaries are heuristics; this module computes the
//! **true** worst case — the schedule maximising the cost of the first
//! forced meeting — by exhaustive search over adversary choices, up to an
//! action-depth cap. Exponential in the cap (branching = number of legal
//! actions), so only usable for small instances; it is the calibration
//! reference for experiment F5.
//!
//! # One sequential walk
//!
//! The agents are instantiated **once** (the factory is `FnOnce`), and a
//! single depth-first walk visits the schedule tree from the root. There
//! is no worker pool: the transposition table below already collapses the
//! interleavings that differ only by commuting independent moves, so a
//! parallel frontier finds almost nothing left to split, and on measured
//! hosts it lost to one thread at every size (see `docs/MINIMAX.md`).
//!
//! Two walks share the entry point. The default, `explore_memo`, brackets
//! every descent with `Runtime::apply_undoable`/`Runtime::undo` and
//! consults the table at every interior node. With
//! [`SearchOptions::memo`] off, `explore_subtree` enumerates every
//! schedule plainly, re-entering siblings from [`Runtime::snapshot`]s
//! (the last sibling takes its snapshot by move and pays no fork) — the
//! reference the memoized walk is tested bit-identical against.
//!
//! # Transposition table over canonical fingerprints
//!
//! The schedule tree is really a DAG — distinct prefixes reach identical
//! states — and on symmetric families whole subtrees are automorphism
//! images of each other. By default the walk probes a transposition
//! table keyed by the canonical state fingerprint of `crate::memo`: a hit
//! substitutes the memoized subtree value (kept bit-identical to
//! enumeration, including the leaf count), and a miss searches the
//! subtree and then inserts its value. Memoized values are stored
//! relative to the subtree root's traversal total, which is what lets one
//! entry serve every equivalent state wherever it appears in the tree.
//! Behaviors that cannot preview their future ([`Behavior::future_ports`])
//! silently degrade the search to the plain enumeration. Quotienting by a
//! real symmetry group is opt-in via [`SearchOptions::automorphisms`] —
//! pass `GraphFamily::automorphisms(&g)` to fold automorphic states
//! together.

use crate::behavior::Behavior;
use crate::memo::{Fingerprinter, FutureTable, MemoStats, MemoTable, MemoValue};
use crate::runtime::{ChoiceInfo, RunConfig, Runtime, RuntimeSnapshot};
use rv_graph::{Automorphisms, Graph};

/// Result of an exhaustive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorstCase {
    /// Highest meeting cost over all schedules that meet within the depth
    /// cap (`None` if no schedule meets within the cap).
    pub max_meeting_cost: Option<u64>,
    /// Whether some schedule within the cap avoids any meeting entirely.
    pub some_schedule_avoids: bool,
    /// Number of schedules (leaves) explored.
    pub schedules_explored: u64,
}

impl WorstCase {
    fn empty() -> Self {
        WorstCase {
            max_meeting_cost: None,
            some_schedule_avoids: false,
            schedules_explored: 0,
        }
    }

    fn record_meeting(&mut self, cost: u64) {
        self.schedules_explored += 1;
        self.max_meeting_cost = Some(self.max_meeting_cost.map_or(cost, |m| m.max(cost)));
    }

    fn record_avoidance(&mut self) {
        self.schedules_explored += 1;
        self.some_schedule_avoids = true;
    }

    /// The absolute worst case of a memoized search whose root sat at
    /// `base` total traversals: `max`/`sum`/`or` all commute with the
    /// constant offset, so this is exactly what plain enumeration of the
    /// same tree produces.
    fn from_value(v: MemoValue, base: u64) -> Self {
        WorstCase {
            max_meeting_cost: v.max_delta.map(|d| base + d),
            some_schedule_avoids: v.avoids,
            schedules_explored: v.leaves,
        }
    }
}

/// Knobs for [`search_worst_case`]. `Default` is the production
/// configuration: transposition table on, identity symmetry group.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions<'a> {
    /// Consult the transposition table (`false` forces plain enumeration —
    /// the reference the memoized search is tested bit-identical against).
    pub memo: bool,
    /// Symmetry group to quotient fingerprints by; `None` means identity
    /// only (always sound). Pass the graph's verified group from
    /// [`rv_graph::GraphFamily::automorphisms`] for symmetric families.
    pub automorphisms: Option<&'a Automorphisms>,
}

impl Default for SearchOptions<'_> {
    fn default() -> Self {
        SearchOptions {
            memo: true,
            automorphisms: None,
        }
    }
}

/// A search result plus table instrumentation.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The worst case — bit-identical for every [`SearchOptions`]
    /// configuration.
    pub worst: WorstCase,
    /// Transposition-table statistics (`None` when the table was off).
    pub memo: Option<MemoStats>,
}

/// Exhaustively explores every adversary schedule of at most `max_actions`
/// actions over the agents produced by `make_behaviors` — which is called
/// exactly once, before the search starts; all further state reuse is
/// apply/undo or snapshot/restore ([`Behavior::fork`]), never
/// re-instantiation.
pub fn exhaustive_worst_case<B, F>(g: &Graph, make_behaviors: F, max_actions: usize) -> WorstCase
where
    B: Behavior,
    F: FnOnce() -> Vec<B>,
{
    search_worst_case(g, make_behaviors, max_actions, &SearchOptions::default()).worst
}

/// [`exhaustive_worst_case`] with explicit control over the transposition
/// table and the symmetry quotient, reporting table statistics alongside
/// the (configuration-independent) result.
pub fn search_worst_case<B, F>(
    g: &Graph,
    make_behaviors: F,
    max_actions: usize,
    opts: &SearchOptions<'_>,
) -> SearchReport
where
    B: Behavior,
    F: FnOnce() -> Vec<B>,
{
    let mut rt = Runtime::new(g, make_behaviors(), RunConfig::rendezvous());
    // Materialise each behavior's lazy first-move state before the search:
    // every branch forks or undoes back to this state, so cold-start work
    // done here is paid once instead of once per branch. Commutes with the
    // port stream (see `Behavior::warm`).
    rt.warm_behaviors();
    if opts.memo {
        // Behaviors are deterministic and meetings are terminal, so every
        // agent's arrival sequence is fixed for the whole search: resolve
        // it once here (no behavior forks on the fingerprint path).
        let futures = FutureTable::resolve(&rt, max_actions);
        if futures.is_supported() {
            let identity;
            let autos = match opts.automorphisms {
                Some(a) => a,
                None => {
                    identity = Automorphisms::identity(g.order());
                    &identity
                }
            };
            let t_root = rt.total_traversals();
            let mut walk = MemoWalk {
                table: MemoTable::new(),
                autos,
                futures: &futures,
                fpr: Fingerprinter::new(),
                pool: Vec::new(),
                max_actions,
            };
            let v = explore_memo(&mut rt, 0, &mut walk);
            return SearchReport {
                worst: WorstCase::from_value(v, t_root),
                memo: Some(walk.table.stats()),
            };
        }
    }
    let mut worst = WorstCase::empty();
    explore_subtree(&mut rt, max_actions, &mut worst);
    // A memoized search whose behaviors cannot preview their futures
    // degrades to plain enumeration and reports an untouched table.
    SearchReport {
        worst,
        memo: opts.memo.then(MemoStats::default),
    }
}

/// Below this residual depth the table is not consulted: the subtree is
/// cheaper to enumerate than the canonical fingerprint is to compute.
const MEMO_MIN_RESIDUAL: usize = 2;

/// Everything the memoized walk carries down the recursion unchanged: the
/// table, the fingerprint inputs, and the reusable buffers.
struct MemoWalk<'a> {
    table: MemoTable,
    /// The symmetry group fingerprints are canonicalized under.
    autos: &'a Automorphisms,
    /// The search-global future table, resolved once at the root.
    futures: &'a FutureTable,
    fpr: Fingerprinter,
    /// One choice buffer per tree depth, reused across siblings.
    pool: Vec<Vec<ChoiceInfo>>,
    max_actions: usize,
}

/// Depth-first memoized search of the subtree whose root state `rt` is
/// **already positioned at** (schedule-tree depth `depth`), returning the
/// subtree's value *relative to its own root* (see [`MemoValue`]). The
/// recursion depth is bounded by `max_actions` (tiny by this module's
/// charter), and each depth owns a pooled choice buffer (`pool[depth]`).
///
/// At every node with residual depth ≥ [`MEMO_MIN_RESIDUAL`] the table is
/// probed first: a hit returns the stored value; a miss searches the
/// subtree and inserts its value on the way out. Residual depth strictly
/// decreases along a descent, so a key can never be probed again while
/// its own subtree is still being searched.
fn explore_memo<B: Behavior>(
    rt: &mut Runtime<'_, B>,
    depth: usize,
    walk: &mut MemoWalk<'_>,
) -> MemoValue {
    let max_actions = walk.max_actions;
    if depth >= max_actions {
        return MemoValue::avoid_leaf();
    }
    let residual = max_actions - depth;
    let mut key = None;
    if residual >= MEMO_MIN_RESIDUAL {
        if let Some(fp) = walk.fpr.fingerprint(rt, residual, walk.autos, walk.futures) {
            let k = (fp, residual as u32);
            if let Some(v) = walk.table.probe(k) {
                return v;
            }
            key = Some(k);
        }
    }
    if walk.pool.len() <= depth {
        walk.pool.push(Vec::new());
    }
    let mut choices = std::mem::take(&mut walk.pool[depth]);
    rt.legal_choices_into(&mut choices);
    let value = if choices.is_empty() {
        // All parked counts as an avoiding schedule.
        MemoValue::avoid_leaf()
    } else {
        // Undo discipline: every descent is bracketed by
        // [`Runtime::apply_undoable`]/[`Runtime::undo`], so this function
        // returns with `rt` exactly as it entered — no snapshots, no
        // whole-runtime forks, and a `Start` descent saves nothing but a
        // few `Copy` fields. The bracket requires meeting-free applies:
        // children annotated `causes_meeting` are terminal (record the
        // foreseen delta directly, never enter them), and `Wake` — the one
        // unannotated kind — is split by [`Runtime::wake_would_meet`] into
        // a traversal-free meeting leaf or a real descent.
        let t_node = rt.total_traversals();
        let horizon = depth + 1 == max_actions;
        let mut acc = MemoValue::empty();
        for info in choices.iter() {
            if info.causes_meeting {
                let delta = matches!(info.choice.kind, crate::ActionKind::Finish) as u64;
                acc.record_meeting_delta(delta);
                continue;
            }
            if matches!(info.choice.kind, crate::ActionKind::Wake)
                && rt.wake_would_meet(info.choice.agent)
            {
                // Waking at an occupied node meets on the spot — no
                // traversal completes, so the delta is zero.
                acc.record_meeting_delta(0);
                continue;
            }
            if horizon {
                // The child sits at the depth cap and every meeting case
                // is handled above: a guaranteed meeting-free leaf,
                // counted without touching the runtime.
                acc.absorb(MemoValue::avoid_leaf(), 0);
                continue;
            }
            let token = rt.apply_undoable(info.choice);
            let t_child = rt.total_traversals();
            let child = explore_memo(rt, depth + 1, walk);
            acc.absorb(child, t_child - t_node);
            rt.undo(token);
        }
        acc
    };
    walk.pool[depth] = choices;
    if let Some(k) = key {
        walk.table.insert(k, value);
    }
    value
}

/// A node of the depth-first descent: its frozen state (absent when the
/// node has a single child — nothing will ever re-enter it) and the
/// sibling iteration cursor.
struct Frame<B> {
    snap: Option<RuntimeSnapshot<B>>,
    next: usize,
    width: usize,
}

/// Plain depth-first enumeration of every schedule below the search root
/// `rt` is positioned at. Scores every leaf into `result`; on exit `rt`
/// is at an arbitrary state within the tree.
fn explore_subtree<B: Behavior>(rt: &mut Runtime<B>, max_actions: usize, result: &mut WorstCase) {
    let mut stack: Vec<Frame<B>> = Vec::new();
    let mut choices: Vec<ChoiceInfo> = Vec::new();
    loop {
        // `rt` sits at a just-entered, meeting-free node.
        let depth = stack.len();
        let mut is_leaf = true;
        if depth < max_actions {
            rt.legal_choices_into(&mut choices);
            if !choices.is_empty() {
                let width = choices.len();
                stack.push(Frame {
                    // Single-child nodes are never re-entered: skip the fork.
                    snap: (width > 1).then(|| rt.snapshot()),
                    next: 0,
                    width,
                });
                is_leaf = false;
            }
        }
        if is_leaf {
            // Depth cap or all parked: an avoiding schedule exists.
            result.record_avoidance();
        }
        // Advance to the next unexplored child anywhere up the stack.
        loop {
            let Some(frame) = stack.last_mut() else {
                return;
            };
            if frame.next >= frame.width {
                stack.pop();
                continue;
            }
            let i = frame.next;
            frame.next += 1;
            if i > 0 {
                // Re-enter the frame's node. The final sibling takes the
                // snapshot by move — no behavior fork.
                if i + 1 == frame.width {
                    let snap = frame.snap.take().expect("width > 1 frames hold a snapshot");
                    rt.restore_owned(snap);
                } else {
                    rt.restore(
                        frame
                            .snap
                            .as_ref()
                            .expect("width > 1 frames hold a snapshot"),
                    );
                }
                rt.legal_choices_into(&mut choices);
            }
            if rt.apply_into(choices[i].choice) == 0 {
                break; // descend: the outer loop enters the child
            }
            result.record_meeting(rt.total_traversals());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScriptBehavior;
    use rv_graph::{generators, Graph, NodeId};

    #[test]
    fn two_node_path_forces_meeting_on_every_schedule() {
        // Both agents must cross the single edge: every schedule meets.
        let g = generators::path(2);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(NodeId(0), [0]),
                    ScriptBehavior::new(NodeId(1), [0]),
                ]
            },
            10,
        );
        assert!(!res.some_schedule_avoids, "path(2) leaves no escape");
        // Worst case: one agent fully crosses, waking/finding the other —
        // at most 2 completed traversals before the meeting.
        assert!(res.max_meeting_cost.unwrap() <= 2);
        assert!(res.schedules_explored > 0);
    }

    #[test]
    fn parked_agents_allow_avoidance() {
        // Agent 1 never moves and agent 0 walks away from it: within a
        // short horizon no meeting is forced.
        let g = generators::path(3);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(
                        NodeId(1),
                        [g.port_towards(NodeId(1), NodeId(2)).unwrap().0],
                    ),
                    ScriptBehavior::new(NodeId(0), []),
                ]
            },
            6,
        );
        assert!(res.some_schedule_avoids);
    }

    #[test]
    fn worst_case_dominates_heuristic_adversaries() {
        // The exhaustive maximum is at least what greedy-avoid achieves on
        // the same instance.
        use crate::adversary::GreedyAvoid;
        use crate::RunConfig;
        let g = generators::ring(3);
        let make = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 0]),
                ScriptBehavior::new(NodeId(1), [0, 0, 0]),
            ]
        };
        let exhaustive = exhaustive_worst_case(&g, make, 12);
        let mut rt = Runtime::new(&g, make(), RunConfig::rendezvous());
        let out = rt.run(&mut GreedyAvoid::new(3));
        if let (Some(max), crate::RunEnd::Meeting) = (exhaustive.max_meeting_cost, out.end) {
            assert!(max >= out.total_traversals);
        }
    }

    #[test]
    fn zero_horizon_has_one_avoiding_schedule() {
        let g = generators::path(2);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(NodeId(0), [0]),
                    ScriptBehavior::new(NodeId(1), [0]),
                ]
            },
            0,
        );
        assert_eq!(res.max_meeting_cost, None);
        assert!(res.some_schedule_avoids);
        assert_eq!(res.schedules_explored, 1);
    }

    #[test]
    fn factory_is_called_exactly_once() {
        // The replay-free contract: behaviors are instantiated once, all
        // re-entry is apply/undo or snapshot/restore.
        let calls = std::cell::Cell::new(0);
        let g = generators::ring(4);
        let res = exhaustive_worst_case(
            &g,
            || {
                calls.set(calls.get() + 1);
                vec![
                    ScriptBehavior::new(NodeId(0), [0, 0, 0, 0]),
                    ScriptBehavior::new(NodeId(2), [0, 0, 0, 0]),
                ]
            },
            8,
        );
        // 129 leaves: pinned against the seed's sequential odometer
        // enumeration (replayed via reset + factory per prefix).
        assert_eq!(res.schedules_explored, 129);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn deep_split_matches_shallow_horizons_incrementally() {
        // Shallow and deeper horizons must enumerate exactly the leaf
        // sets the seed's sequential odometer enumeration produced (ring(4) with two 4-step scripted walkers; counts
        // pinned against a reimplementation of the pre-snapshot search).
        let g = generators::ring(4);
        let make = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 0, 0]),
                ScriptBehavior::new(NodeId(2), [0, 0, 0, 0]),
            ]
        };
        for (depth, expected) in [(1, 2), (2, 4), (3, 8), (5, 32), (7, 85), (8, 129)] {
            let res = exhaustive_worst_case(&g, make, depth);
            assert_eq!(
                res.schedules_explored, expected,
                "leaf count drifted from the seed enumeration at depth {depth}"
            );
        }
    }

    /// One search under every configuration: plain enumeration, memoized,
    /// and memoized under the ring's dihedral group.
    fn ring_configs<B: Behavior>(
        g: &Graph,
        make: impl Fn() -> Vec<B>,
        horizon: usize,
    ) -> [WorstCase; 3] {
        let autos = rv_graph::GraphFamily::Ring.automorphisms(g);
        let run = |memo, automorphisms| {
            search_worst_case(
                g,
                &make,
                horizon,
                &SearchOptions {
                    memo,
                    automorphisms,
                },
            )
            .worst
        };
        [run(false, None), run(true, None), run(true, Some(&autos))]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The memoized walk reproduces plain enumeration bit for bit,
        /// with and without the symmetry quotient: random ring size,
        /// script lengths, start offsets and horizon.
        #[test]
        fn memoized_walk_matches_plain_enumeration(
            n in 3usize..7,
            script_len in 1usize..6,
            offset in 1usize..6,
            horizon in 1usize..9,
        ) {
            let g = generators::ring(n);
            let offset = 1 + (offset % (n - 1)); // distinct start nodes
            let make = || {
                vec![
                    ScriptBehavior::new(NodeId(0), vec![0; script_len]),
                    ScriptBehavior::new(NodeId(offset), vec![0; script_len]),
                ]
            };
            let [plain, memo, quotiented] = ring_configs(&g, make, horizon);
            let ctx = format!("n={n} script_len={script_len} offset={offset} horizon={horizon}");
            proptest::prop_assert_eq!(&memo, &plain, "memo: {}", ctx);
            proptest::prop_assert_eq!(&quotiented, &plain, "memo+autos: {}", ctx);
        }
    }

    #[test]
    fn three_agent_memoized_walk_matches_plain_enumeration() {
        // Three agents give a wider fan-out at every node and more
        // transpositions for the table to collapse.
        let g = generators::ring(6);
        let make = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 0, 0, 0]),
                ScriptBehavior::new(NodeId(2), [0, 0, 0, 0, 0]),
                ScriptBehavior::new(NodeId(4), [0, 0, 0, 0, 0]),
            ]
        };
        let [plain, memo, quotiented] = ring_configs(&g, make, 9);
        assert!(plain.schedules_explored > 1000);
        assert_eq!(memo, plain, "memoized walk diverged");
        assert_eq!(quotiented, plain, "symmetry-quotiented walk diverged");
    }
}
