//! Transposition table and canonical state fingerprints for the minimax
//! search (see `docs/MINIMAX.md` for the full design).
//!
//! # Why the schedule tree is a DAG
//!
//! The minimax adversary explores schedules as a tree, but distinct
//! schedule prefixes frequently reach the *same* runtime state: the same
//! agent places, the same edge-queue contents, the same committed moves and
//! the same behavior futures. Subtrees below equal states have equal
//! worst-case values, so the search space is really a DAG and re-exploring
//! a reached state is pure waste. On vertex-transitive families (rings,
//! tori) the sharing is stronger still: states that are graph-automorphism
//! images of each other also have equal values, because every scheduling
//! rule of the runtime (legality, queue order, crossing/overtake/node
//! meetings, traversal costs) is stated in terms of nodes and edges only —
//! never node *identities*.
//!
//! # The fingerprint
//!
//! A state's fingerprint digests, per agent: awake/crashed flags, a place
//! tag (asleep, parked, committed-at-node, inside-an-edge), the place's
//! nodes, the agent's position in its direction queue when inside an edge,
//! and a bounded window of the agent's **future arrival nodes** — the nodes
//! the behavior will arrive at next, resolved via
//! [`Behavior::future_ports`] and capped at what is reachable within the
//! residual search depth. Including the future makes the fingerprint exact:
//! two states with equal fingerprints generate identical residual subtrees
//! action for action. The digest uses SplitMix64-style mixing over two
//! independent lanes (128 bits total) — no `std::hash` machinery, per the
//! workspace determinism rules. The *canonical* fingerprint is the minimum
//! digest over every declared graph automorphism ([`rv_graph::Automorphisms`]),
//! which quotients the table by the family's symmetry group.
//!
//! Because the runtime's meeting semantics on a simple graph depend only on
//! which *edge* an agent occupies — determined by its endpoints — and never
//! on port numbers, plain graph automorphisms (not port-preserving ones)
//! are the right quotient once behavior futures are resolved to node
//! sequences.
//!
//! # Probe, then insert
//!
//! The search is one sequential walk that owns its table outright:
//! [`MemoTable::probe`] either returns a finished value or misses, and
//! after a miss the walk searches the subtree and [`MemoTable::insert`]s
//! its value. Residual depth is part of the key and strictly decreases
//! along a descent, so no key is probed again while its own subtree is
//! still open — there is no in-progress entry to represent.

use crate::behavior::Behavior;
use crate::runtime::{Place, Runtime};
use rv_graph::{Automorphisms, NodeId, PortId};

/// Memo key: canonical fingerprint plus residual search depth. Two states
/// share a subtree value only when both components agree.
pub(crate) type MemoKey = (u128, u32);

/// SplitMix64 finalizer: the avalanche stage of Steele et al.'s SplitMix64,
/// the same mixing family as `crate::fault` uses for fault streams.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independent SplitMix64 lanes, combined into a 128-bit digest.
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new(agents: usize) -> Self {
        Lanes {
            a: mix64(0x5157_c318_a5c7_9d01 ^ agents as u64),
            b: mix64(0x71c9_4f8b_23d5_16a3 ^ agents as u64),
        }
    }

    fn push(&mut self, v: u64) {
        self.a = mix64(self.a ^ v);
        self.b = mix64(self.b.wrapping_add(v).rotate_left(23));
    }

    fn digest(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// The memoized value of a subtree, stored **relative to the total
/// traversal count at the subtree root** so that equal states reached at
/// different absolute costs share one entry:
///
/// * `max_delta` — worst meeting cost minus the root's total traversals
///   (`None` when every schedule in the subtree avoids meeting);
/// * `avoids` — some schedule in the subtree avoids all meetings;
/// * `leaves` — number of leaf schedules in the subtree, so memo hits keep
///   `WorstCase::schedules_explored` bit-identical to plain enumeration.
///
/// Reconstruction at a hit is `root_total + max_delta`; `max`/`sum`/`or`
/// all commute with the constant offset, so the memoized search reproduces
/// the unmemoized values exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemoValue {
    pub(crate) max_delta: Option<u64>,
    pub(crate) avoids: bool,
    pub(crate) leaves: u64,
}

impl MemoValue {
    pub(crate) fn empty() -> Self {
        MemoValue {
            max_delta: None,
            avoids: false,
            leaves: 0,
        }
    }

    /// A leaf where the schedule ends without a meeting (depth cap or no
    /// legal action).
    pub(crate) fn avoid_leaf() -> Self {
        MemoValue {
            max_delta: None,
            avoids: true,
            leaves: 1,
        }
    }

    /// Records a meeting leaf `delta` traversals above the subtree root.
    pub(crate) fn record_meeting_delta(&mut self, delta: u64) {
        self.leaves += 1;
        self.max_delta = Some(self.max_delta.map_or(delta, |m| m.max(delta)));
    }

    /// Folds a child subtree's value in; the child root sits `offset`
    /// traversals above this subtree's root.
    pub(crate) fn absorb(&mut self, child: MemoValue, offset: u64) {
        if let Some(d) = child.max_delta {
            let shifted = offset + d;
            self.max_delta = Some(self.max_delta.map_or(shifted, |m| m.max(shifted)));
        }
        self.avoids |= child.avoids;
        self.leaves += child.leaves;
    }
}

const BUCKETS: usize = 64;

/// One bucket's storage: a flat unsorted vector scanned linearly. The
/// bucket index already consumes a mixed fingerprint, so entries spread
/// near-uniformly and a bucket holds a handful of entries even on the
/// deepest searches the harness runs (ring(4) at depth 40: 444 entries
/// across 64 buckets) — at that occupancy a contiguous scan beats any
/// node- or probe-based structure, and layout is trivially deterministic
/// (insertion order; never iterated).
type Bucket = Vec<(MemoKey, MemoValue)>;

/// Deterministic transposition table, owned by one search. Bucket choice
/// is a pure function of the fingerprint.
pub(crate) struct MemoTable {
    buckets: Vec<Bucket>,
    probes: u64,
    hits: u64,
}

/// Table instrumentation, surfaced through `crate::minimax::SearchReport`.
/// A pure function of the search's inputs: equal on every call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Table lookups.
    pub probes: u64,
    /// Lookups answered by a stored value.
    pub hits: u64,
    /// Entries resident at the end of the search.
    pub entries: u64,
}

impl MemoTable {
    pub(crate) fn new() -> Self {
        MemoTable {
            buckets: vec![Vec::new(); BUCKETS],
            probes: 0,
            hits: 0,
        }
    }

    fn bucket(&self, key: &MemoKey) -> usize {
        let fp = key.0;
        mix64(fp as u64 ^ (fp >> 64) as u64) as usize & (BUCKETS - 1)
    }

    /// Looks `key` up, counting the probe and any hit.
    pub(crate) fn probe(&mut self, key: MemoKey) -> Option<MemoValue> {
        self.probes += 1;
        let b = self.bucket(&key);
        let found = self.buckets[b]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v);
        self.hits += found.is_some() as u64;
        found
    }

    /// Stores the finished value of a subtree whose probe missed.
    pub(crate) fn insert(&mut self, key: MemoKey, value: MemoValue) {
        let b = self.bucket(&key);
        debug_assert!(
            self.buckets[b].iter().all(|(k, _)| *k != key),
            "a key is inserted once, after its probe missed"
        );
        self.buckets[b].push((key, value));
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            probes: self.probes,
            hits: self.hits,
            entries: self.buckets.iter().map(|b| b.len() as u64).sum(),
        }
    }
}

/// An agent's resolved future, anchored at one state (the search root).
#[derive(Default)]
struct AgentFuture {
    /// The nodes the agent will arrive at, in order, starting with its
    /// committed/in-flight arrival if any. With `k` traversals completed
    /// since the anchor, the agent's next arrival is `arrivals[k]`.
    arrivals: Vec<NodeId>,
    /// The agent's traversal count at the anchor.
    base_traversals: u64,
    /// `arrivals` is the agent's *entire* future (the behavior parks at
    /// the end) rather than a resolution-limit truncation.
    complete: bool,
}

/// Every agent's future arrival-node sequence, resolved **once per
/// search** from the root state and read by every fingerprint.
///
/// This is sound because behaviors are deterministic port sequences — the
/// adversary controls *timing*, never routing — and the only event that
/// changes a behavior's future, a meeting, is terminal in this search
/// (meetings are leaves; no post-meeting state is ever fingerprinted).
/// A crashed agent simply stops consuming its sequence. So agent `i`'s
/// `k`-th arrival is the same node in every schedule, and one resolution
/// at the root covers every state of the search.
pub(crate) struct FutureTable {
    agents: Vec<AgentFuture>,
    supported: bool,
}

impl FutureTable {
    /// Resolves the futures of `rt`'s agents with `horizon` actions of
    /// search below the current state. Resolves `horizon / 2 + 1` ports
    /// per agent, which covers the deepest window any state within
    /// `horizon` actions can ask for: a state `t` actions down has
    /// completed at most `(t - 1) / 2` traversals per agent (a traversal
    /// is a Start plus a Finish, after a Wake) and fingerprints a window
    /// of at most `(horizon - t + 1) / 2` more arrivals, so
    /// `k + need ≤ horizon / 2`; the `+ 1` is slack. Keeping the
    /// resolution tight matters because draining ports at the root can
    /// cross schedule-phase boundaries, and each boundary pays the
    /// algorithm's next-spec arithmetic.
    pub(crate) fn resolve<B: Behavior>(rt: &Runtime<'_, B>, horizon: usize) -> Self {
        let g = rt.graph();
        let resolve = horizon / 2 + 1;
        let mut agents = Vec::with_capacity(rt.agent_count());
        let mut ports: Vec<PortId> = Vec::new();
        for slot in rt.slots_for_memo() {
            let mut fut = AgentFuture {
                arrivals: Vec::new(),
                base_traversals: slot.traversals,
                complete: true,
            };
            if slot.crashed {
                agents.push(fut); // a crashed body never moves again
                continue;
            }
            // Where the port walk resumes from: the committed/in-flight
            // arrival if there is one, else the node an asleep agent will
            // wake at. A parked agent has no future.
            let walk_from = if !slot.awake {
                match slot.place {
                    Place::AtNode(v) => Some(v),
                    Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
                }
            } else {
                match slot.place {
                    Place::AtNode(_) => slot.pending.map(|(_, to)| {
                        fut.arrivals.push(to);
                        to
                    }),
                    Place::Inside { to, .. } => {
                        fut.arrivals.push(to);
                        Some(to)
                    }
                }
            };
            if let Some(start) = walk_from {
                ports.clear();
                if !slot.behavior.future_ports(&mut ports, resolve) {
                    return FutureTable {
                        agents,
                        supported: false,
                    };
                }
                fut.complete = ports.len() < resolve;
                let mut cur = start;
                for &p in &ports {
                    cur = g.traverse(cur, p).node;
                    fut.arrivals.push(cur);
                }
            }
            agents.push(fut);
        }
        FutureTable {
            agents,
            supported: true,
        }
    }

    /// `false` when any behavior lacks [`Behavior::future_ports`] support —
    /// fingerprints are unavailable and the search runs unmemoized.
    pub(crate) fn is_supported(&self) -> bool {
        self.supported
    }
}

/// Per-agent render of the current state, precomputed once per fingerprint
/// so the per-automorphism loop is pure hashing.
enum RenderKind {
    Asleep(NodeId),
    Parked(NodeId),
    Committed(NodeId),
    Inside { from: NodeId, to: NodeId, qpos: u64 },
}

struct Render {
    kind: RenderKind,
    crashed: bool,
    wstart: usize,
    wend: usize,
}

/// Scratch for computing canonical fingerprints. All state lives in the
/// [`FutureTable`]; this struct only owns reusable buffers, so the search
/// carries one and never allocates per probe.
pub(crate) struct Fingerprinter {
    renders: Vec<Render>,
    best: Vec<u64>,
    /// `(position in `best`, original node id)` of every node-valued entry
    /// — the only positions where two automorphisms' renderings can
    /// differ, so minimization compares and rewrites just these.
    node_pos: Vec<(u32, u32)>,
}

impl Fingerprinter {
    pub(crate) fn new() -> Self {
        Fingerprinter {
            renders: Vec::new(),
            best: Vec::new(),
            node_pos: Vec::new(),
        }
    }

    /// The canonical fingerprint of `rt`'s current state with `residual`
    /// actions of search below it, minimized over `autos`: the state is
    /// rendered to a value sequence under each automorphism, the
    /// lexicographically least rendering is selected (with early-exit
    /// comparison, so non-canonical automorphisms cost a handful of
    /// compares), and only that one rendering is hashed. `None` when
    /// fingerprinting is unsupported or the root resolution cannot cover
    /// this state's window (never happens from `crate::minimax`, whose
    /// resolution horizon covers the whole search; kept as a correctness
    /// backstop).
    pub(crate) fn fingerprint<B: Behavior>(
        &mut self,
        rt: &Runtime<'_, B>,
        residual: usize,
        autos: &Automorphisms,
        futures: &FutureTable,
    ) -> Option<u128> {
        if !futures.supported {
            return None;
        }
        let slots = rt.slots_for_memo();
        let occ = rt.edge_occupancy();
        self.renders.clear();
        for (i, slot) in slots.iter().enumerate() {
            let fut = &futures.agents[i];
            let k = (slot.traversals - fut.base_traversals) as usize;
            let (kind, need) = if slot.crashed {
                let kind = match slot.place {
                    Place::AtNode(v) => RenderKind::Parked(v),
                    Place::Inside { from, to, .. } => RenderKind::Inside {
                        from,
                        to,
                        qpos: queue_position(&occ[slot.inside_index], slot, i),
                    },
                };
                (kind, 0)
            } else if !slot.awake {
                let v = match slot.place {
                    Place::AtNode(v) => v,
                    Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
                };
                (RenderKind::Asleep(v), residual.saturating_sub(1) / 2)
            } else {
                match slot.place {
                    Place::AtNode(v) => {
                        if slot.pending.is_some() {
                            debug_assert_eq!(
                                slot.pending.map(|(_, to)| to),
                                fut.arrivals.get(k).copied(),
                                "committed arrival must head the future window"
                            );
                            (RenderKind::Committed(v), residual / 2)
                        } else {
                            (RenderKind::Parked(v), 0)
                        }
                    }
                    Place::Inside { from, to, .. } => (
                        RenderKind::Inside {
                            from,
                            to,
                            qpos: queue_position(&occ[slot.inside_index], slot, i),
                        },
                        residual.div_ceil(2),
                    ),
                }
            };
            let len = fut.arrivals.len();
            if k + need > len && !fut.complete {
                return None; // resolution horizon too short for this window
            }
            self.renders.push(Render {
                kind,
                crashed: slot.crashed,
                wstart: k.min(len),
                wend: (k + need).min(len),
            });
        }
        // Canonicalize, then hash once: materialize the value sequence
        // under the first automorphism, then lexicographically minimize
        // over the rest. Renderings under two automorphisms agree at every
        // structural position (tags, queue positions, window lengths) and
        // can differ only where a node id was mapped, so both the compare
        // and the rewrite touch just the recorded node positions — a
        // non-canonical automorphism costs a handful of array reads.
        self.best.clear();
        self.node_pos.clear();
        let perm0 = autos.perm(0);
        for (i, r) in self.renders.iter().enumerate() {
            let best = &mut self.best;
            let node_pos = &mut self.node_pos;
            let node = |best: &mut Vec<u64>, node_pos: &mut Vec<(u32, u32)>, v: NodeId| {
                node_pos.push((best.len() as u32, v.0 as u32));
                best.push(perm0[v.0] as u64);
            };
            match r.kind {
                RenderKind::Asleep(v) => {
                    best.push(0x10 | r.crashed as u64);
                    node(best, node_pos, v);
                }
                RenderKind::Parked(v) => {
                    best.push(0x20 | r.crashed as u64);
                    node(best, node_pos, v);
                }
                RenderKind::Committed(v) => {
                    best.push(0x30 | r.crashed as u64);
                    node(best, node_pos, v);
                }
                RenderKind::Inside { from, to, qpos } => {
                    best.push(0x40 | r.crashed as u64);
                    node(best, node_pos, from);
                    node(best, node_pos, to);
                    best.push(qpos);
                }
            }
            let window = &futures.agents[i].arrivals[r.wstart..r.wend];
            best.push(window.len() as u64);
            for &w in window {
                node(best, node_pos, w);
            }
        }
        for k in 1..autos.len() {
            let perm = autos.perm(k);
            let mut smaller = false;
            for &(pos, v) in &self.node_pos {
                let mapped = perm[v as usize] as u64;
                match mapped.cmp(&self.best[pos as usize]) {
                    std::cmp::Ordering::Less => {
                        smaller = true;
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Equal => {}
                }
            }
            if smaller {
                for &(pos, v) in &self.node_pos {
                    self.best[pos as usize] = perm[v as usize] as u64;
                }
            }
        }
        let mut lanes = Lanes::new(slots.len());
        for &v in &self.best {
            lanes.push(v);
        }
        Some(lanes.digest())
    }
}

/// The agent's position in its direction queue (0 = eldest). Queue
/// contents need not be hashed separately: per-agent (edge, direction,
/// position) tuples determine every queue exactly.
fn queue_position<B>(
    occ: &crate::runtime::EdgeOcc,
    slot: &crate::runtime::Slot<B>,
    i: usize,
) -> u64 {
    let from = match slot.place {
        Place::Inside { from, .. } => from,
        Place::AtNode(_) => unreachable!("queue position queried for an agent at a node"),
    };
    let q = if occ_from_a(slot, from) {
        &occ.from_a
    } else {
        &occ.from_b
    };
    q.iter()
        .position(|&a| a == i)
        .expect("inside agent must be in its direction queue") as u64
}

fn occ_from_a<B>(slot: &crate::runtime::Slot<B>, from: NodeId) -> bool {
    match slot.place {
        Place::Inside { edge, .. } => edge.a == from,
        Place::AtNode(_) => unreachable!("direction queried for an agent at a node"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScriptBehavior;
    use crate::runtime::{RunConfig, Runtime};
    use proptest::prelude::*;
    use rv_graph::{generators, Graph};

    #[test]
    fn probe_insert_roundtrip() {
        let mut table = MemoTable::new();
        let key = (42u128, 7u32);
        assert_eq!(table.probe(key), None);
        let value = MemoValue {
            max_delta: Some(3),
            avoids: true,
            leaves: 11,
        };
        table.insert(key, value);
        assert_eq!(table.probe(key), Some(value));
        // Same fingerprint, other residual depth: a distinct key.
        assert_eq!(table.probe((42, 6)), None);
        assert_eq!(
            table.stats(),
            MemoStats {
                probes: 3,
                hits: 1,
                entries: 1,
            }
        );
    }

    #[test]
    fn memo_value_absorb_is_offset_exact() {
        let mut v = MemoValue::empty();
        v.record_meeting_delta(5);
        let mut child = MemoValue::avoid_leaf();
        child.record_meeting_delta(2);
        v.absorb(child, 10);
        assert_eq!(v.max_delta, Some(12));
        assert!(v.avoids);
        assert_eq!(v.leaves, 3);
    }

    /// Walks `ports` from `start`, returning the arrival-node path.
    fn node_path(g: &Graph, start: NodeId, ports: &[usize]) -> Vec<NodeId> {
        let mut path = vec![start];
        let mut cur = start;
        for &p in ports {
            cur = g.traverse(cur, rv_graph::PortId(p)).node;
            path.push(cur);
        }
        path
    }

    /// Rewrites a script so that agent `i` of the image runtime walks the
    /// σ-image of the original's node path.
    fn mapped_script(g: &Graph, perm: &[u32], start: NodeId, ports: &[usize]) -> ScriptBehavior {
        let path = node_path(g, start, ports);
        let mapped: Vec<usize> = path
            .windows(2)
            .map(|w| {
                let (u, v) = (NodeId(perm[w[0].0] as usize), NodeId(perm[w[1].0] as usize));
                g.port_towards(u, v)
                    .expect("automorphism preserves adjacency")
                    .0
            })
            .collect();
        ScriptBehavior::new(NodeId(perm[start.0] as usize), mapped)
    }

    fn apply_steps<B: Behavior>(rt: &mut Runtime<'_, B>, picks: &[usize]) -> usize {
        let mut choices = Vec::new();
        let mut meetings = Vec::new();
        let mut applied = 0;
        for &pick in picks {
            rt.legal_choices_into(&mut choices);
            if choices.is_empty() {
                break;
            }
            let c = choices[pick % choices.len()].choice;
            meetings.clear();
            rt.apply_into(c, &mut meetings);
            applied += 1;
            if !meetings.is_empty() {
                break; // meetings are leaves in the minimax search
            }
        }
        applied
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The satellite invariant: for every declared automorphism σ, the
        /// σ-image of a reachable state fingerprints identically (the
        /// canonical fingerprint is σ-invariant).
        #[test]
        fn fingerprint_is_automorphism_invariant(
            n in 4usize..9,
            s0 in 0usize..8,
            s1 in 0usize..8,
            ports0 in proptest::collection::vec(0usize..2, 0..10),
            ports1 in proptest::collection::vec(0usize..2, 0..10),
            picks in proptest::collection::vec(0usize..6, 0..12),
            sigma in 0usize..16,
        ) {
            let g = generators::ring(n);
            let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
            let perm = autos.perm(sigma % autos.len()).to_vec();
            let horizon = 24usize;

            let start0 = NodeId(s0 % n);
            let start1 = NodeId(s1 % n);
            prop_assume!(start0 != start1); // runtimes require distinct starts
            let original = vec![
                ScriptBehavior::new(start0, ports0.clone()),
                ScriptBehavior::new(start1, ports1.clone()),
            ];
            let image = vec![
                mapped_script(&g, &perm, start0, &ports0),
                mapped_script(&g, &perm, start1, &ports1),
            ];

            let mut rt_a = Runtime::new(&g, original, RunConfig::rendezvous());
            let mut rt_b = Runtime::new(&g, image, RunConfig::rendezvous());

            let mut fpr_a = Fingerprinter::new();
            let mut fpr_b = Fingerprinter::new();
            let fut_a = FutureTable::resolve(&rt_a, horizon);
            let fut_b = FutureTable::resolve(&rt_b, horizon);
            prop_assert!(fut_a.is_supported() && fut_b.is_supported());

            // Same decision sequence on both: legality corresponds under σ,
            // so the two runs stay σ-images of each other throughout.
            let applied_a = apply_steps(&mut rt_a, &picks);
            let applied_b = apply_steps(&mut rt_b, &picks);
            prop_assert_eq!(applied_a, applied_b, "σ-image runs must not diverge");

            let residual = horizon - applied_a;
            let fp_a = fpr_a.fingerprint(&rt_a, residual, &autos, &fut_a);
            let fp_b = fpr_b.fingerprint(&rt_b, residual, &autos, &fut_b);
            prop_assert!(fp_a.is_some());
            prop_assert_eq!(fp_a, fp_b, "canonical fingerprints must agree");
        }
    }

    #[test]
    fn fingerprint_separates_distinct_states() {
        let g = generators::path(4);
        let autos = Automorphisms::identity(g.order());
        let mk = |a: usize, b: usize| {
            vec![
                ScriptBehavior::new(NodeId(a), [0, 0, 0]),
                ScriptBehavior::new(NodeId(b), [0, 0, 0]),
            ]
        };
        let rt_a = Runtime::new(&g, mk(0, 3), RunConfig::rendezvous());
        let rt_b = Runtime::new(&g, mk(1, 3), RunConfig::rendezvous());
        let mut fpr = Fingerprinter::new();
        let fut_a = FutureTable::resolve(&rt_a, 10);
        let fp_a = fpr.fingerprint(&rt_a, 10, &autos, &fut_a);
        let fut_b = FutureTable::resolve(&rt_b, 10);
        let fp_b = fpr.fingerprint(&rt_b, 10, &autos, &fut_b);
        assert!(fp_a.is_some() && fp_b.is_some());
        assert_ne!(fp_a, fp_b, "different starts must fingerprint apart");
    }

    #[test]
    fn fingerprint_is_anchor_independent() {
        // Future tables resolved at different depths must agree on a
        // common descendant state: fingerprints may not depend on where
        // the table was anchored.
        let g = generators::ring(6);
        let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
        let mk = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 1, 0, 0]),
                ScriptBehavior::new(NodeId(3), [1, 1, 0, 1, 1]),
            ]
        };
        let horizon = 16usize;
        let picks: Vec<usize> = vec![0, 1, 2, 0, 1];

        let mut rt_root = Runtime::new(&g, mk(), RunConfig::rendezvous());
        let mut fpr = Fingerprinter::new();
        let fut_root = FutureTable::resolve(&rt_root, horizon);
        let applied = apply_steps(&mut rt_root, &picks);
        let fp_from_root = fpr.fingerprint(&rt_root, horizon - applied, &autos, &fut_root);

        let mut rt_mid = Runtime::new(&g, mk(), RunConfig::rendezvous());
        let mid = apply_steps(&mut rt_mid, &picks[..2]);
        let fut_mid = FutureTable::resolve(&rt_mid, horizon - mid);
        let applied_rest = apply_steps(&mut rt_mid, &picks[2..]);
        let fp_from_mid = fpr.fingerprint(&rt_mid, horizon - mid - applied_rest, &autos, &fut_mid);

        assert_eq!(mid + applied_rest, applied);
        assert!(fp_from_root.is_some());
        assert_eq!(fp_from_root, fp_from_mid);
    }

    #[test]
    fn unsupported_behavior_disables_fingerprinting() {
        struct Opaque(NodeId);
        impl Behavior for Opaque {
            type Info = ();
            fn start_node(&self) -> NodeId {
                self.0
            }
            fn next_port(&mut self) -> Option<PortId> {
                None
            }
            fn info(&self) {}
            fn on_meeting(&mut self, _place: crate::meeting::MeetingPlace, _peers: &[()]) {}
            fn fork(&self) -> Self {
                Opaque(self.0)
            }
        }
        let g = generators::path(4);
        let rt = Runtime::new(
            &g,
            vec![Opaque(NodeId(0)), Opaque(NodeId(3))],
            RunConfig::rendezvous(),
        );
        // The agents start asleep, so resolution must preview their
        // post-wake futures — which Opaque cannot.
        let futures = FutureTable::resolve(&rt, 10);
        assert!(!futures.is_supported());
        let autos = Automorphisms::identity(g.order());
        let mut fpr = Fingerprinter::new();
        assert_eq!(fpr.fingerprint(&rt, 10, &autos, &futures), None);
    }
}
