//! Determinism and bookkeeping invariants of the scheduler runtime.

use proptest::prelude::*;
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, NodeId};
use rv_sim::adversary::{AdversaryKind, RandomAdversary};
use rv_sim::{Place, RunConfig, RunEnd, Runtime, RvBehavior};

fn outcome_fingerprint(seed: u64, aseed: u64) -> (RunEnd, u64, Vec<u64>, usize) {
    let g = generators::gnp_connected(8, 0.4, seed);
    let uxs = SeededUxs::quadratic();
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(5).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(7), Label::new(11).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
    let out = rt.run(&mut RandomAdversary::new(aseed));
    (
        out.end,
        out.total_traversals,
        out.per_agent.clone(),
        out.meetings.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical (graph seed, adversary seed) → identical runs, bit for bit.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), aseed in any::<u64>()) {
        prop_assert_eq!(outcome_fingerprint(seed, aseed), outcome_fingerprint(seed, aseed));
    }

    /// Per-agent traversal counts always sum to the total.
    #[test]
    fn per_agent_costs_sum_to_total(seed in any::<u64>(), aseed in any::<u64>()) {
        let (_, total, per_agent, _) = outcome_fingerprint(seed, aseed);
        prop_assert_eq!(per_agent.iter().sum::<u64>(), total);
    }

    /// On every state reachable by a random schedule, `legal_choices_into`
    /// writes the same choices into a dirty reused buffer as into a fresh
    /// one — nothing from the previous step leaks through.
    #[test]
    fn legal_choices_into_matches_legal_choices(seed in any::<u64>(), aseed in any::<u64>()) {
        let g = generators::gnp_connected(8, 0.4, seed);
        let uxs = SeededUxs::quadratic();
        let agents = vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(5).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(7), Label::new(11).unwrap()),
        ];
        let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
        let mut adv = RandomAdversary::new(aseed);
        let mut buf = Vec::new();
        for step in 0..200 {
            let mut fresh = Vec::new();
            rt.legal_choices_into(&mut fresh);
            rt.legal_choices_into(&mut buf); // not cleared between steps
            prop_assert_eq!(&buf, &fresh, "divergence at step {}", step);
            if fresh.is_empty() {
                break;
            }
            use rv_sim::adversary::Adversary;
            if rt.apply_into(adv.choose(&fresh, step as u64)) > 0 {
                break;
            }
        }
    }
}

#[test]
fn cutoff_is_respected_exactly() {
    let g = generators::ring(6);
    let uxs = SeededUxs::quadratic();
    let agents = vec![
        // Labels chosen so round-robin lockstep delays the meeting long
        // enough to hit a tiny cutoff.
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(3), Label::new(9).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(10));
    let mut adv = AdversaryKind::GreedyAvoid.build(3);
    let out = rt.run(adv.as_mut());
    match out.end {
        RunEnd::Cutoff => assert!(out.total_traversals >= 10),
        RunEnd::Meeting => assert!(out.total_traversals <= 10),
        other => panic!("plain RV runs end at a meeting or the cutoff, not {other:?}"),
    }
}

#[test]
fn positions_track_places_consistently() {
    let g = generators::ring(5);
    let uxs = SeededUxs::quadratic();
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(2).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(2), Label::new(3).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(100));
    // Before any action: both asleep at their start nodes.
    assert_eq!(rt.place(0), Place::AtNode(NodeId(0)));
    assert_eq!(rt.place(1), Place::AtNode(NodeId(2)));
    assert_eq!(rt.total_traversals(), 0);
    let mut adv = AdversaryKind::Random.build(9);
    let _ = rt.run(adv.as_mut());
    // After the run, every agent is somewhere legal.
    for i in 0..rt.agent_count() {
        match rt.place(i) {
            Place::AtNode(v) => assert!(v.0 < g.order()),
            Place::Inside { edge, from, to } => {
                assert_eq!(edge, rv_graph::EdgeId::new(from, to));
            }
        }
    }
}

#[test]
fn meetings_report_monotone_costs_and_valid_participants() {
    let g = generators::gnp_connected(9, 0.4, 4);
    let uxs = SeededUxs::quadratic();
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(4).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(8), Label::new(13).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
    let mut adv = AdversaryKind::EagerMeet.build(0);
    let out = rt.run(adv.as_mut());
    let mut prev = 0;
    for m in &out.meetings {
        assert!(m.at_cost >= prev, "meeting costs are non-decreasing");
        prev = m.at_cost;
        assert!(m.agents.len() >= 2);
        assert!(m.agents.iter().all(|&a| a < 2));
    }
}
