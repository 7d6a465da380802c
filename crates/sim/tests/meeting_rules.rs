//! Soundness of the forced-meeting rules (DESIGN.md §2.1), exercised with
//! scripted agents on hand-built graphs.

use rv_graph::{generators, EdgeId, NodeId};
use rv_sim::adversary::{Adversary, GreedyAvoid};
use rv_sim::{
    ActionKind, Choice, ChoiceInfo, Meeting, MeetingPlace, RunConfig, Runtime, ScriptBehavior,
};

/// A scripted adversary replaying a fixed action list (panics if illegal).
#[allow(dead_code)] // scaffold for hand-scripted schedules
struct Scripted(Vec<Choice>, usize);

impl Adversary for Scripted {
    fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
        let c = self.0[self.1];
        self.1 += 1;
        assert!(
            choices.iter().any(|ci| ci.choice == c),
            "scripted choice {c:?} illegal among {choices:?}"
        );
        c
    }
}

/// Applies `choice` and returns the meetings it appended to the log.
fn apply(rt: &mut Runtime<ScriptBehavior>, choice: Choice) -> Vec<Meeting> {
    let before = rt.meetings().len();
    rt.apply_into(choice);
    rt.meetings().iter().skip(before).cloned().collect()
}

fn wake(agent: usize) -> Choice {
    Choice {
        agent,
        kind: ActionKind::Wake,
    }
}
fn start(agent: usize) -> Choice {
    Choice {
        agent,
        kind: ActionKind::Start,
    }
}
fn finish(agent: usize) -> Choice {
    Choice {
        agent,
        kind: ActionKind::Finish,
    }
}

/// Opposite-direction co-occupancy forces a meeting, declared at the
/// second Start, inside the edge.
#[test]
fn opposite_directions_meet_inside_edge() {
    // Path 0-1: agent A at 0 goes right; agent B at 1 goes left.
    let g = generators::path(2);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0]),
        ScriptBehavior::new(NodeId(1), [0]),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
    for c in [wake(0), wake(1), start(0)] {
        assert!(apply(&mut rt, c).is_empty());
    }
    let meetings = apply(&mut rt, start(1));
    assert_eq!(meetings.len(), 1);
    assert_eq!(meetings[0].agents, vec![0, 1]);
    assert_eq!(
        meetings[0].place,
        MeetingPlace::Edge(EdgeId::new(NodeId(0), NodeId(1)))
    );
}

/// Same-direction co-occupancy alone does NOT force a meeting; the
/// follower finishing first (overtaking) does.
#[test]
fn same_direction_overtake_meets_but_gap_does_not() {
    // Ring of 3; both agents traverse edge 1→2 (port towards 2).
    let g = generators::ring(3);
    let p12 = g.port_towards(NodeId(1), NodeId(2)).unwrap().0;
    let p01 = g.port_towards(NodeId(0), NodeId(1)).unwrap().0;
    // Agent A starts at 1 and goes to 2. Agent B starts at 0, comes to 1,
    // then follows into the same edge.
    let agents = vec![
        ScriptBehavior::new(NodeId(1), [p12]),
        ScriptBehavior::new(NodeId(0), [p01, p12]),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol());
    for c in [wake(1), wake(0)] {
        apply(&mut rt, c);
    }
    // B walks 0→1. A is still at node 1 → node-contact meeting there.
    apply(&mut rt, start(1));
    let m = apply(&mut rt, finish(1));
    assert_eq!(m.len(), 1, "B arrives at node 1 where A stands");
    // A enters edge 1→2; B follows (same direction): no forced meeting.
    assert!(apply(&mut rt, start(0)).is_empty());
    assert!(
        apply(&mut rt, start(1)).is_empty(),
        "same direction entry is safe"
    );
    // B (entered second) finishes first: it must overtake A → meeting.
    let m = apply(&mut rt, finish(1));
    assert_eq!(m.len(), 1);
    assert_eq!(
        m[0].place,
        MeetingPlace::Edge(EdgeId::new(NodeId(1), NodeId(2)))
    );
    // A then finishes; B is at node 2 → node meeting.
    let m = apply(&mut rt, finish(0));
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].place, MeetingPlace::Node(NodeId(2)));
}

/// FIFO order: the agent that entered first may finish first without any
/// meeting.
#[test]
fn same_direction_fifo_exit_is_meeting_free() {
    let g = generators::ring(3);
    let p12 = g.port_towards(NodeId(1), NodeId(2)).unwrap().0;
    let p01 = g.port_towards(NodeId(0), NodeId(1)).unwrap().0;
    let agents = vec![
        ScriptBehavior::new(
            NodeId(1),
            [p12, g.port_towards(NodeId(2), NodeId(0)).unwrap().0],
        ),
        ScriptBehavior::new(NodeId(0), [p01, p12]),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol());
    for c in [wake(0), wake(1), start(0)] {
        apply(&mut rt, c);
    }
    // A (agent 0) enters 1→2 first and leaves; B enters after A started.
    apply(&mut rt, start(1)); // B starts 0→1
    assert!(
        apply(&mut rt, finish(0)).is_empty(),
        "front agent exits cleanly"
    );
    // B arrives at 1 (A has left node 2... node 1 empty) — no meeting.
    assert!(apply(&mut rt, finish(1)).is_empty());
}

/// A traversal into a node holding a sleeping agent wakes it and meets it.
#[test]
fn visiting_a_dormant_agent_wakes_and_meets_it() {
    let g = generators::path(2);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0]),
        ScriptBehavior::new(NodeId(1), [0]),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
    apply(&mut rt, wake(0));
    apply(&mut rt, start(0));
    let m = apply(&mut rt, finish(0));
    assert_eq!(
        m.len(),
        1,
        "arrival at the dormant agent's node is a meeting"
    );
    assert_eq!(m[0].place, MeetingPlace::Node(NodeId(1)));
}

/// The greedy-avoid adversary postpones the avoidable meeting but the
/// engine still reports the unavoidable one on a two-node path.
#[test]
fn greedy_avoid_cannot_escape_on_path2() {
    let g = generators::path(2);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0, 0, 0]),
        ScriptBehavior::new(NodeId(1), [0, 0, 0]),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
    let out = rt.run(&mut GreedyAvoid::new(7));
    assert!(matches!(out.end, rv_sim::RunEnd::Meeting));
}

/// Cost accounting: traversals count on Finish only, per agent and total.
#[test]
fn cost_counts_completed_traversals() {
    let g = generators::ring(4);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0, 0]),
        ScriptBehavior::new(NodeId(2), []),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol());
    apply(&mut rt, wake(0));
    apply(&mut rt, wake(1));
    apply(&mut rt, start(0));
    assert_eq!(rt.total_traversals(), 0, "starting is not a traversal");
    apply(&mut rt, finish(0));
    assert_eq!(rt.total_traversals(), 1);
    assert_eq!(rt.traversals(0), 1);
    assert_eq!(rt.traversals(1), 0);
}

/// With everyone parked the run ends as AllParked.
#[test]
fn all_parked_terminates_run() {
    let g = generators::ring(4);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0]),
        ScriptBehavior::new(NodeId(2), []),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol());
    let out = rt.run(&mut rv_sim::adversary::RoundRobin::new());
    assert!(matches!(out.end, rv_sim::RunEnd::AllParked));
    assert_eq!(out.total_traversals, 1);
}

#[test]
#[should_panic(expected = "distinct nodes")]
fn duplicate_start_nodes_are_rejected() {
    let g = generators::ring(4);
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0]),
        ScriptBehavior::new(NodeId(0), [0]),
    ];
    let _ = Runtime::new(&g, agents, RunConfig::protocol());
}
