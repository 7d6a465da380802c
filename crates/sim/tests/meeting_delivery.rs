//! Meeting delivery hands every participant its peers' infos without
//! copying them: `info()` runs once per participant per meeting, no `Info`
//! is ever cloned, and each participant sees the other participants in
//! participant order.

use rv_graph::{generators, Graph, NodeId, PortId};
use rv_sim::{ActionKind, Behavior, Choice, MeetingPlace, RunConfig, Runtime};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Call counters shared by every agent of one runtime.
#[derive(Debug, Default)]
struct Counters {
    infos: Cell<usize>,
    clones: Cell<usize>,
}

/// The info an agent reveals: its index, plus the counters its clones
/// report to.
#[derive(Debug)]
struct Tag {
    agent: usize,
    counters: Rc<Counters>,
}

impl Clone for Tag {
    fn clone(&self) -> Self {
        self.counters.clones.set(self.counters.clones.get() + 1);
        Tag {
            agent: self.agent,
            counters: Rc::clone(&self.counters),
        }
    }
}

/// A scripted agent that records the peers of every meeting delivered to
/// it.
#[derive(Debug)]
struct Recorder {
    agent: usize,
    start: NodeId,
    ports: VecDeque<PortId>,
    counters: Rc<Counters>,
    received: Vec<Vec<usize>>,
}

impl Behavior for Recorder {
    type Info = Tag;

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn next_port(&mut self) -> Option<PortId> {
        self.ports.pop_front()
    }

    fn info(&self) -> Tag {
        self.counters.infos.set(self.counters.infos.get() + 1);
        Tag {
            agent: self.agent,
            counters: Rc::clone(&self.counters),
        }
    }

    fn on_meeting(&mut self, _place: MeetingPlace, peers: &[Tag]) {
        self.received.push(peers.iter().map(|p| p.agent).collect());
    }

    fn fork(&self) -> Self {
        Recorder {
            agent: self.agent,
            start: self.start,
            ports: self.ports.clone(),
            counters: Rc::clone(&self.counters),
            received: self.received.clone(),
        }
    }
}

/// Builds one recorder per `(start, ports)` script, sharing `counters`.
fn recorders<'g>(
    g: &'g Graph,
    scripts: &[(usize, &[usize])],
    counters: &Rc<Counters>,
) -> Runtime<'g, Recorder> {
    let agents = scripts
        .iter()
        .enumerate()
        .map(|(agent, &(start, ports))| Recorder {
            agent,
            start: NodeId(start),
            ports: ports.iter().copied().map(PortId).collect(),
            counters: Rc::clone(counters),
            received: Vec::new(),
        })
        .collect();
    Runtime::new(g, agents, RunConfig::protocol())
}

fn act(rt: &mut Runtime<'_, Recorder>, agent: usize, kind: ActionKind) -> usize {
    rt.apply_into(Choice { agent, kind })
}

/// Checks every delivery against the meeting log: one `info()` per
/// participant, zero clones, and each participant's peers in participant
/// order without itself.
fn assert_delivered_without_copies(rt: &Runtime<'_, Recorder>, counters: &Counters) {
    let participants: usize = rt.meetings().iter().map(|m| m.agents.len()).sum();
    assert_eq!(
        counters.infos.get(),
        participants,
        "one info() per participant"
    );
    assert_eq!(counters.clones.get(), 0, "delivery must not clone an Info");
    let mut expected: Vec<Vec<Vec<usize>>> = vec![Vec::new(); rt.agent_count()];
    for m in rt.meetings().iter() {
        for &j in &m.agents {
            expected[j].push(m.agents.iter().copied().filter(|&p| p != j).collect());
        }
    }
    for (j, want) in expected.iter().enumerate() {
        assert_eq!(&rt.behavior(j).received, want, "agent {j}'s peers");
    }
}

#[test]
fn three_agent_node_meeting_lends_infos_in_participant_order() {
    // Path 0-1-2. Agent 0 parks at node 1; agent 2 walks in from node 0,
    // then agent 1 walks in from node 2 — the arriving agent sits in the
    // middle of the participant list [0, 1, 2].
    let g = generators::path(3);
    let to_1_from_0 = g.port_towards(NodeId(0), NodeId(1)).expect("edge").0;
    let to_1_from_2 = g.port_towards(NodeId(2), NodeId(1)).expect("edge").0;
    let counters = Rc::new(Counters::default());
    let mut rt = recorders(
        &g,
        &[(1, &[]), (2, &[to_1_from_2]), (0, &[to_1_from_0])],
        &counters,
    );
    for agent in 0..3 {
        assert_eq!(act(&mut rt, agent, ActionKind::Wake), 0);
    }
    assert_eq!(act(&mut rt, 2, ActionKind::Start), 0);
    assert_eq!(act(&mut rt, 2, ActionKind::Finish), 1);
    assert_eq!(act(&mut rt, 1, ActionKind::Start), 0);
    assert_eq!(act(&mut rt, 1, ActionKind::Finish), 1);
    let last = rt.meetings().last().expect("two meetings");
    assert_eq!(last.agents, vec![0, 1, 2]);
    assert_eq!(rt.behavior(1).received.last(), Some(&vec![0, 2]));
    assert_delivered_without_copies(&rt, &counters);
}

#[test]
fn overtaking_edge_meeting_lends_infos_without_copies() {
    // Ring of 3: agent 0 enters 1→2, agent 1 follows it in from node 1
    // and overtakes it inside the edge.
    let g = generators::ring(3);
    let p12 = g.port_towards(NodeId(1), NodeId(2)).expect("edge").0;
    let p01 = g.port_towards(NodeId(0), NodeId(1)).expect("edge").0;
    let counters = Rc::new(Counters::default());
    let mut rt = recorders(&g, &[(1, &[p12]), (0, &[p01, p12])], &counters);
    act(&mut rt, 1, ActionKind::Wake);
    act(&mut rt, 0, ActionKind::Wake);
    act(&mut rt, 1, ActionKind::Start);
    assert_eq!(act(&mut rt, 1, ActionKind::Finish), 1, "node contact at 1");
    act(&mut rt, 0, ActionKind::Start);
    act(&mut rt, 1, ActionKind::Start);
    assert_eq!(act(&mut rt, 1, ActionKind::Finish), 1, "overtaking");
    let overtake = rt.meetings().last().expect("meeting");
    assert!(matches!(overtake.place, MeetingPlace::Edge(_)));
    assert_delivered_without_copies(&rt, &counters);
}

#[test]
fn waking_visit_lends_infos_without_copies() {
    // Path 0-1: agent 0 walks onto the dormant agent 1, waking it.
    let g = generators::path(2);
    let counters = Rc::new(Counters::default());
    let mut rt = recorders(&g, &[(0, &[0]), (1, &[])], &counters);
    act(&mut rt, 0, ActionKind::Wake);
    act(&mut rt, 0, ActionKind::Start);
    assert_eq!(act(&mut rt, 0, ActionKind::Finish), 1);
    assert_eq!(rt.meetings().len(), 1);
    assert_delivered_without_copies(&rt, &counters);
}
