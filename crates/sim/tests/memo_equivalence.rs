//! Golden memo-equivalence suite for the transposition-table search.
//!
//! The minimax contract is that [`rv_sim::search_worst_case`] returns a
//! **bit-identical** [`WorstCase`] — including the exact explored-leaf
//! count — for every configuration: memo on or off, identity or full
//! automorphism group. The constants below were captured from the plain
//! enumeration (memo off); every other configuration must reproduce them
//! exactly. The table statistics of each memoized configuration are a
//! pure function of the search too, and are pinned in `GOLDEN_STATS`.
//!
//! To re-capture after an *intentional* semantic change, run
//! `cargo test -p rv_sim --test memo_equivalence -- --ignored --nocapture`
//! and paste the printed tables over `GOLDEN` and `GOLDEN_STATS`.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, Automorphisms, Graph, GraphFamily, NodeId};
use rv_sim::{search_worst_case, MemoStats, RvBehavior, SearchOptions};

struct Case {
    name: &'static str,
    family: GraphFamily,
    n: usize,
    depth: usize,
}

const CASES: [Case; 5] = [
    Case {
        name: "path3/d6",
        family: GraphFamily::Path,
        n: 3,
        depth: 6,
    },
    Case {
        name: "path3/d10",
        family: GraphFamily::Path,
        n: 3,
        depth: 10,
    },
    Case {
        name: "path3/d12",
        family: GraphFamily::Path,
        n: 3,
        depth: 12,
    },
    Case {
        name: "ring4/d8",
        family: GraphFamily::Ring,
        n: 4,
        depth: 8,
    },
    Case {
        name: "ring4/d12",
        family: GraphFamily::Ring,
        n: 4,
        depth: 12,
    },
];

/// `(max_meeting_cost, some_schedule_avoids, schedules_explored)` captured
/// from the sequential unmemoized enumeration, one row per [`CASES`] entry.
const GOLDEN: [(Option<u64>, bool, u64); 5] = [
    (Some(2), true, 64),
    (Some(4), true, 724),
    (Some(4), true, 2236),
    (Some(2), true, 196),
    (Some(2), true, 2836),
];

/// `(probes, hits, entries)` of the memoized search per [`CASES`] entry,
/// under the identity group and under the family's automorphism group.
const GOLDEN_STATS: [[(u64, u64, u64); 2]; 5] = [
    [(21, 6, 15), (21, 6, 15)],
    [(63, 25, 38), (63, 25, 38)],
    [(85, 36, 49), (85, 36, 49)],
    [(41, 14, 27), (41, 15, 26)],
    [(107, 42, 65), (95, 42, 53)],
];

fn graph_for(case: &Case) -> Graph {
    match case.family {
        GraphFamily::Path => generators::path(case.n),
        GraphFamily::Ring => generators::ring(case.n),
        _ => unreachable!("suite covers path and ring"),
    }
}

fn behaviors<'g>(g: &'g Graph, uxs: SeededUxs) -> Vec<RvBehavior<'g, SeededUxs>> {
    vec![
        RvBehavior::new(g, uxs, NodeId(0), Label::new(1).unwrap()),
        RvBehavior::new(g, uxs, NodeId(2), Label::new(2).unwrap()),
    ]
}

fn search(
    g: &Graph,
    case: &Case,
    memo: bool,
    automorphisms: Option<&Automorphisms>,
) -> rv_sim::SearchReport {
    let uxs = SeededUxs::quadratic();
    search_worst_case(
        g,
        || behaviors(g, uxs),
        case.depth,
        &SearchOptions {
            memo,
            automorphisms,
        },
    )
}

#[test]
fn memoized_search_is_bit_identical_to_golden_enumeration() {
    for (case, golden) in CASES.iter().zip(GOLDEN) {
        let g = graph_for(case);
        let autos = case.family.automorphisms(&g);
        // (memo, quotient group) configurations; every one must agree.
        let configs: [(bool, Option<&Automorphisms>); 3] =
            [(false, None), (true, None), (true, Some(&autos))];
        for (memo, automorphisms) in configs {
            let report = search(&g, case, memo, automorphisms);
            let got = (
                report.worst.max_meeting_cost,
                report.worst.some_schedule_avoids,
                report.worst.schedules_explored,
            );
            assert_eq!(
                got,
                golden,
                "{}: memo={memo} autos={} diverged from golden",
                case.name,
                automorphisms.is_some(),
            );
            assert_eq!(
                report.memo.is_some(),
                memo,
                "{}: table stats must be reported iff the table was on",
                case.name
            );
        }
    }
}

/// Memoized table statistics are deterministic: pinned per case and
/// group, and equal on a second call.
#[test]
fn sequential_memo_stats_are_deterministic() {
    for (case, golden) in CASES.iter().zip(GOLDEN_STATS) {
        let g = graph_for(case);
        let autos = case.family.automorphisms(&g);
        for (automorphisms, (probes, hits, entries)) in [None, Some(&autos)].into_iter().zip(golden)
        {
            let stats = || search(&g, case, true, automorphisms).memo.expect("memo on");
            let first = stats();
            assert_eq!(
                first,
                MemoStats {
                    probes,
                    hits,
                    entries
                },
                "{}: autos={} table stats drifted",
                case.name,
                automorphisms.is_some(),
            );
            assert_eq!(stats(), first, "{}: stats differ between calls", case.name);
        }
    }
}

/// Prints the golden tables for re-capture (see module docs).
#[test]
#[ignore = "re-capture helper, run with --ignored --nocapture"]
fn capture_golden() {
    for case in &CASES {
        let g = graph_for(case);
        let worst = search(&g, case, false, None).worst;
        println!(
            "    ({:?}, {}, {}), // {}",
            worst.max_meeting_cost, worst.some_schedule_avoids, worst.schedules_explored, case.name
        );
    }
    for case in &CASES {
        let g = graph_for(case);
        let autos = case.family.automorphisms(&g);
        let [a, b] = [None, Some(&autos)].map(|autos| {
            let m = search(&g, case, true, autos).memo.expect("memo on");
            (m.probes, m.hits, m.entries)
        });
        println!("    [{a:?}, {b:?}], // {}", case.name);
    }
}
