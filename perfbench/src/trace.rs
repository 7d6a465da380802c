//! In-memory span recorder for the traced run.
//!
//! A span has a layer name, a start, an end and a parent. Spans opened
//! with [`span`] nest: calls made inside one become its children. Calls
//! recorded with [`leaf`] happen once per simulated action (a behavior's
//! `next_port`, an adversary's `choose`), far too often to keep one
//! record each, so repeated leaf calls of one layer under one parent are
//! coalesced into a single record holding the first start, the last end,
//! the call count and the summed busy time. A layer's self time is its
//! busy time minus the busy time of its children ([`summarize`]).
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`span`] costs one thread-local flag read. The untraced timed runs do
//! not reach [`leaf`] at all: only the traced run installs the wrappers
//! that call it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The layers a span can be recorded for, named after the workspace
/// modules they time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    GraphGenerate,
    GraphAutomorphisms,
    CorePiBound,
    RuntimeNew,
    RuntimeRun,
    BehaviorNextPort,
    BehaviorOnMeeting,
    BehaviorInfo,
    AdversaryChoose,
    StopCheck,
    MinimaxSearch,
    StoreOpen,
    StoreAppend,
    StoreGet,
    CellsContentKey,
}

const LAYERS: usize = Layer::CellsContentKey as usize + 1;

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::GraphGenerate => "rv_graph.generate",
            Layer::GraphAutomorphisms => "rv_graph.automorphisms",
            Layer::CorePiBound => "rv_core.pi_bound",
            Layer::RuntimeNew => "rv_sim.runtime.new",
            Layer::RuntimeRun => "rv_sim.runtime.run",
            Layer::BehaviorNextPort => "behavior.next_port",
            Layer::BehaviorOnMeeting => "behavior.on_meeting",
            Layer::BehaviorInfo => "behavior.info",
            Layer::AdversaryChoose => "rv_sim.adversary.choose",
            Layer::StopCheck => "rv_sim.stop.check",
            Layer::MinimaxSearch => "rv_sim.minimax.search",
            Layer::StoreOpen => "rv_store.open",
            Layer::StoreAppend => "rv_store.append",
            Layer::StoreGet => "rv_store.get",
            Layer::CellsContentKey => "rv_bench.cells.content_key",
        }
    }
}

/// One recorded span (or one coalesced run of leaf calls).
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls coalesced into this record (1 for a [`span`]).
    pub calls: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// An open [`span`]: its index and the leaf records already opened
/// under it, by layer.
struct Frame {
    span: usize,
    leaves: [Option<usize>; LAYERS],
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    /// Leaf records opened outside any span.
    top_leaves: [Option<usize>; LAYERS],
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Runs `f` inside a span of `layer` when recording is on.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.stack.last().map(|frame| frame.span);
        let index = r.spans.len();
        r.spans.push(Span {
            layer,
            parent,
            start_ns: start,
            end_ns: start,
            calls: 1,
            busy_ns: 0,
        });
        r.stack.push(Frame {
            span: index,
            leaves: [None; LAYERS],
        });
        index
    });
    let out = f();
    let end = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.pop();
        let s = &mut r.spans[index];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    });
    out
}

/// Times one leaf call of `layer` and folds it into the record for
/// `layer` under the innermost open span. Only the traced run's
/// wrappers call this, and they exist only while recording is on.
pub fn leaf<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let (parent, slot) = match r.stack.last_mut() {
            Some(frame) => (Some(frame.span), &mut frame.leaves[layer as usize]),
            None => (None, &mut r.top_leaves[layer as usize]),
        };
        match *slot {
            Some(i) => {
                let s = &mut r.spans[i];
                s.end_ns = end;
                s.calls += 1;
                s.busy_ns += end - start;
            }
            None => {
                *slot = Some(r.spans.len());
                r.spans.push(Span {
                    layer,
                    parent,
                    start_ns: start,
                    end_ns: end,
                    calls: 1,
                    busy_ns: end - start,
                });
            }
        }
    });
    out
}

/// Removes and returns every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "spans taken while one is still open");
        r.top_leaves = [None; LAYERS];
        std::mem::take(&mut r.spans)
    })
}

/// Per-layer totals derived from a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time minus the busy time of child spans.
    pub self_ns: u64,
}

/// Sums calls, busy time and self time per layer.
pub fn summarize(spans: &[Span]) -> BTreeMap<Layer, LayerTotals> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_busy[p] += s.busy_ns;
        }
    }
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_busy) {
        let t = out.entry(s.layer).or_default();
        t.calls += s.calls;
        t.busy_ns += s.busy_ns;
        t.self_ns += s.busy_ns.saturating_sub(children);
    }
    out
}

/// Renders spans as JSON lines, one object per span tagged with `phase`;
/// ids (and parent ids) are list indices offset by `first_id`.
pub fn to_json_lines(spans: &[Span], phase: &str, first_id: usize) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let id = first_id + i;
        let parent = s
            .parent
            .map_or("null".to_string(), |p| (first_id + p).to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"phase\":\"{phase}\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}\n",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.calls,
            s.busy_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_coalesce_under_their_parent_and_self_time_excludes_them() {
        set_enabled(true);
        span(Layer::RuntimeRun, || {
            for _ in 0..5 {
                leaf(Layer::BehaviorNextPort, || std::hint::black_box(3) + 1);
            }
            leaf(Layer::AdversaryChoose, || ());
        });
        set_enabled(false);
        let spans = take();
        assert_eq!(
            spans.len(),
            3,
            "one run span plus one record per leaf layer"
        );
        assert_eq!(spans[1].calls, 5);
        assert_eq!(spans[1].parent, Some(0));
        let totals = summarize(&spans);
        let run = totals[&Layer::RuntimeRun];
        let leaves =
            totals[&Layer::BehaviorNextPort].busy_ns + totals[&Layer::AdversaryChoose].busy_ns;
        assert_eq!(run.self_ns, run.busy_ns - leaves);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        assert_eq!(span(Layer::StoreOpen, || 7), 7);
        assert!(take().is_empty());
    }
}
