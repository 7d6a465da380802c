//! **perfbench** — the repository's benchmark: four seeded workloads run
//! against the workspace crates' public API, with every run's outputs
//! checked.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--rustc VERSION]
//! ```
//!
//! `--trace 0` sets the workload up 5 to 200 times (the median is
//! `setup_s`), then runs whole passes over its population in a closed
//! loop — one client, one thread, the next run starting when the last
//! one ends — for about `S` seconds, and reports the end-to-end metrics.
//! `--trace 1` runs the same passes untraced, then traced (spans around
//! every call into a layer, see `trace.rs`), checks that both computed
//! identical outcomes, writes the spans to the work directory and
//! reports the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object. See `README.md`.

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]

mod adapter;
mod laps;
mod rng;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Layer;
use workloads::{Pass, Workload};

/// The workloads, in reporting order.
const WORKLOADS: [&str; 4] = ["rendezvous", "sgl", "minimax", "sweep"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("sim_traversals_per_s", "traversals/s"),
    ("sim_cost", "traversals"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 34] = [
    ("graph.generate_us", "us"),
    ("graph.automorphisms_us", "us"),
    ("core.pi_bound_us", "us"),
    ("behavior.next_port_ns", "ns"),
    ("behavior.next_port_calls", "count"),
    ("behavior.on_meeting_ns", "ns"),
    ("behavior.on_meeting_calls", "count"),
    ("behavior.info_ns", "ns"),
    ("esst.certified_agents", "count"),
    ("sgl.meetings_per_ktraversal", "1/ktraversal"),
    ("runtime.new_us", "us"),
    ("runtime.self_ns_per_action", "ns"),
    ("runtime.actions", "count"),
    ("runtime.traversals_per_action", "ratio"),
    ("adversary.choose_ns", "ns"),
    ("adversary.choose_calls", "count"),
    ("stop.check_ns", "ns"),
    ("stop.checks", "count"),
    ("stop.wasted_traversal_share", "ratio"),
    ("minimax.search_us", "us"),
    ("minimax.leaves", "count"),
    ("memo.probes", "count"),
    ("memo.hits", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.entries", "count"),
    ("store.append_us", "us"),
    ("store.bytes_written", "bytes"),
    ("store.segment_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.get_ns", "ns"),
    ("cells.content_key_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("host.cpus", "count"),
    ("minimax.workers", "count"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median. `MIN_SETUPS`
/// come before the first pass; more follow between passes, spread over
/// the run: by the time a share of it has gone, up to that share of
/// `MAX_SETUPS - MIN_SETUPS` and of `SETUP_BUDGET_S`. The host's speed
/// drifts over fractions of a second, so set-ups timed back to back all
/// land in one spell: `sweep`'s half-millisecond set-up read 0.34–0.37 ms
/// in some runs and 0.56–0.63 ms in others with 200 timed before the
/// first pass.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;

/// Share of `--seconds` the `--trace 1` run spends untraced; the traced
/// passes then repeat as many passes.
const TRACE_UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let mut take = |flag: &str| map.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |v: Option<String>, flag: &str| -> Result<f64, String> {
        v.ok_or(format!("{flag} is required"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = take("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num(take("--seconds"), "--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match take("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let work_dir =
        PathBuf::from(take("--work-dir").unwrap_or_else(|| ".bench_build/perfbench".into()));
    let rustc = take("--rustc").unwrap_or_else(|| "unknown".into());
    if let Some(flag) = map.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        rustc,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // One work directory per process, so concurrent runs never share a
    // store.
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let report = if args.trace {
        traced_run(&args, &dir)
    } else {
        measured_run(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "host.cpus={} minimax.workers={} rustc={:?}",
        host_cpus(),
        adapter::search_workers(),
        args.rustc
    );
    report.print();
    ExitCode::SUCCESS
}

/// What a run reports: the checks' verdict and the metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:32} {:>18} {unit}", json_number(*value));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number (a 0/0 ratio of an unexercised layer reads 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process, from the kernel's high-water
/// mark (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup(args: &Args, dir: &Path) -> Box<dyn Workload> {
    workloads::setup(&args.workload, args.seed, dir).expect("workload names are validated")
}

/// Runs whole passes into `tally`, starting another only while it is
/// expected to end by `seconds` (at least one), or exactly `limit`.
/// After each pass, `between` gets the share of `seconds` gone.
fn passes(
    w: &mut dyn Workload,
    tally: &mut Tally,
    seconds: f64,
    traced: bool,
    limit: Option<usize>,
    between: &mut dyn FnMut(f64),
) {
    let start = Instant::now();
    let mut last = 0.0;
    loop {
        let done = limit.map_or_else(
            || tally.passes > 0 && start.elapsed().as_secs_f64() + last > seconds,
            |n| tally.passes >= n,
        );
        if done {
            return;
        }
        let t = Instant::now();
        let pass = w.pass(traced);
        last = t.elapsed().as_secs_f64();
        tally.add(pass);
        if tally.passes == 1 {
            // Every member has now run once, so the program has reached
            // its peak; later growth would be this harness's records.
            tally.peak_rss_mb = peak_rss_mb();
        }
        between(start.elapsed().as_secs_f64() / seconds);
    }
}

/// What a sequence of passes measured, folded in pass by pass so that
/// per-run records never pile up (peak RSS would otherwise measure the
/// benchmark's bookkeeping rather than the program).
#[derive(Default)]
struct Tally {
    /// Fingerprints every pass must repeat: the first pass's, or the
    /// untraced run's for a traced tally.
    reference: Vec<String>,
    passes: usize,
    attempted: u64,
    failed: u64,
    wrong: bool,
    mismatches: u64,
    /// Failures by (cell id, reason): count and whether the output was
    /// wrong.
    failures: BTreeMap<(String, String), (u64, bool)>,
    /// Each population member's fastest laps (see `laps.rs`): lap by
    /// lap, the least host time, ns, over the passes.
    best: Vec<Vec<u64>>,
    /// The least timed host time outside the runs over the passes.
    best_extra: Option<u64>,
    /// All timed host time, ns.
    timed_ns: u64,
    /// Peak resident memory after set-up and the first pass, MB.
    peak_rss_mb: f64,
    /// The first pass's deterministic results.
    traversals: u64,
    sim_cost: u64,
    counts: Vec<workloads::Count>,
}

/// Folds `laps` into `best`, lap by lap. A run's laps end at the same
/// actions in every pass (the fingerprints check that the passes agree);
/// should their count differ all the same, the faster whole run is kept.
fn keep_fastest(best: &mut Vec<u64>, laps: &[u64]) {
    if best.len() == laps.len() {
        for (b, &l) in best.iter_mut().zip(laps) {
            *b = (*b).min(l);
        }
    } else if best.is_empty() || laps.iter().sum::<u64>() < best.iter().sum::<u64>() {
        *best = laps.to_vec();
    }
}

impl Tally {
    fn add(&mut self, pass: Pass) {
        if self.passes == 0 {
            self.traversals = pass.runs.iter().map(|r| r.traversals).sum();
            self.sim_cost = pass.sim_cost;
            self.counts = pass.counts.clone();
        }
        if self.reference.is_empty() {
            self.reference = pass.runs.iter().map(|r| r.fingerprint.clone()).collect();
        }
        self.best.resize_with(pass.runs.len(), Vec::new);
        for ((run, expected), best) in pass.runs.iter().zip(&self.reference).zip(&mut self.best) {
            self.attempted += 1;
            self.timed_ns += run.laps.iter().sum::<u64>();
            keep_fastest(best, &run.laps);
            if run.fingerprint != *expected {
                self.mismatches += 1;
            }
            if let Some(f) = &run.failure {
                self.failed += 1;
                self.wrong |= f.wrong;
                self.failures
                    .entry((run.id.clone(), f.reason.clone()))
                    .or_insert((0, f.wrong))
                    .0 += 1;
            }
        }
        self.timed_ns += pass.extra_ns;
        self.best_extra = Some(
            self.best_extra
                .map_or(pass.extra_ns, |b| b.min(pass.extra_ns)),
        );
        self.passes += 1;
    }

    /// Each population member's fastest time: the sum of its fastest
    /// laps, sorted. Host noise only ever adds time, and on a shared host
    /// it comes in slow spells seconds long that a member's median over
    /// passes follows (`rendezvous`: 25–41 k runs/s from medians across
    /// 8-second runs of one population, 44–49 k from minima).
    fn member_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.best.iter().map(|l| l.iter().sum()).collect();
        out.sort_unstable();
        out
    }

    /// An undisturbed pass: every member at its fastest time, plus the
    /// fastest time outside the runs.
    fn typical_pass_s(&self) -> f64 {
        let runs: u64 = self.member_times().iter().sum();
        (runs + self.best_extra.unwrap_or(0)) as f64 / 1e9
    }

    /// No wrong output, and every pass repeated the reference.
    fn correct(&self) -> bool {
        !self.wrong && self.mismatches == 0
    }

    /// `fail_share` with the failing cells, and any mismatch.
    fn notes(&self, what: &str) -> Vec<String> {
        let mut notes = vec![format!(
            "fail_share {:.6} ({} of {} runs){}",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted,
            if self.failures.is_empty() {
                ""
            } else {
                "; failures by cell id:"
            }
        )];
        for ((id, reason), (n, wrong)) in &self.failures {
            let kind = if *wrong { "WRONG" } else { "unfinished" };
            notes.push(format!("  {kind} {id}: {reason} (x{n})"));
        }
        if self.mismatches > 0 {
            notes.push(format!(
                "MISMATCH: {} {what} run(s) differ from the reference pass",
                self.mismatches
            ));
        }
        notes
    }
}

/// `p` in 0..=1 of sorted samples (nearest rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn measured_run(args: &Args, dir: &Path) -> Report {
    let mut setup_s: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let w = setup(args, dir);
        setup_s.push(t.elapsed().as_secs_f64());
        w
    };
    let mut w = timed_setup(&mut setup_s);
    while setup_s.len() < MIN_SETUPS {
        drop(w);
        w = timed_setup(&mut setup_s);
    }
    let mut tally = Tally::default();
    let mut spent = 0.0;
    let mut more_setups = |share: f64| {
        let share = share.min(1.0);
        while ((setup_s.len() - MIN_SETUPS) as f64) < (MAX_SETUPS - MIN_SETUPS) as f64 * share
            && spent < SETUP_BUDGET_S * share
        {
            drop(timed_setup(&mut setup_s));
            spent += setup_s.last().expect("just timed");
        }
    };
    passes(
        w.as_mut(),
        &mut tally,
        args.seconds,
        false,
        None,
        &mut more_setups,
    );

    let times = tally.member_times();
    let n = times.len();
    // Rates and percentiles both rest on each member's fastest time, so
    // host noise in some passes moves neither.
    let pass_s = tally.typical_pass_s();
    let mut notes = vec![format!(
        "workload={} seed={} setups={} passes={} members={n} (beyond p90: {}) samples={}",
        args.workload,
        args.seed,
        setup_s.len(),
        tally.passes,
        n - n * 9 / 10,
        tally.attempted
    )];
    notes.extend(tally.notes("untraced"));
    let ms = |ns: u64| ns as f64 / 1e6;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median(&mut setup_s)),
        ("runs_per_s", n as f64 / pass_s),
        ("run_p50_ms", ms(percentile(&times, 0.5))),
        ("run_p90_ms", ms(percentile(&times, 0.9))),
        ("sim_traversals_per_s", tally.traversals as f64 / pass_s),
        ("sim_cost", tally.sim_cost as f64),
        ("peak_rss_mb", tally.peak_rss_mb),
    ]);
    Report {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect(),
        notes,
    }
}

fn traced_run(args: &Args, dir: &Path) -> Report {
    let mut w = setup(args, dir);
    let mut untraced = Tally::default();
    passes(
        w.as_mut(),
        &mut untraced,
        args.seconds * TRACE_UNTRACED_SHARE,
        false,
        None,
        &mut |_| {},
    );
    drop(w);
    let counts: BTreeMap<&str, f64> = untraced.counts.iter().copied().collect();
    let mut notes = untraced.notes("untraced");

    // Set-up spans (graphs, bounds, the warm-up, minimax's plain
    // references) are kept apart from the passes' spans, so per-pass
    // counts and per-call times describe the timed passes only.
    trace::set_enabled(true);
    let mut w = setup(args, dir);
    let setup_spans = trace::take();
    // Traced runs are not classified; they must reproduce the untraced
    // outcomes exactly.
    let mut traced = Tally {
        reference: untraced.reference.clone(),
        ..Tally::default()
    };
    passes(
        w.as_mut(),
        &mut traced,
        f64::INFINITY,
        true,
        Some(untraced.passes),
        &mut |_| {},
    );
    drop(w);
    trace::set_enabled(false);
    let spans = trace::take();
    notes.extend(traced.notes("traced").into_iter().skip(1));

    let overhead = traced.timed_ns as f64 / untraced.timed_ns as f64;
    let file = args
        .work_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"passes\":{},\"host.cpus\":{},\"minimax.workers\":{},\"rustc\":{:?}}}\n",
        args.workload,
        args.seed,
        traced.passes,
        host_cpus(),
        adapter::search_workers(),
        args.rustc
    );
    let lines = trace::to_json_lines(&setup_spans, "setup", 0)
        + &trace::to_json_lines(&spans, "passes", setup_spans.len());
    let written = setup_spans.len() + spans.len();
    match std::fs::write(&file, header + &lines) {
        Ok(()) => notes.push(format!("spans: {written} written to {}", file.display())),
        Err(e) => notes.push(format!("spans: {written} not written ({e})")),
    }
    notes.insert(
        0,
        format!(
            "workload={} seed={} passes={} (untraced, then traced) tracing overhead x{overhead:.3}",
            args.workload, args.seed, untraced.passes
        ),
    );

    let setup_totals = trace::summarize(&setup_spans);
    let totals = trace::summarize(&spans);
    let layer = |l: Layer| totals.get(&l).copied().unwrap_or_default();
    let mean = |t: trace::LayerTotals, scale: f64| t.busy_ns as f64 / t.calls as f64 / scale;
    let per_call = |l: Layer, scale: f64| mean(layer(l), scale);
    let per_setup_call =
        |l: Layer, scale: f64| mean(setup_totals.get(&l).copied().unwrap_or_default(), scale);
    let per_pass = |l: Layer| layer(l).calls as f64 / traced.passes as f64;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let actions = count("runtime.actions");
    let run_actions = actions * traced.passes as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert(
        "graph.generate_us",
        per_setup_call(Layer::GraphGenerate, 1e3),
    );
    values.insert(
        "graph.automorphisms_us",
        per_setup_call(Layer::GraphAutomorphisms, 1e3),
    );
    values.insert("core.pi_bound_us", per_setup_call(Layer::CorePiBound, 1e3));
    values.insert(
        "behavior.next_port_ns",
        per_call(Layer::BehaviorNextPort, 1.0),
    );
    values.insert(
        "behavior.next_port_calls",
        per_pass(Layer::BehaviorNextPort),
    );
    values.insert(
        "behavior.on_meeting_ns",
        per_call(Layer::BehaviorOnMeeting, 1.0),
    );
    values.insert(
        "behavior.on_meeting_calls",
        per_pass(Layer::BehaviorOnMeeting),
    );
    values.insert("behavior.info_ns", per_call(Layer::BehaviorInfo, 1.0));
    values.insert("runtime.new_us", per_call(Layer::RuntimeNew, 1e3));
    values.insert(
        "runtime.self_ns_per_action",
        layer(Layer::RuntimeRun).self_ns as f64 / run_actions,
    );
    values.insert("runtime.actions", actions);
    values.insert(
        "runtime.traversals_per_action",
        count("runtime.traversals") / actions,
    );
    values.insert("adversary.choose_ns", per_call(Layer::AdversaryChoose, 1.0));
    values.insert("adversary.choose_calls", per_pass(Layer::AdversaryChoose));
    values.insert("stop.check_ns", per_call(Layer::StopCheck, 1.0));
    values.insert("stop.checks", per_pass(Layer::StopCheck));
    values.insert("minimax.search_us", per_call(Layer::MinimaxSearch, 1e3));
    values.insert("store.append_us", per_call(Layer::StoreAppend, 1e3));
    values.insert("store.open_ms", per_call(Layer::StoreOpen, 1e6));
    values.insert("store.get_ns", per_call(Layer::StoreGet, 1.0));
    values.insert(
        "cells.content_key_us",
        per_call(Layer::CellsContentKey, 1e3),
    );
    values.insert("trace.overhead_ratio", overhead);
    values.insert("host.cpus", host_cpus() as f64);
    values.insert("minimax.workers", adapter::search_workers() as f64);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or_else(|| count(name));
            (name, v, unit)
        })
        .collect();
    Report {
        correct: untraced.correct() && traced.correct(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Failure, Run};

    fn run(fingerprint: &str, failure: Option<Failure>) -> Run {
        Run {
            id: fingerprint.to_string(),
            laps: vec![1],
            traversals: 1,
            fingerprint: fingerprint.to_string(),
            failure,
        }
    }

    fn pass(runs: Vec<Run>) -> Pass {
        Pass {
            runs,
            ..Pass::default()
        }
    }

    #[test]
    fn the_tally_counts_failures_and_flags_wrong_outputs_and_mismatches() {
        let mut t = Tally::default();
        t.add(pass(vec![run("a", None), run("b", None)]));
        t.add(pass(vec![
            run("a", Some(Failure::unfinished("retired".into()))),
            run("b", None),
        ]));
        assert_eq!((t.attempted, t.failed, t.correct()), (4, 1, true));
        assert_eq!(t.member_times().len(), 2);
        t.add(pass(vec![
            run("a", None),
            run("b", Some(Failure::wrong("bad".into()))),
        ]));
        assert!(!t.correct());
        let mut drifted = Tally::default();
        drifted.add(pass(vec![run("a", None), run("b", None)]));
        drifted.add(pass(vec![run("a", None), run("c", None)]));
        assert_eq!(drifted.mismatches, 1);
        assert!(!drifted.correct());
    }

    #[test]
    fn a_member_time_sums_each_lap_at_its_fastest() {
        let laps = |l: Vec<u64>| Run {
            laps: l,
            ..run("a", None)
        };
        let mut t = Tally::default();
        t.add(pass(vec![laps(vec![5, 1, 7])]));
        t.add(pass(vec![laps(vec![1, 5, 9])]));
        assert_eq!(t.member_times(), vec![9]);
        assert_eq!(t.timed_ns, 28);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.5), 50);
        assert_eq!(percentile(&xs, 0.9), 90);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let names = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("key present");
            let end = json[start..].find(']').expect("list closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END.map(|(n, _)| n));
        assert_eq!(names("per_layer"), PER_LAYER.map(|(n, _)| n));
    }
}
