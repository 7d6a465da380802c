//! Rule-level tests: every fixture under `tests/fixtures/` triggers
//! exactly the one rule it is named after, suppressions work (and demand
//! reasons), and — the self-test — the workspace itself lints clean with
//! the committed allowlist.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Scans one fixture and asserts every finding carries `rule` (and that
/// there is at least one — a fixture that stops firing is a dead test).
fn assert_fixture_triggers(name: &str, rule: &str, expected_count: usize) {
    let report = rv_lint::scan(&fixture(name)).expect("fixture scans");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec![rule; expected_count],
        "fixture {name} must trigger exactly {expected_count} × {rule}, got {:#?}",
        report.findings
    );
}

#[test]
fn det_hash_collections_fixture() {
    assert_fixture_triggers("det_hash_collections.rs", "det-hash-collections", 1);
}

#[test]
fn det_wall_clock_fixture() {
    assert_fixture_triggers("det_wall_clock.rs", "det-wall-clock", 1);
}

#[test]
fn det_thread_id_fixture() {
    assert_fixture_triggers("det_thread_id.rs", "det-thread-id", 1);
}

#[test]
fn panic_bare_unwrap_fixture() {
    assert_fixture_triggers("panic_bare_unwrap.rs", "panic-bare-unwrap", 1);
}

#[test]
fn panic_bare_macro_fixture() {
    assert_fixture_triggers("panic_bare_macro.rs", "panic-bare-macro", 1);
}

#[test]
fn panic_catch_unwind_recovery_fixture() {
    assert_fixture_triggers(
        "panic_catch_unwind_recovery.rs",
        "panic-catch-unwind-recovery",
        1,
    );
}

#[test]
fn atomics_ordering_comment_fixture() {
    assert_fixture_triggers("atomics_ordering_comment.rs", "atomics-ordering-comment", 1);
}

#[test]
fn unsafe_needs_safety_comment_fixture() {
    assert_fixture_triggers(
        "unsafe_needs_safety_comment.rs",
        "unsafe-needs-safety-comment",
        1,
    );
}

#[test]
fn crate_forbids_unsafe_fixture() {
    assert_fixture_triggers("crate_forbids_unsafe.rs", "crate-forbids-unsafe", 1);
}

#[test]
fn api_meetinglog_to_vec_fixture() {
    assert_fixture_triggers("api_meetinglog_to_vec.rs", "api-meetinglog-to-vec", 1);
}

#[test]
fn api_atomic_output_write_fixture() {
    assert_fixture_triggers("api_atomic_output_write.rs", "api-atomic-output-write", 2);
}

// ------------------------------------------------------ scoping behaviour

/// Scans inline source by writing it to a temp file (unique per test).
fn scan_src(name: &str, src: &str) -> rv_lint::Report {
    let dir = std::env::temp_dir().join(format!("rv_lint_test_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("input.rs");
    std::fs::write(&path, src).expect("write temp fixture");
    let report = rv_lint::scan(&path).expect("temp fixture scans");
    std::fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn test_like_paths_are_exempt_from_panic_and_determinism_packs() {
    let src = "\
// lint-fixture: as=crates/sim/tests/integration.rs
pub fn f(m: &std::collections::HashMap<u8, u8>) -> u8 { *m.get(&0).unwrap() }
";
    let report = scan_src("testlike", src);
    assert!(
        report.findings.is_empty(),
        "tests are exempt, got {:#?}",
        report.findings
    );
}

#[test]
fn bench_crate_is_exempt_from_panic_and_determinism_packs() {
    let src = "\
// lint-fixture: as=crates/bench/src/bin/perf_baseline.rs
pub fn t() -> std::time::Instant { std::time::Instant::now() }
";
    let report = scan_src("bench", src);
    assert!(
        report.findings.is_empty(),
        "the bench harness may use wall-clock, got {:#?}",
        report.findings
    );
}

#[test]
fn non_fingerprint_crates_may_use_hash_collections() {
    let src = "\
// lint-fixture: as=crates/graph/src/fixture.rs
pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize { m.len() }
";
    let report = scan_src("nonfingerprint", src);
    assert!(
        report.findings.is_empty(),
        "rv_graph is not fingerprint-feeding, got {:#?}",
        report.findings
    );
}

#[test]
fn det_thread_id_has_no_minimax_exemption() {
    // The minimax search is single-threaded: no library file may branch
    // on thread identity, the search included.
    let src = "\
// lint-fixture: as=crates/sim/src/minimax.rs
pub fn f() -> std::thread::ThreadId { std::thread::current().id() }
";
    let report = scan_src("thread_id_minimax", src);
    assert_eq!(
        report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        vec!["det-thread-id"],
        "got {:#?}",
        report.findings
    );
}

#[test]
fn atomics_rule_applies_even_in_cfg_test_modules() {
    // Concurrency discipline has no test exemption: a miscommented
    // ordering in a test misleads the next reader just as much.
    let src = "\
// lint-fixture: as=crates/sim/src/fixture.rs
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    fn f(c: &AtomicUsize) -> usize { c.load(Ordering::SeqCst) }
}
";
    let report = scan_src("atomics_test_mod", src);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "atomics-ordering-comment");
}

// -------------------------------------------------------------- suppressions

#[test]
fn inline_allow_with_reason_suppresses() {
    let src = "\
// lint-fixture: as=crates/sim/src/fixture.rs
pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize {
    // lint:allow(det-hash-collections) — keyed lookups only, never iterated
    m.len()
}
";
    // The suppression must sit adjacent to the *finding* line.
    let src = src.replace(
        "pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize {",
        "// lint:allow(det-hash-collections) — keyed lookups only, never iterated\npub fn f(m: &std::collections::HashMap<u8, u8>) -> usize {",
    );
    let report = scan_src("allow_ok", &src);
    assert!(
        report.findings.is_empty(),
        "justified suppression must hold, got {:#?}",
        report.findings
    );
}

#[test]
fn inline_allow_without_reason_is_itself_a_finding() {
    let src = "\
// lint-fixture: as=crates/sim/src/fixture.rs
// lint:allow(det-hash-collections)
pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize { m.len() }
";
    let report = scan_src("allow_bare", src);
    assert_eq!(
        report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        vec!["meta-allow-needs-reason"],
        "got {:#?}",
        report.findings
    );
}

#[test]
fn inline_allow_of_unknown_rule_is_reported() {
    let src = "\
// lint-fixture: as=crates/sim/src/fixture.rs
// lint:allow(det-hashmap-typo) — a justification that is long enough
pub fn f() {}
";
    let report = scan_src("allow_unknown", src);
    assert_eq!(
        report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        vec!["meta-unknown-rule"],
        "got {:#?}",
        report.findings
    );
}

#[test]
fn allow_on_unrelated_line_does_not_suppress() {
    let src = "\
// lint-fixture: as=crates/sim/src/fixture.rs
// lint:allow(det-hash-collections) — far away from the finding, void

pub fn spacer() {}

pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize { m.len() }
";
    let report = scan_src("allow_far", src);
    assert_eq!(
        report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        vec!["det-hash-collections"],
        "got {:#?}",
        report.findings
    );
}

// ----------------------------------------------------------------- allowlist

#[test]
fn allowlist_parses_and_demands_reasons() {
    let good = r#"
[[allow]]
rule = "det-hash-collections"
path = "crates/sim/src/x.rs"
reason = "keyed lookups only; the map is never iterated"
"#;
    let parsed = rv_lint::config::parse_allowlist(good);
    assert_eq!(parsed.entries.len(), 1);
    assert!(parsed.errors.is_empty());
    assert!(parsed.entries[0].covers("det-hash-collections", "crates/sim/src/x.rs", 7));
    assert!(!parsed.entries[0].covers("det-wall-clock", "crates/sim/src/x.rs", 7));

    let bare = r#"
[[allow]]
rule = "det-hash-collections"
path = "crates/sim/src/x.rs"
reason = "because"
"#;
    let parsed = rv_lint::config::parse_allowlist(bare);
    assert!(parsed.entries.is_empty());
    assert_eq!(parsed.errors.len(), 1, "too-short reason must be rejected");

    let unknown_key = "[[allow]]\nruel = \"typo\"\n";
    assert!(!rv_lint::config::parse_allowlist(unknown_key)
        .errors
        .is_empty());
}

// ------------------------------------------------------------------ self-test

/// THE gate: the workspace — with its committed `lint.toml` — lints clean.
/// Any regression against any rule pack fails `cargo test` right here,
/// before CI.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file() && root.join("crates").is_dir(),
        "workspace root resolution broke: {}",
        root.display()
    );
    let report = rv_lint::scan(&root).expect("workspace scans");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (≈90 files today; a
    // collapse to a handful means the walker broke, not the code).
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}
