//! End-to-end lockdown of the mn-lint rules against synthesized fixture
//! trees, plus the self-check that keeps the real repository clean.
//!
//! Each fixture is a throwaway directory shaped like a miniature
//! workspace; `mn_lint::run` is the same entry point the CI binary
//! uses, so these tests pin the acceptance criterion directly: a seeded
//! violation of every rule makes the run fail, a clean tree passes, and
//! a reasoned allow marker suppresses exactly its own line.

use mn_lint::{run, Options};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static FIXTURE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A temp-dir fixture tree, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(files: &[(&str, &str)]) -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "mn-lint-fixture-{}-{}",
            std::process::id(),
            FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, text) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, text).unwrap();
        }
        Fixture { root }
    }

    /// Lint the fixture with a freshly generated unsafe inventory, so
    /// only the rule under test can fire.
    fn lint(&self) -> mn_lint::report::Report {
        run(&self.root, &Options { update_docs: true }).unwrap()
    }

    /// Lint the fixture as-is (used by the inventory-staleness tests).
    fn lint_no_update(&self) -> mn_lint::report::Report {
        run(&self.root, &Options::default()).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn rules_fired(report: &mn_lint::report::Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.violations.iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

/// A registry fixture whose two sites are both wired, keeping the
/// fault-site rule quiet unless a test seeds a violation.
const FAULTS_RS: &str = r#"
pub mod sites {
    pub const QUEUE_POP: &str = "serve.queue.pop";
    pub const WORKER_EVAL: &str = "serve.worker.eval";
}
pub fn trigger(name: &str) { let _ = name; }
"#;

const SERVE_WIRED: &str = "
pub fn worker() {
    faults::trigger(faults::sites::QUEUE_POP);
    faults::trigger(faults::sites::WORKER_EVAL);
}
";

#[test]
fn clean_fixture_tree_passes() {
    let fx = Fixture::new(&[
        ("crates/ensemble/src/faults.rs", FAULTS_RS),
        ("crates/ensemble/src/serve.rs", SERVE_WIRED),
        ("src/lib.rs", "pub fn fine() -> u32 { 7 }\n"),
    ]);
    let report = fx.lint();
    assert_eq!(report.violations, Vec::new());
    assert_eq!(report.exit_code(), 0);
}

#[test]
fn seeded_safety_comment_violation_fails_the_run() {
    let fx = Fixture::new(&[(
        "src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["safety-comment"]);
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn documented_unsafe_passes_safety_comment() {
    let fx = Fixture::new(&[(
        "src/lib.rs",
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller passes a valid pointer.\n    unsafe { *p }\n}\n",
    )]);
    assert_eq!(fx.lint().violations, Vec::new());
}

#[test]
fn seeded_no_panic_violation_fails_the_run() {
    let fx = Fixture::new(&[(
        "crates/ensemble/src/serve.rs",
        "pub fn answer(q: Option<u32>) -> u32 { q.unwrap() }\n",
    )]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["no-panic-in-serve"]);
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn poison_recovery_and_test_code_are_exempt_from_no_panic() {
    let fx = Fixture::new(&[(
        "crates/ensemble/src/serve.rs",
        "
pub fn locked(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|e| e.into_inner())
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
",
    )]);
    assert_eq!(fx.lint().violations, Vec::new());
}

#[test]
fn seeded_fault_site_typo_fails_the_run() {
    let serve = "
pub fn worker() {
    faults::trigger(faults::sites::QUEUE_POP);
    faults::trigger(faults::sites::WORKER_EVAL);
    scope.enable(\"serve.queue.pops\");
}
";
    let fx = Fixture::new(&[
        ("crates/ensemble/src/faults.rs", FAULTS_RS),
        ("crates/ensemble/src/serve.rs", serve),
    ]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["fault-site-names"]);
    assert!(report.violations[0].message.contains("serve.queue.pops"));
}

#[test]
fn seeded_unwired_fault_site_fails_the_run() {
    let serve = "pub fn worker() { faults::trigger(faults::sites::QUEUE_POP); }\n";
    let fx = Fixture::new(&[
        ("crates/ensemble/src/faults.rs", FAULTS_RS),
        ("crates/ensemble/src/serve.rs", serve),
    ]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["fault-site-names"]);
    assert!(report.violations[0].message.contains("WORKER_EVAL"));
}

#[test]
fn seeded_hot_path_alloc_fails_the_run() {
    let fx = Fixture::new(&[(
        "src/lib.rs",
        "// mn-lint: hot-path\npub fn kernel(xs: &[f32]) -> Vec<f32> { xs.to_vec() }\n",
    )]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["hot-path-alloc"]);
    assert!(report.violations[0].message.contains("to_vec"));
}

#[test]
fn reasoned_allow_marker_suppresses_exactly_its_line() {
    let fx = Fixture::new(&[(
        "crates/ensemble/src/serve.rs",
        "
pub fn answer(q: Option<u32>, r: Option<u32>) -> u32 {
    // mn-lint: allow(no-panic-in-serve, reason = \"fixture: q is checked by the caller\")
    let a = q.unwrap();
    a + r.unwrap()
}
",
    )]);
    let report = fx.lint();
    assert_eq!(report.suppressed, 1);
    assert_eq!(rules_fired(&report), ["no-panic-in-serve"]);
    assert_eq!(report.violations.len(), 1, "only the unmarked line stays");
    assert_eq!(report.violations[0].line, 5);
}

#[test]
fn allow_marker_without_reason_is_itself_a_violation() {
    let fx = Fixture::new(&[(
        "crates/ensemble/src/serve.rs",
        "
pub fn answer(q: Option<u32>) -> u32 {
    // mn-lint: allow(no-panic-in-serve)
    q.unwrap()
}
",
    )]);
    let report = fx.lint();
    let rules = rules_fired(&report);
    assert!(rules.contains(&"allow-marker"), "{rules:?}");
    assert!(
        rules.contains(&"no-panic-in-serve"),
        "a reasonless marker must not suppress: {rules:?}"
    );
}

#[test]
fn allow_marker_naming_unknown_rule_is_flagged() {
    let fx = Fixture::new(&[(
        "src/lib.rs",
        "// mn-lint: allow(no-panics-in-serve, reason = \"typo'd rule name\")\npub fn f() {}\n",
    )]);
    let report = fx.lint();
    assert_eq!(rules_fired(&report), ["allow-marker"]);
    assert!(report.violations[0].message.contains("no-panics-in-serve"));
}

#[test]
fn missing_and_stale_inventories_are_flagged() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: fixture pointer is valid.\n    unsafe { *p }\n}\n";
    let fx = Fixture::new(&[("src/lib.rs", src)]);
    // Missing entirely.
    let report = fx.lint_no_update();
    assert_eq!(rules_fired(&report), ["unsafe-inventory"]);
    // Regenerated: clean.
    assert_eq!(fx.lint().violations, Vec::new());
    assert_eq!(fx.lint_no_update().violations, Vec::new());
    // Hand-edited: stale again.
    let doc = fx.root.join("docs/UNSAFE.md");
    let mut text = std::fs::read_to_string(&doc).unwrap();
    text.push_str("\nhand edit\n");
    std::fs::write(&doc, text).unwrap();
    assert_eq!(rules_fired(&fx.lint_no_update()), ["unsafe-inventory"]);
}

#[test]
fn github_rendering_emits_one_annotation_per_violation() {
    let fx = Fixture::new(&[(
        "crates/ensemble/src/serve.rs",
        "pub fn answer(q: Option<u32>) -> u32 { q.unwrap() }\n",
    )]);
    let report = fx.lint();
    let gh = report.render_github();
    assert_eq!(gh.lines().count(), report.violations.len());
    assert!(
        gh.starts_with("::error file=crates/ensemble/src/serve.rs,line=1,"),
        "{gh}"
    );
    let json = report.render_json();
    assert!(json.contains("\"rule\": \"no-panic-in-serve\""), "{json}");
}

/// The acceptance check: the real repository is lint-clean. This is
/// what makes every invariant above *enforced* rather than aspirational
/// — `cargo test` fails the moment HEAD regresses.
#[test]
fn repository_head_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root, &Options::default()).unwrap();
    assert_eq!(
        report.violations,
        Vec::new(),
        "repo HEAD has mn-lint violations; run `cargo run -p mn-lint` for the report"
    );
    assert!(report.files_scanned > 50, "walker found too few files");
}
