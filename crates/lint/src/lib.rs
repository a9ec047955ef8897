//! `mn-lint`: tidy-style, dependency-free static analysis for this
//! workspace.
//!
//! The codebase rests on invariants `rustc` and `clippy` cannot see:
//! `unsafe` SIMD kernels whose soundness arguments live in comments, a
//! string-named fault-injection registry, a serve path whose only
//! sanctioned panic pattern is poison recovery, and measured zero-alloc
//! hot paths. Each of those
//! contracts is one careless edit away from silently dissolving —
//! so, like rustc's `tidy`, this crate parses the source tree itself
//! and fails CI on drift.
//!
//! Run as a test (`cargo test -p mn-lint` includes a repo-clean check)
//! or as a binary (`cargo run -p mn-lint`, the CI lint job). See the
//! README's "Static analysis" section for the rule list and the
//! `mn-lint: allow(<rule>, reason = "...")` escape hatch.

pub mod lexer;
pub mod lints;
pub mod report;
pub mod source;
pub mod unsafe_sites;
pub mod walk;

use report::{Report, Violation};
use std::path::Path;

/// Options for one lint run.
#[derive(Default)]
pub struct Options {
    /// Rewrite `docs/UNSAFE.md` from the tree instead of checking it.
    pub update_docs: bool,
}

/// Runs every registered lint over the tree rooted at `root`.
pub fn run(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let tree = walk::load_tree(root)?;
    if opts.update_docs {
        let path = tree.root.join(lints::INVENTORY_PATH);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, lints::generate_inventory(&tree))?;
    }

    let mut lints = lints::all();
    let rule_names = lints::rule_names();
    let mut violations = Vec::new();
    for file in &tree.rust_files {
        for lint in &mut lints {
            lint.check_file(file, &mut violations);
        }
        // Malformed or unknown markers are violations themselves: a
        // suppression that silently fails to parse would un-suppress
        // (or worse, a typo'd rule name would suppress nothing).
        for err in &file.marker_errors {
            violations.push(Violation {
                rule: "allow-marker",
                file: file.rel_path.clone(),
                line: err.line,
                message: err.message.clone(),
            });
        }
        for allow in &file.allows {
            if !rule_names.contains(&allow.rule.as_str()) {
                violations.push(Violation {
                    rule: "allow-marker",
                    file: file.rel_path.clone(),
                    line: allow.line,
                    message: format!(
                        "allow marker names unknown rule `{}` (known: {})",
                        allow.rule,
                        rule_names.join(", ")
                    ),
                });
            }
        }
    }
    for lint in &mut lints {
        lint.finish(&tree, &mut violations);
    }

    // Apply reasoned `mn-lint: allow` markers.
    let mut suppressed = 0usize;
    violations.retain(|v| {
        let allowed = tree
            .rust_files
            .iter()
            .find(|f| f.rel_path == v.file)
            .is_some_and(|f| f.is_allowed(v.rule, v.line));
        if allowed {
            suppressed += 1;
        }
        !allowed
    });
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Ok(Report {
        violations,
        suppressed,
        files_scanned: tree.rust_files.len(),
    })
}
