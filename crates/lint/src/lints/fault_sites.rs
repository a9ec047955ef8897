//! `fault-site-names`: the fault-injection registry is stringly-typed
//! by design (sites are armed from tests by name), which means a typo'd
//! name is a *silent no-op* — the chaos test thinks it armed a fault
//! and the fault never fires. This rule closes that hole from both
//! ends:
//!
//! * every **string literal** passed to `faults::trigger` / `enable` /
//!   `enable_times` / `disable` / `fired` must equal the value of a
//!   constant declared in `mn_ensemble::faults::sites`;
//! * every **declared site** must be wired into a `trigger` call
//!   somewhere in non-test code — a site nothing triggers is dead
//!   chaos coverage.
//!
//! Arguments that are not literals (the `sites::NAME` constants, or
//! computed expressions like `SITES[i]`) are resolved by constant name
//! where possible and otherwise left to the type system. `#[cfg(test)]`
//! modules are exempt from the literal rule so the registry's own unit
//! tests can exercise arbitrary names.

use super::Lint;
use crate::lexer::TokenKind;
use crate::report::Violation;
use crate::source::SourceFile;
use crate::walk::Tree;

/// Where the site constants are declared.
const SITES_FILE: &str = "crates/ensemble/src/faults.rs";

/// The registry functions whose first argument is a site name.
const SITE_FNS: [&str; 5] = ["trigger", "enable", "enable_times", "disable", "fired"];

#[derive(Default)]
pub struct FaultSiteNames {
    /// Declared constants: (const name, string value, decl line).
    declared: Vec<(String, String, usize)>,
    /// Const names seen as a `trigger` argument in non-test code.
    triggered: Vec<String>,
    /// Literal string values seen as a `trigger` argument in non-test
    /// code — these also wire a site (membership is checked separately).
    triggered_values: Vec<String>,
    /// Deferred literal checks: (file, line, literal value).
    literals: Vec<(String, usize, String)>,
    saw_sites_file: bool,
}

impl Lint for FaultSiteNames {
    fn name(&self) -> &'static str {
        "fault-site-names"
    }

    fn description(&self) -> &'static str {
        "fault-registry names must match declared `faults::sites` constants, and every site must be triggered"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Violation>) {
        let _ = out;
        if file.rel_path == SITES_FILE {
            self.saw_sites_file = true;
            self.declared = declared_sites(file);
        }
        for k in 0..file.sig.len() {
            if file.sig_kind(k) != TokenKind::Ident || !SITE_FNS.contains(&file.sig_text(k)) {
                continue;
            }
            // `fn trigger(name: &str)` is the definition, not a call.
            if k > 0 && file.sig_text(k - 1) == "fn" {
                continue;
            }
            if file.sig.get(k + 1).map(|_| file.sig_text(k + 1)) != Some("(") {
                continue;
            }
            let line = file.sig_line(k);
            if file.in_test_code(line) && file.rel_path == SITES_FILE {
                // The registry's own unit tests arm throwaway names.
                continue;
            }
            let is_trigger = file.sig_text(k) == "trigger";
            // First argument: tokens up to the first depth-0 comma or
            // the closing paren.
            let mut j = k + 2;
            let mut depth = 0usize;
            let mut literal: Option<String> = None;
            let mut const_ref: Option<String> = None;
            while j < file.sig.len() {
                let t = file.sig_text(j);
                match t {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth == 0 => break,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {
                        if file.sig_kind(j) == TokenKind::Str && literal.is_none() {
                            literal = Some(unquote(t));
                        }
                        if file.sig_kind(j) == TokenKind::Ident
                            && t.chars().all(|c| c.is_ascii_uppercase() || c == '_')
                            && const_ref.is_none()
                        {
                            const_ref = Some(t.to_string());
                        }
                    }
                }
                j += 1;
            }
            if let Some(value) = literal {
                if is_trigger && !file.in_test_code(line) {
                    self.triggered_values.push(value.clone());
                }
                self.literals.push((file.rel_path.clone(), line, value));
            } else if let Some(name) = const_ref {
                if is_trigger && !file.in_test_code(line) {
                    self.triggered.push(name);
                }
            }
        }
    }

    fn finish(&mut self, _tree: &Tree, out: &mut Vec<Violation>) {
        if !self.saw_sites_file {
            // Nothing declared (e.g. a fixture tree without the
            // registry): every literal is unverifiable, so say so.
            for (file, line, value) in &self.literals {
                out.push(Violation {
                    rule: self.name(),
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "fault site {value:?} cannot be checked: {SITES_FILE} \
                         (the `faults::sites` declarations) was not found"
                    ),
                });
            }
            return;
        }
        for (file, line, value) in &self.literals {
            if !self.declared.iter().any(|(_, v, _)| v == value) {
                let known: Vec<&str> = self.declared.iter().map(|(_, v, _)| v.as_str()).collect();
                out.push(Violation {
                    rule: self.name(),
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "fault site {value:?} matches no constant in \
                         `faults::sites` — a typo here is a silent no-op \
                         (declared: {known:?}); use the `sites::` constants"
                    ),
                });
            }
        }
        for (name, value, line) in &self.declared {
            let wired = self.triggered.iter().any(|t| t == name)
                || self.triggered_values.iter().any(|v| v == value);
            if !wired {
                out.push(Violation {
                    rule: self.name(),
                    file: SITES_FILE.to_string(),
                    line: *line,
                    message: format!(
                        "declared fault site `{name}` ({value:?}) is never wired into a \
                         `faults::trigger` call — dead chaos coverage"
                    ),
                });
            }
        }
    }
}

/// Extracts `(NAME, value, line)` triples from the `pub mod sites`
/// block: `pub const NAME: &str = "value";`.
fn declared_sites(file: &SourceFile) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    let Some(mod_k) = (0..file.sig.len().saturating_sub(1))
        .find(|&k| file.sig_text(k) == "mod" && file.sig_text(k + 1) == "sites")
    else {
        return out;
    };
    let Some(open) = (mod_k..file.sig.len()).find(|&k| file.sig_text(k) == "{") else {
        return out;
    };
    let Some(close) = file.matching_close(open) else {
        return out;
    };
    let mut k = open;
    while k + 2 < close {
        if file.sig_text(k) == "const" && file.sig_kind(k + 1) == TokenKind::Ident {
            let name = file.sig_text(k + 1).to_string();
            let line = file.sig_line(k + 1);
            // Scan to the `=` and take the string literal after it.
            let mut j = k + 2;
            while j < close && file.sig_text(j) != ";" {
                if file.sig_kind(j) == TokenKind::Str {
                    out.push((name.clone(), unquote(file.sig_text(j)), line));
                    break;
                }
                j += 1;
            }
        }
        k += 1;
    }
    out
}

/// Strips the quotes (and any `b`/`r#` prefix) off a lexed string
/// literal, returning its raw contents. Escapes are left as written:
/// site names are plain ASCII identifiers with dots.
fn unquote(lit: &str) -> String {
    let inner = lit.trim_start_matches(['b', 'c', 'r']).trim_matches('#');
    inner.trim_matches('"').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULTS_SRC: &str = "\
pub mod sites {
    pub const QUEUE_POP: &str = \"serve.queue.pop\";
    pub const WORKER_EVAL: &str = \"serve.worker.eval\";
}
pub fn trigger(name: &str) {}
";

    fn run(files: Vec<(&str, &str)>) -> Vec<Violation> {
        let mut lint = FaultSiteNames::default();
        let mut out = Vec::new();
        let parsed: Vec<SourceFile> = files
            .into_iter()
            .map(|(p, s)| SourceFile::parse(p.into(), s.into()))
            .collect();
        for f in &parsed {
            lint.check_file(f, &mut out);
        }
        let tree = Tree {
            root: std::path::PathBuf::new(),
            rust_files: parsed,
        };
        lint.finish(&tree, &mut out);
        out
    }

    #[test]
    fn matching_literal_and_const_paths_are_clean() {
        let serve = "\
fn worker() {
    faults::trigger(faults::sites::QUEUE_POP);
    faults::trigger(\"serve.worker.eval\");
}
";
        let out = run(vec![
            (SITES_FILE, FAULTS_SRC),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn typod_literal_is_flagged() {
        let serve = "fn worker() { faults::trigger(faults::sites::QUEUE_POP); scope.enable_times(\"serve.queue.pp\", a, 1); faults::trigger(\"serve.worker.eval\"); }";
        let out = run(vec![
            (SITES_FILE, FAULTS_SRC),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("serve.queue.pp"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn untriggered_declared_site_is_flagged() {
        let serve = "fn worker() { faults::trigger(faults::sites::QUEUE_POP); }";
        let out = run(vec![
            (SITES_FILE, FAULTS_SRC),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("WORKER_EVAL"), "{}", out[0].message);
    }

    #[test]
    fn registry_unit_tests_may_use_throwaway_names() {
        let faults_with_tests = format!(
            "{FAULTS_SRC}#[cfg(test)]\nmod tests {{\n    fn t() {{ trigger(\"nope\"); }}\n}}\n"
        );
        let serve = "fn worker() { faults::trigger(faults::sites::QUEUE_POP); faults::trigger(faults::sites::WORKER_EVAL); }";
        let out = run(vec![
            (SITES_FILE, &faults_with_tests),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn literal_trigger_of_a_known_site_counts_as_wired() {
        // A literal equal to a declared value passed the membership
        // check, so the site demonstrably fires — it is wired.
        let serve =
            "fn worker() { faults::trigger(\"serve.queue.pop\"); faults::trigger(faults::sites::WORKER_EVAL); }";
        let out = run(vec![
            (SITES_FILE, FAULTS_SRC),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn test_only_trigger_does_not_wire_a_site() {
        // Triggering from #[cfg(test)] code is not production wiring.
        let serve = "\
fn worker() { faults::trigger(faults::sites::QUEUE_POP); }
#[cfg(test)]
mod tests {
    fn t() { faults::trigger(faults::sites::WORKER_EVAL); }
}
";
        let out = run(vec![
            (SITES_FILE, FAULTS_SRC),
            ("crates/ensemble/src/serve.rs", serve),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("WORKER_EVAL"));
    }
}
