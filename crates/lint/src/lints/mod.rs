//! The pluggable lint passes.
//!
//! A [`Lint`] sees every Rust file once (`check_file`), then gets a
//! whole-tree `finish` call for cross-file conclusions (declared
//! fault sites vs. their uses).
//! Violations are emitted eagerly; the driver applies `mn-lint: allow`
//! suppression afterwards, so lints stay oblivious to markers.
//!
//! Adding a lint: implement [`Lint`], give it a unique kebab-case
//! `name()` (that name is what allow markers reference), and add it to
//! [`all`]. Fixture coverage in `tests/rules.rs` should seed one
//! violation and one clean case.

use crate::report::Violation;
use crate::source::SourceFile;
use crate::walk::Tree;

mod fault_sites;
mod hot_path;
mod no_panic;
mod safety_comment;
mod unsafe_inventory;

pub use unsafe_inventory::{generate_inventory, INVENTORY_PATH};

/// One tidy-style rule.
pub trait Lint {
    /// The rule's kebab-case name, referenced by allow markers.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README table.
    fn description(&self) -> &'static str;
    /// Per-file pass over every lexed Rust file.
    fn check_file(&mut self, _file: &SourceFile, _out: &mut Vec<Violation>) {}
    /// Whole-tree pass, after every file has been seen.
    fn finish(&mut self, _tree: &Tree, _out: &mut Vec<Violation>) {}
}

/// Every registered lint, in reporting order.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(safety_comment::SafetyComment),
        Box::new(no_panic::NoPanicInServe),
        Box::new(fault_sites::FaultSiteNames::default()),
        Box::new(hot_path::HotPathAlloc),
        Box::new(unsafe_inventory::UnsafeInventory),
    ]
}

/// The names of every registered rule (for allow-marker validation).
pub fn rule_names() -> Vec<&'static str> {
    all().iter().map(|l| l.name()).collect()
}
