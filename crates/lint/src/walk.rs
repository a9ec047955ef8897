//! File-tree walker: collects the lintable surface of the workspace.
//!
//! In scope: `src/`, `tests/`, and every `crates/*/src` and
//! `crates/*/tests`. Out of scope: `vendor/` (third-party stand-ins with
//! their own conventions, see vendor/README.md), `target/`, and
//! `examples/` (smoke-run by CI, not part of the serving stack's
//! invariant surface).

use std::fs;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Everything a lint run can look at.
pub struct Tree {
    pub root: PathBuf,
    pub rust_files: Vec<SourceFile>,
}

/// Loads the lintable tree under `root`. Missing directories are simply
/// skipped, so synthesized fixture trees stay small.
pub fn load_tree(root: &Path) -> std::io::Result<Tree> {
    let mut rust_dirs = vec![root.join("src"), root.join("tests")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_roots: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_roots.sort();
        for c in crate_roots {
            rust_dirs.push(c.join("src"));
            rust_dirs.push(c.join("tests"));
        }
    }

    let mut rust_paths = Vec::new();
    for dir in rust_dirs {
        collect_files(&dir, "rs", &mut rust_paths)?;
    }
    rust_paths.sort();

    let mut rust_files = Vec::new();
    for path in rust_paths {
        let text = fs::read_to_string(&path)?;
        rust_files.push(SourceFile::parse(rel(root, &path), text));
    }

    Ok(Tree {
        root: root.to_path_buf(),
        rust_files,
    })
}

/// Recursively collects files with `ext` under `dir` (no-op when `dir`
/// does not exist).
fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_files(&path, ext, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
