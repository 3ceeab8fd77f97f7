//! Workspace file discovery: which `.rs` files get linted.
//!
//! The scan set is `crates/<k>/{src,tests,examples,benches}` plus the
//! `tests/` integration member (`tests/src`, `tests/tests`), recursively,
//! sorted for deterministic output. `target/`, `vendor/` (work-alike
//! crates are third-party API slices, not product code) and any directory
//! named `fixtures` (the lint's own seeded-violation corpus) are skipped.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under a crate root that are scanned.
const CRATE_SECTIONS: &[&str] = &["src", "tests", "examples", "benches"];

/// All files to lint, as `(workspace-relative path, absolute path)`,
/// sorted by relative path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let krate = entry?.path();
            if !krate.is_dir() {
                continue;
            }
            for section in CRATE_SECTIONS {
                collect_rs(&krate.join(section), root, &mut out)?;
            }
        }
    }
    for section in ["src", "tests"] {
        collect_rs(&root.join("tests").join(section), root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    out: &mut Vec<(String, PathBuf)>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}
