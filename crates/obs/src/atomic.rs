//! Whole-file atomic writes: the one tmp + rename discipline shared by
//! every persisted artifact written whole (Chrome traces, sweep manifests
//! and per-seed results).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The staging path for `path`: a `<file name>.tmp` sibling.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically: a full write to its
/// [`tmp_sibling`], then a rename, so a killed run leaves either the
/// previous complete file or none, never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_sibling_keeps_the_whole_file_name() {
        assert_eq!(tmp_sibling(Path::new("d/a.x")), Path::new("d/a.x.tmp"));
        assert_ne!(tmp_sibling(Path::new("a.x")), tmp_sibling(Path::new("a.y")));
        assert_eq!(tmp_sibling(Path::new("manifest")), Path::new("manifest.tmp"));
    }

    #[test]
    fn write_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("footsteps_obs_atomic_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!tmp_sibling(&path).exists(), "tmp file left behind");
        fs::remove_dir_all(&dir).ok();
    }
}
