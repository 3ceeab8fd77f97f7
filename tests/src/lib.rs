//! Integration-test crate for the `footsteps` workspace.
//!
//! The library itself is empty; all content lives in `tests/` (the Cargo
//! integration-test directory of this member crate), where each file
//! exercises flows that span multiple workspace crates.
