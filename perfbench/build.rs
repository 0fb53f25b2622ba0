//! Records build provenance (compiler version, profile, source revision)
//! as compile-time environment variables for the result's provenance block.

use std::path::PathBuf;
use std::process::Command;

fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    // The revision of the tree this package sits in, and only that tree:
    // git must not walk above the repository root looking for another.
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default());
    let root = manifest.parent().map(PathBuf::from).unwrap_or_default();
    let mut git = Command::new("git");
    git.arg("-C").arg(&root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let commit = capture(&mut git).unwrap_or_else(|| "unavailable".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
