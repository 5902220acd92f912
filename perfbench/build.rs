//! Stamps the binary with the git revision and the compiler version, so
//! every report says which code and toolchain produced it. A checkout
//! without `.git` (an exported tree) stamps the revision as `unknown`.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = repo.join(".git");
    let mut rev = None;
    if git.exists() {
        rev = output(Command::new("git").arg("-C").arg(&repo).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]));
        // Only existing paths: a missing one would rerun this script, and
        // rebuild the benchmark, on every build.
        for p in ["HEAD", "refs", "packed-refs"] {
            if git.join(p).exists() {
                println!("cargo:rerun-if-changed={}", git.join(p).display());
            }
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let rustc_version = output(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("unknown")
    );
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        rustc_version.as_deref().unwrap_or("unknown")
    );
}
