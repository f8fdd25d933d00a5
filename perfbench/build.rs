//! Stamps the binary with the compiler version, the git revision (when
//! the sources are a git checkout) and a digest of the measured sources,
//! so every result names the code and toolchain it came from.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"))
            .join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = command_line(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    // Only ask git when the repository root itself is a checkout, so an
    // enclosing repository is never mistaken for this one.
    let rev = if root.join(".git").exists() {
        command_line(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    let mut files = Vec::new();
    for dir in ["Cargo.toml", "src", "crates", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let bytes = std::fs::read(file).expect("source file is readable");
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "none".into())
    );
    println!("cargo:rustc-env=PERFBENCH_SRC_DIGEST={digest:016x}");
    for watched in [
        "Cargo.toml",
        "src",
        "crates",
        "perfbench/src",
        ".git/HEAD",
        ".git/refs/heads",
    ] {
        println!("cargo:rerun-if-changed={}", root.join(watched).display());
    }
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Every regular file under `path` (or `path` itself).
fn collect(path: &Path, files: &mut Vec<PathBuf>) {
    if path.is_file() {
        files.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), files);
        }
    }
}
