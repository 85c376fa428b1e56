//! Records the compiler version and the `target-cpu` the crates were
//! built with, for the provenance stamp on every benchmark record.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Cargo passes the effective flags (from `.cargo/config.toml` or
    // RUSTFLAGS) to build scripts, separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| f.split_once("target-cpu=").map(|(_, v)| v.to_string()))
        .unwrap_or_else(|| "default".into());
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2EBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
