//! # mdp-bench — the reproduction harness
//!
//! Every table (T1–T15) and figure (F1–F6) of the reconstructed
//! evaluation, plus the ablations (A2–A5), as callable experiments.
//! The `repro` binary runs them and writes markdown + CSV into
//! `target/repro/`.
//!
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for the
//! recorded outcomes.

pub mod experiments;
pub mod workloads;

use mdp_perf::Table;
use std::fs;
use std::path::PathBuf;

/// Output directory for reproduction artifacts.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Persist a table as `<id>.md` and `<id>.csv` under [`out_dir`] and
/// echo the markdown to stdout.
pub fn save(id: &str, table: &Table) {
    let dir = out_dir();
    let _ = fs::write(dir.join(format!("{id}.md")), table.to_markdown());
    let _ = fs::write(dir.join(format!("{id}.csv")), table.to_csv());
    println!("{}", table.to_markdown());
}

/// Effort scaling for the experiments: `Quick` shrinks workloads ~an
/// order of magnitude so the full suite runs in well under a minute;
/// `Full` is the paper-scale configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// CI-size workloads.
    Quick,
    /// Paper-size workloads.
    Full,
}

impl Effort {
    /// Scale an integer workload parameter.
    pub fn scale(&self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }

    /// Scale a u64 workload parameter.
    pub fn scale64(&self, quick: u64, full: u64) -> u64 {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_exists_after_call() {
        let d = out_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Quick.scale(2, 20), 2);
        assert_eq!(Effort::Full.scale(2, 20), 20);
        assert_eq!(Effort::Full.scale64(1, 7), 7);
    }

    #[test]
    fn save_writes_files() {
        let mut t = Table::new("smoke", &["a"]);
        t.push(&[1]);
        save("smoke_test", &t);
        assert!(out_dir().join("smoke_test.md").exists());
        assert!(out_dir().join("smoke_test.csv").exists());
    }
}
