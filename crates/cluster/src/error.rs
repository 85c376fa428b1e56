//! Errors surfaced by the SPMD runtime.

use std::fmt;

/// Failure of an SPMD run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// One or more ranks panicked; the payload lists `(rank, message)`.
    RanksFailed(Vec<(usize, String)>),
    /// `run_spmd` was asked for zero ranks.
    ZeroRanks,
    /// A rank index was out of range for the communicator size.
    InvalidRank { rank: usize, size: usize },
    /// Every unfinished rank waits in a receive that no send can
    /// satisfy any more (a mismatched send/recv program): the run can
    /// never progress. Names the lowest such rank's receive.
    Deadlock {
        /// Rank whose `recv` can never complete.
        rank: usize,
        /// Rank it was waiting on.
        src: usize,
        /// Tag it was waiting for.
        tag: crate::message::Tag,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::RanksFailed(rs) => {
                write!(f, "{} rank(s) failed:", rs.len())?;
                for (r, m) in rs {
                    write!(f, " [rank {r}: {m}]")?;
                }
                Ok(())
            }
            ClusterError::ZeroRanks => write!(f, "an SPMD run needs at least one rank"),
            ClusterError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for size {size}")
            }
            ClusterError::Deadlock { rank, src, tag } => {
                write!(f, "rank {rank} deadlocked waiting for src {src} tag {tag}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_failed_ranks() {
        let e = ClusterError::RanksFailed(vec![(2, "boom".into())]);
        let s = e.to_string();
        assert!(s.contains("rank 2"));
        assert!(s.contains("boom"));
    }

    #[test]
    fn deadlock_display_names_the_blocked_pair() {
        let e = ClusterError::Deadlock {
            rank: 1,
            src: 3,
            tag: 7,
        };
        let s = e.to_string();
        assert!(s.contains("rank 1"));
        assert!(s.contains("src 3"));
        assert!(s.contains("tag 7"));
    }
}
