//! PDE-engine errors.

use mdp_model::ModelError;
use std::fmt;

/// Failures of the finite-difference engines.
#[derive(Debug, Clone, PartialEq)]
pub enum PdeError {
    /// The grid is too small: the explicit scheme needs 3 spatial points
    /// and 1 time step, Crank–Nicolson (for its half grid) 5 and 2.
    GridTooSmall { space: usize, time: usize },
    /// The explicit scheme's CFL-type stability bound was violated.
    Unstable {
        /// The offending ratio `σ²Δt/Δx²`.
        ratio: f64,
    },
    /// Model-layer validation failed.
    Model(ModelError),
    /// The run's cooperative cancel token tripped (deadline expired or
    /// the caller abandoned the request) before the sweep finished.
    Cancelled,
}

impl fmt::Display for PdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdeError::GridTooSmall { space, time } => {
                write!(f, "grid too small: {space} space points, {time} time steps")
            }
            PdeError::Unstable { ratio } => write!(
                f,
                "explicit scheme unstable: σ²Δt/Δx² = {ratio:.3} > 0.5; refine time or coarsen space"
            ),
            PdeError::Model(e) => write!(f, "{e}"),
            PdeError::Cancelled => write!(f, "finite-difference sweep cancelled before completion"),
        }
    }
}

impl std::error::Error for PdeError {}

impl From<ModelError> for PdeError {
    fn from(e: ModelError) -> Self {
        PdeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(PdeError::Unstable { ratio: 0.9 }
            .to_string()
            .contains("0.9"));
        assert!(PdeError::GridTooSmall { space: 2, time: 0 }
            .to_string()
            .contains("2"));
    }
}
