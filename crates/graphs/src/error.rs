//! Error type shared by graph construction and generators.

use std::error::Error;
use std::fmt;

/// Errors arising while constructing or generating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referenced a vertex `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// The number of vertices in the graph under construction.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the crate models loop-free
    /// multigraphs (the paper's processes are defined on loop-free graphs).
    SelfLoop {
        /// The vertex carrying the loop.
        vertex: usize,
    },
    /// A degree sequence was infeasible (odd sum, or a degree `>= n` was
    /// requested for a simple graph).
    InfeasibleDegrees {
        /// Human-readable description of the infeasibility.
        reason: String,
    },
    /// A randomized generator exhausted its retry budget without producing a
    /// graph with the requested properties (e.g. simple, connected).
    RetriesExhausted {
        /// Name of the generator that gave up.
        generator: &'static str,
        /// Number of attempts made.
        attempts: usize,
        /// Human-readable description of what was being generated
        /// (e.g. "a connected 4-regular graph on 24 vertices"), so that a
        /// failure deep inside a 64-point sweep is locatable without
        /// decoding raw indices.
        what: String,
    },
    /// Parameters outside the domain of a deterministic construction
    /// (e.g. LPS requires distinct primes `p, q ≡ 1 (mod 4)`).
    InvalidParameter {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// The graph does not fit the 32-bit index width the CSR arrays and
    /// the walk state store vertex, edge and arc ids in: `n` or the arc
    /// count `2m` exceeds `u32::MAX`.
    TooLarge {
        /// The requested number of vertices.
        n: usize,
        /// The requested number of arcs, `2m`.
        arcs: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} is not supported")
            }
            GraphError::InfeasibleDegrees { reason } => {
                write!(f, "infeasible degree sequence: {reason}")
            }
            GraphError::RetriesExhausted {
                generator,
                attempts,
                what,
            } => {
                write!(
                    f,
                    "generator {generator} exhausted {attempts} attempts \
                     building {what} (restart budget MAX_RESTARTS = {})",
                    crate::generators::MAX_RESTARTS
                )
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
            GraphError::TooLarge { n, arcs } => {
                write!(
                    f,
                    "graph with {n} vertices and {arcs} arcs exceeds the 32-bit index \
                     limit of {} for each",
                    u32::MAX
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 5 };
        assert_eq!(
            e.to_string(),
            "vertex 7 out of range for graph with 5 vertices"
        );
        let e = GraphError::SelfLoop { vertex: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::InfeasibleDegrees {
            reason: "odd sum".into(),
        };
        assert!(e.to_string().contains("odd sum"));
        let e = GraphError::RetriesExhausted {
            generator: "steger_wormald",
            attempts: 10,
            what: "a 3-regular simple graph on 8 vertices".into(),
        };
        assert!(e.to_string().contains("steger_wormald"));
        // The message names the budget the attempts count ran against and
        // the generation target, so sweep failures are locatable.
        assert!(e.to_string().contains("10 attempts"));
        assert!(e
            .to_string()
            .contains("a 3-regular simple graph on 8 vertices"));
        assert!(e.to_string().contains("MAX_RESTARTS = 1000"));
        let e = GraphError::InvalidParameter {
            reason: "p must be prime".into(),
        };
        assert!(e.to_string().contains("p must be prime"));
        let e = GraphError::TooLarge {
            n: 10,
            arcs: 1 << 33,
        };
        assert!(e.to_string().contains("8589934592 arcs"));
        assert!(e.to_string().contains("4294967295"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
