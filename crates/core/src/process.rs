//! The common interface implemented by every walk process.

use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::RngCore;

/// How a step chose its edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The process traversed an edge it preferred as *unvisited* — a
    /// **blue** transition in the paper's re-colouring picture. Only
    /// processes that prefer unvisited edges emit this.
    Blue,
    /// Any other transition (the embedded random walk of the E-process,
    /// every SRW step, rotor steps, lazy holds, …) — **red**.
    Red,
}

/// One transition of a walk process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Vertex the walk left.
    pub from: Vertex,
    /// Vertex the walk arrived at (equals `from` for a lazy hold).
    pub to: Vertex,
    /// The edge traversed; `None` only for lazy holds.
    pub edge: Option<EdgeId>,
    /// Blue/red classification (see [`StepKind`]).
    pub kind: StepKind,
}

/// A vertex-to-vertex exploration process on a fixed graph.
///
/// All processes in this crate (E-process, SRW, rotor-router, RWC(d),
/// locally fair explorers) implement this trait, so the cover-time harness
/// in [`crate::cover`] and the experiment drivers are generic.
///
/// Implementations borrow the graph; all mutable exploration state lives in
/// the process value, so many processes can run on one graph concurrently.
///
/// [`advance`](WalkProcess::advance) is generic over the RNG, so a driver
/// holding a concrete process and a concrete RNG — as the engine runs
/// [`run_observed`](crate::observe::run_observed) with `SmallRng` —
/// compiles to one flat, fully inlined loop with no per-step virtual
/// dispatch. `R` may be unsized, so a `&mut dyn RngCore` works too and
/// draws the same sequence. The method being generic, the trait is not
/// object-safe: code choosing a process at run time matches on an enum
/// of concrete processes once, as the engine's `WalkKernel` does.
pub trait WalkProcess {
    /// The graph being explored.
    fn graph(&self) -> &Graph;

    /// The currently occupied vertex.
    fn current(&self) -> Vertex;

    /// Number of steps taken so far.
    fn steps(&self) -> u64;

    /// Performs one transition. Deterministic processes ignore `rng`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the current vertex has degree 0 (the walk
    /// is stuck; the paper's graphs are connected so this cannot occur).
    fn advance<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Step;
}

/// A borrowed walk is a walk, so drivers that take walks by value
/// ([`crate::interleave::Lane`]) also run one the caller keeps.
impl<W: WalkProcess + ?Sized> WalkProcess for &mut W {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn current(&self) -> Vertex {
        (**self).current()
    }

    fn steps(&self) -> u64 {
        (**self).steps()
    }

    #[inline]
    fn advance<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Step {
        (**self).advance(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_kind_is_copy_and_eq() {
        let k = StepKind::Blue;
        let l = k;
        assert_eq!(k, l);
        assert_ne!(StepKind::Blue, StepKind::Red);
    }

    #[test]
    fn step_debug_nonempty() {
        let s = Step {
            from: 0,
            to: 1,
            edge: Some(2),
            kind: StepKind::Red,
        };
        assert!(format!("{s:?}").contains("from"));
    }
}
