//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] schedules failures at exact *(family, group,
//! attempt)* coordinates: attempt 0 is a block's first execution,
//! attempt `k` its `k`-th retry under `--retry-blocks`. Because the
//! coordinates are deterministic (blocks are pure functions of the spec
//! and seed, and retries re-derive the same seeds), an injected fault
//! fires at the same place on every run — which is what lets the
//! recovery proptests assert that *kill → resume* and *panic → retry*
//! both reproduce the uninterrupted artifact byte-for-byte.
//!
//! The plan is armed via `--inject-faults SPEC` and is **off by
//! default**: the executor looks a block's coordinates up once per
//! attempt of the block's first task, inside that task's `catch_unwind`
//! boundary and never per trial or step, so a fault fails exactly one
//! attempt, and an empty plan answers without scanning anything, so
//! production runs pay nothing measurable for the harness's existence.

use crate::spec::SpecError;

/// What an injected fault does to its block attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the block (exercises the `catch_unwind` isolation
    /// boundary).
    Panic,
    /// Fail the block's graph generation (exercises the
    /// [`crate::executor::BlockError::Graph`] path without a pathological
    /// spec).
    GraphFail,
}

/// A deterministic schedule of injected faults, keyed by *(family,
/// group, attempt)*. Empty (the default) means disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<((usize, usize, usize), FaultKind)>,
}

impl FaultPlan {
    /// The disabled plan: no faults, zero cost.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the CLI syntax: a comma-separated list of
    /// `kind@family.group.attempt` entries, e.g.
    /// `panic@0.1.0,graphfail@1.0.1` (panic family 0 group 1 on its
    /// first execution; fail family 1 group 0's graph on its first
    /// retry). An empty string parses to the disabled plan.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the malformed entry.
    pub fn parse(s: &str) -> Result<FaultPlan, SpecError> {
        let mut faults = Vec::new();
        for entry in s.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let bad = || {
                SpecError::new(format!(
                    "fault {entry:?}: expected <panic|graphfail>@<family>.<group>.<attempt>"
                ))
            };
            let (kind, coords) = entry.split_once('@').ok_or_else(bad)?;
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "graphfail" => FaultKind::GraphFail,
                _ => return Err(bad()),
            };
            let mut parts = coords.splitn(3, '.');
            let mut next = || -> Result<usize, SpecError> {
                parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
            };
            let key = (next()?, next()?, next()?);
            faults.push((key, kind));
        }
        Ok(FaultPlan { faults })
    }

    /// The fault scheduled at *(family, group, attempt)*, if any.
    pub fn at(&self, family: usize, group: usize, attempt: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|(key, _)| *key == (family, group, attempt))
            .map(|&(_, kind)| kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_syntax() {
        let plan = FaultPlan::parse("panic@0.1.0,graphfail@1.0.1").unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.at(0, 1, 0), Some(FaultKind::Panic));
        assert_eq!(plan.at(1, 0, 1), Some(FaultKind::GraphFail));
        assert_eq!(plan.at(0, 1, 1), None, "attempt coordinate must match");
        assert_eq!(plan.at(1, 1, 0), None);
    }

    #[test]
    fn empty_and_whitespace_specs_disable_the_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_entry_named() {
        for bad in ["panic", "panic@1.2", "oops@0.0.0", "panic@a.b.c", "@0.0.0"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("fault"), "{bad}: {err}");
        }
    }
}
