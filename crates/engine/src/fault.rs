//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] schedules failures at exact *(family, group)* block
//! coordinates. Because a block is a pure function of the spec and seed,
//! an injected fault fires at the same place on every run — which is
//! what lets the recovery proptests assert that *fail → resume*
//! reproduces the uninterrupted artifact byte-for-byte.
//!
//! The plan is armed via `--inject-faults SPEC` and is **off by
//! default**: the executor looks a block's coordinates up once, inside
//! the `catch_unwind` boundary of the block's first task and never per
//! trial or step, so a fault fails exactly one block, and an empty plan
//! answers without scanning anything, so production runs pay nothing
//! measurable for the harness's existence.

use crate::spec::SpecError;

/// What an injected fault does to its block.
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
/// group)*. Empty (the default) means disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<((usize, usize), FaultKind)>,
}

impl FaultPlan {
    /// Parses the CLI syntax: a comma-separated list of
    /// `kind@family.group` entries, e.g. `panic@0.1,graphfail@1.0`
    /// (panic in family 0 group 1; fail family 1 group 0's graph). An
    /// empty string parses to the disabled plan.
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
                    "fault {entry:?}: expected <panic|graphfail>@<family>.<group>"
                ))
            };
            let (kind, coords) = entry.split_once('@').ok_or_else(bad)?;
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "graphfail" => FaultKind::GraphFail,
                _ => return Err(bad()),
            };
            let (family, group) = coords.split_once('.').ok_or_else(bad)?;
            let key = (
                family.parse().map_err(|_| bad())?,
                group.parse().map_err(|_| bad())?,
            );
            faults.push((key, kind));
        }
        Ok(FaultPlan { faults })
    }

    /// The fault scheduled at *(family, group)*, if any.
    pub fn at(&self, family: usize, group: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|(key, _)| *key == (family, group))
            .map(|&(_, kind)| kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_syntax() {
        let plan = FaultPlan::parse("panic@0.1,graphfail@1.0").unwrap();
        assert_eq!(plan.at(0, 1), Some(FaultKind::Panic));
        assert_eq!(plan.at(1, 0), Some(FaultKind::GraphFail));
        assert_eq!(plan.at(1, 1), None);
        assert_eq!(plan.at(0, 0), None);
    }

    #[test]
    fn empty_and_whitespace_specs_disable_the_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" , ").unwrap(), FaultPlan::default());
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_entry_named() {
        for bad in [
            "panic",
            "panic@1",
            "oops@0.0",
            "panic@a.b",
            "@0.0",
            // The retired three-part form, whose third part was a retry
            // attempt.
            "panic@0.1.0",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("fault"), "{bad}: {err}");
            assert!(err.to_string().contains(bad), "{bad}: {err}");
        }
    }
}
