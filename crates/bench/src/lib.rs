//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the
//! reproduction. All but two walk their graphs through the engine: each
//! builds or names an [`eproc_engine::ExperimentSpec`], runs it with
//! [`run_engine_spec`], and adds only its theory, spectral and
//! presentation columns. Where the engine's own table is the whole
//! output there is no binary: `eproc run <builtin> --csv P` prints and
//! saves it. `table_cages` and `table_lemma13` keep one
//! serial loop of their own — projective-plane incidence graphs have no
//! `GraphSpec`, and Lemma 13's survival probability is not a per-trial
//! metric the engine aggregates. They share:
//!
//! * [`Config`] — `--scale quick|paper`, `--seed N`, `--threads N`
//!   parsing;
//! * [`save_table`] — writes the CSV next to the printed table under
//!   `target/experiments/`;
//! * [`run_engine_spec`] and [`metric_mean`] — the engine entry point and
//!   the cell accessor the tables read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eproc_engine::executor::{CellSummary, ExperimentReport};
use eproc_engine::ExperimentSpec;
use eproc_graphs::Graph;
use eproc_stats::TextTable;
use std::path::PathBuf;

/// Experiment scale: `quick` finishes in seconds-to-minutes and already
/// shows the paper's qualitative shape; `paper` pushes `n` toward the
/// paper's 5·10⁵.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick sweep.
    Quick,
    /// Paper-scale sweep (minutes).
    Paper,
}

/// Parsed command-line configuration shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sweep scale.
    pub scale: Scale,
    /// Base seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Worker threads for engine-backed tables (`None` = all cores).
    /// Results are bit-identical for any value — this flag exists to
    /// demonstrate exactly that.
    pub threads: Option<usize>,
}

impl Config {
    /// Parses `--scale quick|paper`, `--seed N` and `--threads N` from
    /// `std::env::args`. Unknown arguments abort with a usage message.
    pub fn from_args() -> Config {
        let mut scale = Scale::Quick;
        let mut seed = 12345u64;
        let mut threads = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    scale = match v.as_str() {
                        "quick" => Scale::Quick,
                        "paper" => Scale::Paper,
                        other => usage(&format!("unknown scale {other:?}")),
                    };
                }
                "--seed" => {
                    let v = args.next().unwrap_or_default();
                    seed = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
                }
                "--threads" => {
                    let v = args.next().unwrap_or_default();
                    let t: usize = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad thread count {v:?}")));
                    if t == 0 {
                        usage("--threads must be at least 1");
                    }
                    threads = Some(t);
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        Config {
            scale,
            seed,
            threads,
        }
    }

    /// Engine [`RunOptions`](eproc_engine::RunOptions) for this config:
    /// the configured seed and thread count (all cores when unset).
    pub fn engine_opts(&self) -> eproc_engine::RunOptions {
        let mut opts = eproc_engine::RunOptions {
            base_seed: self.seed,
            ..eproc_engine::RunOptions::auto()
        };
        if let Some(t) = self.threads {
            opts.threads = t;
        }
        opts
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <binary> [--scale quick|paper] [--seed N] [--threads N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Writes `table` as `<name>.csv` in the engine's
/// [`default_artifact_dir`](eproc_engine::report::default_artifact_dir),
/// next to the JSON artifacts, creating it if needed. Returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_table(name: &str, table: &TextTable) -> std::io::Result<PathBuf> {
    let dir = eproc_engine::report::default_artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Maps this crate's [`Scale`] onto the engine's.
pub fn engine_scale(scale: Scale) -> eproc_engine::Scale {
    match scale {
        Scale::Quick => eproc_engine::Scale::Quick,
        Scale::Paper => eproc_engine::Scale::Paper,
    }
}

/// Runs `spec` on the engine with the config's seed and thread count,
/// returning the graphs it ran on (for per-graph enrichment columns) and
/// the report. The shared entry point of the `table_*` wrappers that need
/// custom presentation on top of the engine ensemble.
///
/// A resampled spec has no shared graph to enrich — every trial group
/// samples its own — so its graph list is empty and the run goes through
/// [`eproc_engine::executor::run`].
///
/// # Panics
///
/// Panics if execution fails or any trial capped out before reaching its
/// target (the reproduction tables claim every run finishes, so an
/// incomplete cell is a regression, not data).
pub fn run_engine_spec(spec: &ExperimentSpec, config: &Config) -> (Vec<Graph>, ExperimentReport) {
    let name = &spec.name;
    let opts = config.engine_opts();
    let (graphs, report) = if spec.resample.is_some() {
        let report = eproc_engine::executor::run(spec, &opts)
            .unwrap_or_else(|e| panic!("engine run {name:?} failed: {e}"));
        (Vec::new(), report)
    } else {
        let graphs = eproc_engine::executor::build_graphs(spec, opts.base_seed)
            .unwrap_or_else(|e| panic!("building graphs for {name:?}: {e}"));
        let report = eproc_engine::executor::run_on_graphs(spec, &opts, &graphs)
            .unwrap_or_else(|e| panic!("engine run {name:?} failed: {e}"));
        (graphs, report)
    };
    for cell in &report.cells {
        assert_eq!(
            cell.completed, cell.trials,
            "{}/{}: only {}/{} runs reached the target within the cap",
            cell.graph, cell.process, cell.completed, cell.trials
        );
    }
    (graphs, report)
}

/// Mean of a named metric column in an engine cell.
///
/// # Panics
///
/// Panics if the cell has no such metric or no trial resolved it.
pub fn metric_mean(cell: &CellSummary, name: &str) -> f64 {
    let metric = cell
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| {
            panic!(
                "cell {}/{} has no metric {name:?}",
                cell.graph, cell.process
            )
        });
    assert!(
        metric.stats.count() > 0,
        "metric {name:?} never resolved for {}/{}",
        cell.graph,
        cell.process
    );
    metric.stats.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dir_is_under_target() {
        let path = save_table("unit_test_output_dir", &TextTable::new(vec!["a"])).unwrap();
        assert!(path.parent().unwrap().ends_with("target/experiments"));
    }

    #[test]
    fn save_table_roundtrip() {
        let mut t = TextTable::new(vec!["a"]);
        t.push_row(vec!["1".into()]);
        let path = save_table("unit_test_table", &t).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a\n1\n");
    }
}
