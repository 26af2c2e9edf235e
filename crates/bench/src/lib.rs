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
//!   parsing, against the `eproc` CLI's flag table
//!   ([`eproc_engine::cli::FLAGS`]);
//! * [`save_artifacts`] — writes each table's CSV and the report's JSON
//!   under `target/experiments/` and prints their paths;
//! * [`run_engine_spec`] and [`metric_mean`] — the engine entry point and
//!   the cell accessor the tables read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eproc_engine::cli::{expect_count, expect_u64, parse_args};
use eproc_engine::executor::{CellSummary, ExperimentReport};
use eproc_engine::{ExperimentSpec, Scale};
use eproc_graphs::Graph;
use eproc_stats::TextTable;
use std::path::PathBuf;

/// Prints a line to stdout and drops a failed write, like the `eproc`
/// CLI's macro of the same name. A closed stdout (`table_mixing … | head
/// -1`) must not abort a binary before it saves its CSV and JSON
/// artifacts, so no printed line can fail a run; the artifact writes keep
/// their own `expect`.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// The flags every experiment binary takes, out of
/// [`eproc_engine::cli::FLAGS`].
const ACCEPTS: &[&str] = &["--scale", "--seed", "--threads"];

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
    /// `std::env::args` with [`eproc_engine::cli::parse_args`]. Malformed
    /// arguments exit 2 with a usage message; `--help` exits 0.
    pub fn from_args() -> Config {
        let parsed = parse_args("experiment", ACCEPTS, std::env::args().skip(1))
            .unwrap_or_else(|e| usage(&e.to_string()));
        if parsed.help {
            usage("");
        }
        if let Some(tok) = parsed.positionals.first() {
            usage(&format!("unknown argument {tok:?}"));
        }
        let mut config = Config {
            scale: Scale::Quick,
            seed: 12345,
            threads: None,
        };
        for (name, value) in &parsed.flags {
            let v = value.as_deref().expect("every flag takes a value");
            match *name {
                "--scale" => {
                    config.scale = Scale::parse(v).unwrap_or_else(|e| usage(&e.to_string()));
                }
                "--seed" => {
                    config.seed = expect_u64(name, v).unwrap_or_else(|e| usage(&e.to_string()));
                }
                "--threads" => {
                    let threads = expect_count(name, v).unwrap_or_else(|e| usage(&e.to_string()));
                    config.threads = Some(threads);
                }
                _ => unreachable!("parse_args yields only the flags in ACCEPTS"),
            }
        }
        config
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
fn save_table(name: &str, table: &TextTable) -> std::io::Result<PathBuf> {
    let dir = eproc_engine::report::default_artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// The ending every experiment binary shares, after it has printed its
/// tables: saves each `(name, table)` as `<name>.csv` and prints the
/// paths on one `csv:` line, then saves `report` (if any) as the JSON
/// artifact and prints its path.
///
/// # Panics
///
/// Panics if an artifact cannot be written.
pub fn save_artifacts(tables: &[(&str, &TextTable)], report: Option<&ExperimentReport>) {
    let paths: Vec<String> = tables
        .iter()
        .map(|(name, table)| {
            let path = save_table(name, table).expect("write csv");
            path.display().to_string()
        })
        .collect();
    out!("csv: {}", paths.join(" and "));
    if let Some(report) = report {
        let path = eproc_engine::report::save_json(report, None).expect("write json");
        out!("json: {}", path.display());
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
    fn every_accepted_flag_is_declared_in_the_cli_table() {
        for name in ACCEPTS {
            assert!(
                eproc_engine::cli::FLAGS.iter().any(|f| f.name == *name),
                "{name} is missing from eproc_engine::cli::FLAGS"
            );
        }
    }

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
