//! The unified `eproc` CLI: run, list, compare and cache ensemble
//! experiments.
//!
//! ```text
//! eproc run <spec> [--scale quick|paper] [--seed N] [--threads N]
//!                  [--trials N] [--metrics M[,M...]] [--resample [W]]
//!                  [--shard I/K] [--json PATH] [--csv PATH]
//!                  [--quantiles Q[,Q...]] [--cache DIR]
//!                  [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
//!                  [--max-wall SECS] [--inject-faults SPEC]
//! eproc merge <checkpoint.json> [<checkpoint.json> ...] [--json PATH] [--csv PATH]
//! eproc list [--canonical]
//! eproc compare --graph G [--graph G ...] --process P[,P...]
//!               [--trials N] [--target T] [--metrics M[,M...]]
//!               [--start V] [--cap C] [--resample [W]]
//!               [--seed N] [--threads N] [--json PATH] [--cache DIR]
//! eproc cache ls|gc|path [<digest-prefix>] [--cache DIR] [--max-bytes N]
//! ```
//!
//! Every subcommand parses its arguments against one declarative flag
//! table ([`eproc_engine::cli::FLAGS`]): each flag is declared once, each
//! subcommand names the subset it honours, and any other known flag is
//! rejected by name ("flag `--shard` does not apply to `merge`").
//! Usage and flag errors exit 2 (`EX_USAGE`), runtime errors exit 1,
//! and a gracefully interrupted resumable run exits 75 (`EX_TEMPFAIL`).
//!
//! The eight spec flags (`--graph`, `--process`, `--metrics`,
//! `--trials`, `--target`, `--start`, `--cap`, `--resample`) have one
//! reader, [`SpecFlags`], which [`ExperimentSpec::parse_cli`] shares:
//! `--graph`, `--process` and `--metrics` accumulate over repeats, and
//! any other repeated flag keeps its last value. So the canonical line
//! `eproc list --canonical` prints, passed to `compare`, is the spec
//! the builtin's name runs.
//!
//! `--metrics` attaches extra observers (`cover`, `blanket:<delta>`,
//! `phases`, `bluecensus`, `hitting[:v]`) to the same walk as the
//! target: each trial still walks the graph exactly once.
//!
//! `--quantiles Q[,Q...]` picks the quantile columns/keys rendered from
//! the streamed sketches (default `p50,p90,p99`; `0.9` or `p90` forms,
//! each with its own label). The quantiles are estimates from mergeable
//! KLL-style sketches, deterministic for a given `(spec, seed)` at any
//! thread count, shard split, or resume point.
//!
//! `--resample [W]` — or a `~` marker in a `--graph` argument
//! (`regular:~1000,4`) — turns on per-trial graph resampling: each group
//! of `W` consecutive trials (default 1) gets its own freshly sampled
//! graph, and the report splits variance into pooled, across-graph and
//! within-graph components. In any subcommand a `--graph` size may be a
//! sweep range (`regular:~{1k..256k,x2},4`), one family per size.
//!
//! `--shard I/K` executes just the (family, group) blocks with canonical
//! index `≡ I (mod K)` and writes them as a checkpoint, the same format
//! `--checkpoint` writes; `eproc merge` folds checkpoints that together
//! hold every block exactly once into the report the unsharded run would
//! have produced, byte-identical at any thread count, and `--resume`
//! completes a shard's checkpoint into that report too.
//!
//! Caching: `--cache DIR` (or the `EPROC_CACHE` environment variable)
//! consults a content-addressed artifact store before executing. The
//! spec is canonicalized ([`ExperimentSpec::canonicalize`]) and keyed
//! by its [`SpecDigest`] — canonical spec line + seed + quantiles +
//! artifact kind + format version — so every spelling of the same
//! experiment shares one entry. A hit serves the stored artifact
//! byte-identical to the run that populated it; a miss runs the
//! canonical spec and stores the artifact atomically. `eproc list
//! --canonical` prints each builtin's canonical line and digest;
//! `eproc cache ls|gc|path` inspects and prunes the store.
//!
//! Observability: `--progress` renders a live status line to stderr,
//! `--telemetry PATH` writes a JSONL event log, and either flag also
//! writes a `<artifact>.telemetry.json` sidecar with the wall-time
//! breakdown. `--quiet` silences informational stderr chatter (errors
//! always print). None of these affect the computed artifacts.
//!
//! Crash safety: `--checkpoint PATH` atomically persists the run's folded
//! state once `--checkpoint-every N` (which needs `--checkpoint`) more
//! blocks have completed (one write covers every completion queued by
//! then);
//! SIGINT/SIGTERM or `--max-wall SECS` interrupt gracefully (exit code
//! 75, resumable); a failed block fails the run (exit 1) after the
//! completed blocks are checkpointed; `--resume PATH` recomputes only
//! the missing blocks and produces the byte-identical artifact;
//! `--inject-faults SPEC` arms the deterministic fault harness for
//! testing.

use eproc_engine::builtin;
use eproc_engine::cache::{CacheStore, CACHE_ENV};
use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::cli::{expect_count, expect_seconds, expect_u64, parse_args, Parsed, UsageError};
use eproc_engine::digest::{spec_digest, ArtifactKind, SpecDigest};
use eproc_engine::executor::{EngineError, ExperimentReport, RunOptions};
use eproc_engine::fault::FaultPlan;
use eproc_engine::recovery::{
    run_recoverable_with_sink, CheckpointPlan, RecoveryError, RecoveryOptions, RunOutcome,
};
use eproc_engine::report::{
    default_artifact_path, quantile_label, scaling_table, to_json_with, to_text_table_with,
    DEFAULT_QUANTILES,
};
use eproc_engine::scaling::analyze;
use eproc_engine::shard::{merge_shards_with_sink, run_shard_with_sink, ShardSpec};
use eproc_engine::spec::{ExperimentSpec, GraphSpec, Scale, SpecFlags, SPEC_FLAGS};
use eproc_stats::TextTable;
use eproc_telemetry::{JsonlSink, ProgressSink, SummarySink, Tee, TelemetrySink};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Exit code for usage and flag errors (BSD `EX_USAGE`). Every parse
/// failure lands here — never 1, which is reserved for runtime errors.
const EXIT_USAGE: i32 = 2;

/// Exit code for a gracefully interrupted, resumable run (BSD
/// `EX_TEMPFAIL`): distinct from 1 (error) so scripts can tell "resume
/// me" apart from "something broke".
const EXIT_INTERRUPTED: i32 = 75;

/// Set once by `--quiet` before any experiment runs: suppresses the
/// CLI's informational stderr lines. Errors always print.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Prints a line to stderr and drops a failed write, as `out!` does
/// for stdout: a closed stderr must not fail a run that otherwise
/// succeeds. Error lines printed just before `exit` use `eprintln!`.
macro_rules! note {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

/// Prints an informational line to stderr unless `--quiet` is in effect.
/// This is the CLI's one logging gate — everything that is not an error
/// or a primary artifact (tables and paths go to stdout) flows through
/// here.
macro_rules! info {
    ($($arg:tt)*) => {
        if !QUIET.load(Ordering::Relaxed) {
            note!($($arg)*);
        }
    };
}

/// Prints a line to stdout and drops a failed write. A closed stdout
/// (`eproc … | head -1`) must not abort a run before it stores its cache
/// entry and telemetry sidecar, so no printed line can fail a run;
/// artifact writes keep their own error handling.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "eproc — parallel ensemble-simulation engine for walk processes\n\
         \n\
         usage:\n\
         \x20 eproc run <spec> [--scale quick|paper] [--seed N] [--threads N]\n\
         \x20                  [--trials N] [--metrics M[,M...]] [--resample [W]]\n\
         \x20                  [--shard I/K] [--json PATH] [--csv PATH] [--progress]\n\
         \x20                  [--telemetry PATH] [--quiet] [--quantiles Q[,Q...]]\n\
         \x20                  [--cache DIR]\n\
         \x20                  [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]\n\
         \x20                  [--max-wall SECS] [--inject-faults SPEC]\n\
         \x20 eproc merge <checkpoint.json> [<checkpoint.json> ...] [--json PATH]\n\
         \x20               [--csv PATH] [--telemetry PATH] [--quiet] [--quantiles Q[,Q...]]\n\
         \x20 eproc list [--canonical] [--scale quick|paper] [--seed N]\n\
         \x20               [--quantiles Q[,Q...]]\n\
         \x20 eproc compare --graph G [--graph G ...] --process P[,P...]\n\
         \x20               [--trials N] [--target T] [--metrics M[,M...]]\n\
         \x20               [--start V] [--cap C] [--resample [W]]\n\
         \x20               [--seed N] [--threads N] [--json PATH] [--cache DIR]\n\
         \x20 eproc scale <spec> | --graph G --process P[,P...]\n\
         \x20               [--trials N] [--target T] [--metrics M[,M...]]\n\
         \x20               [--start V] [--cap C] [--resample [W]]\n\
         \x20               [--scale quick|paper] [--seed N] [--threads N] [--json PATH]\n\
         \x20               [--cache DIR]\n\
         \x20 eproc cache ls|gc|path [<digest-prefix>] [--cache DIR] [--max-bytes N]\n\
         \n\
         graph syntax   regular:<n>,<d> | lps:<p>,<q> | geometric:<n>[,factor] |\n\
         \x20              hypercube:<dim> | torus:<w>,<h> | cycle:<n> | complete:<n> |\n\
         \x20              lollipop:<clique>,<path> | petersen | figure8:<len>\n\
         \x20              (a ~ before the arguments, e.g. regular:~1000,4, marks\n\
         \x20               the run for per-trial graph resampling; a size may be\n\
         \x20               a sweep range: regular:~{{1k..256k,x2}},4)\n\
         process syntax eprocess[:rule] | srw | lazy | weighted | rotor | rwc:<d> |\n\
         \x20              oldest | leastused | vprocess\n\
         target syntax  vertex | edge | both | blanket:<delta>\n\
         metric syntax  cover | blanket[:delta] | phases | bluecensus | hitting[:v]\n\
         \x20              (all measured from the same walk: one pass per trial)\n\
         repeats        --graph, --process and --metrics accumulate over repeats\n\
         \x20              (--metrics a --metrics b = --metrics a,b); any other\n\
         \x20              repeated flag keeps its last value\n\
         cap syntax     --cap auto | nlogn:<factor> | abs:<steps>\n\
         quantiles      --quantiles Q[,Q...]: distinct quantile columns/keys\n\
         \x20              rendered from the streamed sketches (default p50,p90,p99;\n\
         \x20              0.9 or p90 forms; applies to run, compare, scale, merge)\n\
         sweep syntax   <start>..<end>[,x<factor>|,+<stride>] (default x2);\n\
         \x20              sizes accept k/m suffixes: regular:~{{1k..256k,x2}},4\n\
         resampling     --resample [W]: every W consecutive trials (default 1)\n\
         \x20              share one freshly sampled graph; reports pooled,\n\
         \x20              across-graph and within-graph variance components\n\
         sharding       --shard I/K: execute only the (family, group) blocks\n\
         \x20              with index = I (mod K) and write them as a checkpoint\n\
         \x20              instead of a report; `eproc merge` then folds\n\
         \x20              checkpoints holding every block exactly once into a\n\
         \x20              report byte-identical to the unsharded run's, at any\n\
         \x20              thread count (--resume also completes one)\n\
         caching        --cache DIR (or EPROC_CACHE): content-addressed artifact\n\
         \x20              cache keyed by the canonical spec digest (spec + seed +\n\
         \x20              quantiles + artifact kind). The run executes the\n\
         \x20              canonical form of the spec; a hit serves the stored\n\
         \x20              artifact byte-identical and skips execution. `eproc list\n\
         \x20              --canonical` shows what keys the cache; `eproc cache\n\
         \x20              ls|gc|path` inspects and prunes the store\n\
         crash safety   --checkpoint PATH: atomically persist the folded run\n\
         \x20              state once --checkpoint-every N more blocks completed\n\
         \x20              (default 1; one write covers every completion queued\n\
         \x20              by then); SIGINT/SIGTERM or\n\
         \x20              --max-wall SECS interrupt gracefully and exit 75\n\
         \x20              (resumable); a failed block exits 1 after the completed\n\
         \x20              blocks are checkpointed; --resume PATH runs only the\n\
         \x20              missing blocks and yields the byte-identical artifact\n\
         \x20              at any thread count;\n\
         \x20              --inject-faults kind@family.group[,...] injects\n\
         \x20              panic/graphfail faults for testing the above\n\
         telemetry      --progress: live status line on stderr (blocks, trial and\n\
         \x20              step throughput, ETA); --telemetry PATH: structured JSONL\n\
         \x20              event log; either flag also writes a\n\
         \x20              <artifact>.telemetry.json wall-time/utilization sidecar.\n\
         \x20              --quiet: suppress informational stderr (errors still\n\
         \x20              print). All three apply to run, compare and scale and\n\
         \x20              never change the computed artifacts.\n\
         \n\
         `scale` runs a size sweep and fits each (process x metric) series\n\
         against c*m, a+b*m and c*n*ln(n), selecting the growth model by\n\
         residual score — the paper's linear-vs-n-log-n dichotomy, end to end.\n\
         \n\
         built-in specs: {}\n\
         scaling sweeps: {}",
        builtin::names().join(", "),
        builtin::scaling_names().join(", ")
    );
    exit(if err.is_empty() { 0 } else { EXIT_USAGE });
}

/// Flags shared by every executing subcommand (`run`/`compare`/`scale`).
const EXEC_ACCEPTS: &[&str] = &[
    "--seed",
    "--threads",
    "--trials",
    "--metrics",
    "--resample",
    "--shard",
    "--json",
    "--csv",
    "--progress",
    "--telemetry",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
    "--max-wall",
    "--inject-faults",
    "--quantiles",
    "--quiet",
    "--cache",
];

/// The flag that sizes a builtin spec (`run <name>`, `scale <name>`).
const BUILTIN_EXTRA: &[&str] = &["--scale"];
const MERGE_ACCEPTS: &[&str] = &["--json", "--csv", "--telemetry", "--quiet", "--quantiles"];
const LIST_ACCEPTS: &[&str] = &["--canonical", "--scale", "--seed", "--quantiles", "--quiet"];
const CACHE_ACCEPTS: &[&str] = &["--cache", "--max-bytes", "--quiet"];

/// Parses `args` for `cmd` against the shared table, accepting the
/// union of the `accepts` lists. `--help` anywhere prints usage (exit 0);
/// any [`UsageError`] exits 2.
fn parse_or_usage(cmd: &str, accepts: &[&[&str]], args: impl Iterator<Item = String>) -> Parsed {
    match parse_args(cmd, &accepts.concat(), args) {
        Ok(parsed) => {
            if parsed.help {
                usage("");
            }
            parsed
        }
        Err(e) => usage(&e.to_string()),
    }
}

fn ok_or_usage<T>(r: Result<T, UsageError>) -> T {
    r.unwrap_or_else(|e| usage(&e.to_string()))
}

#[derive(Debug, Default)]
struct CommonFlags {
    scale: Option<Scale>,
    seed: Option<u64>,
    threads: Option<usize>,
    shard: Option<ShardSpec>,
    json: Option<PathBuf>,
    csv: Option<PathBuf>,
    progress: bool,
    telemetry: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: Option<PathBuf>,
    max_wall: Option<Duration>,
    inject_faults: Option<FaultPlan>,
    quantiles: Option<Vec<f64>>,
    cache: Option<PathBuf>,
}

impl CommonFlags {
    /// Interprets every common flag occurrence in `parsed`, in
    /// command-line order (later occurrences win). The spec flags are
    /// left for [`SpecFlags`].
    fn from_parsed(parsed: &Parsed) -> CommonFlags {
        let mut flags = CommonFlags::default();
        for (name, value) in &parsed.flags {
            let v = || value.as_deref().expect("value-arity flag has a value");
            match *name {
                "--scale" => {
                    flags.scale = Some(Scale::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--seed" => flags.seed = Some(ok_or_usage(expect_u64("--seed", v()))),
                "--threads" => {
                    flags.threads = Some(ok_or_usage(expect_count("--threads", v())));
                }
                "--shard" => {
                    flags.shard =
                        Some(ShardSpec::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--json" => flags.json = Some(PathBuf::from(v())),
                "--csv" => flags.csv = Some(PathBuf::from(v())),
                "--progress" => flags.progress = true,
                "--telemetry" => flags.telemetry = Some(PathBuf::from(v())),
                "--checkpoint" => flags.checkpoint = Some(PathBuf::from(v())),
                "--checkpoint-every" => {
                    flags.checkpoint_every =
                        Some(ok_or_usage(expect_count("--checkpoint-every", v())));
                }
                "--resume" => flags.resume = Some(PathBuf::from(v())),
                "--max-wall" => {
                    flags.max_wall = Some(ok_or_usage(expect_seconds("--max-wall", v())));
                }
                "--inject-faults" => {
                    flags.inject_faults =
                        Some(FaultPlan::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--quantiles" => flags.quantiles = Some(parse_quantiles(v())),
                "--quiet" => QUIET.store(true, Ordering::Relaxed),
                "--cache" => flags.cache = Some(PathBuf::from(v())),
                _ => {}
            }
        }
        flags
    }

    /// Whether any crash-safety flag is present: they shape a run that
    /// produces a report, so a `--shard` run rejects them.
    fn names_recovery_flags(&self) -> bool {
        self.checkpoint.is_some()
            || self.resume.is_some()
            || self.max_wall.is_some()
            || self.inject_faults.is_some()
    }

    /// The quantile columns/keys to render: `--quantiles` if given,
    /// otherwise p50/p90/p99.
    fn report_quantiles(&self) -> &[f64] {
        self.quantiles.as_deref().unwrap_or(&DEFAULT_QUANTILES)
    }
}

/// Parses `--quantiles` (`0.9` or `p90`, in [0,1]). Each entry names a
/// column and a JSON key by its [`quantile_label`], so two entries with
/// one label (`0.5,p50`, or `0,1e-7`) are a usage error naming both.
fn parse_quantiles(raw: &str) -> Vec<f64> {
    let mut parsed: Vec<(f64, &str)> = Vec::new();
    for part in raw.split(',').map(str::trim) {
        let q = match part.strip_prefix('p') {
            Some(pct) => pct.parse::<f64>().map(|p| p / 100.0),
            None => part.parse::<f64>(),
        };
        let q = match q {
            // `abs` only changes `-0`, which would render as `p-0`.
            Ok(q) if (0.0..=1.0).contains(&q) => q.abs(),
            _ => usage(&format!(
                "flag `--quantiles` expects quantiles in [0,1] (use 0.9 or p90), got {part:?}"
            )),
        };
        let label = quantile_label(q);
        if let Some((_, first)) = parsed.iter().find(|&&(p, _)| quantile_label(p) == label) {
            usage(&format!(
                "flag `--quantiles` lists {first:?} and {part:?}, which both render as {label}"
            ));
        }
        parsed.push((q, part));
    }
    parsed.into_iter().map(|(q, _)| q).collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage("missing command"));
    match command.as_str() {
        "run" => cmd_run(args),
        "list" => cmd_list(args),
        "compare" => cmd_compare(args),
        "scale" => cmd_scale(args),
        "merge" => cmd_merge(args),
        "cache" => cmd_cache(args),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn cmd_list(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("list", &[LIST_ACCEPTS], args);
    let flags = CommonFlags::from_parsed(&parsed);
    if let Some(tok) = parsed.positionals.first() {
        usage(&format!("list takes no positional arguments, got {tok:?}"));
    }
    if parsed.has("--canonical") {
        // The exact normal form + digest that key the artifact cache,
        // one per builtin, under the flags that shape the digest.
        let scale = flags.scale.unwrap_or(Scale::Quick);
        let seed = flags.seed.unwrap_or_else(|| RunOptions::auto().base_seed);
        for name in builtin::names() {
            let spec = builtin::spec(name, scale).expect("listed specs exist");
            let canonical = spec.canonicalize();
            let digest = spec_digest(
                &canonical,
                seed,
                flags.report_quantiles(),
                ArtifactKind::Ensemble,
            );
            out!("{name}");
            out!("  digest: {digest}");
            out!("  spec:   {}", canonical.to_cli());
        }
        info!(
            "digests key the artifact cache for `run`/`compare` at seed {seed} with the \
             selected quantiles (scale runs key separately: kind=scaling)"
        );
        return;
    }
    let mut table = eproc_stats::TextTable::new(vec![
        "spec",
        "graphs",
        "processes",
        "trials",
        "target",
        "description",
    ]);
    for name in builtin::names() {
        let s = builtin::spec(name, Scale::Quick).expect("listed specs exist");
        table.push_row(vec![
            name.to_string(),
            s.graphs.len().to_string(),
            s.processes.len().to_string(),
            s.trials.to_string(),
            s.target.label(),
            s.description.clone(),
        ]);
    }
    out!("{table}");
    out!("run one with: eproc run <spec> [--scale quick|paper] [--threads N]");
}

/// The artifact cache a run should consult, if any: `--cache DIR`
/// explicitly, else the `EPROC_CACHE` environment variable. The bool is
/// `true` for the explicit flag — conflicts (e.g. `--shard`) are hard
/// usage errors there but silently disable an env-var cache, so setting
/// `EPROC_CACHE` globally never breaks sharded workflows.
fn cache_store(flags: &CommonFlags) -> Option<(CacheStore, bool)> {
    match &flags.cache {
        Some(dir) => Some((CacheStore::open(dir.clone()), true)),
        None => {
            std::env::var_os(CACHE_ENV).map(|dir| (CacheStore::open(PathBuf::from(dir)), false))
        }
    }
}

fn execute(spec: ExperimentSpec, flags: &CommonFlags) {
    execute_inner(spec, flags, false);
}

/// Runs `spec` and emits the standard artifacts. With `fit_growth_laws`
/// (the `scale` subcommand) the run is followed by growth-model fitting:
/// a degenerate sweep surfaces as a CLI error, the growth-law table is
/// printed under the ensemble table, and the JSON artifact carries a
/// `growth_laws` section.
///
/// With a cache configured (`--cache`/`EPROC_CACHE`) the spec is
/// canonicalized first — the digest names the canonical grid order, and
/// seeds derive from grid positions, so only the canonical form's bytes
/// match the digest's promise. A hit writes the stored artifact to the
/// `--json` destination and skips execution entirely; a miss runs and
/// stores the artifact on success.
fn execute_inner(mut spec: ExperimentSpec, flags: &CommonFlags, fit_growth_laws: bool) {
    if flags.checkpoint_every.is_some() && flags.checkpoint.is_none() {
        usage("--checkpoint-every sets how often --checkpoint writes: it needs --checkpoint PATH");
    }
    if flags.shard.is_some() {
        if fit_growth_laws {
            usage("--shard does not apply to scale: growth-law fits need every sweep cell");
        }
        if flags.csv.is_some() {
            usage("--shard writes a shard artifact, not a report: merge the shards, then --csv");
        }
        if flags.names_recovery_flags() {
            usage(
                "--shard is already restartable per shard: re-run the missing shard instead \
                 (--checkpoint/--resume/--max-wall/--inject-faults apply to unsharded runs)",
            );
        }
    }
    // The announcement below counts the jobs, so an invalid grid fails
    // before it, as the run itself would.
    if let Err(e) = spec.validate() {
        eprintln!("error: {}", EngineError::Spec(e));
        exit(1);
    }
    let mut opts = RunOptions::auto();
    if let Some(threads) = flags.threads {
        opts.threads = threads;
    }
    if let Some(seed) = flags.seed {
        opts.base_seed = seed;
    }
    // Cache: canonicalize, key, and try to serve before running.
    let mut cache_armed: Option<(CacheStore, SpecDigest)> = None;
    if let Some((store, explicit)) = cache_store(flags) {
        let conflict = if flags.shard.is_some() {
            Some("--shard writes a shard artifact, which is not what the cache stores")
        } else if flags.csv.is_some() {
            Some("--csv renders from a live run, which a cache hit skips")
        } else {
            None
        };
        match conflict {
            Some(why) if explicit => usage(&format!("--cache does not combine here: {why}")),
            Some(why) => info!("cache: disabled ({why})"),
            None => {
                spec = spec.canonicalize();
                let kind = if fit_growth_laws {
                    ArtifactKind::Scaling
                } else {
                    ArtifactKind::Ensemble
                };
                let digest = spec_digest(&spec, opts.base_seed, flags.report_quantiles(), kind);
                match store.load(&digest) {
                    Ok(Some(artifact)) => {
                        let path = flags
                            .json
                            .clone()
                            .unwrap_or_else(|| default_artifact_path(&spec.name));
                        if let Err(e) = eproc_telemetry::write_atomic(&path, &artifact) {
                            eprintln!("error writing json artifact {}: {e}", path.display());
                            exit(1);
                        }
                        out!("cache: hit {}", digest.short());
                        out!("json: {}", path.display());
                        return;
                    }
                    Ok(None) => {
                        info!("cache: miss {} (will store on success)", digest.short());
                        cache_armed = Some((store, digest));
                    }
                    Err(e) => {
                        eprintln!("error reading cache at {}: {e}", store.root().display());
                        exit(1);
                    }
                }
            }
        }
    }
    info!(
        "running {:?}: {} jobs ({} graphs x {} processes x {} trials) on {} threads, seed {}",
        spec.name,
        spec.total_jobs(),
        spec.graphs.len(),
        spec.processes.len(),
        spec.trials,
        opts.threads,
        opts.base_seed
    );
    if let Some(plan) = spec.resample {
        info!(
            "resampling graphs per trial group: {} graph sample(s) per family, {} walk(s) each",
            plan.groups(spec.trials),
            plan.walks_per_graph
        );
    }
    let telemetry = Telemetry::open(flags);
    let started = Instant::now();
    if let Some(shard) = flags.shard {
        info!(
            "shard {shard}: executing only the (family, group) blocks with index = {} (mod {})",
            shard.index, shard.count
        );
        let checkpoint = match run_shard_with_sink(&spec, &opts, shard, &telemetry.tee()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        };
        let path = flags.json.clone().unwrap_or_else(|| {
            default_artifact_path(&format!(
                "{}.shard{}of{}",
                spec.name, shard.index, shard.count
            ))
        });
        if let Err(e) = checkpoint.save(&path) {
            eprintln!("error writing shard artifact {}: {e}", path.display());
            exit(1);
        }
        out!("shard artifact: {}", path.display());
        telemetry.write_artifacts(&path);
        info!("wall time: {:.2}s", started.elapsed().as_secs_f64());
        return;
    }
    let report = run_crash_safe(&spec, &opts, flags, &telemetry);
    let elapsed = started.elapsed();
    // A degenerate sweep must not discard the (possibly expensive)
    // ensemble it just measured: on a fit error the table is still
    // printed and the artifact still written — without the growth_laws
    // section — and the CLI exits nonzero at the end.
    let scaling = fit_growth_laws.then(|| analyze(&report));
    let table = print_report_table(&report, flags);
    match &scaling {
        Some(Ok(scaling)) => {
            out!("growth laws (lowest residual score wins):\n");
            out!("{}", scaling_table(scaling));
            for series in &scaling.series {
                let fit = series.selection.preferred_fit();
                out!(
                    "{} / {} / {}: prefers {} (R^2 = {:.5})",
                    series.family,
                    series.process,
                    series.series,
                    series.selection.preferred.label(),
                    fit.fit.r_squared
                );
            }
            out!();
        }
        Some(Err(e)) => {
            // The artifact is still saved below, so a closed stderr must
            // not stop it.
            note!("error: {e}");
            note!("(the ensemble report is kept: saving the artifact without growth_laws)");
        }
        None => {}
    }
    // Render the artifact once: the same bytes go to the --json
    // destination and (on a clean run) into the cache, so a later hit
    // is cmp-identical by construction.
    let artifact_text = match &scaling {
        Some(Ok(s)) => to_json_with(&report, Some(s), flags.report_quantiles()),
        _ => to_json_with(&report, None, flags.report_quantiles()),
    };
    let artifact = save_report_artifacts(&report.name, &artifact_text, &table, flags);
    if let Some((store, digest)) = &cache_armed {
        if matches!(scaling, Some(Err(_))) {
            // A degenerate fit exits 1 below; serving its artifact from
            // cache later would silently mask that failure.
            info!("cache: not storing (growth-law fit failed)");
        } else {
            let sidecar = format!(
                "{}\nname={}\nseed={}\nkind={}\nquantiles={}\n",
                spec.to_cli(),
                spec.name,
                opts.base_seed,
                if fit_growth_laws {
                    "scaling"
                } else {
                    "ensemble"
                },
                flags
                    .report_quantiles()
                    .iter()
                    .map(|q| q.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            match store.store(digest, &artifact_text, &sidecar) {
                Ok(_) => out!("cache: stored {}", digest.short()),
                // The run itself succeeded and its artifact is on disk;
                // a cache store failure is a warning, not a run failure.
                Err(e) => note!(
                    "warning: could not store cache entry in {}: {e}",
                    store.root().display()
                ),
            }
        }
    }
    telemetry.write_artifacts(&artifact);
    info!("wall time: {:.2}s", elapsed.as_secs_f64());
    if matches!(scaling, Some(Err(_))) {
        exit(1);
    }
}

/// Runs every report-producing execution through
/// [`run_recoverable_with_sink`], shaped by `--checkpoint`, `--resume`,
/// `--max-wall` and `--inject-faults`; with none of them it is the
/// plain executor's run. Installs the SIGINT/SIGTERM latch when
/// interruption can be made graceful (a checkpoint or wall budget is
/// configured), and on interruption writes the telemetry artifacts and
/// exits with code 75 (`EX_TEMPFAIL`) so callers can distinguish
/// "resume me" from failure.
fn run_crash_safe(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    flags: &CommonFlags,
    telemetry: &Telemetry,
) -> eproc_engine::ExperimentReport {
    let resume = flags.resume.as_deref().map(|path| {
        let ckpt = RunCheckpoint::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        info!(
            "resuming from {}: {}/{} blocks already complete",
            path.display(),
            ckpt.completed_blocks(),
            ckpt.total_blocks()
        );
        ckpt
    });
    let checkpoint = flags.checkpoint.as_ref().map(|path| CheckpointPlan {
        path: path.clone(),
        every: flags.checkpoint_every.unwrap_or(1),
    });
    // Graceful Ctrl-C only makes sense when there is somewhere to drain
    // to: a checkpoint to persist, or a wall budget already promising a
    // clean stop. Otherwise leave the default (abrupt) signal behavior.
    let cancel = (checkpoint.is_some() || flags.max_wall.is_some()).then(eproc_sys::install);
    let rec = RecoveryOptions {
        checkpoint,
        resume,
        max_wall: flags.max_wall,
        faults: flags.inject_faults.clone().unwrap_or_default(),
        cancel,
    };
    match run_recoverable_with_sink(spec, opts, &rec, &telemetry.tee()) {
        Ok(RunOutcome::Completed(report)) => report,
        Ok(RunOutcome::Interrupted {
            reason,
            completed,
            total,
            checkpoint,
        }) => {
            match &checkpoint {
                Some(path) => info!(
                    "interrupted ({reason}): {completed}/{total} blocks complete; \
                     resume with --resume {}",
                    path.display()
                ),
                None => info!(
                    "interrupted ({reason}): {completed}/{total} blocks complete \
                     (no --checkpoint configured, progress not persisted)"
                ),
            }
            // The sidecar still lands next to where the artifact would
            // have gone, so an interrupted run's wall-time breakdown is
            // not lost with it.
            let anchor = flags
                .json
                .clone()
                .unwrap_or_else(|| default_artifact_path(&spec.name));
            telemetry.write_artifacts(&anchor);
            exit(EXIT_INTERRUPTED);
        }
        Err(e) => {
            eprintln!("error: {e}");
            // A failed block is the one error after which the runner
            // writes its final checkpoint; spec errors, rejected resume
            // files and failed writes leave nothing new to resume from.
            if let (Some(path), RecoveryError::Engine(EngineError::Block { .. })) =
                (&flags.checkpoint, &e)
            {
                info!(
                    "completed blocks were checkpointed to {}; fix the cause and --resume",
                    path.display()
                );
            }
            exit(1);
        }
    }
}

/// The `<artifact>.telemetry.json` sidecar path. A plain
/// `Path::with_extension("telemetry.json")` clobbers everything after
/// the last dot of the file name — `run-2.5x` would become
/// `run-2.telemetry.json` — so instead strip one trailing `.json` (when
/// present) and append the sidecar suffix to the whole remaining name.
fn telemetry_sidecar_path(artifact: &Path) -> PathBuf {
    let name = artifact
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let stem = name.strip_suffix(".json").unwrap_or(name);
    artifact.with_file_name(format!("{stem}.telemetry.json"))
}

/// The telemetry sinks a command's flags ask for: a live progress line
/// (`--progress`), a JSONL event log (`--telemetry PATH`) and, as soon as
/// either is on, a summary collector for the sidecar. All of them
/// observe the run from outside the deterministic path; with none
/// requested the tee is disabled and the executor takes its zero-cost
/// NullSink path.
struct Telemetry {
    progress: Option<ProgressSink>,
    jsonl: Option<JsonlSink>,
    summary: Option<SummarySink>,
}

impl Telemetry {
    /// Opens the sinks `flags` ask for. A log that cannot be created
    /// exits 1.
    fn open(flags: &CommonFlags) -> Telemetry {
        let progress = flags.progress.then(ProgressSink::new);
        let jsonl = flags.telemetry.as_deref().map(|path| {
            JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot create telemetry log {}: {e}", path.display());
                exit(1);
            })
        });
        let summary = (progress.is_some() || jsonl.is_some()).then(SummarySink::new);
        Telemetry {
            progress,
            jsonl,
            summary,
        }
    }

    /// One sink that fans each event out to every open sink.
    fn tee(&self) -> Tee<'_> {
        let progress = self.progress.as_ref().map(|s| s as &dyn TelemetrySink);
        let jsonl = self.jsonl.as_ref().map(|s| s as &dyn TelemetrySink);
        let summary = self.summary.as_ref().map(|s| s as &dyn TelemetrySink);
        Tee::new([progress, jsonl, summary].into_iter().flatten().collect())
    }

    /// Flushes the JSONL event log (surfacing any write error the sink
    /// swallowed mid-run: a truncated log must not pass silently as a
    /// complete one) and writes the summary sidecar next to `artifact`.
    /// Exits nonzero on either failure.
    fn write_artifacts(&self, artifact: &Path) {
        if let Some(jsonl) = &self.jsonl {
            match jsonl.finish() {
                Ok(()) => out!("telemetry: {}", jsonl.path().display()),
                Err(e) => {
                    eprintln!(
                        "error writing telemetry log {}: {e}",
                        jsonl.path().display()
                    );
                    exit(1);
                }
            }
        }
        if let Some(summary) = &self.summary {
            let sidecar = telemetry_sidecar_path(artifact);
            match summary.summary().save(&sidecar) {
                Ok(()) => out!("telemetry sidecar: {}", sidecar.display()),
                Err(e) => {
                    eprintln!("error writing telemetry sidecar {}: {e}", sidecar.display());
                    exit(1);
                }
            }
        }
    }
}

fn cmd_run(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("run", &[EXEC_ACCEPTS, BUILTIN_EXTRA], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let overrides = ok_or_usage(SpecFlags::from_parsed(&parsed));
    let name = match parsed.positionals.as_slice() {
        [] => usage("run needs a spec name"),
        [name] => name.clone(),
        _ => usage("run takes exactly one spec name"),
    };
    let scale = flags.scale.unwrap_or(Scale::Quick);
    let mut spec = builtin::spec(&name, scale).unwrap_or_else(|| {
        usage(&format!(
            "unknown spec {name:?}; available: {}",
            builtin::names().join(", ")
        ))
    });
    overrides.override_spec(&mut spec);
    execute(spec, &flags);
}

fn cmd_compare(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("compare", &[EXEC_ACCEPTS, SPEC_FLAGS], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let adhoc = ok_or_usage(SpecFlags::from_parsed(&parsed));
    if let Some(tok) = parsed.positionals.first() {
        usage(&format!(
            "compare takes no positional arguments, got {tok:?} (use --graph/--process)"
        ));
    }
    if adhoc.graphs.is_empty() {
        usage("compare needs at least one --graph");
    }
    if adhoc.processes.is_empty() {
        usage("compare needs at least one --process");
    }
    let spec = adhoc.into_spec("compare", "ad-hoc comparison built from CLI flags");
    execute(spec, &flags);
}

fn cmd_scale(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("scale", &[EXEC_ACCEPTS, SPEC_FLAGS, BUILTIN_EXTRA], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let mut adhoc = ok_or_usage(SpecFlags::from_parsed(&parsed));
    let name = match parsed.positionals.as_slice() {
        [] => None,
        [name] => Some(name.clone()),
        _ => usage("scale takes at most one spec name"),
    };
    if let Some(name) = name {
        if !adhoc.graphs.is_empty() {
            usage("scale takes either a spec name or --graph flags, not both");
        }
        // A named spec already fixes its grid; honouring only some of
        // these flags would silently run a different experiment than the
        // one asked for, so reject them outright (--trials, --metrics
        // and --resample are honoured as overrides, like `run`).
        if !adhoc.processes.is_empty()
            || adhoc.target.is_some()
            || adhoc.start.is_some()
            || adhoc.cap.is_some()
        {
            usage(
                "scale <name> runs the named spec as-is: --process/--target/--start/--cap \
                 only apply to --graph sweeps (--trials/--metrics/--resample do override)",
            );
        }
        let scale = flags.scale.unwrap_or(Scale::Quick);
        let mut spec = builtin::spec(&name, scale).unwrap_or_else(|| {
            usage(&format!(
                "unknown spec {name:?}; scaling sweeps: {} (any built-in spec with >= 3 sizes works)",
                builtin::scaling_names().join(", ")
            ))
        });
        adhoc.override_spec(&mut spec);
        execute_inner(spec, &flags, true);
        return;
    }
    if adhoc.graphs.is_empty() {
        usage("scale needs a spec name or at least one --graph");
    }
    if adhoc.processes.is_empty() {
        usage("scale needs at least one --process");
    }
    // A sweep defaults to 4 trials. Unless `--resample [W]` says
    // otherwise, randomized sweeps get a fresh graph per trial so each
    // size estimates the ensemble law, and purely deterministic sweeps
    // stay in shared mode.
    adhoc.trials.get_or_insert(4);
    adhoc.marked_resample |= adhoc.graphs.iter().any(GraphSpec::is_randomized);
    let spec = adhoc.into_spec("scale", "ad-hoc size sweep built from CLI flags");
    execute_inner(spec, &flags, true);
}

/// `eproc merge <checkpoint.json> ...` — fold checkpoints that together
/// hold every block of one run exactly once (the shards of a `--shard`
/// split, say) into the run's report, byte-identical to running
/// unsharded. Run-shaped flags are foreign here and rejected by the flag
/// table (run parameters are fixed by the checkpoints themselves).
fn cmd_merge(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("merge", &[MERGE_ACCEPTS], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let paths: Vec<PathBuf> = parsed.positionals.iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        usage("merge needs at least one checkpoint path");
    }
    let shards: Vec<RunCheckpoint> = paths
        .iter()
        .map(|p| {
            RunCheckpoint::load(p).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            })
        })
        .collect();
    let telemetry = Telemetry::open(&flags);
    info!("merging {} checkpoint(s)", shards.len());
    let report = match merge_shards_with_sink(&shards, &telemetry.tee()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    let table = print_report_table(&report, &flags);
    let artifact_text = to_json_with(&report, None, flags.report_quantiles());
    let artifact = save_report_artifacts(&report.name, &artifact_text, &table, &flags);
    telemetry.write_artifacts(&artifact);
}

/// Prints a finished report's header line and aggregate table (at the
/// `--quantiles` selection) and returns the table for `--csv`.
fn print_report_table(report: &ExperimentReport, flags: &CommonFlags) -> TextTable {
    out!(
        "{}: {} ({})\n",
        report.name,
        report.description,
        report.target.label()
    );
    let table = to_text_table_with(report, flags.report_quantiles());
    out!("{table}");
    table
}

/// Writes a finished report's JSON artifact (`--json`, or the default
/// path for `name`) and, with `--csv`, its table as CSV; prints each
/// path and returns the JSON one. A write failure exits 1.
fn save_report_artifacts(
    name: &str,
    artifact_text: &str,
    table: &TextTable,
    flags: &CommonFlags,
) -> PathBuf {
    let artifact = flags
        .json
        .clone()
        .unwrap_or_else(|| default_artifact_path(name));
    if let Err(e) = eproc_telemetry::write_atomic(&artifact, artifact_text) {
        eprintln!("error writing json artifact: {e}");
        exit(1);
    }
    out!("json: {}", artifact.display());
    if let Some(csv) = &flags.csv {
        match eproc_telemetry::write_atomic(csv, &table.to_csv()) {
            Ok(()) => out!("csv: {}", csv.display()),
            Err(e) => {
                eprintln!("error writing csv artifact: {e}");
                exit(1);
            }
        }
    }
    artifact
}

/// `eproc cache ls|gc|path` — inspect and prune the artifact store.
fn cmd_cache(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("cache", &[CACHE_ACCEPTS], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let (action, rest) = match parsed.positionals.as_slice() {
        [] => usage("cache needs an action: ls, gc or path"),
        [action, rest @ ..] => (action.as_str(), rest),
    };
    let Some((store, _)) = cache_store(&flags) else {
        usage("cache needs --cache DIR or the EPROC_CACHE environment variable");
    };
    match action {
        "ls" => {
            if let Some(tok) = rest.first() {
                usage(&format!("cache ls takes no further arguments, got {tok:?}"));
            }
            let entries = store.entries().unwrap_or_else(|e| {
                eprintln!("error reading cache at {}: {e}", store.root().display());
                exit(1);
            });
            let mut table = eproc_stats::TextTable::new(vec!["digest", "bytes", "spec"]);
            let mut total = 0u64;
            for entry in &entries {
                total += entry.bytes;
                table.push_row(vec![
                    entry.digest[..12].to_string(),
                    entry.bytes.to_string(),
                    entry.spec_line.clone(),
                ]);
            }
            out!("{table}");
            out!(
                "{} entr{} ({} bytes) in {}",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" },
                total,
                store.root().display()
            );
        }
        "gc" => {
            if let Some(tok) = rest.first() {
                usage(&format!("cache gc takes no further arguments, got {tok:?}"));
            }
            let max_bytes = match parsed.value_of("--max-bytes") {
                Some(raw) => ok_or_usage(expect_u64("--max-bytes", raw)),
                None => 0,
            };
            let stats = store.gc(max_bytes).unwrap_or_else(|e| {
                eprintln!("error pruning cache at {}: {e}", store.root().display());
                exit(1);
            });
            out!(
                "removed {} entr{} ({} bytes), kept {}",
                stats.removed,
                if stats.removed == 1 { "y" } else { "ies" },
                stats.freed_bytes,
                stats.kept
            );
        }
        "path" => match rest {
            [] => out!("{}", store.root().display()),
            [prefix] => {
                let matches = store.resolve_prefix(prefix).unwrap_or_else(|e| {
                    eprintln!("error reading cache at {}: {e}", store.root().display());
                    exit(1);
                });
                match matches.as_slice() {
                    [] => {
                        eprintln!("error: no cache entry matches {prefix:?}");
                        exit(1);
                    }
                    [path] => out!("{}", path.display()),
                    many => {
                        eprintln!(
                            "error: {prefix:?} is ambiguous ({} entries match)",
                            many.len()
                        );
                        exit(1);
                    }
                }
            }
            [_, tok, ..] => usage(&format!(
                "cache path takes at most one digest prefix, got {tok:?}"
            )),
        },
        other => usage(&format!("unknown cache action {other:?} (ls|gc|path)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every accept list, by the subcommands that use it.
    const ACCEPT_LISTS: &[&[&str]] = &[
        EXEC_ACCEPTS,
        BUILTIN_EXTRA,
        MERGE_ACCEPTS,
        LIST_ACCEPTS,
        CACHE_ACCEPTS,
        SPEC_FLAGS,
    ];

    #[test]
    fn every_accepted_flag_is_declared_in_the_table() {
        // A name missing from the table would make its subcommand reject
        // the flag as unknown.
        for name in ACCEPT_LISTS.concat() {
            assert!(
                eproc_engine::cli::FLAGS.iter().any(|f| f.name == name),
                "{name} is missing from eproc_engine::cli::FLAGS"
            );
        }
    }

    #[test]
    fn every_declared_flag_is_accepted_by_some_subcommand() {
        let accepted = ACCEPT_LISTS.concat();
        for flag in eproc_engine::cli::FLAGS {
            assert!(
                accepted.contains(&flag.name),
                "no subcommand accepts {}",
                flag.name
            );
        }
    }

    #[test]
    fn sidecar_path_replaces_a_json_suffix() {
        assert_eq!(
            telemetry_sidecar_path(Path::new("target/experiments/eproc_comparison.json")),
            Path::new("target/experiments/eproc_comparison.telemetry.json")
        );
    }

    #[test]
    fn sidecar_path_keeps_dotted_names_without_a_json_suffix() {
        // `with_extension` would truncate this to `run-2.telemetry.json`.
        assert_eq!(
            telemetry_sidecar_path(Path::new("out/run-2.5x")),
            Path::new("out/run-2.5x.telemetry.json")
        );
    }

    #[test]
    fn sidecar_path_strips_only_one_json_suffix() {
        assert_eq!(
            telemetry_sidecar_path(Path::new("a.json.json")),
            Path::new("a.json.telemetry.json")
        );
    }
}
