//! The three workloads: their specs, set-up, one measured iteration each,
//! and the output checks every iteration must pass.

use crate::trace::{EngineTrace, ExecStats, Tracer};
use eproc_engine::builtin;
use eproc_engine::digest::sha256;
use eproc_engine::executor::{build_graphs, run_on_graphs_with_sink, run_with_sink, RunOptions};
use eproc_engine::report::{to_json, to_json_with_scaling, DEFAULT_QUANTILES};
use eproc_engine::scaling::{analyze, STEPS_SERIES};
use eproc_engine::spec::{ExperimentSpec, Scale};
use eproc_engine::{
    spec_digest, ArtifactKind, CacheStore, CheckpointPlan, ExperimentReport, RecoveryOptions,
    RunCheckpoint, RunOutcome, SpecDigest,
};
use eproc_graphs::Graph;
use eproc_stats::{GrowthModel, SeedSequence};
use eproc_telemetry::NullSink;
use std::path::PathBuf;
use std::time::Instant;

/// Trials per cell of `mixed-shared`. The builtin `comparison` runs 5;
/// 2 keeps one iteration near 3.5 s on two cores, so a run holds several.
pub const MIXED_TRIALS: usize = 2;

/// Trials per cell of `cubic-checkpointed`: 200 groups of 2 walks on 3
/// families, 600 blocks. Checkpoint cost grows with blocks², walking with
/// blocks; at 600 blocks walking stays about half the wall time.
pub const CUBIC_TRIALS: usize = 400;

/// Label of the E-process (uniform rule) cells in every report.
pub const EPROCESS: &str = "e-process(uniform)";

/// E-process mean vertex-cover steps per edge on the `mixed-shared`
/// regular graph must lie in this range. Vertex cover needs at least
/// n - 1 = m/2 - 1 steps on a 4-regular graph; Theorem 1 bounds it by
/// O(m), and the measured constant is close to 1.
pub const LINEAR_RANGE: (f64, f64) = (0.5, 2.0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvenSweep,
    MixedShared,
    CubicCheckpointed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EvenSweep,
        Workload::MixedShared,
        Workload::CubicCheckpointed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvenSweep => "even-sweep",
            Workload::MixedShared => "mixed-shared",
            Workload::CubicCheckpointed => "cubic-checkpointed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn artifact_kind(self) -> ArtifactKind {
        match self {
            Workload::EvenSweep => ArtifactKind::Scaling,
            _ => ArtifactKind::Ensemble,
        }
    }
}

/// Every size the benchmark depends on: the three workload specs and the
/// per-layer probe budgets. [`Sizes::paper`] is the benchmark;
/// [`Sizes::tiny`] is the harness's own test.
pub struct Sizes {
    pub even: ExperimentSpec,
    pub mixed: ExperimentSpec,
    pub cubic: ExperimentSpec,
    /// `canonicalize` + digest calls timed together in one set-up.
    pub setup_batch: usize,
    /// Walk steps each kernel probe accumulates (over repeated trials).
    pub probe_min_steps: u64,
    /// Step cap of one probe trial.
    pub probe_cap: u64,
    /// Cubic samples the generator probe builds.
    pub cubic_gen_samples: usize,
    /// Values pushed by the statistics probes.
    pub stats_values: usize,
    /// Bytes hashed by the SHA-256 probe.
    pub sha_bytes: usize,
}

impl Sizes {
    pub fn paper() -> Sizes {
        let mut mixed = builtin::comparison(Scale::Paper);
        mixed.trials = MIXED_TRIALS;
        let mut cubic = builtin::cubicensemble(Scale::Quick);
        cubic.trials = CUBIC_TRIALS;
        Sizes {
            even: builtin::scaling_even(Scale::Paper),
            mixed,
            cubic,
            setup_batch: 200,
            probe_min_steps: 400_000,
            probe_cap: 4_000_000,
            cubic_gen_samples: 24,
            stats_values: 2_000_000,
            sha_bytes: 8 << 20,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        use eproc_engine::GraphSpec;
        let mut even = builtin::scaling_even(Scale::Quick);
        even.graphs = [250, 500, 1_000, 2_000]
            .into_iter()
            .map(|n| GraphSpec::Regular { n, d: 4 })
            .collect();
        let mut mixed = builtin::comparison(Scale::Quick);
        mixed.graphs = vec![
            GraphSpec::Regular { n: 1_024, d: 4 },
            GraphSpec::Torus { w: 16, h: 16 },
            GraphSpec::Geometric {
                n: 500,
                radius_factor: 1.5,
            },
        ];
        mixed.trials = MIXED_TRIALS;
        let mut cubic = builtin::cubicensemble(Scale::Quick);
        cubic.graphs = [100, 200, 400]
            .into_iter()
            .map(|n| GraphSpec::Regular { n, d: 3 })
            .collect();
        cubic.trials = 8;
        Sizes {
            even,
            mixed,
            cubic,
            setup_batch: 10,
            probe_min_steps: 2_000,
            probe_cap: 100_000,
            cubic_gen_samples: 2,
            stats_values: 20_000,
            sha_bytes: 64 << 10,
        }
    }

    pub fn spec(&self, w: Workload) -> &ExperimentSpec {
        match w {
            Workload::EvenSweep => &self.even,
            Workload::MixedShared => &self.mixed,
            Workload::CubicCheckpointed => &self.cubic,
        }
    }
}

/// Engine base seeds one run cycles through. A shared-graph run walks one
/// sample of each family, and on `mixed-shared` the geometric sample alone
/// moves the critical path by about 15 % from seed to seed; cycling
/// through several samples makes a run's median describe the family
/// rather than one draw, while each seed still repeats within the run for
/// the artifact-repeat check.
pub const SEEDS_PER_RUN: u64 = 5;

/// What one run holds fixed across its iterations.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub spec: &'a ExperimentSpec,
    pub threads: usize,
    /// The run's `--seed`; iteration `i` runs on [`Ctx::base_seed`]`(i)`.
    pub seed: u64,
    pub setup_batch: usize,
    /// Scratch directory for checkpoints and the artifact cache.
    pub work: PathBuf,
}

/// The engine base seed of iteration `i` of a run with `--seed` `seed`.
pub fn base_seed(seed: u64, i: usize) -> u64 {
    SeedSequence::new(seed).derive(&[i as u64 % SEEDS_PER_RUN])
}

impl Ctx<'_> {
    pub fn base_seed(&self, i: usize) -> u64 {
        base_seed(self.seed, i)
    }
}

/// The workload's set-up: everything done before the first walk. Every
/// iteration sets up afresh, as every `eproc` invocation does, so set-up
/// samples spread over the run like the iterations they precede.
pub struct Setup {
    pub opts: RunOptions,
    pub digest: SpecDigest,
    pub canonical_line: String,
    /// The shared graphs (`mixed-shared` only; resampled workloads
    /// generate inside the worker pool).
    pub graphs: Option<Vec<Graph>>,
    /// Wall seconds the set-up took.
    pub secs: f64,
    /// The part of `secs` spent building the shared graphs.
    pub build_s: f64,
}

/// Sets the context's workload up: spec canonicalization plus digest
/// (averaged over a batch of calls, since one takes microseconds), plus
/// the shared-graph build for `mixed-shared`, for iteration `i`.
pub fn setup(ctx: &Ctx<'_>, i: usize) -> Result<Setup, String> {
    let spec = ctx.spec;
    let seed = ctx.base_seed(i);
    let t = Instant::now();
    let mut out = None;
    for _ in 0..ctx.setup_batch {
        let canonical_line = std::hint::black_box(spec).canonicalize().to_cli();
        let digest = spec_digest(spec, seed, &DEFAULT_QUANTILES, ctx.workload.artifact_kind());
        out = Some((digest, canonical_line));
    }
    let digest_s = t.elapsed().as_secs_f64() / ctx.setup_batch as f64;
    let t = Instant::now();
    let graphs = if ctx.workload == Workload::MixedShared {
        Some(build_graphs(spec, seed).map_err(|e| format!("building graphs: {e}"))?)
    } else {
        None
    };
    let build_s = t.elapsed().as_secs_f64();
    let (digest, canonical_line) = out.ok_or("set-up batch is empty")?;
    Ok(Setup {
        opts: RunOptions {
            threads: ctx.threads,
            base_seed: seed,
        },
        digest,
        canonical_line,
        graphs,
        secs: digest_s + build_s,
        build_s,
    })
}

/// One measured iteration of a workload.
pub struct Iteration {
    /// The engine base seed the iteration ran on.
    pub base_seed: u64,
    /// Wall seconds of the set-up before the engine calls.
    pub setup_s: f64,
    /// Wall seconds of the iteration's engine calls.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Walk steps simulated.
    pub steps: u64,
    /// Trials attempted.
    pub trials: u64,
    /// Failed operations: trials not completed plus output checks failed.
    pub failed: u64,
    pub problems: Vec<String>,
    /// The report artifact the iteration produced.
    pub artifact: String,
    /// Traced iterations only: seconds spent in each layer call.
    pub layers: Vec<(&'static str, f64)>,
    /// Traced iterations only: telemetry of the main engine call.
    pub exec: Option<ExecStats>,
}

impl Iteration {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|l| l.0 == name).map(|l| l.1)
    }
}

/// Times layer calls: a no-op wrapper untraced, a span per call traced.
struct Layers<'t> {
    tracer: Option<&'t Tracer>,
    parent: Option<usize>,
    seen: Vec<(&'static str, f64)>,
}

impl Layers<'_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(Option<usize>) -> T) -> T {
        match self.tracer {
            None => f(None),
            Some(t) => {
                let id = t.open(name, self.parent);
                let out = f(Some(id));
                self.seen.push((name, t.close(id)));
                out
            }
        }
    }
}

/// Runs one engine call with a [`NullSink`] untraced, or with an
/// [`EngineTrace`] parented on `span` traced.
fn with_sink<T>(
    tracer: Option<&Tracer>,
    span: Option<usize>,
    exec: &mut Option<ExecStats>,
    f: impl FnOnce(&dyn eproc_telemetry::TelemetrySink) -> T,
) -> T {
    match (tracer, span) {
        (Some(t), Some(id)) => {
            let trace = EngineTrace::new(t, id);
            let out = f(&trace.sink());
            *exec = Some(trace.finish());
            out
        }
        _ => f(&NullSink),
    }
}

/// Runs iteration `i` of the context's workload and checks its outputs.
pub fn iterate(ctx: &Ctx<'_>, i: usize, tracer: Option<&Tracer>) -> Iteration {
    let spec = ctx.spec;
    let mut it = Iteration {
        base_seed: ctx.base_seed(i),
        setup_s: 0.0,
        wall_s: 0.0,
        cpu_s: 0.0,
        steps: 0,
        trials: spec.total_jobs() as u64,
        failed: 0,
        problems: Vec::new(),
        artifact: String::new(),
        layers: Vec::new(),
        exec: None,
    };
    let root = tracer.map(|t| t.open(ctx.workload.name(), None));
    let mut layers = Layers {
        tracer,
        parent: root,
        seen: Vec::new(),
    };
    if ctx.workload == Workload::CubicCheckpointed {
        // A stale checkpoint from the previous iteration would be
        // overwritten anyway; removing it keeps every iteration's I/O equal.
        let _ = std::fs::remove_file(ctx.work.join("cubic.ckpt"));
    }
    let result = layers.call("setup", |_| setup(ctx, i)).and_then(|s| {
        it.setup_s = s.secs;
        let cpu0 = crate::sys::process_cpu_s();
        let t0 = Instant::now();
        let result = match ctx.workload {
            Workload::EvenSweep => even_sweep(ctx, &s, tracer, &mut layers, &mut it),
            Workload::MixedShared => mixed_shared(ctx, &s, tracer, &mut layers, &mut it),
            Workload::CubicCheckpointed => {
                cubic_checkpointed(ctx, &s, tracer, &mut layers, &mut it)
            }
        };
        it.wall_s = t0.elapsed().as_secs_f64();
        it.cpu_s = crate::sys::process_cpu_s() - cpu0;
        result
    });
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    it.layers = layers.seen;
    match result {
        Ok(report) => check_report(ctx, &report, &mut it),
        Err(e) => {
            // Every trial of a failed call is lost.
            it.failed += it.trials;
            it.problems.push(e);
        }
    }
    if let Some(exec) = &it.exec {
        let (steps, exec_steps) = (it.steps, exec.total_steps);
        it.check(steps == exec_steps, || {
            format!("report implies {steps} steps, telemetry counted {exec_steps}")
        });
    }
    it
}

fn even_sweep(
    ctx: &Ctx<'_>,
    setup: &Setup,
    tracer: Option<&Tracer>,
    layers: &mut Layers<'_>,
    it: &mut Iteration,
) -> Result<ExperimentReport, String> {
    let report = layers
        .call("engine.run_with_sink", |span| {
            with_sink(tracer, span, &mut it.exec, |sink| {
                run_with_sink(ctx.spec, &setup.opts, sink)
            })
        })
        .map_err(|e| format!("run_with_sink: {e}"))?;
    let scaling = layers.call("scaling.analyze", |_| analyze(&report));
    it.artifact = layers.call("report.to_json", |_| {
        to_json_with_scaling(&report, scaling.as_ref().ok())
    });
    match &scaling {
        Ok(s) => {
            let fit = s
                .series
                .iter()
                .find(|f| f.process == EPROCESS && f.series == STEPS_SERIES);
            let preferred = fit.map(|f| f.selection.preferred);
            it.check(
                matches!(
                    preferred,
                    Some(GrowthModel::ProportionalEdges | GrowthModel::AffineEdges)
                ),
                || format!("even-sweep: E-process steps series prefers {preferred:?}, not a linear model"),
            );
        }
        Err(e) => it.check(false, || format!("even-sweep: analyze failed: {e}")),
    }
    Ok(report)
}

fn mixed_shared(
    ctx: &Ctx<'_>,
    setup: &Setup,
    tracer: Option<&Tracer>,
    layers: &mut Layers<'_>,
    it: &mut Iteration,
) -> Result<ExperimentReport, String> {
    let graphs = setup
        .graphs
        .as_deref()
        .ok_or("mixed-shared set-up built no graphs")?;
    let report = layers
        .call("engine.run_on_graphs_with_sink", |span| {
            with_sink(tracer, span, &mut it.exec, |sink| {
                run_on_graphs_with_sink(ctx.spec, &setup.opts, graphs, sink)
            })
        })
        .map_err(|e| format!("run_on_graphs: {e}"))?;
    // The shared graphs were generated in set-up; that is this run's
    // generation stage.
    if let Some(exec) = &mut it.exec {
        exec.generation_s += setup.build_s;
    }
    it.artifact = layers.call("report.to_json", |_| to_json(&report));
    let family = ctx.spec.graphs[0].label();
    match report
        .cells
        .iter()
        .find(|c| c.graph == family && c.process == EPROCESS)
    {
        Some(cell) => {
            let per_edge = cell.steps.mean() / cell.m as f64;
            it.check(
                per_edge >= LINEAR_RANGE.0 && per_edge <= LINEAR_RANGE.1,
                || format!("mixed-shared: E-process mean steps/m = {per_edge} on {family}, outside {LINEAR_RANGE:?}"),
            );
        }
        None => it.check(false, || {
            format!("mixed-shared: no E-process cell on {family}")
        }),
    }
    Ok(report)
}

fn cubic_checkpointed(
    ctx: &Ctx<'_>,
    setup: &Setup,
    tracer: Option<&Tracer>,
    layers: &mut Layers<'_>,
    it: &mut Iteration,
) -> Result<ExperimentReport, String> {
    let path = ctx.work.join("cubic.ckpt");
    let write = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: path.clone(),
            every: 1,
        }),
        ..RecoveryOptions::default()
    };
    let outcome = layers
        .call("engine.run_recoverable_with_sink", |span| {
            with_sink(tracer, span, &mut it.exec, |sink| {
                eproc_engine::run_recoverable_with_sink(ctx.spec, &setup.opts, &write, sink)
            })
        })
        .map_err(|e| format!("run_recoverable: {e}"))?;
    let RunOutcome::Completed(report) = outcome else {
        return Err("run_recoverable was interrupted".into());
    };
    it.artifact = layers.call("report.to_json", |_| to_json(&report));

    let checkpoint = layers
        .call("checkpoint.load", |_| RunCheckpoint::load(&path))
        .map_err(|e| format!("loading checkpoint: {e}"))?;
    let resume = RecoveryOptions {
        resume: Some(checkpoint),
        ..RecoveryOptions::default()
    };
    let resumed = layers
        .call("recovery.resume", |_| {
            eproc_engine::run_recoverable(ctx.spec, &setup.opts, &resume)
        })
        .map_err(|e| format!("resume: {e}"))?;
    let resumed = match resumed {
        RunOutcome::Completed(r) => to_json(&r),
        RunOutcome::Interrupted { .. } => return Err("resume was interrupted".into()),
    };
    it.check(resumed == it.artifact, || {
        "cubic-checkpointed: resumed artifact differs from the checkpointed run's".into()
    });

    let cache = CacheStore::open(ctx.work.join("cache"));
    let digest = &setup.digest;
    layers
        .call("cache.store", |_| {
            cache.store(digest, &it.artifact, &setup.canonical_line)
        })
        .map_err(|e| format!("cache store: {e}"))?;
    let loaded = layers
        .call("cache.load", |_| cache.load(digest))
        .map_err(|e| format!("cache load: {e}"))?;
    it.check(loaded.as_deref() == Some(it.artifact.as_str()), || {
        "cubic-checkpointed: cache-loaded bytes differ from the checkpointed run's artifact".into()
    });
    Ok(report)
}

/// Checks every workload shares: all trials completed. Also derives the
/// iteration's walk steps from the report.
fn check_report(ctx: &Ctx<'_>, report: &ExperimentReport, it: &mut Iteration) {
    let mut steps = 0.0;
    for cell in &report.cells {
        let lost = (cell.trials - cell.completed) as u64;
        if lost > 0 {
            it.failed += lost;
            it.problems.push(format!(
                "{} on {}: {lost} trial(s) hit the step cap",
                cell.process, cell.graph
            ));
        }
        // A walk runs until its target and every metric resolve; with the
        // cover metric that is edge cover, which implies vertex cover.
        let walked = cell
            .metrics
            .iter()
            .find(|m| m.name == "cover.c_e")
            .map_or(&cell.steps, |m| &m.stats);
        steps += walked.mean() * walked.count() as f64;
    }
    it.steps = steps.round() as u64;
    let cells = ctx.spec.graphs.len() * ctx.spec.processes.len();
    it.check(report.cells.len() == cells, || {
        format!("report has {} cells, spec has {cells}", report.cells.len())
    });
}

/// SHA-256 of an artifact, as hex.
pub fn artifact_sha(artifact: &str) -> String {
    sha256(artifact.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
