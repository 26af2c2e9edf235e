//! `eproc-perfbench`: the eproc engine's benchmark harness.
//!
//! ```text
//! eproc-perfbench --workload <even-sweep|mixed-shared|cubic-checkpointed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` runs the same workload traced plus the per-layer probes.
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the environment record. See `perfbench/README.md`.

mod probes;
mod sys;
mod trace;
mod workloads;

use eproc_engine::{spec_digest, CacheStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{ExecStats, Tracer};
use workloads::{iterate, setup, Ctx, Iteration, Sizes, Workload};

/// Iterations every untraced run measures, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Untraced/traced iteration pairs every traced run measures.
const MIN_PAIRS: usize = 2;
/// Upper bound on iterations, so a tiny workload cannot spin forever.
const MAX_ITERATIONS: usize = 1_000;
/// Where runs keep scratch files and traces, relative to the checkout.
const WORK_ROOT: &str = ".bench_build/perfbench";

const USAGE: &str =
    "usage: eproc-perfbench --workload <even-sweep|mixed-shared|cubic-checkpointed> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Metrics by name: `(value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn median_of(v: impl IntoIterator<Item = f64>) -> f64 {
    median(&mut v.into_iter().collect::<Vec<_>>())
}

/// One run's result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.trials;
        self.failed += it.failed;
        self.problems.extend(it.problems.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.0.values().all(|(v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    sys::json_str(name),
                    sys::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 12345, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn context<'a>(w: Workload, sizes: &'a Sizes, seed: u64, work: &Path) -> Ctx<'a> {
    Ctx {
        workload: w,
        spec: sizes.spec(w),
        threads: sys::nproc(),
        seed,
        setup_batch: sizes.setup_batch,
        work: work.join(w.name()),
    }
}

/// The environment record printed with every result.
fn environment(w: Workload, sizes: &Sizes, seed: u64, trace: bool) -> String {
    let l2 = sys::cache_bytes(2);
    let l3 = sys::cache_bytes(3);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let probes: Vec<String> = probes::eprocess_probe_families(&sizes.even)
        .iter()
        .map(|&(tag, gi)| {
            let n = sizes.even.graphs[gi].vertex_count().unwrap_or(0) as u64;
            let m = 2 * n; // the sweep is 4-regular
            let bytes = probes::eprocess_state_bytes(n, m);
            let regime = match (l2, l3) {
                (Some(l2), _) if bytes <= l2 => "L2-resident",
                (_, Some(l3)) if bytes <= l3 => "beyond-L2",
                (Some(_), Some(_)) => "beyond-L3",
                _ => "unknown",
            };
            format!(
                "{}: {{\"n\": {n}, \"m\": {m}, \"state_bytes_computed\": {bytes}, \"regime\": {}}}",
                sys::json_str(tag),
                sys::json_str(regime)
            )
        })
        .collect();
    let base_seeds: Vec<String> = (0..workloads::SEEDS_PER_RUN as usize)
        .map(|i| workloads::base_seed(seed, i).to_string())
        .collect();
    format!(
        "{{\"workload\": {}, \"trace\": {trace}, \"seed\": {seed}, \"base_seeds\": [{}], \
         \"nproc\": {}, \"threads\": {}, \"commit\": {}, \"rustc\": {}, \"l2_bytes\": {}, \
         \"l3_bytes\": {}, \"eprocess_state\": {{{}}}}}",
        sys::json_str(w.name()),
        base_seeds.join(", "),
        sys::nproc(),
        sys::nproc(),
        sys::json_str(&sys::commit()),
        sys::json_str(&sys::rustc()),
        opt(l2),
        opt(l3),
        probes.join(", ")
    )
}

/// Checks that every repeat of one base seed produced the same artifact
/// bytes.
fn check_repeats(iters: &[&Iteration], out: &mut Outcome) {
    let mut first: BTreeMap<u64, String> = BTreeMap::new();
    for it in iters {
        let got = workloads::artifact_sha(&it.artifact);
        let want = first.entry(it.base_seed).or_insert_with(|| got.clone());
        if got != *want {
            out.failed += 1;
            out.problems.push(format!(
                "base seed {}: artifact SHA-256 {got} differs from the first repeat's {want}",
                it.base_seed
            ));
        }
    }
}

/// `--trace 0`: repeat the workload for `seconds` with telemetry off.
fn run_untraced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, String> {
    let ctx = context(w, sizes, seed, work);
    let mut iters = Vec::new();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while iters.len() < MIN_ITERATIONS || (t0.elapsed() < budget && iters.len() < MAX_ITERATIONS) {
        iters.push(iterate(&ctx, iters.len(), None));
    }
    let mut out = Outcome::new();
    iters.iter().for_each(|it| out.absorb(it));
    check_repeats(&iters.iter().collect::<Vec<_>>(), &mut out);
    let wall = median_of(iters.iter().map(|it| it.wall_s));
    let m = &mut out.metrics;
    m.add("wall_s", wall, "s");
    m.add(
        "steps_per_s",
        median_of(iters.iter().map(|it| it.steps as f64 / it.wall_s)),
        "1/s",
    );
    m.add("cpu_s", median_of(iters.iter().map(|it| it.cpu_s)), "s");
    m.add("setup_s", median_of(iters.iter().map(|it| it.setup_s)), "s");
    m.add("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN), "MB");
    Ok(out)
}

/// Adds the executor roll-up of the traced iterations (medians; block
/// durations pooled).
fn executor_metrics(execs: &[&ExecStats], m: &mut Metrics) {
    let med = |f: fn(&ExecStats) -> f64| median_of(execs.iter().map(|e| f(e)));
    m.add("executor.generation_s", med(|e| e.generation_s), "s");
    m.add("executor.walking_s", med(|e| e.walking_s), "s");
    m.add("executor.aggregation_s", med(|e| e.aggregation_s), "s");
    m.add("executor.blocks", med(|e| e.blocks as f64), "count");
    let mut blocks: Vec<f64> = execs
        .iter()
        .flat_map(|e| e.block_ms.iter().copied())
        .collect();
    m.add("executor.block_ms.p50", median(&mut blocks), "ms");
    m.add(
        "executor.block_ms.max",
        blocks.iter().copied().fold(f64::NAN, f64::max),
        "ms",
    );
    m.add(
        "executor.worker_util_min",
        med(|e| e.worker_util_min),
        "ratio",
    );
    m.add(
        "executor.worker_util_mean",
        med(|e| e.worker_util_mean),
        "ratio",
    );
    m.add("executor.idle_tail_s", med(|e| e.idle_tail_s), "s");
}

/// `--trace 1`: alternate untraced and traced iterations for `seconds`,
/// then run the per-layer probes. Layers the workload does not exercise
/// (checkpointing, growth-law analysis) are measured on one traced
/// iteration of the workload that owns them.
fn run_traced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let root = tracer.open("perfbench.trace", None);
    let ctx = context(w, sizes, seed, work);
    // One untimed warm-up iteration, so the first timed pair does not pay
    // for cold caches and first-touch page faults.
    let warmup = iterate(&ctx, 0, None);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pair = 0;
    while pair < MIN_PAIRS || (t0.elapsed() < budget && pair < MAX_ITERATIONS) {
        // Alternate which side goes first so drift favours neither.
        // Both sides of a pair run on the same base seed.
        if pair % 2 == 0 {
            plain.push(iterate(&ctx, pair, None));
            traced.push(iterate(&ctx, pair, Some(tracer)));
        } else {
            traced.push(iterate(&ctx, pair, Some(tracer)));
            plain.push(iterate(&ctx, pair, None));
        }
        pair += 1;
    }
    let mut out = Outcome::new();
    let all: Vec<&Iteration> = [&warmup].into_iter().chain(&plain).chain(&traced).collect();
    all.iter().for_each(|it| out.absorb(it));
    check_repeats(&all, &mut out);

    // Owners of the layers this workload does not exercise.
    let mut owned: BTreeMap<&str, Vec<Iteration>> = BTreeMap::new();
    for owner in [Workload::EvenSweep, Workload::CubicCheckpointed] {
        if owner != w {
            let owner_ctx = context(owner, sizes, seed, work);
            let it = iterate(&owner_ctx, 0, Some(tracer));
            out.absorb(&it);
            owned.insert(owner.name(), vec![it]);
        }
    }
    owned.insert(w.name(), traced);
    let traced = &owned[w.name()];
    let layer = |owner: Workload, name: &str| {
        median_of(owned[owner.name()].iter().filter_map(|it| it.layer(name)))
    };
    let render = median_of(traced.iter().filter_map(|it| it.layer("report.to_json")));
    let cubic_execs: Vec<&ExecStats> = owned[Workload::CubicCheckpointed.name()]
        .iter()
        .filter_map(|it| it.exec.as_ref())
        .collect();
    let ckpt = |f: fn(&ExecStats) -> f64| median_of(cubic_execs.iter().map(|e| f(e)));
    let ckpt_s = ckpt(|e| e.checkpoint_s);
    let ckpt_bytes = ckpt(|e| e.checkpoint_bytes as f64);

    let m = &mut out.metrics;
    let execs: Vec<&ExecStats> = traced.iter().filter_map(|it| it.exec.as_ref()).collect();
    executor_metrics(&execs, m);
    m.add(
        "telemetry.overhead_ratio",
        median_of(traced.iter().zip(&plain).map(|(t, p)| t.wall_s / p.wall_s)),
        "x",
    );
    m.add("report.render_ms", render * 1e3, "ms");
    m.add(
        "report.artifact_bytes",
        traced[0].artifact.len() as f64,
        "bytes",
    );
    m.add(
        "scaling.analyze_ms",
        layer(Workload::EvenSweep, "scaling.analyze") * 1e3,
        "ms",
    );
    m.add(
        "checkpoint.writes",
        ckpt(|e| e.checkpoint_writes as f64),
        "count",
    );
    m.add("checkpoint.bytes_total", ckpt_bytes, "bytes");
    m.add("checkpoint.s", ckpt_s, "s");
    m.add("checkpoint.mb_per_s", ckpt_bytes / 1e6 / ckpt_s, "MB/s");
    m.add(
        "checkpoint.load_ms",
        layer(Workload::CubicCheckpointed, "checkpoint.load") * 1e3,
        "ms",
    );
    m.add(
        "recovery.resume_s",
        layer(Workload::CubicCheckpointed, "recovery.resume"),
        "s",
    );

    // Digest and cache, on this workload's spec and artifact.
    let id = tracer.open("probe.cache", Some(root));
    let setup = setup(&ctx, 0)?;
    let reps = sizes.setup_batch;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(spec_digest(
            ctx.spec,
            setup.opts.base_seed,
            &eproc_engine::report::DEFAULT_QUANTILES,
            w.artifact_kind(),
        ));
    }
    m.add(
        "digest.spec_digest_us",
        t.elapsed().as_secs_f64() * 1e6 / reps as f64,
        "us",
    );
    let cache = CacheStore::open(ctx.work.join("probe-cache"));
    let artifact = &traced[0].artifact;
    let (mut store, mut load) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        cache
            .store(&setup.digest, artifact, &setup.canonical_line)
            .map_err(|e| format!("cache store: {e}"))?;
        store.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let loaded = cache
            .load(&setup.digest)
            .map_err(|e| format!("cache load: {e}"))?;
        load.push(t.elapsed().as_secs_f64());
        if loaded.as_deref() != Some(artifact.as_str()) {
            out.failed += 1;
            out.problems
                .push("cache probe: loaded bytes differ from stored".into());
        }
    }
    m.add("cache.store_ms", median(&mut store) * 1e3, "ms");
    m.add("cache.load_ms", median(&mut load) * 1e3, "ms");
    tracer.close(id);

    let id = tracer.open("probes", Some(root));
    probes::run_all(sizes, ctx.base_seed(0), tracer, id, &mut out.metrics)?;
    tracer.close(id);
    tracer.close(root);
    Ok(out)
}

/// Runs one workload in one mode and returns its outcome.
fn run(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let work = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    let _scratch = Scratch(work.clone());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    if !trace {
        return run_untraced(w, sizes, seed, seconds, &work);
    }
    let tracer = Tracer::new();
    let out = run_traced(w, sizes, seed, seconds, &work, &tracer)?;
    let path = PathBuf::from(WORK_ROOT)
        .join("traces")
        .join(format!("{}-seed{seed}.spans.json", w.name()));
    tracer
        .write_json(&path, &environment(w, sizes, seed, trace))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(out)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eproc-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let sizes = Sizes::paper();
    let out = match run(args.workload, &sizes, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("eproc-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{}",
        environment(args.workload, &sizes, args.seed, args.trace)
    );
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in BENCHMARK.json (a flat scan: every
    /// `"name": "..."` inside that key's array), sorted.
    fn listed_names(benchmark: &str, key: &str) -> Vec<String> {
        let rest = &benchmark[benchmark.find(&format!("\"{key}\"")).expect(key)..];
        let array = &rest[rest.find('[').expect("array")..rest.find(']').expect("closed")];
        let mut names: Vec<String> = array
            .split("\"name\":")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect();
        names.sort();
        names
    }

    /// Every workload at tiny sizes, in both modes: passes its output
    /// checks and emits exactly the metrics BENCHMARK.json lists, each
    /// with a well-formed name and a unit.
    #[test]
    fn every_workload_emits_the_listed_metrics_at_tiny_sizes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let benchmark = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let mut workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        workloads.sort();
        assert_eq!(listed_names(&benchmark, "workloads"), workloads);
        let sizes = Sizes::tiny();
        for w in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = run(w, &sizes, 12345, 0.0, trace).expect("run completes");
                let what = format!("{} --trace {}", w.name(), trace as u8);
                assert!(out.correct(), "{what}: checks failed: {:?}", out.problems);
                for (name, (_, unit)) in &out.metrics.0 {
                    let valid = name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                    assert!(
                        valid && !name.is_empty(),
                        "{what}: bad metric name {name:?}"
                    );
                    assert!(!unit.is_empty(), "{what}: {name} has no unit");
                }
                let got: Vec<String> = out.metrics.0.keys().cloned().collect();
                assert_eq!(
                    got,
                    listed_names(&benchmark, key),
                    "{what}: metrics differ from {key}"
                );
            }
        }
    }
}
