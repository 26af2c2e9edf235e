//! Per-layer probes of the traced run: graph generation, the walk
//! kernels, the statistics accumulators, and the digest. Each probe calls
//! one layer's public API directly, on samples rebuilt from the workload
//! specs at the run's seed, inside a span of its own.

use crate::trace::Tracer;
use crate::workloads::Sizes;
use crate::Metrics;
use eproc_core::cover::CoverTarget;
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{run_observed, CoverObserver, StopWhen};
use eproc_engine::digest::sha256;
use eproc_engine::executor::{graph_seed, resample_graph_seed};
use eproc_engine::spec::{ExperimentSpec, ProcessSpec, RuleSpec};
use eproc_engine::{with_kernel, with_kernel_lanes};
use eproc_graphs::Graph;
use eproc_stats::{OnlineStats, QuantileSketch, SeedSequence};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Seed-stream tag of the probe walks, apart from the engine's own tags.
const PROBE_STREAM: u64 = 100;

/// Tags of the `mixed-shared` families, in grid order.
pub const MIXED_GRAPHS: [&str; 3] = ["regular64k", "torus128", "geometric"];

/// Tags of the `mixed-shared` processes, in grid order.
pub const MIXED_PROCESSES: [&str; 6] = ["eprocess", "srw", "rotor", "rwc2", "oldest", "leastused"];

/// Bytes of E-process step state on a graph with `n` vertices and `m`
/// edges, computed from the array layout (not measured): the CSR
/// (`offsets` 8(n+1), `arc_targets` and `arc_edges` 4·2m each,
/// `edge_endpoints` and `edge_arcs` 8m each) plus the walk's own arrays
/// (`live` 4n, `slots` 8·2m, `pos` 4·2m, the visited-edge bitset m/8).
pub fn eprocess_state_bytes(n: u64, m: u64) -> u64 {
    let csr = 8 * (n + 1) + 2 * (4 * 2 * m) + 2 * (8 * m);
    let walk = 4 * n + 8 * 2 * m + 4 * 2 * m + m.div_ceil(64) * 8;
    csr + walk
}

/// The E-process kernel-probe graphs of `even-sweep`: its smallest and
/// largest sweep points, as `(tag, family index)`.
pub fn eprocess_probe_families(even: &ExperimentSpec) -> [(&'static str, usize); 2] {
    [("n4k", 0), ("n256k", even.graphs.len() - 1)]
}

/// Times `f` `reps` times and returns the median seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_secs_f64()
        })
        .collect();
    crate::median(&mut t)
}

/// Builds `samples` resampled graphs of family `gi`; returns them with
/// the generation seconds and generator attempts spent.
fn build_samples(
    spec: &ExperimentSpec,
    seed: u64,
    gi: usize,
    samples: usize,
) -> Result<(Vec<Graph>, f64, usize), String> {
    let mut graphs = Vec::with_capacity(samples);
    let (mut secs, mut attempts) = (0.0, 0);
    for group in 0..samples {
        let t = Instant::now();
        let (g, a) = spec.graphs[gi]
            .build_counted(resample_graph_seed(seed, gi, group))
            .map_err(|e| format!("building {}: {e}", spec.graphs[gi].label()))?;
        secs += t.elapsed().as_secs_f64();
        attempts += a;
        graphs.push(g);
    }
    Ok((graphs, secs, attempts))
}

/// Mean nanoseconds per step of `process` on `g`: single-threaded
/// `run_observed` trials to vertex cover (or `cap`), repeated with fresh
/// seeds until `min_steps` steps have been walked. Kernel construction
/// is outside the timed region.
fn ns_per_step(g: &Graph, process: &ProcessSpec, seed: u64, min_steps: u64, cap: u64) -> f64 {
    let mut observers = (CoverObserver::new(CoverTarget::Vertices),);
    let (mut steps, mut secs, mut trial) = (0u64, 0.0, 0u64);
    while steps < min_steps {
        let mut rng = SmallRng::seed_from_u64(SeedSequence::new(seed).derive(&[trial]));
        let kernel = process.build_kernel(g, 0);
        let t = Instant::now();
        let run = with_kernel!(kernel, walk => run_observed(
            &mut walk,
            &mut observers,
            StopWhen::AllSatisfied,
            cap,
            &mut rng,
        ));
        secs += t.elapsed().as_secs_f64();
        steps += run.steps;
        trial += 1;
    }
    secs * 1e9 / steps as f64
}

/// [`ns_per_step`] through `run_observed_interleaved` with two lanes.
fn ns_per_step_w2(g: &Graph, process: &ProcessSpec, seed: u64, min_steps: u64, cap: u64) -> f64 {
    let mut banks = [
        (CoverObserver::new(CoverTarget::Vertices),),
        (CoverObserver::new(CoverTarget::Vertices),),
    ];
    let (mut steps, mut secs, mut set) = (0u64, 0.0, 0u64);
    while steps < min_steps {
        let rngs: Vec<SmallRng> = (0..2)
            .map(|lane| SmallRng::seed_from_u64(SeedSequence::new(seed).derive(&[set, lane])))
            .collect();
        let kernels = (0..2).map(|_| process.build_kernel(g, 0)).collect();
        let t = Instant::now();
        let runs = with_kernel_lanes!(kernels, walks => {
            let mut lanes: Vec<Lane<'_, _, _, SmallRng>> = walks
                .into_iter()
                .zip(banks.iter_mut())
                .zip(rngs)
                .map(|((walk, bank), rng)| Lane::new(walk, bank, rng))
                .collect();
            run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, cap)
        });
        secs += t.elapsed().as_secs_f64();
        steps += runs.iter().map(|r| r.steps).sum::<u64>();
        set += 1;
    }
    secs * 1e9 / steps as f64
}

/// Cost of the cover observer: E-process ns/step with a `CoverObserver`
/// over ns/step with no observer, both walking exactly `cap` steps from
/// the same seed. Median of five alternating pairs.
fn cover_observer_overhead(g: &Graph, seed: u64, cap: u64) -> f64 {
    let process = ProcessSpec::EProcess {
        rule: RuleSpec::Uniform,
    };
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let time = |observed: bool| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let kernel = process.build_kernel(g, 0);
                let mut cover = (CoverObserver::new(CoverTarget::Both),);
                let mut none: [CoverObserver; 0] = [];
                let t = Instant::now();
                let run = if observed {
                    with_kernel!(kernel, walk => run_observed(&mut walk, &mut cover, StopWhen::Cap, cap, &mut rng))
                } else {
                    with_kernel!(kernel, walk => run_observed(&mut walk, &mut none, StopWhen::Cap, cap, &mut rng))
                };
                black_box(run);
                t.elapsed().as_secs_f64()
            };
            let bare = time(false);
            time(true) / bare
        })
        .collect();
    crate::median(&mut ratios)
}

/// Runs every probe, adding its metrics to `out`.
pub fn run_all(
    sizes: &Sizes,
    seed: u64,
    tracer: &Tracer,
    parent: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let span = |name: &str| tracer.open(name, Some(parent));
    let min = sizes.probe_min_steps;
    let cap = sizes.probe_cap;

    // Graph generation, on each workload's own samples.
    let id = span("probe.graphs");
    let even = &sizes.even;
    let regular_gi = even.graphs.len().saturating_sub(3);
    let (_, reg_s, reg_a) = build_samples(even, seed, regular_gi, 2)?;
    let reg_n = 2 * even.graphs[regular_gi]
        .vertex_count()
        .map_err(|e| e.to_string())?;
    let cubic = &sizes.cubic;
    let cubic_gi = cubic.graphs.len() - 1;
    let (cubic_samples, cub_s, cub_a) =
        build_samples(cubic, seed, cubic_gi, sizes.cubic_gen_samples)?;
    let cub_n = cubic_samples.iter().map(Graph::n).sum::<usize>();
    let mixed = &sizes.mixed;
    let mut mixed_graphs = Vec::new();
    let (mut geo_s, mut geo_a, mut geo_n) = (0.0, 0, 0);
    for (gi, gs) in mixed.graphs.iter().enumerate() {
        let t = Instant::now();
        let (g, a) = gs
            .build_counted(graph_seed(seed, gi))
            .map_err(|e| format!("building {}: {e}", gs.label()))?;
        if gi == 2 {
            (geo_s, geo_a, geo_n) = (t.elapsed().as_secs_f64(), a, g.n());
        }
        mixed_graphs.push(g);
    }
    out.add(
        "graphs.gen_us_per_vertex.regular4",
        reg_s * 1e6 / reg_n as f64,
        "us/vertex",
    );
    out.add(
        "graphs.gen_us_per_vertex.cubic",
        cub_s * 1e6 / cub_n as f64,
        "us/vertex",
    );
    out.add(
        "graphs.gen_us_per_vertex.geometric",
        geo_s * 1e6 / geo_n as f64,
        "us/vertex",
    );
    let samples = 2 + sizes.cubic_gen_samples + 1;
    out.add(
        "graphs.gen_attempts_per_sample",
        (reg_a + cub_a + geo_a) as f64 / samples as f64,
        "attempts/sample",
    );
    tracer.close(id);

    // Walk kernels, single-threaded.
    let id = span("probe.core");
    let eprocess = ProcessSpec::EProcess {
        rule: RuleSpec::Uniform,
    };
    let mut probe_seed = 0u64;
    let mut next_seed = || {
        probe_seed += 1;
        SeedSequence::new(seed).derive(&[PROBE_STREAM, probe_seed])
    };
    for (tag, gi) in eprocess_probe_families(even) {
        let (g, _, _) = build_samples(even, seed, gi, 1)?;
        let g = &g[0];
        out.add(
            &format!("core.eprocess.ns_per_step.{tag}"),
            ns_per_step(g, &eprocess, next_seed(), min, cap),
            "ns/step",
        );
        out.add(
            &format!("core.eprocess.state_bytes.{tag}"),
            eprocess_state_bytes(g.n() as u64, g.m() as u64) as f64,
            "bytes-computed",
        );
        if tag == "n256k" {
            out.add(
                "core.eprocess_w2.ns_per_step.n256k",
                ns_per_step_w2(g, &eprocess, next_seed(), min, cap),
                "ns/step",
            );
        } else {
            out.add(
                "core.cover_observer.overhead_ratio",
                cover_observer_overhead(g, next_seed(), 50 * g.m() as u64),
                "x",
            );
        }
    }
    for (g, gtag) in mixed_graphs.iter().zip(MIXED_GRAPHS) {
        for (p, ptag) in mixed.processes.iter().zip(MIXED_PROCESSES) {
            out.add(
                &format!("core.{ptag}.ns_per_step.{gtag}"),
                ns_per_step(g, p, next_seed(), min, cap),
                "ns/step",
            );
        }
    }
    for (p, ptag) in cubic.processes.iter().zip(["eprocess", "srw"]) {
        out.add(
            &format!("core.{ptag}.ns_per_step.cubic2k"),
            ns_per_step(&cubic_samples[0], p, next_seed(), min, cap),
            "ns/step",
        );
    }
    tracer.close(id);

    // Streaming statistics.
    let id = span("probe.stats");
    let values: Vec<f64> = (0..sizes.stats_values as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64)
        .collect();
    let n = values.len() as f64;
    let online = median_time(3, || {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(black_box(v));
        }
        black_box(s);
    });
    out.add("stats.online_push_ns", online * 1e9 / n, "ns");
    let sketch = median_time(3, || {
        let mut s = QuantileSketch::new(seed);
        for &v in &values {
            s.push(black_box(v));
        }
        black_box(s);
    });
    out.add("stats.sketch_push_ns", sketch * 1e9 / n, "ns");
    let chunk = (values.len() / 32).max(1);
    let parts: Vec<QuantileSketch> = values
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            let mut s = QuantileSketch::new(seed ^ i as u64);
            c.iter().for_each(|&v| s.push(v));
            s
        })
        .collect();
    let merge = median_time(3, || {
        let mut acc = QuantileSketch::new(seed);
        for p in &parts {
            acc.merge(black_box(p));
        }
        black_box(acc);
    });
    out.add(
        "stats.sketch_merge_us",
        merge * 1e6 / parts.len() as f64,
        "us",
    );
    tracer.close(id);

    // Digest throughput.
    let id = span("probe.digest");
    let bytes: Vec<u8> = (0..sizes.sha_bytes)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    let sha = median_time(3, || {
        black_box(sha256(black_box(&bytes)));
    });
    out.add(
        "digest.sha256_mb_per_s",
        bytes.len() as f64 / 1e6 / sha,
        "MB/s",
    );
    tracer.close(id);
    Ok(())
}
