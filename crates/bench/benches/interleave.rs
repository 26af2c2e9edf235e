//! Interleaved multi-trial kernel vs running the same trials one at a
//! time, on a CSR far too large for cache.
//!
//! The engine's resample blocks run `W` independent same-cell trials.
//! Sequentially, each trial streams the whole graph through cache on its
//! own, and every step stalls on a random CSR row fetch. The
//! interleaved kernel ([`run_observed_interleaved`]) gives `W` lanes one
//! step each in rotation, issuing the *next* lane's row load before the
//! current lane steps, so the fetches overlap — same trajectories, same
//! RNG streams (asserted before timing), better memory-level
//! parallelism. Whether that beats the sequential kernel depends on how
//! many dependent misses one step has: on the compacted E-process step
//! state it does not (ratios below 1 at widths 4 and 8), which is why the
//! executor runs trials sequentially.
//!
//! The graph is a random 4-regular graph with `n = 1_000_000`: ~1M
//! vertices of CSR rows (well past L2) walked uniformly at random, the
//! shape the engine's large resampled ensembles actually run. Widths 1,
//! 4 and 8 are timed both ways at a fixed step cap. Writes
//! `target/experiments/BENCH_interleave.json`; the acceptance floor for
//! the interleave PR was ≥1.3× aggregate steps/sec at `W >= 4`.

use criterion::black_box;
use eproc_bench::{output_dir, rng_for};
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{run_observed, CoverObserver, StopWhen};
use eproc_core::rule::UniformRule;
use eproc_core::EProcess;
use eproc_graphs::{generators, Graph};
use rand::rngs::SmallRng;
use std::time::Instant;

const N: usize = 1_000_000;
const DEGREE: usize = 4;
const STEPS_PER_LANE: u64 = 1_000_000;
const SAMPLES: usize = 3;
const WIDTHS: [usize; 3] = [1, 4, 8];

/// Minimum seconds over `SAMPLES` timed runs — the least-interference
/// estimate (noise only ever adds time).
fn best_secs<F: FnMut()>(mut f: F) -> f64 {
    (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Lane `i`'s walk: starts spread across the vertex range so the lanes
/// touch disjoint regions at first, its own seeded RNG stream.
fn walk_for(g: &Graph, i: usize, width: usize) -> (EProcess<'_, UniformRule>, SmallRng) {
    let start = (i * (g.n() / width.max(1))) % g.n();
    (
        EProcess::new(g, start, UniformRule::new()),
        rng_for(1_000 + i as u64),
    )
}

/// No-op observer set: the bench times the bare step loop, the shape the
/// memory-latency win actually targets.
type NoObservers = [CoverObserver; 0];

/// Runs the `width` trials one at a time to `cap` steps each; returns
/// their final vertices (for the equivalence check).
fn run_sequential(g: &Graph, width: usize, cap: u64) -> Vec<usize> {
    (0..width)
        .map(|i| {
            let (mut walk, mut rng) = walk_for(g, i, width);
            let mut obs: NoObservers = [];
            let run = run_observed(&mut walk, &mut obs, StopWhen::Cap, cap, &mut rng);
            black_box(run.final_vertex)
        })
        .collect()
}

/// Runs the same `width` trials through the interleaved kernel; returns
/// the same per-lane final vertices.
fn run_interleaved(g: &Graph, width: usize, cap: u64) -> Vec<usize> {
    let mut obs: Vec<NoObservers> = (0..width).map(|_| []).collect();
    let mut lanes: Vec<Lane<'_, _, NoObservers, SmallRng>> = obs
        .iter_mut()
        .enumerate()
        .map(|(i, o)| {
            let (walk, rng) = walk_for(g, i, width);
            Lane::new(walk, o, rng)
        })
        .collect();
    let runs = run_observed_interleaved(&mut lanes, StopWhen::Cap, cap);
    black_box(runs.into_iter().map(|r| r.final_vertex).collect())
}

fn rate(width: usize, secs: f64) -> f64 {
    (width as u64 * STEPS_PER_LANE) as f64 / secs
}

fn main() {
    let mut graph_rng = rng_for(7);
    let g = generators::connected_random_regular(N, DEGREE, &mut graph_rng).unwrap();

    // The two paths must walk identical trajectories before their speeds
    // are worth comparing.
    for width in WIDTHS {
        assert_eq!(
            run_sequential(&g, width, 20_000),
            run_interleaved(&g, width, 20_000),
            "interleaved kernel diverged from sequential at width {width}"
        );
    }

    let mut lines = String::new();
    for width in WIDTHS {
        let seq = rate(
            width,
            best_secs(|| {
                black_box(run_sequential(&g, width, STEPS_PER_LANE));
            }),
        );
        let inter = rate(
            width,
            best_secs(|| {
                black_box(run_interleaved(&g, width, STEPS_PER_LANE));
            }),
        );
        let speedup = inter / seq;
        println!(
            "interleave/w{width}: sequential {:.2} Msteps/s, interleaved {:.2} Msteps/s ({speedup:.2}x)",
            seq / 1e6,
            inter / 1e6
        );
        lines.push_str(&format!(
            "    {{\"width\": {width}, \"steps_per_sec_sequential\": {seq:.0}, \
             \"steps_per_sec_interleaved\": {inter:.0}, \"speedup\": {speedup:.4}}}{}\n",
            if width == *WIDTHS.last().unwrap() {
                ""
            } else {
                ","
            }
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"interleave\",\n  \
         \"graph\": \"random {DEGREE}-regular n={N}\",\n  \
         \"steps_per_lane\": {STEPS_PER_LANE},\n  \"samples\": {SAMPLES},\n  \
         \"target_speedup_at_w4\": 1.3,\n  \"series\": [\n{lines}  ]\n}}\n"
    );
    let dir = output_dir();
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("BENCH_interleave.json");
    std::fs::write(&path, json).expect("write snapshot");
    println!("json: {}", path.display());
}
