//! **T-wstart**: the cover time is `max_v C_v` — start-vertex sensitivity.
//!
//! The paper defines `C_V(Y, G) = max_v C_v`. On vertex-transitive or
//! expander-like graphs the start barely matters; on the lollipop it
//! matters enormously. This table measures the spread (worst vs start-0
//! mean) for the E-process and the SRW.
//!
//! Thin engine wrapper: the built-in `worststart` spec is one fixed-start
//! ensemble cell; this binary sweeps [`ExperimentSpec::start`] over every
//! vertex of each graph (one deterministic parallel engine run per start,
//! seeded per `(graph, start)`) and takes the max — the per-start trial
//! loops, seeding and aggregation all live in the engine. The composed
//! report (per-cell statistics **over starts** of the per-start mean
//! cover time) is saved as a standard JSON artifact, bit-identical for
//! any thread count.

use eproc_bench::{save_artifacts, Config};
use eproc_engine::executor::{build_graphs, run_on_graphs, CellSummary, ExperimentReport};
use eproc_engine::spec::ExperimentSpec;
use eproc_engine::RunOptions;
use eproc_stats::{OnlineStats, QuantileSketch, SeedSequence, TextTable};

fn main() {
    let config = Config::from_args();
    let seeds = SeedSequence::new(config.seed);
    println!("Start-vertex sensitivity: CV = max_v C_v vs fixed-start means\n");
    let base = eproc_engine::builtin::spec("worststart", config.scale).expect("builtin exists");
    let mut table = TextTable::new(vec![
        "graph",
        "process",
        "worst start",
        "worst mean",
        "start-0 mean",
        "worst/start-0",
    ]);
    let mut composed_cells: Vec<CellSummary> = Vec::new();
    for (gi, gspec) in base.graphs.iter().enumerate() {
        // One single-graph spec per family; the graph is built once and
        // shared by every per-start run.
        let spec = ExperimentSpec {
            graphs: vec![gspec.clone()],
            ..base.clone()
        };
        let graph_seed = seeds.derive(&[gi as u64]);
        let graphs = build_graphs(&spec, graph_seed).expect("graph builds");
        let n = graphs[0].n();
        // per_start[pi][start] = mean cover steps from that start.
        let mut per_start: Vec<Vec<f64>> = vec![Vec::with_capacity(n); spec.processes.len()];
        for start in 0..n {
            let run_spec = ExperimentSpec {
                start,
                ..spec.clone()
            };
            let opts = RunOptions {
                base_seed: seeds.derive(&[gi as u64, start as u64]),
                ..config.engine_opts()
            };
            let report = run_on_graphs(&run_spec, &opts, &graphs).expect("engine run");
            for (pi, cell) in report.cells.iter().enumerate() {
                assert_eq!(
                    cell.completed, cell.trials,
                    "{}/{} from start {start}: not every trial covered",
                    cell.graph, cell.process
                );
                per_start[pi].push(cell.steps.mean());
            }
        }
        for (pi, process) in spec.processes.iter().enumerate() {
            let means = &per_start[pi];
            let (worst_v, worst_mean) = means
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("means are finite"))
                .map(|(v, &m)| (v, m))
                .expect("nonempty graph");
            let from0 = means[0];
            table.push_row(vec![
                gspec.label(),
                process.label(),
                worst_v.to_string(),
                format!("{worst_mean:.0}"),
                format!("{from0:.0}"),
                format!("{:.2}", worst_mean / from0),
            ]);
            let mut over_starts = OnlineStats::new();
            // Sketch stream 3 mirrors the engine's sketch-seed convention
            // and stays clear of the per-(graph, start) run seeds above.
            let mut over_starts_sketch =
                QuantileSketch::new(seeds.derive(&[3, gi as u64, pi as u64]));
            for &m in means {
                over_starts.push(m);
                over_starts_sketch.push(m);
            }
            composed_cells.push(CellSummary {
                graph: gspec.label(),
                family: gspec.family_label(),
                n,
                m: graphs[0].m(),
                process: process.label(),
                trials: n,
                completed: n,
                steps: over_starts,
                steps_sketch: over_starts_sketch,
                blue_fraction: OnlineStats::new(),
                steps_split: None,
                metrics: vec![],
            });
        }
    }
    println!("{table}");
    println!("note: on expanders and tori the start barely matters for either process");
    println!("(ratios 1.0-1.3). The lollipop flips the intuition: the E-process is the");
    println!("start-sensitive one — the lollipop has odd degrees, so Observation 10");
    println!("does not apply, and a mid-path start leaves stranded blue edges on both");
    println!("sides that the embedded random walk must re-reach across the path");
    println!("(quadratic per crossing). From the clique (start 0) its blue sweep");
    println!("consumes the path in one pass. Even-degree structure is what makes the");
    println!("E-process start-insensitive.");
    // Composed report: each cell's distribution is over start vertices
    // (one entry per start = that start's mean cover time), so the
    // artifact's own description spells out what `trials` means at each
    // level rather than leaving the two counts looking contradictory.
    let report = ExperimentReport {
        name: "worst_start".into(),
        description: format!(
            "per-start mean vertex cover times: each cell aggregates one mean per start \
             vertex (cell trials = start count), every mean over {} runs (report trials)",
            base.trials
        ),
        target: base.target,
        trials: base.trials,
        base_seed: config.seed,
        resample: None,
        cells: composed_cells,
    };
    save_artifacts(&[("table_worst_start", &table)], Some(&report));
}
