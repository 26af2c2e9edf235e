//! Rendering [`ExperimentReport`]s: aligned text tables, CSV and JSON.
//!
//! All emitters are pure functions of the report, so two runs that produce
//! the same aggregates produce byte-identical artifacts — the property the
//! engine's determinism test pins down across thread counts.

use crate::executor::{ExperimentReport, VarianceSplit};
use crate::scaling::ScalingReport;
use eproc_stats::{OnlineStats, QuantileSketch, TextTable};
use eproc_telemetry::{json_escape, json_num};
use std::path::{Path, PathBuf};

/// The quantiles reported when the user does not pass `--quantiles`:
/// the median and the two upper-tail probes (p90, p99) that summarise
/// how heavy a cover-time distribution's tail is.
pub const DEFAULT_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Renders a quantile's column/key label: `0.5` → `p50`, `0.99` → `p99`,
/// `0.999` → `p99.9`. Four decimal places of the percentage are kept, so
/// values closer than that share a label (`0` and `1e-7` are both `p0`);
/// the CLI rejects a `--quantiles` list that repeats one.
pub fn quantile_label(q: f64) -> String {
    let pct = format!("{:.4}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

/// A sketch's `q`-quantile as a JSON token: `null` for an empty sketch
/// (no completed trials) or a non-finite estimate.
fn json_quantile(sketch: &QuantileSketch, q: f64) -> String {
    match sketch.quantile(q) {
        Ok(v) => json_num(v),
        Err(_) => "null".into(),
    }
}

/// The single source of truth for the normalised `mean/n` and
/// `mean/(n ln n)` columns, shared by the text table and the JSON
/// emitter: `mean/n` needs `n >= 1`, and `mean/(n ln n)` needs `n >= 3`
/// — `n ln n` is 0 at `n = 1` (a division yielding ±inf/NaN, which is
/// not valid JSON) and within rounding noise of `n` at `n = 2`, so both
/// renderings degrade to `-`/`null` there.
fn normalised_means(cell: &crate::executor::CellSummary) -> (Option<f64>, Option<f64>) {
    if cell.completed == 0 {
        return (None, None);
    }
    let mean = cell.steps.mean();
    let nf = cell.n as f64;
    (
        (cell.n >= 1).then(|| mean / nf),
        (cell.n >= 3).then(|| mean / (nf * nf.ln())),
    )
}

/// [`to_text_table_with`] at the default p50/p90/p99 quantiles.
pub fn to_text_table(report: &ExperimentReport) -> TextTable {
    to_text_table_with(report, &DEFAULT_QUANTILES)
}

/// Renders the aggregate table shown by the CLI and the `table_*` wrappers.
///
/// Columns: graph, n, process, `done/trials`, mean/std/min/max of the
/// steps-to-target distribution, one sketched quantile column per entry
/// of `quantiles` (p50/p90/p99 by default; see
/// [`QuantileSketch`]'s rank-error guarantee), the normalised `mean/n`
/// and `mean/(n ln n)` (the paper's two candidate growth laws; dashed
/// out where degenerate, i.e. `n <= 2`), the mean blue-step
/// fraction — plus one dynamic column (the per-cell mean) for
/// every metric the spec requested. Under resampling, three more
/// columns decompose the steps column: `graphs` (distinct samples),
/// `sd(across)` (std dev of per-graph means) and `sd(within)`
/// (walk-to-walk std dev on a fixed graph).
pub fn to_text_table_with(report: &ExperimentReport, quantiles: &[f64]) -> TextTable {
    let resampled = report.resample.is_some();
    let mut headers = vec![
        "graph".to_string(),
        "n".into(),
        "process".into(),
        "done".into(),
        "mean".into(),
        "std".into(),
        "min".into(),
        "max".into(),
    ];
    headers.extend(quantiles.iter().map(|&q| quantile_label(q)));
    headers.extend(["mean/n".to_string(), "mean/(n ln n)".into(), "blue%".into()]);
    if resampled {
        headers.push("graphs".into());
        headers.push("sd(across)".into());
        headers.push("sd(within)".into());
    }
    if let Some(cell) = report.cells.first() {
        headers.extend(cell.metrics.iter().map(|m| m.name.clone()));
    }
    let mut table = TextTable::new(headers);
    for cell in &report.cells {
        let done = format!("{}/{}", cell.completed, cell.trials);
        let (raw_over_n, raw_over_nlogn) = normalised_means(cell);
        let (mean, std, min, max, over_n, over_nlogn) = if cell.completed > 0 {
            let mean = cell.steps.mean();
            (
                format!("{mean:.0}"),
                format!("{:.1}", cell.steps.std_dev()),
                format!("{:.0}", cell.steps.min().expect("completed > 0")),
                format!("{:.0}", cell.steps.max().expect("completed > 0")),
                raw_over_n.map_or("-".into(), |v| format!("{v:.2}")),
                raw_over_nlogn.map_or("-".into(), |v| format!("{v:.3}")),
            )
        } else {
            let dash = || "-".to_string();
            (dash(), dash(), dash(), dash(), dash(), dash())
        };
        let blue = if cell.blue_fraction.count() > 0 {
            format!("{:.1}", 100.0 * cell.blue_fraction.mean())
        } else {
            "-".into()
        };
        let mut row = vec![
            cell.graph.clone(),
            cell.n.to_string(),
            cell.process.clone(),
            done,
            mean,
            std,
            min,
            max,
        ];
        row.extend(quantiles.iter().map(|&q| {
            cell.steps_sketch
                .quantile(q)
                .map_or("-".into(), |v| format!("{v:.0}"))
        }));
        row.extend([over_n, over_nlogn, blue]);
        if resampled {
            match &cell.steps_split {
                Some(split) => {
                    row.push(split.graph_samples.to_string());
                    row.push(if split.graph_samples >= 2 {
                        format!("{:.1}", split.across.std_dev())
                    } else {
                        "-".into()
                    });
                    row.push(match split.within_variance {
                        Some(v) => format!("{:.1}", v.sqrt()),
                        None => "-".into(),
                    });
                }
                None => row.extend(["-".to_string(), "-".into(), "-".into()]),
            }
        }
        for metric in &cell.metrics {
            row.push(if metric.stats.count() > 0 {
                format!("{:.1}", metric.stats.mean())
            } else {
                "-".into()
            });
        }
        table.push_row(row);
    }
    table
}

/// One `variance_components` entry: the column's pooled variance next to
/// its across-graph / within-graph decomposition. Components that cannot
/// be estimated from the data (a single graph sample, no replicate
/// walks) serialise as `null` rather than a misleading `0`.
fn json_split(split: &VarianceSplit, pooled: &OnlineStats) -> String {
    let pooled = if pooled.count() > 0 {
        json_num(pooled.variance())
    } else {
        "null".into()
    };
    let across = if split.graph_samples >= 2 {
        json_num(split.across.variance())
    } else {
        "null".into()
    };
    let within = match split.within_variance {
        Some(v) => json_num(v),
        None => "null".into(),
    };
    format!(
        "{{\"graph_samples\": {}, \"pooled_variance\": {pooled}, \
         \"across_graph_variance\": {across}, \"within_graph_variance\": {within}}}",
        split.graph_samples
    )
}

/// Serialises the report as deterministic JSON (stable key order, no
/// timestamps), suitable for artifact diffing across runs. Quantiles
/// default to p50/p90/p99.
pub fn to_json(report: &ExperimentReport) -> String {
    to_json_with(report, None, &DEFAULT_QUANTILES)
}

/// [`to_json_with`] at the default p50/p90/p99 quantiles.
pub fn to_json_with_scaling(report: &ExperimentReport, scaling: Option<&ScalingReport>) -> String {
    to_json_with(report, scaling, &DEFAULT_QUANTILES)
}

/// Like [`to_json`], but with an explicit quantile list (the CLI's
/// `--quantiles`) and, when `scaling` is given, a `growth_laws` array —
/// one entry per (process × series) with the sweep points, every
/// candidate model's constants, `R²` and residual score, and the
/// preferred model. Each cell carries a `quantiles` object with one
/// entry per column (`steps` plus each metric), estimated from the
/// mergeable sketches — `null` where the column is empty. Non-finite
/// statistics serialise as `null`, never as bare `inf`/`NaN` tokens.
pub fn to_json_with(
    report: &ExperimentReport,
    scaling: Option<&ScalingReport>,
    quantiles: &[f64],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"experiment\": \"{}\",\n",
        json_escape(&report.name)
    ));
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        json_escape(&report.description)
    ));
    out.push_str(&format!(
        "  \"target\": \"{}\",\n",
        json_escape(&report.target.label())
    ));
    out.push_str(&format!("  \"trials\": {},\n", report.trials));
    out.push_str(&format!("  \"base_seed\": {},\n", report.base_seed));
    if let Some(plan) = report.resample {
        out.push_str(&format!(
            "  \"resample\": {{\"walks_per_graph\": {}}},\n",
            plan.walks_per_graph
        ));
    }
    out.push_str("  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"graph\": \"{}\",\n",
            json_escape(&cell.graph)
        ));
        out.push_str(&format!("      \"n\": {},\n", cell.n));
        out.push_str(&format!("      \"m\": {},\n", cell.m));
        out.push_str(&format!(
            "      \"process\": \"{}\",\n",
            json_escape(&cell.process)
        ));
        out.push_str(&format!("      \"trials\": {},\n", cell.trials));
        out.push_str(&format!("      \"completed\": {},\n", cell.completed));
        if cell.completed > 0 {
            out.push_str(&format!(
                "      \"mean_steps\": {},\n",
                json_num(cell.steps.mean())
            ));
            out.push_str(&format!(
                "      \"std_dev\": {},\n",
                json_num(cell.steps.std_dev())
            ));
            out.push_str(&format!(
                "      \"min_steps\": {},\n",
                json_num(cell.steps.min().expect("completed > 0"))
            ));
            out.push_str(&format!(
                "      \"max_steps\": {},\n",
                json_num(cell.steps.max().expect("completed > 0"))
            ));
            let (over_n, over_nlogn) = normalised_means(cell);
            let emit = |v: Option<f64>| v.map_or("null".to_string(), json_num);
            out.push_str(&format!("      \"mean_over_n\": {},\n", emit(over_n)));
            out.push_str(&format!(
                "      \"mean_over_n_log_n\": {},\n",
                emit(over_nlogn)
            ));
        } else {
            out.push_str("      \"mean_steps\": null,\n");
            out.push_str("      \"std_dev\": null,\n");
            out.push_str("      \"min_steps\": null,\n");
            out.push_str("      \"max_steps\": null,\n");
            out.push_str("      \"mean_over_n\": null,\n");
            out.push_str("      \"mean_over_n_log_n\": null,\n");
        }
        let blue = if cell.blue_fraction.count() > 0 {
            json_num(cell.blue_fraction.mean())
        } else {
            "null".into()
        };
        out.push_str(&format!("      \"mean_blue_fraction\": {blue},\n"));
        let quantile_obj = |sketch: &QuantileSketch| -> String {
            let mut obj = String::from("{");
            for (k, &q) in quantiles.iter().enumerate() {
                if k > 0 {
                    obj.push_str(", ");
                }
                obj.push_str(&format!(
                    "\"{}\": {}",
                    quantile_label(q),
                    json_quantile(sketch, q)
                ));
            }
            obj.push('}');
            obj
        };
        out.push_str("      \"quantiles\": {\n");
        out.push_str(&format!(
            "        \"steps\": {}",
            quantile_obj(&cell.steps_sketch)
        ));
        for metric in &cell.metrics {
            out.push_str(&format!(
                ",\n        \"{}\": {}",
                json_escape(&metric.name),
                quantile_obj(&metric.sketch)
            ));
        }
        out.push_str("\n      },\n");
        if let Some(split) = &cell.steps_split {
            out.push_str("      \"variance_components\": {\n");
            out.push_str(&format!(
                "        \"steps\": {}",
                json_split(split, &cell.steps)
            ));
            for metric in &cell.metrics {
                if let Some(msplit) = &metric.split {
                    out.push_str(&format!(
                        ",\n        \"{}\": {}",
                        json_escape(&metric.name),
                        json_split(msplit, &metric.stats)
                    ));
                }
            }
            out.push_str("\n      },\n");
        }
        out.push_str("      \"metrics\": {");
        for (j, metric) in cell.metrics.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("        \"{}\": ", json_escape(&metric.name)));
            if metric.stats.count() > 0 {
                out.push_str(&format!(
                    "{{\"count\": {}, \"mean\": {}, \"std\": {}, \"min\": {}, \"max\": {}}}",
                    metric.stats.count(),
                    json_num(metric.stats.mean()),
                    json_num(metric.stats.std_dev()),
                    json_num(metric.stats.min().expect("count > 0")),
                    json_num(metric.stats.max().expect("count > 0")),
                ));
            } else {
                out.push_str("null");
            }
        }
        if cell.metrics.is_empty() {
            out.push_str("}\n");
        } else {
            out.push_str("\n      }\n");
        }
        out.push_str(if i + 1 < report.cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    match scaling {
        None => out.push_str("  ]\n}\n"),
        Some(scaling) => {
            out.push_str("  ],\n");
            out.push_str("  \"growth_laws\": [\n");
            for (i, series) in scaling.series.iter().enumerate() {
                out.push_str("    {\n");
                out.push_str(&format!(
                    "      \"family\": \"{}\",\n",
                    json_escape(&series.family)
                ));
                out.push_str(&format!(
                    "      \"process\": \"{}\",\n",
                    json_escape(&series.process)
                ));
                out.push_str(&format!(
                    "      \"series\": \"{}\",\n",
                    json_escape(&series.series)
                ));
                out.push_str("      \"points\": [");
                for (j, p) in series.points.iter().enumerate() {
                    out.push_str(if j == 0 { "" } else { ", " });
                    out.push_str(&format!(
                        "{{\"n\": {}, \"m\": {}, \"mean\": {}}}",
                        p.n,
                        p.m,
                        json_num(p.y)
                    ));
                }
                out.push_str("],\n");
                out.push_str("      \"models\": [\n");
                for (j, mf) in series.selection.fits.iter().enumerate() {
                    out.push_str(&format!(
                        "        {{\"model\": \"{}\", \"params\": {}, \"intercept\": {}, \
                         \"slope\": {}, \"r_squared\": {}, \"ssr\": {}, \"aic\": {}, \
                         \"preferred\": {}}}{}\n",
                        json_escape(mf.model.label()),
                        mf.model.params(),
                        json_num(mf.fit.intercept),
                        json_num(mf.fit.slope),
                        json_num(mf.fit.r_squared),
                        json_num(mf.ssr),
                        json_num(mf.aic),
                        mf.model == series.selection.preferred,
                        if j + 1 < series.selection.fits.len() {
                            ","
                        } else {
                            ""
                        },
                    ));
                }
                out.push_str("      ],\n");
                out.push_str(&format!(
                    "      \"preferred\": \"{}\"\n",
                    json_escape(series.selection.preferred.label())
                ));
                out.push_str(if i + 1 < scaling.series.len() {
                    "    },\n"
                } else {
                    "    }\n"
                });
            }
            out.push_str("  ]\n}\n");
        }
    }
    out
}

/// Renders the growth-law table of a sweep analysis: one row per
/// (family × process × series × candidate model) with the fitted
/// constants, `R²` and residual score, and a `<-` marker on each
/// series' preferred model.
pub fn scaling_table(scaling: &ScalingReport) -> TextTable {
    let mut table = TextTable::new(vec![
        "family".to_string(),
        "process".into(),
        "series".into(),
        "model".into(),
        "intercept".into(),
        "slope".into(),
        "R^2".into(),
        "score".into(),
        "preferred".into(),
    ]);
    let fmt_num = |x: f64, digits: usize| -> String {
        if x.is_finite() {
            format!("{x:.digits$}")
        } else {
            "-".into()
        }
    };
    for series in &scaling.series {
        for mf in &series.selection.fits {
            table.push_row(vec![
                series.family.clone(),
                series.process.clone(),
                series.series.clone(),
                mf.model.label().to_string(),
                if mf.model.params() > 1 {
                    fmt_num(mf.fit.intercept, 1)
                } else {
                    "-".into()
                },
                fmt_num(mf.fit.slope, 4),
                fmt_num(mf.fit.r_squared, 5),
                fmt_num(mf.aic, 1),
                if mf.model == series.selection.preferred {
                    "<-".into()
                } else {
                    String::new()
                },
            ]);
        }
    }
    table
}

/// Default artifact directory: `<workspace>/target/experiments/`.
pub fn default_artifact_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("target");
    dir.push("experiments");
    dir
}

/// Where an artifact named `stem` lands when no path is given:
/// `eproc_<stem>.json` in [`default_artifact_dir`]. Reports use the
/// experiment name as the stem, shard checkpoints `<name>.shard<i>of<k>`.
pub fn default_artifact_path(stem: &str) -> PathBuf {
    default_artifact_dir().join(format!("eproc_{stem}.json"))
}

/// Writes the JSON artifact to `path` (or
/// [`default_artifact_path`]`(name)` when `None`), creating parent
/// directories. The write is atomic (temp sibling + rename,
/// [`eproc_telemetry::write_atomic`]): a crash mid-write never leaves a
/// truncated artifact. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_json(report: &ExperimentReport, path: Option<&Path>) -> std::io::Result<PathBuf> {
    let path = path.map_or_else(|| default_artifact_path(&report.name), Path::to_path_buf);
    eproc_telemetry::write_atomic(&path, &to_json(report))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run, RunOptions};
    use crate::spec::{
        CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Target,
    };

    fn demo_report() -> ExperimentReport {
        let spec = ExperimentSpec {
            name: "demo".into(),
            description: "report unit test".into(),
            graphs: vec![GraphSpec::Cycle { n: 16 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 2,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        };
        run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 9,
            },
        )
        .unwrap()
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let report = demo_report();
        let table = to_text_table(&report);
        assert_eq!(table.len(), report.cells.len());
        let rendered = table.to_string();
        assert!(rendered.contains("e-process(uniform)"));
        assert!(rendered.contains("mean/(n ln n)"));
    }

    #[test]
    fn json_is_valid_enough_and_deterministic() {
        let report = demo_report();
        let a = to_json(&report);
        let b = to_json(&report);
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert!(a.contains("\"experiment\": \"demo\""));
        assert!(a.contains("\"mean_steps\": 15"));
        // Balanced braces and brackets (cheap structural check).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.5), "2.5");
    }

    #[test]
    fn incomplete_cells_serialise_as_null() {
        let spec = ExperimentSpec {
            name: "capped".into(),
            description: String::new(),
            graphs: vec![GraphSpec::Cycle { n: 16 }],
            processes: vec![ProcessSpec::Srw],
            trials: 1,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Absolute(1),
            resample: None,
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 1,
            },
        )
        .unwrap();
        let json = to_json(&report);
        assert!(json.contains("\"mean_steps\": null"));
        let table = to_text_table(&report).to_string();
        assert!(table.contains("0/1"));
    }

    #[test]
    fn metric_columns_render_in_table_and_json() {
        let spec = ExperimentSpec {
            name: "metrics".into(),
            description: String::new(),
            graphs: vec![GraphSpec::Cycle { n: 12 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            trials: 2,
            target: Target::VertexCover,
            metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 2,
            },
        )
        .unwrap();
        let table = to_text_table(&report).to_string();
        for col in [
            "cover.c_v",
            "cover.c_e",
            "phases.first_blue",
            "phases.closed",
        ] {
            assert!(table.contains(col), "missing column {col}\n{table}");
        }
        let json = to_json(&report);
        assert!(json.contains("\"cover.c_v\": {\"count\": 2, \"mean\": 11"));
        assert!(json.contains("\"phases.closed\": {\"count\": 2, \"mean\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn save_json_writes_artifact() {
        let report = demo_report();
        let dir = std::env::temp_dir().join("eproc_engine_report_test");
        let path = dir.join("demo.json");
        let written = save_json(&report, Some(&path)).unwrap();
        assert_eq!(written, path);
        let content = std::fs::read_to_string(&written).unwrap();
        assert_eq!(content, to_json(&report));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
