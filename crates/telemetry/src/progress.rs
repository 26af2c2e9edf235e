//! Live terminal progress, rendered to stderr.

use crate::counters::Counters;
use crate::event::{Event, EventKind};
use crate::sink::TelemetrySink;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Minimum event-clock nanoseconds between two renders: progress is for
/// humans, so ~8 frames a second is plenty and keeps stderr readable
/// when blocks complete thousands of times a second.
const RENDER_INTERVAL_NS: u64 = 125_000_000;

/// A [`TelemetrySink`] that renders one live status line to stderr —
/// blocks done/total, trials and steps throughput, ETA — overwriting
/// itself with `\r` and finishing with a newline on `run_finished`.
///
/// All rates derive from the event stream's own `t_ns` clock, so the
/// sink needs no clock of its own and renders identically under test.
/// A failed write (a closed stderr) is dropped: progress is for humans,
/// and [`TelemetrySink::emit`] must never panic.
#[derive(Debug, Default)]
pub struct ProgressSink {
    totals: Counters,
    total_blocks: AtomicU64,
    /// `t_ns` of the last render (0 = never rendered).
    last_render_ns: AtomicU64,
    /// Width of the longest line rendered so far, for `\r` clearing.
    width: Mutex<usize>,
}

impl ProgressSink {
    /// A fresh progress renderer (targets stderr).
    pub fn new() -> ProgressSink {
        ProgressSink::default()
    }

    fn render(&self, t_ns: u64, finished: bool) {
        let line = render_line(
            self.totals.blocks.load(Ordering::Relaxed),
            self.total_blocks.load(Ordering::Relaxed),
            self.totals.trials.load(Ordering::Relaxed),
            self.totals.steps.load(Ordering::Relaxed),
            t_ns,
            finished,
        );
        let mut width = self.width.lock().expect("progress mutex poisoned");
        let pad = width.saturating_sub(line.len());
        *width = (*width).max(line.len());
        let end = if finished { "\n" } else { "" };
        let _ = write!(std::io::stderr(), "\r{line}{}{end}", " ".repeat(pad));
    }
}

impl TelemetrySink for ProgressSink {
    fn emit(&self, event: &Event) {
        match &event.kind {
            EventKind::RunStarted { blocks, .. } => {
                self.total_blocks.store(*blocks as u64, Ordering::Relaxed);
                self.render(event.t_ns, false);
            }
            EventKind::BlockCompleted {
                trials,
                steps,
                gen_ns,
                walk_ns,
                gen_attempts,
                ..
            } => {
                self.totals
                    .record_block(*trials, *steps, *gen_ns, *walk_ns, *gen_attempts);
                // Throttle: only the thread that advances last_render_ns
                // past the interval draws, so concurrent workers never
                // interleave partial lines.
                let last = self.last_render_ns.load(Ordering::Relaxed);
                if event.t_ns.saturating_sub(last) >= RENDER_INTERVAL_NS
                    && self
                        .last_render_ns
                        .compare_exchange(last, event.t_ns, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    self.render(event.t_ns, false);
                }
            }
            EventKind::RunFinished { wall_ns, .. } => self.render(*wall_ns, true),
            _ => {}
        }
    }
}

/// Formats a count with a thousands-friendly suffix (`1234` → `1.2k`).
fn human_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Formats seconds as `12.3s` / `4m08s` / `2h09m`.
fn human_secs(secs: f64) -> String {
    if !secs.is_finite() {
        return "?".into();
    }
    if secs < 60.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!(
            "{}h{:02.0}m",
            (secs / 3600.0).floor(),
            (secs % 3600.0) / 60.0
        )
    }
}

/// Pure renderer for the status line — separated from the sink so the
/// format is unit-testable without capturing stderr.
fn render_line(
    done: u64,
    total: u64,
    trials: u64,
    steps: u64,
    t_ns: u64,
    finished: bool,
) -> String {
    let secs = t_ns as f64 / 1e9;
    let rates = if secs > 0.0 {
        format!(
            "{} trials/s · {} steps/s",
            human_count(trials as f64 / secs),
            human_count(steps as f64 / secs)
        )
    } else {
        "-".into()
    };
    let tail = if finished {
        format!("done in {}", human_secs(secs))
    } else if secs > 0.0 && done > 0 && total > done {
        let eta = secs * (total - done) as f64 / done as f64;
        format!("ETA {}", human_secs(eta))
    } else {
        "ETA ?".into()
    };
    format!(
        "blocks {done}/{total} · {} trials · {rates} · {tail}",
        human_count(trials as f64)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shows_progress_and_eta() {
        // 2 of 8 blocks in 2 seconds: 6 blocks left at 1 block/s = 6s.
        let line = render_line(2, 8, 10, 2_000_000, 2_000_000_000, false);
        assert!(line.starts_with("blocks 2/8"), "{line}");
        assert!(line.contains("ETA 6.0s"), "{line}");
        assert!(line.contains("1.00M steps/s"), "{line}");
    }

    #[test]
    fn finished_line_reports_wall_time() {
        let line = render_line(8, 8, 40, 100, 500_000_000, true);
        assert!(line.contains("done in 0.5s"), "{line}");
    }

    #[test]
    fn zero_elapsed_renders_without_nonsense() {
        let line = render_line(0, 8, 0, 0, 0, false);
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        assert!(line.contains("ETA ?"), "{line}");
    }

    #[test]
    fn zero_elapsed_with_completed_blocks_has_no_eta() {
        // Blocks can complete inside the first clock tick (t_ns still 0):
        // a 0-second extrapolation must render "ETA ?", not 0.0s or NaN.
        let line = render_line(2, 8, 10, 1_000, 0, false);
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        assert!(line.contains("ETA ?"), "{line}");
        assert!(!line.contains("ETA 0"), "{line}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_count(950.0), "950");
        assert_eq!(human_count(1_234.0), "1.2k");
        assert_eq!(human_count(2_500_000.0), "2.50M");
        assert_eq!(human_count(3_000_000_000.0), "3.00G");
        assert_eq!(human_secs(75.0), "1m15s");
        assert_eq!(human_secs(7_500.0), "2h05m");
    }
}
