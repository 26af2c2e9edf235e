//! Shared bit-exact persistence for run artifacts.
//!
//! Shard artifacts (`--shard` / `eproc merge`) and run checkpoints
//! (`--checkpoint` / `--resume`) persist the same two things: the
//! canonical experiment header that identifies a `(spec, base_seed)`
//! run, and completed *(family, group)* blocks' streamed [`OnlineStats`]
//! and [`QuantileSketch`] accumulators. All of it must round-trip
//! **bit-exactly** — the `m2` sum of squares is not recoverable from a
//! rounded variance, the `±∞` sentinels of an empty accumulator have no
//! decimal form, and a sketch's retained items and coin-stream state
//! decide every future compaction — so floats are written as IEEE-754
//! bit patterns ([`OnlineStats::to_raw`], [`QuantileSketch::to_raw`])
//! and read back through a strict JSON parser that keeps numbers as raw
//! text (no lossy trip through `f64`).
//!
//! This module is that shared substrate: the strict reader
//! ([`json`]), the accumulator codecs ([`stats_to_json`] /
//! [`stats_from_json`], [`sketch_to_json`] / [`sketch_from_json`]), the
//! block-list codec, and [`RunHeader`] — the header both artifact kinds
//! embed, with field-by-field compatibility checking so "these
//! artifacts come from different runs" errors name the first
//! disagreeing field.

use crate::executor::{BlockAgg, ProcAgg};
use crate::report::json_escape;
use crate::spec::{ExperimentSpec, ResamplePlan, Target};
use eproc_stats::{OnlineStats, QuantileSketch, SketchRaw};
use std::fmt;
use std::fmt::Write as _;

/// A persistence-layer failure: malformed JSON, a missing or mistyped
/// field, or a value outside its domain. Artifact-level wrappers
/// ([`crate::shard::ShardError`], [`crate::checkpoint::CheckpointError`])
/// convert from this via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PersistError {
    message: String,
}

impl PersistError {
    pub(crate) fn new(message: impl Into<String>) -> PersistError {
        PersistError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PersistError {}

/// The canonical experiment header embedded in every persisted run
/// artifact: everything needed to (a) check that two artifacts describe
/// the same `(spec, base_seed)` run and (b) aggregate blocks without the
/// original spec in hand.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunHeader {
    /// Spec name.
    pub(crate) name: String,
    /// Spec description.
    pub(crate) description: String,
    /// Target measured.
    pub(crate) target: Target,
    /// Trials per cell.
    pub(crate) trials: usize,
    /// Base seed the blocks derived their streams from.
    pub(crate) base_seed: u64,
    /// Trials per resampled graph.
    pub(crate) walks_per_graph: usize,
    /// Resample groups per family.
    pub(crate) group_count: usize,
    /// `(label, family_label)` per graph family, in grid order.
    pub(crate) graphs: Vec<(String, String)>,
    /// Process labels, in grid order.
    pub(crate) processes: Vec<String>,
    /// Flattened metric column names.
    pub(crate) metric_columns: Vec<String>,
}

impl RunHeader {
    /// Builds the header a run of `(spec, base_seed)` under `plan` would
    /// persist.
    pub(crate) fn from_spec(
        spec: &ExperimentSpec,
        base_seed: u64,
        plan: ResamplePlan,
    ) -> RunHeader {
        RunHeader {
            name: spec.name.clone(),
            description: spec.description.clone(),
            target: spec.target,
            trials: spec.trials,
            base_seed,
            walks_per_graph: plan.walks_per_graph,
            group_count: plan.groups(spec.trials),
            graphs: spec
                .graphs
                .iter()
                .map(|gs| (gs.label(), gs.family_label()))
                .collect(),
            processes: spec.processes.iter().map(|ps| ps.label()).collect(),
            metric_columns: spec.metric_columns(),
        }
    }

    /// Total canonical block count: `families × groups`.
    pub(crate) fn total_blocks(&self) -> usize {
        self.graphs.len() * self.group_count
    }

    /// Names the first field on which `self` and `other` disagree, or
    /// `None` when the headers describe the same run.
    pub(crate) fn first_mismatch(&self, other: &RunHeader) -> Option<&'static str> {
        if self.name != other.name {
            return Some("experiment name");
        }
        if self.description != other.description {
            return Some("description");
        }
        if self.target != other.target {
            return Some("target");
        }
        if self.trials != other.trials {
            return Some("trials");
        }
        if self.base_seed != other.base_seed {
            return Some("base_seed");
        }
        if self.walks_per_graph != other.walks_per_graph {
            return Some("walks_per_graph");
        }
        if self.group_count != other.group_count {
            return Some("group count");
        }
        if self.graphs != other.graphs {
            return Some("graph grid");
        }
        if self.processes != other.processes {
            return Some("process grid");
        }
        if self.metric_columns != other.metric_columns {
            return Some("metric columns");
        }
        None
    }

    /// Appends the header's JSON fields (two-space indent, trailing
    /// commas) in the canonical artifact order — the exact bytes the
    /// pre-refactor shard writer emitted.
    pub(crate) fn write_fields(&self, out: &mut String) {
        let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(
            out,
            "  \"description\": \"{}\",",
            json_escape(&self.description)
        );
        let _ = writeln!(
            out,
            "  \"target\": \"{}\",",
            json_escape(&self.target.to_cli())
        );
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"base_seed\": {},", self.base_seed);
        let _ = writeln!(out, "  \"walks_per_graph\": {},", self.walks_per_graph);
        let _ = writeln!(out, "  \"groups\": {},", self.group_count);
        out.push_str("  \"graphs\": [");
        for (i, (label, family)) in self.graphs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"label\": \"{}\", \"family\": \"{}\"}}",
                json_escape(label),
                json_escape(family)
            );
        }
        out.push_str(if self.graphs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"processes\": [");
        for (i, p) in self.processes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(p));
        }
        out.push_str("],\n");
        out.push_str("  \"metric_columns\": [");
        for (i, c) in self.metric_columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(c));
        }
        out.push_str("],\n");
    }

    /// Parses the header fields back out of a parsed artifact object.
    pub(crate) fn parse(root: &json::Obj<'_>) -> Result<RunHeader, PersistError> {
        let target_str = root.str_field("target")?;
        let target = Target::parse(&target_str)
            .map_err(|e| PersistError::new(format!("target field: {e}")))?;
        let graphs = root
            .arr_field("graphs")?
            .iter()
            .map(|v| {
                let obj = v.as_obj("graphs entry")?;
                Ok((obj.str_field("label")?, obj.str_field("family")?))
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        let processes = root
            .arr_field("processes")?
            .iter()
            .map(|v| v.as_str("processes entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let metric_columns = root
            .arr_field("metric_columns")?
            .iter()
            .map(|v| v.as_str("metric_columns entry"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunHeader {
            name: root.str_field("experiment")?,
            description: root.str_field("description")?,
            target,
            trials: root.usize_field("trials")?,
            base_seed: root.u64_field("base_seed")?,
            walks_per_graph: root.usize_field("walks_per_graph")?,
            group_count: root.usize_field("groups")?,
            graphs,
            processes,
            metric_columns,
        })
    }
}

// --- accumulator / block codecs -------------------------------------------

/// Renders one accumulator as its bit-exact raw form: `[count, mean_bits,
/// m2_bits, min_bits, max_bits]` with the floats as decimal `u64` bit
/// patterns.
pub(crate) fn stats_to_json(stats: &OnlineStats) -> String {
    let (count, bits) = stats.to_raw();
    format!(
        "[{count}, {}, {}, {}, {}]",
        bits[0], bits[1], bits[2], bits[3]
    )
}

/// Parses one [`stats_to_json`] array back into a bit-identical
/// accumulator.
pub(crate) fn stats_from_json(v: &json::Value) -> Result<OnlineStats, PersistError> {
    let arr = v.as_arr("stats accumulator")?;
    if arr.len() != 5 {
        return Err(PersistError::new(
            "stats accumulator is not a [count, mean, m2, min, max] bit array",
        ));
    }
    let count = arr[0].as_u64("stats count")?;
    let mut bits = [0u64; 4];
    for (i, slot) in bits.iter_mut().enumerate() {
        *slot = arr[i + 1].as_u64("stats bit pattern")?;
    }
    Ok(OnlineStats::from_raw(count, bits))
}

/// Renders one quantile sketch as its bit-exact raw form:
/// `[k, count, state, [level0_bits...], [level1_bits...], ...]` with the
/// retained items as decimal `u64` bit patterns in verbatim stored
/// order — the state that decides every future compaction, so a merged
/// or resumed run replays the identical coin stream.
pub(crate) fn sketch_to_json(sketch: &QuantileSketch) -> String {
    let raw = sketch.to_raw();
    let mut out = format!("[{}, {}, {}", raw.k, raw.count, raw.state);
    for level in &raw.levels {
        out.push_str(", [");
        for (i, bits) in level.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{bits}");
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Parses one [`sketch_to_json`] array back into a bit-identical
/// sketch.
pub(crate) fn sketch_from_json(v: &json::Value) -> Result<QuantileSketch, PersistError> {
    let arr = v.as_arr("quantile sketch")?;
    if arr.len() < 3 {
        return Err(PersistError::new(
            "quantile sketch is not a [k, count, state, levels...] array",
        ));
    }
    let k = arr[0].as_u64("sketch k")?;
    if k < 2 {
        return Err(PersistError::new(format!(
            "sketch capacity must be at least 2, got {k}"
        )));
    }
    let count = arr[1].as_u64("sketch count")?;
    let state = arr[2].as_u64("sketch state")?;
    let levels = arr[3..]
        .iter()
        .map(|level| {
            level
                .as_arr("sketch level")?
                .iter()
                .map(|bits| bits.as_u64("sketch item bit pattern"))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(QuantileSketch::from_raw(SketchRaw {
        k,
        count,
        state,
        levels,
    }))
}

/// Appends the `"rep_dims"` field: `(family, n, m)` triples of group-0
/// samples, in canonical (sorted) order.
pub(crate) fn write_rep_dims(out: &mut String, rep_dims: &[(usize, usize, usize)]) {
    out.push_str("  \"rep_dims\": [");
    for (i, (gi, n, m)) in rep_dims.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{gi}, {n}, {m}]");
    }
    out.push_str("],\n");
}

/// Parses a [`write_rep_dims`] field back.
pub(crate) fn parse_rep_dims(
    root: &json::Obj<'_>,
) -> Result<Vec<(usize, usize, usize)>, PersistError> {
    root.arr_field("rep_dims")?
        .iter()
        .map(|v| {
            let triple = v.as_arr("rep_dims entry")?;
            if triple.len() != 3 {
                return Err(PersistError::new(
                    "rep_dims entry is not a [gi, n, m] triple",
                ));
            }
            Ok((
                triple[0].as_usize("rep_dims gi")?,
                triple[1].as_usize("rep_dims n")?,
                triple[2].as_usize("rep_dims m")?,
            ))
        })
        .collect()
}

/// Appends the `"blocks"` field: every block's per-process streamed
/// accumulators, bit-exact, closing the JSON document (`]` + `}`).
pub(crate) fn write_blocks(out: &mut String, blocks: &[BlockAgg]) {
    out.push_str("  \"blocks\": [");
    for (i, block) in blocks.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    {{\"block\": {}, \"procs\": [", block.block);
        for (pi, proc) in block.procs.iter().enumerate() {
            out.push_str(if pi == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "      {{\"completed\": {}, \"steps\": {}, \"steps_sketch\": {}, \"blue\": {}, \
                 \"metrics\": [",
                proc.completed,
                stats_to_json(&proc.steps),
                sketch_to_json(&proc.steps_sketch),
                stats_to_json(&proc.blue_fraction)
            );
            for (ci, acc) in proc.metrics.iter().enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                out.push_str(&stats_to_json(acc));
            }
            out.push_str("], \"metric_sketches\": [");
            for (ci, sk) in proc.metric_sketches.iter().enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                out.push_str(&sketch_to_json(sk));
            }
            out.push_str("]}");
        }
        out.push_str("\n    ]}");
    }
    out.push_str(if blocks.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
}

/// Parses a [`write_blocks`] field back, bit-exactly.
pub(crate) fn parse_blocks(root: &json::Obj<'_>) -> Result<Vec<BlockAgg>, PersistError> {
    root.arr_field("blocks")?
        .iter()
        .map(|v| {
            let obj = v.as_obj("blocks entry")?;
            let procs = obj
                .arr_field("procs")?
                .iter()
                .map(|p| {
                    let proc = p.as_obj("procs entry")?;
                    Ok(ProcAgg {
                        completed: proc.usize_field("completed")?,
                        steps: stats_from_json(proc.field("steps")?)?,
                        steps_sketch: sketch_from_json(proc.field("steps_sketch")?)?,
                        blue_fraction: stats_from_json(proc.field("blue")?)?,
                        metrics: proc
                            .arr_field("metrics")?
                            .iter()
                            .map(stats_from_json)
                            .collect::<Result<Vec<_>, _>>()?,
                        metric_sketches: proc
                            .arr_field("metric_sketches")?
                            .iter()
                            .map(sketch_from_json)
                            .collect::<Result<Vec<_>, _>>()?,
                    })
                })
                .collect::<Result<Vec<_>, PersistError>>()?;
            Ok(BlockAgg {
                block: obj.usize_field("block")?,
                procs,
            })
        })
        .collect()
}

/// A minimal strict-JSON reader for run artifacts: recursive descent,
/// numbers kept as raw text so `u64` bit patterns round-trip without a
/// lossy trip through `f64`.
pub(crate) mod json {
    use super::PersistError;

    /// One parsed JSON value. Numbers stay as their raw source text.
    /// Run artifacts never carry booleans or nulls, so those parse to
    /// payload-less variants the accessors simply mistype.
    #[derive(Debug, Clone)]
    pub(crate) enum Value {
        Null,
        Bool,
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    /// An object's fields, with typed accessors that name the missing or
    /// mistyped field in their error.
    pub(crate) struct Obj<'a>(&'a [(String, Value)]);

    impl Value {
        pub(crate) fn as_obj(&self, what: &str) -> Result<Obj<'_>, PersistError> {
            match self {
                Value::Obj(fields) => Ok(Obj(fields)),
                _ => Err(PersistError::new(format!("{what}: expected an object"))),
            }
        }

        pub(crate) fn as_arr(&self, what: &str) -> Result<&[Value], PersistError> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(PersistError::new(format!("{what}: expected an array"))),
            }
        }

        pub(crate) fn as_str(&self, what: &str) -> Result<String, PersistError> {
            match self {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(PersistError::new(format!("{what}: expected a string"))),
            }
        }

        pub(crate) fn as_u64(&self, what: &str) -> Result<u64, PersistError> {
            match self {
                Value::Num(raw) => raw
                    .parse()
                    .map_err(|_| PersistError::new(format!("{what}: {raw:?} is not a u64"))),
                _ => Err(PersistError::new(format!("{what}: expected a number"))),
            }
        }

        pub(crate) fn as_usize(&self, what: &str) -> Result<usize, PersistError> {
            self.as_u64(what).and_then(|v| {
                usize::try_from(v)
                    .map_err(|_| PersistError::new(format!("{what}: {v} overflows usize")))
            })
        }
    }

    impl<'a> Obj<'a> {
        pub(crate) fn field(&self, key: &str) -> Result<&'a Value, PersistError> {
            self.0
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| PersistError::new(format!("missing field {key:?}")))
        }

        pub(crate) fn str_field(&self, key: &str) -> Result<String, PersistError> {
            self.field(key)?.as_str(key)
        }

        pub(crate) fn u64_field(&self, key: &str) -> Result<u64, PersistError> {
            self.field(key)?.as_u64(key)
        }

        pub(crate) fn usize_field(&self, key: &str) -> Result<usize, PersistError> {
            self.field(key)?.as_usize(key)
        }

        pub(crate) fn arr_field(&self, key: &str) -> Result<&'a [Value], PersistError> {
            self.field(key)?.as_arr(key)
        }
    }

    /// Parses `text` as one JSON document (trailing whitespace only).
    pub(crate) fn parse(text: &str) -> Result<Value, PersistError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing content after the document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn fail(&self, message: &str) -> PersistError {
            PersistError::new(format!("invalid JSON at byte {}: {message}", self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), PersistError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.fail(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, PersistError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.fail(&format!("expected {lit}")))
            }
        }

        fn value(&mut self) -> Result<Value, PersistError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool),
                Some(b'f') => self.literal("false", Value::Bool),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.fail("expected a value")),
            }
        }

        fn object(&mut self) -> Result<Value, PersistError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(self.fail("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, PersistError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.fail("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, PersistError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.fail("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.fail("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.fail("bad \\u escape"))?;
                                // Artifact strings never contain surrogate
                                // pairs (the writer escapes only control
                                // characters below 0x20); reject rather
                                // than decode them wrongly.
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.fail("\\u escape is not a scalar"))?;
                                out.push(c);
                                self.pos += 4;
                            }
                            _ => return Err(self.fail("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // A run of plain characters up to the next quote or
                        // backslash, pushed as one slice. Both delimiters
                        // (and every control character) are ASCII, and no
                        // byte of a multi-byte UTF-8 sequence is, so the
                        // run starts and ends on char boundaries of `text`.
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            match b {
                                b'"' | b'\\' => break,
                                0x00..=0x1f => {
                                    return Err(self.fail("raw control character in string"))
                                }
                                _ => self.pos += 1,
                            }
                        }
                        out.push_str(&self.text[start..self.pos]);
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, PersistError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(self.fail("expected a number"));
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("ASCII digits are UTF-8")
                .to_string();
            Ok(Value::Num(raw))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RunCheckpoint;
    use crate::executor::RunOptions;
    use crate::shard::{run_shard, ShardReport, ShardSpec};
    use crate::spec::{CapSpec, GraphSpec, ProcessSpec};

    /// Header strings mixing 2-, 3- and 4-byte UTF-8 scalars with every
    /// escape the writer emits.
    const NAME: &str = "café ∑ 🦀";
    const DESCRIPTION: &str = "é\u{1}∑\t\"q\"\\ 🦀 end";

    fn unicode_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: NAME.into(),
            description: DESCRIPTION.into(),
            graphs: vec![GraphSpec::Regular { n: 12, d: 3 }],
            processes: vec![ProcessSpec::Srw],
            trials: 2,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: Some(ResamplePlan { walks_per_graph: 1 }),
        }
    }

    #[test]
    fn multibyte_header_strings_round_trip_through_both_codecs() {
        let opts = RunOptions {
            threads: 1,
            base_seed: 3,
        };
        let shard = run_shard(&unicode_spec(), &opts, ShardSpec { index: 0, count: 1 }).unwrap();
        let json = shard.to_json();
        let back = ShardReport::from_json(&json).unwrap();
        assert_eq!(
            (back.name.as_str(), back.description.as_str()),
            (NAME, DESCRIPTION)
        );
        assert_eq!(back.to_json(), json);

        let checkpoint = RunCheckpoint {
            header: shard.header(),
            rep_dims: shard.rep_dims.clone(),
            blocks: shard.blocks.clone(),
        };
        let json = checkpoint.to_json();
        let back = RunCheckpoint::from_json(&json).unwrap();
        assert_eq!(back.header, checkpoint.header);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn strings_reject_raw_control_characters_and_bad_escapes() {
        assert_eq!(
            json::parse("\"a é\\u00e9\\n∑\"")
                .unwrap()
                .as_str("s")
                .unwrap(),
            "a éé\n∑"
        );
        for bad in [
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"x\\q\"",
            "\"open",
            "\"\\u12\"",
        ] {
            assert!(json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
