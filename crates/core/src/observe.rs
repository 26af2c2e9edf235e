//! The single-pass observer pipeline: one walk, every metric.
//!
//! Every quantity the paper reports — vertex/edge cover times (Theorem 1,
//! Corollary 2), blanket time, the blue/red phase structure of §3–§5, the
//! blue-subgraph star census behind the `n/8` prediction, and hitting
//! times — is a function of the *same* step stream. This module factors
//! that observation into code: an [`Observer`] consumes each
//! [`Step`] of a trajectory and produces [`Metrics`] at the end, and the
//! generic driver [`run_observed`] advances the walk **once** while feeding
//! every attached observer, so a trial wanting several metrics no longer
//! re-walks the graph once per metric.
//!
//! # The monomorphized kernel and the `ObserverSet` tuple pattern
//!
//! [`run_observed`] is generic over the walk, the RNG **and** the observer
//! set, so a call with concrete types compiles to one flat loop: the
//! walk's [`WalkProcess::advance`] and every observer's
//! [`Observer::on_step`] inline with no per-step virtual dispatch.
//! Observer sets are expressed through the [`ObserverSet`] trait, which is
//! implemented for
//!
//! * **tuples** `(O1,)` through `(O1, O2, O3, O4, O5)` of (references to)
//!   concrete observers — the preferred form whenever the metric set is
//!   known at compile time, which is true for every caller measuring a
//!   fixed set of quantities:
//!
//!   ```
//!   # use eproc_core::observe::*;
//!   # use eproc_core::cover::CoverTarget;
//!   # use eproc_core::{EProcess, rule::UniformRule};
//!   # use eproc_graphs::generators;
//!   # use rand::SeedableRng;
//!   # let g = generators::torus2d(4, 4);
//!   # let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//!   # let mut walk = EProcess::new(&g, 0, UniformRule::new());
//!   let mut cover = CoverObserver::new(CoverTarget::Both);
//!   let mut phases = PhaseObserver::new();
//!   let run = run_observed(
//!       &mut walk,
//!       &mut (&mut cover, &mut phases), // tuple => fully inlined kernel
//!       StopWhen::AllSatisfied,
//!       1_000_000,
//!       &mut rng,
//!   );
//!   # assert!(run.steps > 0);
//!   ```
//!
//! * **homogeneous slices / arrays / `Vec`s** `[O]` where `O: Observer` —
//!   which covers enum-dispatched observers (the engine's observer bank)
//!   *and*, because `&mut dyn Observer` itself implements [`Observer`],
//!   the dynamic fallback `[&mut dyn Observer]`. Use the dyn form only
//!   when the set of observers genuinely varies at runtime: it costs one
//!   virtual call per observer per step.
//!
//! Per-step stop-condition polling is gone too: the driver arms a
//! [`CompletionToken`] with the number of attached observers, each
//! observer's resolution decrements it exactly once, and the
//! [`StopWhen::AllSatisfied`] check is a single counter comparison.
//! (Observer satisfaction must therefore be **monotone** within a run —
//! true of every observer here, and of anything measuring a
//! first-occurrence time.)
//!
//! The kernel draws the identical RNG sequence and produces the identical
//! trajectory as a plain reference loop — a `&mut dyn RngCore`, virtual
//! observer fan-out, an all-observers `satisfied()` poll — which
//! `crates/core/tests/kernel_equivalence.rs` keeps.
//!
//! The entry points [`crate::cover::run_cover`],
//! [`crate::cover::blanket_time`] and [`crate::segments::trace_phases`]
//! are thin wrappers over this pipeline.
//!
//! Observers are **reusable**: [`Observer::begin`] re-arms an observer for
//! a fresh trajectory, resizing (not reallocating) its scratch buffers —
//! word-packed [`BitSet`]s, so a re-arm touches `m / 64` words — and
//! ensemble executors amortise them across thousands of trials.

use crate::bitset::BitSet;
use crate::cover::{CoverError, CoverTarget};
use crate::interleave::{drive, Lane};
use crate::process::{Step, StepKind, WalkProcess};
use crate::segments::{Phase, PhaseTrace};
use eproc_graphs::{Graph, Vertex};
use rand::RngCore;

/// Everything a [`CoverObserver`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverMetrics {
    /// Step at which the last vertex was first visited, if vertex cover
    /// completed within the run.
    pub steps_to_vertex_cover: Option<u64>,
    /// Step at which the last edge was first traversed, if edge cover
    /// completed within the run.
    pub steps_to_edge_cover: Option<u64>,
    /// Blue (unvisited-edge) transitions observed.
    pub blue_steps: u64,
    /// Red transitions observed.
    pub red_steps: u64,
    /// Distinct vertices visited (including the start).
    pub vertices_visited: usize,
    /// Distinct edges traversed.
    pub edges_visited: usize,
}

/// What a [`BlanketObserver`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlanketMetrics {
    /// First step `t` (a multiple of `n`) at which every vertex `v` had
    /// been visited at least `δ π_v t` times; `None` if never within the
    /// run.
    pub steps_to_blanket: Option<u64>,
}

/// What a [`BlueCensusObserver`] measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlueCensusMetrics {
    /// Vertices that at some point became isolated blue star centers,
    /// sorted.
    pub ever_star_centers: Vec<Vertex>,
    /// Steps until vertex cover (`None` if the run ended first).
    pub steps_to_vertex_cover: Option<u64>,
}

/// What a [`HittingObserver`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HittingMetrics {
    /// The vertex whose first-visit time is measured.
    pub target: Vertex,
    /// Step of the first visit (`Some(0)` if the walk starts there).
    pub steps_to_hit: Option<u64>,
}

/// The result of one observer, produced by [`Observer::finish`].
#[derive(Debug, Clone, PartialEq)]
pub enum Metrics {
    /// Cover-time measurements.
    Cover(CoverMetrics),
    /// Blanket-time measurement.
    Blanket(BlanketMetrics),
    /// Blue/red phase segmentation.
    Phases(PhaseTrace),
    /// Isolated blue star census.
    BlueCensus(BlueCensusMetrics),
    /// First-visit (hitting) time of a fixed vertex.
    Hitting(HittingMetrics),
}

/// A per-step metric accumulator fed by [`run_observed`].
///
/// Lifecycle: `begin` (re-)arms the observer for a trajectory starting at
/// `start` on `g`; `on_step` is called once per transition with the
/// 1-based step index; `satisfied` reports whether this observer's
/// measurement has resolved (used by [`StopWhen::AllSatisfied`]);
/// `finish` extracts the metrics (and may drain accumulated state).
/// After `finish`, `begin` may be called again — buffers are reused, not
/// reallocated.
///
/// `satisfied` must be **monotone** between `begin` and `finish`: once it
/// returns `true` it keeps returning `true` for the rest of the run. The
/// kernel driver latches satisfaction into a [`CompletionToken`] and
/// stops polling a resolved observer.
pub trait Observer {
    /// Re-arms the observer for a fresh trajectory on `g` starting at
    /// `start` (which counts as visited).
    fn begin(&mut self, g: &Graph, start: Vertex);

    /// Consumes one transition; `t` is the 1-based step index within the
    /// current run.
    fn on_step(&mut self, t: u64, step: &Step);

    /// `true` once this observer's measurement has resolved.
    fn satisfied(&self) -> bool;

    /// Snapshots the metrics accumulated since the last `begin`.
    fn finish(&mut self) -> Metrics;
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        (**self).begin(g, start)
    }

    fn on_step(&mut self, t: u64, step: &Step) {
        (**self).on_step(t, step)
    }

    fn satisfied(&self) -> bool {
        (**self).satisfied()
    }

    fn finish(&mut self) -> Metrics {
        (**self).finish()
    }
}

/// When [`run_observed`] stops (the step cap always applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Stop as soon as every attached observer is satisfied.
    AllSatisfied,
    /// Run until the step cap regardless of observer satisfaction.
    Cap,
}

/// Trajectory-level facts returned by [`run_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedRun {
    /// Steps taken in this run (= the cap if the stop condition was not
    /// reached).
    pub steps: u64,
    /// Where the walk stopped.
    pub final_vertex: Vertex,
}

/// The unsatisfied-observer counter threaded through an [`ObserverSet`].
///
/// Armed with the number of attached observers; each observer's slot is
/// completed at most once (completions latch), and
/// [`CompletionToken::all_satisfied`] — the per-step stop check — is a
/// single integer comparison instead of an all-observers `satisfied()`
/// poll.
#[derive(Debug, Clone)]
pub struct CompletionToken {
    /// Bit `i` set ⇔ observer `i` has not yet resolved.
    pending: u128,
}

impl CompletionToken {
    /// Most observers one driver call can track.
    pub const MAX_OBSERVERS: usize = 128;

    /// Arms a token for `count` observers, all pending.
    ///
    /// # Panics
    ///
    /// Panics if `count > 128`.
    pub fn arm(count: usize) -> CompletionToken {
        assert!(
            count <= Self::MAX_OBSERVERS,
            "at most {} observers per run (got {count})",
            Self::MAX_OBSERVERS
        );
        CompletionToken {
            pending: if count == Self::MAX_OBSERVERS {
                u128::MAX
            } else {
                (1u128 << count) - 1
            },
        }
    }

    /// Marks observer `slot` as resolved; idempotent (a cleared bit stays
    /// cleared, so the hot path needs no branch).
    #[inline]
    pub fn complete(&mut self, slot: usize) {
        self.pending &= !(1u128 << slot);
    }

    /// `true` while observer `slot` has not resolved (i.e. it still needs
    /// its `satisfied()` checked).
    #[inline]
    pub fn is_pending(&self, slot: usize) -> bool {
        self.pending >> slot & 1 == 1
    }

    /// `true` once every observer has resolved.
    #[inline]
    pub fn all_satisfied(&self) -> bool {
        self.pending == 0
    }
}

/// A statically shaped collection of [`Observer`]s fed by [`run_observed`].
///
/// Implementations exist for tuples `(O1,)` … `(O1, O2, O3, O4, O5)` of
/// concrete observers (the monomorphized fast path — every `on_step`
/// inlines) and, as the dynamic fallback, for homogeneous slices, arrays
/// and `Vec`s of any observer type — including `[&mut dyn Observer]`,
/// since `&mut dyn Observer` implements [`Observer`].
///
/// An implementation must call [`CompletionToken::complete`] with an
/// observer's slot index when (and only when) that observer's
/// [`Observer::satisfied`] first turns `true`; the provided
/// implementations do this by polling `satisfied()` while the slot is
/// still pending and never again afterwards.
pub trait ObserverSet {
    /// Number of observers in the set.
    fn count(&self) -> usize;

    /// Arms every observer for a fresh trajectory and records
    /// already-satisfied ones (e.g. a hitting observer whose target is the
    /// start vertex) in `token`.
    fn begin_all(&mut self, g: &Graph, start: Vertex, token: &mut CompletionToken);

    /// Feeds one transition to every observer, completing newly resolved
    /// slots in `token`.
    fn on_step_all(&mut self, t: u64, step: &Step, token: &mut CompletionToken);
}

macro_rules! impl_observer_set_for_tuple {
    ($(($idx:tt, $name:ident)),+) => {
        impl<$($name: Observer),+> ObserverSet for ($($name,)+) {
            fn count(&self) -> usize {
                [$($idx as usize),+].len()
            }

            fn begin_all(&mut self, g: &Graph, start: Vertex, token: &mut CompletionToken) {
                $(
                    self.$idx.begin(g, start);
                    if self.$idx.satisfied() {
                        token.complete($idx);
                    }
                )+
            }

            #[inline]
            fn on_step_all(&mut self, t: u64, step: &Step, token: &mut CompletionToken) {
                $(
                    self.$idx.on_step(t, step);
                    if token.is_pending($idx) && self.$idx.satisfied() {
                        token.complete($idx);
                    }
                )+
            }
        }
    };
}

impl_observer_set_for_tuple!((0, O1));
impl_observer_set_for_tuple!((0, O1), (1, O2));
impl_observer_set_for_tuple!((0, O1), (1, O2), (2, O3));
impl_observer_set_for_tuple!((0, O1), (1, O2), (2, O3), (3, O4));
impl_observer_set_for_tuple!((0, O1), (1, O2), (2, O3), (3, O4), (4, O5));

impl<O: Observer> ObserverSet for [O] {
    fn count(&self) -> usize {
        self.len()
    }

    fn begin_all(&mut self, g: &Graph, start: Vertex, token: &mut CompletionToken) {
        for (i, obs) in self.iter_mut().enumerate() {
            obs.begin(g, start);
            if obs.satisfied() {
                token.complete(i);
            }
        }
    }

    #[inline]
    fn on_step_all(&mut self, t: u64, step: &Step, token: &mut CompletionToken) {
        for (i, obs) in self.iter_mut().enumerate() {
            obs.on_step(t, step);
            if token.is_pending(i) && obs.satisfied() {
                token.complete(i);
            }
        }
    }
}

impl<O: Observer, const N: usize> ObserverSet for [O; N] {
    fn count(&self) -> usize {
        N
    }

    fn begin_all(&mut self, g: &Graph, start: Vertex, token: &mut CompletionToken) {
        self[..].begin_all(g, start, token)
    }

    #[inline]
    fn on_step_all(&mut self, t: u64, step: &Step, token: &mut CompletionToken) {
        self[..].on_step_all(t, step, token)
    }
}

impl<O: Observer> ObserverSet for Vec<O> {
    fn count(&self) -> usize {
        self.len()
    }

    fn begin_all(&mut self, g: &Graph, start: Vertex, token: &mut CompletionToken) {
        self[..].begin_all(g, start, token)
    }

    #[inline]
    fn on_step_all(&mut self, t: u64, step: &Step, token: &mut CompletionToken) {
        self[..].on_step_all(t, step, token)
    }
}

/// Advances `walk` once per step, feeding every observer in `observers`,
/// until `stop` resolves or `cap` steps elapse — the monomorphized walk
/// kernel.
///
/// Generic over the walk, the observer set and the RNG: with concrete
/// types (`EProcess<UniformRule>`, a tuple of observers, `SmallRng`) the
/// whole per-step body — [`WalkProcess::advance`], each
/// [`Observer::on_step`], the [`CompletionToken`] stop check — inlines
/// into one flat loop. Pass a `[&mut dyn Observer]` slice to fall back
/// to dynamic observer dispatch where runtime flexibility is worth the
/// per-step cost.
///
/// The walk may have already taken steps; observers are `begin`-armed at
/// the walk's current position and all counters are relative to this
/// call. This is the one-lane case of the lockstep lane driver
/// ([`crate::interleave::run_observed_interleaved`]).
///
/// # Panics
///
/// Panics if more than [`CompletionToken::MAX_OBSERVERS`] observers are
/// attached.
pub fn run_observed<W, O, R>(
    walk: &mut W,
    observers: &mut O,
    stop: StopWhen,
    cap: u64,
    rng: &mut R,
) -> ObservedRun
where
    W: WalkProcess,
    O: ObserverSet + ?Sized,
    R: RngCore + ?Sized,
{
    let mut lanes = [Lane::new(walk, observers, rng)];
    drive(&mut lanes, stop, cap);
    lanes[0].observed()
}

/// Tracks vertex and edge cover (and the blue/red split) of a trajectory.
#[derive(Debug, Clone)]
pub struct CoverObserver {
    target: CoverTarget,
    n: usize,
    m: usize,
    vertex_seen: BitSet,
    edge_seen: BitSet,
    vertices_visited: usize,
    edges_visited: usize,
    steps_to_vertex_cover: Option<u64>,
    steps_to_edge_cover: Option<u64>,
    blue_steps: u64,
    red_steps: u64,
}

impl CoverObserver {
    /// Creates an unarmed observer for `target`; buffers are sized by
    /// [`Observer::begin`].
    pub fn new(target: CoverTarget) -> CoverObserver {
        CoverObserver {
            target,
            n: 0,
            m: 0,
            vertex_seen: BitSet::new(),
            edge_seen: BitSet::new(),
            vertices_visited: 0,
            edges_visited: 0,
            steps_to_vertex_cover: None,
            steps_to_edge_cover: None,
            blue_steps: 0,
            red_steps: 0,
        }
    }

    /// Typed access to the accumulated metrics.
    pub fn cover_metrics(&self) -> CoverMetrics {
        CoverMetrics {
            steps_to_vertex_cover: self.steps_to_vertex_cover,
            steps_to_edge_cover: self.steps_to_edge_cover,
            blue_steps: self.blue_steps,
            red_steps: self.red_steps,
            vertices_visited: self.vertices_visited,
            edges_visited: self.edges_visited,
        }
    }
}

impl Observer for CoverObserver {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        self.n = g.n();
        self.m = g.m();
        self.vertex_seen.clear_and_resize(self.n);
        self.edge_seen.clear_and_resize(self.m);
        self.vertex_seen.set(start);
        self.vertices_visited = 1;
        self.edges_visited = 0;
        self.steps_to_vertex_cover = if self.vertices_visited == self.n {
            Some(0)
        } else {
            None
        };
        self.steps_to_edge_cover = if self.m == 0 { Some(0) } else { None };
        self.blue_steps = 0;
        self.red_steps = 0;
    }

    #[inline]
    fn on_step(&mut self, t: u64, step: &Step) {
        match step.kind {
            StepKind::Blue => self.blue_steps += 1,
            StepKind::Red => self.red_steps += 1,
        }
        if self.vertex_seen.test_and_set(step.to) {
            self.vertices_visited += 1;
            if self.vertices_visited == self.n {
                self.steps_to_vertex_cover = Some(t);
            }
        }
        if let Some(e) = step.edge {
            if self.edge_seen.test_and_set(e) {
                self.edges_visited += 1;
                if self.edges_visited == self.m {
                    self.steps_to_edge_cover = Some(t);
                }
            }
        }
    }

    fn satisfied(&self) -> bool {
        match self.target {
            CoverTarget::Vertices => self.steps_to_vertex_cover.is_some(),
            CoverTarget::Edges => self.steps_to_edge_cover.is_some(),
            CoverTarget::Both => {
                self.steps_to_vertex_cover.is_some() && self.steps_to_edge_cover.is_some()
            }
        }
    }

    fn finish(&mut self) -> Metrics {
        Metrics::Cover(self.cover_metrics())
    }
}

/// Measures the Ding–Lee–Peres blanket time `τ_bl(δ)`: the first step `t`
/// at which every vertex `v` has been visited at least `δ π_v t` times.
/// The condition is checked every `n` steps, so the result has additive
/// granularity `n`.
#[derive(Debug, Clone)]
pub struct BlanketObserver {
    delta: f64,
    pi: Vec<f64>,
    visits: Vec<u64>,
    check_every: u64,
    /// Steps until the next blanket check — a countdown so the hot path
    /// needs no per-step division (`t % n`), only a decrement.
    until_check: u64,
    steps_to_blanket: Option<u64>,
}

impl BlanketObserver {
    /// Creates an unarmed observer.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::InvalidDelta`] if `delta ∉ (0, 1)`.
    pub fn new(delta: f64) -> Result<BlanketObserver, CoverError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoverError::InvalidDelta(delta));
        }
        Ok(BlanketObserver {
            delta,
            pi: Vec::new(),
            visits: Vec::new(),
            check_every: 1,
            until_check: 1,
            steps_to_blanket: None,
        })
    }

    /// The measured blanket time, if reached.
    pub fn steps_to_blanket(&self) -> Option<u64> {
        self.steps_to_blanket
    }
}

impl Observer for BlanketObserver {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        let n = g.n();
        let two_m = g.total_degree() as f64;
        self.pi.clear();
        self.pi
            .extend(g.vertices().map(|v| g.degree(v) as f64 / two_m));
        self.visits.clear();
        self.visits.resize(n, 0);
        self.visits[start] = 1;
        self.check_every = n.max(1) as u64;
        self.until_check = self.check_every;
        self.steps_to_blanket = None;
    }

    #[inline]
    fn on_step(&mut self, t: u64, step: &Step) {
        self.visits[step.to] += 1;
        self.until_check -= 1;
        if self.until_check == 0 {
            // `t` is a multiple of `check_every` here, by construction.
            self.until_check = self.check_every;
            if self.steps_to_blanket.is_none() {
                let tf = t as f64;
                let ok = self
                    .visits
                    .iter()
                    .zip(&self.pi)
                    .all(|(&v, &p)| v as f64 >= self.delta * p * tf);
                if ok {
                    self.steps_to_blanket = Some(t);
                }
            }
        }
    }

    fn satisfied(&self) -> bool {
        self.steps_to_blanket.is_some()
    }

    fn finish(&mut self) -> Metrics {
        Metrics::Blanket(BlanketMetrics {
            steps_to_blanket: self.steps_to_blanket,
        })
    }
}

/// Segments the trajectory into maximal same-coloured [`Phase`]s (the
/// blue/red structure of §3–§5). Satisfied once every edge has been
/// traversed, matching the legacy `trace_phases` stop condition.
#[derive(Debug, Clone, Default)]
pub struct PhaseObserver {
    m: usize,
    edge_seen: BitSet,
    edges_visited: usize,
    phases: Vec<Phase>,
    current: Option<Phase>,
    steps: u64,
}

impl PhaseObserver {
    /// Creates an unarmed observer.
    pub fn new() -> PhaseObserver {
        PhaseObserver::default()
    }

    /// The accumulated trace (closes the in-flight phase), leaving the
    /// observer intact.
    pub fn trace(&self) -> PhaseTrace {
        let mut phases = self.phases.clone();
        if let Some(cur) = self.current {
            phases.push(cur);
        }
        PhaseTrace {
            phases,
            steps: self.steps,
        }
    }
}

impl Observer for PhaseObserver {
    fn begin(&mut self, g: &Graph, _start: Vertex) {
        self.m = g.m();
        self.edge_seen.clear_and_resize(self.m);
        self.edges_visited = 0;
        self.phases.clear();
        self.current = None;
        self.steps = 0;
    }

    #[inline]
    fn on_step(&mut self, _t: u64, step: &Step) {
        self.steps += 1;
        if let Some(e) = step.edge {
            if self.edge_seen.test_and_set(e) {
                self.edges_visited += 1;
            }
        }
        match self.current.as_mut() {
            Some(phase) if phase.kind == step.kind => {
                phase.length += 1;
                phase.end_vertex = step.to;
            }
            _ => {
                if let Some(done) = self.current.take() {
                    self.phases.push(done);
                }
                self.current = Some(Phase {
                    kind: step.kind,
                    start_vertex: step.from,
                    end_vertex: step.to,
                    length: 1,
                });
            }
        }
    }

    fn satisfied(&self) -> bool {
        self.edges_visited == self.m
    }

    /// Drains the accumulated phases instead of cloning them (the trace
    /// can hold tens of thousands of phases on paper-scale odd-degree
    /// graphs); re-arm with [`Observer::begin`] before reuse, or use
    /// [`PhaseObserver::trace`] for a non-consuming snapshot.
    fn finish(&mut self) -> Metrics {
        let mut phases = std::mem::take(&mut self.phases);
        if let Some(cur) = self.current.take() {
            phases.push(cur);
        }
        Metrics::Phases(PhaseTrace {
            phases,
            steps: self.steps,
        })
    }
}

/// Tracks isolated blue star formation over a whole run — the §5 census
/// behind the `n/8` prediction for random 3-regular graphs — from the
/// step stream alone (its own visited bitmaps and blue degrees), so it
/// composes with any walk in one pass. Event-driven: consuming the edge
/// `{a, b}` can only complete stars centred at unvisited blue-neighbours
/// of `a` or `b`, an `O(Δ²)` check per step.
///
/// Satisfied at vertex cover.
#[derive(Debug, Clone)]
pub struct BlueCensusObserver<'g> {
    g: &'g Graph,
    vertex_seen: BitSet,
    edge_seen: BitSet,
    blue_deg: Vec<usize>,
    is_star: BitSet,
    ever: Vec<Vertex>,
    remaining: usize,
    steps_to_vertex_cover: Option<u64>,
}

impl<'g> BlueCensusObserver<'g> {
    /// Creates an unarmed observer bound to `g` (the census needs
    /// adjacency access on every star check).
    pub fn new(g: &'g Graph) -> BlueCensusObserver<'g> {
        BlueCensusObserver {
            g,
            vertex_seen: BitSet::new(),
            edge_seen: BitSet::new(),
            blue_deg: Vec::new(),
            is_star: BitSet::new(),
            ever: Vec::new(),
            remaining: 0,
            steps_to_vertex_cover: None,
        }
    }

    /// `true` if the blue component around the unvisited vertex `v` is
    /// exactly its star.
    fn is_isolated_star_at(&self, v: Vertex) -> bool {
        for (_, w, e) in self.g.ports(v) {
            if self.edge_seen.get(e) {
                return false;
            }
            let w_blue_to_v = self
                .g
                .ports(w)
                .filter(|&(_, t, f)| !self.edge_seen.get(f) && t == v)
                .count();
            if self.blue_deg[w] != w_blue_to_v {
                return false;
            }
        }
        true
    }
}

impl Observer for BlueCensusObserver<'_> {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        debug_assert!(
            std::ptr::eq(self.g, g),
            "BlueCensusObserver armed on a different graph"
        );
        let n = self.g.n();
        self.vertex_seen.clear_and_resize(n);
        self.edge_seen.clear_and_resize(self.g.m());
        self.blue_deg.clear();
        self.blue_deg
            .extend(self.g.vertices().map(|v| self.g.degree(v)));
        self.is_star.clear_and_resize(n);
        self.ever.clear();
        self.vertex_seen.set(start);
        self.remaining = n - 1;
        self.steps_to_vertex_cover = if self.remaining == 0 { Some(0) } else { None };
    }

    fn on_step(&mut self, t: u64, step: &Step) {
        if self.vertex_seen.test_and_set(step.to) {
            self.remaining -= 1;
            if self.remaining == 0 {
                self.steps_to_vertex_cover = Some(t);
            }
        }
        let Some(e) = step.edge else { return };
        if self.edge_seen.get(e) {
            return;
        }
        // A blue edge was consumed: update the blue subgraph and check the
        // only vertices whose star status can have changed. The step
        // crossed `e`, so its ends are the edge's endpoints.
        self.edge_seen.set(e);
        let (a, b) = (step.from, step.to);
        self.blue_deg[a] -= 1;
        self.blue_deg[b] -= 1;
        for end in [a, b] {
            for (_, cand, f) in self.g.ports(end) {
                if self.edge_seen.get(f) || self.vertex_seen.get(cand) || self.is_star.get(cand) {
                    continue;
                }
                if self.is_isolated_star_at(cand) {
                    self.is_star.set(cand);
                    self.ever.push(cand);
                }
            }
        }
    }

    fn satisfied(&self) -> bool {
        self.steps_to_vertex_cover.is_some()
    }

    fn finish(&mut self) -> Metrics {
        let mut ever = self.ever.clone();
        ever.sort_unstable();
        Metrics::BlueCensus(BlueCensusMetrics {
            ever_star_centers: ever,
            steps_to_vertex_cover: self.steps_to_vertex_cover,
        })
    }
}

/// Which vertex a [`HittingObserver`] waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTarget {
    /// A fixed vertex id.
    Vertex(Vertex),
    /// The highest-numbered vertex, `n - 1` (a convenient canonical
    /// "far" vertex that exists on every non-empty graph).
    LastVertex,
}

/// Records the first-visit (hitting) time of one target vertex.
#[derive(Debug, Clone)]
pub struct HittingObserver {
    target_spec: HitTarget,
    target: Vertex,
    steps_to_hit: Option<u64>,
}

impl HittingObserver {
    /// Creates an unarmed observer; the concrete vertex is resolved at
    /// [`Observer::begin`].
    pub fn new(target: HitTarget) -> HittingObserver {
        HittingObserver {
            target_spec: target,
            target: 0,
            steps_to_hit: None,
        }
    }

    /// The measured hitting time, if the target was reached.
    pub fn steps_to_hit(&self) -> Option<u64> {
        self.steps_to_hit
    }
}

impl Observer for HittingObserver {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        self.target = match self.target_spec {
            HitTarget::Vertex(v) => {
                assert!(v < g.n(), "hitting target {v} out of range");
                v
            }
            HitTarget::LastVertex => g.n() - 1,
        };
        self.steps_to_hit = if start == self.target { Some(0) } else { None };
    }

    #[inline]
    fn on_step(&mut self, t: u64, step: &Step) {
        if self.steps_to_hit.is_none() && step.to == self.target {
            self.steps_to_hit = Some(t);
        }
    }

    fn satisfied(&self) -> bool {
        self.steps_to_hit.is_some()
    }

    fn finish(&mut self) -> Metrics {
        Metrics::Hitting(HittingMetrics {
            target: self.target,
            steps_to_hit: self.steps_to_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eprocess::rule::{EdgeRule, UniformRule};
    use crate::eprocess::EProcess;
    use crate::process::StepKind;
    use crate::srw::SimpleRandomWalk;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Outcome of [`track_isolated_stars`].
    struct StarCensus {
        ever_star_centers: Vec<Vertex>,
        steps_to_vertex_cover: Option<u64>,
        steps: u64,
    }

    /// The census oracle: runs a fresh E-process to vertex cover and reads
    /// the blue subgraph from the walk's own state, recording every vertex
    /// that at any point becomes the center of an isolated blue star.
    /// Consuming a blue edge `{a, b}` can only complete stars centred at
    /// unvisited blue-neighbours of `a` or `b`.
    fn track_isolated_stars<A: EdgeRule>(
        walk: &mut EProcess<'_, A>,
        max_steps: u64,
        rng: &mut SmallRng,
    ) -> StarCensus {
        assert_eq!(walk.steps(), 0, "star tracking requires a fresh walk");
        let n = walk.graph().n();
        let mut vertex_visited = vec![false; n];
        vertex_visited[walk.current()] = true;
        let mut remaining = n - 1;
        let mut is_star = vec![false; n];
        let mut ever: Vec<Vertex> = Vec::new();
        let mut t = 0u64;
        let mut steps_to_vertex_cover = if remaining == 0 { Some(0) } else { None };
        while remaining > 0 && t < max_steps {
            let step = walk.advance(rng);
            t += 1;
            if !vertex_visited[step.to] {
                vertex_visited[step.to] = true;
                remaining -= 1;
                if remaining == 0 {
                    steps_to_vertex_cover = Some(t);
                }
            }
            if step.kind != StepKind::Blue {
                continue;
            }
            let g = walk.graph();
            let (a, b) = g.endpoints(step.edge.expect("blue steps traverse an edge"));
            for end in [a, b] {
                for (_, cand, e) in g.ports(end) {
                    if walk.edge_visited(e) || vertex_visited[cand] || is_star[cand] {
                        continue;
                    }
                    if is_isolated_star_at(walk, cand) {
                        is_star[cand] = true;
                        ever.push(cand);
                    }
                }
            }
        }
        ever.sort_unstable();
        StarCensus {
            ever_star_centers: ever,
            steps_to_vertex_cover,
            steps: t,
        }
    }

    /// `true` if the blue component around the unvisited vertex `v` is
    /// exactly its star: every blue edge of every neighbour leads back to
    /// `v`.
    fn is_isolated_star_at<A: EdgeRule>(walk: &EProcess<'_, A>, v: Vertex) -> bool {
        let g = walk.graph();
        for (_, w, e) in g.ports(v) {
            if walk.edge_visited(e) {
                return false;
            }
            let w_blue_to_v = g
                .ports(w)
                .filter(|&(_, t, f)| !walk.edge_visited(f) && t == v)
                .count();
            if walk.blue_degree(w) != w_blue_to_v {
                return false;
            }
        }
        true
    }

    #[test]
    fn three_regular_run_strands_about_n_over_8_stars() {
        // §5: over a full E-process run on a random 3-regular graph,
        // roughly n/8 vertices become isolated blue stars.
        let mut seed_rng = SmallRng::seed_from_u64(77);
        let n = 600;
        let g = generators::connected_random_regular(n, 3, &mut seed_rng).unwrap();
        let mut total = 0usize;
        let reps = 5;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let census = track_isolated_stars(&mut walk, 10_000_000, &mut rng);
            assert!(census.steps_to_vertex_cover.is_some());
            total += census.ever_star_centers.len();
        }
        let mean = total as f64 / reps as f64;
        // §5's (1/2)³ = n/8 heuristic ignores that the embedded red walk
        // often visits a would-be center before its third neighbour turns
        // away; the measured fraction is a constant a few times smaller.
        // Assert a positive constant fraction bounded by the heuristic.
        let frac = mean / n as f64;
        assert!(
            (0.02..=0.125 * 1.2).contains(&frac),
            "star fraction {frac} outside the expected constant band (mean {mean})"
        );
    }

    #[test]
    fn even_degree_run_strands_no_stars() {
        // On even-degree graphs blue phases return to their start and
        // consume whole components; stranded full-degree stars require the
        // component to be exactly the star, which the parity structure
        // makes impossible to reach without visiting the center first.
        let mut seed_rng = SmallRng::seed_from_u64(42);
        let g = generators::connected_random_regular(300, 4, &mut seed_rng).unwrap();
        let mut rng = SmallRng::seed_from_u64(43);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let census = track_isolated_stars(&mut walk, 10_000_000, &mut rng);
        assert!(census.steps_to_vertex_cover.is_some());
        assert!(
            census.ever_star_centers.is_empty(),
            "unexpected stars on 4-regular: {:?}",
            census.ever_star_centers
        );
    }

    #[test]
    fn one_walk_feeds_many_observers() {
        let g = generators::hypercube(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let mut cover = CoverObserver::new(CoverTarget::Both);
        let mut blanket = BlanketObserver::new(0.3).unwrap();
        let mut phases = PhaseObserver::new();
        let mut census = BlueCensusObserver::new(&g);
        let mut hit = HittingObserver::new(HitTarget::LastVertex);
        let run = run_observed(
            &mut walk,
            &mut (&mut cover, &mut blanket, &mut phases, &mut census, &mut hit),
            StopWhen::AllSatisfied,
            10_000_000,
            &mut rng,
        );
        // The walk advanced exactly once per observed step.
        assert_eq!(walk.steps(), run.steps);
        let cm = cover.cover_metrics();
        assert_eq!(cm.vertices_visited, g.n());
        assert_eq!(cm.edges_visited, g.m());
        assert!(blanket.steps_to_blanket().unwrap() <= run.steps);
        assert_eq!(phases.trace().total_blue(), cm.blue_steps);
        assert!(hit.steps_to_hit().unwrap() <= cm.steps_to_vertex_cover.unwrap());
        assert!(matches!(census.finish(), Metrics::BlueCensus(_)));
    }

    #[test]
    fn observers_are_reusable_across_runs() {
        let g = generators::cycle(12);
        let mut cover = CoverObserver::new(CoverTarget::Vertices);
        for seed in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let run = run_observed(
                &mut walk,
                &mut (&mut cover,),
                StopWhen::AllSatisfied,
                1_000_000,
                &mut rng,
            );
            assert_eq!(run.steps, 11);
            assert_eq!(cover.cover_metrics().steps_to_vertex_cover, Some(11));
        }
    }

    #[test]
    fn stop_when_cap_runs_to_the_cap() {
        let g = generators::complete(6);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut walk = SimpleRandomWalk::new(&g, 0);
        let mut cover = CoverObserver::new(CoverTarget::Vertices);
        let run = run_observed(&mut walk, &mut (&mut cover,), StopWhen::Cap, 500, &mut rng);
        assert_eq!(run.steps, 500);
    }

    #[test]
    fn dyn_fallback_slice_works_through_the_generic_driver() {
        // The compatibility shape: a heterogeneous dyn-observer slice fed
        // to the same generic driver.
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let mut cover = CoverObserver::new(CoverTarget::Both);
        let mut phases = PhaseObserver::new();
        let mut observers: Vec<&mut dyn Observer> = vec![&mut cover, &mut phases];
        let run = run_observed(
            &mut walk,
            &mut observers,
            StopWhen::AllSatisfied,
            1_000_000,
            &mut rng,
        );
        assert_eq!(walk.steps(), run.steps);
        assert_eq!(cover.cover_metrics().edges_visited, g.m());
    }

    #[test]
    fn completion_token_latches_and_counts() {
        let mut token = CompletionToken::arm(3);
        assert_eq!(token.pending.count_ones(), 3);
        assert!(token.is_pending(1));
        token.complete(1);
        assert!(!token.is_pending(1));
        token.complete(1); // idempotent
        assert_eq!(token.pending.count_ones(), 2);
        token.complete(0);
        token.complete(2);
        assert!(token.all_satisfied());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn completion_token_rejects_oversized_sets() {
        let _ = CompletionToken::arm(CompletionToken::MAX_OBSERVERS + 1);
    }

    #[test]
    fn blanket_observer_rejects_bad_delta() {
        assert_eq!(
            BlanketObserver::new(1.5).unwrap_err(),
            CoverError::InvalidDelta(1.5)
        );
        assert!(BlanketObserver::new(0.0).is_err());
        assert!(BlanketObserver::new(0.5).is_ok());
    }

    #[test]
    fn census_observer_matches_walk_introspection() {
        // The observer reconstructs the blue subgraph from the step stream
        // alone; it must agree with the oracle that reads the E-process
        // internals, on the same trajectory (same seed).
        let mut seed_rng = SmallRng::seed_from_u64(7);
        let g = generators::connected_random_regular(300, 3, &mut seed_rng).unwrap();
        for seed in 0..3 {
            let mut rng_a = SmallRng::seed_from_u64(100 + seed);
            let mut walk_a = EProcess::new(&g, 0, UniformRule::new());
            let oracle = track_isolated_stars(&mut walk_a, 10_000_000, &mut rng_a);

            let mut rng_b = SmallRng::seed_from_u64(100 + seed);
            let mut walk_b = EProcess::new(&g, 0, UniformRule::new());
            let mut census = BlueCensusObserver::new(&g);
            let run = run_observed(
                &mut walk_b,
                &mut (&mut census,),
                StopWhen::AllSatisfied,
                10_000_000,
                &mut rng_b,
            );
            let Metrics::BlueCensus(m) = census.finish() else {
                unreachable!()
            };
            assert_eq!(m.ever_star_centers, oracle.ever_star_centers);
            assert_eq!(m.steps_to_vertex_cover, oracle.steps_to_vertex_cover);
            assert_eq!(run.steps, oracle.steps);
        }
    }

    #[test]
    fn hitting_observer_start_is_zero() {
        let g = generators::cycle(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut walk = SimpleRandomWalk::new(&g, 3);
        let mut hit = HittingObserver::new(HitTarget::Vertex(3));
        let run = run_observed(
            &mut walk,
            &mut (&mut hit,),
            StopWhen::AllSatisfied,
            1_000,
            &mut rng,
        );
        assert_eq!(run.steps, 0);
        assert_eq!(hit.steps_to_hit(), Some(0));
    }
}
