//! Rule A does not matter — even adversarially.
//!
//! Theorem 1's bound is "independent of the rule used to select the order
//! of the unvisited edges, which could, for example, be chosen on-line by
//! an adversary". This example races the uniform rule against three
//! adversaries on an even-degree expander and checks Observation 10
//! (blue phases return to their start vertex) along the way.
//!
//! Run with: `cargo run --release --example adversarial_explorer`

use eproc::core::cover::run_to_vertex_cover;
use eproc::core::rule::{AdversarialRule, EdgeRule, GreedyAdversary, RuleContext, UniformRule};
use eproc::core::{EProcess, StepKind, WalkProcess};
use eproc::graphs::generators;
use eproc::graphs::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn race<A: EdgeRule>(name: &str, g: &Graph, rule: A, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut walk = EProcess::new(g, 0, rule);
    let cover = run_to_vertex_cover(&mut walk, g, &mut rng).expect("connected");
    println!(
        "  {name:<22} CV = {:>8} steps   CV/n = {:.2}",
        cover.steps,
        cover.steps as f64 / g.n() as f64
    );
}

fn main() {
    let n = 10_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let g = generators::connected_random_regular(n, 6, &mut rng).expect("generator");
    println!("Even-degree expander: random 6-regular graph, n = {n}\n");
    println!("Vertex cover time under different rules A (Theorem 1 says all Θ(n)):");

    race("uniform", &g, UniformRule::new(), 1);
    race("degree-greedy adversary", &g, GreedyAdversary, 2);
    // An adversary that always returns fire toward the most recently
    // compacted slot (a worst-case-looking deterministic whim).
    race(
        "last-slot adversary",
        &g,
        AdversarialRule::new(|ctx: &RuleContext<'_>| ctx.live_ports.len() - 1),
        3,
    );
    // An adversary alternating between extremes based on the step parity.
    race(
        "alternating adversary",
        &g,
        AdversarialRule::new(|ctx: &RuleContext<'_>| {
            if ctx.step.is_multiple_of(2) {
                0
            } else {
                ctx.live_ports.len() - 1
            }
        }),
        4,
    );

    // Observation 10 spot-check: the first blue phase returns to its start.
    println!("\nObservation 10 check (blue phases return to the start vertex):");
    let mut walk = EProcess::new(&g, 123, UniformRule::new());
    let mut rng = SmallRng::seed_from_u64(5);
    let mut steps = 0u64;
    while walk.in_blue_phase() {
        let s = walk.advance(&mut rng);
        assert_eq!(s.kind, StepKind::Blue);
        steps += 1;
    }
    println!(
        "  first blue phase: {steps} blue steps, ended at vertex {} (started at 123) ✓",
        walk.current()
    );
    assert_eq!(walk.current(), 123, "Observation 10 violated!");
}
