//! Deterministic parallel multi-start search.
//!
//! RAFDA-style continuous re-deployment (see PAPERS.md) needs placement
//! answers that are both fast *and* reproducible: the same interaction
//! graph must yield the same deployment on a 4-core laptop and a 64-core
//! server, or re-evaluation would flap deployments for no reason. This
//! module runs `starts` independent annealing chains — each with its own
//! derived seed and rotation through the all-on-one-host starting points —
//! in parallel via rayon, polishes each with greedy hill-climbing, and
//! reduces the results by the **total order** `(cost bits, seed)`. The
//! reduction is associative and commutative over a total order, so the
//! winner is independent of thread count and scheduling; a test pins that
//! property by re-running under differently sized thread pools.

use rayon::prelude::*;

use crate::algorithms::annealing::{anneal, AnnealingOptions};
use crate::algorithms::greedy::{improve, GreedyOptions};
use crate::graph::{HostId, Placement, PlacementProblem};

/// Options for [`solve_multistart`].
#[derive(Debug, Clone)]
pub struct MultistartOptions {
    /// Number of independent annealing starts.
    pub starts: usize,
    /// Annealing schedule template; each start derives its own seed from
    /// `annealing.seed` and the start index.
    pub annealing: AnnealingOptions,
}

impl Default for MultistartOptions {
    fn default() -> Self {
        MultistartOptions {
            starts: 8,
            annealing: AnnealingOptions::default(),
        }
    }
}

/// Per-start seed: decorrelate neighbouring start indices with the 64-bit
/// golden-ratio increment (splitmix64's stream constant).
fn start_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `options.starts` seeded annealing chains in parallel, finishes each
/// with greedy hill-climbing (replication moves included), and returns the
/// best placement under the deterministic `(cost, seed)` order.
///
/// The result is bit-identical regardless of rayon thread count: every
/// chain is deterministic given its derived seed, and the reduction
/// compares `(f64::total_cmp(cost), seed)` — a total order with no float
/// ties left to scheduling.
///
/// # Panics
///
/// Panics if `options.starts` is zero.
pub fn solve_multistart(
    problem: &PlacementProblem,
    options: &MultistartOptions,
) -> (Placement, f64) {
    assert!(options.starts > 0, "multi-start needs at least one start");
    let hosts = problem.hosts.len();
    (0..options.starts)
        .into_par_iter()
        .map(|i| {
            let seed = start_seed(options.annealing.seed, i);
            let chain = AnnealingOptions {
                seed,
                ..options.annealing.clone()
            };
            let start = Placement::all_on(problem, HostId(i % hosts));
            let (placement, _) = anneal(problem, start, &chain);
            let (placement, cost) = improve(problem, placement, &GreedyOptions::default());
            (cost, seed, placement)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(cost, _, placement)| (placement, cost))
        .expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::greedy::solve as greedy_solve;
    use crate::derive::{petstore_problem, rubis_problem};

    #[test]
    fn multistart_matches_or_beats_single_methods() {
        for (name, problem) in [
            ("petstore", petstore_problem().0),
            ("rubis", rubis_problem().0),
        ] {
            let (_, greedy_cost) = greedy_solve(&problem, &GreedyOptions::default());
            let options = MultistartOptions {
                starts: 4,
                annealing: AnnealingOptions {
                    steps: 40,
                    moves_per_step: 80,
                    ..Default::default()
                },
            };
            let (placement, cost) = solve_multistart(&problem, &options);
            assert!(placement.respects_pins(&problem));
            assert!(
                cost <= greedy_cost + 1e-9,
                "{name}: multistart {cost:.1} worse than greedy {greedy_cost:.1}"
            );
        }
    }

    #[test]
    fn multistart_is_thread_count_invariant() {
        let (problem, _) = rubis_problem();
        let options = MultistartOptions {
            starts: 6,
            annealing: AnnealingOptions {
                steps: 30,
                moves_per_step: 60,
                ..Default::default()
            },
        };
        let mut runs = Vec::new();
        for threads in [1, 2, 6] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            runs.push(pool.install(|| solve_multistart(&problem, &options)));
        }
        for (placement, cost) in &runs[1..] {
            assert_eq!(placement, &runs[0].0, "placement differs across pools");
            assert_eq!(
                cost.to_bits(),
                runs[0].1.to_bits(),
                "cost bits differ across pools"
            );
        }
    }

    #[test]
    fn start_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| start_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64);
    }
}
