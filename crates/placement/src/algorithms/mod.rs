//! Placement algorithms: exhaustive enumeration, greedy hill-climbing with
//! replication, simulated annealing, METIS-style multilevel k-way
//! partitioning, region-coarsened search, and deterministic parallel
//! multi-start search.
//!
//! Every algorithm prices candidate moves through the incremental
//! [`CostEvaluator`](crate::cost::incremental::CostEvaluator) — a
//! single-component move costs `O(degree × hosts)` instead of a
//! whole-graph cost sweep.

pub mod annealing;
pub mod exhaustive;
pub mod greedy;
pub mod multilevel;
pub mod multistart;
pub mod regional;

pub use annealing::{solve as annealing_solve, AnnealingOptions};
pub use greedy::{improve as greedy_improve, solve as greedy_solve, GreedyOptions};
pub use multilevel::{
    partition as multilevel_partition, solve as multilevel_solve, MultilevelOptions,
};
pub use multistart::{solve_multistart, MultistartOptions};
pub use regional::{host_regions, region_medoids, solve_regional, RegionalOptions};
