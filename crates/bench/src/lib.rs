//! # mutsvc-bench — paper reproduction support
//!
//! Shared helpers for the `repro-report` binary: parallel sweep execution
//! across scenario cells, and the fault, trace, metrics and adaptation
//! suites behind `BENCH_faults.json`, `BENCH_trace.json`,
//! `BENCH_metrics.json` and `BENCH_adaptive.json`. Wall-clock performance
//! is measured by the separate `perfbench` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_artifacts;
pub mod fault_artifacts;
pub mod metrics_artifacts;
pub mod trace_artifacts;

use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_workload::ExperimentReport;

/// Runs a batch of scenarios in parallel (one thread per scenario — each is
/// internally single-threaded and deterministic, so the reports are
/// identical to running them sequentially).
///
/// Scoped threads are named after their configuration, so a panicking
/// scenario reports *which* cell died (both in the thread's own panic
/// message and in the join error here) instead of an anonymous
/// "scenario thread panicked".
pub fn run_scenarios_parallel(scenarios: Vec<Scenario>) -> Vec<ExperimentReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .into_iter()
            .map(|scenario| {
                let name = scenario.config.name();
                let handle = std::thread::Builder::new()
                    .name(format!("sweep-{name}"))
                    .spawn_scoped(scope, move || scenario.run())
                    .unwrap_or_else(|e| panic!("failed to spawn sweep-{name}: {e}"));
                (name, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(name, handle)| {
                handle
                    .join()
                    .unwrap_or_else(|_| panic!("scenario {name} panicked"))
            })
            .collect()
    })
}

/// Runs the five configurations of `app` in parallel.
pub fn run_sweep_parallel(app: AppKind, quick: bool, seed: u64) -> Vec<ExperimentReport> {
    let scenarios = Config::all()
        .into_iter()
        .map(|config| {
            let scenario = if quick {
                Scenario::quick(app, config)
            } else {
                Scenario::paper(app, config)
            };
            scenario.with_seed(seed)
        })
        .collect();
    run_scenarios_parallel(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_matches_sequential_order() {
        // Tiny scenarios: just verify ordering and determinism of assembly.
        let reports = run_sweep_parallel(AppKind::Rubis, true, 1);
        let names: Vec<_> = reports.iter().map(|r| r.config.clone()).collect();
        let expected: Vec<_> = Config::all().iter().map(|c| c.name().to_string()).collect();
        assert_eq!(names, expected);
    }
}
