//! Fault-suite artifacts: `BENCH_faults.json` and the availability tables.
//!
//! `repro-report --faults` runs the five configurations under the standard
//! fault suite ([`FaultCase`]: main-link partition, edge crash, lossy link),
//! each with the recovery policy on (`resilient`) and off, and reports
//! availability, goodput, error rate, retries/failovers and staleness per
//! cell. The headline result is the paper's graceful-degradation claim:
//! under the main-link partition, edge-1 client availability orders
//! centralized < remote-facade < the caching configurations — the
//! centralized baseline goes dark behind the cut while edge caches keep
//! answering reads (with recorded staleness). Schedules are scripted, so a
//! same-seed suite run renders `BENCH_faults.json` byte-identically — the
//! determinism tests diff sequential vs parallel execution.

use mutsvc_core::{AppKind, Config, FaultCase, Scenario};
use mutsvc_desim::json::{self, Value, Writer};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{ExperimentReport, FaultPolicy, GroupOutcome};

/// The two recovery-policy arms every episode runs under.
pub fn suite_policies() -> [(&'static str, FaultPolicy); 2] {
    [
        ("resilient", FaultPolicy::resilient()),
        ("off", FaultPolicy::none()),
    ]
}

/// Builds the scenario one fault cell executes. Smoke mode shortens the
/// windows to 10 s warm-up + 40 s measured (CI wall-clock); the episode
/// then covers the middle half of the measured window either way.
pub fn fault_scenario(
    app: AppKind,
    config: Config,
    case: FaultCase,
    policy: FaultPolicy,
    quick: bool,
    smoke: bool,
    seed: u64,
) -> Scenario {
    let mut scenario = if quick || smoke {
        Scenario::quick(app, config)
    } else {
        Scenario::paper(app, config)
    };
    if smoke {
        scenario.warmup = SimDuration::from_secs(10);
        scenario.duration = SimDuration::from_secs(40);
    }
    scenario.with_seed(seed).with_fault_case(case, policy)
}

/// One fault-suite cell: a configuration run under one episode and policy.
pub struct FaultCell {
    /// The configuration.
    pub config: Config,
    /// The injected episode.
    pub case: FaultCase,
    /// Policy-arm name (`"resilient"` or `"off"`).
    pub policy: &'static str,
    /// Measured window (the goodput denominator).
    pub window: SimDuration,
    /// The finished run.
    pub report: ExperimentReport,
}

/// Runs the full suite for one application — every episode × policy arm ×
/// configuration — in parallel. Cells are ordered case-major, then policy,
/// then configuration (the order [`render_faults_json`] emits).
pub fn run_fault_suite(app: AppKind, quick: bool, smoke: bool, seed: u64) -> Vec<FaultCell> {
    let mut plan = Vec::new();
    for case in FaultCase::all() {
        for (name, policy) in suite_policies() {
            for config in Config::all() {
                let scenario = fault_scenario(app, config, case, policy, quick, smoke, seed);
                plan.push((config, case, name, scenario));
            }
        }
    }
    let scenarios: Vec<Scenario> = plan.iter().map(|(_, _, _, s)| s.clone()).collect();
    let reports = crate::run_scenarios_parallel(scenarios);
    plan.into_iter()
        .zip(reports)
        .map(|((config, case, policy, scenario), report)| FaultCell {
            config,
            case,
            policy,
            window: scenario.duration,
            report,
        })
        .collect()
}

/// Writes one group's request outcomes as a JSON object.
pub(crate) fn write_outcome(w: &mut Writer<'_>, outcome: &GroupOutcome, window: SimDuration) {
    w.begin_object().key("ok").int(outcome.ok);
    w.key("failed").int(outcome.failed);
    w.key("retries").int(outcome.retries);
    w.key("failovers").int(outcome.failovers);
    w.key("stale_served").int(outcome.stale_served);
    w.key("availability").fixed(outcome.availability(), 4);
    w.key("error_rate").fixed(outcome.error_rate(), 4);
    w.key("goodput_rps").fixed(outcome.goodput(window), 2);
    w.end_object();
}

/// Renders `BENCH_faults.json`: per app × episode × policy arm, each
/// configuration's request outcomes (total and per client group) and the
/// staleness distribution of partition-served reads. Every app, case,
/// policy and configuration cell starts on a line of its own.
pub fn render_faults_json(sweeps: &[(AppKind, Vec<FaultCell>)], seed: u64, mode: &str) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object().key("suite").string("faults");
    w.key("mode").string(mode);
    w.key("seed").int(seed);
    w.key("apps").begin_array();
    for (app, cells) in sweeps {
        w.line_break().begin_object().key("app").string(app.name());
        w.key("cases").begin_array();
        for case in FaultCase::all() {
            w.line_break().begin_object();
            w.key("case").string(case.name());
            w.key("policies").begin_array();
            for (policy, _) in suite_policies() {
                w.line_break().begin_object().key("policy").string(policy);
                w.key("configs").begin_array();
                for cell in cells
                    .iter()
                    .filter(|c| c.case == case && c.policy == policy)
                {
                    let stats = &cell.report.stats;
                    let hist = stats.staleness_histogram();
                    w.line_break().begin_object();
                    w.key("config").string(cell.config.name());
                    w.key("completed").int(cell.report.completed);
                    w.key("total");
                    write_outcome(&mut w, &stats.total_outcome(), cell.window);
                    w.key("staleness_ms").begin_object();
                    w.key("count").int(hist.total());
                    w.key("p50").fixed(hist.quantile(0.5), 2);
                    w.key("p95").fixed(hist.quantile(0.95), 2);
                    w.end_object().key("groups").begin_array();
                    for (group, outcome) in stats.outcomes() {
                        w.begin_object().key("group").string(group);
                        w.key("outcome");
                        write_outcome(&mut w, outcome, cell.window);
                        w.end_object();
                    }
                    w.end_array().end_object();
                }
                w.end_array().end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    out.push('\n');
    out
}

/// Renders the edge-1 client availability table of one suite run (rows:
/// episodes; columns: configurations; cells: `resilient policy / policy
/// off`). This is the README's five-configuration availability table.
pub fn render_availability_table(app: AppKind, cells: &[FaultCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edge-1 client availability under faults ({}; resilient policy / policy off):",
        app.name()
    );
    let _ = write!(out, "  {:<22}", "episode");
    for config in Config::all() {
        let _ = write!(out, " {:>17}", config.name());
    }
    out.push('\n');
    for case in FaultCase::all() {
        let _ = write!(out, "  {:<22}", case.name());
        for config in Config::all() {
            let avail = |policy: &str| {
                cells
                    .iter()
                    .find(|c| c.case == case && c.policy == policy && c.config == config)
                    .and_then(|c| c.report.stats.outcome("remote1"))
                    .map_or("-".to_string(), |o| format!("{:.2}", o.availability()))
            };
            let entry = format!("{}/{}", avail("resilient"), avail("off"));
            let _ = write!(out, " {entry:>17}");
        }
        out.push('\n');
    }
    out
}

/// Checks the §4 graceful-degradation claim on a finished suite: under the
/// main-link partition with the resilient policy, edge-1 client
/// availability must order centralized < remote-facade < every caching
/// configuration. Returns the violations (empty = the ordering holds).
pub fn partition_ordering_violations(cells: &[FaultCell]) -> Vec<String> {
    let avail = |config: Config| -> Option<f64> {
        cells
            .iter()
            .find(|c| {
                c.case == FaultCase::MainLinkPartition
                    && c.policy == "resilient"
                    && c.config == config
            })
            .and_then(|c| c.report.stats.outcome("remote1"))
            .map(mutsvc_workload::GroupOutcome::availability)
    };
    let (Some(central), Some(facade)) = (avail(Config::Centralized), avail(Config::RemoteFacade))
    else {
        return vec!["suite lacks the resilient main-link-partition cells".to_string()];
    };
    let mut violations = Vec::new();
    if facade <= central {
        violations.push(format!(
            "remote-facade availability {facade:.3} should exceed centralized {central:.3}"
        ));
    }
    for config in [
        Config::StatefulCaching,
        Config::QueryCaching,
        Config::AsyncUpdates,
    ] {
        match avail(config) {
            Some(v) if v > facade => {}
            Some(v) => violations.push(format!(
                "{} availability {v:.3} should exceed remote-facade {facade:.3}",
                config.name()
            )),
            None => violations.push(format!("no {} partition cell", config.name())),
        }
    }
    violations
}

/// Checks that each of `keys` in an outcome object is a number in `[0, 1]`.
pub(crate) fn check_rates(outcome: &Value, keys: &[&str]) -> Result<(), String> {
    for &key in keys {
        let v = outcome.num_at(key)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("\"{key}\":{v} out of [0,1]"));
        }
    }
    Ok(())
}

/// Validates a `BENCH_faults.json` document: well-formed JSON opening with
/// the `{"suite":"faults"}` header, a `mode` and `seed`, and per app × case
/// × policy × configuration the schema [`render_faults_json`] writes —
/// known episode names, a `staleness_ms` summary, and a total and
/// per-group outcome whose `availability` and `error_rate` are numbers in
/// `[0, 1]`. Returns the number of configuration cells found.
pub fn validate_faults_json(json: &str) -> Result<usize, String> {
    let doc = json::parse(json)?;
    if doc.str_at("suite")? != "faults" {
        return Err("missing {\"suite\":\"faults\"} header".to_string());
    }
    doc.str_at("mode")?;
    doc.num_at("seed")?;
    let mut cells = 0;
    for app in doc.array_at("apps")? {
        app.str_at("app")?;
        for case in app.array_at("cases")? {
            let name = case.str_at("case")?;
            if !FaultCase::all().iter().any(|c| c.name() == name) {
                return Err(format!("unknown episode {name:?}"));
            }
            for policy in case.array_at("policies")? {
                policy.str_at("policy")?;
                for cell in policy.array_at("configs")? {
                    cell.str_at("config")?;
                    cell.num_at("completed")?;
                    cell.object_at("staleness_ms")?.num_at("count")?;
                    check_rates(cell.object_at("total")?, &["availability", "error_rate"])?;
                    for group in cell.array_at("groups")? {
                        group.str_at("group")?;
                        check_rates(group.object_at("outcome")?, &["availability", "error_rate"])?;
                    }
                    cells += 1;
                }
            }
        }
    }
    if cells == 0 {
        return Err("no configuration cells".to_string());
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cell(config: Config, policy_name: &'static str, seed: u64) -> FaultCell {
        let (_, policy) = suite_policies()
            .into_iter()
            .find(|(n, _)| *n == policy_name)
            .unwrap();
        let scenario = fault_scenario(
            AppKind::PetStore,
            config,
            FaultCase::MainLinkPartition,
            policy,
            true,
            true,
            seed,
        );
        FaultCell {
            config,
            case: FaultCase::MainLinkPartition,
            policy: policy_name,
            window: scenario.duration,
            report: scenario.run(),
        }
    }

    #[test]
    fn validator_accepts_the_rendered_suite_and_rejects_tampering() {
        let cells = vec![smoke_cell(Config::Centralized, "resilient", 7)];
        let json = render_faults_json(&[(AppKind::PetStore, cells)], 7, "smoke");
        assert_eq!(validate_faults_json(&json), Ok(1));
        // An out-of-range rate.
        let bad = json.replacen("\"availability\":", "\"availability\":9", 1);
        assert!(validate_faults_json(&bad).is_err());
        // A truncated document.
        assert!(validate_faults_json(&json[..json.len() - 3]).is_err());
        // An unknown episode name.
        let bad = json.replace("main-link-partition", "earthquake");
        assert!(validate_faults_json(&bad).is_err());
        // One group's error rate removed: every outcome carries both rates.
        let groups = json.find("\"groups\":[").unwrap();
        let at = groups + json[groups..].find(",\"error_rate\":").unwrap();
        let end = at + 1 + json[at + 1..].find(',').unwrap();
        let bad = format!("{}{}", &json[..at], &json[end..]);
        assert!(validate_faults_json(&bad).is_err());
    }

    #[test]
    fn rendered_artifact_is_byte_identical_per_seed() {
        let run = || {
            let cells = vec![smoke_cell(Config::QueryCaching, "off", 7)];
            render_faults_json(&[(AppKind::PetStore, cells)], 7, "smoke")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_sweeps_are_identical_sequential_and_parallel() {
        let scenarios: Vec<Scenario> = [Config::Centralized, Config::StatefulCaching]
            .into_iter()
            .map(|config| {
                fault_scenario(
                    AppKind::Rubis,
                    config,
                    FaultCase::EdgeCrash,
                    FaultPolicy::resilient(),
                    true,
                    true,
                    11,
                )
            })
            .collect();
        let sequential: Vec<ExperimentReport> = scenarios.iter().map(Scenario::run).collect();
        let parallel = crate::run_scenarios_parallel(scenarios);
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events_fired, b.events_fired);
        }
    }
}
