//! The three simulated workloads: their seeded inputs, the engine each cell
//! runs on, the checks on what they simulate, and the measured passes.

use mutsvc_core::paper::paper_mean;
use mutsvc_core::report::{columns_of, paper_table_of};
use mutsvc_core::{fanout_input, measured_mean, AppKind, Config, FaultCase, Scenario};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    run_experiment, run_experiment_parallel, ExperimentInput, ExperimentReport, FaultPolicy,
    MetricsSettings, TraceSettings,
};

use crate::calib::Calib;
use crate::layers;
use crate::record::{Metrics, Spans};
use crate::stats::{median, Tally};
use crate::{measure, Args, SETUPS};

/// Which engine a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The classic sequential engine.
    Sequential,
    /// The conservative-parallel engine at this many threads.
    Parallel(usize),
}

/// One experiment of a workload: a built input and the engine to run it on.
#[derive(Debug, Clone)]
struct Cell {
    /// `app/config/engine`, unique within the workload.
    label: String,
    /// The built input.
    input: ExperimentInput,
    /// The engine.
    engine: Engine,
}

impl Cell {
    fn new(app: AppKind, config: Config, engine: Engine, input: ExperimentInput) -> Cell {
        let engine_name = match engine {
            Engine::Sequential => "seq".to_string(),
            Engine::Parallel(t) => format!("par{t}"),
        };
        Cell {
            label: format!("{}/{}/{engine_name}", app.name(), config.name()),
            input,
            engine,
        }
    }

    /// Runs the cell, consuming its input.
    fn run(self) -> ExperimentReport {
        match self.engine {
            Engine::Sequential => run_experiment(self.input),
            Engine::Parallel(threads) => run_experiment_parallel(self.input, threads),
        }
    }
}

/// Multiplier on the paper's 30 req/s offered by `fanout_8region`; the
/// modelled nodes and links are provisioned with the load, so the
/// simulator, not a saturated model, is what is measured.
const FANOUT_LOAD: f64 = 100.0;
/// WAN edge regions of `fanout_8region` (eight client regions with the
/// local cluster, so eight shards on the parallel engine).
const FANOUT_EDGES: usize = 7;
/// Multiplier on the paper's load for `buyers_observed`.
const BUYERS_LOAD: f64 = 10.0;

/// The `paper_cells` inputs: both applications under all five
/// configurations, the paper's full 180 s warm-up + 3600 s window.
fn paper_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in AppKind::all() {
        for config in Config::all() {
            let (input, _) = Scenario::paper(app, config).with_seed(seed).build();
            cells.push(Cell::new(app, config, Engine::Sequential, input));
        }
    }
    cells
}

/// The `fanout_8region` inputs: the async-updates deployment on eight
/// client regions at 100× load, each input once on the sequential engine
/// and once, unchanged, on the parallel engine at `threads` threads.
fn fanout_cells(seed: u64, threads: usize) -> Vec<Cell> {
    let config = Config::AsyncUpdates;
    let mut cells = Vec::new();
    for app in AppKind::all() {
        let mut input = fanout_input(app, config, FANOUT_EDGES, seed);
        input.topology.scale_capacity(FANOUT_LOAD);
        input.spec = input
            .spec
            .scale_rates(FANOUT_LOAD)
            .with_duration(SimDuration::from_secs(10), SimDuration::from_secs(40));
        cells.push(Cell::new(app, config, Engine::Sequential, input.clone()));
        cells.push(Cell::new(app, config, Engine::Parallel(threads), input));
    }
    cells
}

/// The `buyers_observed` inputs: the three caching deployments of both
/// applications at 10× load with every session transactional, the windowed
/// recorder (5 s) and 1-in-64 request tracing armed, and the main-link
/// partition episode under the resilient retry/failover policy.
fn buyers_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in AppKind::all() {
        for config in [
            Config::StatefulCaching,
            Config::QueryCaching,
            Config::AsyncUpdates,
        ] {
            let (mut input, _) = Scenario::quick(app, config)
                .with_seed(seed)
                .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)))
                .with_trace(TraceSettings::sampled(64))
                .with_fault_case(FaultCase::MainLinkPartition, FaultPolicy::resilient())
                .build();
            input.topology.scale_capacity(BUYERS_LOAD);
            input.spec = input.spec.scale_rates(BUYERS_LOAD);
            for group in &mut input.spec.groups {
                group.transactional_rate += group.browser_rate;
                group.browser_rate = 0.0;
            }
            cells.push(Cell::new(app, config, Engine::Sequential, input));
        }
    }
    cells
}

/// A deterministic fingerprint of everything a run simulated (wall-clock
/// excluded): two runs that simulated the same history digest identically.
fn digest(report: &ExperimentReport) -> u64 {
    let text = format!(
        "{} {} {:?} {:?} {:?} {:?} {:?}",
        report.completed,
        report.events_fired,
        report.shard_events,
        report.bind_cache,
        report.bind_totals,
        report.stats,
        report.staleness_ms,
    );
    // FNV-1a, 64-bit.
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Mean absolute relative error (percent) of the simulated per-page mean
/// response times against the paper's Tables 6/7, over every local and
/// remote cell that both the paper and the run report. `reports` holds the
/// `paper_cells` runs in build order (both apps, five configs each).
/// Returns the error and the number of cells compared.
fn paper_error_pct(reports: &[ExperimentReport]) -> (f64, usize) {
    let mut sum = 0.0;
    let mut cells = 0;
    for (a, app) in AppKind::all().into_iter().enumerate() {
        let columns = columns_of(app);
        for (c, config) in Config::all().into_iter().enumerate() {
            let report = &reports[a * 5 + c];
            for remote in [false, true] {
                for &(pattern, page) in columns {
                    let paper =
                        paper_mean(paper_table_of(app), columns, config, remote, pattern, page);
                    let measured = measured_mean(report, remote, pattern, page);
                    if let (Some(p), Some(m)) = (paper, measured) {
                        if p > 0.0 {
                            sum += (m - p).abs() / p;
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    (100.0 * sum / cells.max(1) as f64, cells)
}

/// Availability (percent) of the partitioned `remote1` group, averaged over
/// the `buyers_observed` runs.
fn remote1_availability_pct(reports: &[ExperimentReport]) -> f64 {
    let sum: f64 = reports
        .iter()
        .map(|r| r.stats.outcome("remote1").map_or(0.0, |o| o.availability()))
        .sum();
    100.0 * sum / reports.len().max(1) as f64
}

/// Builds a simulated workload's cells.
///
/// # Panics
///
/// Panics on a workload name that is not simulated.
fn build(workload: &str, seed: u64, threads: usize) -> Vec<Cell> {
    match workload {
        "paper_cells" => paper_cells(seed),
        "fanout_8region" => fanout_cells(seed, threads),
        "buyers_observed" => buyers_cells(seed),
        _ => panic!("not a simulated workload: {workload}"),
    }
}

/// What one pass over a simulated workload produced.
struct SimPass {
    /// Calibrated seconds of each of the [`SETUPS`] input builds.
    setups: Vec<f64>,
    /// Per cell, in build order.
    labels: Vec<String>,
    engines: Vec<Engine>,
    /// Host (wall-clock) seconds.
    secs: Vec<f64>,
    /// Calibrated seconds (see [`crate::calib`]).
    cal: Vec<f64>,
    /// Reference timings of the pass, host seconds.
    refs: Vec<f64>,
    /// `None` where the run panicked.
    digests: Vec<Option<u64>>,
    /// Kept only when the pass was asked to keep them.
    reports: Vec<Option<ExperimentReport>>,
}

impl SimPass {
    fn completed(&self, engine: impl Fn(Engine) -> bool) -> u64 {
        self.reports
            .iter()
            .zip(&self.engines)
            .filter(|(_, &e)| engine(e))
            .filter_map(|(r, _)| r.as_ref().map(|r| r.completed))
            .sum()
    }
}

/// Builds the inputs [`SETUPS`] times (the last build is run), then runs
/// every cell once.
fn pass(
    workload: &str,
    seed: u64,
    threads: usize,
    keep: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> SimPass {
    let mut calib = Calib::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let (built, secs) = spans.time("core.build", 1, |_| build(workload, seed, threads));
        setups.push(secs);
        cells = built;
    }
    let factor = calib.phase(setups.iter().sum()).1;
    let mut out = SimPass {
        setups: setups.iter().map(|s| s * factor).collect(),
        labels: Vec::new(),
        engines: Vec::new(),
        secs: Vec::new(),
        cal: Vec::new(),
        refs: Vec::new(),
        digests: Vec::new(),
        reports: Vec::new(),
    };
    for cell in cells {
        let label = cell.label.clone();
        let engine = cell.engine;
        let span = match engine {
            Engine::Sequential => "workload.run_experiment",
            Engine::Parallel(_) => "workload.run_experiment_parallel",
        };
        let (report, secs) = spans.time(span, 1, |_| {
            tally.run(&format!("run {label}"), || cell.run())
        });
        out.digests.push(report.as_ref().map(digest));
        out.reports.push(if keep { report } else { None });
        out.labels.push(label);
        out.engines.push(engine);
        out.secs.push(secs);
        out.cal.push(calib.phase(secs).0);
    }
    out.refs = calib.refs().to_vec();
    out
}

/// Sum over the cells on an engine `engine` accepts of each cell's median
/// seconds across `passes`, host seconds (`wall`) or calibrated ones.
fn summed_medians(passes: &[SimPass], wall: bool, engine: impl Fn(Engine) -> bool) -> f64 {
    let first = &passes[0];
    let secs = |p: &SimPass, i: usize| if wall { p.secs[i] } else { p.cal[i] };
    (0..first.secs.len())
        .filter(|&i| engine(first.engines[i]))
        .map(|i| median(&passes.iter().map(|p| secs(p, i)).collect::<Vec<_>>()))
        .sum()
}

/// Every pass must simulate exactly what `reference` simulated.
fn check_reruns<'a>(
    reference: &SimPass,
    passes: impl Iterator<Item = &'a SimPass>,
    tally: &mut Tally,
) {
    for pass in passes {
        for (i, d) in pass.digests.iter().enumerate() {
            tally.check(
                &format!("same-seed rerun digest {}", pass.labels[i]),
                d.is_some() && *d == reference.digests[i],
            );
        }
    }
}

fn is_seq(e: Engine) -> bool {
    e == Engine::Sequential
}

fn is_par(e: Engine) -> bool {
    e != Engine::Sequential
}

/// Workload-specific checks and the workload's named metrics, from the
/// reports of one pass (skipped when a run panicked; that already counts
/// as a failure).
fn check_outputs(
    workload: &str,
    reports: Vec<Option<ExperimentReport>>,
    tally: &mut Tally,
    named: &mut Metrics,
) {
    let Some(reports) = reports.into_iter().collect::<Option<Vec<_>>>() else {
        return;
    };
    match workload {
        "paper_cells" => {
            for (a, app) in AppKind::all().into_iter().enumerate() {
                let violations = mutsvc_core::validate_shapes(app, &reports[a * 5..a * 5 + 5]);
                for v in &violations {
                    eprintln!("shape violation ({}): {v}", app.name());
                }
                tally.check(
                    &format!("validate_shapes {}", app.name()),
                    violations.is_empty(),
                );
            }
            let (err, cells) = paper_error_pct(&reports);
            tally.check("paper comparison covers 310 cells", cells == 310);
            named.set("paper_err_pct", err, "%");
        }
        "fanout_8region" => {
            // Cells come in (sequential, parallel) pairs over one input.
            let gap: u64 = reports
                .chunks(2)
                .map(|pair| pair[0].completed.abs_diff(pair[1].completed))
                .sum();
            named.set("seq_par_completion_gap", gap as f64, "count");
        }
        "buyers_observed" => {
            named.set("sim_avail_pct", remote1_availability_pct(&reports), "%");
        }
        _ => {}
    }
}

/// Wall-clock throughput of the sequential cells (and, on
/// `fanout_8region`, of the parallel ones) as named metrics, and the
/// reference timing they were calibrated against; returns the calibrated
/// sequential throughput.
fn rates(workload: &str, passes: &[SimPass], completed: &SimPass, named: &mut Metrics) -> f64 {
    let seq = completed.completed(is_seq) as f64;
    named.set(
        "sim_req_per_s",
        seq / summed_medians(passes, true, is_seq),
        "1/s",
    );
    if workload == "fanout_8region" {
        let par = completed.completed(is_par) as f64;
        named.set(
            "par_req_per_s",
            par / summed_medians(passes, true, is_par),
            "1/s",
        );
        named.set(
            "par_req_per_s.calibrated",
            par / summed_medians(passes, false, is_par),
            "1/s",
        );
    }
    let refs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.refs.iter().map(|r| r * 1e3))
        .collect();
    named.timing("host_ref_ms", &refs, "ms");
    seq / summed_medians(passes, false, is_seq)
}

/// The untraced run: the end-to-end metrics over the timed passes.
/// Returns them with the pass count.
pub fn run(args: &Args, tally: &mut Tally, named: &mut Metrics) -> (Metrics, usize) {
    let (workload, seed, seconds, threads) = (
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.threads,
    );
    let mut quiet = Spans::new(false);
    let mut passes = measure(seconds, false, |_, keep| {
        pass(workload, seed, threads, keep, &mut quiet, tally)
    });
    check_reruns(&passes.warmup, passes.plain.iter(), tally);
    let seq_rate = rates(workload, &passes.plain, &passes.warmup, named);
    check_outputs(
        workload,
        std::mem::take(&mut passes.warmup.reports),
        tally,
        named,
    );
    let setups: Vec<f64> = passes
        .plain
        .iter()
        .flat_map(|p| p.setups.iter().copied())
        .collect();
    named.timing("setup_s", &setups, "s");
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    m.set("work_per_s", seq_rate, "1/s");
    m.set(
        "pass_s",
        summed_medians(&passes.plain, false, |_| true),
        "s",
    );
    (m, 1 + passes.plain.len())
}

/// The traced run: counters from the first traced pass, the tracing
/// overhead from the untraced/traced pairs, and a replay of every layer the
/// workload calls. Fills the per-layer metrics of `m`; returns the pass
/// count.
pub fn traced(
    args: &Args,
    tally: &mut Tally,
    named: &mut Metrics,
    spans: &mut Spans,
    m: &mut Metrics,
) -> usize {
    let (workload, seed, seconds, threads) = (
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.threads,
    );
    let mut quiet = Spans::new(false);
    let mut passes = measure(seconds, true, |traced, keep| {
        let log = if traced { &mut *spans } else { &mut quiet };
        pass(workload, seed, threads, keep, log, tally)
    });
    check_reruns(
        &passes.warmup,
        passes.plain.iter().chain(&passes.traced),
        tally,
    );
    let (plain, traced) = (&passes.plain, &passes.traced);
    rates(workload, traced, &traced[0], named);
    let (t_all, p_all) = (
        summed_medians(traced, false, |_| true),
        summed_medians(plain, false, |_| true),
    );
    m.set("trace.overhead_pct", 100.0 * (t_all - p_all) / p_all, "%");
    let builds: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.setups.iter().map(|s| s * 1e3))
        .collect();
    m.set("core.build_ms", median(&builds), "ms");
    let pass_count = 1 + plain.len() + traced.len();

    // Counters the sequential runs report, over the first traced pass.
    let run_s = summed_medians(traced, true, is_seq);
    let reports: Vec<&ExperimentReport> = traced[0]
        .reports
        .iter()
        .zip(&traced[0].engines)
        .filter(|(_, &e)| is_seq(e))
        .filter_map(|(r, _)| r.as_ref())
        .collect();
    let sum = |f: &dyn Fn(&ExperimentReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let requests = sum(&|r| r.completed as f64).max(1.0);
    let events = sum(&|r| r.events_fired as f64);
    let (hits, misses) = (
        sum(&|r| r.bind_cache.hits as f64),
        sum(&|r| r.bind_cache.misses as f64),
    );
    let statements = sum(&|r| f64::from(r.bind_totals.db_statements));
    let qc_hits = sum(&|r| f64::from(r.bind_totals.query_cache_hits));
    let qc_all = qc_hits + sum(&|r| f64::from(r.bind_totals.query_cache_misses));
    m.set("desim.events_per_req", events / requests, "count");
    m.set("desim.ns_per_event", run_s * 1e9 / events.max(1.0), "ns");
    m.set(
        "middleware.plan_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.set(
        "middleware.remote_invocations_per_req",
        sum(&|r| f64::from(r.bind_totals.remote_invocations)) / requests,
        "count",
    );
    m.set(
        "middleware.invalidations_per_kreq",
        1e3 * sum(&|r| r.bind_cache.invalidations as f64) / requests,
        "count",
    );
    m.set(
        "middleware.pushes_per_req",
        sum(&|r| {
            f64::from(r.bind_totals.sync_push_nodes) + f64::from(r.bind_totals.async_push_nodes)
        }) / requests,
        "count",
    );
    m.set(
        "relstore.db_statements_per_req",
        statements / requests,
        "count",
    );
    m.set(
        "relstore.query_cache_hit_ratio",
        if qc_all > 0.0 { qc_hits / qc_all } else { 0.0 },
        "ratio",
    );
    m.set("workload.run_s", run_s, "s");
    if let Some(gap) = named.get("seq_par_completion_gap") {
        m.set("workload.seq_par_completion_gap", gap, "count");
    }

    // Replays of each layer on the workload's own inputs.
    let cells = build(workload, seed, threads);
    let depth = cells
        .iter()
        .map(|c| c.input.spec.sessions_for_rate(c.input.spec.total_rate()))
        .max()
        .unwrap_or(1);
    let first = &cells[0].input;
    const OPS: usize = 400_000;
    let queue_ns = spans
        .time("desim.Simulation::step", OPS as u64, |_| {
            layers::queue_ns(depth, OPS, seed)
        })
        .0;
    let admit_ns = spans
        .time("desim.FifoResource::admit", OPS as u64, |_| {
            layers::resource_admit_ns(OPS, seed)
        })
        .0;
    let summary_ns = spans
        .time("desim.Summary::record", OPS as u64, |_| {
            layers::summary_record_ns(OPS, seed)
        })
        .0;
    let (transfer_ns, cpu_ns) = spans
        .time("netsim.Network", 2 * OPS as u64, |_| {
            layers::netsim_ns(first, OPS, seed)
        })
        .0;
    let (execute_ns, mutate_ns) = spans
        .time("relstore.Database", 2 * OPS as u64, |_| {
            layers::relstore_ns(first, OPS)
        })
        .0;
    const PAGES: usize = 2_000;
    let binds: Vec<f64> = cells
        .iter()
        .filter(|c| is_seq(c.engine))
        .map(|c| {
            spans
                .time("middleware.Binder::bind_page", PAGES as u64, |_| {
                    layers::bind_page_ns(&c.input, PAGES, seed)
                })
                .0
        })
        .collect();
    let bind_ns = binds.iter().sum::<f64>() / binds.len() as f64;
    m.set("desim.queue_ns", queue_ns, "ns");
    m.set("desim.resource_admit_ns", admit_ns, "ns");
    m.set("desim.summary_record_ns", summary_ns, "ns");
    m.set("netsim.transfer_ns", transfer_ns, "ns");
    m.set("netsim.cpu_ns", cpu_ns, "ns");
    m.set("relstore.execute_ns", execute_ns, "ns");
    m.set("relstore.mutate_ns", mutate_ns, "ns");
    m.set("middleware.bind_page_ns", bind_ns, "ns");
    // Σ count × ns/op over the layers with a count in the report; netsim
    // and FifoResource calls are not counted there, so their time stays in
    // the unattributed share with the workload layer's own bookkeeping.
    let mut attributed =
        events * queue_ns + misses * bind_ns + statements * execute_ns + requests * summary_ns;
    if workload == "buyers_observed" {
        let hist_ns = spans
            .time("desim.LogHistogram::record", OPS as u64, |_| {
                layers::histogram_record_ns(OPS, seed)
            })
            .0;
        let span_ns = spans
            .time("desim.Tracer", 60_000, |_| layers::tracer_span_ns(10_000))
            .0;
        m.set("desim.histogram_record_ns", hist_ns, "ns");
        m.set("desim.tracer_span_ns", span_ns, "ns");
        attributed += requests * hist_ns;
    }
    m.set(
        "workload.unattributed_share",
        1.0 - attributed / (run_s * 1e9),
        "ratio",
    );
    if workload == "fanout_8region" {
        shard_profile(&traced[0], cells, threads, tally, spans, m);
    }
    let warmup_reports = std::mem::take(&mut passes.warmup.reports);
    check_outputs(workload, warmup_reports, tally, named);
    pass_count
}

/// The parallel engine's profile on `fanout_8region`: shard balance from
/// the traced pass; the 1-thread rerun that must digest like the
/// `threads`-thread run; and window/stall counts from one more run per
/// app with the recorder armed (the profile lives in its metrics).
fn shard_profile(
    traced: &SimPass,
    cells: Vec<Cell>,
    threads: usize,
    tally: &mut Tally,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let imbalance: Vec<f64> = traced
        .reports
        .iter()
        .flatten()
        .filter(|r| !r.shard_events.is_empty())
        .map(|r| {
            let max = r.shard_events.iter().copied().max().unwrap_or(0) as f64;
            let mean = r.shard_events.iter().sum::<u64>() as f64 / r.shard_events.len() as f64;
            max / mean.max(1.0)
        })
        .collect();
    if !imbalance.is_empty() {
        m.set(
            "desim.shard_imbalance",
            imbalance.iter().sum::<f64>() / imbalance.len() as f64,
            "ratio",
        );
    }
    let (mut windows, mut stalled, mut shards) = (0u64, 0u64, 0u64);
    for cell in cells.into_iter().filter(|c| is_par(c.engine)) {
        let i = traced
            .labels
            .iter()
            .position(|l| *l == cell.label)
            .expect("same cells");
        let one = Cell {
            engine: Engine::Parallel(1),
            ..cell.clone()
        };
        let label = cell.label.clone();
        let digest1 = spans
            .time("workload.run_experiment_parallel", 1, |_| {
                tally.run(&format!("run {label} at 1 thread"), || one.run())
            })
            .0
            .map(|r| digest(&r));
        tally.check(
            &format!("parallel digest at 1 and {threads} threads {label}"),
            digest1.is_some() && digest1 == traced.digests[i],
        );
        let mut profiled = cell;
        profiled.input.spec = profiled
            .input
            .spec
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
        let report = spans
            .time("workload.run_experiment_parallel", 1, |_| {
                tally.run(&format!("run {label} profiled"), || profiled.run())
            })
            .0;
        for p in report
            .and_then(|r| r.metrics)
            .map(|d| d.shard_profiles)
            .unwrap_or_default()
        {
            windows += p.windows;
            stalled += p.stalled;
            shards += 1;
        }
    }
    tally.check("shard profiles reported", shards > 0);
    m.set(
        "desim.shard_stalled_frac",
        stalled as f64 / windows.max(1) as f64,
        "ratio",
    );
    m.set(
        "desim.shard_windows",
        windows as f64 / shards.max(1) as f64,
        "count",
    );
}
