//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs them pass after pass
//! until `--seconds` have elapsed (see [`measure`]), checks
//! every output, and prints the result as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of `BENCHMARK.json`; with
//! `--trace 1` a separate traced run reports the per-layer metrics,
//! measured from outside each layer (spans around every call the benchmark
//! makes into it, replays of its public functions, and the counters
//! `ExperimentReport` exposes). The line before the result carries the run
//! manifest and the workload's own named metrics.

mod calib;
mod ladder;
mod layers;
mod record;
mod sim;
mod stats;

use std::time::{Duration, Instant};

use record::{Metrics, Spans};
use stats::{valid_name, Tally};

/// Every workload; `BENCHMARK.json` records why each is in the benchmark.
const WORKLOADS: [&str; 4] = [
    "paper_cells",
    "fanout_8region",
    "buyers_observed",
    "placement_ladder",
];

/// Timed passes (traced runs: pairs of passes) every run makes after its
/// warm-up pass, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Input builds per pass; the pass reports their median as its set-up time
/// and runs the last.
pub const SETUPS: usize = 5;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric of a layer the
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("desim.events_per_req", "count"),
    ("desim.ns_per_event", "ns"),
    ("desim.queue_ns", "ns"),
    ("desim.resource_admit_ns", "ns"),
    ("desim.shard_imbalance", "ratio"),
    ("desim.shard_stalled_frac", "ratio"),
    ("desim.shard_windows", "count"),
    ("desim.histogram_record_ns", "ns"),
    ("desim.summary_record_ns", "ns"),
    ("desim.tracer_span_ns", "ns"),
    ("netsim.transfer_ns", "ns"),
    ("netsim.cpu_ns", "ns"),
    ("middleware.plan_hit_ratio", "ratio"),
    ("middleware.bind_page_ns", "ns"),
    ("middleware.remote_invocations_per_req", "count"),
    ("middleware.invalidations_per_kreq", "count"),
    ("middleware.pushes_per_req", "count"),
    ("relstore.execute_ns", "ns"),
    ("relstore.db_statements_per_req", "count"),
    ("relstore.query_cache_hit_ratio", "ratio"),
    ("relstore.mutate_ns", "ns"),
    ("workload.run_s", "s"),
    ("workload.unattributed_share", "ratio"),
    ("workload.seq_par_completion_gap", "count"),
    ("core.build_ms", "ms"),
    ("placement.apply_undo_ns.h4", "ns"),
    ("placement.apply_undo_ns.h16", "ns"),
    ("placement.apply_undo_ns.h64", "ns"),
    ("placement.apply_undo_ns.h256", "ns"),
    ("placement.full_cost_ns.h256", "ns"),
    ("placement.greedy_s", "s"),
    ("placement.regional_s", "s"),
    ("placement.multistart_s", "s"),
    ("placement.evaluator_build_ms", "ms"),
    ("placement.reprice_ms", "ms"),
    ("placement.ctrl_round_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What the command line asked for.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Threads for the parallel engine: the host's available parallelism.
    pub threads: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) if WORKLOADS.contains(&w.as_str()) => {
            Args {
                workload: w,
                seed,
                seconds,
                trace,
                threads: std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get),
            }
        }
        _ => usage(),
    }
}

/// The passes of one run.
pub struct Passes<P> {
    /// The first pass: untimed (caches and the allocator warm up), kept as
    /// the reference every later pass must reproduce.
    pub warmup: P,
    /// Untraced timed passes.
    pub plain: Vec<P>,
    /// Traced timed passes (traced runs only).
    pub traced: Vec<P>,
}

/// Runs a warm-up pass, then timed passes until `seconds` have elapsed
/// since the start: untraced ones (at least [`MIN_PASSES`]), or, for a
/// traced run, pairs of one untraced and one traced pass whose order flips
/// every pair (at least [`MIN_PASSES`] pairs). `pass(traced, keep)` runs
/// one pass; `keep` asks it to keep its reports (the warm-up and the first
/// traced pass).
pub fn measure<P>(seconds: f64, traced: bool, mut pass: impl FnMut(bool, bool) -> P) -> Passes<P> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Passes {
        warmup: pass(false, true),
        plain: Vec::new(),
        traced: Vec::new(),
    };
    while out.plain.len() < MIN_PASSES || Instant::now() < deadline {
        if !traced {
            out.plain.push(pass(false, false));
            continue;
        }
        let traced_first = out.plain.len() % 2 == 1;
        if traced_first {
            out.traced.push(pass(true, out.traced.is_empty()));
        }
        out.plain.push(pass(false, false));
        if !traced_first {
            out.traced.push(pass(true, out.traced.is_empty()));
        }
    }
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when the
/// platform does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of the Rust sources and manifests under `crates/`,
/// `src/` and `vendored/`: identifies the measured code where no git
/// metadata is present.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src", "vendored"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The trimmed standard output of a command that succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run manifest: what was measured, where and how.
fn manifest(args: &Args, passes: usize) -> String {
    // Only a repository rooted here names the measured commit; a checkout
    // without one is identified by its source digest alone.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .map_or("null".to_string(), |c| format!("\"{c}\""));
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let names: Vec<String> = WORKLOADS.iter().map(|w| format!("\"{w}\"")).collect();
    format!(
        "{{\"commit\": {commit}, \"source_digest\": \"{}\", \"rustc\": \"{rustc}\", \"profile\": \"{}\", \"nproc\": {}, \"repetitions\": {passes}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workload\": \"{}\", \"workloads\": [{}]}}",
        source_digest(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.threads,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload,
        names.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let mut tally = Tally::default();
    let mut named = Metrics::default();
    let simulated = args.workload != "placement_ladder";
    let (metrics, passes) = if args.trace {
        // A layer the workload never calls reads 0.
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            m.set(name, 0.0, unit);
        }
        let mut spans = Spans::new(true);
        let passes = if simulated {
            sim::traced(&args, &mut tally, &mut named, &mut spans, &mut m)
        } else {
            ladder::traced(&args, &mut tally, &mut named, &mut spans, &mut m)
        };
        named.set("trace.spans", spans.len() as f64, "count");
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        tally.check("span log written", spans.write(&path).is_ok());
        (m, passes)
    } else {
        let (mut m, passes) = if simulated {
            sim::run(&args, &mut tally, &mut named)
        } else {
            ladder::run(&args, &mut tally, &mut named)
        };
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        (m, passes)
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut expected: Vec<&str> = table.iter().map(|m| m.0).collect();
    expected.sort_unstable();
    let reported: Vec<&str> = metrics.iter().map(|(name, _)| name).collect();
    tally.check("every listed metric reported", reported == expected);
    // End-to-end metrics are never 0; a per-layer metric reads 0 when the
    // workload never calls its layer.
    for (name, value) in metrics.iter() {
        let ok = valid_name(name) && value.is_finite() && (args.trace || value > 0.0);
        tally.check(&format!("metric {name} is a valid number"), ok);
    }
    let failures: Vec<String> = tally
        .failures()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    println!(
        "{{\"manifest\": {}, \"named\": {}, \"failure_share\": {}, \"failures\": [{}]}}",
        manifest(&args, passes),
        named.json(),
        record::num(tally.failure_share()),
        failures.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed(),
        metrics.json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string values of every `"key": "value"` pair with this key, in
    /// file order.
    fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pattern = format!("\"{key}\": \"");
        json.match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &json[at + pattern.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
            .collect();
        assert_eq!(values(json, "name"), names);
        let units: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.1).collect();
        assert_eq!(values(json, "unit"), units);
    }

    #[test]
    fn measure_warms_up_then_alternates_pairs() {
        let mut calls = Vec::new();
        let passes = measure(0.0, true, |traced, keep| calls.push((traced, keep)));
        assert_eq!(
            calls,
            [
                (false, true),
                (false, false),
                (true, true),
                (true, false),
                (false, false),
                (false, false),
                (true, false),
            ]
        );
        assert_eq!(
            (passes.plain.len(), passes.traced.len()),
            (MIN_PASSES, MIN_PASSES)
        );
        let untraced = measure(0.0, false, |traced, _| assert!(!traced));
        assert_eq!(
            (untraced.plain.len(), untraced.traced.len()),
            (MIN_PASSES, 0)
        );
    }

    #[test]
    fn names_and_units_follow_the_grammar() {
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| &m.0))
        {
            assert!(valid_name(name), "{name}");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{unit}"
            );
        }
    }
}
