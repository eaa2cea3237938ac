//! Adaptation-suite artifacts: `BENCH_adaptive.json` and the controller
//! on/off tables.
//!
//! `repro-report --adaptive` runs the four adaptation episodes
//! ([`AdaptiveEpisode`]: quiescent, flash-crowd, link-degradation,
//! diurnal-shift) on the paper topology, each twice — once with the
//! closed-loop live-migration controller armed (`on`) and once frozen at
//! the deployment-time placement (`off`) — and reports the stressed
//! group's session time, every group's request outcomes, the SLO verdicts,
//! the controller's cost trajectory and its committed migrations per cell.
//!
//! The headline results are structural and enforced by
//! [`validate_adaptive_json`]: the quiescent control commits **zero**
//! migrations (the drift floor holds against telemetry noise), while
//! link-degradation commits at least one (the controller re-homes the
//! session tier when the stressed corridor slows down). Episodes script
//! drift, not outages, so the on/off delta is attributable to adaptation
//! alone. Schedules and controller rounds are deterministic: a same-seed
//! suite run renders `BENCH_adaptive.json` byte-identically.

use crate::fault_artifacts::{check_rates, write_outcome};
use crate::metrics_artifacts::default_slo;
use mutsvc_core::{adaptive_episode_input, AdaptiveEpisode, AppKind};
use mutsvc_desim::json::{self, Writer};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    evaluate, run_experiment, AdaptiveSettings, ExperimentReport, MoveKind, SloReport,
};

/// The client group every episode stresses (`EpisodeTargets::group1`).
pub const STRESSED_GROUP: &str = "remote1";

/// Controller round cadence the suite arms — two telemetry windows per
/// round at the 5 s recorder window [`adaptive_episode_input`] wires.
pub fn suite_cadence() -> SimDuration {
    SimDuration::from_secs(10)
}

/// Suite windows (warm-up, measured duration). Episode onset lands one
/// quarter into the measured window and heals at three quarters either
/// way; smoke compresses the wall clock for CI's schema-validation gate
/// while still leaving four controller rounds inside the episode.
pub fn suite_windows(quick: bool, smoke: bool) -> (SimDuration, SimDuration) {
    if smoke {
        (SimDuration::from_secs(10), SimDuration::from_secs(80))
    } else if quick {
        (SimDuration::from_secs(90), SimDuration::from_secs(300))
    } else {
        (SimDuration::from_secs(120), SimDuration::from_secs(600))
    }
}

/// The two controller arms every episode runs under.
pub fn suite_arms() -> [(&'static str, AdaptiveSettings); 2] {
    [
        ("on", AdaptiveSettings::every(suite_cadence())),
        ("off", AdaptiveSettings::off()),
    ]
}

/// One adaptation-suite cell: an episode run under one controller arm.
pub struct AdaptiveCell {
    /// The scripted episode.
    pub episode: AdaptiveEpisode,
    /// Controller-arm name (`"on"` or `"off"`).
    pub arm: &'static str,
    /// Measured window (the goodput denominator).
    pub window: SimDuration,
    /// The finished run.
    pub report: ExperimentReport,
    /// The run graded against the default SLO spec.
    pub slo: SloReport,
}

impl AdaptiveCell {
    /// The stressed group's mean Browser session time, if it completed any.
    pub fn stressed_session_ms(&self) -> Option<f64> {
        self.report
            .stats
            .session_mean_over_groups(&[STRESSED_GROUP], "Browser")
    }

    /// The stressed group's availability (1 when nothing was measured).
    pub fn stressed_availability(&self) -> f64 {
        self.report
            .stats
            .outcome(STRESSED_GROUP)
            .map_or(1.0, mutsvc_workload::GroupOutcome::availability)
    }

    /// Migrations the controller committed (0 for the frozen arm).
    pub fn migration_count(&self) -> usize {
        self.report
            .adaptive
            .as_ref()
            .map_or(0, |d| d.migrations.len())
    }
}

/// Runs the full adaptation suite for one application — every episode ×
/// controller arm on the paper topology — in parallel. Cells are ordered
/// episode-major, then arm (`on` before `off`), the order
/// [`render_adaptive_json`] emits.
pub fn run_adaptive_suite(app: AppKind, quick: bool, smoke: bool, seed: u64) -> Vec<AdaptiveCell> {
    let (warmup, duration) = suite_windows(quick, smoke);
    let slo_spec = default_slo(app);
    let mut meta = Vec::new();
    let mut inputs = Vec::new();
    for episode in AdaptiveEpisode::all() {
        for (arm, controller) in suite_arms() {
            meta.push((episode, arm));
            inputs.push(adaptive_episode_input(
                app, episode, None, controller, warmup, duration, seed,
            ));
        }
    }
    let reports: Vec<ExperimentReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .zip(&meta)
            .map(|(input, &(episode, arm))| {
                let name = format!("adaptive-{}-{arm}", episode.name());
                let handle = std::thread::Builder::new()
                    .name(name.clone())
                    .spawn_scoped(scope, move || run_experiment(input))
                    .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
                (name, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(name, handle)| {
                handle
                    .join()
                    .unwrap_or_else(|_| panic!("adaptive cell {name} panicked"))
            })
            .collect()
    });
    meta.into_iter()
        .zip(reports)
        .map(|((episode, arm), report)| {
            let recorder = &report
                .metrics
                .as_ref()
                .expect("the adaptation suite arms the windowed recorder")
                .recorder;
            let slo = evaluate(&slo_spec, recorder);
            AdaptiveCell {
                episode,
                arm,
                window: duration,
                report,
                slo,
            }
        })
        .collect()
}

fn move_kind_name(kind: MoveKind) -> &'static str {
    match kind {
        MoveKind::Primary => "primary",
        MoveKind::Replica => "replica",
    }
}

/// Writes one arm cell of `BENCH_adaptive.json` — the migration schedule,
/// cost trajectory, per-group outcomes and SLO verdicts of a single run.
/// Public so the thread-invariance suite can pin the rendered bytes.
pub fn write_adaptive_cell(w: &mut Writer<'_>, cell: &AdaptiveCell) {
    w.begin_object().key("arm").string(cell.arm);
    w.key("migration_count").int(cell.migration_count() as u64);
    w.key("completed").int(cell.report.completed);
    w.key("stressed").begin_object();
    w.key("group").string(STRESSED_GROUP);
    let session_ms = cell.stressed_session_ms().unwrap_or(f64::NAN);
    w.key("session_mean_ms").fixed(session_ms, 2);
    w.key("availability").fixed(cell.stressed_availability(), 4);
    w.end_object().key("migrations").begin_array();
    let adaptive = cell.report.adaptive.as_ref();
    for m in adaptive.map_or(&[][..], |d| &d.migrations) {
        w.begin_object();
        w.key("at_ms").fixed(m.decided_at.as_millis_f64(), 2);
        w.key("component").string(&m.component);
        w.key("kind").string(move_kind_name(m.kind));
        w.key("from").string(&m.from);
        w.key("to").string(&m.to);
        w.key("modeled_gain_ms_per_s").fixed(m.modeled_gain, 2);
        w.end_object();
    }
    w.end_array().key("rounds").begin_array();
    for r in adaptive.map_or(&[][..], |d| &d.rounds) {
        w.begin_object().key("at_ms").fixed(r.at.as_millis_f64(), 2);
        w.key("windows").int(r.windows);
        w.key("cost_before").fixed(r.cost_before, 2);
        w.key("cost_after").fixed(r.cost_after, 2);
        w.key("observed_p50_ms").fixed(r.observed_p50_ms, 2);
        w.key("moves").int(r.moves).end_object();
    }
    w.end_array().key("groups").begin_array();
    for (group, outcome) in cell.report.stats.outcomes() {
        w.begin_object().key("group").string(group);
        w.key("outcome");
        write_outcome(w, outcome, cell.window);
        w.end_object();
    }
    w.end_array().key("slo").begin_object();
    w.key("all_met").bool(cell.slo.all_met());
    w.key("verdicts").begin_array();
    for v in &cell.slo.verdicts {
        w.begin_object().key("objective").string(&v.objective);
        w.key("target").fixed(v.target, 4);
        w.key("attained").fixed(v.attained, 4);
        w.key("met").bool(v.met).end_object();
    }
    w.end_array().end_object().end_object();
}

/// Renders `BENCH_adaptive.json`: per app × episode, both controller arms
/// (migration schedule, cost trajectory, per-group outcomes, SLO verdicts)
/// plus the stressed group's on-minus-off delta. Every app, episode and arm
/// starts on a line of its own.
pub fn render_adaptive_json(
    sweeps: &[(AppKind, Vec<AdaptiveCell>)],
    seed: u64,
    mode: &str,
) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object().key("suite").string("adaptive");
    w.key("mode").string(mode);
    w.key("seed").int(seed);
    w.key("cadence_s").int(suite_cadence().as_secs_f64() as u64);
    w.key("stressed_group").string(STRESSED_GROUP);
    w.key("apps").begin_array();
    for (app, cells) in sweeps {
        w.line_break().begin_object().key("app").string(app.name());
        w.key("episodes").begin_array();
        for episode in AdaptiveEpisode::all() {
            w.line_break().begin_object();
            w.key("episode").string(episode.name());
            w.key("arms").begin_array();
            let arm = |name| {
                cells
                    .iter()
                    .find(|c| c.episode == episode && c.arm == name)
                    .expect("suite covers every episode x arm")
            };
            let (on, off) = (arm("on"), arm("off"));
            write_adaptive_cell(w.line_break(), on);
            write_adaptive_cell(w.line_break(), off);
            let rt_delta = match (on.stressed_session_ms(), off.stressed_session_ms()) {
                (Some(a), Some(b)) => a - b,
                _ => f64::NAN,
            };
            let avail_delta = on.stressed_availability() - off.stressed_availability();
            w.end_array().key("delta").begin_object();
            w.key("stressed_session_mean_ms").fixed(rt_delta, 2);
            w.key("stressed_availability").fixed(avail_delta, 4);
            w.end_object().end_object();
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    out.push('\n');
    out
}

/// Renders the controller on/off table for one application: the stressed
/// group's mean session time and availability under each arm, the number
/// of committed migrations, and the on-arm SLO verdict, per episode.
pub fn render_adaptive_table(app: AppKind, cells: &[AdaptiveCell]) -> String {
    let mut out = format!(
        "{} adaptation suite — controller on vs frozen ({STRESSED_GROUP} group):\n  \
         {:<18} {:>10} {:>10}   {:>8} {:>8}   {:>10}  {:>8}\n",
        app.name(),
        "episode",
        "on ms",
        "off ms",
        "on avail",
        "off av",
        "migrations",
        "SLO(on)",
    );
    for episode in AdaptiveEpisode::all() {
        let arm = |name| {
            cells
                .iter()
                .find(|c| c.episode == episode && c.arm == name)
                .expect("suite covers every episode x arm")
        };
        let (on, off) = (arm("on"), arm("off"));
        let ms = |c: &AdaptiveCell| {
            c.stressed_session_ms()
                .map_or("-".to_string(), |v| format!("{v:.0}"))
        };
        out.push_str(&format!(
            "  {:<18} {:>10} {:>10}   {:>8.4} {:>8.4}   {:>10}  {:>8}\n",
            episode.name(),
            ms(on),
            ms(off),
            on.stressed_availability(),
            off.stressed_availability(),
            on.migration_count(),
            if on.slo.all_met() { "met" } else { "MISSED" },
        ));
    }
    out
}

/// Validates a `BENCH_adaptive.json` document: well-formed JSON opening
/// with the `{"suite":"adaptive"}` header, a `mode` and `seed`, and per app
/// × episode the schema [`render_adaptive_json`] writes — known episode
/// names, a `delta`, and `on`/`off` arm cells each carrying a migration
/// count, migrations, rounds, per-group outcomes, an SLO grade and a
/// stressed-group availability, every `availability` a number in `[0, 1]`.
/// It also enforces the suite's physics: each episode has exactly one
/// on-arm, the quiescent on-arm committed **zero** migrations, the
/// link-degradation on-arm at least one, and the frozen arm none. Returns
/// the number of arm cells found.
pub fn validate_adaptive_json(json: &str) -> Result<usize, String> {
    let doc = json::parse(json)?;
    if doc.str_at("suite")? != "adaptive" {
        return Err("missing {\"suite\":\"adaptive\"} header".to_string());
    }
    doc.str_at("mode")?;
    doc.num_at("seed")?;
    let mut cells = 0;
    for app in doc.array_at("apps")? {
        app.str_at("app")?;
        for ep in app.array_at("episodes")? {
            let episode = ep.str_at("episode")?;
            if !AdaptiveEpisode::all().iter().any(|e| e.name() == episode) {
                return Err(format!("unknown episode {episode:?}"));
            }
            ep.object_at("delta")?;
            let mut on_counts = Vec::new();
            let mut off_count = None;
            for arm in ep.array_at("arms")? {
                let count = arm.num_at("migration_count")?;
                match arm.str_at("arm")? {
                    "on" => on_counts.push(count),
                    "off" => off_count = off_count.or(Some(count)),
                    name => return Err(format!("unknown controller arm {name:?}")),
                }
                arm.array_at("migrations")?;
                arm.array_at("rounds")?;
                arm.object_at("slo")?;
                check_rates(arm.object_at("stressed")?, &["availability"])?;
                for group in arm.array_at("groups")? {
                    check_rates(group.object_at("outcome")?, &["availability"])?;
                }
                cells += 1;
            }
            let [count] = on_counts[..] else {
                return Err(format!(
                    "episode {episode:?} has {} on-arms, wanted exactly one",
                    on_counts.len()
                ));
            };
            match episode {
                "quiescent" if count != 0.0 => {
                    return Err(format!(
                        "the quiescent control committed {count} migrations; the drift floor must \
                         hold at zero"
                    ));
                }
                "link-degradation" if count == 0.0 => {
                    return Err(
                        "the link-degradation on-arm committed no migrations; the controller \
                         must react to the slowed corridor"
                            .to_string(),
                    );
                }
                _ => {}
            }
            if off_count != Some(0.0) {
                return Err(format!(
                    "episode {episode:?} frozen arm reports migrations (or none at all)"
                ));
            }
        }
    }
    if cells == 0 {
        return Err("no arm cells".to_string());
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_renders_validates_and_pins_the_physics() {
        let cells = run_adaptive_suite(AppKind::PetStore, true, true, 42);
        assert_eq!(cells.len(), AdaptiveEpisode::all().len() * 2);
        let degraded_on = cells
            .iter()
            .find(|c| c.episode == AdaptiveEpisode::LinkDegradation && c.arm == "on")
            .unwrap();
        assert!(
            degraded_on.migration_count() > 0,
            "smoke windows must leave the controller room to react"
        );
        let quiescent_on = cells
            .iter()
            .find(|c| c.episode == AdaptiveEpisode::Quiescent && c.arm == "on")
            .unwrap();
        assert_eq!(quiescent_on.migration_count(), 0);
        for cell in cells.iter().filter(|c| c.arm == "off") {
            assert!(cell.report.adaptive.is_none());
        }
        let sweeps = [(AppKind::PetStore, cells)];
        let json = render_adaptive_json(&sweeps, 42, "smoke");
        assert_eq!(validate_adaptive_json(&json), Ok(8));
        let table = render_adaptive_table(AppKind::PetStore, &sweeps[0].1);
        for episode in AdaptiveEpisode::all() {
            assert!(table.contains(episode.name()));
        }
    }

    #[test]
    fn same_seed_suites_render_byte_identically() {
        let render = || {
            let cells = run_adaptive_suite(AppKind::PetStore, true, true, 9);
            render_adaptive_json(&[(AppKind::PetStore, cells)], 9, "smoke")
        };
        assert_eq!(render(), render());
    }

    /// A minimal well-formed document the rejection tests tamper with.
    fn minimal_doc(quiescent_on: usize, degradation_on: usize) -> String {
        let arm = |name: &str, count: usize| {
            format!(
                "{{\"arm\":\"{name}\",\"migration_count\":{count},\
                 \"stressed\":{{\"availability\":1.0000}},\"migrations\":[],\"rounds\":[],\
                 \"groups\":[{{\"group\":\"local\",\"outcome\":{{\"availability\":1.0000}}}}],\
                 \"slo\":{{}}}}"
            )
        };
        let episode = |name: &str, on: usize| {
            format!(
                "{{\"episode\":\"{name}\",\"arms\":[{},{}],\"delta\":{{}}}}",
                arm("on", on),
                arm("off", 0)
            )
        };
        format!(
            "{{\"suite\":\"adaptive\",\"mode\":\"smoke\",\"seed\":1,\"apps\":[\
             {{\"app\":\"petstore\",\"episodes\":[{},{},{},{}]}}]}}",
            episode("quiescent", quiescent_on),
            episode("flash-crowd", 1),
            episode("link-degradation", degradation_on),
            episode("diurnal-shift", 0),
        )
    }

    #[test]
    fn validator_rejects_tampering() {
        let json = minimal_doc(0, 2);
        assert_eq!(validate_adaptive_json(&json), Ok(8));
        // A thrashing quiescent control.
        assert!(validate_adaptive_json(&minimal_doc(3, 2)).is_err());
        // A controller asleep through the degradation.
        assert!(validate_adaptive_json(&minimal_doc(0, 0)).is_err());
        // A wrong suite header.
        let bad = json.replacen("\"suite\":\"adaptive\"", "\"suite\":\"faults\"", 1);
        assert!(validate_adaptive_json(&bad).is_err());
        // A truncated document.
        assert!(validate_adaptive_json(&json[..json.len() - 3]).is_err());
        // An unknown episode name.
        let bad = json.replace("diurnal-shift", "earthquake");
        assert!(validate_adaptive_json(&bad).is_err());
        // An out-of-range availability.
        let bad = json.replacen("\"availability\":1.0000", "\"availability\":9", 1);
        assert!(validate_adaptive_json(&bad).is_err());
        // A migrating frozen arm.
        let bad = json.replacen(
            "\"arm\":\"off\",\"migration_count\":0",
            "\"arm\":\"off\",\"migration_count\":1",
            1,
        );
        assert!(validate_adaptive_json(&bad).is_err());
        // Field order is not part of the schema: an arm whose migration
        // count does not follow its name is still valid.
        let reordered = json.replace(
            "\"migration_count\":",
            "\"completed\":0,\"migration_count\":",
        );
        assert_eq!(validate_adaptive_json(&reordered), Ok(8));
    }
}
