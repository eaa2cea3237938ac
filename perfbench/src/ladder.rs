//! The `placement_ladder` workload: placement problems on the multi-tier
//! host ladder, seeded move sequences through the incremental evaluator,
//! the production solvers, and adaptive-controller rounds.

use mutsvc_core::{
    adaptive_episode_input, multi_tier_topology, AdaptiveEpisode, AppKind, MultiTierSpec,
};
use mutsvc_desim::fault::FaultKind;
use mutsvc_desim::rng::SimRng;
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_netsim::{NodeId, Topology};
use mutsvc_placement::algorithms::{
    greedy_solve, solve_multistart, solve_regional, AnnealingOptions, GreedyOptions,
    MultistartOptions, RegionalOptions,
};
use mutsvc_placement::derive::{petstore_problem, rubis_problem};
use mutsvc_placement::wan::{hosts_from_topology, rehost, ServerSpec};
use mutsvc_placement::{cost, CostEvaluator, HostId, Move, NodeIndex, Placement, PlacementProblem};
use mutsvc_workload::{AdaptiveObs, AdaptiveSettings, Controller};

use crate::calib::Calib;
use crate::record::{Metrics, Spans};
use crate::stats::{median, Tally};
use crate::{measure, Args, SETUPS};

/// Host counts of the ladder rungs.
const RUNGS: [usize; 4] = [4, 16, 64, 256];
/// Committed moves that take each rung away from the all-central start
/// before probing.
const WALK_MOVES: usize = 200;
/// Apply+undo probes per rung per pass.
const PROBES: usize = 200_000;
/// Controller rounds timed per application per pass.
const CONTROLLER_ROUNDS: usize = 200;

/// One rung: its problem, the committed walk that sets the evaluator's
/// state, and the probe moves (each valid at the walk's end state).
struct Rung {
    /// Application-server hosts.
    hosts: usize,
    /// The RUBiS graph re-targeted onto the rung's topology.
    problem: PlacementProblem,
    /// Committed moves from the all-on-host-0 placement.
    walk: Vec<Move>,
    /// Probe moves evaluated as apply+undo pairs after the walk.
    probes: Vec<Move>,
}

/// One application's controller set-up: the controller, the topology it
/// observes, its candidate servers, and the observation it is fed.
struct ControllerCase {
    /// The application.
    app: AppKind,
    /// The controller built over the episode input.
    controller: Controller,
    /// The episode's network.
    topology: Topology,
    /// Server nodes whose round-trip matrix the controller re-prices.
    servers: Vec<NodeId>,
    /// Observed one-way latencies with the degraded corridor at its
    /// episode factor.
    obs: AdaptiveObs,
    /// Controller cadence (rounds are driven at multiples of it).
    cadence: SimDuration,
    /// First round time (one cadence past warm-up).
    first_round: SimTime,
}

/// All inputs of one `placement_ladder` pass.
struct LadderInputs {
    /// The host ladder, smallest rung first.
    rungs: Vec<Rung>,
    /// The problems small enough for the flat solvers (greedy and
    /// multi-start scan every host for every component each round, which
    /// takes tens of seconds from 64 hosts up): both paper problems on the
    /// three-server star, and the 4- and 16-host rungs.
    flat: Vec<(String, PlacementProblem)>,
    /// One controller case per application.
    controllers: Vec<ControllerCase>,
}

/// The RUBiS graph re-targeted onto the multi-tier rung with `hosts`
/// application servers: client traffic splits evenly over the main site and
/// every edge PoP; regional hubs originate none.
fn ladder_problem(hosts: usize) -> PlacementProblem {
    let (topology, nodes) = multi_tier_topology(&MultiTierSpec::ladder_rung(hosts));
    let share = 1.0 / (nodes.edges.len() as f64 + 1.0);
    let servers: Vec<ServerSpec> = nodes
        .servers()
        .iter()
        .enumerate()
        .map(|(i, &node)| ServerSpec {
            node,
            // servers() lists main, then hubs, then edge PoPs.
            entry_share: if i == 0 || i > nodes.hubs.len() {
                share
            } else {
                0.0
            },
            cpu_capacity: f64::INFINITY,
        })
        .collect();
    let (host_list, rtt) = hosts_from_topology(&topology, &servers);
    rehost(&rubis_problem().0, host_list, rtt)
}

/// A random valid move at the evaluator's current state, or `None` when the
/// draw picked a replica move that is not valid there.
fn draw_move(
    rng: &mut SimRng,
    eval: &CostEvaluator,
    components: usize,
    hosts: usize,
) -> Option<Move> {
    let node = NodeIndex::new(rng.index(components));
    let host = HostId(rng.index(hosts));
    match rng.index(3) {
        0 => Some(Move::MovePrimary { node, to: host }),
        1 if eval.primary_of(node) != host && !eval.has_replica(node, host) => {
            Some(Move::AddReplica { node, host })
        }
        2 if eval.has_replica(node, host) => Some(Move::DropReplica { node, host }),
        _ => None,
    }
}

fn build_rung(hosts: usize, seed: u64) -> Rung {
    let problem = ladder_problem(hosts);
    let mut rng = SimRng::seed_from_u64(seed ^ (hosts as u64).wrapping_mul(0x9E37_79B9));
    let mut eval = CostEvaluator::new(&problem, Placement::all_on(&problem, HostId(0)));
    let (components, n_hosts) = (problem.graph.len(), problem.hosts.len());
    let mut walk = Vec::with_capacity(WALK_MOVES);
    while walk.len() < WALK_MOVES {
        if let Some(mv) = draw_move(&mut rng, &eval, components, n_hosts) {
            eval.apply(mv);
            eval.commit();
            walk.push(mv);
        }
    }
    let mut probes = Vec::with_capacity(PROBES);
    while probes.len() < PROBES {
        if let Some(mv) = draw_move(&mut rng, &eval, components, n_hosts) {
            probes.push(mv);
        }
    }
    Rung {
        hosts,
        problem,
        walk,
        probes,
    }
}

fn build_controller(app: AppKind, seed: u64) -> ControllerCase {
    let cadence = SimDuration::from_secs(15);
    let (warmup, duration) = (SimDuration::from_secs(60), SimDuration::from_secs(600));
    let input = adaptive_episode_input(
        app,
        AdaptiveEpisode::LinkDegradation,
        None,
        AdaptiveSettings::every(cadence),
        warmup,
        duration,
        seed,
    );
    let controller = Controller::new(
        &input.app,
        &input.registry,
        &input.descriptor,
        &input.topology,
        &input.spec,
    );
    // The episode degrades the corridor at onset and restores it at heal;
    // the observation is taken mid-episode, so every link keeps the first
    // factor the schedule assigns it.
    let mut factor = vec![None; input.topology.link_count()];
    for event in &input.spec.faults.schedule.events {
        if let FaultKind::LinkDegraded { link, factor: f } = event.kind {
            factor[link as usize].get_or_insert(f);
        }
    }
    let one_way_ms = input
        .topology
        .link_ids()
        .map(|l| factor[l.index()].map(|f| input.topology.link(l).latency.as_millis_f64() * f))
        .collect();
    let horizon = warmup + duration;
    let windows = horizon.as_secs_f64() as u64 / 5;
    let group_issued = input
        .spec
        .groups
        .iter()
        .map(|g| ((g.browser_rate + g.transactional_rate) * horizon.as_secs_f64()) as u64)
        .collect();
    let mut servers = vec![input.descriptor.central_node];
    for group in &input.spec.groups {
        if !servers.contains(&group.entry_node) {
            servers.push(group.entry_node);
        }
    }
    ControllerCase {
        app,
        controller,
        topology: input.topology,
        servers,
        obs: AdaptiveObs {
            one_way_ms,
            windows,
            p50_ms: 0.0,
            group_issued,
        },
        cadence,
        first_round: SimTime::ZERO + warmup + cadence,
    }
}

/// Builds every input of one pass from `seed`.
fn build(seed: u64) -> LadderInputs {
    LadderInputs {
        rungs: RUNGS.iter().map(|&h| build_rung(h, seed)).collect(),
        flat: vec![
            ("petstore".to_string(), petstore_problem().0),
            ("rubis".to_string(), rubis_problem().0),
            ("h4".to_string(), ladder_problem(4)),
            ("h16".to_string(), ladder_problem(16)),
        ],
        controllers: AppKind::all()
            .into_iter()
            .map(|app| build_controller(app, seed))
            .collect(),
    }
}

/// Builds the evaluator at the end of `rung`'s committed walk.
fn walked_evaluator(rung: &Rung) -> CostEvaluator {
    let mut eval = CostEvaluator::new(&rung.problem, Placement::all_on(&rung.problem, HostId(0)));
    for &mv in &rung.walk {
        eval.apply(mv);
        eval.commit();
    }
    eval
}

/// Evaluates every probe as an apply+undo pair; returns the summed deltas
/// (kept so the work cannot be optimised away).
fn probe(eval: &mut CostEvaluator, probes: &[Move]) -> f64 {
    let mut sum = 0.0;
    for &mv in probes {
        sum += eval.apply(mv);
        sum += eval.undo();
    }
    sum
}

/// Whether the evaluator's running total matches a full [`cost`] recompute
/// of its placement within 1e-9 relative.
fn evaluator_agrees(problem: &PlacementProblem, eval: &CostEvaluator) -> bool {
    let full = cost(problem, eval.placement());
    (full - eval.total()).abs() <= 1e-9 * full.abs().max(1.0)
}

/// The multi-start options: the production defaults, seeded from the
/// workload seed.
fn multistart_options(seed: u64) -> MultistartOptions {
    MultistartOptions {
        annealing: AnnealingOptions {
            seed,
            ..AnnealingOptions::default()
        },
        ..MultistartOptions::default()
    }
}

/// Final costs of greedy, regional and multi-start on `problem`.
fn greedy(problem: &PlacementProblem) -> f64 {
    greedy_solve(problem, &GreedyOptions::default()).1
}

/// See [`greedy`].
fn regional(problem: &PlacementProblem) -> f64 {
    solve_regional(problem, &RegionalOptions::default()).1
}

/// See [`greedy`].
fn multistart(problem: &PlacementProblem, seed: u64) -> f64 {
    solve_multistart(problem, &multistart_options(seed)).1
}

/// One pass: host seconds per phase, calibrated seconds (see
/// [`crate::calib`]) for the end-to-end metrics, and what the search found.
struct LadderPass {
    /// Calibrated seconds of each of the [`SETUPS`] input builds.
    setups: Vec<f64>,
    /// Calibrated seconds of the whole pass after set-up.
    total_cal: f64,
    /// Host and calibrated seconds of each [`TopSweeps`] sweep.
    top_probe_s: Vec<f64>,
    top_probe_cal: Vec<f64>,
    /// Reference timings of the pass, host seconds.
    refs: Vec<f64>,
    /// Apply+undo probe seconds per rung, smallest rung first.
    probe_s: Vec<f64>,
    /// Walks, full recomputes, evaluator builds and re-pricing.
    other_s: f64,
    full_cost_s: f64,
    build_s: f64,
    reprice_s: f64,
    greedy_s: f64,
    regional_s: f64,
    multistart_s: f64,
    /// Host milliseconds per controller round.
    round_ms: Vec<f64>,
    /// Sum of the solvers' final costs.
    cost: f64,
    /// Every solver cost and controller decision, for the rerun check.
    outcome: String,
}

/// The top rung's walked evaluator, swept once more after every rung, after
/// the flat solvers and after each controller case. Host speed drifts from
/// one second to the next, so sweeps spread over the pass sample it more
/// widely than back-to-back ones would; `work_per_s` is their median.
struct TopSweeps<'a> {
    rung: &'a Rung,
    eval: CostEvaluator,
}

impl LadderPass {
    /// One apply+undo sweep of the top rung's probes, timed and calibrated
    /// on its own.
    fn top_sweep(&mut self, top: &mut TopSweeps<'_>, spans: &mut Spans, calib: &mut Calib) {
        let (sum, secs) = spans.time(
            "placement.CostEvaluator::apply+undo",
            top.rung.probes.len() as u64,
            |_| probe(&mut top.eval, &top.rung.probes),
        );
        std::hint::black_box(sum);
        let cal = calib.phase(secs).0;
        self.total_cal += cal;
        self.top_probe_s.push(secs);
        self.top_probe_cal.push(cal);
    }
}

/// Full recomputes, evaluator builds and matrix re-pricings timed per pass.
const FULL_COSTS: usize = 200;
const BUILDS: usize = 20;
const REPRICES: usize = 2_000;

fn pass(seed: u64, spans: &mut Spans, tally: &mut Tally) -> LadderPass {
    let mut calib = Calib::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (built, secs) = spans.time("core.build", 1, |_| build(seed));
        setups.push(secs);
        inputs = Some(built);
    }
    let LadderInputs {
        rungs,
        flat,
        mut controllers,
    } = inputs.expect("SETUPS > 0");
    let factor = calib.phase(setups.iter().sum()).1;
    let mut p = LadderPass {
        setups: setups.iter().map(|s| s * factor).collect(),
        total_cal: 0.0,
        top_probe_s: Vec::new(),
        top_probe_cal: Vec::new(),
        refs: Vec::new(),
        probe_s: Vec::new(),
        other_s: 0.0,
        full_cost_s: 0.0,
        build_s: 0.0,
        reprice_s: 0.0,
        greedy_s: 0.0,
        regional_s: 0.0,
        multistart_s: 0.0,
        round_ms: Vec::new(),
        cost: 0.0,
        outcome: String::new(),
    };
    let top_rung = rungs.last().expect("the ladder has rungs");
    let mut top = TopSweeps {
        rung: top_rung,
        eval: walked_evaluator(top_rung),
    };
    for rung in &rungs {
        let h = rung.hosts;
        let (mut eval, walk_s) = spans.time(
            "placement.CostEvaluator::apply+commit",
            rung.walk.len() as u64,
            |_| walked_evaluator(rung),
        );
        let (sum, probe_s) = spans.time(
            "placement.CostEvaluator::apply+undo",
            rung.probes.len() as u64,
            |_| probe(&mut eval, &rung.probes),
        );
        std::hint::black_box(sum);
        let (probe_cal, factor) = calib.phase(probe_s);
        p.total_cal += probe_cal + walk_s * factor;
        p.probe_s.push(probe_s);
        p.top_sweep(&mut top, spans, &mut calib);
        p.other_s += walk_s;
        tally.check(
            &format!("evaluator total matches cost() h{h}"),
            evaluator_agrees(&rung.problem, &eval),
        );
        if h == RUNGS[RUNGS.len() - 1] {
            let placement = eval.placement().clone();
            p.full_cost_s = spans
                .time("placement.cost", FULL_COSTS as u64, |_| {
                    (0..FULL_COSTS)
                        .map(|_| cost(&rung.problem, &placement))
                        .sum::<f64>()
                })
                .1;
            p.build_s = spans
                .time("placement.CostEvaluator::new", BUILDS as u64, |_| {
                    for _ in 0..BUILDS {
                        std::hint::black_box(CostEvaluator::new(&rung.problem, placement.clone()));
                    }
                })
                .1;
            p.other_s += p.full_cost_s + p.build_s;
            p.total_cal += calib.phase(p.full_cost_s + p.build_s).0;
        }
        let (r, secs) = spans.time("placement.solve_regional", 1, |_| regional(&rung.problem));
        p.regional_s += secs;
        p.total_cal += calib.phase(secs).0;
        p.cost += r;
        p.outcome += &format!("regional h{h} {r:e};");
    }
    for (name, problem) in &flat {
        let (g, g_s) = spans.time("placement.greedy", 1, |_| greedy(problem));
        let (ms, ms_s) = spans.time("placement.solve_multistart", 1, |_| {
            multistart(problem, seed)
        });
        p.greedy_s += g_s;
        p.multistart_s += ms_s;
        p.cost += g + ms;
        p.outcome += &format!("flat {name} {g:e} {ms:e};");
    }
    p.total_cal += calib.phase(p.greedy_s + p.multistart_s).0;
    p.top_sweep(&mut top, spans, &mut calib);
    for case in &mut controllers {
        let mut case_s = 0.0;
        for k in 0..CONTROLLER_ROUNDS {
            let now = case.first_round + case.cadence * k as u64;
            let (orders, secs) = spans.time("workload.Controller::round", 1, |_| {
                case.controller.round(now, &case.obs)
            });
            p.round_ms.push(secs * 1e3);
            case_s += secs;
            for o in orders {
                p.outcome += &format!("{} {} -> {} @{k};", case.app.name(), o.name, o.to);
            }
        }
        let secs = spans
            .time("placement.reprice_matrix", REPRICES as u64, |_| {
                for _ in 0..REPRICES {
                    std::hint::black_box(mutsvc_placement::wan::reprice_matrix(
                        &case.topology,
                        &case.servers,
                        &case.obs.one_way_ms,
                    ));
                }
            })
            .1;
        p.reprice_s += secs;
        p.other_s += secs;
        p.total_cal += calib.phase(case_s + secs).0;
        p.top_sweep(&mut top, spans, &mut calib);
    }
    p.refs = calib.refs().to_vec();
    tally.check(
        "evaluator total matches cost() after the top-rung sweeps",
        evaluator_agrees(&top.rung.problem, &top.eval),
    );
    tally.check("solver costs finite", p.cost.is_finite());
    p
}

/// The workload's named metrics (wall-clock) and the reference timing;
/// returns the calibrated apply+undo pairs per second on the top rung.
fn named_metrics(passes: &[LadderPass], named: &mut Metrics) -> f64 {
    let rounds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.round_ms.iter().copied())
        .collect();
    let refs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.refs.iter().map(|r| r * 1e3))
        .collect();
    let sweeps = |cal: bool| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| {
                if cal {
                    &p.top_probe_cal
                } else {
                    &p.top_probe_s
                }
            })
            .copied()
            .collect()
    };
    named.set("moves_per_s", PROBES as f64 / median(&sweeps(false)), "1/s");
    named.set(
        "solve_s",
        med(passes, &|p| p.greedy_s + p.regional_s + p.multistart_s),
        "s",
    );
    named.set("placement_cost", passes[0].cost, "ms/s");
    named.timing("ctrl_round_ms", &rounds, "ms");
    named.timing("host_ref_ms", &refs, "ms");
    PROBES as f64 / median(&sweeps(true))
}

/// Every timed pass must reach exactly the costs and decisions of the
/// warm-up pass.
fn check_reruns<'a>(
    reference: &LadderPass,
    passes: impl Iterator<Item = &'a LadderPass>,
    tally: &mut Tally,
) {
    for p in passes {
        tally.check(
            "same-seed rerun reaches the same placements",
            p.outcome == reference.outcome,
        );
    }
}

fn med(passes: &[LadderPass], f: &dyn Fn(&LadderPass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The untraced run: the end-to-end metrics over the timed passes.
/// Returns them with the pass count.
pub fn run(args: &Args, tally: &mut Tally, named: &mut Metrics) -> (Metrics, usize) {
    let mut quiet = Spans::new(false);
    let passes = measure(args.seconds, false, |_, _| {
        pass(args.seed, &mut quiet, tally)
    });
    check_reruns(&passes.warmup, passes.plain.iter(), tally);
    let timed = &passes.plain;
    let moves_per_s = named_metrics(timed, named);
    let mut m = Metrics::default();
    let setups: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.setups.iter().copied())
        .collect();
    named.timing("setup_s", &setups, "s");
    m.set("setup_s", median(&setups), "s");
    m.set("work_per_s", moves_per_s, "1/s");
    m.set("pass_s", med(timed, &|p| p.total_cal), "s");
    (m, 1 + timed.len())
}

/// The traced run: placement metrics from the traced passes and the
/// tracing overhead from the untraced/traced pairs. Fills the placement
/// metrics of `m`; returns the pass count.
pub fn traced(
    args: &Args,
    tally: &mut Tally,
    named: &mut Metrics,
    spans: &mut Spans,
    m: &mut Metrics,
) -> usize {
    let mut quiet = Spans::new(false);
    let passes = measure(args.seconds, true, |traced, _| {
        pass(
            args.seed,
            if traced { &mut *spans } else { &mut quiet },
            tally,
        )
    });
    check_reruns(
        &passes.warmup,
        passes.plain.iter().chain(&passes.traced),
        tally,
    );
    let (plain, traced) = (&passes.plain, &passes.traced);
    named_metrics(traced, named);
    let (t, p) = (med(traced, &|p| p.total_cal), med(plain, &|p| p.total_cal));
    m.set("trace.overhead_pct", 100.0 * (t - p) / p, "%");
    for (i, h) in RUNGS.iter().enumerate() {
        let ns = med(traced, &|p| p.probe_s[i]) * 1e9 / PROBES as f64;
        m.set(&format!("placement.apply_undo_ns.h{h}"), ns, "ns");
    }
    m.set(
        "placement.full_cost_ns.h256",
        med(traced, &|p| p.full_cost_s) * 1e9 / FULL_COSTS as f64,
        "ns",
    );
    m.set("placement.greedy_s", med(traced, &|p| p.greedy_s), "s");
    m.set("placement.regional_s", med(traced, &|p| p.regional_s), "s");
    m.set(
        "placement.multistart_s",
        med(traced, &|p| p.multistart_s),
        "s",
    );
    m.set(
        "placement.evaluator_build_ms",
        med(traced, &|p| p.build_s) * 1e3 / BUILDS as f64,
        "ms",
    );
    let repricings = (REPRICES * AppKind::all().len()) as f64;
    m.set(
        "placement.reprice_ms",
        med(traced, &|p| p.reprice_s) * 1e3 / repricings,
        "ms",
    );
    let rounds: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.round_ms.iter().copied())
        .collect();
    m.set("placement.ctrl_round_ms", median(&rounds), "ms");
    let builds: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.setups.iter().map(|s| s * 1e3))
        .collect();
    m.set("core.build_ms", median(&builds), "ms");
    1 + plain.len() + traced.len()
}
