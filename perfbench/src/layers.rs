//! Per-layer replays: each drives one layer's public functions with inputs
//! shaped like a workload's (its topology, application, database, client
//! groups and pending-event depth) and returns host nanoseconds per call.
//! They run only in the traced run, inside a span of their own.

use std::hint::black_box;
use std::time::Instant;

use mutsvc_apps::SessionKind;
use mutsvc_desim::rng::SimRng;
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_desim::trace::{SpanKind, TraceConfig, TraceMeta, Tracer};
use mutsvc_desim::{Context, FifoResource, Fire, LogHistogram, Simulation, Summary};
use mutsvc_middleware::{Binder, ContainerState, PageRequest};
use mutsvc_netsim::{Network, NodeId};
use mutsvc_relstore::{Mutation, Query};
use mutsvc_workload::ExperimentInput;

/// Host nanoseconds per operation of `ops` operations timed as one batch.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// A self-rescheduling typed event: every firing schedules its successor at
/// a pseudo-random offset, so the pending depth stays constant.
struct Tick(u64);

impl Fire<u64> for Tick {
    fn fire(self, world: &mut u64, ctx: &mut Context<'_, u64, Tick>) {
        *world += 1;
        let next = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ctx.schedule_event_in(
            SimDuration::from_micros((next >> 33) % 2_000_000),
            Tick(next),
        );
    }
}

/// `step` + `schedule_event_in` on a typed slab queue holding `depth`
/// pending events (the workload's concurrent session count).
pub fn queue_ns(depth: usize, ops: usize, seed: u64) -> f64 {
    let mut sim: Simulation<u64, Tick> = Simulation::with_events(0);
    let mut state = seed | 1;
    for _ in 0..depth.max(1) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        sim.schedule_event_in(
            SimDuration::from_micros((state >> 33) % 2_000_000),
            Tick(state),
        );
    }
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            sim.step();
        }
    });
    black_box(sim.world());
    ns
}

/// `FifoResource::admit` on a two-server resource at ~80% utilisation.
pub fn resource_admit_ns(ops: usize, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cpu = FifoResource::new("cpu", 2);
    let arrivals: Vec<(SimTime, SimDuration)> = {
        let mut now = SimTime::ZERO;
        (0..ops)
            .map(|_| {
                now += rng.exponential(SimDuration::from_micros(625));
                (now, rng.exponential(SimDuration::from_millis(1)))
            })
            .collect()
    };
    ns_per_op(ops, || {
        for &(now, demand) in &arrivals {
            black_box(cpu.admit(now, demand));
        }
    })
}

/// Response-time-like samples (ms) for the metric recorders.
fn samples(ops: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            rng.exponential(SimDuration::from_millis(120))
                .as_millis_f64()
        })
        .collect()
}

/// `LogHistogram::record` (the windowed recorder's distribution).
pub fn histogram_record_ns(ops: usize, seed: u64) -> f64 {
    let xs = samples(ops, seed);
    let mut h = LogHistogram::new();
    let ns = ns_per_op(ops, || xs.iter().for_each(|&x| h.record(x)));
    black_box(h.total());
    ns
}

/// `Summary::record` (the per-page statistics `run_experiment` keeps).
pub fn summary_record_ns(ops: usize, seed: u64) -> f64 {
    let xs = samples(ops, seed);
    let mut s = Summary::new();
    let ns = ns_per_op(ops, || xs.iter().for_each(|&x| s.record(x)));
    black_box(s.mean());
    ns
}

/// Spans recorded per traced request by [`tracer_span_ns`]: the root, a
/// program span and four leaves.
const SPANS_PER_REQUEST: usize = 6;

/// `Tracer` cost per span: requests of one root, one program span and four
/// leaves, every request committed.
pub fn tracer_span_ns(requests: usize) -> f64 {
    let mut tracer = Tracer::new(TraceConfig::full());
    let ns = ns_per_op(requests * SPANS_PER_REQUEST, || {
        for i in 0..requests as u64 {
            let t0 = SimTime::from_micros(i * 1_000);
            let meta = TraceMeta {
                label: "Item",
                group: (i % 3) as u32,
                client: (i % 5) as u32,
                entry: 1,
                measured: true,
                wan_rts_logical: f64::NAN,
            };
            let root = tracer
                .start_request(t0, meta)
                .expect("full tracing samples all");
            let program = tracer.open_span(root, t0, SpanKind::Program);
            for k in 0..4u64 {
                let start = SimTime::from_micros(i * 1_000 + k * 100);
                let end = SimTime::from_micros(i * 1_000 + k * 100 + 80);
                tracer.leaf(program, start, end, SpanKind::Delay);
            }
            tracer.close_span(program, SimTime::from_micros(i * 1_000 + 500));
            tracer.finish_request(root, SimTime::from_micros(i * 1_000 + 600));
            if tracer.finished().len() > 4_096 {
                black_box(tracer.take_finished());
            }
        }
    });
    black_box(tracer.requests_seen());
    ns
}

/// Every (client, entry) pair of the input's client groups.
fn group_routes(input: &ExperimentInput) -> Vec<(NodeId, NodeId)> {
    input
        .spec
        .groups
        .iter()
        .map(|g| (g.client_node, g.entry_node))
        .collect()
}

/// `Network::transfer` (client → entry → central node and back) and
/// `Network::cpu` (entry servers) on the input's topology. Returns
/// `(transfer_ns, cpu_ns)`.
pub fn netsim_ns(input: &ExperimentInput, ops: usize, seed: u64) -> (f64, f64) {
    let routes = group_routes(input);
    let central = input.descriptor.central_node;
    let mut legs = Vec::new();
    for &(client, entry) in &routes {
        legs.push((client, entry));
        legs.push((entry, client));
        if entry != central {
            legs.push((entry, central));
            legs.push((central, entry));
        }
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = Network::new(input.topology.clone());
    let mut now = SimTime::ZERO;
    let plan: Vec<(SimTime, usize, u64)> = (0..ops)
        .map(|_| {
            now += rng.exponential(SimDuration::from_micros(200));
            (now, rng.index(legs.len()), 512 + rng.index(8_192) as u64)
        })
        .collect();
    let transfer = ns_per_op(ops, || {
        for &(at, leg, bytes) in &plan {
            let (from, to) = legs[leg];
            black_box(net.transfer(at, from, to, bytes));
        }
    });
    let entries: Vec<NodeId> = routes.iter().map(|&(_, e)| e).collect();
    let cpu = ns_per_op(ops, || {
        for &(at, leg, bytes) in &plan {
            let node = entries[leg % entries.len()];
            black_box(net.cpu(at, node, SimDuration::from_micros(bytes / 8)));
        }
    });
    (transfer, cpu)
}

/// The pages of whole sessions of every client group (browser and
/// transactional, weighted by the group's rates), built ahead of timing.
fn session_pages(
    input: &ExperimentInput,
    pages: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId, PageRequest)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(pages);
    let groups = &input.spec.groups;
    let total: f64 = groups
        .iter()
        .map(|g| g.browser_rate + g.transactional_rate)
        .sum();
    while out.len() < pages {
        let mut pick = rng.uniform() * total;
        let mut chosen = (&groups[0], SessionKind::Browser);
        'pick: for g in groups {
            for (rate, kind) in [
                (g.browser_rate, SessionKind::Browser),
                (g.transactional_rate, SessionKind::Transactional),
            ] {
                if pick < rate {
                    chosen = (g, kind);
                    break 'pick;
                }
                pick -= rate;
            }
        }
        let (group, kind) = chosen;
        let mut session = input.app.new_session(kind, &mut rng);
        while let Some((_, page)) = input.app.next_page(&mut session, &mut rng) {
            out.push((group.client_node, group.entry_node, page));
        }
    }
    out.truncate(pages);
    out
}

/// `Binder::bind_page` over whole sessions of the input's client mix, on
/// the input's deployment, starting from cold container caches.
pub fn bind_page_ns(input: &ExperimentInput, pages: usize, seed: u64) -> f64 {
    let requests = session_pages(input, pages, seed);
    let mut db = input.db.clone();
    let mut state = ContainerState::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut next_tag = 0u64;
    ns_per_op(requests.len(), || {
        for (client, entry, page) in &requests {
            let bound = Binder::new(
                &input.registry,
                &input.descriptor,
                &input.protocols,
                &input.container_costs,
                &mut db,
                &mut state,
                &mut rng,
                &mut next_tag,
            )
            .bind_page(*client, *entry, page);
            black_box(bound.steps.len());
        }
    })
}

/// `Database::execute` over the application's cacheable query instances
/// and `Database::mutate` rewriting the rows they return (each update
/// stores the value already there, so the database is unchanged). Returns
/// `(execute_ns, mutate_ns)`.
pub fn relstore_ns(input: &ExperimentInput, ops: usize) -> (f64, f64) {
    let queries: Vec<Query> = input
        .app
        .cacheable_query_instances()
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    if queries.is_empty() {
        return (0.0, 0.0);
    }
    let db = &input.db;
    let execute = ns_per_op(ops, || {
        for i in 0..ops {
            black_box(db.execute(&queries[i % queries.len()]));
        }
    });
    let mut writes: Vec<Mutation> = Vec::new();
    for q in &queries {
        let table = q.table();
        for &id in db.execute(q).rows.iter().take(4) {
            if let Some(row) = db.table(table).get(id) {
                let column = row.len() - 1;
                writes.push(Mutation::Update {
                    table,
                    id,
                    column,
                    value: row[column].clone(),
                });
            }
        }
    }
    if writes.is_empty() {
        return (execute, 0.0);
    }
    let mut db = input.db.clone();
    let batch: Vec<Mutation> = (0..ops).map(|i| writes[i % writes.len()].clone()).collect();
    let mutate = ns_per_op(ops, || {
        for m in batch {
            black_box(db.mutate(m));
        }
    });
    (execute, mutate)
}
