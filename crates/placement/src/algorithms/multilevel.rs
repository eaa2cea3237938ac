//! METIS-style multilevel k-way partitioning.
//!
//! The classic three-phase scheme:
//!
//! 1. **Coarsening** — heavy-edge matching collapses strongly interacting
//!    component pairs into super-vertices until the graph is small;
//! 2. **Initial partitioning** — greedy balanced growth assigns the coarse
//!    vertices to `k` parts (one per host), seeding each part with its
//!    pinned vertices;
//! 3. **Uncoarsening + refinement** — the partition is projected back level
//!    by level, with boundary moves applied whenever they reduce the
//!    weighted cut without violating the balance constraint.
//!
//! The cut objective weights each crossing edge by the RTT between its
//! parts' hosts, so "far" hosts repel chatty component pairs more than
//! "near" ones — a wide-area-aware twist on the standard algorithm.
//!
//! Adjacency maps are ordered, so every neighbour walk — heavy-edge
//! tie-breaks, degree and gain sums — runs in the same order on every solve
//! and the partition is a pure function of the problem.

use std::collections::BTreeMap;

use crate::algorithms::greedy::{self, GreedyOptions};
use crate::graph::{HostId, Placement, PlacementProblem};

/// Options for the multilevel partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelOptions {
    /// Stop coarsening below this many vertices.
    pub coarsen_until: usize,
    /// Allowed imbalance: a part may carry up to `(1 + tolerance) × avg`
    /// vertex weight.
    pub balance_tolerance: f64,
    /// Refinement rounds per level.
    pub refine_rounds: usize,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsen_until: 12,
            balance_tolerance: 1.5,
            refine_rounds: 8,
        }
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
struct Level {
    /// Symmetric adjacency (upper triangle mirrored), by coarse vertex.
    adj: Vec<BTreeMap<usize, f64>>,
    /// Vertex weights (aggregated CPU load).
    vweight: Vec<f64>,
    /// Pinned part per coarse vertex, if any.
    pinned: Vec<Option<usize>>,
    /// Mapping from the previous (finer) level's vertices to this level's.
    map_from_finer: Vec<usize>,
}

fn base_level(problem: &PlacementProblem) -> Level {
    let n = problem.graph.len();
    let mut adj: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
    for edge in problem.graph.graph.edge_references() {
        let (a, b) = (edge.source().index(), edge.target().index());
        if a == b {
            continue;
        }
        let w = edge.weight().calls_per_sec;
        *adj[a].entry(b).or_insert(0.0) += w;
        *adj[b].entry(a).or_insert(0.0) += w;
    }
    let mut vweight = vec![0.0; n];
    let mut pinned = vec![None; n];
    for node in problem.graph.graph.node_indices() {
        let c = &problem.graph.graph[node];
        vweight[node.index()] = c.cpu_ms_per_call * problem.graph.read_rate(node).max(1.0);
        pinned[node.index()] = c.pinned.map(|h| h.0);
    }
    Level {
        adj,
        vweight,
        pinned,
        map_from_finer: (0..n).collect(),
    }
}

/// Heavy-edge matching: visit vertices in order of decreasing total edge
/// weight, match each unmatched vertex with its heaviest unmatched neighbour
/// (never merging two differently-pinned vertices).
fn coarsen(level: &Level) -> Option<Level> {
    let n = level.adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    let degree: Vec<f64> = level.adj.iter().map(|a| a.values().sum()).collect();
    order.sort_by(|&a, &b| degree[b].total_cmp(&degree[a]));

    let mut matched = vec![usize::MAX; n];
    let mut merged = 0;
    for &v in &order {
        if matched[v] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (&u, &w) in &level.adj[v] {
            if matched[u] != usize::MAX {
                continue;
            }
            let pin_conflict = matches!(
                (level.pinned[v], level.pinned[u]),
                (Some(a), Some(b)) if a != b
            );
            if pin_conflict {
                continue;
            }
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        if let Some((u, _)) = best {
            matched[v] = u;
            matched[u] = v;
            merged += 1;
        } else {
            matched[v] = v;
        }
    }
    if merged == 0 {
        return None;
    }

    // Assign coarse ids.
    let mut coarse_id = vec![usize::MAX; n];
    let mut next = 0;
    for v in 0..n {
        if coarse_id[v] != usize::MAX {
            continue;
        }
        coarse_id[v] = next;
        let m = matched[v];
        if m != v && coarse_id[m] == usize::MAX {
            coarse_id[m] = next;
        }
        next += 1;
    }

    let mut adj: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); next];
    let mut vweight = vec![0.0; next];
    let mut pinned: Vec<Option<usize>> = vec![None; next];
    for v in 0..n {
        let cv = coarse_id[v];
        vweight[cv] += level.vweight[v];
        if let Some(p) = level.pinned[v] {
            pinned[cv] = Some(p);
        }
        for (&u, &w) in &level.adj[v] {
            let cu = coarse_id[u];
            if cu != cv {
                *adj[cv].entry(cu).or_insert(0.0) += w / 2.0; // each edge seen twice
            }
        }
    }
    Some(Level {
        adj,
        vweight,
        pinned,
        map_from_finer: coarse_id,
    })
}

/// Greedy balanced initial partition of the coarsest level into `k` parts.
fn initial_partition(level: &Level, k: usize, tolerance: f64) -> Vec<usize> {
    let n = level.adj.len();
    let total: f64 = level.vweight.iter().sum();
    let cap = total / k as f64 * (1.0 + tolerance);
    let mut part = vec![usize::MAX; n];
    let mut load = vec![0.0; k];

    // Seed with pinned vertices.
    for v in 0..n {
        if let Some(p) = level.pinned[v] {
            part[v] = p.min(k - 1);
            load[part[v]] += level.vweight[v];
        }
    }
    // Assign remaining vertices in decreasing weight order to the part with
    // the strongest connection (ties → lightest part).
    let mut order: Vec<usize> = (0..n).filter(|&v| part[v] == usize::MAX).collect();
    order.sort_by(|&a, &b| level.vweight[b].total_cmp(&level.vweight[a]));
    for v in order {
        let mut gain = vec![0.0; k];
        for (&u, &w) in &level.adj[v] {
            if part[u] != usize::MAX {
                gain[part[u]] += w;
            }
        }
        let mut best = 0;
        for p in 1..k {
            let better = (gain[p], -load[p]) > (gain[best], -load[best]);
            let fits = load[p] + level.vweight[v] <= cap || load[p] < load[best];
            if better && fits {
                best = p;
            }
        }
        if load[best] + level.vweight[v] > cap {
            // Overflow: fall back to the lightest part.
            best = (0..k).min_by(|&a, &b| load[a].total_cmp(&load[b])).unwrap();
        }
        part[v] = best;
        load[best] += level.vweight[v];
    }
    part
}

/// Boundary refinement: move vertices to the part with maximal RTT-weighted
/// gain, respecting pins and balance.
fn refine_level(
    level: &Level,
    rtt: &[Vec<f64>],
    part: &mut [usize],
    k: usize,
    tolerance: f64,
    rounds: usize,
) {
    let n = level.adj.len();
    let total: f64 = level.vweight.iter().sum();
    let cap = total / k as f64 * (1.0 + tolerance);
    let mut load = vec![0.0; k];
    for v in 0..n {
        load[part[v]] += level.vweight[v];
    }
    for _ in 0..rounds {
        let mut moved = false;
        for v in 0..n {
            if level.pinned[v].is_some() {
                continue;
            }
            let current = part[v];
            // Connection cost of v toward each candidate part.
            let cost_in = |p: usize| -> f64 {
                level.adj[v]
                    .iter()
                    .map(|(&u, &w)| {
                        let pu = if u == v { p } else { part[u] };
                        if pu == p {
                            0.0
                        } else {
                            w * rtt[p][pu]
                        }
                    })
                    .sum()
            };
            let here = cost_in(current);
            let mut best = (current, 0.0f64);
            for (p, &part_load) in load.iter().enumerate().take(k) {
                if p == current || part_load + level.vweight[v] > cap {
                    continue;
                }
                let gain = here - cost_in(p);
                if gain > best.1 + 1e-9 {
                    best = (p, gain);
                }
            }
            if best.0 != current {
                load[current] -= level.vweight[v];
                load[best.0] += level.vweight[v];
                part[v] = best.0;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Partitions the components across all hosts (one part per host) and
/// returns the per-component host assignment.
pub fn partition(problem: &PlacementProblem, options: &MultilevelOptions) -> Vec<HostId> {
    let k = problem.hosts.len();
    let base = base_level(problem);
    let mut hierarchy = vec![base];
    while hierarchy.last().expect("nonempty").adj.len() > options.coarsen_until {
        match coarsen(hierarchy.last().expect("nonempty")) {
            Some(next) => hierarchy.push(next),
            None => break,
        }
    }

    let coarsest = hierarchy.last().expect("nonempty");
    let mut part = initial_partition(coarsest, k, options.balance_tolerance);
    refine_level(
        coarsest,
        &problem.rtt_ms,
        &mut part,
        k,
        options.balance_tolerance,
        options.refine_rounds,
    );

    // Project back down the hierarchy, refining at each level.
    for idx in (1..hierarchy.len()).rev() {
        let finer = &hierarchy[idx - 1];
        let map = &hierarchy[idx].map_from_finer;
        let mut finer_part = vec![0usize; finer.adj.len()];
        for v in 0..finer.adj.len() {
            finer_part[v] = part[map[v]];
        }
        part = finer_part;
        refine_level(
            finer,
            &problem.rtt_ms,
            &mut part,
            k,
            options.balance_tolerance,
            options.refine_rounds,
        );
    }
    part.into_iter().map(HostId).collect()
}

/// Runs the partitioner and wraps the result as a [`Placement`]
/// (primaries only; combine with greedy replication for the full pattern).
///
/// The multilevel cut is refined against the rate×RTT proxy objective; the
/// wrapped placement gets a final bounded polish against the true wide-area
/// cost through the incremental
/// [`CostEvaluator`](crate::cost::incremental::CostEvaluator).
pub fn solve(problem: &PlacementProblem, options: &MultilevelOptions) -> Placement {
    let assignment = partition(problem, options);
    let mut placement = Placement::all_on(problem, HostId(0));
    for (i, host) in assignment.into_iter().enumerate() {
        placement.primary[i] = host;
    }
    placement.repair_pins(problem);
    polish_primaries(problem, placement).0
}

/// Bounded primary-move polish against the true wide-area cost, whose
/// rate×RTT proxy the partition optimised. At most one best-improvement
/// move per component, no replication — the partition contract ("primaries
/// only") is preserved.
fn polish_primaries(problem: &PlacementProblem, placement: Placement) -> (Placement, f64) {
    greedy::improve(
        problem,
        placement,
        &GreedyOptions {
            max_rounds: problem.graph.len(),
            with_replication: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use crate::graph::{Component, ComponentGraph, CostParams, Host, Role};

    /// `clusters` chains of `size` components each, chained internally with
    /// heavy edges; cluster heads pinned round-robin across hosts.
    fn chained_clusters(clusters: usize, size: usize, k: usize) -> PlacementProblem {
        let mut g = ComponentGraph::new();
        let mut all = Vec::new();
        for c in 0..clusters {
            let mut prev = None;
            for i in 0..size {
                let pinned = if i == 0 { Some(HostId(c % k)) } else { None };
                let node = g.add(Component {
                    name: format!("c{c}-{i}"),
                    role: if pinned.is_some() {
                        Role::Database
                    } else {
                        Role::Stateless
                    },
                    pinned,
                    cpu_ms_per_call: 1.0,
                    write_rate: 0.0,
                });
                if let Some(p) = prev {
                    g.interact(p, node, 40.0, 0.0);
                }
                prev = Some(node);
                all.push(node);
            }
        }
        // Weak inter-cluster links.
        for c in 1..clusters {
            g.interact(all[(c - 1) * size], all[c * size], 0.5, 0.0);
        }
        let hosts = (0..k)
            .map(|i| Host {
                name: format!("h{i}"),
                entry_share: 1.0 / k as f64,
                cpu_capacity: f64::INFINITY,
            })
            .collect();
        let rtt = (0..k)
            .map(|i| (0..k).map(|j| if i == j { 0.0 } else { 200.0 }).collect())
            .collect();
        PlacementProblem {
            hosts,
            rtt_ms: rtt,
            graph: g,
            params: CostParams::default(),
        }
    }

    #[test]
    fn clusters_stay_whole() {
        let p = chained_clusters(3, 6, 3);
        let assignment = partition(&p, &MultilevelOptions::default());
        // Every chain ends up entirely on its pinned head's host.
        for c in 0..3 {
            let head = assignment[c * 6];
            for i in 0..6 {
                assert_eq!(assignment[c * 6 + i], head, "cluster {c} split");
            }
            assert_eq!(head, HostId(c));
        }
    }

    #[test]
    fn respects_pins_and_covers_all_hosts() {
        let p = chained_clusters(4, 5, 2);
        let placement = solve(&p, &MultilevelOptions::default());
        assert!(placement.respects_pins(&p));
        let used: std::collections::BTreeSet<_> = placement.primary.iter().collect();
        assert_eq!(used.len(), 2, "both hosts used");
    }

    #[test]
    fn multilevel_beats_naive_centralization_on_distributed_pins() {
        let p = chained_clusters(3, 8, 3);
        let ml = solve(&p, &MultilevelOptions::default());
        let naive = Placement::all_on(&p, HostId(0));
        // repair_pins scatters only the pinned heads; the chains then cross.
        assert!(
            cost(&p, &ml) < cost(&p, &naive),
            "{} vs {}",
            cost(&p, &ml),
            cost(&p, &naive)
        );
    }

    #[test]
    fn coarsening_terminates_on_edgeless_graphs() {
        let mut g = ComponentGraph::new();
        for i in 0..20 {
            g.add(Component {
                name: format!("c{i}"),
                role: Role::Stateless,
                pinned: None,
                cpu_ms_per_call: 1.0,
                write_rate: 0.0,
            });
        }
        let p = PlacementProblem {
            hosts: vec![
                Host {
                    name: "h0".into(),
                    entry_share: 1.0,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "h1".into(),
                    entry_share: 0.0,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![vec![0.0, 100.0], vec![100.0, 0.0]],
            graph: g,
            params: CostParams::default(),
        };
        let assignment = partition(&p, &MultilevelOptions::default());
        assert_eq!(assignment.len(), 20);
    }

    #[test]
    fn balance_tolerance_limits_part_sizes() {
        let p = chained_clusters(4, 4, 2);
        let options = MultilevelOptions {
            balance_tolerance: 0.6,
            ..Default::default()
        };
        let assignment = partition(&p, &options);
        let mut counts = [0usize; 2];
        for a in &assignment {
            counts[a.0] += 1;
        }
        // With tolerance 0.6 neither side may hold more than 80% of weight.
        let max = counts.iter().max().unwrap();
        assert!(*max <= (16.0_f64 * 0.5 * 1.6).ceil() as usize, "{counts:?}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn partition_is_total_and_pin_respecting(
                clusters in 1usize..4,
                size in 2usize..6,
                k in 2usize..4,
            ) {
                let p = chained_clusters(clusters, size, k);
                let placement = solve(&p, &MultilevelOptions::default());
                prop_assert_eq!(placement.primary.len(), clusters * size);
                prop_assert!(placement.respects_pins(&p));
                for h in &placement.primary {
                    prop_assert!(h.0 < k);
                }
            }
        }
    }
}
