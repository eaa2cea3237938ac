//! Property test of the keyed query-cache store: the entries a write reaches
//! by key lookup, filtered through `affects`, are exactly the entries a
//! brute-force `affects` scan over every cached query finds.

use std::collections::BTreeSet;

use mutsvc_desim::SimDuration;
use mutsvc_middleware::ContainerState;
use mutsvc_netsim::{NodeId, TopologyBuilder};
use mutsvc_relstore::{affects, DatabaseBuilder, MutationEffect, Query, RowId, TableId, Value};
use proptest::prelude::*;

/// Columns per table; every column may hold `Int` or `Str` values.
const COLUMNS: usize = 3;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0usize..4).prop_map(|i| Value::Str(["a", "b", "A", ""][i].to_string())),
    ]
}

/// A cached query on table `table` (an index into the world's tables).
#[derive(Debug, Clone)]
enum Shape {
    ByPk(u64),
    Eq(usize, Value),
    Like(usize, String),
    All,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u64..6).prop_map(Shape::ByPk),
        (0..COLUMNS, value_strategy()).prop_map(|(c, v)| Shape::Eq(c, v)),
        (0..COLUMNS, 0usize..2).prop_map(|(c, n)| Shape::Like(c, ["a", "zz"][n].to_string())),
        Just(Shape::All),
    ]
}

/// `(node, table, shape, invalidated afterwards)`.
type Cached = (usize, usize, Shape, bool);

fn cached_strategy() -> impl Strategy<Value = Cached> {
    (0usize..3, 0usize..2, shape_strategy(), any::<bool>())
}

/// A write as the database reports it.
#[derive(Debug, Clone)]
enum Write {
    Insert(Vec<Value>),
    /// `(column, old value, row after)`: an update of `column`, which may or
    /// may not be a cached query's predicate column.
    Update(usize, Value, Vec<Value>),
    Delete,
    /// An update or delete that found no row.
    NotApplied,
}

fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value_strategy(), COLUMNS..COLUMNS + 1)
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        row_strategy().prop_map(Write::Insert),
        (0..COLUMNS, value_strategy(), row_strategy())
            .prop_map(|(c, old, after)| Write::Update(c, old, after)),
        Just(Write::Delete),
        Just(Write::NotApplied),
    ]
}

fn effect(table: TableId, row: u64, write: &Write) -> MutationEffect {
    let (after, changed, applied) = match write {
        Write::Insert(after) => (Some(after.clone()), None, true),
        Write::Update(c, old, after) => (Some(after.clone()), Some((*c, old.clone())), true),
        Write::Delete => (None, None, true),
        Write::NotApplied => (None, None, false),
    };
    MutationEffect {
        table,
        row: RowId(row),
        after,
        changed,
        cpu: SimDuration::ZERO,
        applied,
    }
}

fn query(table: TableId, shape: &Shape) -> Query {
    match shape {
        Shape::ByPk(id) => Query::ByPk {
            table,
            id: RowId(*id),
        },
        Shape::Eq(column, value) => Query::Eq {
            table,
            column: *column,
            value: value.clone(),
        },
        Shape::Like(column, needle) => Query::Like {
            table,
            column: *column,
            needle: needle.clone(),
        },
        Shape::All => Query::All { table },
    }
}

fn world() -> (Vec<NodeId>, Vec<TableId>) {
    let mut tb = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..3).map(|i| tb.node(format!("n{i}"), 1)).collect();
    let mut dbb = DatabaseBuilder::new();
    let tables = vec![
        dbb.table("t0", &["a", "*b", "c"], 10),
        dbb.table("t1", &["a", "b", "*c"], 10),
    ];
    (nodes, tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_candidates_match_a_full_scan(
        cached in proptest::collection::vec(cached_strategy(), 0..24),
        writes in proptest::collection::vec((0usize..2, 0u64..6, write_strategy()), 1..12),
    ) {
        let (nodes, tables) = world();
        let mut state = ContainerState::new();
        // The oracle: every query cached per node, valid or not.
        let mut stored: Vec<BTreeSet<Query>> = vec![BTreeSet::new(); nodes.len()];
        for (node, table, shape, _) in &cached {
            let q = query(tables[*table], shape);
            state.cache_query(nodes[*node], q.clone());
            stored[*node].insert(q);
        }
        for (node, table, shape, invalidated) in &cached {
            if *invalidated {
                prop_assert!(state.invalidate_query(nodes[*node], &query(tables[*table], shape)));
            }
        }

        for (table, row, write) in &writes {
            let effect = effect(tables[*table], *row, write);
            for (i, &node) in nodes.iter().enumerate() {
                let keyed: BTreeSet<Query> = state
                    .queries_reached_by(node, &effect)
                    .filter(|q| affects(&effect, q))
                    .collect();
                let scanned: BTreeSet<Query> = stored[i]
                    .iter()
                    .filter(|q| affects(&effect, q))
                    .cloned()
                    .collect();
                prop_assert_eq!(keyed, scanned);
                if !effect.applied {
                    prop_assert_eq!(state.queries_reached_by(node, &effect).count(), 0);
                }
            }
        }
    }
}
