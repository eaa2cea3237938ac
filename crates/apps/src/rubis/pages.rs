//! RUBiS page behaviours: the 17 measured pages of Tables 4/5/7.
//!
//! Every dynamic page is one servlet → one dedicated stateless session bean →
//! entity/finder accesses; non-browsing actions authenticate inside the same
//! bean call (RUBiS has no login sessions — credentials ride along as hidden
//! parameters, §2.2).

use mutsvc_desim::time::SimDuration;
use mutsvc_middleware::{Call, DbAccess, PageRequest};
use mutsvc_relstore::{Mutation, Query, RowId, Value};

use super::components::RubisComponents;
use super::schema::{catregion_key, RubisTables};

/// Cacheable query tags (§4.4 caches *all* browser/bidder queries).
pub mod tags {
    /// Category list.
    pub const ALL_CATEGORIES: &str = "rubis:all-categories";
    /// Region list.
    pub const ALL_REGIONS: &str = "rubis:all-regions";
    /// Items of a category.
    pub const ITEMS_BY_CATEGORY: &str = "rubis:items-by-category";
    /// Items of a category within a region.
    pub const ITEMS_BY_CATREGION: &str = "rubis:items-by-catregion";
    /// Bid history of an item.
    pub const BIDS_BY_ITEM: &str = "rubis:bids-by-item";
    /// Comments left for a user.
    pub const COMMENTS_BY_USER: &str = "rubis:comments-by-user";
    /// Authentication lookup by nickname.
    pub const USER_BY_NICKNAME: &str = "rubis:user-by-nickname";

    /// All tags, the §4.4 descriptor list.
    pub const ALL: [&str; 7] = [
        ALL_CATEGORIES,
        ALL_REGIONS,
        ITEMS_BY_CATEGORY,
        ITEMS_BY_CATREGION,
        BIDS_BY_ITEM,
        COMMENTS_BY_USER,
        USER_BY_NICKNAME,
    ];
}

/// The RUBiS pages measured in Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RubisPage {
    /// Static entry page.
    Main,
    /// Static browse menu.
    Browse,
    /// List of categories.
    AllCategories,
    /// List of regions.
    AllRegions,
    /// Categories available in a region.
    Region,
    /// Items of a category.
    Category,
    /// Items of a category in a region.
    CategoryRegion,
    /// Item details.
    Item,
    /// Bid history of an item.
    Bids,
    /// Public user profile with comments.
    UserInfo,
    /// Static authentication form before bidding.
    PutBidAuth,
    /// Bidding form (authenticates, shows the item).
    PutBidForm,
    /// Store a bid (write).
    StoreBid,
    /// Static authentication form before commenting.
    PutCommentAuth,
    /// Comment form (authenticates, shows the target user).
    PutCommentForm,
    /// Store a comment (write).
    StoreComment,
}

impl RubisPage {
    /// The reporting label used in Table 7.
    pub fn name(self) -> &'static str {
        match self {
            RubisPage::Main => "Main",
            RubisPage::Browse => "Browse",
            RubisPage::AllCategories => "AllCategories",
            RubisPage::AllRegions => "AllRegions",
            RubisPage::Region => "Region",
            RubisPage::Category => "Category",
            RubisPage::CategoryRegion => "Category&Region",
            RubisPage::Item => "Item",
            RubisPage::Bids => "Bids",
            RubisPage::UserInfo => "UserInfo",
            RubisPage::PutBidAuth => "PutBidAuth",
            RubisPage::PutBidForm => "PutBidForm",
            RubisPage::StoreBid => "StoreBid",
            RubisPage::PutCommentAuth => "PutCommentAuth",
            RubisPage::PutCommentForm => "PutCommentForm",
            RubisPage::StoreComment => "StoreComment",
        }
    }

    /// Pages in Table 7 column order.
    pub fn all() -> [RubisPage; 16] {
        [
            RubisPage::Main,
            RubisPage::Browse,
            RubisPage::AllCategories,
            RubisPage::AllRegions,
            RubisPage::Region,
            RubisPage::Category,
            RubisPage::CategoryRegion,
            RubisPage::Item,
            RubisPage::Bids,
            RubisPage::UserInfo,
            RubisPage::PutBidAuth,
            RubisPage::PutBidForm,
            RubisPage::StoreBid,
            RubisPage::PutCommentAuth,
            RubisPage::PutCommentForm,
            RubisPage::StoreComment,
        ]
    }
}

/// Sampled parameters for one page request.
///
/// Deliberately `Copy`: the hot request path stores drawn parameters in a
/// [`PageSpec`](crate::PageSpec) without allocating.
#[derive(Debug, Clone, Copy)]
pub struct RubisParams {
    /// Browsed category.
    pub category: RowId,
    /// Browsed region.
    pub region: RowId,
    /// Viewed/bid item.
    pub item: RowId,
    /// Profile being viewed / comment target.
    pub target_user: RowId,
    /// Acting (authenticated) user.
    pub user: RowId,
}

/// CPU and size calibration for RUBiS pages (much lighter than Pet Store).
#[derive(Debug, Clone)]
pub struct RubisCosts {
    /// Servlet render demand for a static page (ms).
    pub render_ms: f64,
    /// Fixed non-CPU serving overhead per page (ms).
    pub overhead_ms: f64,
    /// Session bean method demand (ms).
    pub sb_ms: f64,
    /// Entity bean method demand (ms).
    pub entity_ms: f64,
    /// Additional render demand per result row on list pages (ms).
    pub per_row_ms: f64,
}

impl Default for RubisCosts {
    fn default() -> Self {
        RubisCosts {
            render_ms: 5.0,
            overhead_ms: 5.0,
            sb_ms: 2.0,
            entity_ms: 1.0,
            per_row_ms: 0.9,
        }
    }
}

impl RubisCosts {
    fn render(&self, rows: u64) -> SimDuration {
        SimDuration::from_millis_f64(self.render_ms + self.per_row_ms * rows as f64)
    }
    fn sb(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.sb_ms)
    }
    fn entity(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.entity_ms)
    }
    fn overhead(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.overhead_ms)
    }
}

/// Builds the call tree of `page` with parameters `params`.
pub fn build_page(
    c: &RubisComponents,
    t: &RubisTables,
    costs: &RubisCosts,
    page: RubisPage,
    params: &RubisParams,
) -> PageRequest {
    let auth_q = Query::Eq {
        table: t.user,
        column: 0,
        value: nickname(params.user),
    };
    let item_q = Query::ByPk {
        table: t.item,
        id: params.item,
    };
    let request = match page {
        RubisPage::Main => PageRequest::new(
            page.name(),
            Call::new(c.web, "main", costs.render(0)),
            3_000,
        ),
        RubisPage::Browse => PageRequest::new(
            page.name(),
            Call::new(c.web, "browse", costs.render(0)),
            3_000,
        ),
        RubisPage::AllCategories => list_page(
            c,
            costs,
            page,
            c.sb_browse_categories,
            Call::new(c.sb_browse_categories, "getCategories", costs.sb()).tagged_query(
                Query::All { table: t.category },
                tags::ALL_CATEGORIES,
                DbAccess::Single,
            ),
            20,
            6_000,
        ),
        RubisPage::AllRegions => list_page(
            c,
            costs,
            page,
            c.sb_browse_regions,
            Call::new(c.sb_browse_regions, "getRegions", costs.sb()).tagged_query(
                Query::All { table: t.region },
                tags::ALL_REGIONS,
                DbAccess::Single,
            ),
            20,
            6_000,
        ),
        RubisPage::Region => list_page(
            c,
            costs,
            page,
            c.sb_browse_categories,
            Call::new(c.sb_browse_categories, "getCategoriesForRegion", costs.sb()).tagged_query(
                Query::All { table: t.category },
                tags::ALL_CATEGORIES,
                DbAccess::Single,
            ),
            20,
            6_000,
        ),
        RubisPage::Category => list_page(
            c,
            costs,
            page,
            c.sb_items_by_category,
            Call::new(c.sb_items_by_category, "getItems", costs.sb()).tagged_query(
                Query::Eq {
                    table: t.item,
                    column: 1,
                    value: params.category.into(),
                },
                tags::ITEMS_BY_CATEGORY,
                DbAccess::Single,
            ),
            20,
            9_000,
        ),
        RubisPage::CategoryRegion => list_page(
            c,
            costs,
            page,
            c.sb_items_by_region,
            Call::new(c.sb_items_by_region, "getItems", costs.sb()).tagged_query(
                Query::Eq {
                    table: t.item,
                    column: 3,
                    value: catregion_key(params.category, params.region),
                },
                tags::ITEMS_BY_CATREGION,
                DbAccess::Single,
            ),
            4,
            5_000,
        ),
        RubisPage::Item => {
            let sb = Call::new(c.sb_view_item, "getItem", costs.sb()).invoke(
                Call::new(c.item, "load", costs.entity()).query(item_q, DbAccess::Single),
                60,
                450,
            );
            let root = Call::new(c.web, "item", costs.render(1)).invoke(sb, 120, 600);
            PageRequest::new(page.name(), root, 4_500)
        }
        RubisPage::Bids => {
            let sb = Call::new(c.sb_view_bid_history, "getBids", costs.sb())
                .invoke(
                    Call::new(c.item, "load", costs.entity())
                        .query(item_q.clone(), DbAccess::Single),
                    60,
                    450,
                )
                .tagged_query(
                    Query::Eq {
                        table: t.bid,
                        column: 0,
                        value: params.item.into(),
                    },
                    tags::BIDS_BY_ITEM,
                    DbAccess::Single,
                );
            let root = Call::new(c.web, "bids", costs.render(6)).invoke(sb, 120, 900);
            PageRequest::new(page.name(), root, 6_000)
        }
        RubisPage::UserInfo => {
            let sb = Call::new(c.sb_view_user_info, "getUserInfo", costs.sb())
                .invoke(
                    Call::new(c.user, "load", costs.entity()).query(
                        Query::ByPk {
                            table: t.user,
                            id: params.target_user,
                        },
                        DbAccess::Single,
                    ),
                    60,
                    400,
                )
                .tagged_query(
                    Query::Eq {
                        table: t.comment,
                        column: 0,
                        value: params.target_user.into(),
                    },
                    tags::COMMENTS_BY_USER,
                    DbAccess::Single,
                );
            let root = Call::new(c.web, "user-info", costs.render(4)).invoke(sb, 120, 800);
            PageRequest::new(page.name(), root, 6_000)
        }
        RubisPage::PutBidAuth => PageRequest::new(
            page.name(),
            Call::new(c.web, "put-bid-auth", costs.render(0)),
            2_500,
        ),
        RubisPage::PutBidForm => {
            let sb = Call::new(c.sb_put_bid, "authenticateAndGetItem", costs.sb())
                .tagged_query(auth_q, tags::USER_BY_NICKNAME, DbAccess::Single)
                .invoke(
                    Call::new(c.item, "load", costs.entity()).query(item_q, DbAccess::Single),
                    60,
                    450,
                );
            let root = Call::new(c.web, "put-bid", costs.render(1)).invoke(sb, 200, 600);
            PageRequest::new(page.name(), root, 4_000)
        }
        RubisPage::StoreBid => {
            let sb = Call::new(c.sb_store_bid, "storeBid", costs.sb())
                .tagged_query(auth_q, tags::USER_BY_NICKNAME, DbAccess::Single)
                .mutate(Mutation::Insert {
                    table: t.bid,
                    values: vec![params.item.into(), params.user.into(), Value::Int(9_999)],
                })
                .invoke(
                    Call::new(c.item, "registerBid", costs.entity()).mutate(Mutation::Update {
                        table: t.item,
                        id: params.item,
                        column: 6,
                        value: Value::Int(1),
                    }),
                    80,
                    60,
                );
            let root = Call::new(c.web, "store-bid", costs.render(0)).invoke(sb, 250, 300);
            PageRequest::new(page.name(), root, 3_000)
        }
        RubisPage::PutCommentAuth => PageRequest::new(
            page.name(),
            Call::new(c.web, "put-comment-auth", costs.render(0)),
            2_500,
        ),
        RubisPage::PutCommentForm => {
            let sb = Call::new(c.sb_put_comment, "authenticateAndGetUser", costs.sb())
                .tagged_query(auth_q, tags::USER_BY_NICKNAME, DbAccess::Single)
                .invoke(
                    Call::new(c.user, "load", costs.entity()).query(
                        Query::ByPk {
                            table: t.user,
                            id: params.target_user,
                        },
                        DbAccess::Single,
                    ),
                    60,
                    400,
                );
            let root = Call::new(c.web, "put-comment", costs.render(1)).invoke(sb, 200, 500);
            PageRequest::new(page.name(), root, 3_500)
        }
        RubisPage::StoreComment => {
            let sb = Call::new(c.sb_store_comment, "storeComment", costs.sb())
                .tagged_query(auth_q, tags::USER_BY_NICKNAME, DbAccess::Single)
                .mutate(Mutation::Insert {
                    table: t.comment,
                    values: vec![
                        params.target_user.into(),
                        params.user.into(),
                        "nice doing business".into(),
                    ],
                })
                .invoke(
                    Call::new(c.user, "updateRating", costs.entity()).mutate(Mutation::Update {
                        table: t.user,
                        id: params.target_user,
                        column: 3,
                        value: Value::Int(1),
                    }),
                    80,
                    60,
                );
            let root = Call::new(c.web, "store-comment", costs.render(0)).invoke(sb, 300, 300);
            PageRequest::new(page.name(), root, 3_000)
        }
    };
    request.with_overhead(costs.overhead())
}

fn list_page(
    c: &RubisComponents,
    costs: &RubisCosts,
    page: RubisPage,
    _sb: mutsvc_middleware::ComponentId,
    sb_call: Call,
    rows: u64,
    response_bytes: u64,
) -> PageRequest {
    let root = Call::new(c.web, page.name().to_lowercase(), costs.render(rows)).invoke(
        sb_call,
        150,
        rows * 120 + 200,
    );
    PageRequest::new(page.name(), root, response_bytes)
}

fn nickname(user: RowId) -> Value {
    Value::from(format!("user-{}", user.0 - 1))
}

#[cfg(test)]
mod tests {
    use super::super::schema::build_database;
    use super::*;
    use mutsvc_middleware::{Action, ComponentRegistry};

    fn fixture() -> (RubisComponents, RubisTables, RubisParams) {
        let (_, tables, shape) = build_database();
        let mut reg = ComponentRegistry::new();
        let comps = RubisComponents::register(&mut reg, &tables);
        let params = RubisParams {
            category: shape.categories[2],
            region: shape.regions[3],
            item: shape.items[42],
            target_user: shape.users[7],
            user: shape.users[11],
        };
        (comps, tables, params)
    }

    #[test]
    fn one_session_bean_invocation_per_dynamic_page() {
        let (c, t, params) = fixture();
        let costs = RubisCosts::default();
        for page in RubisPage::all() {
            let req = build_page(&c, &t, &costs, page, &params);
            // The servlet makes at most one direct sub-invocation (its
            // dedicated session bean) — the paper's one-RMI-per-page rule.
            let direct_invokes = req
                .root
                .actions
                .iter()
                .filter(|a| matches!(a, Action::Invoke(_)))
                .count();
            assert!(direct_invokes <= 1, "{}: {direct_invokes}", page.name());
            // And no direct queries/writes from the servlet.
            assert!(
                !req.root
                    .actions
                    .iter()
                    .any(|a| !matches!(a, Action::Invoke(_))),
                "{} servlet accesses data directly",
                page.name()
            );
        }
    }

    #[test]
    fn static_pages_have_no_invocations() {
        let (c, t, params) = fixture();
        let costs = RubisCosts::default();
        for page in [
            RubisPage::Main,
            RubisPage::Browse,
            RubisPage::PutBidAuth,
            RubisPage::PutCommentAuth,
        ] {
            let req = build_page(&c, &t, &costs, page, &params);
            assert!(req.root.actions.is_empty(), "{}", page.name());
        }
    }

    #[test]
    fn only_store_pages_write() {
        let (c, t, params) = fixture();
        let costs = RubisCosts::default();
        for page in RubisPage::all() {
            let req = build_page(&c, &t, &costs, page, &params);
            let writes = matches!(page, RubisPage::StoreBid | RubisPage::StoreComment);
            assert_eq!(req.root.has_writes(), writes, "{}", page.name());
        }
    }

    #[test]
    fn every_browse_query_is_tagged() {
        let (c, t, params) = fixture();
        let costs = RubisCosts::default();
        // §4.4: all queries in browser/bidder sessions are cacheable.
        for page in RubisPage::all() {
            let req = build_page(&c, &t, &costs, page, &params);
            req.root.walk(&mut |call| {
                for a in &call.actions {
                    if let Action::Query(q) = a {
                        // Entity PK loads go through replicas, finders must
                        // carry a cache tag.
                        if !matches!(q.query, Query::ByPk { .. }) {
                            assert!(q.tag.is_some(), "{} has an untagged finder", page.name());
                            assert!(tags::ALL.contains(&q.tag.as_deref().unwrap()));
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn auth_rides_inside_the_store_call() {
        let (c, t, params) = fixture();
        let costs = RubisCosts::default();
        let req = build_page(&c, &t, &costs, RubisPage::StoreBid, &params);
        // Root has exactly one invoke (SB_StoreBid), which authenticates,
        // inserts the bid and updates the item.
        assert_eq!(req.root.actions.len(), 1);
        if let Action::Invoke(i) = &req.root.actions[0] {
            assert_eq!(i.call.component, c.sb_store_bid);
            assert!(i.call.has_writes());
        } else {
            panic!("expected invoke");
        }
    }
}
