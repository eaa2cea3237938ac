//! Pet Store page behaviours: the 14 measured pages of Tables 2/3/6.
//!
//! Each page is a logical call tree. Two variants exist, matching the
//! paper's code evolution:
//!
//! * **original** (§4.1's baseline): the web tier retrieves catalog data
//!   directly via JDBC (BMP-style finders with their n+1 round trips) — the
//!   shape that collapses once the web tier moves across a WAN;
//! * **façade** (§4.2 onwards): every page reaches shared state through the
//!   `Catalog`/`Customer` session façades in at most one RMI (two for
//!   *Verify Sign-in*), with entity access behind the façade.
//!
//! CPU demands are calibrated so that local response times land in the
//! paper's Table 6 range; see `DESIGN.md` §2 and `EXPERIMENTS.md`.

use mutsvc_desim::time::SimDuration;
use mutsvc_middleware::{Call, DbAccess, PageRequest};
use mutsvc_relstore::{Mutation, Query, RowId, Value};

use super::components::PsComponents;
use super::schema::{PsShape, PsTables};

/// Cacheable query tag: products of a category (§4.4).
pub const TAG_PRODUCTS_BY_CATEGORY: &str = "ps:products-by-category";
/// Cacheable query tag: items of a product (§4.4).
pub const TAG_ITEMS_BY_PRODUCT: &str = "ps:items-by-product";

/// The Pet Store pages measured in Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PsPage {
    /// Application entry point.
    Main,
    /// Product list of a category.
    Category,
    /// Item list of a product.
    Product,
    /// Item details including stock.
    Item,
    /// Keyword search.
    Search,
    /// Sign-in form.
    SignIn,
    /// Credential verification (the 2-RMI page).
    VerifySignIn,
    /// Add an item to the shopping cart (POST + redirect).
    Cart,
    /// Start checkout.
    Checkout,
    /// Confirm the order (POST + redirect).
    PlaceOrder,
    /// Confirm billing/shipping.
    Billing,
    /// Commit the order: all database updates happen here (POST + redirect).
    Commit,
    /// Sign out.
    SignOut,
}

impl PsPage {
    /// The reporting label used in Table 6.
    pub fn name(self) -> &'static str {
        match self {
            PsPage::Main => "Main",
            PsPage::Category => "Category",
            PsPage::Product => "Product",
            PsPage::Item => "Item",
            PsPage::Search => "Search",
            PsPage::SignIn => "SignIn",
            PsPage::VerifySignIn => "VerifySignIn",
            PsPage::Cart => "Cart",
            PsPage::Checkout => "Checkout",
            PsPage::PlaceOrder => "PlaceOrder",
            PsPage::Billing => "Billing",
            PsPage::Commit => "Commit",
            PsPage::SignOut => "SignOut",
        }
    }

    /// Pages in Table 6 column order (browser five, then buyer nine; `Main`
    /// appears in both session mixes but is a single page).
    pub fn all() -> [PsPage; 13] {
        [
            PsPage::Main,
            PsPage::Category,
            PsPage::Product,
            PsPage::Item,
            PsPage::Search,
            PsPage::SignIn,
            PsPage::VerifySignIn,
            PsPage::Cart,
            PsPage::Checkout,
            PsPage::PlaceOrder,
            PsPage::Billing,
            PsPage::Commit,
            PsPage::SignOut,
        ]
    }
}

/// Sampled parameters for one page request.
///
/// Deliberately `Copy`: the hot request path stores drawn parameters in a
/// [`PageSpec`](crate::PageSpec) without allocating. The search keyword is
/// an index into [`PsShape::keywords`], resolved at build time.
#[derive(Debug, Clone, Copy)]
pub struct PsParams {
    /// Category being browsed.
    pub category: RowId,
    /// Product being browsed (belongs to `category`).
    pub product: RowId,
    /// Item being viewed/bought (belongs to `product`).
    pub item: RowId,
    /// Search keyword, as an index into [`PsShape::keywords`].
    pub keyword: usize,
    /// Signed-in account.
    pub account: RowId,
}

/// CPU and size calibration for Pet Store pages.
#[derive(Debug, Clone)]
pub struct PsCosts {
    /// Web-tier render demand per page (ms); heavier than RUBiS by design.
    pub render_ms: f64,
    /// Fixed non-CPU serving overhead per page (ms).
    pub overhead_ms: f64,
    /// `ShoppingClientController` event-processing demand (ms).
    pub controller_ms: f64,
    /// Session-façade method demand (ms).
    pub facade_ms: f64,
    /// Entity bean method demand (ms).
    pub entity_ms: f64,
    /// `ShoppingCart` manipulation demand (ms).
    pub cart_ms: f64,
}

impl Default for PsCosts {
    fn default() -> Self {
        PsCosts {
            render_ms: 20.0,
            overhead_ms: 26.0,
            controller_ms: 3.0,
            facade_ms: 4.0,
            entity_ms: 1.5,
            cart_ms: 2.5,
        }
    }
}

impl PsCosts {
    fn render(&self, factor: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.render_ms * factor)
    }
    fn controller(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.controller_ms)
    }
    fn facade(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.facade_ms)
    }
    fn entity(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.entity_ms)
    }
    fn cart(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.cart_ms)
    }
    fn overhead(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.overhead_ms)
    }
}

/// Builds the call tree of `page` with parameters `params`.
///
/// `facade` selects the application variant (see module docs). `shape`
/// resolves the keyword index of [`PsParams::keyword`] for search pages.
pub fn build_page(
    components: &PsComponents,
    tables: &PsTables,
    shape: &PsShape,
    costs: &PsCosts,
    page: PsPage,
    params: &PsParams,
    facade: bool,
) -> PageRequest {
    let c = components;
    let t = tables;
    let products_q = Query::Eq {
        table: t.product,
        column: 1,
        value: params.category.into(),
    };
    let items_q = Query::Eq {
        table: t.item,
        column: 1,
        value: params.product.into(),
    };
    let item_q = Query::ByPk {
        table: t.item,
        id: params.item,
    };
    let inventory_q = Query::ByPk {
        table: t.inventory,
        id: params.item,
    };
    let signon_q = Query::Eq {
        table: t.signon,
        column: 0,
        value: username(params.account),
    };
    let account_q = Query::ByPk {
        table: t.account,
        id: params.account,
    };
    let access = if facade {
        DbAccess::Single
    } else {
        DbAccess::BmpFinder
    };

    let request = match page {
        PsPage::Main => {
            let root = Call::new(c.web, "main", costs.render(1.3)).invoke(
                Call::new(c.controller, "initSession", costs.controller()),
                100,
                200,
            );
            PageRequest::new(page.name(), root, 12_000)
        }
        PsPage::Category => {
            let root = if facade {
                let cat = Call::new(c.catalog, "getProducts", costs.facade()).tagged_query(
                    products_q,
                    TAG_PRODUCTS_BY_CATEGORY,
                    access,
                );
                web_via_controller(c, costs, "category", 1.0, cat, 200, 4_000)
            } else {
                Call::new(c.web, "category", costs.render(1.0))
                    .invoke(
                        Call::new(c.controller, "event", costs.controller()),
                        100,
                        100,
                    )
                    .query(products_q, access)
            };
            PageRequest::new(page.name(), root, 15_000)
        }
        PsPage::Product => {
            let root = if facade {
                let cat = Call::new(c.catalog, "getItems", costs.facade()).tagged_query(
                    items_q,
                    TAG_ITEMS_BY_PRODUCT,
                    access,
                );
                web_via_controller(c, costs, "product", 1.0, cat, 200, 3_500)
            } else {
                Call::new(c.web, "product", costs.render(1.0))
                    .invoke(
                        Call::new(c.controller, "event", costs.controller()),
                        100,
                        100,
                    )
                    .query(items_q, access)
            };
            PageRequest::new(page.name(), root, 14_000)
        }
        PsPage::Item => {
            let root = if facade {
                let cat = Call::new(c.catalog, "getItem", costs.facade())
                    .invoke(
                        Call::new(c.item, "load", costs.entity()).query(item_q, DbAccess::Single),
                        60,
                        400,
                    )
                    .invoke(
                        Call::new(c.inventory, "load", costs.entity())
                            .query(inventory_q, DbAccess::Single),
                        60,
                        120,
                    );
                web_via_controller(c, costs, "item", 0.95, cat, 150, 900)
            } else {
                Call::new(c.web, "item", costs.render(0.95))
                    .invoke(
                        Call::new(c.controller, "event", costs.controller()),
                        100,
                        100,
                    )
                    .query(item_q, DbAccess::Single)
                    .query(inventory_q, DbAccess::Single)
            };
            PageRequest::new(page.name(), root, 10_000)
        }
        PsPage::Search => {
            let search_q = Query::Like {
                table: t.item,
                column: 0,
                needle: shape.keywords[params.keyword].clone(),
            };
            let root = if facade {
                let cat = Call::new(c.catalog, "search", costs.facade()).query(search_q, access);
                web_via_controller(c, costs, "search", 1.1, cat, 300, 4_500)
            } else {
                Call::new(c.web, "search", costs.render(1.1))
                    .invoke(
                        Call::new(c.controller, "event", costs.controller()),
                        100,
                        100,
                    )
                    .query(search_q, access)
            };
            PageRequest::new(page.name(), root, 15_000)
        }
        PsPage::SignIn => {
            let root = Call::new(c.web, "signin-form", costs.render(0.85));
            PageRequest::new(page.name(), root, 6_000)
        }
        PsPage::VerifySignIn => {
            // Two wide-area calls (the paper's documented exception): one to
            // authenticate, one to create the customer session and fetch the
            // profile.
            let auth = Call::new(c.signon, "authenticate", costs.entity())
                .query(signon_q.clone(), DbAccess::Single);
            let profile = Call::new(c.customer, "createAndGetProfile", costs.facade()).invoke(
                Call::new(c.account, "load", costs.entity())
                    .query(account_q.clone(), DbAccess::Single),
                80,
                600,
            );
            let root = if facade {
                Call::new(c.web, "verify", costs.render(0.8)).invoke(
                    Call::new(c.controller, "signinEvent", costs.controller())
                        .invoke(auth, 150, 100)
                        .invoke(profile, 150, 700),
                    200,
                    400,
                )
            } else {
                Call::new(c.web, "verify", costs.render(0.8))
                    .invoke(
                        Call::new(c.controller, "signinEvent", costs.controller()),
                        150,
                        100,
                    )
                    .query(signon_q, DbAccess::Single)
                    .query(account_q, DbAccess::Single)
            };
            PageRequest::new(page.name(), root, 8_000)
        }
        PsPage::Cart => {
            // Adding an item needs its details (price): one catalog access.
            let item_fetch = Call::new(c.catalog, "getItem", costs.facade()).invoke(
                Call::new(c.item, "load", costs.entity()).query(item_q.clone(), DbAccess::Single),
                60,
                400,
            );
            let root = if facade {
                Call::new(c.web, "cart-add", costs.render(0.9)).invoke(
                    Call::new(c.controller, "cartEvent", costs.controller()).invoke(
                        Call::new(c.cart, "addItem", costs.cart()).invoke(item_fetch, 80, 450),
                        120,
                        300,
                    ),
                    200,
                    400,
                )
            } else {
                Call::new(c.web, "cart-add", costs.render(0.9))
                    .invoke(
                        Call::new(c.controller, "cartEvent", costs.controller()).invoke(
                            Call::new(c.cart, "addItem", costs.cart()),
                            120,
                            300,
                        ),
                        200,
                        400,
                    )
                    .query(item_q, DbAccess::Single)
            };
            PageRequest::new(page.name(), root, 9_000).with_redirect()
        }
        PsPage::Checkout => {
            let root = Call::new(c.web, "checkout", costs.render(0.85)).invoke(
                Call::new(c.controller, "checkoutEvent", costs.controller()).invoke(
                    Call::new(c.cart, "getContents", costs.cart()),
                    80,
                    800,
                ),
                150,
                900,
            );
            PageRequest::new(page.name(), root, 8_000)
        }
        PsPage::PlaceOrder => {
            let root = Call::new(c.web, "place-order", costs.render(0.8)).invoke(
                Call::new(c.controller, "orderEvent", costs.controller()),
                150,
                300,
            );
            PageRequest::new(page.name(), root, 8_000).with_redirect()
        }
        PsPage::Billing => {
            let root = Call::new(c.web, "billing", costs.render(0.8)).invoke(
                Call::new(c.controller, "billingEvent", costs.controller()),
                150,
                300,
            );
            PageRequest::new(page.name(), root, 7_000)
        }
        PsPage::Commit => {
            let writes = commit_writes(t, params);
            let root = if facade {
                let mut customer = Call::new(c.customer, "commitOrder", costs.facade() * 2);
                customer = customer.invoke(
                    Call::new(c.account, "load", costs.entity()).query(account_q, DbAccess::Single),
                    60,
                    300,
                );
                for w in writes.clone() {
                    match w {
                        CommitWrite::Order(m) => {
                            customer = customer.invoke(
                                Call::new(c.order, "create", costs.entity()).mutate(m),
                                120,
                                80,
                            );
                        }
                        CommitWrite::Inventory(m) => {
                            customer = customer.invoke(
                                Call::new(c.inventory, "decrement", costs.entity()).mutate(m),
                                80,
                                60,
                            );
                        }
                        CommitWrite::Direct(m) => {
                            customer = customer.mutate(m);
                        }
                    }
                }
                Call::new(c.web, "commit", costs.render(0.9)).invoke(
                    Call::new(c.controller, "commitEvent", costs.controller())
                        .invoke(customer, 400, 300),
                    400,
                    400,
                )
            } else {
                let mut root = Call::new(c.web, "commit", costs.render(0.9))
                    .invoke(
                        Call::new(c.controller, "commitEvent", costs.controller()),
                        400,
                        300,
                    )
                    .query(account_q, DbAccess::Single);
                for w in writes {
                    root = root.mutate(w.into_mutation());
                }
                root
            };
            PageRequest::new(page.name(), root, 9_000).with_redirect()
        }
        PsPage::SignOut => {
            let root = Call::new(c.web, "signout", costs.render(0.8)).invoke(
                Call::new(c.controller, "destroySession", costs.controller()),
                100,
                100,
            );
            PageRequest::new(page.name(), root, 6_000)
        }
    };
    request.with_overhead(costs.overhead())
}

fn web_via_controller(
    c: &PsComponents,
    costs: &PsCosts,
    op: &str,
    render_factor: f64,
    inner: Call,
    args: u64,
    ret: u64,
) -> Call {
    Call::new(c.web, op.to_string(), costs.render(render_factor)).invoke(
        Call::new(c.controller, "event", costs.controller()).invoke(inner, args, ret),
        200,
        ret + 200,
    )
}

fn username(account: RowId) -> Value {
    Value::from(format!("customer-{}", account.0 - 1))
}

#[derive(Debug, Clone)]
enum CommitWrite {
    Order(Mutation),
    Inventory(Mutation),
    Direct(Mutation),
}

impl CommitWrite {
    fn into_mutation(self) -> Mutation {
        match self {
            CommitWrite::Order(m) | CommitWrite::Inventory(m) | CommitWrite::Direct(m) => m,
        }
    }
}

/// The database updates of a commit: order + line item + status inserts plus
/// the inventory decrement (the write that triggers wide-area propagation).
fn commit_writes(t: &PsTables, params: &PsParams) -> Vec<CommitWrite> {
    vec![
        CommitWrite::Order(Mutation::Insert {
            table: t.orders,
            values: vec![params.account.into(), Value::Int(1_500), "placed".into()],
        }),
        // Line-item and status rows reference the order created in the same
        // transaction; the order id is unknown until bind time and nothing in
        // the workload queries line items by order, so the foreign key is 0.
        CommitWrite::Direct(Mutation::Insert {
            table: t.lineitem,
            values: vec![
                Value::Int(0),
                params.item.into(),
                Value::Int(1),
                Value::Int(1_500),
            ],
        }),
        CommitWrite::Direct(Mutation::Insert {
            table: t.orderstatus,
            values: vec![Value::Int(0), "pending".into()],
        }),
        CommitWrite::Inventory(Mutation::Update {
            table: t.inventory,
            id: params.item,
            column: 1,
            value: Value::Int(9_999),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::super::schema::build_database;
    use super::*;
    use mutsvc_middleware::ComponentRegistry;

    fn fixture() -> (PsComponents, PsTables, PsShape, PsParams) {
        let (_, tables, shape) = build_database();
        let mut reg = ComponentRegistry::new();
        let comps = PsComponents::register(&mut reg, &tables);
        let product = shape.products(0)[0];
        let params = PsParams {
            category: shape.categories[0],
            product,
            item: shape.items(product)[0],
            keyword: 0,
            account: shape.accounts[0],
        };
        (comps, tables, shape, params)
    }

    #[test]
    fn facade_pages_have_at_most_one_shared_access_chain() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        // Every page except VerifySignIn funnels through a single façade
        // invocation chain; VerifySignIn makes two (the paper's exception).
        for page in PsPage::all() {
            let req = build_page(&c, &t, &shape, &costs, page, &params, true);
            let mut facade_children = 0;
            req.root.walk(&mut |call| {
                if call.component == c.controller {
                    facade_children += call
                        .actions
                        .iter()
                        .filter(|a| matches!(a, mutsvc_middleware::Action::Invoke(_)))
                        .count();
                }
            });
            let expected = if page == PsPage::VerifySignIn { 2 } else { 1 };
            assert!(
                facade_children <= expected,
                "{}: {} controller sub-invocations",
                page.name(),
                facade_children
            );
        }
    }

    #[test]
    fn redirect_pages_match_the_paper() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        for page in PsPage::all() {
            let req = build_page(&c, &t, &shape, &costs, page, &params, true);
            let expected = matches!(page, PsPage::Cart | PsPage::PlaceOrder | PsPage::Commit);
            assert_eq!(req.http_exchanges == 2, expected, "{}", page.name());
        }
    }

    #[test]
    fn only_commit_writes() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        for page in PsPage::all() {
            for facade in [false, true] {
                let req = build_page(&c, &t, &shape, &costs, page, &params, facade);
                assert_eq!(
                    req.root.has_writes(),
                    page == PsPage::Commit,
                    "{}",
                    page.name()
                );
            }
        }
    }

    #[test]
    fn original_variant_queries_from_the_web_tier() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        let req = build_page(&c, &t, &shape, &costs, PsPage::Category, &params, false);
        // Root (web) holds the query directly.
        assert!(req
            .root
            .actions
            .iter()
            .any(|a| matches!(a, mutsvc_middleware::Action::Query(_))));
        // Facade variant does not.
        let req = build_page(&c, &t, &shape, &costs, PsPage::Category, &params, true);
        assert!(!req
            .root
            .actions
            .iter()
            .any(|a| matches!(a, mutsvc_middleware::Action::Query(_))));
    }

    #[test]
    fn tagged_queries_only_on_category_and_product() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        for page in PsPage::all() {
            let req = build_page(&c, &t, &shape, &costs, page, &params, true);
            let mut tags = Vec::new();
            req.root.walk(&mut |call| {
                for a in &call.actions {
                    if let mutsvc_middleware::Action::Query(q) = a {
                        if let Some(tag) = &q.tag {
                            tags.push(tag.clone());
                        }
                    }
                }
            });
            match page {
                PsPage::Category => assert_eq!(tags, vec![TAG_PRODUCTS_BY_CATEGORY.to_string()]),
                PsPage::Product => assert_eq!(tags, vec![TAG_ITEMS_BY_PRODUCT.to_string()]),
                _ => assert!(tags.is_empty(), "{} unexpectedly tagged", page.name()),
            }
        }
    }

    #[test]
    fn every_page_has_positive_cpu_and_response() {
        let (c, t, shape, params) = fixture();
        let costs = PsCosts::default();
        for page in PsPage::all() {
            for facade in [false, true] {
                let req = build_page(&c, &t, &shape, &costs, page, &params, facade);
                assert!(req.response_bytes > 0);
                assert!(!req.root.cpu.is_zero());
                assert!(!req.overhead.is_zero());
            }
        }
    }
}
