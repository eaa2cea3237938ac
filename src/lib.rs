//! # mutable-services
//!
//! A full reproduction of *"Efficiently Distributing Component-based
//! Applications Across Wide-Area Environments"* (Llambiri, Totok,
//! Karamcheti; ICDCS 2003) as a Rust workspace, named after the paper's
//! umbrella project (*Mutable Services*).
//!
//! The paper deploys two J2EE applications — Java Pet Store and RUBiS — on
//! an emulated wide-area testbed and applies five incremental configurations
//! (centralized → remote façade → read-only entity caching → query caching →
//! asynchronous updates), measuring per-page response times for local and
//! remote clients. This workspace rebuilds the entire study as a
//! deterministic discrete-event simulation plus an automatic-placement layer
//! that derives the paper's deployments from first principles.
//!
//! ## Layer map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`desim`] | simulation kernel: time, typed events, queueing resources, metrics |
//! | [`netsim`] | topology, latency/bandwidth, TCP/HTTP/RMI/JDBC/JMS costs, step executor |
//! | [`relstore`] | relational store substrate with query cost model and invalidation |
//! | [`middleware`] | component model, deployment descriptors, container state, the binder |
//! | [`apps`] | Pet Store and RUBiS models: schemas, pages, session patterns |
//! | [`workload`] | soft-delay client simulation and the experiment driver |
//! | [`core`] | the five configurations, scenario runner, paper data, reports |
//! | [`placement`] | interaction graphs and placement algorithms (greedy, multilevel, regional, multi-start) |
//!
//! ## Quick start
//!
//! ```no_run
//! use mutable_services::core::{AppKind, Config, Scenario};
//!
//! // One cell of the paper's Table 6: the remote-facade configuration.
//! let report = Scenario::quick(AppKind::PetStore, Config::RemoteFacade).run();
//! println!(
//!     "remote browser Item page: {:.0} ms",
//!     report.stats.mean_ms("remote1", "Browser", "Item").unwrap()
//! );
//! ```
//!
//! Run `cargo run --release -p mutsvc-bench --bin repro-report` to regenerate
//! every table and figure; see `EXPERIMENTS.md` for paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mutsvc_apps as apps;
pub use mutsvc_core as core;
pub use mutsvc_desim as desim;
pub use mutsvc_middleware as middleware;
pub use mutsvc_netsim as netsim;
pub use mutsvc_placement as placement;
pub use mutsvc_relstore as relstore;
pub use mutsvc_workload as workload;
