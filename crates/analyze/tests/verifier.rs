//! Verifier-level acceptance properties: the analyzer's output is
//! byte-stable (identical on repeated runs and pinned against a committed
//! golden transcript so CI can diff it verbatim), the staleness dataflow
//! reaches its fixpoint on every paper cell without hitting the iteration
//! cap, and `cross_check_traced_wan` handles its edge cases (empty traces,
//! unknown pages, the exact ±1-round-trip boundary).

use mutsvc_analyze::{analyze_target, cross_check_traced_wan};
use mutsvc_core::{AppKind, Config};
use mutsvc_desim::json;

/// The text transcript for every cell, concatenated in CLI `--all` order
/// (applications outer, configurations inner).
fn all_cells_text() -> String {
    let mut out = String::new();
    for app in AppKind::all() {
        for config in Config::all() {
            out.push_str(&analyze_target(app, config).render_text());
        }
    }
    out
}

#[test]
fn analyzer_output_matches_committed_golden() {
    let golden = include_str!("../golden/all_cells.txt");
    assert_eq!(
        all_cells_text(),
        golden,
        "analyzer output drifted from crates/analyze/golden/all_cells.txt — \
         if the change is intentional, regenerate with \
         `cargo run -p mutsvc-analyze -- --all > crates/analyze/golden/all_cells.txt`"
    );
}

#[test]
fn repeated_analysis_is_byte_identical() {
    for app in AppKind::all() {
        for config in Config::all() {
            let first = analyze_target(app, config);
            let second = analyze_target(app, config);
            assert_eq!(
                first.render_text(),
                second.render_text(),
                "{}/{}: text output not byte-stable",
                app.name(),
                config.name()
            );
            assert_eq!(
                first.to_json(),
                second.to_json(),
                "{}/{}: JSON output not byte-stable",
                app.name(),
                config.name()
            );
            // Both machine-readable renderings are well-formed JSON.
            let doc = json::parse(&first.to_json()).expect("report JSON parses");
            assert_eq!(doc.str_at("app"), Ok(app.name()));
            let sarif = json::parse(&first.to_sarif()).expect("SARIF parses");
            assert_eq!(sarif.array_at("runs").map(<[_]>::len), Ok(1));
        }
    }
}

#[test]
fn staleness_fixpoint_converges_on_every_cell() {
    for app in AppKind::all() {
        for config in Config::all() {
            let report = analyze_target(app, config);
            assert!(
                report.staleness_converged,
                "{}/{}: staleness dataflow bailed out at the iteration cap",
                app.name(),
                config.name()
            );
            // The cap mirrors dataflow::iteration_cap over the page count;
            // a healthy fixpoint lands well under it.
            let cap = 2 * report.pages.len() as u32 + 8;
            assert!(
                (1..=cap).contains(&report.staleness_iterations),
                "{}/{}: {} sweeps (cap {cap})",
                app.name(),
                config.name(),
                report.staleness_iterations
            );
        }
    }
}

#[test]
fn cross_check_traced_wan_handles_edge_cases() {
    let mut report = analyze_target(AppKind::PetStore, Config::RemoteFacade);
    assert!(!report.codes().contains(&"W108"));

    // An empty traced set is a no-op.
    assert_eq!(cross_check_traced_wan(&mut report, &[]), 0);
    assert!(!report.codes().contains(&"W108"));

    // Pages in the trace but unknown to the static walk are ignored, no
    // matter how wild their counts.
    let unknown = vec![("NoSuchPage".to_string(), 99.0)];
    assert_eq!(cross_check_traced_wan(&mut report, &unknown), 0);
    assert!(!report.codes().contains(&"W108"));

    // The boundary is strict: exactly one round trip of disagreement is
    // protocol-level tolerance in either direction…
    let item = report.pages.iter().find(|p| p.page == "Item").unwrap();
    let page = item.page.clone();
    let static_rts = f64::from(item.wan_round_trips);
    let at_boundary = vec![
        (page.clone(), static_rts + 1.0),
        (page.clone(), static_rts - 1.0),
    ];
    assert_eq!(cross_check_traced_wan(&mut report, &at_boundary), 0);
    assert!(!report.codes().contains(&"W108"));

    // …while anything beyond it trips the check.
    let over = vec![(page.clone(), static_rts + 1.001)];
    assert_eq!(cross_check_traced_wan(&mut report, &over), 1);
    assert!(report.codes().contains(&"W108"), "{}", report.render_text());
}
