//! Report generation: regenerates the paper's Tables 6/7 and Figures 7/8
//! from measured runs, renders side-by-side comparisons against the paper's
//! numbers, and validates the qualitative *shape* criteria listed in
//! `DESIGN.md` §5.

use mutsvc_workload::ExperimentReport;

use crate::configs::Config;
use crate::experiment::AppKind;
use crate::paper::{paper_mean, PaperRow, PETSTORE_COLUMNS, RUBIS_COLUMNS, TABLE6, TABLE7};

/// The two remote client groups aggregated into the paper's single
/// "Remote" row.
pub const REMOTE_GROUPS: [&str; 2] = ["remote1", "remote2"];

/// Table metadata for an application.
pub fn columns_of(app: AppKind) -> &'static [(&'static str, &'static str)] {
    match app {
        AppKind::PetStore => &PETSTORE_COLUMNS,
        AppKind::Rubis => &RUBIS_COLUMNS,
    }
}

/// The paper reference table for an application.
pub fn paper_table_of(app: AppKind) -> &'static [PaperRow; 5] {
    match app {
        AppKind::PetStore => &TABLE6,
        AppKind::Rubis => &TABLE7,
    }
}

/// The table number an application's sweep reproduces.
pub fn table_number(app: AppKind) -> u32 {
    match app {
        AppKind::PetStore => 6,
        AppKind::Rubis => 7,
    }
}

/// The measured mean of one table cell (remote = both edge groups pooled).
pub fn measured_mean(
    report: &ExperimentReport,
    remote: bool,
    pattern: &str,
    page: &str,
) -> Option<f64> {
    if remote {
        report
            .stats
            .mean_ms_over_groups(&REMOTE_GROUPS, pattern, page)
    } else {
        report.stats.mean_ms("local", pattern, page)
    }
}

/// Renders the measured table (the paper's Table 6 or 7) as fixed-width text.
///
/// `reports` must hold the five configurations in [`Config::all`] order.
pub fn render_table(app: AppKind, reports: &[ExperimentReport]) -> String {
    let columns = columns_of(app);
    let mut out = String::new();
    out.push_str(&format!(
        "Table {}: average response times (ms), {} — measured\n",
        table_number(app),
        app.name()
    ));
    out.push_str(&format!("{:<18}{:>3}", "configuration", ""));
    for (_, page) in columns {
        out.push_str(&format!("{:>9}", truncate(page, 8)));
    }
    out.push('\n');
    for (config, report) in Config::all().iter().zip(reports) {
        for remote in [false, true] {
            out.push_str(&format!(
                "{:<18}{:>3}",
                config.name(),
                if remote { "R" } else { "L" }
            ));
            for (pattern, page) in columns {
                match measured_mean(report, remote, pattern, page) {
                    Some(v) => out.push_str(&format!("{:>9.0}", v)),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders measured vs paper, cell by cell, with the measured/paper ratio.
pub fn render_comparison(app: AppKind, reports: &[ExperimentReport]) -> String {
    let columns = columns_of(app);
    let paper = paper_table_of(app);
    let mut out = String::new();
    out.push_str(&format!(
        "Table {} comparison ({}): measured ms / paper ms (ratio)\n",
        table_number(app),
        app.name()
    ));
    for (config, report) in Config::all().iter().zip(reports) {
        out.push_str(&format!("-- {} (§{})\n", config.name(), config.section()));
        for remote in [false, true] {
            out.push_str(&format!("  {:<7}", if remote { "remote" } else { "local" }));
            for (pattern, page) in columns {
                let measured = measured_mean(report, remote, pattern, page);
                let reference = paper_mean(paper, columns, *config, remote, pattern, page);
                match (measured, reference) {
                    (Some(m), Some(p)) if p > 0.0 => {
                        out.push_str(&format!(" {page}={m:.0}/{p:.0}({:.2})", m / p));
                    }
                    _ => out.push_str(&format!(" {page}=-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the tail-latency companion to Table 6/7: per-page p95 response
/// times. The paper reports means only; percentiles expose the blocking-push
/// tail that means smooth over.
pub fn render_percentiles(app: AppKind, reports: &[ExperimentReport]) -> String {
    let columns = columns_of(app);
    let mut out = format!(
        "Table {}-p95: 95th-percentile response times (ms), {} — measured\n",
        table_number(app),
        app.name()
    );
    out.push_str(&format!("{:<18}{:>3}", "configuration", ""));
    for (_, page) in columns {
        out.push_str(&format!("{:>9}", truncate(page, 8)));
    }
    out.push('\n');
    for (config, report) in Config::all().iter().zip(reports) {
        for remote in [false, true] {
            out.push_str(&format!(
                "{:<18}{:>3}",
                config.name(),
                if remote { "R" } else { "L" }
            ));
            for (pattern, page) in columns {
                let p95 = if remote {
                    // Pool the worse of the two edge groups (conservative).
                    mutsvc_desim::pooled_max(
                        REMOTE_GROUPS
                            .iter()
                            .filter_map(|g| report.stats.series(g, pattern, page))
                            .map(|s| s.quantile(0.95)),
                    )
                } else {
                    report
                        .stats
                        .series("local", pattern, page)
                        .map(|s| s.quantile(0.95))
                };
                match p95 {
                    Some(v) => out.push_str(&format!("{:>9.0}", v)),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// One bar of Figure 7/8: session-average response time of a client group.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureBar {
    /// Configuration.
    pub config: Config,
    /// "Local" or "Remote".
    pub locality: &'static str,
    /// "Browser", "Buyer" or "Bidder".
    pub pattern: String,
    /// Session-average response time in milliseconds.
    pub mean_ms: f64,
}

/// Computes the Figure 7 (Pet Store) or Figure 8 (RUBiS) series: for each
/// configuration, session-average response times of the four client groups.
pub fn figure_series(app: AppKind, reports: &[ExperimentReport]) -> Vec<FigureBar> {
    let transactional = match app {
        AppKind::PetStore => "Buyer",
        AppKind::Rubis => "Bidder",
    };
    let mut bars = Vec::new();
    for (config, report) in Config::all().iter().zip(reports) {
        for pattern in ["Browser", transactional] {
            if let Some(m) = report.stats.session_summary("local", pattern) {
                bars.push(FigureBar {
                    config: *config,
                    locality: "Local",
                    pattern: pattern.to_string(),
                    mean_ms: m.mean(),
                });
            }
            if let Some(m) = report
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, pattern)
            {
                bars.push(FigureBar {
                    config: *config,
                    locality: "Remote",
                    pattern: pattern.to_string(),
                    mean_ms: m,
                });
            }
        }
    }
    bars
}

/// Renders Figure 7/8 as a text bar chart.
pub fn render_figure(app: AppKind, reports: &[ExperimentReport]) -> String {
    let figure = match app {
        AppKind::PetStore => 7,
        AppKind::Rubis => 8,
    };
    let bars = figure_series(app, reports);
    let max = bars.iter().map(|b| b.mean_ms).fold(1.0, f64::max);
    let mut out = format!(
        "Figure {figure}: {} session average response times (ms)\n",
        app.name()
    );
    let groups: Vec<(&str, String)> = {
        let mut seen = Vec::new();
        for b in &bars {
            let key = (b.locality, b.pattern.clone());
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    };
    for (locality, pattern) in groups {
        out.push_str(&format!("{locality} {pattern}:\n"));
        for b in bars
            .iter()
            .filter(|b| b.locality == locality && b.pattern == pattern)
        {
            let width = ((b.mean_ms / max) * 50.0).round() as usize;
            out.push_str(&format!(
                "  {:<18} {:>6.0} |{}\n",
                b.config.name(),
                b.mean_ms,
                "#".repeat(width.max(1))
            ));
        }
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

/// Fetches a cell, panicking with context when it was not measured.
fn cell(report: &ExperimentReport, remote: bool, pattern: &str, page: &str) -> f64 {
    measured_mean(report, remote, pattern, page).unwrap_or_else(|| {
        panic!(
            "no samples for {pattern}/{page} ({})",
            if remote { "remote" } else { "local" }
        )
    })
}

/// Validates the qualitative shape criteria of `DESIGN.md` §5 against a
/// five-configuration sweep. Returns human-readable violations (empty =
/// all criteria hold).
pub fn validate_shapes(app: AppKind, reports: &[ExperimentReport]) -> Vec<String> {
    assert_eq!(reports.len(), 5, "expected one report per configuration");
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };
    let (centralized, facade, caching, query, asynch) = (
        &reports[0],
        &reports[1],
        &reports[2],
        &reports[3],
        &reports[4],
    );

    match app {
        AppKind::PetStore => {
            // §4.1: the WAN adds ~400 ms (two round trips) to every page.
            let gap = cell(centralized, true, "Browser", "Item")
                - cell(centralized, false, "Browser", "Item");
            check(
                (330.0..520.0).contains(&gap),
                format!("centralized WAN gap {gap:.0}ms not ~400ms"),
            );
            // Redirect pages pay an extra WAN trip.
            let commit_gap = cell(centralized, true, "Buyer", "Commit")
                - cell(centralized, false, "Buyer", "Commit");
            check(
                commit_gap > 500.0,
                format!("centralized Commit gap {commit_gap:.0}ms not ~600ms"),
            );
            // §4.2: pure-session buyer pages become local.
            for page in ["SignIn", "Checkout", "PlaceOrder", "Billing", "SignOut"] {
                let v = cell(facade, true, "Buyer", page);
                check(
                    v < 120.0,
                    format!("facade remote {page} {v:.0}ms not local"),
                );
            }
            // §4.2: one-RMI pages sit well below centralized.
            check(
                cell(facade, true, "Browser", "Category")
                    < cell(centralized, true, "Browser", "Category"),
                "facade Category not better than centralized".into(),
            );
            // §4.2: VerifySignIn pays two RMIs.
            let verify = cell(facade, true, "Buyer", "VerifySignIn");
            check(
                verify > 400.0,
                format!("facade VerifySignIn {verify:.0}ms should stay ~2 RMIs"),
            );
            // §4.3: Item and Cart become local; writers start blocking.
            check(
                cell(caching, true, "Browser", "Item") < 120.0,
                "caching remote Item not local".into(),
            );
            check(
                cell(caching, true, "Buyer", "Cart") < 160.0,
                "caching remote Cart not local".into(),
            );
            check(
                cell(caching, true, "Buyer", "Commit") > cell(facade, true, "Buyer", "Commit"),
                "caching remote Commit should exceed facade (blocking push)".into(),
            );
            check(
                cell(caching, false, "Buyer", "Commit")
                    > cell(facade, false, "Buyer", "Commit") * 1.5,
                "caching local Commit should blow up (blocking push)".into(),
            );
            // §4.4: category/product become local; keyword search stays remote.
            check(
                cell(query, true, "Browser", "Category") < 120.0,
                "query-caching remote Category not local".into(),
            );
            check(
                cell(query, true, "Browser", "Product") < 120.0,
                "query-caching remote Product not local".into(),
            );
            check(
                cell(query, true, "Browser", "Search") > 300.0,
                "query-caching remote Search should stay remote".into(),
            );
            // §4.5: async recovers the writers.
            check(
                cell(asynch, true, "Buyer", "Commit") < cell(query, true, "Buyer", "Commit") / 1.4,
                "async remote Commit should undercut sync push".into(),
            );
            check(
                cell(asynch, false, "Buyer", "Commit")
                    < cell(query, false, "Buyer", "Commit") / 1.8,
                "async local Commit should undercut sync push".into(),
            );
            // Figures 7: remote browser collapses across the sweep.
            let remote_browser_start = centralized
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Browser")
                .unwrap();
            let remote_browser_end = asynch
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Browser")
                .unwrap();
            check(
                remote_browser_start > 400.0 && remote_browser_end < 130.0,
                format!(
                    "remote browser session {remote_browser_start:.0} -> {remote_browser_end:.0}"
                ),
            );
        }
        AppKind::Rubis => {
            // §4.1: the WAN gap.
            let gap = cell(centralized, true, "Browser", "Item")
                - cell(centralized, false, "Browser", "Item");
            check(
                (330.0..520.0).contains(&gap),
                format!("centralized WAN gap {gap:.0}ms"),
            );
            // §4.2: static pages become local at the edges.
            for (pattern, page) in [
                ("Browser", "Main"),
                ("Browser", "Browse"),
                ("Bidder", "PutBidAuth"),
                ("Bidder", "PutCommentAuth"),
            ] {
                let v = cell(facade, true, pattern, page);
                check(v < 30.0, format!("facade remote {page} {v:.0}ms not local"));
            }
            // §4.3: Item local; bidder writes degrade.
            check(
                cell(caching, true, "Browser", "Item") < 40.0,
                "caching remote Item not local".into(),
            );
            check(
                cell(caching, true, "Bidder", "StoreBid")
                    > cell(facade, true, "Bidder", "StoreBid"),
                "caching remote StoreBid should exceed facade".into(),
            );
            let bidder_facade = facade
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Bidder")
                .unwrap();
            let bidder_caching = caching
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Bidder")
                .unwrap();
            check(
                bidder_caching > bidder_facade,
                format!("bidder session should degrade with blocking push ({bidder_facade:.0} -> {bidder_caching:.0})"),
            );
            // §4.4: the "triumphal" result — every remote browse page local.
            for page in [
                "AllCategories",
                "AllRegions",
                "Region",
                "Category",
                "Category&Region",
                "Item",
                "Bids",
                "UserInfo",
            ] {
                let v = cell(query, true, "Browser", page);
                check(
                    v < 40.0,
                    format!("query-caching remote {page} {v:.0}ms not local"),
                );
            }
            // Forms served locally too.
            check(
                cell(query, true, "Bidder", "PutBidForm") < 40.0,
                "query-caching remote PutBidForm not local".into(),
            );
            // Writers still blocked.
            check(
                cell(query, true, "Bidder", "StoreBid") > 400.0,
                "query-caching remote StoreBid should block".into(),
            );
            // §4.5: async recovers the writers.
            check(
                cell(asynch, true, "Bidder", "StoreBid")
                    < cell(query, true, "Bidder", "StoreBid") / 1.3,
                "async remote StoreBid should undercut sync push".into(),
            );
            check(
                cell(asynch, false, "Bidder", "StoreBid")
                    < cell(query, false, "Bidder", "StoreBid") / 2.0,
                "async local StoreBid should undercut sync push".into(),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_sweep;
    use mutsvc_workload::WorkloadStats;

    /// The cells of `render_percentiles` output, as `(config, remote,
    /// cells)` per table row.
    fn parse_rows(table: &str) -> Vec<(String, bool, Vec<String>)> {
        table
            .lines()
            .skip(2)
            .map(|line| {
                let (label, cells) = line.split_at(21);
                let config = label[..18].trim().to_string();
                let remote = match label[18..].trim() {
                    "L" => false,
                    "R" => true,
                    other => panic!("row marker {other:?}"),
                };
                let cells = cells
                    .as_bytes()
                    .chunks(9)
                    .map(|c| std::str::from_utf8(c).unwrap().trim().to_string())
                    .collect();
                (config, remote, cells)
            })
            .collect()
    }

    #[test]
    fn percentile_cells_print_local_p95_and_the_worse_remote_group() {
        let app = AppKind::PetStore;
        let mut reports = run_sweep(app, true, 42);
        // One configuration with nothing measured: every cell prints "-".
        let blank = Config::all().len() - 1;
        reports[blank].stats = WorkloadStats::new();

        let p95 = |report: &ExperimentReport, group: &str, pattern: &str, page: &str| {
            report
                .stats
                .series(group, pattern, page)
                .map(|s| s.quantile(0.95))
        };
        let rows = parse_rows(&render_percentiles(app, &reports));
        assert_eq!(rows.len(), 2 * Config::all().len());
        let (mut dashes, mut split_remotes) = (0, 0);
        for (i, (config, remote, cells)) in rows.iter().enumerate() {
            let report = &reports[i / 2];
            assert_eq!(config, Config::all()[i / 2].name());
            assert_eq!(*remote, i % 2 == 1);
            assert_eq!(cells.len(), columns_of(app).len());
            for (cell, (pattern, page)) in cells.iter().zip(columns_of(app)) {
                let want = if *remote {
                    let groups: Vec<f64> = REMOTE_GROUPS
                        .iter()
                        .filter_map(|g| p95(report, g, pattern, page))
                        .collect();
                    if groups.len() == 2
                        && format!("{:.0}", groups[0]) != format!("{:.0}", groups[1])
                    {
                        split_remotes += 1;
                    }
                    groups.into_iter().reduce(f64::max)
                } else {
                    p95(report, "local", pattern, page)
                };
                match want {
                    Some(v) => assert_eq!(cell, &format!("{v:.0}"), "{config} {page}"),
                    None => {
                        assert_eq!(cell, "-", "{config} {page}");
                        dashes += 1;
                    }
                }
            }
        }
        assert!(
            rows[2 * blank..]
                .iter()
                .all(|(_, _, cells)| cells.iter().all(|c| c == "-")),
            "an unmeasured configuration prints only dashes"
        );
        assert!(dashes >= 2 * columns_of(app).len());
        assert!(
            split_remotes > 0,
            "some remote cell picks between two groups"
        );
    }
}
