//! Diagnostic types and rendering.
//!
//! Diagnostics carry stable codes (`E001`…, `W101`…) so CI and editors can
//! filter on them; rendering mimics rustc's `severity[code]: message` shape
//! with `-->` location lines. JSON and SARIF go through the workspace's
//! [`mutsvc_desim::json`] writer.

use mutsvc_desim::json::Writer;
use std::fmt::Write as _;

/// Diagnostic severity. Errors fail the build (`mutsvc-analyze` exits
/// nonzero); warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Violates a hard §4 invariant or makes the deployment unrunnable.
    Error,
    /// A wide-area performance or staleness hazard.
    Warning,
}

impl Severity {
    /// The rustc-style label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Where a diagnostic was found: the page (if page-scoped) and the
/// invocation path within its call tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Page name, when the diagnostic is tied to one page's tree.
    pub page: Option<String>,
    /// Invocation path (`web.doGet > Catalog.getItem`), or a descriptor
    /// location for deployment-level findings.
    pub path: String,
}

impl Span {
    /// A descriptor-level span (no page).
    pub fn descriptor(path: impl Into<String>) -> Self {
        Span {
            page: None,
            path: path.into(),
        }
    }

    /// A page-scoped span.
    pub fn page(page: impl Into<String>, path: impl Into<String>) -> Self {
        Span {
            page: Some(page.into()),
            path: path.into(),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E001`, `W105`, …).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The component involved, if one.
    pub component: Option<String>,
    /// The node involved, if one.
    pub node: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Location.
    pub span: Span,
}

/// One recorded node crossing, rendered with node names.
#[derive(Debug, Clone)]
pub struct CrossingNote {
    /// Originating node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Interaction kind label (`rmi`, `jndi`, `fetch`, `jdbc`).
    pub kind: String,
    /// Round trips this crossing costs.
    pub trips: u32,
    /// Whether the crossing traverses the wide area at all.
    pub wan: bool,
    /// Wide-area hops on the crossing's shortest path (0 = LAN-only; 2 or
    /// more means the crossing relays through multiple WAN legs, W112).
    pub wan_hops: u32,
}

/// The wide-area cost summary of one page.
#[derive(Debug, Clone)]
pub struct PageWanCost {
    /// Page name.
    pub page: String,
    /// Entry server name for the analyzed (remote) client.
    pub entry: String,
    /// Hop-weighted wide-area round trips in the call tree (HTTP envelope
    /// excluded); on a one-hop star this equals the plain WAN trip count.
    pub wan_round_trips: u32,
    /// The §4.2 budget that applies to this page.
    pub limit: u32,
    /// The page's staleness bound: the lattice join over its cached read
    /// sites (`fresh` when nothing is served from caches).
    pub staleness: String,
    /// Every node crossing on the synchronous path.
    pub crossings: Vec<CrossingNote>,
}

/// One row of the predicted fault-availability table.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// Episode name (`main-link-partition`, …).
    pub episode: String,
    /// Predicted availability of the remote edge-1 group.
    pub availability: f64,
}

/// The result of analyzing one application × configuration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Application name.
    pub app: String,
    /// Configuration name.
    pub config: String,
    /// Per-page wide-area cost summaries.
    pub pages: Vec<PageWanCost>,
    /// Findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Predicted per-episode availability (empty without a fault context).
    pub availability: Vec<AvailabilityRow>,
    /// Worklist sweeps until the staleness dataflow reached fixpoint.
    pub staleness_iterations: u32,
    /// Whether the staleness dataflow converged within its iteration cap.
    pub staleness_converged: bool,
}

impl Report {
    /// Whether any error-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The codes of all diagnostics, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Sorts diagnostics into a byte-stable order — errors first, then by
    /// (code, node, page, path, component, message) — and drops exact
    /// duplicates, so repeated runs render identical output.
    pub fn sort_diagnostics(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (
                a.severity,
                a.code,
                &a.node,
                &a.span.page,
                &a.span.path,
                &a.component,
                &a.message,
            )
                .cmp(&(
                    b.severity,
                    b.code,
                    &b.node,
                    &b.span.page,
                    &b.span.path,
                    &b.component,
                    &b.message,
                ))
        });
        self.diagnostics.dedup();
    }

    /// Renders the report in rustc-style plain text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "analyzing {} / {}", self.app, self.config);
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity.label(), d.code, d.message);
            let loc = match &d.span.page {
                Some(page) if d.span.path.is_empty() => page.clone(),
                Some(page) => format!("{page}: {}", d.span.path),
                None => d.span.path.clone(),
            };
            let _ = writeln!(out, "  --> {}/{}: {loc}", self.app, self.config);
            if let Some(c) = &d.component {
                let _ = writeln!(out, "   = component: {c}");
            }
            if let Some(n) = &d.node {
                let _ = writeln!(out, "   = node: {n}");
            }
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        let _ = writeln!(
            out,
            "{} page(s) analyzed, {errors} error(s), {warnings} warning(s)",
            self.pages.len()
        );
        for p in &self.pages {
            let _ = writeln!(
                out,
                "  {:<16} entry {:<6} WAN round trips {}/{}  staleness {}",
                p.page, p.entry, p.wan_round_trips, p.limit, p.staleness
            );
        }
        if !self.pages.is_empty() {
            let _ = writeln!(
                out,
                "staleness fixpoint: {} sweep(s){}",
                self.staleness_iterations,
                if self.staleness_converged {
                    ""
                } else {
                    " (DID NOT CONVERGE)"
                }
            );
        }
        for row in &self.availability {
            let _ = writeln!(
                out,
                "  predicted availability {:<20} {:.4}",
                row.episode, row.availability
            );
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("app").string(&self.app);
        w.key("config").string(&self.config);
        w.key("pages").begin_array();
        for p in &self.pages {
            w.begin_object().key("page").string(&p.page);
            w.key("entry").string(&p.entry);
            w.key("wan_round_trips").int(p.wan_round_trips);
            w.key("limit").int(p.limit);
            w.key("staleness").string(&p.staleness);
            w.key("crossings").begin_array();
            for c in &p.crossings {
                w.begin_object().key("from").string(&c.from);
                w.key("to").string(&c.to);
                w.key("kind").string(&c.kind);
                w.key("trips").int(c.trips);
                w.key("wan").bool(c.wan);
                w.key("wan_hops").int(c.wan_hops).end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().key("availability").begin_array();
        for row in &self.availability {
            w.begin_object().key("episode").string(&row.episode);
            w.key("availability").fixed(row.availability, 4);
            w.end_object();
        }
        w.end_array();
        w.key("staleness_iterations").int(self.staleness_iterations);
        w.key("staleness_converged").bool(self.staleness_converged);
        w.key("diagnostics").begin_array();
        let string_or_null = |w: &mut Writer<'_>, key: &str, s: &Option<String>| {
            match s {
                Some(s) => w.key(key).string(s),
                None => w.key(key).null(),
            };
        };
        for d in &self.diagnostics {
            w.begin_object().key("code").string(d.code);
            w.key("severity").string(d.severity.label());
            w.key("message").string(&d.message);
            string_or_null(&mut w, "component", &d.component);
            string_or_null(&mut w, "node", &d.node);
            string_or_null(&mut w, "page", &d.span.page);
            w.key("path").string(&d.span.path).end_object();
        }
        w.end_array().end_object();
        out
    }

    /// Renders this report as a single-run SARIF 2.1.0 document.
    pub fn to_sarif(&self) -> String {
        sarif_document(std::slice::from_ref(self))
    }

    /// Writes this report's findings as a SARIF `run` object.
    fn write_sarif_run(&self, w: &mut Writer<'_>) {
        w.begin_object().key("tool").begin_object();
        w.key("driver").begin_object();
        w.key("name").string("mutsvc-analyze");
        w.key("informationUri")
            .string("https://github.com/mutsvc/mutsvc");
        w.key("rules").begin_array();
        for doc in crate::explain::CODES {
            w.begin_object().key("id").string(doc.code);
            w.key("shortDescription").begin_object();
            w.key("text").string(doc.summary).end_object();
            w.key("fullDescription").begin_object();
            w.key("text").string(doc.explain).end_object();
            w.key("helpUri").string(&format!("paper:{}", doc.section));
            w.end_object();
        }
        w.end_array().end_object().end_object();
        w.key("results").begin_array();
        for d in &self.diagnostics {
            let location = match &d.span.page {
                Some(page) if d.span.path.is_empty() => {
                    format!("{}/{}/{page}", self.app, self.config)
                }
                Some(page) => format!("{}/{}/{page}: {}", self.app, self.config, d.span.path),
                None => format!("{}/{}: {}", self.app, self.config, d.span.path),
            };
            w.begin_object().key("ruleId").string(d.code);
            w.key("level").string(d.severity.label());
            w.key("message").begin_object();
            w.key("text").string(&d.message).end_object();
            w.key("locations").begin_array().begin_object();
            w.key("logicalLocations").begin_array().begin_object();
            w.key("fullyQualifiedName").string(&location);
            w.end_object().end_array().end_object().end_array();
            w.end_object();
        }
        w.end_array().end_object();
    }
}

/// Renders a set of reports as one SARIF 2.1.0 document, one run per
/// report — the shape GitHub code-scanning ingests for PR annotations.
pub fn sarif_document(reports: &[Report]) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object();
    w.key("$schema")
        .string("https://json.schemastore.org/sarif-2.1.0.json");
    w.key("version").string("2.1.0");
    w.key("runs").begin_array();
    for report in reports {
        report.write_sarif_run(&mut w);
    }
    w.end_array().end_object();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            app: "petstore".into(),
            config: "remote-facade".into(),
            pages: vec![PageWanCost {
                page: "Item".into(),
                entry: "edge1".into(),
                wan_round_trips: 1,
                limit: 1,
                staleness: "fresh".into(),
                crossings: vec![CrossingNote {
                    from: "edge1".into(),
                    to: "main".into(),
                    kind: "rmi".into(),
                    trips: 1,
                    wan: true,
                    wan_hops: 1,
                }],
            }],
            diagnostics: vec![Diagnostic {
                code: "W103",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: "stub \"caching\" disabled".into(),
                span: Span::descriptor("descriptor.stub_caching"),
            }],
            availability: vec![AvailabilityRow {
                episode: "main-link-partition".into(),
                availability: 0.9876,
            }],
            staleness_iterations: 2,
            staleness_converged: true,
        }
    }

    #[test]
    fn text_rendering_is_rustc_shaped() {
        let text = sample().render_text();
        assert!(text.contains("warning[W103]:"), "{text}");
        assert!(text.contains("--> petstore/remote-facade"), "{text}");
        assert!(
            text.contains("1 error(s)") || text.contains("0 error(s)"),
            "{text}"
        );
    }

    #[test]
    fn json_escapes_and_nests() {
        let json = sample().to_json();
        assert!(json.contains("\"code\":\"W103\""), "{json}");
        assert!(json.contains("stub \\\"caching\\\" disabled"), "{json}");
        assert!(json.contains("\"wan\":true"), "{json}");
        assert!(json.contains("\"component\":null"), "{json}");
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = sample();
        r.diagnostics.push(Diagnostic {
            code: "E001",
            severity: Severity::Error,
            component: None,
            node: None,
            message: "x".into(),
            span: Span::default(),
        });
        r.sort_diagnostics();
        assert_eq!(r.diagnostics[0].code, "E001");
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec!["E001", "W103"]);
    }

    #[test]
    fn sort_is_total_and_dedupes() {
        let mk = |code: &'static str, node: Option<&str>, page: Option<&str>| Diagnostic {
            code,
            severity: Severity::Warning,
            component: None,
            node: node.map(String::from),
            message: "m".into(),
            span: Span {
                page: page.map(String::from),
                path: String::new(),
            },
        };
        let mut r = sample();
        r.diagnostics = vec![
            mk("W105", Some("edge2"), Some("Item")),
            mk("W101", Some("edge1"), Some("Main")),
            mk("W101", Some("edge1"), Some("Main")), // exact duplicate
            mk("W101", Some("edge1"), Some("Item")),
        ];
        r.sort_diagnostics();
        let keys: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.page.clone().unwrap()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("W101", "Item".to_string()),
                ("W101", "Main".to_string()),
                ("W105", "Item".to_string()),
            ],
            "sorted by (code, node, page) with duplicates dropped"
        );
        // Idempotent: a second sort changes nothing (byte stability).
        let before = r.render_text();
        r.sort_diagnostics();
        assert_eq!(before, r.render_text());
    }

    #[test]
    fn sarif_has_2_1_0_shape() {
        let sarif = sample().to_sarif();
        // Document envelope.
        assert!(sarif.starts_with("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"runs\":[{"));
        // Tool driver with the full rule registry.
        assert!(sarif.contains("\"tool\":{\"driver\":{\"name\":\"mutsvc-analyze\""));
        for doc in crate::explain::CODES {
            assert!(
                sarif.contains(&format!("\"id\":\"{}\"", doc.code)),
                "rule {} missing",
                doc.code
            );
        }
        // Results reference rules by id with level and logical location.
        assert!(sarif.contains("\"ruleId\":\"W103\""));
        assert!(sarif.contains("\"level\":\"warning\""));
        assert!(sarif.contains("\"logicalLocations\":[{\"fullyQualifiedName\":"));
        // Multi-report documents hold one run per report.
        let two = sarif_document(&[sample(), sample()]);
        assert_eq!(two.matches("\"results\":[").count(), 2);
    }

    #[test]
    fn text_renders_staleness_and_availability() {
        let text = sample().render_text();
        assert!(text.contains("staleness fresh"), "{text}");
        assert!(text.contains("staleness fixpoint: 2 sweep(s)"), "{text}");
        assert!(
            text.contains("predicted availability main-link-partition"),
            "{text}"
        );
        assert!(text.contains("0.9876"), "{text}");
        let json = sample().to_json();
        assert!(json.contains("\"staleness\":\"fresh\""), "{json}");
        assert!(json.contains("\"wan_hops\":1"), "{json}");
        assert!(
            json.contains(
                "\"availability\":[{\"episode\":\"main-link-partition\",\"availability\":0.9876}]"
            ),
            "{json}"
        );
        assert!(json.contains("\"staleness_converged\":true"), "{json}");
    }
}
