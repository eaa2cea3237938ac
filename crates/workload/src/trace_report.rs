//! Trace artifacts: per-page critical-path aggregation and exporters.
//!
//! The driver collects raw [`CompletedTrace`]s (desim layer, index-based
//! node ids). This module resolves them against the run's topology into
//! human-readable artifacts:
//!
//! * [`jsonl`] — the compact span log: one JSON object per span, traces in
//!   commit order, spans in creation order. Byte-identical across runs with
//!   the same seed and configuration (the determinism artifact).
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing`. Each request gets its own lane; each
//!   `Parallel` arm gets a sub-lane so `B`/`E` pairs nest properly.
//! * [`telemetry_json`] — the telemetry snapshot series: gauge names, then
//!   one `{at_s, values}` object per snapshot row.
//! * [`page_breakdown`] — the paper-table artifact: mean response time per
//!   page × client group, decomposed along the critical path into WAN
//!   propagation, serialization, queueing, server service and DB time, with
//!   both logical (binder-derived) and critical-path WAN round trips.

use mutsvc_desim::json::Writer;
use mutsvc_desim::recorder::Recorder;
use mutsvc_desim::trace::{critical_path, CompletedTrace, PathBreakdown, Span, SpanKind};

/// A run's trace payload, resolved enough to export without the world.
#[derive(Debug)]
pub struct TraceData {
    /// Committed span trees in completion order.
    pub traces: Vec<CompletedTrace>,
    /// Node names by node index.
    pub node_names: Vec<String>,
    /// Link names by link index ("main->router", …).
    pub link_names: Vec<String>,
    /// Client-group names by group index.
    pub group_names: Vec<String>,
    /// Node index hosting the database.
    pub db_node: u32,
    /// Telemetry snapshot gauges, one row per snapshot: row `i` holds the
    /// values sampled at `(i+1)·window`. `None` when the series is off.
    pub telemetry: Option<Recorder>,
}

/// Mean critical-path decomposition of one page for one client group.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTraceRow {
    /// Client group name.
    pub group: String,
    /// Page label.
    pub page: &'static str,
    /// Measured traces aggregated.
    pub count: u64,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// Mean WAN round trips per the binder's crossing list (static
    /// accounting; excludes sampled protocol chatter such as DGC pings).
    pub wan_rts_logical: f64,
    /// Mean WAN round trips observed on the critical path (includes
    /// protocol chatter; excludes off-path `Parallel` arms and forks).
    pub wan_rts_critical: f64,
    /// Mean WAN propagation on the critical path (ms).
    pub wan_propagation_ms: f64,
    /// Mean serialization time on the critical path (ms).
    pub serialization_ms: f64,
    /// Mean queueing (links + non-DB CPUs) on the critical path (ms).
    pub queueing_ms: f64,
    /// Mean non-DB CPU service on the critical path (ms).
    pub service_ms: f64,
    /// Mean DB time (service + queueing) on the critical path (ms).
    pub db_ms: f64,
    /// Mean pure-delay time on the critical path (ms).
    pub delay_ms: f64,
}

/// Aggregates measured traces into per-(group, page) critical-path rows,
/// sorted by group then page for deterministic output.
pub fn page_breakdown(data: &TraceData) -> Vec<PageTraceRow> {
    struct Acc {
        count: u64,
        duration_ms: f64,
        logical: f64,
        path: PathBreakdown,
    }
    let db = data.db_node;
    let mut keys: Vec<(u32, &'static str)> = Vec::new();
    let mut accs: Vec<Acc> = Vec::new();
    for trace in &data.traces {
        if !trace.meta.measured {
            continue;
        }
        let key = (trace.meta.group, trace.meta.label);
        let idx = match keys.iter().position(|&k| k == key) {
            Some(i) => i,
            None => {
                keys.push(key);
                accs.push(Acc {
                    count: 0,
                    duration_ms: 0.0,
                    logical: 0.0,
                    path: PathBreakdown::default(),
                });
                keys.len() - 1
            }
        };
        let bd = critical_path(trace, |n| n == db);
        let acc = &mut accs[idx];
        acc.count += 1;
        acc.duration_ms += trace.duration.as_millis_f64();
        acc.logical += if trace.meta.wan_rts_logical.is_finite() {
            trace.meta.wan_rts_logical
        } else {
            0.0
        };
        acc.path.accumulate(&bd);
    }
    let mut rows: Vec<PageTraceRow> = keys
        .iter()
        .zip(accs.iter())
        .map(|(&(group, page), acc)| {
            let n = acc.count as f64;
            PageTraceRow {
                group: data
                    .group_names
                    .get(group as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("group{group}")),
                page,
                count: acc.count,
                mean_ms: acc.duration_ms / n,
                wan_rts_logical: acc.logical / n,
                wan_rts_critical: acc.path.wan_round_trips / n,
                wan_propagation_ms: acc.path.wan_propagation.as_millis_f64() / n,
                serialization_ms: acc.path.serialization.as_millis_f64() / n,
                queueing_ms: (acc.path.link_queueing + acc.path.cpu_queueing).as_millis_f64() / n,
                service_ms: acc.path.service.as_millis_f64() / n,
                db_ms: acc.path.db_time.as_millis_f64() / n,
                delay_ms: acc.path.delay.as_millis_f64() / n,
            }
        })
        .collect();
    rows.sort_by(|a, b| (&a.group, a.page).cmp(&(&b.group, b.page)));
    rows
}

fn node_name(data: &TraceData, id: u32) -> String {
    data.node_names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("node{id}"))
}

fn link_name(data: &TraceData, id: u32) -> String {
    data.link_names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("link{id}"))
}

fn group_name(data: &TraceData, group: u32) -> &str {
    data.group_names
        .get(group as usize)
        .map_or("?", String::as_str)
}

/// Renders the compact JSONL span log: one line per span, `\n`-terminated.
///
/// The request span's line carries the trace metadata (page, group, client
/// and entry nodes, logical WAN round trips); leaf lines carry their
/// kind-specific payload. Output is a pure function of the committed
/// traces, so identical seeds and configurations produce byte-identical
/// logs.
pub fn jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    for trace in &data.traces {
        for span in &trace.spans {
            render_span_line(data, trace, span, &mut Writer::new(&mut out));
            out.push('\n');
        }
    }
    out
}

fn render_span_line(data: &TraceData, trace: &CompletedTrace, span: &Span, w: &mut Writer<'_>) {
    w.begin_object();
    w.key("trace").string(&format!("{:016x}", trace.trace_id));
    w.key("span").int(span.id);
    // NO_PARENT (u32::MAX) prints as -1.
    w.key("parent").int(span.parent as i32);
    w.key("kind").string(span.kind.label());
    w.key("start_us").int(span.start.as_micros());
    w.key("end_us").int(span.end.as_micros());
    match span.kind {
        SpanKind::Request => {
            let meta = &trace.meta;
            w.key("page").string(meta.label);
            w.key("group").string(group_name(data, meta.group));
            w.key("client").string(&node_name(data, meta.client));
            w.key("entry").string(&node_name(data, meta.entry));
            w.key("measured").bool(meta.measured);
            w.key("wan_rts_logical").float(meta.wan_rts_logical);
        }
        SpanKind::Cpu { node, .. } => {
            w.key("node").string(&node_name(data, node));
        }
        SpanKind::Hop { link, .. } => {
            w.key("link").string(&link_name(data, link));
        }
        SpanKind::Note { name, value } => {
            w.key("note").string(name);
            w.key("value").int(value);
        }
        SpanKind::Fault { link, node } => {
            // u32::MAX marks "not the failing element" — a fault names either
            // the downed link or the crashed node, never both.
            if link != u32::MAX {
                w.key("link").string(&link_name(data, link));
            }
            if node != u32::MAX {
                w.key("node").string(&node_name(data, node));
            }
        }
        SpanKind::Program | SpanKind::Branch | SpanKind::Delay | SpanKind::Retry { .. } => {}
    }
    write_measures(w, span.kind);
    w.end_object();
}

/// Writes the measured fields of a CPU, hop or retry span — shared by the
/// span log and the Chrome event's `args`.
fn write_measures(w: &mut Writer<'_>, kind: SpanKind) {
    match kind {
        SpanKind::Cpu { service_us, .. } => {
            w.key("service_us").int(service_us);
        }
        SpanKind::Hop {
            bytes,
            propagation_us,
            serialization_us,
            wan,
            ..
        } => {
            w.key("bytes").int(bytes);
            w.key("prop_us").int(propagation_us);
            w.key("ser_us").int(serialization_us);
            w.key("wan").bool(wan);
        }
        SpanKind::Retry { attempt, failover } => {
            w.key("attempt").int(attempt);
            w.key("failover").bool(failover);
        }
        _ => {}
    }
}

/// Writes the telemetry series as `{"names":[…],"snapshots":[…]}`: row `i`
/// of the recorder becomes `{"at_s":(i+1)·window,"values":[…]}`, values to
/// two decimals. A run without telemetry writes both lists empty.
pub fn telemetry_json(data: &TraceData, w: &mut Writer<'_>) {
    w.begin_object().key("names").begin_array();
    for name in data.telemetry.iter().flat_map(Recorder::gauge_names) {
        w.string(name);
    }
    w.end_array().key("snapshots").begin_array();
    if let Some(rec) = &data.telemetry {
        for row in rec.rows() {
            let at = rec.window() * (row.index + 1);
            w.begin_object().key("at_s").fixed(at.as_secs_f64(), 1);
            w.key("values").begin_array();
            for &v in &row.gauges {
                w.fixed(v, 2);
            }
            w.end_array().end_object();
        }
    }
    w.end_array().end_object();
}

/// Renders Chrome `trace_event` JSON (the object form, `traceEvents` key),
/// loadable in Perfetto and `chrome://tracing`.
///
/// Lane assignment: each traced request gets its own `tid`, and each
/// `Parallel` arm (`Branch` span) gets a fresh sub-lane `tid`, so every
/// lane's `B`/`E` events are strictly nested. Timestamps are simulated
/// microseconds. At most `max_traces` traces are exported (0 = all) —
/// span logs stay complete via [`jsonl`]; the Chrome view is for eyeballs.
pub fn chrome_trace_json(data: &TraceData, max_traces: usize) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object().key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array().line_break();
    w.begin_object().key("ph").string("M");
    w.key("pid").int(1);
    w.key("name").string("process_name");
    w.key("args");
    w.begin_object().key("name").string("mutsvc-sim");
    w.end_object().end_object();
    let mut next_tid: u64 = 1;
    let take = if max_traces == 0 {
        data.traces.len()
    } else {
        max_traces.min(data.traces.len())
    };
    for trace in &data.traces[..take] {
        // children[i]: child span ids of span i, in creation order.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); trace.spans.len()];
        for span in &trace.spans[1..] {
            children[span.parent as usize].push(span.id);
        }
        let lane = next_tid;
        next_tid += 1;
        let group = group_name(data, trace.meta.group);
        let thread = format!("{} @{group}", trace.meta.label);
        w.line_break().begin_object().key("ph").string("M");
        w.key("pid").int(1);
        w.key("tid").int(lane);
        w.key("name").string("thread_name");
        w.key("args");
        w.begin_object().key("name").string(&thread).end_object();
        w.end_object();
        emit_span(data, trace, &children, 0, lane, &mut next_tid, &mut w);
    }
    w.line_break().end_array().end_object();
    out.push('\n');
    out
}

fn span_display_name(data: &TraceData, trace: &CompletedTrace, span: &Span) -> String {
    match span.kind {
        SpanKind::Request => format!("{:016x} {}", trace.trace_id, trace.meta.label),
        SpanKind::Program => "program".to_string(),
        SpanKind::Branch => "branch".to_string(),
        SpanKind::Cpu { node, .. } => format!("cpu {}", node_name(data, node)),
        SpanKind::Hop { link, wan, .. } => format!(
            "{} {}",
            if wan { "wan hop" } else { "hop" },
            link_name(data, link)
        ),
        SpanKind::Delay => "delay".to_string(),
        SpanKind::Note { name, .. } => name.to_string(),
        SpanKind::Fault { link, node } => {
            if node != u32::MAX {
                format!("fault node {}", node_name(data, node))
            } else {
                format!("fault link {}", link_name(data, link))
            }
        }
        SpanKind::Retry { attempt, .. } => format!("retry #{attempt}"),
    }
}

fn emit_span(
    data: &TraceData,
    trace: &CompletedTrace,
    children: &[Vec<u32>],
    span_id: u32,
    tid: u64,
    next_tid: &mut u64,
    w: &mut Writer<'_>,
) {
    let span = &trace.spans[span_id as usize];
    let event = |w: &mut Writer<'_>, ph: &str, ts: u64| {
        w.line_break().begin_object().key("ph").string(ph);
        if ph == "i" {
            w.key("s").string("t");
        }
        w.key("pid").int(1);
        w.key("tid").int(tid);
        w.key("ts").int(ts);
    };
    if let SpanKind::Note { name, value } = span.kind {
        event(w, "i", span.start.as_micros());
        w.key("name").string(name);
        w.key("args");
        w.begin_object().key("value").int(value).end_object();
        w.end_object();
        return;
    }
    let name = span_display_name(data, trace, span);
    event(w, "B", span.start.as_micros());
    w.key("name").string(&name);
    match span.kind {
        SpanKind::Request => {
            w.key("args").begin_object();
            w.key("wan_rts_logical").float(trace.meta.wan_rts_logical);
            w.end_object();
        }
        SpanKind::Cpu { .. } | SpanKind::Hop { .. } | SpanKind::Retry { .. } => {
            w.key("args").begin_object();
            write_measures(w, span.kind);
            w.end_object();
        }
        _ => {}
    }
    w.end_object();
    for &child in &children[span_id as usize] {
        let child_span = &trace.spans[child as usize];
        let child_tid = if matches!(child_span.kind, SpanKind::Branch) {
            let t = *next_tid;
            *next_tid += 1;
            t
        } else {
            tid
        };
        emit_span(data, trace, children, child, child_tid, next_tid, w);
    }
    event(w, "E", span.end.as_micros());
    w.key("name").string(&name).end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::trace::{TraceConfig, TraceMeta, Tracer};
    use mutsvc_desim::SimTime;

    fn sample_data() -> TraceData {
        let mut t = Tracer::new(TraceConfig::full());
        let us = SimTime::from_micros;
        let meta = TraceMeta {
            label: "Item",
            group: 1,
            client: 4,
            entry: 2,
            measured: true,
            wan_rts_logical: f64::NAN,
        };
        let root = t.start_request(us(10), meta).unwrap();
        let prog = t.open_span(root, us(10), SpanKind::Program);
        t.leaf(
            prog,
            us(10),
            us(20),
            SpanKind::Cpu {
                node: 2,
                service_us: 8,
            },
        );
        t.leaf(
            prog,
            us(20),
            us(120),
            SpanKind::Hop {
                link: 0,
                bytes: 512,
                propagation_us: 90,
                serialization_us: 5,
                wan: true,
            },
        );
        let b1 = t.open_span(prog, us(120), SpanKind::Branch);
        t.leaf(b1, us(120), us(130), SpanKind::Delay);
        t.close_span(b1, us(130));
        let b2 = t.open_span(prog, us(120), SpanKind::Branch);
        t.leaf(
            b2,
            us(120),
            us(145),
            SpanKind::Cpu {
                node: 7,
                service_us: 25,
            },
        );
        t.close_span(b2, us(145));
        t.note(prog, us(145), "fork", 3);
        t.close_span(prog, us(145));
        t.set_logical_wan(root, 1.0);
        t.finish_request(root, us(150));
        TraceData {
            traces: t.take_finished(),
            node_names: vec![
                "main".into(),
                "router".into(),
                "edge1".into(),
                "db".into(),
                "client-edge1".into(),
                "x5".into(),
                "x6".into(),
                "dbn".into(),
            ],
            link_names: vec!["edge1->router".into()],
            group_names: vec!["local".into(), "remote1".into()],
            db_node: 7,
            telemetry: None,
        }
    }

    #[test]
    fn jsonl_is_one_line_per_span_with_meta() {
        let data = sample_data();
        let log = jsonl(&data);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), data.traces[0].spans.len());
        assert!(lines[0].contains("\"kind\":\"request\""));
        assert!(lines[0].contains("\"page\":\"Item\""));
        assert!(lines[0].contains("\"group\":\"remote1\""));
        assert!(lines[0].contains("\"wan_rts_logical\":1"));
        assert!(lines[0].contains("\"parent\":-1"));
        assert!(log.contains("\"link\":\"edge1->router\""));
        assert!(log.contains("\"wan\":true"));
        assert!(log.contains("\"note\":\"fork\""));
        // Determinism: rendering is a pure function of the data.
        assert_eq!(log, jsonl(&data));
    }

    #[test]
    fn chrome_json_has_balanced_nested_be_pairs() {
        let data = sample_data();
        let json = chrome_trace_json(&data, 0);
        let doc = mutsvc_desim::json::parse(&json).expect("well-formed JSON");
        let events = doc.array_at("traceEvents").unwrap();
        let count = |ph: &str| events.iter().filter(|e| e.str_at("ph") == Ok(ph)).count();
        assert_eq!(count("B"), count("E"));
        // request + program + cpu + hop + 2 branches + delay + branch-cpu
        assert_eq!(count("B"), 8);
        assert_eq!(count("i"), 1, "fork note exported");
        assert!(json.contains("wan hop edge1->router"));
        assert!(json.ends_with("]}\n"));
        // Branch arms live on their own lanes.
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"tid\":3"));
    }

    #[test]
    fn page_breakdown_aggregates_measured_traces() {
        let data = sample_data();
        let rows = page_breakdown(&data);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.group, "remote1");
        assert_eq!(row.page, "Item");
        assert_eq!(row.count, 1);
        assert_eq!(row.wan_rts_logical, 1.0);
        assert_eq!(row.wan_rts_critical, 0.5);
        // db node is 7: the long branch's cpu is DB time.
        assert!((row.db_ms - 0.025).abs() < 1e-9);
        assert!((row.wan_propagation_ms - 0.09).abs() < 1e-9);
        assert!((row.mean_ms - 0.14).abs() < 1e-9);
    }
}
