//! What a run records: the span log of the traced run, and named metrics
//! with their units.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{median, percentile, tail_percentile};

/// One span recorded around a call into a layer.
struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
    ops: u64,
}

/// The traced run's span log, kept in memory and written when the run
/// ends. Disabled, it only times.
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// A span log that records (`on`) or only times.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` covering `ops` calls and returns
    /// its result with the host seconds it took.
    pub fn time<R>(&mut self, name: &str, ops: u64, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let started = Instant::now();
        let id = self.on.then(|| {
            self.recs.push(SpanRec {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_ns: started.duration_since(self.origin).as_nanos(),
                end_ns: 0,
                ops,
            });
            self.open.push(self.recs.len() - 1);
            self.recs.len() - 1
        });
        let result = f(self);
        let elapsed = started.elapsed();
        if let Some(id) = id {
            self.open.pop();
            self.recs[id].end_ns = (started + elapsed).duration_since(self.origin).as_nanos();
        }
        (result, elapsed.as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Writes the span log as JSON lines to `path`: id, parent, name, start
    /// and end (ns since the run began), calls covered, and self time (the
    /// span's duration minus the part its child spans cover).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut child_ns = vec![0u128; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}, \"self_ns\": {}}}",
                r.name,
                r.start_ns,
                r.end_ns,
                r.ops,
                (r.end_ns - r.start_ns).saturating_sub(child_ns[i])
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives it; non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Named metrics of one run, each with its unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Sets a timing as `name` (its median), `name.pNN` (the highest
    /// percentile with at least ten samples beyond it, when there is one)
    /// and `name.n` (the sample count).
    pub fn timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.set(name, median(samples), unit);
        if let Some(p) = tail_percentile(samples.len()) {
            self.set(&format!("{name}.p{p}"), percentile(samples, p), unit);
        }
        self.set(&format!("{name}.n"), samples.len() as f64, "count");
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.0)
    }

    /// Metric names and values, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.0))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
