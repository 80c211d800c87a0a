//! Lightweight structured observability: a [`MetricsRegistry`] of named
//! counters, gauges and log-bucketed histograms, plus the [`Span`] timer
//! the rest of the workspace measures through.
//!
//! The design mirrors the rest of the workspace: zero dependencies,
//! hand-rolled JSON through [`crate::jsonio`], and deterministic output
//! (entries are kept name-sorted, so two registries holding the same data
//! render byte-identically). The hot paths never touch a registry —
//! per-access accounting lives in worker-local state (for the trace
//! pipelines, `symloc_trace::stream::MeteredSink`; for the job runner,
//! plain locals inside a pass) and is flushed into a registry once per
//! unit or batch, the same shard-then-merge shape as `ChunkPartial`s.
//!
//! Instrumentation built on this module is **result-invariant** by
//! construction: registries only ever receive copies of values the
//! pipelines already computed, and nothing downstream reads them back
//! into a computation.

use crate::jsonio::{self, JsonValue};
use std::fmt::Write as _;

/// The `"kind"` tag of a serialized metrics snapshot.
pub const METRICS_KIND: &str = "symloc_metrics";
/// The snapshot schema version.
pub const METRICS_VERSION: u64 = 1;

/// A log₂-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes or items).
///
/// Bucket `b` counts samples whose bit length is `b` — i.e. values in
/// `[2^(b-1), 2^b)` — with bucket 0 reserved for zero. Alongside the
/// buckets it keeps exact `count`, `sum`, `min` and `max`, so means are
/// exact and only quantiles are approximate (within a factor of two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls in: its bit length (0 for zero).
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The approximate `q`-quantile: the lower edge of the first bucket
    /// whose cumulative count reaches `q * count`. Exact to within the
    /// bucket's factor of two.
    ///
    /// `q` is clamped to `[0, 1]`, and NaN is treated as `0.0` — the
    /// 0-quantile (the histogram minimum). A midpoint default would
    /// invent precision an ill-defined request never had; clamp-to-min
    /// keeps the NaN answer the most conservative defined one.
    #[must_use]
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // `f64::clamp` propagates NaN, so map it out explicitly before
        // computing the walk target.
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << (b - 1) };
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`, bucketwise.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty `(bucket, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
    }
}

/// One named metric: a monotone counter, a last-write-wins gauge, or a
/// [`LogHistogram`] of samples.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone count; merging adds.
    Counter(u64),
    /// Point-in-time value; merging keeps the other side's value.
    Gauge(f64),
    /// Log-bucketed sample distribution; merging adds bucketwise.
    /// Boxed so the common counter/gauge entries stay pointer-sized.
    Histogram(Box<LogHistogram>),
}

impl Metric {
    /// The kind label used in renders and JSON section names.
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A name-sorted registry of [`Metric`]s with deterministic JSON and
/// text renders. See the [module docs](self) for the aggregation model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of named metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries, name-sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    fn entry(&mut self, name: &str, fresh: impl FnOnce() -> Metric) -> &mut Metric {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => &mut self.entries[i].1,
            Err(i) => {
                self.entries.insert(i, (name.to_string(), fresh()));
                &mut self.entries[i].1
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<&Metric> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Adds `delta` to the counter `name` (created at 0). A name that
    /// currently holds another metric kind is reset to a counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        let metric = self.entry(name, || Metric::Counter(0));
        match metric {
            Metric::Counter(v) => *v = v.saturating_add(delta),
            other => *other = Metric::Counter(delta),
        }
    }

    /// Sets the gauge `name`. Non-finite values are recorded as 0 so the
    /// JSON snapshot stays parseable. A name that currently holds another
    /// metric kind is reset to a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        *self.entry(name, || Metric::Gauge(0.0)) = Metric::Gauge(value);
    }

    /// Records `value` into the histogram `name` (created empty). A name
    /// that currently holds another metric kind is reset to a histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        let metric = self.entry(name, || Metric::Histogram(Box::default()));
        if !matches!(metric, Metric::Histogram(_)) {
            *metric = Metric::Histogram(Box::default());
        }
        if let Metric::Histogram(h) = metric {
            h.observe(value);
        }
    }

    /// The counter `name`, if present and a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.lookup(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`, if present and a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.lookup(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present and a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.lookup(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Merges `other` into `self`: counters add, histograms add
    /// bucketwise, gauges take `other`'s value — the worker-shard merge
    /// the trace pipelines use for `ChunkPartial`s, applied to metrics.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in other.iter() {
            match metric {
                Metric::Counter(v) => self.add(name, *v),
                Metric::Gauge(v) => self.set_gauge(name, *v),
                Metric::Histogram(h) => {
                    let mine = self.entry(name, || Metric::Histogram(Box::default()));
                    match mine {
                        Metric::Histogram(existing) => existing.merge(h),
                        other => *other = Metric::Histogram(h.clone()),
                    }
                }
            }
        }
    }

    /// Renders the registry as a JSON snapshot document:
    /// `{"kind": "symloc_metrics", "version": 1, "counters": {...},
    /// "gauges": {...}, "histograms": {...}}`. Deterministic: entries are
    /// name-sorted and floats use Rust's shortest round-trip formatting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"kind\": \"{METRICS_KIND}\",");
        let _ = writeln!(out, "  \"version\": {METRICS_VERSION},");
        let section = |out: &mut String, title: &str, body: String, trailing: bool| {
            let _ = write!(out, "  \"{title}\": {{{body}}}");
            out.push_str(if trailing { ",\n" } else { "\n" });
        };
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in self.iter() {
            let key = jsonio::escape(name);
            match metric {
                Metric::Counter(v) => {
                    let sep = if counters.is_empty() { "" } else { ", " };
                    let _ = write!(counters, "{sep}\"{key}\": {v}");
                }
                Metric::Gauge(v) => {
                    let sep = if gauges.is_empty() { "" } else { ", " };
                    let _ = write!(gauges, "{sep}\"{key}\": {v}");
                }
                Metric::Histogram(h) => {
                    let sep = if histograms.is_empty() { "" } else { ", " };
                    let mut buckets = String::new();
                    for (b, n) in h.nonzero_buckets() {
                        let bsep = if buckets.is_empty() { "" } else { ", " };
                        let _ = write!(buckets, "{bsep}[{b}, {n}]");
                    }
                    let _ = write!(
                        histograms,
                        "{sep}\"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \
                         \"max\": {}, \"buckets\": [{buckets}]}}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max()
                    );
                }
            }
        }
        section(&mut out, "counters", counters, true);
        section(&mut out, "gauges", gauges, true);
        section(&mut out, "histograms", histograms, false);
        out.push_str("}\n");
        out
    }

    /// Parses a snapshot previously rendered by [`MetricsRegistry::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on malformed JSON, a wrong `kind` tag,
    /// an unsupported version, or structurally invalid sections.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = jsonio::parse(text)?;
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some(METRICS_KIND) => {}
            other => return Err(format!("not a {METRICS_KIND} snapshot (kind = {other:?})")),
        }
        let version = doc.get("version").and_then(JsonValue::as_u64);
        if version != Some(METRICS_VERSION) {
            return Err(format!("unsupported metrics version {version:?}"));
        }
        let members = |key: &str| -> Result<&[(String, JsonValue)], String> {
            match doc.get(key) {
                Some(JsonValue::Object(members)) => Ok(members),
                None => Ok(&[]),
                Some(_) => Err(format!("metrics section {key:?} is not an object")),
            }
        };
        let mut registry = MetricsRegistry::new();
        for (name, value) in members("counters")? {
            let v = value
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} is not an unsigned integer"))?;
            registry.add(name, v);
        }
        for (name, value) in members("gauges")? {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("gauge {name:?} is not a number"))?;
            registry.set_gauge(name, v);
        }
        for (name, value) in members("histograms")? {
            let bad = || format!("histogram {name:?} is structurally invalid");
            let mut h = LogHistogram::new();
            h.count = value
                .get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(bad)?;
            h.sum = value
                .get("sum")
                .and_then(JsonValue::as_u64)
                .ok_or_else(bad)?;
            let min = value
                .get("min")
                .and_then(JsonValue::as_u64)
                .ok_or_else(bad)?;
            h.min = if h.count == 0 { u64::MAX } else { min };
            h.max = value
                .get("max")
                .and_then(JsonValue::as_u64)
                .ok_or_else(bad)?;
            let buckets = value
                .get("buckets")
                .and_then(JsonValue::as_array)
                .ok_or_else(bad)?;
            for pair in buckets {
                let pair = pair.as_array().ok_or_else(bad)?;
                let [b, n] = pair else { return Err(bad()) };
                let b = b.as_usize().filter(|&b| b < 65).ok_or_else(bad)?;
                h.buckets[b] = n.as_u64().ok_or_else(bad)?;
            }
            // Checked: bucket counts that overflow a u64 never add up to a
            // count, they must not wrap around to one.
            let total = h
                .buckets
                .iter()
                .try_fold(0u64, |sum, &n| sum.checked_add(n));
            if total != Some(h.count) {
                return Err(bad());
            }
            *registry.entry(name, || Metric::Histogram(Box::default())) =
                Metric::Histogram(Box::new(h));
        }
        Ok(registry)
    }

    /// Renders the registry as an aligned human-readable table (via
    /// [`render_table`]): one row per metric with its kind and a value
    /// summary.
    #[must_use]
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(v) => v.to_string(),
                    Metric::Gauge(v) => format!("{v:.2}"),
                    Metric::Histogram(h) => format!(
                        "n={} mean={:.0} min={} max={} p50~{}",
                        h.count(),
                        h.mean(),
                        h.min(),
                        h.max(),
                        h.approx_quantile(0.5)
                    ),
                };
                vec![name.to_string(), metric.kind_str().to_string(), value]
            })
            .collect();
        render_table(&["metric", "kind", "value"], &rows)
    }
}

/// Renders a column-aligned text table: a header row, a dashed rule, and
/// one line per row, each column padded to its widest cell. The shared
/// renderer behind [`MetricsRegistry::render_text`] and the bench gate's
/// verdict summary.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; columns];
    for (i, h) in header.iter().enumerate() {
        widths[i] = widths[i].max(h.chars().count());
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, width) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", String::as_str);
            let pad = width - cell.chars().count();
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            if i + 1 < widths.len() {
                out.push_str(&" ".repeat(pad));
            }
        }
        // Trailing pad on the last column is dropped above.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let mut out = String::new();
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    render_row(&mut out, &header_cells);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render_row(&mut out, &rule);
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// A started wall-clock timer. The single timing primitive the job
/// runner, the CLI and the benches share: start it, do the work, then
/// read [`Span::elapsed_nanos`] or fold it straight into a registry with
/// [`Span::record`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    started: std::time::Instant,
}

impl Span {
    /// Starts the timer.
    #[must_use]
    pub fn start() -> Self {
        Span {
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Span::start`] (saturating at
    /// `u64::MAX`).
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since [`Span::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Consumes the span, recording its elapsed time into the histogram
    /// `name` and returning the nanoseconds.
    pub fn record(self, registry: &mut MetricsRegistry, name: &str) -> u64 {
        let nanos = self.elapsed_nanos();
        registry.observe(name, nanos);
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LogHistogram::new();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        assert_eq!(h.approx_quantile(0.5), 0);
        for v in [0, 1, 1, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1009);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // 0 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 4 → bucket 3;
        // 1000 → bucket 10.
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 2), (2, 1), (3, 1), (10, 1)]);
        // Median lands in bucket 1 → lower edge 1.
        assert_eq!(h.approx_quantile(0.5), 1);
        assert_eq!(h.approx_quantile(1.0), 512);
        let mut other = LogHistogram::new();
        other.observe(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantile_requests_outside_the_unit_interval_clamp() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 1, 3, 4, 1000] {
            h.observe(v);
        }
        // q < 0 and q = NaN both answer as the 0-quantile; q > 1 as the
        // 1-quantile. Infinities ride the same clamp.
        assert_eq!(h.approx_quantile(-3.0), h.approx_quantile(0.0));
        assert_eq!(h.approx_quantile(7.0), h.approx_quantile(1.0));
        assert_eq!(h.approx_quantile(f64::NAN), h.approx_quantile(0.0));
        assert_eq!(h.approx_quantile(f64::NEG_INFINITY), h.approx_quantile(0.0));
        assert_eq!(h.approx_quantile(f64::INFINITY), h.approx_quantile(1.0));
        // And an empty histogram stays 0 even for ill-defined requests.
        let empty = LogHistogram::new();
        assert_eq!(empty.approx_quantile(f64::NAN), 0);
    }

    #[test]
    fn registry_records_and_reads_back() {
        let mut reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.add("a.count", 2);
        reg.add("a.count", 3);
        reg.set_gauge("b.rate", 1.5);
        reg.set_gauge("b.rate", 2.5);
        reg.observe("c.nanos", 100);
        reg.observe("c.nanos", 200);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.counter("a.count"), Some(5));
        assert_eq!(reg.gauge("b.rate"), Some(2.5));
        assert_eq!(reg.histogram("c.nanos").unwrap().count(), 2);
        assert_eq!(reg.counter("b.rate"), None);
        assert_eq!(reg.gauge("missing"), None);
        // Non-finite gauges are clamped so snapshots stay valid JSON.
        reg.set_gauge("b.rate", f64::INFINITY);
        assert_eq!(reg.gauge("b.rate"), Some(0.0));
        // Names stay sorted regardless of insertion order.
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.count", "b.rate", "c.nanos"]);
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_overwrites_gauges() {
        let mut a = MetricsRegistry::new();
        a.add("n", 1);
        a.set_gauge("g", 1.0);
        a.observe("h", 8);
        let mut b = MetricsRegistry::new();
        b.add("n", 2);
        b.add("only_b", 7);
        b.set_gauge("g", 9.0);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.counter("only_b"), Some(7));
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.add("sink.accesses", 123_456);
        reg.set_gauge("job.units_per_sec", 77.25);
        reg.set_gauge("job.eta_secs", -1.0);
        for v in [0, 5, 5000, 123_456_789] {
            reg.observe("job.unit_nanos", v);
        }
        let json = reg.to_json();
        let back = MetricsRegistry::from_json(&json).unwrap();
        assert_eq!(back, reg);
        assert_eq!(back.to_json(), json);
        // An empty registry round-trips too.
        let empty = MetricsRegistry::new();
        let back = MetricsRegistry::from_json(&empty.to_json()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        assert!(MetricsRegistry::from_json("not json").is_err());
        assert!(MetricsRegistry::from_json("{}").is_err());
        assert!(MetricsRegistry::from_json("{\"kind\": \"other\"}").is_err());
        let mut reg = MetricsRegistry::new();
        reg.add("n", 1);
        reg.observe("h", 3);
        let json = reg.to_json();
        assert!(
            MetricsRegistry::from_json(&json.replace("\"version\": 1", "\"version\": 9")).is_err()
        );
        assert!(
            MetricsRegistry::from_json(&json.replace("\"n\": 1", "\"n\": \"x\"")).is_err(),
            "non-numeric counter must be rejected"
        );
        // A histogram whose buckets disagree with its count is rejected.
        assert!(MetricsRegistry::from_json(&json.replace("\"count\": 1", "\"count\": 5")).is_err());
        // Truncation is a parse error, not a panic.
        assert!(MetricsRegistry::from_json(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![
            vec!["alpha".to_string(), "1".to_string()],
            vec!["b".to_string(), "22".to_string()],
        ];
        let text = render_table(&["name", "v"], &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "name   v");
        assert_eq!(lines[1], "-----  --");
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      22");
    }

    #[test]
    fn registry_renders_a_readable_table() {
        let mut reg = MetricsRegistry::new();
        reg.add("sink.accesses", 42);
        reg.set_gauge("job.units_per_sec", 3.5);
        reg.observe("job.unit_nanos", 1024);
        let text = reg.render_text();
        assert!(text.contains("metric"), "{text}");
        assert!(text.contains("sink.accesses"), "{text}");
        assert!(text.contains("counter"), "{text}");
        assert!(text.contains("gauge"), "{text}");
        assert!(text.contains("3.50"), "{text}");
        assert!(text.contains("p50~1024"), "{text}");
    }

    #[test]
    fn span_measures_and_records() {
        let mut reg = MetricsRegistry::new();
        let span = Span::start();
        let nanos = span.record(&mut reg, "t");
        assert!(reg.histogram("t").unwrap().count() == 1);
        assert!(reg.histogram("t").unwrap().sum() == nanos);
    }
}
