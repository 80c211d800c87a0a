//! In-memory spans recorded around calls into each layer's public
//! functions. A span has a name, start, end and the span that was open
//! when it started; a layer's self time is its spans' durations minus the
//! parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-layer totals over all of a layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls the closure, which is the untraced baseline of the overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// A mark before the next span, for [`Tracer::layers_from`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Calls, total and self nanoseconds per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        self.layers_from(0)
    }

    /// [`Tracer::layers`] over the spans started since `mark`, taken while
    /// no span was open.
    pub fn layers_from(&self, mark: usize) -> BTreeMap<&'static str, LayerTime> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent - mark] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(children);
        }
        layers
    }

    /// Self nanoseconds of one layer (0 when it never ran).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |l| l.self_ns as f64)
    }

    /// Mean self nanoseconds per call of one layer (0 when it never ran).
    pub fn per_call_ns(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / l.calls.max(1) as f64)
    }

    /// Prints every layer's self milliseconds and calls under `title`.
    pub fn print_layers(&self, title: &str) {
        println!("{title} layers (self ms, calls):");
        for (name, layer) in &self.layers() {
            println!(
                "  {name:20} {:>12.3} {:>8}",
                layer.self_ns as f64 / 1e6,
                layer.calls
            );
        }
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let layers = t.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < inner.self_ns);
    }

    #[test]
    fn layers_from_a_mark_see_only_later_spans() {
        let mut t = Tracer::new(true);
        t.span("a", |_| ());
        let mark = t.mark();
        t.span("a", |t| t.span("b", |_| ()));
        let later = t.layers_from(mark);
        assert_eq!((later["a"].calls, later["b"].calls), (1, 1));
        assert_eq!(t.layers()["a"].calls, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.layers().is_empty());
    }
}
