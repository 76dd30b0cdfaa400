//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent, and the id of the
//! run (one measured operation) it belongs to. Each operation records
//! its spans in memory and hands them to the coordinator, which writes
//! them all out once, when the benchmark ends. A span's self time is its
//! duration minus its child spans; children nest inside their parent
//! because every span is a closure scope.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where traced runs write their spans.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A finished span as written to the trace file. Times are nanoseconds
/// since its operation's tracer started.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Run id: the measured operation the span belongs to.
    pub run: u64,
    /// Index of the span within its run.
    pub id: usize,
    /// Index of the enclosing span within the run, if any.
    pub parent: Option<usize>,
    /// Layer boundary the span wraps, e.g. `population.engine`.
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Duration minus the child spans' durations.
    pub self_ns: u64,
}

/// The span recorder of one operation. A disabled tracer runs every
/// closure untouched and records nothing, so the same workload code
/// serves timed and traced operations.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// Summed duration, in seconds, of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed duration, in seconds, of the spans named `name` inside a
    /// span named `ancestor`.
    pub fn seconds_under(&self, ancestor: &str, name: &str) -> f64 {
        let inside = |mut parent: Option<usize>| {
            while let Some(p) = parent {
                if self.spans[p].name == ancestor {
                    return true;
                }
                parent = self.spans[p].parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && inside(s.parent))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Every recorded span, in start order, as run `run`.
    pub fn records(&self, run: u64) -> Vec<SpanRecord> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| SpanRecord {
                run,
                id,
                parent: s.parent,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                self_ns: self.self_ns(id),
            })
            .collect()
    }
}

/// Write `spans` as one JSON object per line to `<OUT_DIR>/<file>`,
/// returning the path written.
pub fn write_spans(file: &str, spans: &[SpanRecord]) -> std::io::Result<PathBuf> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in spans {
        let line =
            serde_json::to_string(span).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let value = tr.span("outer", |tr| {
            busy(2);
            tr.span("inner", |_| busy(5));
            tr.span("inner", |_| busy(5));
            7
        });
        assert_eq!(value, 7);
        let spans = tr.records(3);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let duration = |s: &SpanRecord| s.end_ns - s.start_ns;
        let children = duration(&spans[1]) + duration(&spans[2]);
        assert_eq!(spans[0].self_ns, duration(&spans[0]) - children);
        assert_eq!(spans[1].self_ns, duration(&spans[1]));
        assert!(tr.seconds("inner") >= 0.010);
        assert_eq!(tr.seconds("absent"), 0.0);
        assert_eq!(tr.seconds_under("outer", "inner"), tr.seconds("inner"));
        assert_eq!(tr.seconds_under("inner", "inner"), 0.0);
        assert_eq!(tr.seconds_under("outer", "outer"), 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("outer", |tr| tr.span("inner", |_| 3)), 3);
        assert!(tr.records(1).is_empty());
    }

    #[test]
    fn span_records_round_trip_through_the_trace_file() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        let spans = tr.records(1);
        let file = format!("test-spans-{}.jsonl", std::process::id());
        let path = write_spans(&file, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let back: Vec<SpanRecord> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(back, spans);
    }
}
