//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a layer name, start and end (seconds since the tracer's
//! epoch), an optional parent span and a request id shared by every span
//! of one request. Spans stay in memory and are written out as JSON lines
//! when the run ends. A layer's self time is its spans' durations minus
//! the part of each interval that child spans cover.

use crate::stats::median;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Spans open on this thread, innermost last: the implicit parent of
    /// the next [`Tracer::enter`].
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span whose parent is the innermost span open on
    /// this thread.
    pub fn enter<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned by a panicking thread");
            let start_s = self.secs();
            spans.push(Span { name, start_s, end_s: start_s, parent, request });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end_s = self.secs();
        self.spans.lock().expect("span log poisoned by a panicking thread")[id].end_s = end_s;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking thread").clone()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn maybe<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.enter(name, request, f),
        None => f(),
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_s, s.end_s, s.request
        )?;
    }
    out.flush()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals inside it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_s - s.start_s) - covered(kids, s.start_s, s.end_s))
        .collect()
}

/// Summed self time per layer name.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.name).or_insert(0.0) += t;
    }
    by_layer
}

/// Summed duration of the root spans (the end-to-end spans).
pub fn root_time(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_s - s.start_s).sum()
}

/// Share of the root spans' time that their named child layers account
/// for: one minus the roots' own self time over their duration. The rest
/// is time the end-to-end span spent outside every traced layer.
pub fn layer_share(spans: &[Span]) -> f64 {
    let root_self: f64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, t)| t)
        .sum();
    let total = root_time(spans);
    if total > 0.0 {
        1.0 - root_self / total
    } else {
        0.0
    }
}

/// Median cost in seconds of recording one span: [`Tracer::enter`] around
/// an empty closure, timed in batches on a scratch tracer.
pub fn span_cost_s() -> f64 {
    const BATCHES: usize = 21;
    const PER_BATCH: usize = 2000;
    let tracer = Tracer::new();
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..PER_BATCH {
                tracer.enter("probe", i as u64, || std::hint::black_box(i));
            }
            t.elapsed().as_secs_f64() / PER_BATCH as f64
        })
        .collect();
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span { name, start_s, end_s, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 5.0, 6.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 1.0, 5.0, Some(0)),
            span("y", 3.0, 7.0, Some(0)),
            // Sticks out past the parent: only the inside part counts.
            span("z", 9.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn nested_self_times_sum_to_the_root_span() {
        let spans = vec![
            span("root", 0.0, 8.0, None),
            span("a", 0.5, 6.0, Some(0)),
            span("b", 1.0, 2.0, Some(1)),
            span("c", 2.0, 5.5, Some(1)),
            span("root", 10.0, 11.0, None),
        ];
        let by_layer = self_time_by_layer(&spans);
        let total: f64 = by_layer.values().sum();
        assert!((total - root_time(&spans)).abs() < 1e-12);
        assert!((by_layer["root"] - (0.5 + 2.0 + 1.0)).abs() < 1e-12);
        assert!((by_layer["a"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layer_share_is_the_part_of_the_roots_under_children() {
        let spans = vec![
            span("root", 0.0, 8.0, None),
            span("a", 0.5, 6.0, Some(0)),
            span("b", 1.0, 2.0, Some(1)),
            span("root", 10.0, 12.0, None),
            span("c", 10.0, 11.0, Some(3)),
        ];
        // Roots last 10 s; children cover 5.5 s of the first and 1 s of
        // the second, whatever the grandchildren do.
        assert!((layer_share(&spans) - 6.5 / 10.0).abs() < 1e-12);
        assert_eq!(layer_share(&[span("root", 0.0, 1.0, None)]), 0.0);
        assert_eq!(layer_share(&[]), 0.0);
    }

    #[test]
    fn span_cost_is_positive_and_small() {
        let c = span_cost_s();
        assert!(c > 0.0 && c < 1e-3, "{c}");
    }

    #[test]
    fn enter_links_parents_on_one_thread() {
        let tracer = Tracer::new();
        tracer.enter("outer", 7, || {
            tracer.enter("inner", 7, || ());
            tracer.enter("inner", 7, || ());
        });
        tracer.enter("outer", 8, || ());
        let spans = tracer.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        assert_eq!(spans[3].request, 8);
    }
}
