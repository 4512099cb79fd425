//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span names the layer it times (`<layer>.<operation>`), its parent span
//! and the request it belongs to.  Spans recorded on one of `T` parallel
//! threads carry weight `1/T`, so a span's *wall-equivalent* time is its
//! duration times its weight.  A span's self time is its wall-equivalent
//! time minus that of its children; summed over every span this telescopes
//! to the wall time of the top-level spans, so the part of an iteration's
//! wall time no span covers is the benchmark's own glue: the residual.
//!
//! Spans named `bench.*` time the benchmark's own code (a thread pool, a
//! client session).  Their self time is idle or glue and counts toward the
//! residual, not toward any layer of the program.

use mbfi_core::report::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its tracer.
    pub id: usize,
    /// The span that caused this one (`None` at top level).
    pub parent: Option<usize>,
    /// The request (iteration, submission or campaign cell) it served.
    pub request: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// `1/T` for a span on one of `T` parallel threads.
    pub weight: f64,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn wall_equivalent_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * self.weight
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("id", self.id);
        obj.set("parent", self.parent.map_or(Json::Null, Json::from));
        obj.set("request", self.request);
        obj.set("name", self.name);
        obj.set("weight", self.weight);
        obj.set("start_ns", self.start_ns);
        obj.set("end_ns", self.end_ns);
        obj
    }
}

/// Where a new span hangs in the tree.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    parent: Option<usize>,
    request: u64,
    weight: f64,
}

impl Ctx {
    /// A top-level context for one request.
    pub fn request(request: u64) -> Ctx {
        Ctx {
            parent: None,
            request,
            weight: 1.0,
        }
    }

    /// The context handed to each of `threads` parallel threads.
    pub fn split(self, threads: usize) -> Ctx {
        Ctx {
            weight: self.weight / threads.max(1) as f64,
            ..self
        }
    }

    /// The same position in the tree, serving another request.
    pub fn for_request(self, request: u64) -> Ctx {
        Ctx { request, ..self }
    }
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `on == false` records nothing and adds no timing calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Time `f` as span `name` under `ctx`; `f` gets the context for its
    /// children.
    pub fn span<T>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            parent: Some(id),
            ..ctx
        });
        let end = Instant::now();
        let span = Span {
            id,
            parent: ctx.parent,
            request: ctx.request,
            name,
            weight: ctx.weight,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Wall-equivalent self time per layer, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let layer_of: BTreeMap<usize, &'static str> = spans.iter().map(|s| (s.id, s.layer())).collect();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let t = s.wall_equivalent_ns();
        *out.entry(s.layer()).or_insert(0.0) += t;
        if let Some(parent_layer) = s.parent.and_then(|p| layer_of.get(&p)) {
            *out.entry(parent_layer).or_insert(0.0) -= t;
        }
    }
    out
}

/// Summed duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64)
}

/// The share of `wall_ns` that no program layer's self time explains.
pub fn residual_frac(spans: &[Span], wall_ns: f64) -> f64 {
    let explained: f64 = self_times(spans)
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, ns)| ns)
        .sum();
    (wall_ns - explained) / wall_ns
}

/// Write spans as JSON lines, one per span, tagged with their iteration.
pub fn write_jsonl(
    path: &std::path::Path,
    iterations: &[(usize, Vec<Span>)],
) -> std::io::Result<()> {
    let mut out = String::new();
    for (iteration, spans) in iterations {
        for s in spans {
            let mut obj = s.to_json();
            obj.set("iteration", *iteration);
            out.push_str(&obj.render());
            out.push('\n');
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, weight: f64, ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            weight,
            start_ns: 0,
            end_ns: ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_parallel_children_are_weighted() {
        // A pool of 2 threads ran for 100 ns; its children ran 90 + 80 ns.
        let spans = vec![
            span(0, None, "sweep.run", 1.0, 400),
            span(1, None, "bench.pool", 1.0, 100),
            span(2, Some(1), "experiment.run", 0.5, 90),
            span(3, Some(1), "experiment.run", 0.5, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["sweep"], 400.0);
        assert_eq!(t["experiment"], 85.0);
        assert_eq!(t["bench"], 15.0);
        // 520 ns of wall: 400 + 85 explained, 15 idle in the pool and 20
        // outside any span.
        let r = residual_frac(&spans, 520.0);
        assert!((r - 35.0 / 520.0).abs() < 1e-12);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(Ctx::request(0), "ir.lower", |_| 7);
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        t.span(Ctx::request(3), "ir.lower", |c| {
            t.span(c, "golden.capture", |_| ());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "golden.capture");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.request == 3));
    }
}
