//! Spans recorded from the benchmark's own code around every call into a
//! layer of the program. Each thread owns a [`Tracer`]; spans stay in
//! memory and are merged and written out when the run ends. With tracing
//! off a span costs one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Free-form qualifier, e.g. the SQL template of a `sql` span.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span ids, unique across the run's threads.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub struct Tracer {
    on: bool,
    base: Instant,
    /// Parent of this tracer's outermost spans: the span that was open in
    /// the tracer this one was split from.
    root: Option<u64>,
    stack: Vec<usize>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool, base: Instant) -> Tracer {
        Tracer { on, base, root: None, stack: Vec::new(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, sharing this one's clock and mode; its
    /// outermost spans are children of the span open here.
    pub fn child(&self) -> Tracer {
        let root = self.stack.last().map(|&i| self.spans[i].id);
        Tracer { root, ..Tracer::new(self.on, self.base) }
    }

    pub fn begin(&mut self, name: &'static str, tag: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map(|&i| self.spans[i].id).or(self.root);
        self.stack.push(self.spans.len());
        let now = self.base.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            tag,
            start_ns: now,
            end_ns: now,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("span end without begin");
        self.spans[i].end_ns = self.base.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, tag);
        let out = f();
        self.end();
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Per-name totals: (calls, total seconds, self seconds). A span's self
/// time is its duration minus the time its child spans cover. Children on
/// the span's own thread run one after another, so their durations add up
/// to the covered time; a phase whose children run on several threads at
/// once is covered whole and has no self time.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e9;
        e.2 += own as f64 / 1e9;
    }
    out
}

/// Write spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.tag, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}
