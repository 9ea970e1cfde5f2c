//! In-memory spans for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! (name, layer, start, end, parent, op id, thread). Spans stay in memory
//! and are written out once, at exit. A span's self time is its duration
//! minus the durations of its children on the same thread, minus the time
//! covered by its children on other threads (a worker pool runs them while
//! the parent waits). Self times add up to the busy time of all threads;
//! the self time of spans that belong to no layer (op, pool and job
//! wrappers) is the explicit `unattributed` remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers of the system, in report order.
pub const LAYERS: [&str; 9] = [
    "tinyvm",
    "netsim",
    "trace",
    "mlcore",
    "core",
    "tracestore",
    "apps",
    "service",
    "staticlint",
];

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub op: u64,
    /// What was called.
    pub name: &'static str,
    /// The layer it belongs to; empty for op and job wrappers.
    pub layer: &'static str,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn thread_no() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static NO: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the new span's id so nested
    /// calls can name it as their parent.
    pub fn span<R>(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            op,
            name,
            layer,
            thread: thread_no(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Per-layer self time and the totals they add up to.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self ms per layer, summed over all ops.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Self ms of spans without a layer.
    pub unattributed_ms: f64,
    /// Busy ms: the sum of all self times, i.e. the time some thread
    /// spent inside a span and not waiting on another thread's span.
    pub busy_ms: f64,
    /// Summed duration per span name, in ms.
    pub by_name: BTreeMap<&'static str, f64>,
}

/// Computes self times over a span list. A span waiting on children that
/// run on other threads (a pool) is not busy while any of them runs: the
/// union of those children's intervals is taken off its self time too.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut remote: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut out = SelfTimes::default();
    for s in spans {
        *out.by_name.entry(s.name).or_default() += s.dur_ns() as f64 / 1e6;
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            if p.thread == s.thread {
                *child_ns.entry(p.id).or_default() += s.dur_ns();
            } else {
                remote.entry(p.id).or_default().push((s.start_ns, s.end_ns));
            }
        }
    }
    for s in spans {
        let covered = remote.get_mut(&s.id).map_or(0, |v| union_within(v, s));
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            .saturating_sub(covered);
        let own_ms = own as f64 / 1e6;
        out.busy_ms += own_ms;
        if s.layer.is_empty() {
            out.unattributed_ms += own_ms;
        } else {
            *out.by_layer.entry(s.layer).or_default() += own_ms;
        }
    }
    out
}

/// Length of the union of `intervals`, clipped to `span`.
fn union_within(intervals: &mut [(u64, u64)], span: &Span) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, span.start_ns);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(span.end_ns));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// File creation or write failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.layer,
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_busy_time() {
        let t = Tracer::default();
        t.span(1, None, "op", "", |op| {
            t.span(1, Some(op), "fit", "mlcore", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.span(1, Some(op), "decode", "tracestore", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    })
                });
            });
        });
        let st = self_times(&t.spans());
        let sum: f64 = st.by_layer.values().sum::<f64>() + st.unattributed_ms;
        assert!((sum - st.busy_ms).abs() < 1e-6, "{sum} vs {}", st.busy_ms);
        assert!(st.by_layer["mlcore"] >= 3.0);
        assert!(st.by_layer["tracestore"] >= 2.0);
    }
}
