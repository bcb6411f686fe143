//! Spans recorded from outside the program: a clock, an in-memory span
//! store, and a [`LatencyModel`] wrapper that times every pricing call on its
//! way into the real model.
//!
//! The wrapper forwards every method of the trait — the provided ones
//! included — so a traced compile takes exactly the code paths of an
//! untraced one: the model's own batch pricing, its `parallel_pricing`
//! answer (which decides the batch warm-up and the pricing pool), its
//! counters, its persistent cache, and its name (part of the compiler
//! fingerprint).

use qcc_hw::{LatencyModel, PersistentCache, PricingStats};
use qcc_ir::Instruction;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use threadpool::ThreadPool;

/// Marker for "no parent span".
const NO_PARENT: usize = usize::MAX;

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`request`, `pass:<name>`, `pricing`).
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store with one monotonic clock.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Stores a span and returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that ends at [`close`](Self::close); returns its index.
    pub fn open(&self, name: String, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        })
    }

    /// Ends the span opened as `index`.
    pub fn close(&self, index: usize) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[index].end = end;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans_from(0)
    }

    /// A copy of the spans from index `first` on.
    pub fn spans_from(&self, first: usize) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned")[first..].to_vec()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Running totals of the pricing calls a [`TracingModel`] has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PricingTotals {
    /// `aggregate_latency` plus `aggregate_latency_batch` calls.
    pub calls: u64,
    /// Instruction queries across those calls.
    pub queries: u64,
    /// Seconds spent inside them, summed over calling threads.
    pub busy_s: f64,
}

/// Queries with the latency each was answered with.
type Answers = Vec<(Vec<Instruction>, f64)>;

/// A [`LatencyModel`] that times each pricing call into `inner`.
///
/// Totals are always kept (atomically, so concurrent compiles may share the
/// wrapper). When a single-threaded caller names the current parent span
/// with [`enter`](Self::enter), each call is also stored as a `pricing` span
/// under it; with [`record_answers`](Self::record_answers) every query and
/// the latency it got are kept as well.
pub struct TracingModel<'a> {
    inner: &'a dyn LatencyModel,
    recorder: &'a Recorder,
    calls: AtomicU64,
    queries: AtomicU64,
    busy_ns: AtomicU64,
    parent: AtomicUsize,
    request: AtomicU64,
    answers: Option<Mutex<Answers>>,
}

impl<'a> TracingModel<'a> {
    /// Wraps `inner`, recording spans into `recorder`.
    pub fn new(inner: &'a dyn LatencyModel, recorder: &'a Recorder) -> Self {
        Self {
            inner,
            recorder,
            calls: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            parent: AtomicUsize::new(NO_PARENT),
            request: AtomicU64::new(0),
            answers: None,
        }
    }

    /// Also keeps every query with the latency it was answered with.
    pub fn record_answers(mut self) -> Self {
        self.answers = Some(Mutex::new(Vec::new()));
        self
    }

    /// Stores later calls as spans under `parent`, tagged with `request`.
    /// Only meaningful while a single thread drives the compile.
    pub fn enter(&self, parent: usize, request: u64) {
        self.request.store(request, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// Stops storing per-call spans (totals continue).
    pub fn leave(&self) {
        self.parent.store(NO_PARENT, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn totals(&self) -> PricingTotals {
        PricingTotals {
            calls: self.calls.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    /// Takes the recorded queries and answers, leaving the store empty.
    pub fn take_answers(&self) -> Answers {
        self.answers.as_ref().map_or_else(Vec::new, |a| {
            std::mem::take(&mut *a.lock().expect("answer store poisoned"))
        })
    }

    fn timed<R>(&self, queries: usize, call: impl FnOnce() -> R) -> R {
        let start = self.recorder.now();
        let out = call();
        let end = self.recorder.now();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(((end - start) * 1e9) as u64, Ordering::Relaxed);
        let parent = self.parent.load(Ordering::Relaxed);
        if parent != NO_PARENT {
            self.recorder.push(Span {
                name: "pricing".to_string(),
                start,
                end,
                parent: Some(parent),
                request: self.request.load(Ordering::Relaxed),
            });
        }
        out
    }

    fn remember(&self, queries: &[&[Instruction]], latencies: &[f64]) {
        if let Some(answers) = &self.answers {
            let mut answers = answers.lock().expect("answer store poisoned");
            for (q, &l) in queries.iter().zip(latencies) {
                answers.push((q.to_vec(), l));
            }
        }
    }
}

impl LatencyModel for TracingModel<'_> {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        // Per-gate arithmetic: forwarded untimed, a span would cost more
        // than the call.
        self.inner.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        let latency = self.timed(1, || self.inner.aggregate_latency(constituents));
        self.remember(&[constituents], &[latency]);
        latency
    }

    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        let latencies = self.timed(queries.len(), || {
            self.inner.aggregate_latency_batch(queries, pool)
        });
        self.remember(queries, &latencies);
        latencies
    }

    fn parallel_pricing(&self) -> bool {
        self.inner.parallel_pricing()
    }

    fn pricing_stats(&self) -> Option<PricingStats> {
        self.inner.pricing_stats()
    }

    fn persistent_cache(&self) -> Option<&dyn PersistentCache> {
        self.inner.persistent_cache()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_hw::CalibratedLatencyModel;
    use qcc_ir::Gate;

    #[test]
    fn wrapper_forwards_values_and_counts_calls() {
        let inner = CalibratedLatencyModel::asplos19();
        let recorder = Recorder::default();
        let traced = TracingModel::new(&inner, &recorder).record_answers();
        let a = vec![Instruction::new(Gate::Cnot, vec![0, 1])];
        let b = vec![Instruction::new(Gate::H, vec![0])];
        assert_eq!(
            traced.aggregate_latency(&a).to_bits(),
            inner.aggregate_latency(&a).to_bits()
        );
        let batch = traced.aggregate_latency_batch(&[&a, &b], &ThreadPool::serial());
        assert_eq!(batch[1].to_bits(), inner.aggregate_latency(&b).to_bits());
        assert_eq!(traced.name(), inner.name());
        assert_eq!(traced.parallel_pricing(), inner.parallel_pricing());
        assert_eq!(traced.pricing_stats(), inner.pricing_stats());
        let totals = traced.totals();
        assert_eq!((totals.calls, totals.queries), (2, 3));
        assert_eq!(traced.take_answers().len(), 3);
        // No parent entered: totals only, no stored spans.
        assert!(recorder.spans().is_empty());
        let parent = recorder.open("pass:price".into(), None, 7);
        traced.enter(parent, 7);
        traced.aggregate_latency(&a);
        traced.leave();
        recorder.close(parent);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(parent));
        assert_eq!(spans[1].request, 7);
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
    }
}
