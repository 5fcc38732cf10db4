//! In-memory tracing from outside the program: forwarding wrappers on
//! every trait-object seam of a cell, and the span log they feed.
//!
//! The wrappers forward each call unchanged to the real implementation and
//! record one `[start, end)` interval per call (plus the call's work
//! counts), so a traced cell runs the identical arithmetic as the driver
//! and must end in the identical item matrix. Intervals are kept per seam
//! until the driver closes the span they belong to (a round, an eval pass
//! or set-up); closing folds them into one aggregated child span per seam
//! and keeps the raw intervals for the per-layer time accounting.
//!
//! The one exception is the data seam, which is called millions of times
//! per evaluation: there only the calls that generated population shards
//! are recorded as intervals, and lookups into generated data are counted
//! per thread with a sampled time.

use fedrec_data::{HoldoutView, InteractionSource, ScaleFreeDataset};
use fedrec_federated::adversary::RoundCtx;
use fedrec_federated::client::{BenignClient, RoundScratch};
use fedrec_federated::defense::{DetectionReport, Detector};
use fedrec_federated::server::Aggregator;
use fedrec_federated::{Adversary, ClientModel, FedConfig};
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One lookup in this many on a thread is timed end to end; the lookup
/// time reported is the sampled mean times the lookup count.
const LOOKUP_SAMPLE: u64 = 64;

/// A half-open time interval in nanoseconds since the trace started.
pub type Interval = (u64, u64);

/// The seams a cell is traced at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `ClientModel::local_round` — one benign client's local step.
    LocalRound,
    /// `Adversary::poison*` — every malicious upload of one round.
    Poison,
    /// `Detector::inspect`.
    Detect,
    /// `Aggregator::aggregate`.
    Aggregate,
    /// `InteractionSource::user_items` calls that generated population
    /// shards.
    UserItems,
}

impl Seam {
    pub const ALL: [Seam; 5] = [
        Seam::LocalRound,
        Seam::Poison,
        Seam::Detect,
        Seam::Aggregate,
        Seam::UserItems,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Seam::LocalRound => "local_round",
            Seam::Poison => "poison",
            Seam::Detect => "detect",
            Seam::Aggregate => "aggregate",
            Seam::UserItems => "user_items",
        }
    }
}

/// One recorded span. Seam spans aggregate every call of their seam inside
/// their parent: `calls` counts them and `busy_ns` sums their durations
/// (which exceeds `end - start` when calls ran on several threads).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Work counts of one seam, summed over the whole trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeamCounts {
    pub calls: u64,
    /// Poison: uploads returned. Aggregate: uploads in. Detect: uploads
    /// inspected. Otherwise 0.
    pub items: u64,
    /// Detect: uploads flagged. Otherwise 0.
    pub flagged: u64,
}

#[derive(Default)]
struct SeamState {
    open: Vec<Interval>,
    all: Vec<Interval>,
    counts: SeamCounts,
}

/// Data-seam lookup counters of one thread. Only the owning thread
/// writes them, so the atomics never contend.
#[derive(Default)]
struct LookupSlot {
    calls: AtomicU64,
    sampled_ns: AtomicU64,
    sampled: AtomicU64,
}

// fedrec-lint: allow(thread-id) — per-thread counters of traced calls; nothing they hold feeds the program
thread_local! {
    /// This thread's lookup slot, tagged with the tracer it belongs to.
    static SLOT: RefCell<Option<(usize, Arc<LookupSlot>)>> = const { RefCell::new(None) };
}

/// The span log and per-seam accumulators of one traced run.
pub struct Tracer {
    t0: Instant,
    seams: [Mutex<SeamState>; 5],
    spans: Mutex<Vec<Span>>,
    lookups: Mutex<Vec<Arc<LookupSlot>>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            t0: crate::now(),
            seams: Default::default(),
            spans: Mutex::new(Vec::new()),
            lookups: Mutex::new(Vec::new()),
        })
    }

    /// Record one `user_items` call that started at `start`. A call that
    /// generated a shard is recorded like any other seam call; a lookup
    /// into generated data is counted, and one in [`LOOKUP_SAMPLE`] is
    /// timed. Lookups cost tens of nanoseconds, about what timing each of
    /// them would add.
    fn data_call(&self, start: u64, generated: bool) {
        if generated {
            self.record(Seam::UserItems, start, 0, 0);
            return;
        }
        let id = self as *const Self as usize;
        SLOT.with(|cell| {
            let mut cell = cell.borrow_mut();
            if cell.as_ref().is_none_or(|(owner, _)| *owner != id) {
                let slot = Arc::new(LookupSlot::default());
                self.lookups
                    .lock()
                    .expect("slot list poisoned")
                    .push(slot.clone());
                *cell = Some((id, slot));
            }
            let slot = &cell.as_ref().expect("set above").1;
            let n = slot.calls.load(Ordering::Relaxed) + 1;
            slot.calls.store(n, Ordering::Relaxed);
            if n % LOOKUP_SAMPLE == 0 {
                let ns = self.now() - start;
                slot.sampled_ns.fetch_add(ns, Ordering::Relaxed);
                slot.sampled.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Lookups into generated data: their count and estimated time.
    pub fn lookups(&self) -> (u64, u64) {
        let slots = self.lookups.lock().expect("slot list poisoned");
        let sum = |f: fn(&LookupSlot) -> &AtomicU64| -> u64 {
            slots.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        let (calls, ns, sampled) = (
            sum(|s| &s.calls),
            sum(|s| &s.sampled_ns),
            sum(|s| &s.sampled),
        );
        let est = (ns * calls).checked_div(sampled).unwrap_or(0);
        (calls, est)
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn seam(&self, seam: Seam) -> std::sync::MutexGuard<'_, SeamState> {
        self.seams[seam as usize]
            .lock()
            .expect("a traced call panicked while recording")
    }

    fn record(&self, seam: Seam, start: u64, items: u64, flagged: u64) {
        let end = self.now();
        let mut s = self.seam(seam);
        s.open.push((start, end));
        s.counts.calls += 1;
        s.counts.items += items;
        s.counts.flagged += flagged;
    }

    /// Record a span that has no seam children and return its id.
    pub fn span(&self, parent: Option<usize>, name: String, start: u64, end: u64) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
            calls: 1,
            busy_ns: end.saturating_sub(start),
        });
        id
    }

    /// End span `id` at `end`, for a span opened before its end was known.
    pub fn set_end(&self, id: usize, end: u64) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans[id].end = end;
        spans[id].busy_ns = end.saturating_sub(spans[id].start);
    }

    /// Record span `name` over `[start, end)` and fold every seam call
    /// made since the last close into one child span per seam.
    pub fn close(&self, parent: Option<usize>, name: String, start: u64, end: u64) -> usize {
        let id = self.span(parent, name.clone(), start, end);
        for seam in Seam::ALL {
            let open = {
                let mut s = self.seam(seam);
                let open = std::mem::take(&mut s.open);
                s.all.extend_from_slice(&open);
                open
            };
            if open.is_empty() {
                continue;
            }
            let lo = open.iter().map(|i| i.0).min().expect("non-empty");
            let hi = open.iter().map(|i| i.1).max().expect("non-empty");
            let busy: u64 = open.iter().map(|i| i.1 - i.0).sum();
            let mut spans = self.spans.lock().expect("span log poisoned");
            let child = spans.len();
            spans.push(Span {
                id: child,
                parent: Some(id),
                name: format!("{name}.{}", seam.label()),
                start: lo,
                end: hi,
                calls: open.len() as u64,
                busy_ns: busy,
            });
        }
        id
    }

    pub fn counts(&self, seam: Seam) -> SeamCounts {
        self.seam(seam).counts
    }

    /// Every call interval of `seam` closed so far.
    pub fn intervals(&self, seam: Seam) -> Vec<Interval> {
        self.seam(seam).all.clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Write the span log as JSON lines.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.id, s.name, s.start, s.end, s.calls, s.busy_ns
            )?;
        }
        Ok(())
    }
}

/// Merge intervals into a sorted, disjoint union.
pub fn union(mut v: Vec<Interval>) -> Vec<Interval> {
    v.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of a disjoint union.
pub fn measure(u: &[Interval]) -> u64 {
    u.iter().map(|i| i.1 - i.0).sum()
}

/// Length of the intersection of two disjoint unions.
pub fn overlap(a: &[Interval], b: &[Interval]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Forwarding [`ClientModel`].
pub struct TracedModel {
    pub inner: Box<dyn ClientModel>,
    pub tracer: Arc<Tracer>,
}

impl ClientModel for TracedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shared_len(&self) -> usize {
        self.inner.shared_len()
    }

    fn init_shared(&self, rng: &mut SeededRng) -> Vec<f32> {
        self.inner.init_shared(rng)
    }

    fn local_round(
        &self,
        client: &mut BenignClient,
        items: &Matrix,
        shared: &[f32],
        cfg: &FedConfig,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
        shared_out: &mut Vec<f32>,
    ) -> Option<f32> {
        let t = self.tracer.now();
        let r = self
            .inner
            .local_round(client, items, shared, cfg, scratch, out, shared_out);
        self.tracer.record(Seam::LocalRound, t, 0, 0);
        r
    }
}

/// Forwarding [`Adversary`]. Both poison entry points forward to the
/// inner adversary's own implementation, so a bridged or overridden
/// `poison_with_shared` keeps its behaviour.
pub struct TracedAdversary {
    pub inner: Box<dyn Adversary>,
    pub tracer: Arc<Tracer>,
}

impl Adversary for TracedAdversary {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        let t = self.tracer.now();
        let r = self.inner.poison(items, ctx, rng);
        self.tracer.record(Seam::Poison, t, r.len() as u64, 0);
        r
    }

    fn poison_with_shared(
        &mut self,
        items: &Matrix,
        shared: &[f32],
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<(SparseGrad, Vec<f32>)> {
        let t = self.tracer.now();
        let r = self.inner.poison_with_shared(items, shared, ctx, rng);
        self.tracer.record(Seam::Poison, t, r.len() as u64, 0);
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self, out: &mut Vec<u8>) {
        self.inner.checkpoint_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes)
    }
}

/// Forwarding [`Detector`].
pub struct TracedDetector {
    pub inner: Box<dyn Detector>,
    pub tracer: Arc<Tracer>,
}

impl Detector for TracedDetector {
    fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        let t = self.tracer.now();
        let r = self.inner.inspect(updates);
        self.tracer.record(
            Seam::Detect,
            t,
            updates.len() as u64,
            r.flagged.len() as u64,
        );
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Forwarding [`Aggregator`].
pub struct TracedAggregator {
    pub inner: Box<dyn Aggregator>,
    pub tracer: Arc<Tracer>,
}

impl Aggregator for TracedAggregator {
    fn aggregate(&self, updates: &[SparseGrad], num_items: usize, k: usize) -> SparseGrad {
        let t = self.tracer.now();
        let r = self.inner.aggregate(updates, num_items, k);
        self.tracer
            .record(Seam::Aggregate, t, updates.len() as u64, 0);
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Forwarding [`InteractionSource`] over the scale-free population.
/// Every method forwards, so provided methods the source overrides keep
/// their own implementation. A call that made the population generate a
/// shard is timed as data work; other calls are lookups (see
/// [`Tracer::data_call`]).
pub struct TracedSource {
    pub inner: Arc<HoldoutView<ScaleFreeDataset>>,
    pub tracer: Arc<Tracer>,
}

impl InteractionSource for TracedSource {
    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn user_items(&self, u: usize) -> &[u32] {
        let generated = self.inner.inner().shards_generated();
        let t = self.tracer.now();
        let r = self.inner.user_items(u);
        self.tracer
            .data_call(t, self.inner.inner().shards_generated() != generated);
        r
    }

    fn user_degree(&self, u: usize) -> usize {
        self.inner.user_degree(u)
    }

    fn item_popularity(&self) -> Vec<u32> {
        self.inner.item_popularity()
    }
}
