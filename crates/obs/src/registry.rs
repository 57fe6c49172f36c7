//! Named metrics: sharded lock-free counters, gauges, and histograms.
//!
//! The [`Registry`] is a name → metric map guarded by a mutex that is
//! only taken at registration and render/collect time. Recording goes
//! through `Arc` handles resolved once at setup, so the hot path is a
//! single relaxed atomic add — no locks, no allocation, and (for
//! [`Counter`]) no shared cache line between concurrent recorders.

use crate::hist::{HistSnapshot, LatencyHistogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of cache-line-padded stripes in a [`Counter`]. Power of two;
/// threads are spread across stripes by a cheap thread-local index.
const COUNTER_STRIPES: usize = 8;

/// One cache line worth of counter, so stripes never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Index of the calling thread's counter stripe: assigned once per
/// thread from a global round-robin, then fixed for the thread's life.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s) & (COUNTER_STRIPES - 1)
}

/// A monotonically increasing counter, striped across padded shards so
/// that concurrent recorders touch distinct cache lines.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; COUNTER_STRIPES],
}

impl Counter {
    /// A new counter at zero.
    pub const fn new() -> Self {
        Counter {
            stripes: [const { Stripe(AtomicU64::new(0)) }; COUNTER_STRIPES],
        }
    }

    /// Add `n`. One relaxed atomic add on a thread-local stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        // lint: allow(panic_audit, stripe_index is modulo STRIPES so the index is always in bounds)
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes (wrapping).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0u64, |a, s| a.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A new gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the current value. One relaxed atomic store.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Read the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Add `n` to the current value. One relaxed atomic add.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the current value, saturating at zero (a gauge
    /// tracking live objects must never wrap on a racy double-release).
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A family of [`Counter`]s sharing one metric name, keyed by the
/// value of a single label (e.g. `submits_total{tenant="7"}`).
///
/// Children are created on first use and live for the family's life;
/// the hot path is [`CounterFamily::with`] once at setup, then the
/// child's own lock-free [`Counter::add`].
#[derive(Debug)]
pub struct CounterFamily {
    label: String,
    children: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl CounterFamily {
    /// A new family labeled by `label`.
    pub fn new(label: &str) -> Self {
        CounterFamily {
            label: label.to_owned(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// The label key distinguishing children.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Get or create the child whose label equals `value`.
    pub fn with(&self, value: &str) -> Arc<Counter> {
        let mut children = self.children.lock().expect("counter family poisoned");
        children
            .entry(value.to_owned())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Every child's label value and current total, sorted by label.
    pub(crate) fn children(&self) -> Vec<(String, u64)> {
        let children = self.children.lock().expect("counter family poisoned");
        children.iter().map(|(v, c)| (v.clone(), c.get())).collect()
    }

    /// Sum over all children (wrapping).
    pub fn total(&self) -> u64 {
        self.children()
            .iter()
            .fold(0u64, |a, (_, v)| a.wrapping_add(*v))
    }
}

/// A family of [`Gauge`]s sharing one metric name, keyed by the value
/// of a single label (e.g. `sessions_active{tenant="7"}`).
#[derive(Debug)]
pub struct GaugeFamily {
    label: String,
    children: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl GaugeFamily {
    /// A new family labeled by `label`.
    pub fn new(label: &str) -> Self {
        GaugeFamily {
            label: label.to_owned(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// The label key distinguishing children.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Get or create the child whose label equals `value`.
    pub fn with(&self, value: &str) -> Arc<Gauge> {
        let mut children = self.children.lock().expect("gauge family poisoned");
        children
            .entry(value.to_owned())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Every child's label value and current reading, sorted by label.
    pub(crate) fn children(&self) -> Vec<(String, u64)> {
        let children = self.children.lock().expect("gauge family poisoned");
        children.iter().map(|(v, g)| (v.clone(), g.get())).collect()
    }
}

/// A registered metric, by kind.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    /// A monotonic [`Counter`].
    Counter(Arc<Counter>),
    /// An instantaneous [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`LatencyHistogram`] of nanosecond observations.
    Histogram(Arc<LatencyHistogram>),
    /// A labeled [`CounterFamily`].
    CounterFamily(Arc<CounterFamily>),
    /// A labeled [`GaugeFamily`].
    GaugeFamily(Arc<GaugeFamily>),
}

/// A name → metric map. Registration is get-or-create and idempotent;
/// the returned `Arc` handle is the hot-path recording interface and
/// never goes back through the registry lock.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A new, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(LatencyHistogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the counter family named `name`, labeled `label`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter_family(&self, name: &str, label: &str) -> Arc<CounterFamily> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::CounterFamily(Arc::new(CounterFamily::new(label))))
        {
            Metric::CounterFamily(f) => f.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the gauge family named `name`, labeled `label`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge_family(&self, name: &str, label: &str) -> Arc<GaugeFamily> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::GaugeFamily(Arc::new(GaugeFamily::new(label))))
        {
            Metric::GaugeFamily(f) => f.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_of(other)),
        }
    }

    /// Snapshot every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistSnapshot)> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Histogram(h) => Some((name.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Read every counter and gauge, sorted by name. Family children
    /// are flattened in with labeled names — `submits_total{tenant="7"}`
    /// — so labeled readings travel through diagnostics-style
    /// `(name, value)` lists (and fleet-wide merges sum per label)
    /// without any schema change.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut out = Vec::new();
        for (name, m) in metrics.iter() {
            match m {
                Metric::Counter(c) => out.push((name.clone(), c.get())),
                Metric::Gauge(g) => out.push((name.clone(), g.get())),
                Metric::Histogram(_) => {}
                Metric::CounterFamily(f) => {
                    for (value, reading) in f.children() {
                        out.push((labeled(name, f.label(), &value), reading));
                    }
                }
                Metric::GaugeFamily(f) => {
                    for (value, reading) in f.children() {
                        out.push((labeled(name, f.label(), &value), reading));
                    }
                }
            }
        }
        out
    }

    /// Render every metric in Prometheus text exposition style. Metric
    /// names are prefixed `exsample_` and sanitised (non-alphanumerics
    /// become `_`); histograms render as summaries with p50/p90/p99
    /// quantile lines plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            let name = sanitise(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (label, p) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {}\n",
                            s.quantile(p)
                        ));
                    }
                    out.push_str(&format!("{name}_sum {}\n", s.sum));
                    out.push_str(&format!("{name}_count {}\n", s.total()));
                }
                Metric::CounterFamily(f) => {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    for (value, reading) in f.children() {
                        out.push_str(&format!(
                            "{} {reading}\n",
                            labeled(&name, f.label(), &value)
                        ));
                    }
                }
                Metric::GaugeFamily(f) => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    for (value, reading) in f.children() {
                        out.push_str(&format!(
                            "{} {reading}\n",
                            labeled(&name, f.label(), &value)
                        ));
                    }
                }
            }
        }
        out
    }
}

fn kind_of(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
        Metric::CounterFamily(_) => "counter family",
        Metric::GaugeFamily(_) => "gauge family",
    }
}

/// Compose a labeled sample name — `name{label="value"}` — escaping the
/// label value per the Prometheus exposition rules.
fn labeled(name: &str, label: &str, value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    format!("{name}{{{label}=\"{escaped}\"}}")
}

/// `exsample_` prefix plus Prometheus-safe characters.
fn sanitise(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("exsample_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("frames_total");
        let b = r.counter("frames_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counters(), vec![("frames_total".to_owned(), 4)]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn counter_is_accurate_across_threads() {
        let r = Registry::new();
        let c = r.counter("n");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn render_text_exposes_all_kinds() {
        let r = Registry::new();
        r.counter("frames_total").add(7);
        r.gauge("live sessions").set(2);
        let h = r.histogram("dispatch_ns");
        h.record(1000);
        h.record(1000);
        let text = r.render_text();
        assert!(text.contains("# TYPE exsample_frames_total counter\nexsample_frames_total 7\n"));
        assert!(text.contains("exsample_live_sessions 2\n"));
        assert!(text.contains("exsample_dispatch_ns{quantile=\"0.99\"} 1023\n"));
        assert!(text.contains("exsample_dispatch_ns_sum 2000\n"));
        assert!(text.contains("exsample_dispatch_ns_count 2\n"));
    }

    #[test]
    fn histograms_are_sorted_by_name() {
        let r = Registry::new();
        r.histogram("b");
        r.histogram("a");
        let names: Vec<_> = r.histograms().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
