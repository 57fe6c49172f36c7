//! Dependency-light observability for the ExSample service stack.
//!
//! Every layer of the workspace — engine hot loops, the wire server, the
//! cluster router — needs to answer "where does wall-clock go?" without
//! perturbing the workload it measures. This crate provides the
//! primitives they share:
//!
//! * [`LatencyHistogram`] — a mergeable, log-bucketed (power-of-two)
//!   latency histogram over `u64` atomics. Recording is two relaxed
//!   atomic adds; no locks, no allocation. [`HistSnapshot`] freezes one
//!   into a plain value with [`HistSnapshot::merge`],
//!   [`HistSnapshot::quantile`] (p50/p90/p99), and a bytewise-stable
//!   [`HistSnapshot::encode`]/[`HistSnapshot::decode`] pair used on the
//!   wire.
//! * [`Registry`] — named counters, gauges, and histograms. Handles are
//!   `Arc`s resolved once at setup; the registry's lock is only touched
//!   at registration and render time, never on the hot path. [`Counter`]
//!   is striped across cache-line-padded shards so concurrent recorders
//!   do not bounce a cache line. [`Registry::render_text`] emits a
//!   Prometheus-style text exposition.
//! * [`FlightRecorder`] — a fixed-size ring buffer of recent structured
//!   [`FlightEvent`]s (monotonic tick, session, [`Stage`], duration,
//!   key), dumpable on demand and on worker panic. [`Stage::in_ring`]
//!   says which stages leave an event.
//! * [`SpanCollector`] — request-scoped distributed tracing: per-trace
//!   causal span trees ([`SpanRecord`], [`TraceId`], [`SpanId`]),
//!   deterministic trace-id derivation from session ids, and a Chrome
//!   trace-event exporter ([`chrome_trace_json`]).
//!
//! The engine owns one of each and writes all three through a single
//! function, `exsample_engine::EngineObs::record`; its `Span` timer is
//! the span-style API.
//!
//! Instrumentation here is strictly *observational*: it reads the wall
//! clock and bumps atomics, and therefore cannot change any session's
//! deterministic trace.
//!
//! # Example
//!
//! ```
//! use exsample_obs::{FlightRecorder, Registry, Stage, NO_SESSION};
//!
//! let registry = Registry::new();
//! let dispatch = registry.histogram("dispatch_ns");
//! let flight = FlightRecorder::new(64);
//!
//! // One dispatch of an 8-frame batch that took 1.5 µs.
//! dispatch.record(1_500);
//! flight.record(NO_SESSION, Stage::Dispatch, 1_500, 8);
//!
//! assert_eq!(dispatch.snapshot().total(), 1);
//! assert_eq!(flight.dump().len(), 1);
//! assert!(registry.render_text().contains("exsample_dispatch_ns_count 1"));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod registry;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder, Stage, NO_SESSION};
pub use hist::{bucket_ceiling, bucket_of, HistSnapshot, LatencyHistogram, SnapshotDecodeError};
pub use registry::{Counter, CounterFamily, Gauge, GaugeFamily, Metric, Registry};
pub use trace::{
    chrome_trace_json, validate_json, validate_spans, MeasuredSpan, SpanCollector, SpanId,
    SpanRecord, TraceContext, TraceId,
};
