//! The benchmark's own spans: recorded in memory around every call the
//! load generator makes into a layer, written out when the run ends.
//!
//! In-program spans are a later issue; these are taken from outside, so a
//! span is "the client was inside this call from `start` to `end`".

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `parent` indexes into the same [`SpanLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The session (operation) the span belongs to; spans of one session
    /// share it.
    pub session: u64,
    /// Which client thread / connection recorded it.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span buffer with its own epoch. Each client thread owns
/// one (no sharing, no locks on the timed path); they are merged after the
/// repetition ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> SpanLog {
        SpanLog {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its index (usable as `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            session,
            lane: self.lane,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Reserve a parent whose end is not known yet (a session root):
    /// children can refer to it at once, [`SpanLog::close`] sets the end.
    pub fn open(&mut self, name: &'static str, session: u64, start: Instant) -> usize {
        self.push(name, None, session, start, start)
    }

    /// Set the end of a span made by [`SpanLog::open`].
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = self.ns(end);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span sets into one, re-basing parent indices.
pub fn merge(sets: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(sets.iter().map(Vec::len).sum());
    for set in sets {
        let base = all.len();
        all.extend(set.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once
/// (interval union), and a child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Well-formedness of a span set: every parent index resolves to an
/// earlier span of the same session, every span ends no earlier than it
/// starts, and every child lies within its parent.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p).filter(|_| p < i) else {
                return Err(format!("span {i} ({}) has unresolved parent {p}", s.name));
            };
            if parent.session != s.session {
                return Err(format!("span {i} ({}) crosses sessions", s.name));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per lane.
pub fn chrome_trace(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    (
                        "args",
                        Json::obj([
                            ("session", Json::Num(s.session as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            session: 1,
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // Root 0..100 with children 10..30 and 50..70: 60 of its own.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children 10..40, 30..60 (overlap 10) and 35..38 (nested in both):
        // union covers 10..60 = 50.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            span(Some(0), 35, 38),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn validate_accepts_trees_and_rejects_escapes() {
        let good = [
            span(None, 0, 100),
            span(Some(0), 0, 100),
            span(Some(1), 5, 6),
        ];
        assert!(validate(&good).is_ok());
        let outside = [span(None, 10, 20), span(Some(0), 5, 15)];
        assert!(validate(&outside).unwrap_err().contains("outside"));
        let dangling = [span(Some(3), 0, 1)];
        assert!(validate(&dangling).unwrap_err().contains("unresolved"));
        let mut cross = [span(None, 0, 10), span(Some(0), 1, 2)];
        cross[1].session = 2;
        assert!(validate(&cross).unwrap_err().contains("crosses"));
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span(None, 0, 10), span(Some(0), 1, 2)];
        let b = vec![span(None, 0, 10), span(Some(0), 3, 4)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert!(validate(&all).is_ok());
    }

    #[test]
    fn log_open_close_brackets_children() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 7);
        let t0 = Instant::now();
        let root = log.open("session", 9, t0);
        let t1 = Instant::now();
        log.push("submit", Some(root), 9, t0, t1);
        log.close(root, Instant::now());
        let spans = log.into_spans();
        assert!(validate(&spans).is_ok());
        assert_eq!(spans[1].lane, 7);
        assert_eq!(chrome_trace(&spans).elements().len(), 2);
    }
}
