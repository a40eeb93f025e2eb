//! Spans the benchmark records around its own calls into each layer.
//!
//! Two kinds, both kept in memory until the run ends:
//!
//! * [`Spans::span`] — one record per call (name, start, end, parent),
//!   for the coarse phases: generate, build, warm run, timed phase.
//! * [`Spans::hot`] — calls made once per fault or per engine event
//!   (`run_until`, `Fault::apply_lsrp`, a monitor callback). A record each
//!   would be hundreds of megabytes, so these are folded into one
//!   `(name, parent) -> (count, total)` row. They are leaves by
//!   construction.
//!
//! A span's self time is its duration minus its child spans and the hot
//! rows recorded under it. With the recorder off every call is one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Spans::records`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One folded row of hot calls under a parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotRow {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    records: Vec<SpanRecord>,
    stack: Vec<usize>,
    hot: BTreeMap<(&'static str, Option<usize>), HotRow>,
}

/// The span recorder of one workload run (single-threaded: every span is
/// opened by the benchmark's own thread).
#[derive(Debug)]
pub struct Spans {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(id), Some(cell)) = (self.id, &self.spans.inner) {
            let mut inner = cell.borrow_mut();
            inner.records[id].end_ns = inner.epoch.elapsed().as_nanos() as u64;
            let top = inner.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in nesting order");
        }
    }
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans { inner: None }
    }

    /// A recording recorder; times are relative to this call.
    pub fn on() -> Self {
        Spans {
            inner: Some(RefCell::new(Inner {
                epoch: Instant::now(),
                records: Vec::new(),
                stack: Vec::new(),
                hot: BTreeMap::new(),
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start_ns = inner.epoch.elapsed().as_nanos() as u64;
            let parent = inner.stack.last().copied();
            inner.records.push(SpanRecord {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            let id = inner.records.len() - 1;
            inner.stack.push(id);
            id
        });
        SpanGuard { spans: self, id }
    }

    /// Runs `f` as one hot call folded into the `(name, innermost span)` row.
    #[inline]
    pub fn hot<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(cell) = &self.inner else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_nanos() as u64;
        let mut inner = cell.borrow_mut();
        let parent = inner.stack.last().copied();
        let row = inner.hot.entry((name, parent)).or_default();
        row.count += 1;
        row.total_ns += dt;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().records.clone())
    }

    /// Every hot row recorded so far, as `(name, parent, row)`.
    pub fn hot_rows(&self) -> Vec<(&'static str, Option<usize>, HotRow)> {
        self.inner.as_ref().map_or_else(Vec::new, |c| {
            c.borrow()
                .hot
                .iter()
                .map(|(&(name, parent), &row)| (name, parent, row))
                .collect()
        })
    }

    /// Calls and nanoseconds of the spans and hot rows called `name`.
    fn tally(&self, name: &str) -> (u64, u64) {
        let Some(cell) = &self.inner else {
            return (0, 0);
        };
        let inner = cell.borrow();
        let spans = inner.records.iter().filter(|r| r.name == name);
        let hot = inner.hot.iter().filter(|((n, _), _)| *n == name);
        spans
            .map(|r| (1, r.end_ns - r.start_ns))
            .chain(hot.map(|(_, row)| (row.count, row.total_ns)))
            .fold((0, 0), |(c, t), (dc, dt)| (c + dc, t + dt))
    }

    /// Seconds spent in spans and hot rows called `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.tally(name).1 as f64 / 1e9
    }

    /// Number of spans and hot calls called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.tally(name).0
    }

    /// Self time of each span in nanoseconds: its duration minus its child
    /// spans and the hot rows under it.
    pub fn self_ns(&self) -> Vec<u64> {
        let records = self.records();
        let mut own: Vec<u64> = records.iter().map(|r| r.end_ns - r.start_ns).collect();
        for r in &records {
            if let Some(p) = r.parent {
                own[p] = own[p].saturating_sub(r.end_ns - r.start_ns);
            }
        }
        for (_, parent, row) in self.hot_rows() {
            if let Some(p) = parent {
                own[p] = own[p].saturating_sub(row.total_ns);
            }
        }
        own
    }

    /// The recorded spans as one JSON document (`spans-<workload>.json`).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let records = self.records();
        let own = self.self_ns();
        let parent_json = |p: Option<usize>| p.map_or("null".to_string(), |p| p.to_string());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\","
        );
        out.push_str(" \"spans\": [\n");
        for (id, r) in records.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}",
                r.name,
                parent_json(r.parent),
                r.start_ns,
                r.end_ns,
                own[id]
            );
            out.push_str(if id + 1 == records.len() { "\n" } else { ",\n" });
        }
        out.push_str(" ],\n \"hot\": [\n");
        let hot = self.hot_rows();
        for (i, (name, parent, row)) in hot.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"name\": \"{name}\", \"parent\": {}, \"count\": {}, \"total\": {}}}",
                parent_json(*parent),
                row.count,
                row.total_ns
            );
            out.push_str(if i + 1 == hot.len() { "\n" } else { ",\n" });
        }
        out.push_str(" ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let s = Spans::off();
        {
            let _g = s.span("a");
            s.hot("h", || ());
        }
        assert!(s.records().is_empty());
        assert!(s.hot_rows().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let s = Spans::on();
        {
            let _a = s.span("a");
            {
                let _b = s.span("b");
                s.hot("h", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                s.hot("h", || ());
            }
            let _c = s.span("c");
        }
        let r = s.records();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[2].parent, Some(0));
        for child in &r[1..] {
            assert!(child.start_ns >= r[0].start_ns && child.end_ns <= r[0].end_ns);
        }
        let hot = s.hot_rows();
        assert_eq!(hot.len(), 1);
        assert_eq!((hot[0].0, hot[0].1, hot[0].2.count), ("h", Some(1), 2));
        let own = s.self_ns();
        let dur = |i: usize| r[i].end_ns - r[i].start_ns;
        assert!(own[0] <= dur(0) - dur(1) - dur(2));
        assert!(own[1] <= dur(1) - hot[0].2.total_ns);
        assert_eq!(s.count("h"), 2);
        assert!(s.total_s("h") >= 0.002);
        assert!(lsrp_trace::json::parse(&s.to_json("w", 1)).is_ok());
    }
}
