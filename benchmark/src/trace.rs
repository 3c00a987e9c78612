//! Spans recorded from outside the product.
//!
//! A [`Tracer`] brackets calls into public functions of the product
//! crates: name, start, end, the span that caused it, and the step it
//! belongs to. Spans stay in memory while the run is timed and are
//! written once, at exit, as Chrome trace-event JSON (`chrome://tracing`
//! or <https://ui.perfetto.dev> open it directly).
//!
//! A layer's **self time** is its span's duration minus what its child
//! spans cover. The staged evaluation is sequential on one thread, so
//! children of one span never overlap and the subtraction is exact.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.force_on`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Step the span belongs to (0 = set-up and warm-up).
    pub step: u32,
    /// Display lane in the trace viewer (0 = driver, k+1 = shard k).
    pub lane: u32,
}

impl Span {
    /// Wall nanoseconds between call and return.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span, the summed duration of its direct children — kept as
    /// spans close so self times cost nothing to read back.
    child_ns: Vec<u64>,
    open: Vec<usize>,
    step: u32,
    lane: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            child_ns: Vec::new(),
            open: Vec::new(),
            step: 0,
            lane: 0,
        }
    }

    /// Tag subsequent spans with step `step` (0 = warm-up, not counted
    /// in per-step means).
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    /// Display lane for subsequent spans.
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            step: self.step,
            lane: self.lane,
        });
        self.child_ns.push(0);
        self.spans.len() - 1
    }

    /// Credit a finished span's duration to its parent's child sum.
    fn credit_parent(&mut self, id: usize) {
        if let Some(p) = self.spans[id].parent {
            self.child_ns[p] += self.spans[id].dur_ns();
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let t = self.now_ns();
        let id = self.push(name, t, t);
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let t = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = t;
        self.credit_parent(id);
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Record a span whose bounds were taken elsewhere (an interval
    /// between two callbacks), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.record_under(self.open.last().copied(), name, start, end)
    }

    /// Record a span with taken-elsewhere bounds under an explicit
    /// parent (spans rebuilt from another thread's event timestamps).
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.push(name, ns(start), ns(end).max(ns(start)));
        self.spans[id].parent = parent;
        self.credit_parent(id);
        id
    }

    /// Every recorded span, in start order of `begin`/`record` calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `i` minus the durations of its direct children.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns().saturating_sub(self.child_ns[i])
    }

    /// Summed duration of all counted (step ≥ 1) spans named `name`,
    /// in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.counted(name).map(|(_, s)| s.dur_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Summed self time of all counted spans named `name`, in seconds.
    pub fn self_total_s(&self, name: &str) -> f64 {
        self.counted(name).map(|(i, _)| self.self_ns(i)).sum::<u64>() as f64 * 1e-9
    }

    /// Summed seconds of counted spans named any of `names`, grouped by
    /// `(step, lane)` — one entry per shard per step for the cluster.
    pub fn by_step_and_lane(&self, names: &[&str]) -> BTreeMap<(u32, u32), f64> {
        let mut groups = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.step >= 1 && names.contains(&s.name)) {
            *groups.entry((s.step, s.lane)).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        }
        groups
    }

    fn counted<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans.iter().enumerate().filter(move |(_, s)| s.step >= 1 && s.name == name)
    }

    /// Chrome trace events: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps from this tracer's own origin, parent and
    /// step in `args`, all under process `pid` named `process`.
    pub fn chrome_events(&self, pid: u32, process: &str) -> Vec<Json> {
        let pid = Json::Num(f64::from(pid));
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", pid.clone()),
            ("args", Json::obj([("name", Json::str(process))])),
        ])];
        events.extend(self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", pid.clone()),
                ("tid", Json::Num(f64::from(s.lane))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("step", Json::Num(f64::from(s.step))),
                        ("self_us", Json::Num(self.self_ns(i) as f64 / 1e3)),
                    ]),
                ),
            ])
        }));
        events
    }

    /// A whole Chrome trace document from several tracers, one viewer
    /// process each.
    pub fn chrome_document(parts: &[(&Tracer, &str)]) -> Json {
        let events = parts
            .iter()
            .enumerate()
            .flat_map(|(i, (t, name))| t.chrome_events(i as u32 + 1, name))
            .collect();
        Json::obj([("displayTimeUnit", Json::str("ms")), ("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans: step(0..100) ⊃ force(10..90) ⊃
    /// {build(10..30), device(40..80)}; plus a warm-up span.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let mk =
            |name, a, b, parent, step| Span { name, start_ns: a, end_ns: b, parent, step, lane: 0 };
        t.spans = vec![
            mk("step", 0, 100, None, 1),
            mk("force", 10, 90, Some(0), 1),
            mk("build", 10, 30, Some(1), 1),
            mk("device", 40, 80, Some(1), 1),
            mk("device", 200, 260, None, 0),
            mk("device", 300, 330, None, 2),
        ];
        t.child_ns = vec![0; t.spans.len()];
        for i in 0..t.spans.len() {
            t.credit_parent(i);
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixture();
        assert_eq!(t.self_ns(0), 20); // 100 − force(80); grandchildren not double-counted
        assert_eq!(t.self_ns(1), 20); // 80 − build(20) − device(40)
        assert_eq!(t.self_ns(2), 20); // leaf: all of it
                                      // self times of a subtree sum to the root's duration
        let subtree: u64 = (0..4).map(|i| t.self_ns(i)).sum();
        assert_eq!(subtree, t.spans()[0].dur_ns());
    }

    #[test]
    fn totals_skip_warm_up_spans() {
        let t = fixture();
        assert!((t.total_s("device") - 70e-9).abs() < 1e-18);
        assert!((t.self_total_s("force") - 20e-9).abs() < 1e-18);
        assert_eq!(t.total_s("absent"), 0.0);
        let g = t.by_step_and_lane(&["device", "build"]);
        assert_eq!(g.len(), 2);
        assert!((g[&(1, 0)] - 60e-9).abs() < 1e-18);
        assert!((g[&(2, 0)] - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn live_spans_nest_and_close_in_order() {
        let mut t = Tracer::new();
        t.set_step(1);
        let outer = t.begin("outer");
        let v = t.time("inner", || 7);
        let (a, b) = (Instant::now(), Instant::now());
        t.record("gap", a, b);
        t.end(outer);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(outer));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.self_ns(outer) <= s[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_reader() {
        let t = fixture();
        let doc = Tracer::chrome_document(&[(&t, "unit")]);
        let back = Json::parse(&doc.to_line()).unwrap();
        assert_eq!(back, doc);
        let Some(Json::Arr(events)) = back.get("traceEvents") else { panic!("no events") };
        assert_eq!(events.len(), 7); // metadata + six spans
        assert_eq!(events[2].get("ts").and_then(Json::as_f64), Some(0.01));
        assert_eq!(events[2].get("args").and_then(|a| a.get("parent")), Some(&Json::Num(0.0)));
    }
}
