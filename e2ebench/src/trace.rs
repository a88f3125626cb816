//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory during the run and
//! are written out once at the end. A span's *self time* is its duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameStats {
    pub count: usize,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Span {
    pub name: String,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced path pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.into(),
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span count, total self time and total duration per span name.
    pub fn by_name(&self) -> BTreeMap<String, NameStats> {
        let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = out.entry(span.name.clone()).or_default();
            e.count += 1;
            e.self_ns += self_ns;
            e.total_ns += span.end_ns - span.start_ns;
        }
        out
    }

    /// The spans as tab-separated lines: request, id, parent, name,
    /// start and end in ns since the run began, self time in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let covered = covered_ns(&mut kids, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: String::new(),
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100] with parse [10,20] and eval [30,90], eval with
        // a join child [40,80].
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 20),
            span(Some(0), 30, 90),
            span(Some(2), 40, 80),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 40, 60),
            span(Some(0), 90, 130),
        ];
        // Union within [0,100] is [10,60] ∪ [90,100] = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let spans = vec![
            span(None, 0, 1000),
            span(Some(0), 0, 300),
            span(Some(1), 100, 200),
            span(Some(0), 300, 900),
            span(Some(3), 310, 320),
            span(Some(3), 500, 890),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut t = Tracer::new(true);
        t.set_request(3);
        t.span("request", || {});
        t.enter("outer");
        t.span("inner", || {});
        t.exit();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.request == 3 && s.end_ns >= s.start_ns));
        let by_name = t.by_name();
        assert_eq!(by_name.len(), 3);
        assert_eq!(by_name["outer"].count, 1);
        assert!(by_name["outer"].self_ns <= by_name["outer"].total_ns);

        let mut off = Tracer::new(false);
        off.span("request", || {});
        assert!(off.spans().is_empty());
    }
}
