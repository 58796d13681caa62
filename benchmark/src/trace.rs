//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own files, around
//! calls into each layer's public functions; nothing inside the program
//! under test is instrumented. Spans and counts stay in memory and are
//! written as one JSON file when the run ends. A recorder that is off
//! costs one branch per call and reads no clock, which is what the
//! end-to-end run uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `op` is the grid index or request number the
/// span belongs to; spans of one operation share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of a span that is still open.
#[must_use]
pub struct Open(Option<u32>);

pub struct Recorder {
    on: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn off() -> Self {
        Self::new(false, "")
    }

    pub fn on(workload: &'static str) -> Self {
        Self::new(true, workload)
    }

    fn new(on: bool, workload: &'static str) -> Self {
        Self {
            on,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    pub fn begin(&mut self, name: &'static str, op: usize) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: op as u32,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id as usize].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Adds to a named count, recorded at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Inclusive time of the spans called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Inclusive microseconds per span called `name` (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Self time of every span name: `(nanoseconds, calls)`.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let slot = out.entry(span.name).or_insert((0, 0));
            slot.0 += self_ns;
            slot.1 += 1;
        }
        out
    }

    /// Writes every span and count as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{}\",\"counts\":{{", self.workload);
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{n}", if i == 0 { "" } else { "," });
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"workload\":\"{}\",\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{}",
                s.id,
                self.workload,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children are clipped to the parent and their
/// union is taken, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) else {
            continue;
        };
        let start = s.start_ns.max(spans[p].start_ns);
        let end = s.end_ns.min(spans[p].end_ns);
        if end > start {
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 cover 10..70 = 60, not 80; a third
        // child sticking out past the parent is clipped to it.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_infers_parents_from_nesting_and_is_silent_when_off() {
        let mut rec = Recorder::on("w");
        let outer = rec.begin("outer", 7);
        rec.time("inner", 7, || ());
        rec.end(outer);
        rec.count("n", 3);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].op, 7);
        assert_eq!(rec.counted("n"), 3);
        let by_name = rec.self_by_name();
        assert_eq!(by_name["outer"].1, 1);

        let mut off = Recorder::off();
        let o = off.begin("x", 0);
        off.end(o);
        off.count("n", 1);
        assert!(off.spans().is_empty());
        assert_eq!(off.counted("n"), 0);
    }
}
