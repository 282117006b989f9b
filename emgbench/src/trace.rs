//! In-memory spans for the traced run.
//!
//! The benchmark records one span around every public call it makes into
//! a layer, plus child spans built from the phase durations the program
//! already returns, so no timer is added inside the program. Spans are kept
//! in memory and written out once, at exit, as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or Perfetto) plus a self-time table.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph_core.csr`.
    pub name: String,
    /// Start, relative to the trace's epoch.
    pub start: Duration,
    /// End, relative to the trace's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (or request) the span belongs to; spans of one op share
    /// it.
    pub op: u64,
    /// Display lane (thread) in the exported trace.
    pub lane: u32,
}

/// Every span of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records `[start, end)` and returns the span's index.
    pub fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            op,
            lane,
        });
        self.spans.len() - 1
    }

    /// Turns the sequential phase durations a call returned into child
    /// spans of `parent`, laid back to back from the parent's start. Each
    /// phase name is mapped through `rename` to its layer-qualified name;
    /// unmapped phases are kept under their own name.
    pub fn push_phases(
        &mut self,
        parent: usize,
        phases: &[(String, Duration)],
        rename: &[(&str, &str)],
    ) {
        let (mut at, op, lane) = {
            let p = &self.spans[parent];
            (p.start, p.op, p.lane)
        };
        for (phase, dur) in phases {
            let name = rename
                .iter()
                .find(|(from, _)| from == phase)
                .map_or(phase.as_str(), |(_, to)| to);
            self.spans.push(Span {
                name: name.to_string(),
                start: at,
                end: at + *dur,
                parent: Some(parent),
                op,
                lane,
            });
            at += *dur;
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// The index of the root of span `i`'s tree.
    pub fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// The trace as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.op,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::new();
        let t0 = t.epoch;
        let at = |ms| t0 + Duration::from_millis(ms);
        let root = t.push("op", at(0), at(10), None, 0, 1);
        t.push("a", at(1), at(4), Some(root), 0, 1);
        t.push("b", at(3), at(6), Some(root), 0, 1);
        let own = t.self_times();
        assert_eq!(own[0], Duration::from_millis(5));
        assert_eq!(own[1], Duration::from_millis(3));
    }

    #[test]
    fn phases_become_back_to_back_children() {
        let mut t = Trace::new();
        let t0 = t.epoch;
        let p = t.push("bridges.tv", t0, t0 + Duration::from_millis(10), None, 7, 1);
        let phases = vec![
            ("spanning_tree".to_string(), Duration::from_millis(2)),
            ("euler_tour".to_string(), Duration::from_millis(5)),
        ];
        t.push_phases(p, &phases, &[("spanning_tree", "bridges.spanning_tree")]);
        let s = t.spans();
        assert_eq!(s[1].name, "bridges.spanning_tree");
        assert_eq!(s[2].name, "euler_tour");
        assert_eq!(s[2].start, Duration::from_millis(2));
        assert_eq!(s[2].op, 7);
        assert_eq!(t.self_times()[0], Duration::from_millis(3));
    }
}
