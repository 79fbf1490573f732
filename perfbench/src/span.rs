//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A disabled [`Tracer`] records nothing and reads no clock, so the
//! untraced runs pay only for the timings the end-to-end metrics need.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval: which layer call it covers, which job or pass it
/// belongs to, and the span that was open when it started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `service.place_pass`.
    pub name: &'static str,
    /// Job id, pass number or cell number the call served.
    pub id: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Token for an open span; `None` when tracing is off.
#[must_use = "pass the token to Tracer::exit"]
pub struct Open(Option<usize>);

/// Span recorder. Spans are kept in memory and written out at the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.origin.elapsed();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.origin.elapsed();
        }
    }

    /// Record an interval measured elsewhere as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent: self.stack.last().copied(),
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
            });
        }
    }

    /// Every span recorded so far, in start order of their `enter` or
    /// `record` call.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children. Exact when the spans nest (see [`check_nesting`]).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Check that every span lies inside its parent and that siblings do not
/// overlap — the condition under which self times add up to the roots.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<Option<Duration>> = vec![None; spans.len()];
    let mut last_root_end: Option<Duration> = None;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let prev_end = match s.parent {
            Some(p) => {
                if p >= i {
                    return Err(format!("span {i} ({}) has a later parent {p}", s.name));
                }
                let parent = &spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
                &mut last_child_end[p]
            }
            None => &mut last_root_end,
        };
        if prev_end.is_some_and(|e| s.start < e) {
            return Err(format!(
                "span {i} ({}) overlaps its previous sibling",
                s.name
            ));
        }
        *prev_end = Some(s.end);
    }
    Ok(())
}

/// Render spans as CSV: `index,parent,name,id,start_ns,end_ns,self_ns`.
pub fn to_csv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("index,parent,name,id,start_ns,end_ns,self_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{i},{parent},{},{},{},{},{}",
            s.name,
            s.id,
            s.start.as_nanos(),
            s.end.as_nanos(),
            own[i].as_nanos()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            id: 0,
            parent,
            start: Duration::from_nanos(start),
            end: Duration::from_nanos(end),
        }
    }

    #[test]
    fn self_times_subtract_direct_children_only() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own, [70, 20, 10].map(Duration::from_nanos));
        let total: Duration = own.iter().sum();
        assert_eq!(total, spans[0].duration());
    }

    #[test]
    fn nesting_violations_are_reported() {
        assert!(check_nesting(&[span(None, 0, 10), span(Some(0), 2, 12)]).is_err());
        assert!(
            check_nesting(&[span(None, 0, 10), span(Some(0), 1, 5), span(Some(0), 4, 6)]).is_err()
        );
        assert!(check_nesting(&[span(None, 0, 10), span(Some(0), 1, 5)]).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("a", 1);
        t.record("b", 2, Instant::now(), Instant::now());
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
