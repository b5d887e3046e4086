//! The benchmark's own spans: wall-clock intervals around single public
//! calls into the library, recorded from the benchmark's code only.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). Spans are kept in memory on the main thread and
//! folded into per-name totals when a repetition ends. A span's *self
//! time* is its duration minus the durations of its direct children.
//!
//! Recording is off unless [`set_recording`] turned it on, so the
//! end-to-end passes run the same code without keeping any spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Record {
    name: &'static str,
    parent: Option<usize>,
    seconds: f64,
}

#[derive(Default)]
struct Tracer {
    recording: bool,
    open: Vec<usize>,
    records: Vec<Record>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for the current thread.
pub fn set_recording(on: bool) {
    TRACER.with(|t| t.borrow_mut().recording = on);
}

/// An open span; closes when dropped.
pub struct Span {
    index: Option<usize>,
    start: Instant,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Span {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.recording {
            return None;
        }
        let parent = t.open.last().copied();
        let index = t.records.len();
        t.records.push(Record {
            name,
            parent,
            seconds: 0.0,
        });
        t.open.push(index);
        Some(index)
    });
    Span {
        index,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        if let Some(index) = self.index {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                t.records[index].seconds = seconds;
                t.open.retain(|&i| i != index);
            });
        }
    }
}

/// Per-name totals of the spans closed since the last call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name that closed.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Folds every recorded span into per-name totals and clears the record.
pub fn drain() -> BTreeMap<&'static str, Totals> {
    let records = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().records));
    fold(&records)
}

fn fold(records: &[Record]) -> BTreeMap<&'static str, Totals> {
    let mut child_s = vec![0.0; records.len()];
    for r in records {
        if let Some(p) = r.parent {
            child_s[p] += r.seconds;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (r, children) in records.iter().zip(child_s) {
        let e = out.entry(r.name).or_default();
        e.calls += 1;
        e.total_s += r.seconds;
        e.self_s += r.seconds - children;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let records = [
            Record {
                name: "outer",
                parent: None,
                seconds: 10.0,
            },
            Record {
                name: "inner",
                parent: Some(0),
                seconds: 3.0,
            },
            Record {
                name: "leaf",
                parent: Some(1),
                seconds: 1.0,
            },
            Record {
                name: "inner",
                parent: Some(0),
                seconds: 2.0,
            },
        ];
        let t = fold(&records);
        assert_eq!(t["outer"].self_s, 5.0);
        assert_eq!(t["inner"].calls, 2);
        assert_eq!(t["inner"].total_s, 5.0);
        assert_eq!(t["inner"].self_s, 4.0);
        assert_eq!(t["leaf"].self_s, 1.0);
    }

    #[test]
    fn nothing_is_kept_while_recording_is_off() {
        set_recording(false);
        drop(span("ignored"));
        assert!(drain().is_empty());
        set_recording(true);
        {
            let _outer = span("outer");
            drop(span("inner"));
        }
        set_recording(false);
        let t = drain();
        assert_eq!(t["outer"].calls, 1);
        assert_eq!(t["inner"].calls, 1);
        assert!(t["outer"].self_s <= t["outer"].total_s);
    }
}
