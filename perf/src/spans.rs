//! The harness's own span recorder.
//!
//! Spans are taken *around* calls into the library crates (layer = crate
//! name), kept in memory, and written as JSON lines when the run ends. A
//! span's self time is its duration minus the part its children cover.
//! Durations the program reports itself (`BuildStats`, `QueryTrace`
//! stages, registry histograms) are attached as `reported` children laid
//! back to back from the parent's start: their length is the program's own
//! figure, their position is not measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Interaction / cycle / batch the span belongs to.
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    reported: bool,
}

/// An open span: where it sits in the recorder and when it started.
pub struct Open {
    idx: u32,
    start: Instant,
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, in the given unit (ns per unit).
    pub fn mean_self(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// One thread's spans. Timing always happens (the untraced run needs the
/// latencies too); recording happens only while the recorder is on.
pub struct Spans {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Parent and end offset of the last `reported` child, so siblings are
    /// laid back to back.
    reported_cursor: (u32, u64),
}

impl Spans {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Spans {
            on: false,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            reported_cursor: (NONE, 0),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span that will have children.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { idx: NONE, start };
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.at(start);
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns, reported: false });
        self.stack.push(idx);
        Open { idx, start }
    }

    /// Close `open`; returns its id (for `reported` children) and its
    /// duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> (u32, u64) {
        let end = Instant::now();
        if open.idx != NONE {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans close in LIFO order");
            self.spans[open.idx as usize].end_ns = self.at(end);
        }
        (open.idx, end.duration_since(open.start).as_nanos() as u64)
    }

    /// Time a leaf call; returns its result and duration in nanoseconds.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(name, op);
        let out = f();
        let (_, ns) = self.exit(open);
        (out, ns)
    }

    /// Attach a duration the program reported itself as a child of the
    /// closed span `parent`.
    pub fn reported(&mut self, parent: u32, name: &'static str, op: u64, ns: u64) {
        if parent == NONE {
            return;
        }
        let p = &self.spans[parent as usize];
        let offset = if self.reported_cursor.0 == parent { self.reported_cursor.1 } else { 0 };
        // Clamp into the parent: the program's clock reads are not ours.
        let start_ns = (p.start_ns + offset).min(p.end_ns);
        let end_ns = (start_ns + ns).min(p.end_ns);
        self.reported_cursor = (parent, end_ns - p.start_ns);
        self.spans.push(Span { name, op, parent, start_ns, end_ns, reported: true });
    }

    /// Per-name aggregates over the spans that start inside `[from, to)`.
    pub fn aggregate(&self, from: u64, to: u64, into: &mut BTreeMap<&'static str, Agg>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.start_ns < from || s.start_ns >= to {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let agg = into.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child_ns[i]);
        }
    }

    /// Nanoseconds of `[from, to)` covered by root spans.
    pub fn covered(&self, from: u64, to: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(|s| s.end_ns.min(to).saturating_sub(s.start_ns.max(from)))
            .sum()
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"reported\":{}}}",
                self.thread, s.op, s.name, s.start_ns, s.end_ns, s.reported
            )?;
        }
        Ok(())
    }
}
