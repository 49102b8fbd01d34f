//! An in-memory span recorder for the traced run. The harness wraps each
//! call into a layer of the repository in a span — spans inside the crates
//! are a later change (ROADMAP item 5) — and reads counters off the value
//! the call returned, at the same boundary. Spans are kept in memory and
//! written as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Op id of spans that belong to no op (cold start, probes).
pub const NO_OP: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` while the recorder is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle the recorder between spans");
        self.enabled = enabled;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
            counters: Vec::new(),
        });
        self.stack.push(id);
        // Read the clock last, so recorder bookkeeping stays outside.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open, counters: &[(&'static str, f64)]) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.counters.extend_from_slice(counters);
    }

    /// Runs `f` inside a span; `counters` reads them off its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce() -> T,
        counters: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> T {
        let open = self.begin(name, op_id);
        let out = f();
        if open.0.is_some() {
            let c = counters(&out);
            self.end(open, &c);
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover. Children of one parent never
    /// overlap here (one thread records), so that part is their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// One JSON object per span:
    /// `{id, name, start_ns, end_ns, self_ns, parent, op_id, counters}`.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op_id == NO_OP {
                "null".to_string()
            } else {
                s.op_id.to_string()
            };
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                w,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {op}, \"counters\": {{{}}}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                own[s.id as usize],
                counters.join(", ")
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from hand-written spans.
    fn recorder(spans: &[(u64, u64, Option<u32>)]) -> Recorder {
        let mut r = Recorder::new(true);
        for (i, &(start_ns, end_ns, parent)) in spans.iter().enumerate() {
            r.spans.push(Span {
                id: i as u32,
                name: "s",
                start_ns,
                end_ns,
                parent,
                op_id: NO_OP,
                counters: Vec::new(),
            });
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100) → a [10,40), b [50,90) → c [60,70)
        let r = recorder(&[
            (0, 100, None),
            (10, 40, Some(0)),
            (50, 90, Some(0)),
            (60, 70, Some(2)),
        ]);
        assert_eq!(r.self_ns(), vec![30, 30, 30, 10]);
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut r = Recorder::new(true);
        let op = r.begin("op", 7);
        let n = r.span("layer", 7, || 41 + 1, |v| vec![("value", *v as f64)]);
        assert_eq!(n, 42);
        r.end(op, &[("ok", 1.0)]);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].counters, vec![("value", 42.0)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\": 0") && text.contains("\"op_id\": 7"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let op = r.begin("op", 0);
        assert_eq!(r.span("layer", 0, || 5, |_| vec![("x", 1.0)]), 5);
        r.end(op, &[]);
        assert!(r.spans().is_empty());
    }
}
