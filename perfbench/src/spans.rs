//! Benchmark-side spans for the traced pass.
//!
//! The traced pass times calls into each layer's public functions from
//! outside; every such call becomes one span here (name, start, end,
//! parent span, frame id). Spans stay in memory while the pass runs and
//! are exported once at the end as Chrome trace-event JSON, the format
//! `kalmmind_obs::validate::validate_trace` checks.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based span id; 0 is reserved for "no parent".
    pub id: u64,
    pub parent: u64,
    pub frame: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records one span and returns its id (the parent of nested spans).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        frame: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            id,
            parent,
            frame,
        });
        id
    }

    /// Closes span `id` (recorded open, with its start as its end) at `end`.
    pub fn set_end(&mut self, id: u64, end: Instant) {
        let ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_ns = ns;
        }
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// microsecond `ts`/`dur`, the frame id as the trace id and the span
    /// and parent ids as hex strings under `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 150);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"trace\":\"{:x}\",\"span\":\"{:x}\",\"parent\":\"{:x}\"}}}}",
                s.name,
                s.start_ns / 1000,
                s.start_ns % 1000,
                dur / 1000,
                dur % 1000,
                s.frame,
                s.id,
                s.parent,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn export_validates_and_keeps_nesting() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 4);
        let t = |us: u64| epoch + Duration::from_micros(us);
        let root = rec.record("frame", t(1), t(9), 0, 7);
        rec.record("ingest.push", t(1), t(4), root, 7);
        rec.record("fleet.push_batch", t(4), t(8), root, 7);
        let json = rec.chrome_json();
        let summary = kalmmind_obs::validate::validate_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.complete, 3);
        assert_eq!(summary.traces, 1);
        assert!(json.contains("\"parent\":\"1\""));
        assert!(json.contains("\"ts\":4.000,\"dur\":4.000"));
    }
}
