//! Tracing: the product's own trace events, kept in memory while a
//! traced pass runs and summed by span name when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory sink for the product's JSON-lines trace events.
#[derive(Debug, Clone, Default)]
pub struct SpanBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SpanBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("span buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SpanBuffer {
    /// Runs `f` with the product's trace events streaming into this
    /// buffer.
    pub fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        telemetry::set_event_sink(self.clone());
        let out = f();
        telemetry::clear_event_sink();
        out
    }

    /// `(name, total microseconds, spans)` of the events recorded so far,
    /// longest total first.
    pub fn totals(&self) -> Vec<(String, u64, u64)> {
        let events = self.0.lock().expect("span buffer lock");
        span_totals(&String::from_utf8_lossy(&events))
    }
}

/// Sums `"dur_us"` by `"name"` over JSON-lines events; lines without
/// both are skipped.
fn span_totals(events: &str) -> Vec<(String, u64, u64)> {
    let mut totals = BTreeMap::<String, (u64, u64)>::new();
    for line in events.lines() {
        let Some(name) = telemetry::json::top_level_str(line, "name") else {
            continue;
        };
        let Some(us) = line.split("\"dur_us\":").nth(1).and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        }) else {
            continue;
        };
        let entry = totals.entry(name).or_default();
        *entry = (entry.0 + us, entry.1 + 1);
    }
    let mut rows: Vec<_> = totals.into_iter().map(|(n, (us, k))| (n, us, k)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_by_name_longest_first() {
        let events = "\
{\"type\":\"trace\",\"name\":\"a\",\"trace\":1,\"span\":2,\"dur_us\":5}\n\
{\"type\":\"trace\",\"name\":\"b\",\"trace\":1,\"span\":3,\"dur_us\":40,\"parent\":2}\n\
{\"type\":\"span\",\"name\":\"c\",\"dur_ns\":9,\"depth\":0}\n\
not json\n\
{\"type\":\"trace\",\"name\":\"a\",\"trace\":4,\"span\":5,\"dur_us\":7}\n";
        assert_eq!(
            span_totals(events),
            vec![("b".to_string(), 40, 1), ("a".to_string(), 12, 2)]
        );
    }

    #[test]
    fn buffer_collects_what_is_written() {
        let buffer = SpanBuffer::default();
        let mut writer = buffer.clone();
        writeln!(writer, "{{\"name\":\"x\",\"dur_us\":3}}").expect("in-memory write");
        assert_eq!(buffer.totals(), vec![("x".to_string(), 3, 1)]);
    }
}
