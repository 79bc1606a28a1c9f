//! Streaming JSONL event log.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::observer::Observer;

/// Writes one [`Event::to_json`] line per event to any `Write` sink.
///
/// The sink is the only part of the crate that does I/O, and it stays at
/// the edge: instrumented code sees only the [`Observer`] trait. Write
/// errors never panic the observed system — they are counted and the sink
/// goes quiet (query a nonzero [`JsonlSink::io_errors`] to detect a
/// truncated trace).
pub struct JsonlSink {
    /// The lock is the I/O serialisation point: lines from concurrent
    /// emitters never interleave. Nothing but the writer runs while it is
    /// held (the [`shared_buffer`](Self::shared_buffer) writer locks its
    /// buffer inside it, always in that order).
    out: Mutex<Box<dyn Write + Send>>,
    errors: AtomicU64,
}

impl JsonlSink {
    /// Wraps an arbitrary writer (a `File`, a `Vec<u8>`, a socket…).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(out),
            errors: AtomicU64::new(0),
        }
    }

    /// Creates (truncates) `path` and streams events to it, buffered.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// A sink writing into a shared in-memory buffer, for tests and for
    /// piping a trace straight into [`crate::TraceTree`] replay.
    pub fn shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .expect("shared buffer lock")
                    .extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        (JsonlSink::new(Box::new(SharedBuf(buf.clone()))), buf)
    }

    /// Number of write errors swallowed so far (0 for a healthy trace).
    pub fn io_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink lock").flush()
    }
}

impl Observer for JsonlSink {
    fn on_event(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink lock");
        if out.write_all(line.as_bytes()).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Poisoning is deliberately ignored: the sink is going away.
        let _ = self.out.lock().map(|mut w| w.flush());
    }
}

/// Parses a whole JSONL trace back into events.
///
/// Blank lines are skipped; the first malformed line aborts with its line
/// number, so `tracedump --check` can point at the exact corruption.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(Event::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryRef;

    #[test]
    fn events_round_trip_through_a_buffer() {
        let (sink, buf) = JsonlSink::shared_buffer();
        let q = QueryRef::new(1, 0);
        let evs = vec![
            Event::QueryIssued {
                at: 0,
                query: q,
                node: 1,
                sigma: Some(5),
                count_only: false,
                matched: true,
            },
            Event::QueryForwarded {
                at: 1,
                query: q,
                from: 1,
                to: 2,
                level: 0,
                attempt: 1,
            },
            Event::QueryCompleted {
                at: 9,
                query: q,
                node: 1,
                count: 3,
            },
        ];
        for ev in &evs {
            sink.on_event(ev);
        }
        sink.flush().unwrap();
        assert_eq!(sink.io_errors(), 0);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse_trace(&text).unwrap(), evs);
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let err =
            parse_trace("{\"ev\":\"node_crashed\",\"at\":1,\"node\":2}\n\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn write_errors_are_counted_not_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Broken));
        sink.on_event(&Event::NodeCrashed { at: 1, node: 2 });
        assert_eq!(sink.io_errors(), 1);
    }
}
