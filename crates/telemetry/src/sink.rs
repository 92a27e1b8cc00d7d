//! The streaming-export sink contract.
//!
//! A [`Tracer`](crate::Tracer) built in streaming mode owns a boxed
//! [`EventSink`] and drains buffered events into it — either when an
//! explicit drain is requested, when a per-track ring would otherwise
//! evict, or when the buffered total crosses the configured drain
//! threshold. The concrete sinks ([`JsonlSink`](crate::JsonlSink),
//! [`ChromeTraceSink`](crate::ChromeTraceSink)) live in
//! [`export`](crate::export); this module holds the trait and, for the
//! crate's own tests, a shared in-memory writer that observes sink output
//! while the tracer owns the sink.

use crate::event::TraceEvent;
use crate::registry::Snapshot;
use std::io;

/// Receives drained trace events incrementally, then a final metrics
/// snapshot.
///
/// Implementations must be `Send`: the owning `Tracer` sits behind the
/// `Telemetry` handle, which crosses threads in `cable-bench`.
pub trait EventSink: Send {
    /// Writes one drained event. Called in ascending `seq` order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O error; the tracer latches
    /// the first failure and stops draining.
    fn write_event(&mut self, te: &TraceEvent) -> io::Result<()>;

    /// Finalizes the stream: the metrics snapshot taken at finish time,
    /// the total number of events ever recorded, and how many were
    /// dropped (evicted unwritten).
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O error.
    fn finish(&mut self, snapshot: &Snapshot, events_total: u64, dropped: u64) -> io::Result<()>;
}

#[cfg(test)]
pub(crate) mod tests {
    use std::io::{self, Write as _};
    use std::sync::{Arc, Mutex};

    /// A cloneable in-memory byte buffer implementing [`io::Write`].
    ///
    /// Hand one clone to a sink (which the tracer then owns) and keep the
    /// other to inspect what was written — the pattern the streaming
    /// equivalence tests and bounded-memory assertions use.
    #[derive(Clone, Debug, Default)]
    pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        /// An empty buffer.
        #[must_use]
        pub fn new() -> Self {
            SharedBuf::default()
        }

        /// A copy of everything written so far.
        ///
        /// # Panics
        ///
        /// Panics if a writer panicked while holding the buffer lock.
        #[must_use]
        pub fn contents(&self) -> Vec<u8> {
            self.0.lock().expect("shared buffer poisoned").clone()
        }

        /// The written bytes as UTF-8 text.
        ///
        /// # Panics
        ///
        /// Panics if the contents are not valid UTF-8 (the JSON sinks only
        /// write UTF-8).
        #[must_use]
        pub fn text(&self) -> String {
            String::from_utf8(self.contents()).expect("sink output is UTF-8")
        }

        /// Bytes written so far.
        ///
        /// # Panics
        ///
        /// Panics if a writer panicked while holding the buffer lock.
        #[must_use]
        pub fn len(&self) -> usize {
            self.0.lock().expect("shared buffer poisoned").len()
        }

        /// Whether nothing was written yet.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .expect("shared buffer poisoned")
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn shared_buf_clones_observe_writes() {
        let buf = SharedBuf::new();
        let mut writer = buf.clone();
        writer.write_all(b"hello").unwrap();
        writer.flush().unwrap();
        assert_eq!(buf.contents(), b"hello");
        assert_eq!(buf.text(), "hello");
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
    }
}
