//! The structured event log: a bounded in-memory ring of severity-tagged,
//! key/value-carrying events, with a default stderr sink for warnings and
//! errors. Replaces the server's raw `eprintln!` sites — the same text
//! still lands on stderr (operators and the fault-injection harness grep
//! it), but the event also becomes queryable over the stats endpoint.
//!
//! Events are *rare* (recovery warnings, degradations, lifecycle marks), so
//! a mutex-guarded ring is the right tool; nothing on a query or publish
//! hot path emits events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Retained events; older ones fall off the ring.
const RING_CAP: usize = 256;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic detail.
    Debug,
    /// Normal lifecycle marks.
    Info,
    /// Degradations the system survived (stderr by default).
    Warn,
    /// Failures (stderr by default).
    Error,
}

impl Severity {
    /// Uppercase tag for rendering.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        }
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (process-wide).
    pub seq: u64,
    /// Severity.
    pub severity: Severity,
    /// Emitting subsystem (`"server"`, `"wal"`, `"net"`, …).
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value context.
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// Render as one log line: `[WARN] server: message key=value …`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "[{}] {}: {}",
            self.severity.tag(),
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(v);
        }
        line
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

/// Append an event to the ring; `Warn` and above also print to stderr
/// (the default sink — keeps operator-facing warnings greppable in logs
/// and in the fault-injection harness's captured stderr).
pub fn emit(
    severity: Severity,
    target: &'static str,
    message: String,
    fields: Vec<(&'static str, String)>,
) {
    let event = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        severity,
        target,
        message,
        fields,
    };
    if severity >= Severity::Warn {
        eprintln!("{}", event.render());
    }
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() == RING_CAP {
        ring.pop_front();
    }
    ring.push_back(event);
}

/// The most recent `limit` events, oldest first.
pub fn recent_events(limit: usize) -> Vec<Event> {
    let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let skip = ring.len().saturating_sub(limit);
    ring.iter().skip(skip).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global: `ring_is_bounded` overwrites all of it, so
    /// the tests that write into it take turns.
    fn ring_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn events_ring_and_render() {
        let _turn = ring_lock();
        crate::event!(Info, "render-test", "hello {}", 42);
        crate::event!(
            Info,
            "render-test",
            [("shard", 3), ("epoch", "9")],
            "publish done"
        );
        let recent: Vec<Event> = recent_events(RING_CAP)
            .into_iter()
            .filter(|e| e.target == "render-test")
            .collect();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].message, "hello 42");
        assert!(recent[1].seq > recent[0].seq);
        assert_eq!(
            recent[1].render(),
            format!("[INFO] render-test: publish done shard=3 epoch=9")
        );
    }

    #[test]
    fn ring_is_bounded() {
        let _turn = ring_lock();
        for i in 0..(RING_CAP + 10) {
            emit(Severity::Debug, "bound", format!("e{i}"), Vec::new());
        }
        let all = recent_events(usize::MAX);
        assert!(all.len() <= RING_CAP);
    }
}
