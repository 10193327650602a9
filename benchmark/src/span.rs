//! In-memory host-time spans around the benchmark's calls into each
//! layer, with self-time derivation and Chrome `trace_event` export.
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`enter`] is one relaxed atomic load and records nothing. Each
//! thread keeps its finished spans in a thread-local buffer and hands
//! them to the global list when its outermost open span closes, so a
//! worker thread's spans are published before the call that spawned it
//! returns.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the process.
    pub id: u64,
    /// The span that caused this one, possibly on another thread.
    pub parent: Option<u64>,
    /// The layer entry point, e.g. `core.run`.
    pub name: &'static str,
    /// Labels such as `("pipeline", "T|DX")`.
    pub args: Vec<(&'static str, &'static str)>,
    /// Start, relative to the process-wide epoch.
    pub start: Duration,
    /// End, relative to the process-wide epoch.
    pub end: Duration,
    /// Recording thread, numbered from 1 in first-use order.
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u64,
    open: Vec<u64>,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        done: Vec::new(),
    });
}

/// Turns recording on or off for spans entered afterwards.
pub fn set_enabled(enabled: bool) {
    epoch();
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard(Option<Box<Span>>);

/// Opens a span whose parent is this thread's innermost open span.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = LOCAL.with(|l| l.borrow().open.last().copied());
    open(name, parent)
}

/// Opens a span under an explicit parent, for work a span hands to
/// other threads. Falls back to this thread's innermost open span.
pub fn enter_under(name: &'static str, parent: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = parent.or_else(|| LOCAL.with(|l| l.borrow().open.last().copied()));
    open(name, parent)
}

fn open(name: &'static str, parent: Option<u64>) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let thread = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.push(id);
        l.thread
    });
    Guard(Some(Box::new(Span {
        id,
        parent,
        name,
        args: Vec::new(),
        start: epoch().elapsed(),
        end: Duration::ZERO,
        thread,
    })))
}

impl Guard {
    /// The span's id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }

    /// Attaches a label.
    pub fn arg(&mut self, key: &'static str, value: &'static str) {
        if let Some(span) = self.0.as_mut() {
            span.args.push((key, value));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.0.take() else {
            return;
        };
        span.end = epoch().elapsed();
        let flushed = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(pos) = l.open.iter().rposition(|&id| id == span.id) {
                l.open.remove(pos);
            }
            l.done.push(*span);
            if l.open.is_empty() {
                std::mem::take(&mut l.done)
            } else {
                Vec::new()
            }
        });
        if !flushed.is_empty() {
            // A poisoned list only means another thread panicked while
            // appending; the spans already in it are whole.
            let mut all = FINISHED.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(flushed);
        }
    }
}

/// Removes and returns every published span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *FINISHED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Each span's self time: its duration minus the part of its interval
/// that its children (on any thread) cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as Chrome `trace_event` JSON (complete events, µs).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut args = format!("\"id\":{}", s.id);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        for (k, v) in &s.args {
            args.push_str(&format!(
                ",{}:{}",
                crate::json::quote(k),
                crate::json::quote(v)
            ));
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            crate::json::quote(s.name),
            s.thread,
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            args: Vec::new(),
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 2..8 of
        // the parent's 0..10.
        let spans = [
            span(1, None, 0, 10),
            span(2, Some(1), 2, 6),
            span(3, Some(1), 4, 8),
            span(4, Some(2), 3, 4),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], Duration::from_millis(4));
        assert_eq!(t[1], Duration::from_millis(3));
        assert_eq!(t[2], Duration::from_millis(4));
    }
}
