//! The daemon's one replayable log: an append-only list that any number of
//! readers replay from entry 0 and then follow live.  A cell's event stream
//! ([`crate::cache`]) and the global watch log ([`crate::server`]) are both
//! one.

use std::sync::{Condvar, Mutex};

const LOCK_POISONED: &str = "serve event log lock poisoned";

/// An append-only log, closed once no entry will follow.
pub(crate) struct EventLog<T> {
    state: Mutex<LogState<T>>,
    cond: Condvar,
}

struct LogState<T> {
    entries: Vec<T>,
    closed: bool,
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        EventLog {
            state: Mutex::new(LogState {
                entries: Vec::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }
}

impl<T: Clone> EventLog<T> {
    /// Append an entry and wake every reader.  No-op once closed.
    pub(crate) fn push(&self, entry: T) {
        let mut state = self.state.lock().expect(LOCK_POISONED);
        if !state.closed {
            state.entries.push(entry);
            self.cond.notify_all();
        }
    }

    /// Close the log and wake every reader; they drain what is buffered
    /// and return.
    pub(crate) fn close(&self) {
        self.state.lock().expect(LOCK_POISONED).closed = true;
        self.cond.notify_all();
    }

    /// Hand every entry to `emit` exactly once, in order, from entry 0,
    /// blocking for more until the log is closed and drained or `emit`
    /// returns `false`.  Entries are emitted outside the lock: engine
    /// workers push into the log, and a reader that stops reading must not
    /// stall them.
    pub(crate) fn tail(&self, mut emit: impl FnMut(&T) -> bool) {
        let mut next = 0usize;
        loop {
            let (pending, closed) = {
                let state = self.state.lock().expect(LOCK_POISONED);
                let state = self
                    .cond
                    .wait_while(state, |s| next == s.entries.len() && !s.closed)
                    .expect(LOCK_POISONED);
                (state.entries[next..].to_vec(), state.closed)
            };
            next += pending.len();
            if !pending.iter().all(&mut emit) || closed {
                return;
            }
        }
    }
}
