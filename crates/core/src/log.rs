//! The one replayable event log: an append-only list that any number of
//! readers replay from entry 0 and then follow live.  A
//! [`TelemetryHub`](crate::TelemetryHub)'s event stream is one, and so is
//! each cell's stream in the `mbfi-serve` daemon.

use std::sync::{Condvar, Mutex};

const LOCK_POISONED: &str = "event log lock poisoned";

/// An append-only log, closed once no entry will follow.  `S` is state its
/// owner keeps under the log's lock beside the entries, so that what the
/// owner derives from it is in step with the entries it appends.
#[derive(Debug)]
pub struct EventLog<T, S = ()> {
    state: Mutex<LogState<T, S>>,
    cond: Condvar,
}

#[derive(Debug)]
struct LogState<T, S> {
    entries: Vec<T>,
    closed: bool,
    side: S,
}

impl<T, S: Default> Default for EventLog<T, S> {
    fn default() -> Self {
        EventLog {
            state: Mutex::new(LogState {
                entries: Vec::new(),
                closed: false,
                side: S::default(),
            }),
            cond: Condvar::new(),
        }
    }
}

impl<T: Clone, S> EventLog<T, S> {
    /// Append an entry and wake every reader.  No-op once closed.
    pub fn push(&self, entry: T) {
        self.append(|_, _| [entry]);
    }

    /// Under the log's lock, hand `make` the side state and the index the
    /// next entry will get, append the entries it returns and wake every
    /// reader.  Once the log is closed, `make` still runs but its entries
    /// are dropped.
    pub fn append<I: IntoIterator<Item = T>>(&self, make: impl FnOnce(&mut S, usize) -> I) {
        let mut state = self.state.lock().expect(LOCK_POISONED);
        let state = &mut *state;
        let len = state.entries.len();
        let entries = make(&mut state.side, len);
        if !state.closed {
            state.entries.extend(entries);
            if state.entries.len() > len {
                self.cond.notify_all();
            }
        }
    }

    /// Run `read` on the side state and every entry so far, under the
    /// log's lock.
    pub fn read<R>(&self, read: impl FnOnce(&mut S, &[T]) -> R) -> R {
        let mut state = self.state.lock().expect(LOCK_POISONED);
        let state = &mut *state;
        read(&mut state.side, &state.entries)
    }

    /// Close the log and wake every reader; they drain what is buffered
    /// and return.
    pub fn close(&self) {
        self.state.lock().expect(LOCK_POISONED).closed = true;
        self.cond.notify_all();
    }

    /// Hand every entry to `emit` exactly once, in order, from entry 0,
    /// blocking for more until the log is closed and drained or `emit`
    /// returns `false`.  Entries are emitted outside the lock: writers
    /// append from engine workers, and a reader that stops reading must not
    /// stall them.
    pub fn tail(&self, mut emit: impl FnMut(&T) -> bool) {
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
