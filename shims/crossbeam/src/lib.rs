//! Offline drop-in shim for the `crossbeam::channel` subset used by the
//! runtime: MPMC `bounded`/`unbounded` channels with cloneable receivers,
//! disconnect detection, and `recv_timeout`/`send_timeout`.
//!
//! Built on `Mutex` + `Condvar`; slower than real crossbeam but
//! semantically equivalent for the patterns the runtime uses (each
//! channel's sends are FIFO per sender, receivers compete for messages).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: Option<usize>,
    }

    /// The sending half of a channel; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel; cloneable (receivers compete).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent message is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::send_timeout`]; the unsent message is
    /// handed back in either case.
    #[derive(Debug, PartialEq, Eq)]
    pub enum SendTimeoutError<T> {
        /// The channel stayed full for the whole timeout.
        Timeout(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> fmt::Display for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => write!(f, "timed out sending on a full channel"),
                SendTimeoutError::Disconnected(_) => {
                    write!(f, "sending on a disconnected channel")
                }
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "channel is empty and disconnected")
                }
            }
        }
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// Creates an unbounded MPMC channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded MPMC channel; `send` blocks while `cap` messages
    /// are queued. `cap = 0` is rounded up to 1 (the shim does not model
    /// rendezvous channels; the runtime never requests them).
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while the channel is full. Fails only when
        /// every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                let full = self.shared.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.queue.push_back(msg);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = match self.shared.not_full.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }

        /// Number of messages currently queued (racy by nature — by the
        /// time the caller looks at it the queue may have changed; fine
        /// for monitoring, wrong for synchronization). Matches real
        /// crossbeam's `Sender::len`.
        #[must_use]
        pub fn len(&self) -> usize {
            match self.shared.state.lock() {
                Ok(g) => g.queue.len(),
                Err(p) => p.into_inner().queue.len(),
            }
        }

        /// True when no messages are queued; see [`Sender::len`].
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Sends `msg` with a deadline of `timeout` from now: blocks while
        /// the channel is full, handing the message back on timeout so the
        /// caller can refresh liveness signals (heartbeats) and retry.
        pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(msg));
                }
                let full = self.shared.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.queue.push_back(msg);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(SendTimeoutError::Timeout(msg));
                }
                let (guard, _res) = match self.shared.not_full.wait_timeout(st, deadline - now) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                st = guard;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            st.senders += 1;
            drop(st);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            st.senders -= 1;
            if st.senders == 0 {
                // Wake blocked receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives. Fails only when
        /// the channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = match self.shared.not_empty.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if let Some(msg) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Receives with a deadline of `timeout` from now.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = match self.shared.not_empty.wait_timeout(st, deadline - now) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                st = guard;
            }
        }

        /// Number of messages currently queued (racy by nature — by the
        /// time the caller looks at it the queue may have changed; fine
        /// for monitoring, wrong for synchronization). Matches real
        /// crossbeam's `Receiver::len`.
        #[must_use]
        pub fn len(&self) -> usize {
            match self.shared.state.lock() {
                Ok(g) => g.queue.len(),
                Err(p) => p.into_inner().queue.len(),
            }
        }

        /// True when no messages are queued; see [`Receiver::len`].
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Iterates over received messages until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over a receiver; see [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            st.receivers += 1;
            drop(st);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = match self.shared.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            st.receivers -= 1;
            if st.receivers == 0 {
                // Wake blocked senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn bounded_applies_backpressure() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until the main thread drains one
            drop(tx);
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn send_timeout_hands_the_message_back_then_delivers() {
        use super::channel::SendTimeoutError;
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let back = match tx.send_timeout(2, Duration::from_millis(10)) {
            Err(SendTimeoutError::Timeout(m)) => m,
            other => panic!("expected timeout, got {other:?}"),
        };
        assert_eq!(rx.recv(), Ok(1));
        tx.send_timeout(back, Duration::from_millis(10)).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        drop(rx);
        assert!(matches!(
            tx.send_timeout(3, Duration::from_millis(10)),
            Err(SendTimeoutError::Disconnected(3))
        ));
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_recv_reports_empty_vs_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cloned_receivers_compete_without_duplication() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let h = thread::spawn(move || rx2.iter().count());
        let mine = rx.iter().count();
        let theirs = h.join().unwrap();
        assert_eq!(mine + theirs, 100);
    }
}
