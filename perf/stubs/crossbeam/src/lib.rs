//! Offline stand-in for the parts of `crossbeam` 0.8 this repository
//! uses: MPMC `channel::{bounded, unbounded}` with `Select` over
//! receivers, and `queue::SegQueue`. Everything is a `Mutex` +
//! `Condvar` over a `VecDeque` — blocking, not polling, so wake-up
//! latency is a futex hand-off as in the published crate. The build
//! container cannot reach a registry, so the benchmark patches this in;
//! numbers measured with it compare commits of *this* repository with
//! each other, not with a build against the published crate.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// One blocked `Select::select` call; channels it watches flag and
    /// signal it on every send and on sender disconnect.
    struct Waker {
        fired: Mutex<bool>,
        cv: Condvar,
    }

    impl Waker {
        fn fire(&self) {
            *self.fired.lock().expect("waker lock poisoned") = true;
            self.cv.notify_one();
        }
    }

    struct State<T> {
        queue: VecDeque<T>,
        /// Messages popped so far; a rendezvous sender waits for it to
        /// pass its own message's sequence number.
        taken: u64,
        pushed: u64,
        senders: usize,
        receivers: usize,
        watchers: Vec<Arc<Waker>>,
    }

    struct Chan<T> {
        /// `None` = unbounded; `Some(0)` = rendezvous.
        cap: Option<usize>,
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().expect("channel lock poisoned")
        }

        fn has_room(&self, st: &State<T>) -> bool {
            match self.cap {
                None => true,
                // A rendezvous channel holds one message in the sender's hand.
                Some(0) => st.queue.is_empty(),
                Some(c) => st.queue.len() < c,
            }
        }

        fn push(&self, st: &mut State<T>, msg: T) -> u64 {
            st.queue.push_back(msg);
            st.pushed += 1;
            self.not_empty.notify_one();
            for w in &st.watchers {
                w.fire();
            }
            st.pushed
        }

        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let msg = st.queue.pop_front()?;
            st.taken += 1;
            // A rendezvous sender waits on `not_full` for `taken` to advance,
            // next to senders waiting for room, so wake them all.
            if self.cap == Some(0) {
                self.not_full.notify_all();
            } else {
                self.not_full.notify_one();
            }
            Some(msg)
        }
    }

    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        make(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make(None)
    }

    fn make<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            cap,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                taken: 0,
                pushed: 0,
                senders: 1,
                receivers: 1,
                watchers: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(t) | TrySendError::Disconnected(t) => t,
            }
        }

        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }

        pub fn is_disconnected(&self) -> bool {
            matches!(self, TrySendError::Disconnected(_))
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            // A rendezvous `try_send` only succeeds into the hands of a
            // waiting receiver; without tracking those, report it full and
            // let the caller fall back to the blocking `send`.
            if self.chan.cap == Some(0) || !self.chan.has_room(&st) {
                return Err(TrySendError::Full(msg));
            }
            self.chan.push(&mut st, msg);
            Ok(())
        }

        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let chan = &*self.chan;
            let mut st = chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if chan.has_room(&st) {
                    break;
                }
                st = chan.not_full.wait(st).expect("channel lock poisoned");
            }
            let seq = chan.push(&mut st, msg);
            if chan.cap == Some(0) {
                // Rendezvous: return only once a receiver has the message.
                while st.taken < seq {
                    if st.receivers == 0 {
                        // Nobody will ever take it: hand it back. Ours is the
                        // only queued message, as the queue held none before.
                        let msg = st.queue.pop_back().expect("rendezvous message still queued");
                        st.pushed -= 1;
                        return Err(SendError(msg));
                    }
                    st = chan.not_full.wait(st).expect("channel lock poisoned");
                }
            }
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender { chan: self.chan.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.chan.not_empty.notify_all();
                for w in &st.watchers {
                    w.fire();
                }
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            match self.chan.pop(&mut st) {
                Some(msg) => Ok(msg),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.lock();
            loop {
                if let Some(msg) = self.chan.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.not_empty.wait(st).expect("channel lock poisoned");
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                if let Some(msg) = self.chan.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .chan
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .expect("channel lock poisoned")
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver { chan: self.chan.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// What `Select` needs from a registered receiver, with `T` erased.
    trait Watched {
        /// A `recv` would return now: a message is queued or every sender
        /// is gone.
        fn ready(&self) -> bool;
        /// Atomically: report readiness, and if not ready start signalling
        /// `w` on every change.
        fn ready_or_watch(&self, w: &Arc<Waker>) -> bool;
        fn unwatch(&self, w: &Arc<Waker>);
    }

    impl<T> Watched for Chan<T> {
        fn ready(&self) -> bool {
            let st = self.lock();
            !st.queue.is_empty() || st.senders == 0
        }

        fn ready_or_watch(&self, w: &Arc<Waker>) -> bool {
            let mut st = self.lock();
            if !st.queue.is_empty() || st.senders == 0 {
                return true;
            }
            st.watchers.push(w.clone());
            false
        }

        fn unwatch(&self, w: &Arc<Waker>) {
            self.lock().watchers.retain(|x| !Arc::ptr_eq(x, w));
        }
    }

    /// Blocks until one of several registered receive operations is
    /// ready. Only `recv` operations are supported.
    pub struct Select<'a> {
        ops: Vec<&'a dyn Watched>,
    }

    /// Rotates which ready operation `select` reports first, so one busy
    /// channel cannot starve the others.
    static NEXT_START: AtomicUsize = AtomicUsize::new(0);

    impl<'a> Select<'a> {
        pub fn new() -> Self {
            Select { ops: Vec::new() }
        }

        pub fn recv<T>(&mut self, rx: &'a Receiver<T>) -> usize {
            self.ops.push(&*rx.chan);
            self.ops.len() - 1
        }

        fn first_ready(&self) -> Option<usize> {
            let n = self.ops.len();
            let start = NEXT_START.fetch_add(1, Ordering::Relaxed);
            (0..n).map(|k| (start + k) % n).find(|&i| self.ops[i].ready())
        }

        pub fn select(&mut self) -> SelectedOperation<'a> {
            assert!(!self.ops.is_empty(), "no operations have been added to `Select`");
            loop {
                if let Some(index) = self.first_ready() {
                    return SelectedOperation { index, _marker: std::marker::PhantomData };
                }
                let waker = Arc::new(Waker { fired: Mutex::new(false), cv: Condvar::new() });
                let mut watched = 0;
                let mut ready = false;
                for op in &self.ops {
                    if op.ready_or_watch(&waker) {
                        ready = true;
                        break;
                    }
                    watched += 1;
                }
                if !ready {
                    let mut fired = waker.fired.lock().expect("waker lock poisoned");
                    while !*fired {
                        fired = waker.cv.wait(fired).expect("waker lock poisoned");
                    }
                }
                for op in &self.ops[..watched] {
                    op.unwatch(&waker);
                }
            }
        }
    }

    impl Default for Select<'_> {
        fn default() -> Self {
            Select::new()
        }
    }

    pub struct SelectedOperation<'a> {
        index: usize,
        _marker: std::marker::PhantomData<&'a ()>,
    }

    impl SelectedOperation<'_> {
        pub fn index(&self) -> usize {
            self.index
        }

        /// Completes the selected receive. With another consumer racing on
        /// the same channel this may block until the next message.
        pub fn recv<T>(self, rx: &Receiver<T>) -> Result<T, RecvError> {
            rx.recv()
        }
    }
}

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Unbounded MPMC queue.
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        pub const fn new() -> Self {
            SegQueue { inner: Mutex::new(VecDeque::new()) }
        }

        pub fn push(&self, value: T) {
            self.inner.lock().expect("queue lock poisoned").push_back(value);
        }

        pub fn pop(&self) -> Option<T> {
            self.inner.lock().expect("queue lock poisoned").pop_front()
        }

        pub fn len(&self) -> usize {
            self.inner.lock().expect("queue lock poisoned").len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }

    impl<T> std::fmt::Debug for SegQueue<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SegQueue { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn bounded_blocks_and_delivers_in_order() {
        let (tx, rx) = bounded::<u32>(2);
        let h = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_send_reports_full_then_disconnected() {
        let (tx, rx) = bounded::<u32>(1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        assert_eq!(tx.send(4).unwrap_err().into_inner(), 4);
    }

    #[test]
    fn rendezvous_send_waits_for_receiver() {
        let (tx, rx) = bounded::<u32>(0);
        assert!(matches!(tx.try_send(1), Err(TrySendError::Full(1))));
        let h = thread::spawn(move || {
            tx.send(7).unwrap();
            tx.send(8).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap(), 8);
        h.join().unwrap();
        assert!(rx.recv().is_err());
    }

    #[test]
    fn rendezvous_send_fails_when_receiver_leaves() {
        let (tx, rx) = bounded::<u32>(0);
        let h = thread::spawn(move || tx.send(7));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(h.join().unwrap().unwrap_err().into_inner(), 7);
    }

    #[test]
    fn recv_timeout_times_out_and_sees_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn select_wakes_on_message_and_on_disconnect() {
        let (tx_a, rx_a) = bounded::<u32>(1);
        let (tx_b, rx_b) = bounded::<u32>(1);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx_b.send(5).unwrap();
            thread::sleep(Duration::from_millis(10));
            drop(tx_a);
        });
        let rxs = [&rx_a, &rx_b];
        let mut seen = Vec::new();
        let mut live = vec![0usize, 1];
        while !live.is_empty() {
            let mut sel = Select::new();
            for &i in &live {
                sel.recv(rxs[i]);
            }
            let op = sel.select();
            let idx = live[op.index()];
            match op.recv(rxs[idx]) {
                Ok(v) => seen.push((idx, v)),
                Err(_) => live.retain(|&i| i != idx),
            }
        }
        h.join().unwrap();
        assert_eq!(seen, vec![(1, 5)]);
    }
}
