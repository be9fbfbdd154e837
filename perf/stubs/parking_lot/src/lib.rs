//! Offline stand-in for the parts of `parking_lot` 0.12 this repository
//! uses — `Mutex`, `RwLock` and `Condvar` with the published crate's
//! signatures (no poisoning, guards instead of `LockResult`) — over
//! `std::sync`. See the crossbeam stand-in beside it for why it exists.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync as ss;
use std::time::{Duration, Instant};

/// parking_lot locks do not poison: a panic while holding one leaves the
/// data as it was, and the next locker proceeds.
fn unpoison<G>(r: Result<G, ss::PoisonError<G>>) -> G {
    r.unwrap_or_else(ss::PoisonError::into_inner)
}

#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: ss::Mutex<T>,
}

/// Holds the std guard in an `Option` so `Condvar` can take it for the
/// duration of a wait and put the re-acquired one back.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<ss::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: ss::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { guard: Some(unpoison(self.inner.lock())) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(ss::TryLockError::Poisoned(p)) => Some(MutexGuard { guard: Some(p.into_inner()) }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard is only absent inside a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard is only absent inside a condvar wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: ss::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: ss::Condvar::new() }
    }

    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard is only absent inside a condvar wait");
        guard.guard = Some(unpoison(self.inner.wait(g)));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard is only absent inside a condvar wait");
        let (g, res) = unpoison(self.inner.wait_timeout(g, timeout));
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: ss::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: ss::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: ss::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: ss::RwLock::new(value) }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { guard: unpoison(self.inner.read()) }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { guard: unpoison(self.inner.write()) }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(RwLockReadGuard { guard }),
            Err(ss::TryLockError::Poisoned(p)) => Some(RwLockReadGuard { guard: p.into_inner() }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(RwLockWriteGuard { guard }),
            Err(ss::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard { guard: p.into_inner() }),
            Err(ss::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut g = pair.0.lock();
        assert!(pair.1.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert!(!*g);
        drop(g);
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        h.join().unwrap();
    }

    #[test]
    fn locks_survive_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
