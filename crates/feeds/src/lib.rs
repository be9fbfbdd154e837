//! # asterix-feeds — continuous data ingestion (§2.4, §4.5)
//!
//! A feed's Ingestion Pipeline has three Stages — **intake**, **compute**,
//! and **store** — each an Operator. The Intake stage runs the feed adaptor
//! and converts incoming data to ADM; the compute stage applies an optional
//! pre-processing function; the store stage inserts into the target Dataset
//! (and its indexes). **Feed Joints** tap the pipeline between stages,
//! buffering an operator's output and letting data be routed simultaneously
//! along multiple paths — which is how Secondary Feeds cascade.
//!
//! The paper's socket adaptor listens on TCP; here the socket is simulated
//! by an in-process channel endpoint ([`SocketEndpoint`]) that external
//! "clients" push data into — the same push-based intake path without
//! binding real ports. A `localfs` file adaptor reads ADM files.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use asterix_sync::{Condvar, Mutex};

use asterix_adm::{AdmError, Value};

/// Feed errors.
#[derive(Debug)]
pub enum FeedError {
    Adm(AdmError),
    Io(std::io::Error),
    Closed(String),
    Config(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Adm(e) => write!(f, "{e}"),
            FeedError::Io(e) => write!(f, "io error: {e}"),
            FeedError::Closed(m) => write!(f, "feed closed: {m}"),
            FeedError::Config(m) => write!(f, "feed config error: {m}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<AdmError> for FeedError {
    fn from(e: AdmError) -> Self {
        FeedError::Adm(e)
    }
}

impl From<std::io::Error> for FeedError {
    fn from(e: std::io::Error) -> Self {
        FeedError::Io(e)
    }
}

type FResult<T> = Result<T, FeedError>;

/// Raw items produced by an adaptor before the intake stage parses them.
#[derive(Debug, Clone)]
pub enum RawItem {
    /// ADM text to be parsed (`("format"="adm")`).
    Text(String),
    /// An already-typed value (in-process producers).
    Value(Value),
    /// End of feed.
    Eof,
}

/// The push endpoint of the simulated socket adaptor: what a TCP client
/// would be on the paper's deployment.
#[derive(Clone)]
pub struct SocketEndpoint {
    tx: SyncSender<RawItem>,
}

impl SocketEndpoint {
    /// Push one ADM-text datum (blocking if the intake buffer is full —
    /// feed back-pressure).
    pub fn send_text(&self, text: impl Into<String>) -> FResult<()> {
        self.tx
            .send(RawItem::Text(text.into()))
            .map_err(|_| FeedError::Closed("intake stopped".into()))
    }

    /// Push one typed value.
    pub fn send_value(&self, v: Value) -> FResult<()> {
        self.tx.send(RawItem::Value(v)).map_err(|_| FeedError::Closed("intake stopped".into()))
    }

    /// Try to push without blocking; `false` when the buffer is full.
    pub fn try_send_value(&self, v: Value) -> FResult<bool> {
        match self.tx.try_send(RawItem::Value(v)) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(FeedError::Closed("intake stopped".into())),
        }
    }

    /// Close the feed (EOF).
    pub fn close(&self) {
        let _ = self.tx.send(RawItem::Eof);
    }
}

/// A Feed Joint: buffers an operator's output and offers a subscription
/// mechanism so data can flow along multiple paths (§4.5).
pub struct FeedJoint {
    subscribers: Mutex<Vec<SyncSender<RawItem>>>,
    delivered: AtomicU64,
}

impl Default for FeedJoint {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedJoint {
    pub fn new() -> FeedJoint {
        FeedJoint { subscribers: Mutex::new(Vec::new()), delivered: AtomicU64::new(0) }
    }

    /// Subscribe a new consumer (e.g. a secondary feed's pipeline);
    /// returns its receiving end, directly consumable by
    /// [`IngestionPipeline::start`].
    pub fn subscribe(&self, buffer: usize) -> Receiver<RawItem> {
        let (tx, rx) = sync_channel(buffer.max(1));
        self.subscribers.lock().push(tx);
        rx
    }

    /// Route a value to every subscriber.
    pub fn publish(&self, v: &Value) {
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| tx.send(RawItem::Value(v.clone())).is_ok());
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Values published so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }
}

/// Counters for a running pipeline.
#[derive(Debug, Default)]
pub struct FeedStats {
    pub ingested: AtomicU64,
    pub stored: AtomicU64,
    pub failed: AtomicU64,
}

/// Monotonic change signal for a pipeline's counters: the pipeline thread
/// bumps it after every stored/failed update (and once on exit), so waiters
/// can block on progress instead of sleep-polling the counters.
#[derive(Default)]
pub struct ProgressNotifier {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl ProgressNotifier {
    pub fn new() -> ProgressNotifier {
        ProgressNotifier::default()
    }

    /// The current change sequence. Capture this BEFORE reading the
    /// counters, then pass it to [`ProgressNotifier::wait_change`]: an
    /// update landing between the read and the wait advances the sequence,
    /// so the wait returns immediately — no lost-wakeup window.
    pub fn current(&self) -> u64 {
        *self.seq.lock()
    }

    /// Advance the sequence and wake every waiter.
    pub fn notify(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the sequence advances past `last` or `timeout` elapses;
    /// returns the sequence observed on wakeup (== `last` on timeout).
    pub fn wait_change(&self, last: u64, timeout: std::time::Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut seq = self.seq.lock();
        while *seq <= last {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            if self.cv.wait_for(&mut seq, deadline - now).timed_out() {
                break;
            }
        }
        *seq
    }
}

/// Fires a final notify when the pipeline thread exits for any reason, so
/// waiters observe the end of the stream instead of sleeping out their
/// timeout.
struct NotifyOnExit(Arc<ProgressNotifier>);

impl Drop for NotifyOnExit {
    fn drop(&mut self) {
        self.0.notify();
    }
}

/// The compute stage's pre-processing function: None drops the record
/// (filtering feeds), Some transforms it (§2.4: "apply a previously
/// defined function to the output of the adaptor").
pub type ComputeFn = Arc<dyn Fn(Value) -> FResult<Option<Value>> + Send + Sync>;

/// The store stage: insert into the target dataset + its indexes.
pub type StoreFn = Arc<dyn Fn(Value) -> FResult<()> + Send + Sync>;

/// A running ingestion pipeline (intake → compute → store on one thread,
/// with feed joints after intake and compute).
pub struct IngestionPipeline {
    handle: Option<JoinHandle<FResult<()>>>,
    stop: Arc<AtomicBool>,
    /// Joint after the intake stage (pre-compute data).
    pub intake_joint: Arc<FeedJoint>,
    /// Joint after the compute stage (what the store stage sees).
    pub compute_joint: Arc<FeedJoint>,
    pub stats: Arc<FeedStats>,
    /// Signals every stored/failed counter update (condvar-based waits for
    /// ingestion progress — see [`ProgressNotifier`]).
    pub progress: Arc<ProgressNotifier>,
}

impl IngestionPipeline {
    /// Start a pipeline consuming `rx`.
    pub fn start(
        name: impl Into<String>,
        rx: Receiver<RawItem>,
        compute: Option<ComputeFn>,
        store: StoreFn,
    ) -> IngestionPipeline {
        let stop = Arc::new(AtomicBool::new(false));
        let intake_joint = Arc::new(FeedJoint::new());
        let compute_joint = Arc::new(FeedJoint::new());
        let stats = Arc::new(FeedStats::default());
        let progress = Arc::new(ProgressNotifier::new());
        let (stop2, ij, cj, st, pn) = (
            Arc::clone(&stop),
            Arc::clone(&intake_joint),
            Arc::clone(&compute_joint),
            Arc::clone(&stats),
            Arc::clone(&progress),
        );
        let name = name.into();
        let handle = std::thread::Builder::new()
            .name(format!("feed-{name}"))
            .spawn(move || -> FResult<()> {
                let _exit = NotifyOnExit(Arc::clone(&pn));
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    // Bounded wait so disconnects are honored even when the
                    // source goes quiet (a secondary feed's parent may stay
                    // connected but idle).
                    let item = match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                        Ok(i) => i,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return Ok(()),
                    };
                    // Intake: raw → ADM.
                    let value = match item {
                        RawItem::Eof => return Ok(()),
                        RawItem::Value(v) => v,
                        RawItem::Text(t) => match asterix_adm::parse::parse_value(&t) {
                            Ok(v) => v,
                            Err(_) => {
                                st.failed.fetch_add(1, Ordering::Relaxed);
                                pn.notify();
                                continue;
                            }
                        },
                    };
                    st.ingested.fetch_add(1, Ordering::Relaxed);
                    ij.publish(&value);
                    // Compute: optional pre-processing function.
                    let value = match &compute {
                        None => Some(value),
                        Some(f) => match f(value) {
                            Ok(v) => v,
                            Err(_) => {
                                st.failed.fetch_add(1, Ordering::Relaxed);
                                pn.notify();
                                continue;
                            }
                        },
                    };
                    let Some(value) = value else { continue };
                    cj.publish(&value);
                    // Store: into the dataset and its indexes.
                    match store(value) {
                        Ok(()) => {
                            st.stored.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            st.failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    pn.notify();
                }
            })
            .expect("spawn feed thread");
        IngestionPipeline {
            handle: Some(handle),
            stop,
            intake_joint,
            compute_joint,
            stats,
            progress,
        }
    }

    /// Request stop and wait for the pipeline thread (disconnect feed).
    /// Returns within one poll interval even if the source is still open.
    pub fn disconnect(mut self) -> FResult<()> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            match h.join() {
                Ok(r) => r,
                Err(_) => Err(FeedError::Closed("feed thread panicked".into())),
            }
        } else {
            Ok(())
        }
    }
}

/// Create a simulated socket adaptor: returns the client endpoint and the
/// receiver the pipeline consumes. `buffer` is the intake queue length
/// (back-pressure bound).
pub fn socket_adaptor(buffer: usize) -> (SocketEndpoint, Receiver<RawItem>) {
    let (tx, rx) = sync_channel(buffer.max(1));
    (SocketEndpoint { tx }, rx)
}

/// File adaptor: spawn a reader pushing each line of an ADM file as a raw
/// item (used by `load`-like feeds and examples).
pub fn file_adaptor(path: std::path::PathBuf, buffer: usize) -> FResult<Receiver<RawItem>> {
    let (tx, rx) = sync_channel(buffer.max(1));
    let content = std::fs::read_to_string(&path)?;
    std::thread::Builder::new()
        .name("feed-file-adaptor".into())
        .spawn(move || {
            for value in asterix_adm::parse::parse_many(&content).unwrap_or_default() {
                if tx.send(RawItem::Value(value)).is_err() {
                    return;
                }
            }
            let _ = tx.send(RawItem::Eof);
        })
        .expect("spawn file adaptor");
    Ok(rx)
}

/// Connect a secondary feed: subscribe to a joint of the primary pipeline
/// and run a new pipeline over the subscription (cascading networks of
/// feeds, §2.4).
pub fn secondary_feed(
    name: impl Into<String>,
    parent_joint: &FeedJoint,
    compute: Option<ComputeFn>,
    store: StoreFn,
    buffer: usize,
) -> IngestionPipeline {
    let rx = parent_joint.subscribe(buffer);
    IngestionPipeline::start(name, rx, compute, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn wait_for(cond: impl Fn() -> bool) {
        for _ in 0..200 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached in time");
    }

    #[test]
    fn socket_feed_ingests_into_store() {
        let (endpoint, rx) = socket_adaptor(16);
        let stored: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let stored2 = Arc::clone(&stored);
        let pipeline = IngestionPipeline::start(
            "t",
            rx,
            None,
            Arc::new(move |v| {
                stored2.lock().push(v);
                Ok(())
            }),
        );
        for i in 0..10 {
            endpoint.send_text(format!("{{ \"id\": {i} }}")).unwrap();
        }
        endpoint.close();
        wait_for(|| stored.lock().len() == 10);
        assert_eq!(pipeline.stats.ingested.load(Ordering::Relaxed), 10);
        assert_eq!(pipeline.stats.stored.load(Ordering::Relaxed), 10);
        pipeline.disconnect().unwrap();
    }

    #[test]
    fn malformed_input_counts_as_failed() {
        let (endpoint, rx) = socket_adaptor(4);
        let pipeline = IngestionPipeline::start("t", rx, None, Arc::new(|_| Ok(())));
        endpoint.send_text("{ not adm").unwrap();
        endpoint.send_text("{ \"ok\": true }").unwrap();
        endpoint.close();
        wait_for(|| pipeline.stats.stored.load(Ordering::Relaxed) == 1);
        assert_eq!(pipeline.stats.failed.load(Ordering::Relaxed), 1);
        pipeline.disconnect().unwrap();
    }

    #[test]
    fn compute_stage_transforms_and_filters() {
        let (endpoint, rx) = socket_adaptor(16);
        let stored: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let stored2 = Arc::clone(&stored);
        let compute: ComputeFn = Arc::new(|v: Value| {
            let id = v.field("id").as_i64().unwrap_or(0);
            if id % 2 == 0 {
                Ok(Some(v)) // keep evens only
            } else {
                Ok(None)
            }
        });
        let pipeline = IngestionPipeline::start(
            "t",
            rx,
            Some(compute),
            Arc::new(move |v| {
                stored2.lock().push(v);
                Ok(())
            }),
        );
        for i in 0..10 {
            endpoint
                .send_value(asterix_adm::parse::parse_value(&format!("{{ \"id\": {i} }}")).unwrap())
                .unwrap();
        }
        endpoint.close();
        wait_for(|| pipeline.stats.ingested.load(Ordering::Relaxed) == 10);
        wait_for(|| stored.lock().len() == 5);
        pipeline.disconnect().unwrap();
    }

    #[test]
    fn secondary_feed_cascades_through_joint() {
        let (endpoint, rx) = socket_adaptor(16);
        let primary_store: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let ps = Arc::clone(&primary_store);
        let primary = IngestionPipeline::start(
            "primary",
            rx,
            None,
            Arc::new(move |v| {
                ps.lock().push(v);
                Ok(())
            }),
        );
        // Secondary feed taps the primary's intake joint.
        let secondary_store: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let ss = Arc::clone(&secondary_store);
        let secondary = secondary_feed(
            "secondary",
            &primary.intake_joint,
            None,
            Arc::new(move |v| {
                ss.lock().push(v);
                Ok(())
            }),
            16,
        );
        assert_eq!(primary.intake_joint.subscriber_count(), 1);
        for i in 0..5 {
            endpoint.send_text(format!("{{ \"id\": {i} }}")).unwrap();
        }
        wait_for(|| primary_store.lock().len() == 5 && secondary_store.lock().len() == 5);
        endpoint.close();
        primary.disconnect().unwrap();
        secondary.disconnect().unwrap();
    }

    #[test]
    fn file_adaptor_reads_adm() {
        let dir = asterix_testkit::TempDir::new().unwrap();
        let path = dir.path().join("feed.adm");
        std::fs::write(&path, "{ \"a\": 1 }\n{ \"a\": 2 }\n{ \"a\": 3 }").unwrap();
        let rx = file_adaptor(path, 4).unwrap();
        let stored: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&stored);
        let pipeline = IngestionPipeline::start(
            "f",
            rx,
            None,
            Arc::new(move |v| {
                s2.lock().push(v);
                Ok(())
            }),
        );
        wait_for(|| stored.lock().len() == 3);
        pipeline.disconnect().unwrap();
    }

    #[test]
    fn progress_notifier_wakes_waiters_on_store() {
        let (endpoint, rx) = socket_adaptor(4);
        let pipeline = IngestionPipeline::start("t", rx, None, Arc::new(|_| Ok(())));
        // Idle pipeline: a bounded wait times out without advancing.
        let last = pipeline.progress.current();
        assert_eq!(pipeline.progress.wait_change(last, Duration::from_millis(20)), last);
        // A store advances the sequence and wakes the waiter; the counter
        // update is published before the notify.
        endpoint.send_text("{ \"id\": 1 }").unwrap();
        let new_seq = pipeline.progress.wait_change(last, Duration::from_secs(5));
        assert!(new_seq > last, "notifier did not advance");
        assert_eq!(pipeline.stats.stored.load(Ordering::Relaxed), 1);
        // Closing the feed fires a final notify so waiters observe the end
        // of the stream.
        endpoint.close();
        let end_seq = pipeline.progress.wait_change(new_seq, Duration::from_secs(5));
        assert!(end_seq > new_seq, "pipeline exit did not notify");
        pipeline.disconnect().unwrap();
    }

    #[test]
    fn backpressure_try_send() {
        let (endpoint, _rx) = socket_adaptor(2);
        // No pipeline consuming: the buffer fills.
        assert!(endpoint.try_send_value(Value::Int64(1)).unwrap());
        assert!(endpoint.try_send_value(Value::Int64(2)).unwrap());
        assert!(!endpoint.try_send_value(Value::Int64(3)).unwrap());
    }
}
