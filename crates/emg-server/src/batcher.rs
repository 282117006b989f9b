//! The request coalescer: queued queries become single device launches.
//!
//! Every client session submits its validated query jobs here instead of
//! launching directly. A single worker thread drains the queue in
//! **flushes**, and it is *work-conserving*: it sleeps only while the
//! queue is empty. When it wakes it takes queued jobs in FIFO order until
//! their pairs reach [`BatchConfig::max_batch`] (a *size flush*) or the
//! queue is empty, always taking at least one job. Jobs that arrive while
//! a flush runs form the next one, so batches grow with load and an idle
//! server answers at once. Each flush groups its jobs by (snapshot, kind)
//! and answers every group with **one** batched device launch
//! ([`Snapshot::answer_batch`]), then splits the answer array back per
//! request. The flush discipline and its knob (`EMG_SERVE_BATCH`) are
//! specified in DESIGN.md §12.4.
//!
//! Jobs hold an `Arc<Snapshot>` pinned at submit time, so a catalog reload
//! mid-flush never tears a batch: the batch answers against the epoch the
//! session validated, and the response carries that epoch.
//!
//! Two robustness layers guard the queue (DESIGN.md §13): **admission
//! control** — once pairs are pending, a submission that would take them
//! past [`BatchConfig::max_pending`] is refused with
//! [`ErrorCode::Overloaded`] and a `retry_after_ms` hint instead of growing
//! the queue without bound — and **panic isolation** — each
//! per-(snapshot, kind) launch runs under `catch_unwind`, so a poisoned
//! batch answers its own requesters with `Internal` while the worker (and
//! the daemon) keep serving.

use crate::catalog::{ServeError, Snapshot};
use crate::protocol::{overloaded_message, ErrorCode, QueryKind, ServerStats};
use gpu_sim::env::{parse_positive_knob, EMG_SERVE_BATCH, EMG_SERVE_QUEUE};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default pending-pair cap per flush.
pub const DEFAULT_MAX_BATCH: u64 = 1024;
/// Default admission-control bound on pending pairs across the whole
/// queue (64 flushes of the default batch size — deep enough for bursts,
/// bounded enough that a stalled device cannot buffer unbounded memory).
pub const DEFAULT_MAX_PENDING: u64 = 65_536;

/// The batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// A flush stops taking jobs once it holds this many query pairs.
    pub max_batch: usize,
    /// Admission control: while pairs are pending, refuse a submission
    /// that would take them past this bound with
    /// [`ErrorCode::Overloaded`] (DESIGN.md §13.3).
    pub max_pending: usize,
}

impl BatchConfig {
    /// Reads `EMG_SERVE_BATCH` and `EMG_SERVE_QUEUE` from the environment
    /// (registry-validated; a typo panics, unset means the defaults).
    pub fn from_env() -> Self {
        BatchConfig {
            max_batch: parse_positive_knob(EMG_SERVE_BATCH, DEFAULT_MAX_BATCH) as usize,
            max_pending: parse_positive_knob(EMG_SERVE_QUEUE, DEFAULT_MAX_PENDING) as usize,
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: DEFAULT_MAX_BATCH as usize,
            max_pending: DEFAULT_MAX_PENDING as usize,
        }
    }
}

/// The backoff hint an `Overloaded` refusal carries: twice the wall time
/// of the last flush, at least one millisecond — by then the flush running
/// at refusal time and the one after it have drained.
fn retry_hint_ms(last_flush: Duration) -> u64 {
    let twice_us = 2 * last_flush.as_micros();
    (twice_us.div_ceil(1000) as u64).max(1)
}

/// What a flushed query resolves to: the answering epoch plus one word per
/// pair.
pub type BatchAnswer = Result<(u64, Vec<u32>), ServeError>;

struct Job {
    snapshot: Arc<Snapshot>,
    kind: QueryKind,
    pairs: Vec<(u32, u32)>,
    reply: mpsc::Sender<BatchAnswer>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    pending_pairs: usize,
    stopped: bool,
}

#[derive(Default)]
struct Counters {
    queries: u64,
    batches: u64,
    max_batch: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    batch_hist: Vec<u64>,
    timeouts: u64,
    overloads: u64,
    panics_isolated: u64,
    /// Wall time of the last flush up to its last launch, the basis of
    /// the `Overloaded` hint.
    last_flush: Duration,
}

struct Shared {
    queue: Mutex<Queue>,
    wakeup: Condvar,
    stats: Mutex<Counters>,
    config: BatchConfig,
}

/// The coalescing queue plus its worker thread. Dropping the batcher (or
/// calling [`Batcher::stop`]) flushes everything still queued, so no
/// client is left waiting on a reply channel.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the worker thread with the given knobs.
    pub fn new(config: BatchConfig) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wakeup: Condvar::new(),
            stats: Mutex::new(Counters::default()),
            config,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("emg-serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawning the batcher worker");
        Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Submits one validated query job; the returned channel yields the
    /// answering epoch and one answer word per pair once its flush runs.
    /// Empty pair lists are answered immediately without touching the
    /// queue.
    pub fn submit(
        &self,
        snapshot: Arc<Snapshot>,
        kind: QueryKind,
        pairs: Vec<(u32, u32)>,
    ) -> mpsc::Receiver<BatchAnswer> {
        let (reply, rx) = mpsc::channel();
        if pairs.is_empty() {
            let _ = reply.send(Ok((snapshot.epoch, Vec::new())));
            return rx;
        }
        let mut queue = self.shared.queue.lock().expect("batcher lock poisoned");
        if queue.stopped {
            let _ = reply.send(Err((
                ErrorCode::Internal,
                "server is shutting down".to_string(),
            )));
            return rx;
        }
        // Admission control: past the pending-pair bound the request is
        // refused — never enqueued — with a hint for when to come back.
        // Refusing at the door bounds queue memory and keeps latency for
        // admitted requests within a few flushes. An idle queue admits any
        // request, so one larger than the bound (a frame holds up to
        // `MAX_FRAME_LEN` bytes of pairs) is answered in a flush of its own
        // instead of being refused forever.
        let max_pending = self.shared.config.max_pending;
        let pending = queue.pending_pairs;
        if pending > 0 && pending + pairs.len() > max_pending {
            drop(queue);
            let mut stats = self.shared.stats.lock().expect("stats lock poisoned");
            stats.overloads += 1;
            let hint = retry_hint_ms(stats.last_flush);
            drop(stats);
            let message = overloaded_message(pending, max_pending, hint);
            let _ = reply.send(Err((ErrorCode::Overloaded, message)));
            return rx;
        }
        queue.pending_pairs += pairs.len();
        queue.jobs.push_back(Job {
            snapshot,
            kind,
            pairs,
            reply,
        });
        drop(queue);
        self.shared.wakeup.notify_all();
        rx
    }

    /// A point-in-time copy of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        let c = self.shared.stats.lock().expect("stats lock poisoned");
        ServerStats {
            queries: c.queries,
            batches: c.batches,
            max_batch: c.max_batch,
            size_flushes: c.size_flushes,
            deadline_flushes: c.deadline_flushes,
            batch_hist: c.batch_hist.clone(),
            timeouts: c.timeouts,
            overloads: c.overloads,
            panics_isolated: c.panics_isolated,
        }
    }

    /// Records a session closed by a read/write deadline. Sessions own
    /// their sockets, but the batcher owns the stats block every counter
    /// reports through, so the server's session loops feed this one here.
    pub(crate) fn note_timeout(&self) {
        self.shared
            .stats
            .lock()
            .expect("stats lock poisoned")
            .timeouts += 1;
    }

    /// Stops the worker after it drains everything still queued — the
    /// graceful-shutdown drain. Idempotent; safe through a shared
    /// reference (the server calls this from its accept loop while
    /// sessions still hold clones).
    pub fn stop(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("batcher lock poisoned");
            queue.stopped = true;
        }
        self.shared.wakeup.notify_all();
        let worker = self
            .worker
            .lock()
            .expect("worker handle lock poisoned")
            .take();
        if let Some(worker) = worker {
            worker.join().expect("batcher worker panicked");
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((jobs, size_flush)) = collect_flush(shared) {
        run_flush(shared, jobs, size_flush);
    }
}

/// Sleeps while the queue is empty, then takes the next flush: queued jobs
/// in FIFO order until their pairs reach the size cap or the queue runs
/// out, at least one job either way. Returns the jobs and whether the cap
/// (rather than an emptied queue) ended the flush; `None` once the batcher
/// is stopped and drained.
fn collect_flush(shared: &Shared) -> Option<(Vec<Job>, bool)> {
    let mut queue = shared.queue.lock().expect("batcher lock poisoned");
    while queue.jobs.is_empty() {
        if queue.stopped {
            return None;
        }
        queue = shared.wakeup.wait(queue).expect("batcher lock poisoned");
    }
    let cap = shared.config.max_batch;
    let mut jobs = Vec::new();
    let mut pairs = 0;
    while let Some(job) = queue.jobs.pop_front() {
        pairs += job.pairs.len();
        jobs.push(job);
        if pairs >= cap {
            break;
        }
    }
    queue.pending_pairs -= pairs;
    Some((jobs, pairs >= cap))
}

/// Answers one flush: group by (snapshot, kind), one launch per group,
/// split the answers back per job.
fn run_flush(shared: &Shared, jobs: Vec<Job>, size_flush: bool) {
    let started = Instant::now();
    // Group jobs by snapshot identity and kind. Arc pointer identity is
    // the right key: two epochs of the same graph are distinct snapshots
    // and must not share a launch.
    let mut groups: HashMap<(usize, u8), Vec<Job>> = HashMap::new();
    let mut order: Vec<(usize, u8)> = Vec::new();
    for job in jobs {
        let key = (Arc::as_ptr(&job.snapshot) as usize, job.kind.as_u8());
        let bucket = groups.entry(key).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        bucket.push(job);
    }

    // Record the flush reason before any reply goes out, so a client that
    // reads its answer and immediately asks for stats sees this flush.
    {
        let mut c = shared.stats.lock().expect("stats lock poisoned");
        if size_flush {
            c.size_flushes += 1;
        } else {
            c.deadline_flushes += 1;
        }
    }

    for key in order {
        let group = groups.remove(&key).expect("group just inserted");
        let snapshot = Arc::clone(&group[0].snapshot);
        let kind = group[0].kind;
        let total: usize = group.iter().map(|j| j.pairs.len()).sum();
        let mut pairs = Vec::with_capacity(total);
        for job in &group {
            pairs.extend_from_slice(&job.pairs);
        }
        // Panic isolation: a poisoned batch — an injected fault, a bug in
        // one kind's kernel, a refused allocation — answers its own
        // requesters with `Internal` and must not kill this worker (a dead
        // worker turns every future query into an error and `stop` into a
        // hang). The launch takes `&Snapshot` and a fresh answers buffer,
        // so no observable state is left half-written on unwind.
        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut answers = vec![0u32; total];
            snapshot.answer_batch(kind, &pairs, &mut answers);
            answers
        }));
        let answers = match launched {
            Ok(answers) => answers,
            Err(panic) => {
                {
                    let mut c = shared.stats.lock().expect("stats lock poisoned");
                    c.panics_isolated += 1;
                    c.last_flush = started.elapsed();
                }
                let reason = panic_message(panic.as_ref());
                for job in group {
                    let _ = job.reply.send(Err((
                        ErrorCode::Internal,
                        format!("batch launch panicked (isolated): {reason}"),
                    )));
                }
                continue;
            }
        };

        {
            let mut c = shared.stats.lock().expect("stats lock poisoned");
            c.queries += total as u64;
            c.batches += 1;
            c.max_batch = c.max_batch.max(total as u64);
            let bucket = (total as u64).ilog2() as usize;
            if c.batch_hist.len() <= bucket {
                c.batch_hist.resize(bucket + 1, 0);
            }
            c.batch_hist[bucket] += 1;
            // Set before this group's replies go out, so a client that
            // reads its answer and is then refused gets this flush's hint.
            c.last_flush = started.elapsed();
        }

        let mut offset = 0;
        for job in group {
            let take = job.pairs.len();
            let slice = answers[offset..offset + take].to_vec();
            offset += take;
            // A vanished receiver just means the client hung up mid-query.
            let _ = job.reply.send(Ok((snapshot.epoch, slice)));
        }
    }
}

/// Best-effort text of a caught panic payload (panics carry `&str` or
/// `String` in practice).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use gpu_sim::DeviceConfig;
    use std::path::PathBuf;

    /// A fault spec that keeps the worker busy: every launch spins 200 ms,
    /// so jobs submitted while a flush runs queue behind it.
    const BUSY: &str = "delay:us=200000";

    /// A one-graph catalog (`tree6`) whose serving device injects
    /// `faults` (snapshot builds run with faults paused, so only flushes
    /// pay them).
    fn tree_catalog(tag: &str, faults: &str) -> (Catalog, PathBuf) {
        let dir = std::env::temp_dir().join(format!("emg-batcher-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tree6.txt"), "0\t1\n0\t2\n0\t3\n1\t4\n1\t5\n").unwrap();
        let device_cfg = DeviceConfig {
            faults: faults.parse().unwrap(),
            ..DeviceConfig::default()
        };
        (Catalog::open_with(&dir, device_cfg).unwrap(), dir)
    }

    #[test]
    fn coalesces_concurrent_submissions_into_fewer_launches() {
        let (catalog, dir) = tree_catalog("coalesce", BUSY);
        let snap = catalog.get("tree6").unwrap();
        let batcher = Batcher::new(BatchConfig::default());
        // The first job's flush keeps the worker busy; the jobs submitted
        // meanwhile queue behind it and leave together in the next flush.
        let receivers: Vec<_> = (0..17)
            .map(|_| batcher.submit(Arc::clone(&snap), QueryKind::Lca, vec![(4, 5), (2, 3)]))
            .collect();
        for rx in receivers {
            let (epoch, answers) = rx.recv().unwrap().unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(answers, vec![1, 0]);
        }
        let stats = batcher.stats();
        assert_eq!(stats.queries, 34);
        assert!(stats.batches < 17, "batches = {}", stats.batches);
        assert!(stats.max_batch >= 16, "max batch = {}", stats.max_batch);
        assert_eq!(
            stats.batch_hist.iter().sum::<u64>(),
            stats.batches,
            "histogram covers every batch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_cap_flushes_without_waiting_for_the_deadline() {
        let (catalog, dir) = tree_catalog("sizecap", BUSY);
        let snap = catalog.get("tree6").unwrap();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 4,
            ..BatchConfig::default()
        });
        // Six 2-pair jobs queue behind a busy worker; the cap splits them
        // into flushes of at most 4 pairs instead of one flush of 12.
        let receivers: Vec<_> = (0..6)
            .map(|_| {
                batcher.submit(
                    Arc::clone(&snap),
                    QueryKind::Connectivity,
                    vec![(0, 1), (2, 3)],
                )
            })
            .collect();
        for rx in receivers {
            let (_, answers) = rx.recv().unwrap().unwrap();
            assert_eq!(answers, vec![1, 1]);
        }
        let stats = batcher.stats();
        assert_eq!(stats.queries, 12);
        assert_eq!(stats.max_batch, 4, "the cap bounds one flush");
        assert!(stats.size_flushes >= 2, "{stats:?}");
        // One (snapshot, kind) group per flush: every launch is one flush.
        assert_eq!(stats.size_flushes + stats.deadline_flushes, stats.batches);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_pairs_answer_immediately() {
        let (catalog, dir) = tree_catalog("empty", "off");
        let snap = catalog.get("tree6").unwrap();
        let batcher = Batcher::new(BatchConfig::default());
        let rx = batcher.submit(snap, QueryKind::Lca, Vec::new());
        let (epoch, answers) = rx.recv().unwrap().unwrap();
        assert_eq!(epoch, 1);
        assert!(answers.is_empty());
        assert_eq!(batcher.stats().queries, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_drains_queued_jobs() {
        let (catalog, dir) = tree_catalog("stop", BUSY);
        let snap = catalog.get("tree6").unwrap();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        });
        // The first job keeps the worker busy, so the second is still
        // queued when stop arrives.
        let in_flight = batcher.submit(Arc::clone(&snap), QueryKind::Lca, vec![(4, 5)]);
        let queued = batcher.submit(Arc::clone(&snap), QueryKind::Lca, vec![(2, 3)]);
        batcher.stop();
        assert_eq!(in_flight.recv().unwrap().unwrap().1, vec![1]);
        assert_eq!(queued.recv().unwrap().unwrap().1, vec![0]);
        // Submissions after stop are refused, not dropped.
        let rx = batcher.submit(snap, QueryKind::Lca, vec![(4, 5)]);
        assert_eq!(rx.recv().unwrap().unwrap_err().0, ErrorCode::Internal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_from_env_defaults() {
        let cfg = BatchConfig::from_env();
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH as usize);
        assert_eq!(cfg.max_pending, DEFAULT_MAX_PENDING as usize);
    }

    #[test]
    fn admission_control_refuses_past_the_pending_bound() {
        let (catalog, dir) = tree_catalog("overload", BUSY);
        let snap = catalog.get("tree6").unwrap();
        // One job per flush, at most 4 pairs pending.
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1,
            max_pending: 4,
        });
        let submit = |pairs: Vec<(u32, u32)>| {
            batcher.submit(Arc::clone(&snap), QueryKind::Connectivity, pairs)
        };
        // A completed flush gives the retry hint its measurement.
        assert_eq!(submit(vec![(0, 1)]).recv().unwrap().unwrap().1, vec![1]);
        // One job in flight keeps the worker busy while three pairs queue
        // behind it; two more would pass the 4-pair bound.
        let in_flight = submit(vec![(0, 1)]);
        let queued = submit(vec![(0, 1), (1, 2), (2, 3)]);
        let refused = submit(vec![(0, 1), (1, 2)]);
        let (code, message) = refused.recv().unwrap().unwrap_err();
        assert_eq!(code, ErrorCode::Overloaded);
        let hint = crate::protocol::retry_after_ms(&message);
        // Twice the last flush, which spun at least 200 ms in its launch.
        assert!(hint.is_some_and(|ms| ms >= 400), "hint in {message:?}");
        assert_eq!(batcher.stats().overloads, 1);
        // The refused request was never enqueued; the admitted ones drain
        // normally on stop.
        batcher.stop();
        assert_eq!(in_flight.recv().unwrap().unwrap().1, vec![1]);
        assert_eq!(queued.recv().unwrap().unwrap().1, vec![1, 1, 1]);
        assert_eq!(batcher.stats().queries, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn request_larger_than_the_pending_bound_is_admitted_when_idle() {
        let (catalog, dir) = tree_catalog("oversized", "off");
        let snap = catalog.get("tree6").unwrap();
        let batcher = Batcher::new(BatchConfig {
            max_batch: 1024,
            max_pending: 4,
        });
        // Six pairs against a bound of four: refusing would refuse this
        // request forever, so an idle queue admits it.
        let pairs = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        let rx = batcher.submit(Arc::clone(&snap), QueryKind::Connectivity, pairs);
        let (_, answers) = rx.recv().unwrap().unwrap();
        assert_eq!(answers, vec![1; 6]);
        assert_eq!(batcher.stats().overloads, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
