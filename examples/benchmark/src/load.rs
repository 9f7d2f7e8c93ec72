//! The load generator: a closed phase (clients that wait for each reply)
//! and open phases (requests sent on a fixed schedule whatever the
//! server does, each timed from the instant it was *due*).
//!
//! Two generator threads run at once, three in an open phase that also
//! writes. Everything the oracle later needs — one in `ORACLE_SAMPLE_EVERY` served answers with
//! their epoch, every acknowledged write with its epoch — is collected
//! here, and so are the bench-side spans of a traced run.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use discset::graph::Cost;
use discset::serve::{Overloaded, PendingBatch};
use discset::{NetworkUpdate, QueryRequest, Server};

use crate::pinned::{CLOSED_IN_FLIGHT, ORACLE_SAMPLE_EVERY, SHED_RETRY_CAP, WINDOW_SECONDS};
use crate::stats::{quantile_sorted, sorted};
use crate::trace::{SpanLog, ROOT};
use crate::workload::{ClientStream, Op, WriteStream};

/// One served answer kept for the oracle.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub request: QueryRequest,
    pub cost: Option<Cost>,
    pub epoch: u64,
}

/// One acknowledged write, with the epoch its effect was published at.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    pub epoch: u64,
    pub update: NetworkUpdate,
}

/// What one generator thread saw.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    pub acks: Vec<Ack>,
    served: u64,
}

impl Tally {
    fn served(&mut self, request: QueryRequest, cost: Option<Cost>, epoch: u64) {
        self.served += 1;
        if self.served.is_multiple_of(ORACLE_SAMPLE_EVERY) {
            self.samples.push(Sample {
                request,
                cost,
                epoch,
            });
        }
    }

    /// Await an admitted read (already counted as attempted): served and
    /// maybe sampled, or failed.
    fn resolve(&mut self, request: QueryRequest, pending: PendingBatch) -> bool {
        match pending.wait() {
            Ok(mut batch) => {
                let cost = batch.answers.pop().and_then(|a| a.cost);
                self.served(request, cost, batch.epoch);
                true
            }
            // Deadline or worker failure: failed, and missing every limit.
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }

    /// One blocking `Server::update`, counted, and kept for the oracle
    /// when acknowledged. Returns whether it was.
    pub fn update(&mut self, server: &Server, update: NetworkUpdate) -> bool {
        self.attempted += 1;
        match server.update(&update) {
            Ok(a) => {
                self.acks.push(Ack {
                    epoch: a.epoch,
                    update,
                });
                true
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.acks.extend(other.acks);
    }
}

/// Latencies in microseconds, each with its position in the phase it
/// was measured in (0 = start, 1 = end; an open-phase request sits where
/// it was *due*).
#[derive(Default)]
pub struct Latencies {
    pub samples: Vec<(f64, f64)>,
}

impl Latencies {
    pub fn push(&mut self, position: f64, latency: Duration) {
        self.samples.push((position, latency.as_secs_f64() * 1e6));
    }

    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Each window's `q`-quantile, in time order. The phase is cut into at
    /// most `max_windows` equal windows, fewer where that is needed for
    /// `min_per_window` samples each.
    pub fn per_window(&self, q: f64, min_per_window: usize, max_windows: usize) -> Vec<f64> {
        let n = max_windows.min(self.samples.len() / min_per_window).max(1);
        let mut windows = vec![Vec::new(); n];
        for &(position, us) in &self.samples {
            windows[((position * n as f64) as usize).min(n - 1)].push(us);
        }
        windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile_sorted(&sorted(w), q))
            .collect()
    }

    /// The `across`-quantile (0.5 = the median window) of the windows'
    /// `q`-quantiles: a scheduling hiccup then spoils the windows it falls
    /// in, not the figure.
    pub fn windowed_quantile(
        &self,
        q: f64,
        min_per_window: usize,
        max_windows: usize,
        across: f64,
    ) -> f64 {
        quantile_sorted(
            &sorted(&self.per_window(q, min_per_window, max_windows)),
            across,
        )
    }
}

/// How many `WINDOW_SECONDS` windows fit a phase.
pub fn windows_in(duration: Duration) -> usize {
    ((duration.as_secs_f64() / WINDOW_SECONDS).floor() as usize).max(1)
}

// --- closed phase --------------------------------------------------------

pub struct Closed {
    pub tally: Tally,
    /// Operations completed per window, summed over the clients; the
    /// final, partial window is dropped.
    pub per_window: Vec<u64>,
    pub spans: SpanLog,
}

/// One closed-phase client's books.
struct ClosedClient {
    tally: Tally,
    per_window: Vec<u64>,
    log: SpanLog,
    request_id: u64,
    t0: Instant,
    spans: bool,
}

impl ClosedClient {
    /// Count (and, in the odd windows of a traced run, record) one
    /// completed call in the window it completed in.
    fn completed(&mut self, name: &'static str, start: Instant) {
        let done = Instant::now();
        let window = (done.duration_since(self.t0).as_secs_f64() / WINDOW_SECONDS) as usize;
        if let Some(n) = self.per_window.get_mut(window) {
            *n += 1;
        }
        if self.spans && window % 2 == 1 {
            self.request_id += 1;
            self.log.push(name, start, done, ROOT, self.request_id);
        }
    }

    /// Await the oldest outstanding read.
    fn finish(&mut self, (start, request, pending): (Instant, QueryRequest, PendingBatch)) {
        self.tally.resolve(request, pending);
        self.completed("serve.submit_wait", start);
    }
}

/// Run one closed-loop connection per stream for `duration`, zero think
/// time. Each connection keeps `CLOSED_IN_FLIGHT` reads outstanding
/// (`Server::submit`, replies awaited in send order) and issues writes as
/// blocking `Server::update` calls in between.
///
/// The pipelining is deliberate. With one request in flight per client
/// the phase measures two-over-round-trip, and on a two-core VM that
/// round trip is two thread wake-ups whose cost depends on where the
/// scheduler happened to place the threads: the same binary measured
/// 43k or 81k ops/s on `serve_read_hot` from one run to the next. With
/// work always queued the workers stop sleeping, the phase measures what
/// the pool can evaluate, and repeats within a few per cent.
///
/// When `spans` is set, every *odd* window records one span per call
/// (the even windows stay untraced, so one phase yields both sides of
/// the tracing-overhead comparison).
pub fn closed_phase(
    server: &Server,
    streams: Vec<ClientStream<'_>>,
    duration: Duration,
    spans: bool,
) -> Closed {
    let t0 = Instant::now();
    let end = t0 + duration;
    let full_windows = windows_in(duration);
    let results: Vec<(Tally, Vec<u64>, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(client, mut stream)| {
                s.spawn(move || {
                    let mut me = ClosedClient {
                        tally: Tally::default(),
                        per_window: vec![0u64; full_windows],
                        log: SpanLog::new(t0),
                        request_id: (client as u64) << 40,
                        t0,
                        spans,
                    };
                    let mut in_flight = VecDeque::with_capacity(CLOSED_IN_FLIGHT);
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        match stream.next_op() {
                            Op::Read(r) => {
                                me.tally.attempted += 1;
                                match server.submit(&[r]) {
                                    Ok(pending) => in_flight.push_back((now, r, pending)),
                                    Err(_) => me.tally.failed += 1, // shed
                                }
                                if in_flight.len() >= CLOSED_IN_FLIGHT {
                                    me.finish(in_flight.pop_front().expect("non-empty"));
                                }
                            }
                            Op::Write(u) => {
                                me.tally.update(server, u);
                                me.completed("serve.update", now);
                            }
                        }
                    }
                    in_flight.into_iter().for_each(|rest| me.finish(rest));
                    (me.tally, me.per_window, me.log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-phase client panicked"))
            .collect()
    });
    let mut out = Closed {
        tally: Tally::default(),
        per_window: vec![0; full_windows],
        spans: SpanLog::new(t0),
    };
    for (tally, per_window, log) in results {
        out.tally.absorb(tally);
        for (sum, n) in out.per_window.iter_mut().zip(per_window) {
            *sum += n;
        }
        out.spans.absorb(log);
    }
    out
}

// --- open phases ---------------------------------------------------------

pub struct Open {
    pub tally: Tally,
    pub read_lat: Latencies,
    pub write_lat: Latencies,
    /// How far behind its schedule the generator sent each request, µs.
    pub late_us: Vec<f64>,
    /// Last reply minus the last request's due time: how long the
    /// backlog took to drain once the schedule ended.
    pub drain: Duration,
    /// Admissions the server refused (`Overloaded`) and the pacer sent
    /// again: the request is not lost, its wait is in its latency.
    pub shed_retries: u64,
    pub spans: SpanLog,
}

impl Open {
    /// File a later slice of the same rate with the earlier ones.
    pub fn merge(&mut self, later: Open) {
        self.tally.absorb(later.tally);
        self.read_lat.samples.extend(later.read_lat.samples);
        self.write_lat.samples.extend(later.write_lat.samples);
        self.late_us.extend(later.late_us);
        self.drain = self.drain.max(later.drain);
        self.shed_retries += later.shed_retries;
        self.spans.absorb(later.spans);
    }
}

/// Sleep until shortly before the deadline, then yield until it: a
/// sleep alone overshoots by the timer slack (about 55 us here), and a
/// pacer that spins or yields all the way is always runnable, which on
/// two cores puts a millisecond-scale scheduling tail on the server's
/// replies (measured: p99 1.2-1.9 ms against 0.5 ms with this wait).
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let ahead = due - now;
        if ahead > Duration::from_micros(70) {
            std::thread::sleep(ahead - Duration::from_micros(60));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Which slice of how many a phase call measures: the run cuts each rate's
/// time into slices spread over the run, and a latency's position is its
/// place in all of them laid end to end.
pub type Slice = (usize, usize);

fn position(t0: Instant, due: Instant, duration: Duration, (index, of): Slice) -> f64 {
    (index as f64 + due.duration_since(t0).as_secs_f64() / duration.as_secs_f64()) / of as f64
}

fn due_at(t0: Instant, i: u64, rate: f64) -> Instant {
    t0 + Duration::from_secs_f64(i as f64 / rate)
}

/// The blocking, paced write side of an open phase.
struct Side {
    tally: Tally,
    lat: Latencies,
    late_us: Vec<f64>,
    drain: Duration,
    log: SpanLog,
}

fn pace_writes(
    server: &Server,
    stream: &mut WriteStream,
    t0: Instant,
    duration: Duration,
    rate: f64,
    slice: Slice,
    spans: bool,
) -> Side {
    let total = (rate * duration.as_secs_f64()) as u64;
    let mut side = Side {
        tally: Tally::default(),
        lat: Latencies::default(),
        late_us: Vec::with_capacity(total as usize),
        drain: Duration::ZERO,
        log: SpanLog::new(t0),
    };
    for i in 0..total {
        let due = due_at(t0, i, rate);
        let sent = wait_until(due);
        side.late_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
        let acknowledged = side.tally.update(server, stream.next());
        let done = Instant::now();
        if acknowledged {
            side.lat
                .push(position(t0, due, duration, slice), done - due);
        }
        side.drain = done.duration_since(due);
        if spans {
            side.log.push("serve.update", due, done, ROOT, i);
        }
    }
    side
}

/// An open phase. One pacer thread calls `Server::submit` on the read
/// schedule and one collector drains the replies in send order (a reply
/// that overtakes an earlier one is timed when the collector reaches
/// it). `Server::update` has no non-blocking form, so where the workload
/// writes (`writes` = the stream and its share of `rate`), a third thread
/// paces blocking `update` calls on the write schedule; each is timed from
/// its due time, so a stall is charged to every write it delays.
pub fn open_phase(
    server: &Server,
    reads: &mut ClientStream<'_>,
    writes: Option<(&mut WriteStream, f64)>,
    rate: f64,
    duration: Duration,
    slice: Slice,
    spans: bool,
) -> Open {
    let write_share = writes.as_ref().map_or(0.0, |w| w.1);
    let (read_rate, write_rate) = (rate * (1.0 - write_share), rate * write_share);
    let total = (read_rate * duration.as_secs_f64()) as u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    type Sent = (Instant, QueryRequest, PendingBatch);
    let (tx, rx) = mpsc::channel::<Sent>();
    let ((late_us, shed_retries), (tally, read_lat, drain, log), writer) =
        std::thread::scope(|s| {
            let pacer = s.spawn(move || {
                let mut late_us = Vec::with_capacity(total as usize);
                let mut shed_retries = 0u64;
                for i in 0..total {
                    let due = due_at(t0, i, read_rate);
                    let sent = wait_until(due);
                    late_us.push(sent.duration_since(due).as_secs_f64() * 1e6);
                    let request = reads.next_read();
                    // A full queue refuses the request; the pacer offers it
                    // again until it is admitted, as a client told to retry
                    // would. The request still counts from when it was due, and
                    // the schedule slips by the wait (`late_us` shows it).
                    let pending = loop {
                        match server.submit(&[request]) {
                            Ok(pending) => break pending,
                            Err(Overloaded { retry_after }) => {
                                shed_retries += 1;
                                std::thread::sleep(retry_after.min(SHED_RETRY_CAP));
                            }
                        }
                    };
                    if tx.send((due, request, pending)).is_err() {
                        break;
                    }
                }
                (late_us, shed_retries)
            });
            let collector = s.spawn(move || {
                let mut tally = Tally::default();
                let mut lat = Latencies::default();
                let mut log = SpanLog::new(t0);
                let mut drain = Duration::ZERO;
                for (i, (due, request, pending)) in rx.into_iter().enumerate() {
                    tally.attempted += 1;
                    if tally.resolve(request, pending) {
                        let done = Instant::now();
                        lat.push(position(t0, due, duration, slice), done - due);
                        drain = done - due;
                        if spans {
                            log.push("serve.submit_wait", due, done, ROOT, i as u64);
                        }
                    }
                }
                (tally, lat, drain, log)
            });
            let writer = writes.map(|(stream, _)| {
                s.spawn(move || pace_writes(server, stream, t0, duration, write_rate, slice, spans))
            });
            (
                pacer.join().expect("pacer panicked"),
                collector.join().expect("collector panicked"),
                writer.map(|w| w.join().expect("write pacer panicked")),
            )
        });
    let mut open = Open {
        tally,
        read_lat,
        write_lat: Latencies::default(),
        late_us,
        drain,
        shed_retries,
        spans: log,
    };
    if let Some(w) = writer {
        open.tally.absorb(w.tally);
        open.write_lat = w.lat;
        open.late_us.extend(w.late_us);
        open.drain = open.drain.max(w.drain);
        open.spans.absorb(w.log);
    }
    open
}
