//! The serving workload: a live `fedrec_serve::Service` over a million
//! lazily derived users and a 100k-item catalog, driven by one
//! closed-loop client in lock-step bursts, with a snapshot publish every
//! `PUBLISH_EVERY` submissions.

use crate::stats::{median, percentile};
use crate::{Outcome, Unit};
use fedrec_linalg::{Matrix, SeededGaussianInit, SeededRng, ShardedMatrix};
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_recsys::UserRowSource;
use fedrec_serve::{ServeConfig, ServedTopK, Service, SERVE_BATCH};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const USERS: usize = 1_000_000;
const ITEMS: usize = 100_000;
const K: usize = 32;
const TOP_K: usize = 10;
const HOT_USERS: usize = 4_096;
/// One request in this many goes to a never-seen cold-tail user.
const COLD_EVERY: usize = 20;
/// Submissions per snapshot; one block of the timed phase.
const PUBLISH_EVERY: usize = 50_000;
/// Every this many requests, the response is kept and checked against an
/// offline ranking after timing ends.
const SAMPLE_EVERY: usize = 997;
/// Blocks a traced run compares, after a first block without a publish.
const TRACE_BLOCKS: usize = 4;
/// Requests per second of `--seconds` the timed phase serves. The amount
/// of work is fixed by the arguments, not by how fast the machine runs:
/// the candidate cache grows with every cold-tail user served, so a
/// time-boxed phase would make memory and tail latency depend on speed.
const REQUESTS_PER_SECOND: usize = 150_000;
/// A reply slower than this counts the request as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The next reply, or `None` once `REPLY_TIMEOUT` has passed without one.
/// The client polls and yields its CPU between polls instead of blocking:
/// client and worker share one CPU, and a blocked client would be woken,
/// and switched to, once per reply. Yielding lets the worker finish its
/// batch, so a burst costs two context switches.
fn next_reply(rx: &Receiver<ServedTopK>) -> Option<ServedTopK> {
    let waited = crate::now();
    loop {
        match rx.try_recv() {
            Ok(r) => return Some(r),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if waited.elapsed() > REPLY_TIMEOUT => return None,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
}

/// Everything the service is fed, derived from the seed alone.
struct Inputs {
    items: Matrix,
    users: Arc<ShardedMatrix>,
    /// The user permutation `u -> (a·u + b) mod USERS`: its first
    /// `HOT_USERS` values are the hot set, the rest the cold tail.
    perm: (u64, u64),
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed ^ 0x5E21);
        let mut items = Matrix::random_normal(ITEMS, K, 0.0, 0.1, &mut rng);
        // A trained model's norm profile: popular items carry long
        // vectors, which is what lets pruned miss sweeps stop early.
        for i in 0..ITEMS {
            let scale = ((i + 1) as f32).powf(-0.5);
            for x in &mut items.as_mut_slice()[i * K..(i + 1) * K] {
                *x *= scale;
            }
        }
        let mut parent = SeededRng::new(seed ^ 0xC01D);
        let init = SeededGaussianInit::record(&mut parent, USERS, 64, 0.0, 0.1);
        let users = Arc::new(ShardedMatrix::new(USERS, K, 4_096, Box::new(init)));
        // USERS = 2^6 · 5^6, so any multiplier coprime to 2 and 5 permutes.
        let mut a = (seed.wrapping_mul(0x9E37_79B9) | 1) % USERS as u64;
        while a.is_multiple_of(5) || a < 2 {
            a += 2;
        }
        let b = seed.wrapping_mul(0x85EB_CA6B) % USERS as u64;
        Self {
            items,
            users,
            perm: (a, b),
        }
    }

    /// The user of the `i`-th submission: 19 of 20 cycle the hot set, the
    /// 20th walks the cold tail.
    fn user(&self, i: usize) -> u32 {
        let slot = if i % COLD_EVERY == COLD_EVERY - 1 {
            HOT_USERS + (i / COLD_EVERY) % (USERS - HOT_USERS)
        } else {
            i % HOT_USERS
        };
        let (a, b) = self.perm;
        ((a * slot as u64 + b) % USERS as u64) as u32
    }
}

fn blocks_for(seconds: f64) -> usize {
    ((seconds * REQUESTS_PER_SECOND as f64 / PUBLISH_EVERY as f64).round() as usize).max(2)
}

/// Pin this thread, and the threads it starts from now on, to the first
/// CPU it may run on. Client and serving worker alternate in lock-step,
/// so one CPU loses no parallelism, and handing a burst over costs a
/// context switch instead of a cross-CPU wake-up whose latency the
/// hypervisor sets. Returns whether pinning took effect.
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size of glibc's `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `size` bytes holding a
    // CPU the thread is already allowed on; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

/// Set the calling thread's scheduling policy (`SCHED_OTHER` = 0,
/// `SCHED_BATCH` = 3); threads it starts inherit it. Returns whether the
/// call took effect.
fn set_policy(policy: i32) -> bool {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    let priority = 0i32;
    // SAFETY: `param` points at a live `struct sched_param`, whose only
    // field is the `int` priority, 0 for both policies; pid 0 names the
    // calling thread.
    unsafe { sched_setscheduler(0, policy, &priority) == 0 }
}

const SCHED_OTHER: i32 = 0;
const SCHED_BATCH: i32 = 3;

/// The requester's already-seen items: a sorted, stride-sampled list.
fn exclusions(user: u32) -> Vec<u32> {
    ((user as usize % 97)..ITEMS)
        .step_by(9_973)
        .map(|i| i as u32)
        .collect()
}

/// The drift one training round applies between publishes; it preserves
/// the ranking, so candidate caches stay provably valid across publishes.
fn drift(items: &mut Matrix) {
    for x in items.as_mut_slice() {
        *x *= 1.001;
    }
}

/// A running service with its worker and warm caches.
struct Live {
    inputs: Inputs,
    svc: Arc<Service>,
    worker: Option<JoinHandle<()>>,
    tx: Sender<ServedTopK>,
    rx: Receiver<ServedTopK>,
    /// Items of the newest publish and its epoch.
    items: Matrix,
    epoch: u64,
    /// Submissions so far (drives the user sequence).
    submitted: usize,
}

impl Live {
    fn start(seed: u64) -> Self {
        let inputs = Inputs::new(seed);
        let svc = Arc::new(Service::new(ServeConfig {
            k: TOP_K,
            queue_cap: 4_096,
            batch: SERVE_BATCH,
        }));
        let items = inputs.items.clone();
        svc.publish(0, &items);
        // The worker runs as SCHED_BATCH, which never preempts on wake-up:
        // each submit wakes it, and it would otherwise take the CPU after
        // the first request of a burst and serve batches of one.
        let batch = set_policy(SCHED_BATCH);
        let worker = svc
            .start_workers(
                Arc::clone(&inputs.users) as Arc<dyn UserRowSource + Send + Sync>,
                1,
            )
            .pop();
        assert!(
            !batch || set_policy(SCHED_OTHER),
            "could not restore the client's scheduling policy"
        );
        let (tx, rx) = mpsc::channel();
        let live = Self {
            inputs,
            svc,
            worker,
            tx,
            rx,
            items,
            epoch: 0,
            submitted: 0,
        };
        // Warm every hot user's cache so timing starts in the steady state.
        let mut warmed = 0;
        while warmed < HOT_USERS {
            let burst = SERVE_BATCH.min(HOT_USERS - warmed);
            for j in 0..burst {
                let (a, b) = live.inputs.perm;
                let u = ((a * (warmed + j) as u64 + b) % USERS as u64) as u32;
                assert!(
                    live.svc.submit(u, exclusions(u), live.tx.clone()),
                    "queue closed in warm-up"
                );
            }
            for _ in 0..burst {
                next_reply(&live.rx).expect("warm-up reply lost");
            }
            warmed += burst;
        }
        live.svc.stats().reset_measurements();
        live
    }

    fn stop(&mut self) {
        self.svc.close();
        if let Some(w) = self.worker.take() {
            w.join().expect("serving worker panicked");
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.svc.close();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Seen {
    submit_ns: u64,
    latency_ns: u64,
    hit: bool,
}

/// A response kept for the offline check.
struct Sample {
    user: u32,
    epoch: u64,
    top: Vec<(u32, f32)>,
}

/// What one serving phase observed.
#[derive(Default)]
struct Phase {
    seen: Vec<Seen>,
    block_secs: Vec<f64>,
    publish_ns: Vec<(u64, u64)>,
    samples: Vec<Sample>,
    wall_secs: f64,
    attempted: u64,
    failures: Vec<String>,
    epoch_lag_max: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.seen.extend(other.seen);
        self.block_secs.extend(other.block_secs);
        self.publish_ns.extend(other.publish_ns);
        self.samples.extend(other.samples);
        self.wall_secs += other.wall_secs;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.epoch_lag_max = self.epoch_lag_max.max(other.epoch_lag_max);
    }
}

/// Serve `blocks` whole blocks.
fn serve(live: &mut Live, blocks: usize, t0: Instant) -> Phase {
    let mut ph = Phase::default();
    let started = crate::now();
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    let mut submit_at = vec![t0; SERVE_BATCH];
    let mut burst_users = vec![0u32; SERVE_BATCH];
    'blocks: loop {
        if ph.block_secs.len() == blocks {
            break;
        }
        let block_start = crate::now();
        if live.submitted > 0 {
            drift(&mut live.items);
            live.epoch += 1;
            live.svc.publish(live.epoch, &live.items);
            ph.publish_ns.push((ns(block_start), ns(crate::now())));
        }
        let mut left = PUBLISH_EVERY;
        while left > 0 {
            let burst = SERVE_BATCH.min(left);
            for j in 0..burst {
                let i = live.submitted;
                let u = live.inputs.user(i);
                let exclude = exclusions(u);
                burst_users[j] = u;
                submit_at[j] = crate::now();
                ph.attempted += 1;
                if !live.svc.submit(u, exclude, live.tx.clone()) {
                    ph.failures
                        .push(format!("request {i} for user {u} refused"));
                }
                live.submitted += 1;
            }
            for _ in 0..burst {
                let Some(resp) = next_reply(&live.rx) else {
                    ph.failures.push("a request was never answered".into());
                    break 'blocks;
                };
                let now = crate::now();
                let Some(j) = burst_users[..burst].iter().position(|&u| u == resp.user) else {
                    ph.failures
                        .push(format!("reply for user {} nobody asked for", resp.user));
                    continue;
                };
                if resp.epoch > live.epoch {
                    ph.failures.push(format!(
                        "reply tagged epoch {} after only epoch {} was published",
                        resp.epoch, live.epoch
                    ));
                }
                ph.epoch_lag_max = ph
                    .epoch_lag_max
                    .max(live.epoch - resp.epoch.min(live.epoch));
                ph.seen.push(Seen {
                    submit_ns: ns(submit_at[j]),
                    latency_ns: now.duration_since(submit_at[j]).as_nanos() as u64,
                    hit: resp.cache_hit,
                });
                if ph.seen.len() % SAMPLE_EVERY == 0 {
                    ph.samples.push(Sample {
                        user: resp.user,
                        epoch: resp.epoch,
                        top: resp.top,
                    });
                }
                // A user answered twice in one burst would match the
                // first slot again; mark it served.
                burst_users[j] = u32::MAX;
            }
            left -= burst;
        }
        ph.block_secs.push(block_start.elapsed().as_secs_f64());
    }
    ph.wall_secs = started.elapsed().as_secs_f64();
    ph
}

/// Outside the timed window: every sampled response must equal the
/// offline pruned ranking of the snapshot its epoch tag names. Snapshots
/// are rebuilt by replaying the publisher's drift from the seed's items.
fn verify_samples(inputs: &Inputs, samples: &[Sample]) -> Vec<String> {
    let mut by_epoch: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_epoch.entry(s.epoch).or_default().push(s);
    }
    let mut failures = Vec::new();
    let mut items = inputs.items.clone();
    let mut epoch = 0u64;
    let mut row = vec![0.0f32; K];
    let mut offline = Vec::new();
    for (&e, group) in &by_epoch {
        while epoch < e {
            drift(&mut items);
            epoch += 1;
        }
        let pruned = PrunedItems::build(&items);
        for s in group {
            inputs.users.write_user_row(s.user as usize, &mut row);
            offline.clear();
            PrunedScores::new(&pruned, &items, &row).top_ranked_excluding(
                &exclusions(s.user),
                TOP_K,
                &mut offline,
            );
            let same = s.top.len() == offline.len()
                && s.top
                    .iter()
                    .zip(&offline)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            if !same {
                failures.push(format!(
                    "user {} at epoch {e}: served ranking differs from the offline one",
                    s.user
                ));
            }
        }
    }
    failures
}

/// The checks every serving phase must pass.
fn check(live: &Live, ph: &Phase) -> Vec<String> {
    let mut failures = ph.failures.clone();
    failures.extend(verify_samples(&live.inputs, &ph.samples));
    if ph.seen.len() as u64 != ph.attempted {
        failures.push(format!(
            "{} requests sent, {} answered",
            ph.attempted,
            ph.seen.len()
        ));
    }
    let served = live.svc.stats().requests.load(Ordering::Relaxed);
    if served != ph.attempted {
        failures.push(format!(
            "service counted {served} requests, client sent {}",
            ph.attempted
        ));
    }
    let rows = live.inputs.users.materialized_rows();
    if rows != 0 {
        failures.push(format!("serving materialized {rows} user rows"));
    }
    failures
}

fn record(out: &mut Outcome, attempted: u64, failures: &[String]) {
    for f in failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }
    out.ops(attempted, failures.len() as u64);
}

pub fn run_e2e(seed: u64, seconds: f64, out: &mut Outcome) {
    eprintln!("pinned to one CPU: {}", pin_to_one_cpu());
    let mut setups = Vec::new();
    let mut live = crate::time_setups(&mut setups, 5, 1.0, || Live::start(seed));
    let ph = serve(&mut live, blocks_for(seconds), crate::now());
    let failures = check(&live, &ph);
    live.stop();
    record(out, ph.attempted, &failures);
    let lat_ms: Vec<f64> = ph.seen.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
    eprintln!(
        "serve: {} requests in {} blocks over {:.2} s ({:.0} req/s)",
        ph.attempted,
        ph.block_secs.len(),
        ph.wall_secs,
        ph.attempted as f64 / ph.wall_secs,
    );
    out.metric("setup_s", median(&setups), Unit::S);
    out.metric("run_s", median(&ph.block_secs), Unit::S);
    out.metric("op_p50_ms", median(&lat_ms), Unit::Ms);
    out.metric("op_p99_ms", percentile(&lat_ms, 0.99), Unit::Ms);
}

pub fn run_traced(seed: u64, trace_path: &std::path::Path, out: &mut Outcome) {
    eprintln!("pinned to one CPU: {}", pin_to_one_cpu());
    let t0 = crate::now();
    let mut live = Live::start(seed);
    // Serving keeps the same client-side records whether or not a trace is
    // written, so the overhead compares alternate blocks of one run: odd
    // blocks stand for the traced run, even ones for the untraced. Block 0
    // has no publish and is left out of the comparison.
    let mut traced = Phase::default();
    let mut walls = [0.0f64; 2];
    for i in 0..=TRACE_BLOCKS {
        let ph = serve(&mut live, 1, t0);
        if i > 0 {
            walls[i % 2] += ph.wall_secs;
        }
        traced.absorb(ph);
    }
    let batches = live.svc.stats().batches.load(Ordering::Relaxed);
    let failures = check(&live, &traced);
    live.stop();
    record(out, traced.attempted, &failures);

    crate::write_trace(trace_path, |w| {
        let mut id = 0usize;
        writeln!(
            w,
            "{{\"id\":0,\"parent\":null,\"name\":\"serve\",\"start_ns\":0,\"end_ns\":{}}}",
            t0.elapsed().as_nanos()
        )?;
        for (a, b) in &traced.publish_ns {
            id += 1;
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":0,\"name\":\"publish\",\"start_ns\":{a},\"end_ns\":{b}}}"
            )?;
        }
        for s in &traced.seen {
            id += 1;
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":0,\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if s.hit { "request.hit" } else { "request.miss" },
                s.submit_ns,
                s.submit_ns + s.latency_ns
            )?;
        }
        Ok(())
    });

    let us = |v: Vec<f64>, q: f64| percentile(&v, q);
    let hits: Vec<f64> = traced
        .seen
        .iter()
        .filter(|s| s.hit)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect();
    let misses: Vec<f64> = traced
        .seen
        .iter()
        .filter(|s| !s.hit)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect();
    let n = traced.seen.len() as f64;
    let publish_ms: Vec<f64> = traced
        .publish_ns
        .iter()
        .map(|(a, b)| (b - a) as f64 / 1e6)
        .collect();
    out.metric(
        "serve.hit_rate",
        hits.len() as f64 / n.max(1.0),
        Unit::Ratio,
    );
    out.metric("serve.hit_p50_us", median(&hits), Unit::Us);
    out.metric("serve.miss_p50_us", median(&misses), Unit::Us);
    out.metric("serve.miss_p99_us", us(misses.clone(), 0.99), Unit::Us);
    out.metric("serve.batches", batches as f64, Unit::Count);
    out.metric(
        "serve.mean_batch",
        n / (batches as f64).max(1.0),
        Unit::Count,
    );
    out.metric("serve.publish_calls", publish_ms.len() as f64, Unit::Count);
    out.metric("serve.publish_ms_p50", median(&publish_ms), Unit::Ms);
    out.metric(
        "serve.publish_share",
        publish_ms.iter().sum::<f64>() / 1e3 / traced.wall_secs,
        Unit::Ratio,
    );
    out.metric(
        "serve.epoch_lag_max",
        traced.epoch_lag_max as f64,
        Unit::Count,
    );
    out.metric(
        "experiments.trace_overhead",
        walls[1] / walls[0],
        Unit::Ratio,
    );
    eprintln!(
        "traced serve: {} blocks in {:.3} s",
        traced.block_secs.len(),
        traced.wall_secs
    );
}
