//! The two serving workloads: `serve-single` (one `Server`, batch of
//! one) and `serve-fleet` (a `Router` over two batching replicas).
//!
//! Each runs an untraced pass through the real serving stack, which
//! gives the end-to-end numbers, and on request a traced pass that
//! replays the same requests on the same schedule through the same
//! public layer calls with a span around each.

use crate::check::{self, Served, Tally};
use crate::loadgen::{self, Planned, Sent};
use crate::model::{speech_models, SPEECH};
use crate::report::{Metrics, Report};
use crate::stats::{lower_quartile, Summary};
use crate::trace::{layer, Attribution, LayerSums, TaskStats, KERNELS, LAYERS};
use bpar_core::exec::{PlanCacheStats, TaskGraphExec};
use bpar_core::model::Brnn;
use bpar_router::{rendezvous_pair, route_key, HedgePolicy, Router, RouterConfig, RoutingPolicy};
use bpar_runtime::SchedulerPolicy;
use bpar_serve::queue::Popped;
use bpar_serve::{
    Admission, AdmissionQueue, BackpressurePolicy, BatchPolicy, BufferPool, InferRequest,
    MetricsCollector, MicroBatcher, Outcome, PoolStats, ServeConfig, Server,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Admission-queue bound: far above any backlog a healthy run builds, so
/// a rejection means the system fell behind, and counts as a failure.
const QUEUE_CAP: usize = 4096;
/// Time between the end of set-up and the first due request, so the
/// generator starts on schedule.
const LEAD: Duration = Duration::from_millis(20);
/// Ids of warm-up requests start here, clear of the timed ids.
const WARM_BASE: u64 = 1 << 40;

/// One serving workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub rate_rps: f64,
    /// Latency limit for goodput, ms.
    pub limit_ms: f64,
    pub tenants: u32,
    /// `None`: a single `Server` fed directly; `Some(n)`: a `Router`
    /// over `n` replicas.
    pub replicas: Option<usize>,
    pub workers_per_replica: usize,
    pub batch: BatchPolicy,
}

impl ServeWorkload {
    pub fn single(nproc: usize) -> Self {
        Self {
            rate_rps: 100.0,
            limit_ms: 25.0,
            tenants: 1,
            replicas: None,
            workers_per_replica: nproc,
            batch: BatchPolicy::batch_of_one(),
        }
    }

    pub fn fleet() -> Self {
        Self {
            rate_rps: 300.0,
            limit_ms: 100.0,
            tenants: 2,
            replicas: Some(2),
            workers_per_replica: 1,
            batch: BatchPolicy::new(8, Duration::from_millis(2)).with_bucket_width(4),
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            queue_capacity: QUEUE_CAP,
            policy: BackpressurePolicy::Reject,
            batch: self.batch,
            workers: self.workers_per_replica,
            ..ServeConfig::default()
        }
    }

    fn replica_count(&self) -> usize {
        self.replicas.unwrap_or(1)
    }

    /// The layer the generator's hand-off call belongs to.
    fn submit_layer(&self) -> usize {
        match self.replicas {
            Some(_) => layer("router"),
            None => layer("serve.queue"),
        }
    }
}

/// Warm-up requests: one per (tenant, sequence length) pair the corpus
/// produces, so every batch-of-one plan is compiled before timing.
fn warm_requests(seed: u64, tenants: u32) -> Vec<InferRequest<f32>> {
    let data =
        bpar_data::tidigits::TidigitsDataset::new(loadgen::INPUT, loadgen::MEAN_FRAMES, seed);
    let lengths = loadgen::MIN_FRAMES..=loadgen::MAX_FRAMES;
    let pairs = lengths.clone().count() * tenants as usize;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for k in 0..100_000 {
        if seen.len() == pairs {
            break;
        }
        let utt = data.utterance::<f32>(WARM_BASE + k);
        for tenant in 0..tenants {
            if seen.insert((tenant, utt.frames.len())) {
                out.push(
                    InferRequest::new(WARM_BASE + out.len() as u64, utt.frames.clone())
                        .with_tenant(tenant),
                );
            }
        }
    }
    out
}

/// A served system after set-up.
enum System {
    Single(Server<f32>),
    Fleet(Router<f32>, mpsc::Receiver<Outcome<f32>>, u64),
}

impl System {
    /// Builds the models and the serving stack, starts it and serves the
    /// warm-up requests.
    fn start(w: &ServeWorkload, warm: &[InferRequest<f32>]) -> Self {
        let models = speech_models(w.tenants);
        match w.replicas {
            None => {
                let server = Server::with_tenants(models, w.serve_config());
                let queue = AdmissionQueue::new(QUEUE_CAP, BackpressurePolicy::Reject);
                for req in warm {
                    queue.push(req.clone());
                }
                queue.close();
                server.serve(&queue, &mut MetricsCollector::new(), |_| {});
                System::Single(server)
            }
            Some(replicas) => {
                let (tx, rx) = mpsc::channel();
                let router = Router::new(
                    models,
                    RouterConfig {
                        replicas,
                        routing: RoutingPolicy::Hash,
                        hedge: HedgePolicy::Off,
                        serve: w.serve_config(),
                        fault: None,
                        start_paused: false,
                    },
                    move |o| {
                        // The receiver lives until the run is over.
                        let _ = tx.send(o);
                    },
                );
                // Twice, so the second copy of each shape meets a warm plan.
                // The router keys in-flight requests by id: copies get new ones.
                let n = 2 * warm.len() as u64;
                for (k, req) in warm.iter().chain(warm).enumerate() {
                    let mut req = req.clone();
                    req.id = WARM_BASE + k as u64;
                    router.submit(req);
                }
                for _ in 0..n {
                    rx.recv().expect("router delivers every warm-up outcome");
                }
                System::Fleet(router, rx, n)
            }
        }
    }

    fn stop(self) {
        if let System::Fleet(router, _, _) = self {
            router.finish();
        }
    }
}

/// What the untraced pass measured.
struct Untraced {
    latency_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    service_s: Vec<f64>,
    served: Vec<Served>,
    sent: Vec<Sent>,
    tally: Tally,
    problems: Vec<String>,
}

fn tally_outcome(t: &mut Tally, o: &Outcome<f32>) {
    match o {
        Outcome::Served(_) => t.served += 1,
        Outcome::Shed { .. } => t.shed += 1,
        Outcome::Rejected { .. } => t.rejected += 1,
        Outcome::Failed { .. } | Outcome::Cancelled { .. } => t.failed += 1,
    }
}

fn tally_admission(t: &mut Tally, a: Admission<f32>) {
    match a {
        Admission::Admitted { shed } => t.shed += shed.len() as u64,
        Admission::Rejected(_) => t.rejected += 1,
        Admission::Shed(_) => t.shed += 1,
    }
}

fn untraced(sys: System, plan: Vec<Planned>) -> Untraced {
    // Timed ids are 0..n, so per-request facts index by id.
    let tenants: Vec<u32> = plan.iter().map(|p| p.request.tenant).collect();
    let mut tally = Tally {
        submitted: plan.len() as u64,
        ..Tally::default()
    };
    let mut problems = Vec::new();
    let start = Instant::now() + LEAD;
    let (mut outcomes, sent) = match sys {
        System::Single(server) => {
            let queue = AdmissionQueue::new(QUEUE_CAP, BackpressurePolicy::Reject);
            let mut outcomes = Vec::with_capacity(plan.len());
            let (sent, admission) = std::thread::scope(|s| {
                let queue = &queue;
                let gen = s.spawn(move || {
                    let mut adm = Tally::default();
                    let sent =
                        loadgen::drive(start, plan, |r| tally_admission(&mut adm, queue.push(r)));
                    queue.close();
                    (sent, adm)
                });
                server.serve(queue, &mut MetricsCollector::new(), |o| outcomes.push(o));
                gen.join().expect("load generator panicked")
            });
            tally.shed += admission.shed;
            tally.rejected += admission.rejected;
            (outcomes, sent)
        }
        System::Fleet(router, rx, warm) => {
            let timed = plan.len() as u64;
            let sent = loadgen::drive(start, plan, |r| router.submit(r));
            let report = router.finish();
            if let Err(e) = check::router_conserved(report.submitted, report.completed) {
                problems.push(e);
            }
            if report.submitted != warm + timed {
                problems.push(format!(
                    "router counted {} submissions, expected {}",
                    report.submitted,
                    warm + timed
                ));
            }
            (rx.try_iter().collect(), sent)
        }
    };
    let mut u = Untraced {
        latency_s: Vec::with_capacity(outcomes.len()),
        queue_wait_s: Vec::with_capacity(outcomes.len()),
        service_s: Vec::with_capacity(outcomes.len()),
        served: Vec::with_capacity(outcomes.len()),
        sent,
        tally,
        problems,
    };
    // Schedule order, which is id order, so percentiles can be windowed.
    outcomes.sort_by_key(Outcome::id);
    for o in outcomes {
        tally_outcome(&mut u.tally, &o);
        if let Outcome::Served(r) = o {
            u.latency_s.push(r.timing.total.as_secs_f64());
            u.queue_wait_s.push(r.timing.queue_wait.as_secs_f64());
            u.service_s.push(r.timing.service.as_secs_f64());
            u.served.push(Served {
                id: r.id,
                tenant: tenants[r.id as usize],
                logits: r.logits,
                padded_len: r.timing.padded_len,
            });
        }
    }
    if let Err(e) = u.tally.conserved() {
        u.problems.push(e);
    }
    u
}

/// One closed batch as the traced pass saw it.
struct BatchTrace {
    ids: Vec<u64>,
    rows: usize,
    padded_len: usize,
    real_frames: usize,
    closed: Instant,
    pool_start: Instant,
    pool_end: Instant,
    exec_end: Instant,
    done: Instant,
    tasks: TaskStats,
    overhead_s: f64,
}

#[derive(Default)]
struct ReplicaTrace {
    popped: Vec<(u64, Instant)>,
    batches: Vec<BatchTrace>,
    served: Vec<Served>,
    failed: u64,
}

/// A serving replica assembled from the public layer types, with a
/// span around each call. It follows `Server::serve`'s loop for
/// fault-free traffic: retries, the circuit breaker and hedging are not
/// exercised by these workloads.
struct TracedReplica {
    models: Vec<Brnn<f32>>,
    exec: TaskGraphExec,
    pool: BufferPool<f32>,
    policy: BatchPolicy,
}

impl TracedReplica {
    fn new(w: &ServeWorkload) -> Self {
        // The same executor and pool set-up as `Server::with_tenants`.
        let cfg = w.serve_config();
        let exec = TaskGraphExec::with_backend(
            cfg.workers,
            SchedulerPolicy::LocalityAware,
            1,
            cfg.backend,
        )
        .with_strategy(cfg.recurrence);
        Self {
            models: speech_models(w.tenants),
            exec,
            pool: BufferPool::new(32),
            policy: w.batch,
        }
    }

    fn serve(&mut self, queue: &AdmissionQueue<f32>) -> ReplicaTrace {
        let mut batcher = MicroBatcher::new(self.policy);
        let mut tr = ReplicaTrace::default();
        loop {
            if let Some(batch) = batcher.pop_ready(Instant::now(), false) {
                self.execute(batch, &mut tr);
                continue;
            }
            match queue.pop_wait(batcher.next_deadline()) {
                Popped::Item(req) => {
                    let now = Instant::now();
                    tr.popped.push((req.id, now));
                    batcher.offer(req, now);
                }
                Popped::TimedOut => {}
                Popped::Closed => break,
            }
        }
        while let Some(batch) = batcher.pop_ready(Instant::now(), true) {
            self.execute(batch, &mut tr);
        }
        tr
    }

    fn execute(&mut self, batch: Vec<InferRequest<f32>>, tr: &mut ReplicaTrace) {
        let closed = Instant::now();
        let tenant = batch[0].tenant;
        let model = &self.models[tenant as usize];
        let dim = model.config.input_size;
        let rows = batch.len();
        let padded_len = batch.iter().map(InferRequest::seq_len).max().unwrap_or(0);
        let pool_start = Instant::now();
        let mut bufs = self.pool.checkout(model, tenant, rows, padded_len);
        for (t, x) in bufs.xs.iter_mut().enumerate() {
            let data = x.as_mut_slice();
            for (r, req) in batch.iter().enumerate() {
                let dst = &mut data[r * dim..(r + 1) * dim];
                match req.frames.get(t) {
                    Some(frame) => dst.copy_from_slice(frame),
                    None => dst.fill(0.0),
                }
            }
        }
        let pool_end = Instant::now();
        let result =
            self.exec
                .try_forward_into_keyed(tenant as u64, model, &bufs.xs, &mut bufs.out);
        let exec_end = Instant::now();
        for (r, req) in batch.iter().enumerate() {
            if result.is_ok() {
                tr.served.push(Served {
                    id: req.id,
                    tenant,
                    logits: bufs.out.logits.row(r).to_vec(),
                    padded_len,
                });
            } else {
                tr.failed += 1;
            }
        }
        self.pool.give_back(tenant, rows, padded_len, bufs);
        let done = Instant::now();
        // Trace bookkeeping, after the responses are out.
        let overhead_s = self.exec.runtime().stats().overhead_time;
        let tasks = TaskStats::of(&self.exec.runtime().take_records());
        tr.batches.push(BatchTrace {
            ids: batch.iter().map(|r| r.id).collect(),
            rows,
            padded_len,
            real_frames: batch.iter().map(InferRequest::seq_len).sum(),
            closed,
            pool_start,
            pool_end,
            exec_end,
            done,
            tasks,
            overhead_s,
        });
    }

    fn warm(&mut self, warm: &[InferRequest<f32>]) {
        let queue = AdmissionQueue::new(QUEUE_CAP, BackpressurePolicy::Reject);
        for req in warm.iter().chain(warm) {
            queue.push(req.clone());
        }
        queue.close();
        self.serve(&queue);
    }
}

/// Signed `b - a` in seconds.
fn secs(a: Instant, b: Instant) -> f64 {
    match b.checked_duration_since(a) {
        Some(d) => d.as_secs_f64(),
        None => -a.duration_since(b).as_secs_f64(),
    }
}

/// What the traced pass measured.
struct Traced {
    sums: LayerSums,
    latency_s: Vec<f64>,
    served: Vec<Served>,
    tally: Tally,
    routed: Vec<u64>,
    depth_max: usize,
    batches: usize,
    rows: usize,
    padded_cells: usize,
    real_frames: usize,
    tasks: TaskStats,
    span_workers_s: f64,
    overhead_s: f64,
    exec_outside_s: f64,
    cell_fwd_flops: f64,
    plan: PlanCacheStats,
    pool: PoolStats,
}

/// Adds the plan-cache counters gained from `before` to `after` to `acc`.
pub fn add_plan_growth(acc: &mut PlanCacheStats, before: PlanCacheStats, after: PlanCacheStats) {
    acc.hits += after.hits - before.hits;
    acc.misses += after.misses - before.misses;
    acc.weight_syncs += after.weight_syncs - before.weight_syncs;
    acc.build_ns += after.build_ns - before.build_ns;
    acc.replay_ns += after.replay_ns - before.replay_ns;
}

/// Nominal forward GEMM flops of one batch's recurrent cells: per layer,
/// direction and timestep, `2 · rows · 4h · (in + h)` (four LSTM gates,
/// input and recurrent products). Computed from shapes, not counted.
pub fn cell_fwd_flops(rows: usize, seq: usize) -> f64 {
    let h = SPEECH.hidden_size;
    (0..SPEECH.layers)
        .map(|l| {
            let inp = SPEECH.layer_input_size(l);
            2.0 * seq as f64 * 2.0 * rows as f64 * (4 * h) as f64 * (inp + h) as f64
        })
        .sum()
}

fn traced(w: &ServeWorkload, warm: &[InferRequest<f32>], plan: Vec<Planned>) -> Traced {
    let n_rep = w.replica_count();
    let mut replicas: Vec<TracedReplica> = (0..n_rep).map(|_| TracedReplica::new(w)).collect();
    for r in &mut replicas {
        r.warm(warm);
    }
    let plan_before: Vec<PlanCacheStats> =
        replicas.iter().map(|r| r.exec.plan_cache_stats()).collect();
    let pool_before: Vec<PoolStats> = replicas.iter().map(|r| r.pool.stats()).collect();
    let queues: Vec<AdmissionQueue<f32>> = (0..n_rep)
        .map(|_| AdmissionQueue::new(QUEUE_CAP, BackpressurePolicy::Reject))
        .collect();
    let mut tally = Tally {
        submitted: plan.len() as u64,
        ..Tally::default()
    };
    let mut routed = vec![0u64; n_rep];
    let start = Instant::now() + LEAD;
    let (sent, traces) = std::thread::scope(|s| {
        let handles: Vec<_> = replicas
            .iter_mut()
            .zip(&queues)
            .map(|(rep, q)| s.spawn(move || rep.serve(q)))
            .collect();
        let sent = loadgen::drive(start, plan, |r| {
            let shard = if n_rep > 1 {
                rendezvous_pair(route_key(r.tenant, r.id), n_rep).0
            } else {
                0
            };
            routed[shard] += 1;
            tally_admission(&mut tally, queues[shard].push(r));
        });
        for q in &queues {
            q.close();
        }
        let traces: Vec<ReplicaTrace> = handles
            .into_iter()
            .map(|h| h.join().expect("traced replica panicked"))
            .collect();
        (sent, traces)
    });
    let mut plan_stats = PlanCacheStats::default();
    let mut pool_stats = PoolStats::default();
    for (i, r) in replicas.iter().enumerate() {
        add_plan_growth(&mut plan_stats, plan_before[i], r.exec.plan_cache_stats());
        let p = r.pool.stats();
        pool_stats.hits += p.hits - pool_before[i].hits;
        pool_stats.misses += p.misses - pool_before[i].misses;
    }

    let submit_layer = w.submit_layer();
    let mut t = Traced {
        sums: LayerSums::default(),
        latency_s: Vec::with_capacity(sent.len()),
        served: Vec::with_capacity(sent.len()),
        tally,
        routed,
        depth_max: queues
            .iter()
            .map(|q| q.depth_stats().max())
            .max()
            .unwrap_or(0),
        batches: 0,
        rows: 0,
        padded_cells: 0,
        real_frames: 0,
        tasks: TaskStats::default(),
        span_workers_s: 0.0,
        overhead_s: 0.0,
        exec_outside_s: 0.0,
        cell_fwd_flops: 0.0,
        plan: plan_stats,
        pool: pool_stats,
    };
    for mut tr in traces {
        let popped: HashMap<u64, Instant> = tr.popped.drain(..).collect();
        t.tally.failed += tr.failed;
        t.tally.served += tr.served.len() as u64;
        t.served.append(&mut tr.served);
        for b in &tr.batches {
            t.batches += 1;
            t.rows += b.rows;
            t.padded_cells += b.rows * b.padded_len;
            t.real_frames += b.real_frames;
            t.tasks.accumulate(&b.tasks);
            t.span_workers_s += b.tasks.span_s * w.workers_per_replica as f64;
            t.overhead_s += b.overhead_s;
            let call_s = secs(b.pool_end, b.exec_end);
            t.exec_outside_s += call_s - b.tasks.span_s;
            t.cell_fwd_flops += cell_fwd_flops(b.rows, b.padded_len);
            for id in &b.ids {
                // Timed ids are 0..n: the generator's stamps index by id.
                let s = &sent[*id as usize];
                let mut a = Attribution {
                    total_s: secs(s.due, b.done),
                    ..Attribution::default()
                };
                a.self_s[layer("loadgen")] = secs(s.due, s.sent);
                a.self_s[submit_layer] += secs(s.sent, s.submitted);
                a.self_s[layer("serve.queue")] += secs(s.submitted, popped[id]);
                a.self_s[layer("serve.batcher")] = secs(popped[id], b.closed);
                a.self_s[layer("serve.pool")] = secs(b.pool_start, b.pool_end);
                a.add_exec(call_s, &b.tasks);
                a.self_s[layer("serve.server")] = secs(b.exec_end, b.done);
                t.latency_s.push(a.total_s);
                t.sums.add(&a);
            }
        }
    }
    t
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one serving workload and returns its report.
pub fn run(
    name: &str,
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
    threads: usize,
) -> Report {
    // Set-up, several times; the last system serves the timed run.
    let warm = warm_requests(seed, w.tenants);
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut sys = None;
    for rep in 0..setup_reps {
        let t0 = Instant::now();
        let s = System::start(w, &warm);
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            s.stop();
        } else {
            sys = Some(s);
        }
    }
    let sys = sys.expect("at least one set-up");

    // A traced run splits its time between the two passes.
    let seconds = if trace { seconds / 2.0 } else { seconds };
    let offsets = loadgen::poisson_offsets(seed, w.rate_rps, seconds);
    let plan = loadgen::plan_requests(seed, &offsets, w.tenants);
    let frames: Vec<Vec<Vec<f32>>> = plan.iter().map(|p| p.request.frames.clone()).collect();
    let u = untraced(sys, plan);

    let models = speech_models(w.tenants);
    let lookup = |id: u64| frames[id as usize].as_slice();
    let mismatches = check::logit_mismatches(&models, lookup, &u.served, threads) as u64;

    let mut report = Report::new(name);
    report.attempted = u.tally.submitted;
    report.failed = u.tally.not_served() + mismatches;
    report.mismatches = mismatches;
    report.problems = u.problems.clone();
    let limit_s = w.limit_ms / 1e3;
    let good = u.latency_s.iter().filter(|&&l| l <= limit_s).count();
    let lag = Summary::of(u.sent.iter().map(Sent::lag_s).collect());
    report.lag_p99_ms = ms(lag.p99);

    let e = &mut report.end_to_end;
    e.put(
        "setup_s",
        lower_quartile(&setup_s),
        setup_reps,
        "lower quartile of set-ups: models, server/router start, warm-up",
    );
    e.put_windowed(
        "latency_p50_ms",
        &u.latency_s,
        50.0,
        "request latency from its scheduled send",
    );
    e.put(
        "goodput_per_s",
        good as f64 / seconds,
        u.latency_s.len(),
        &format!("responses within {} ms per second of schedule", w.limit_ms),
    );

    let what = "request latency from its scheduled send";
    report.info_windowed("latency_p95_ms", &u.latency_s, 95.0, what);
    report.info_windowed("latency_p99_ms", &u.latency_s, 99.0, what);

    if trace {
        let t = traced(w, &warm, loadgen::plan_requests(seed, &offsets, w.tenants));
        let tm = check::logit_mismatches(&models, lookup, &t.served, threads) as u64;
        report.failed += t.tally.not_served() + tm;
        report.attempted += t.tally.submitted;
        report.mismatches += tm;
        if let Err(e) = t.tally.conserved() {
            report.problems.push(format!("traced pass: {e}"));
        }
        per_layer_serving(&mut report.per_layer, w, &u, &t, &lag);
    }
    report
}

fn per_layer_serving(p: &mut Metrics, w: &ServeWorkload, u: &Untraced, t: &Traced, lag: &Summary) {
    let fleet = w.replicas.is_some();
    let batches = t.batches.max(1) as f64;
    p.put("loadgen.lag_ms_p50", ms(lag.p50), lag.n, "untraced pass");
    p.put("loadgen.lag_ms_p99", ms(lag.p99), lag.n, "untraced pass");
    if fleet {
        let submit = Summary::of(u.sent.iter().map(|s| secs(s.sent, s.submitted)).collect());
        p.put(
            "router.submit_us_p50",
            submit.p50 * 1e6,
            submit.n,
            "Router::submit, untraced pass",
        );
        p.put(
            "router.submit_us_p99",
            submit.p99 * 1e6,
            submit.n,
            "Router::submit, untraced pass",
        );
        let max = *t.routed.iter().max().unwrap_or(&0) as f64;
        let min = *t.routed.iter().min().unwrap_or(&0) as f64;
        p.put(
            "router.replica_skew",
            ratio(max, min),
            t.routed.len(),
            "max/min requests per replica",
        );
    }
    let qw = Summary::of(u.queue_wait_s.clone());
    p.put(
        "serve.queue.wait_ms_p50",
        ms(qw.p50),
        qw.n,
        "ResponseTiming::queue_wait, untraced pass",
    );
    p.put(
        "serve.queue.wait_ms_p99",
        ms(qw.p99),
        qw.n,
        "ResponseTiming::queue_wait, untraced pass",
    );
    p.put(
        "serve.queue.depth_max",
        t.depth_max as f64,
        t.batches,
        "largest admission-queue depth",
    );
    p.put(
        "serve.batcher.rows_mean",
        t.rows as f64 / batches,
        t.batches,
        "rows per closed batch",
    );
    p.put(
        "serve.batcher.padding_frac",
        1.0 - ratio(t.real_frames as f64, t.padded_cells as f64),
        t.batches,
        "padded frames over all frames",
    );
    p.put(
        "serve.pool.hit_ratio",
        ratio(t.pool.hits as f64, (t.pool.hits + t.pool.misses) as f64),
        (t.pool.hits + t.pool.misses) as usize,
        "BufferPool checkouts served from the pool",
    );
    let sv = Summary::of(u.service_s.clone());
    p.put(
        "serve.service_ms_p50",
        ms(sv.p50),
        sv.n,
        "ResponseTiming::service, untraced pass",
    );
    p.put(
        "serve.service_ms_p99",
        ms(sv.p99),
        sv.n,
        "ResponseTiming::service, untraced pass",
    );
    exec_layers(
        p,
        &t.plan,
        t.batches,
        &t.tasks,
        t.span_workers_s,
        t.overhead_s,
        t.exec_outside_s,
    );
    p.put(
        "kernel.cell_fwd.gflops",
        ratio(t.cell_fwd_flops, t.tasks.kernel_s[0]) / 1e9,
        t.tasks.kernel_n[0],
        "flops from tensor shapes, not counted",
    );
    trace_layers(p, &t.sums, &t.latency_s, &u.latency_s);
}

/// Executor, runtime and kernel metrics shared by every workload.
pub fn exec_layers(
    p: &mut Metrics,
    plan: &PlanCacheStats,
    batches: usize,
    tasks: &TaskStats,
    span_workers_s: f64,
    overhead_s: f64,
    exec_outside_s: f64,
) {
    let nb = batches.max(1) as f64;
    let lookups = plan.hits + plan.misses;
    p.put(
        "exec.plan.hit_ratio",
        ratio(plan.hits as f64, lookups as f64),
        lookups as usize,
        "PlanCacheStats",
    );
    p.put(
        "exec.plan.misses",
        plan.misses as f64,
        lookups as usize,
        "PlanCacheStats, timed pass only",
    );
    p.put(
        "exec.plan.build_ms",
        plan.build_ns as f64 / 1e6,
        plan.misses as usize,
        "PlanCacheStats::build_ns, summed",
    );
    p.put(
        "exec.replay_us_per_batch",
        plan.replay_ns as f64 / 1e3 / nb,
        batches,
        "PlanCacheStats::replay_ns per batch or step",
    );
    p.put(
        "exec.weight_syncs_per_step",
        plan.weight_syncs as f64 / nb,
        batches,
        "weight deep copies per batch or step",
    );
    p.put(
        "exec.outside_runtime_us",
        exec_outside_s * 1e6 / nb,
        batches,
        "executor call minus the runtime's task span",
    );
    p.put(
        "runtime.tasks_per_batch",
        tasks.tasks as f64 / nb,
        batches,
        "task records per batch or step",
    );
    p.put(
        "runtime.gap_ns_per_task",
        ratio(span_workers_s - tasks.body_s, tasks.tasks as f64) * 1e9,
        tasks.tasks,
        "(span x workers - body time) / tasks",
    );
    p.put(
        "runtime.replay_overhead_us",
        overhead_s * 1e6 / nb,
        batches,
        "RuntimeStats::overhead_time per batch or step",
    );
    p.put(
        "runtime.body_share",
        ratio(tasks.body_s, span_workers_s),
        batches,
        "body time over span x workers",
    );
    p.put(
        "runtime.avg_concurrency",
        ratio(tasks.body_s, tasks.span_s),
        batches,
        "body time over span",
    );
    for (k, name) in KERNELS.iter().enumerate() {
        p.put(
            &format!("kernel.{name}.us_per_task"),
            ratio(tasks.kernel_s[k], tasks.kernel_n[k] as f64) * 1e6,
            tasks.kernel_n[k],
            "mean task body time",
        );
    }
}

/// Layer self times, residual and tracing cost.
pub fn trace_layers(p: &mut Metrics, sums: &LayerSums, traced_s: &[f64], untraced_s: &[f64]) {
    for (ix, name) in LAYERS.iter().enumerate() {
        p.put(
            &format!("self_ms.{name}"),
            ms(sums.mean(ix)),
            sums.ops,
            "mean self time per operation, traced pass",
        );
    }
    p.put(
        "self_ms.residual",
        ms(sums.residual_s / sums.ops.max(1) as f64),
        sums.ops,
        "time no span covers",
    );
    p.put(
        "trace.residual_frac",
        sums.residual_frac(),
        sums.ops,
        "unattributed share of traced end-to-end time",
    );
    let tr = Summary::of(traced_s.to_vec());
    let un = Summary::of(untraced_s.to_vec());
    p.put(
        "trace.latency_p50_ms",
        ms(tr.p50),
        tr.n,
        "traced pass end-to-end p50",
    );
    p.put(
        "trace.untraced_p50_ms",
        ms(un.p50),
        un.n,
        "untraced pass end-to-end p50",
    );
}
