//! `service_churn`: the online controller users run.
//!
//! A `ServiceCore` on the Fig. 10 cluster (16 × 16 servers × 4 GPUs)
//! replays an open-loop Philly-style trace at about 85% offered load in
//! virtual time. Submissions arrive at their arrival times, one
//! `place_pass` runs per 60 s scheduling epoch, and each placed job's
//! `Complete` fires at its placement epoch plus its ideal runtime, so every
//! job is placed and the trace alone fixes the work. About 2% of jobs are
//! cancelled (half one second after arrival, half halfway through their
//! ideal runtime), and every job is queried once; each answer is checked
//! against the benchmark's own model of where the job stands.

use crate::span::Tracer;
use crate::{derive_seed, ms, CommCost, Digest, Metric, Rep, Scale};
use netpack_service::{Command, JobStatus, ServiceConfig, ServiceCore};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_waterfill::PlacedJob;
use netpack_workload::{Job, Trace, TraceKind, TraceSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Virtual seconds between placement passes (`ManagerConfig::epoch_s`).
const EPOCH_S: f64 = 60.0;
/// Epochs after the last scheduled event before unplaced jobs count as
/// failed.
const DRAIN_EPOCHS: u64 = 240;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Submit,
    Cancel,
    Query,
}

/// A command due at a virtual time, ordered by (time, kind, job).
#[derive(Debug, Clone, Copy)]
struct Due {
    t: f64,
    kind: Kind,
    job: usize,
}

/// Where the benchmark's model says a job is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    NotArrived,
    Pending,
    Running,
    Gone,
}

/// Open-loop Philly-style trace tuned to ~85% offered GPU load on `spec`.
fn service_trace(spec: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let duration_scale = 0.3;
    // Log-normal mean duration: median 480 s, sigma 1.1 (see TraceSpec).
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let interarrival = 4.5 * mean_duration_s / (spec.total_gpus() as f64 * 0.85);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .open_loop()
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(64)
        .generate()
}

/// The static command schedule: every submission, cancel and query.
fn schedule(jobs: &[Job], seed: u64) -> Vec<Due> {
    let mut rng = derive_seed(seed, 2);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut due = Vec::with_capacity(jobs.len() * 2 + jobs.len() / 25);
    for (i, j) in jobs.iter().enumerate() {
        let ideal = j.ideal_time_s();
        due.push(Due {
            t: j.arrival_s,
            kind: Kind::Submit,
            job: i,
        });
        // Ideal runtimes are at least 9 s, so the query and both cancel
        // times fall before the job could complete.
        due.push(Due {
            t: j.arrival_s + 0.25 * ideal,
            kind: Kind::Query,
            job: i,
        });
        match next() % 100 {
            0 => due.push(Due {
                t: j.arrival_s + 1.0,
                kind: Kind::Cancel,
                job: i,
            }),
            1 => due.push(Due {
                t: j.arrival_s + 0.5 * ideal,
                kind: Kind::Cancel,
                job: i,
            }),
            _ => {}
        }
    }
    due.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then(a.kind.cmp(&b.kind))
            .then(a.job.cmp(&b.job))
    });
    due
}

/// Completion-heap key: virtual time (as ordered bits) then job index.
type DoneKey = Reverse<(u64, usize)>;

fn done_key(t: f64, job: usize) -> DoneKey {
    // Times are non-negative, so their bit patterns order like the values.
    Reverse((t.to_bits(), job))
}

/// One repetition: set up, replay, check.
pub fn run(seed: u64, scale: &Scale, tracer: &mut Tracer, full_check: bool) -> Rep {
    let mut rep = Rep::default();
    let root = tracer.enter("bench.rep", 0);

    let setup = Instant::now();
    let open = tracer.enter("bench.setup", 0);
    let spec = ClusterSpec::paper_default();
    let o = tracer.enter("workload.trace_gen", 0);
    let jobs = service_trace(&spec, scale.churn_jobs, derive_seed(seed, 1)).into_jobs();
    // The replay indexes its per-job state by job id.
    assert!(
        jobs.iter().enumerate().all(|(i, j)| j.id.0 == i as u64),
        "trace job ids must be their positions"
    );
    let due = schedule(&jobs, seed);
    tracer.exit(o);
    let t0 = Instant::now();
    let cluster = Cluster::new(spec);
    let cluster_new = t0.elapsed();
    tracer.record("topology.cluster_new", 0, t0, Instant::now());
    let t0 = Instant::now();
    let mut core = ServiceCore::new(cluster, ServiceConfig::default());
    let core_new = t0.elapsed();
    tracer.record("service.core_new", 0, t0, Instant::now());
    let total_gpus = core.session().cluster().total_gpus();
    let link_gbps = core.session().cluster().spec().server_link_gbps;
    tracer.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let (tx, rx) = std::sync::mpsc::sync_channel::<JobStatus>(1);
    let mut state = vec![State::NotArrived; jobs.len()];
    let mut done: BinaryHeap<DoneKey> = BinaryHeap::new();
    let mut digest = Digest::default();
    let (mut running_gpus, mut running_jobs) = (0usize, 0usize);
    let (mut placed, mut completes, mut cancels, mut queries) = (0u64, 0u64, 0u64, 0u64);
    let mut wait_sum = 0.0f64;
    let mut cost = CommCost::default();
    let last_due = due.last().map_or(0.0, |d| d.t);
    let mut next_due = 0usize;
    let mut pass = 0u64;

    let replay = Instant::now();
    loop {
        pass += 1;
        let now = pass as f64 * EPOCH_S;
        // Fire every command due by this epoch in virtual-time order;
        // completions go first on a tie, freeing GPUs for the pass.
        loop {
            let t_due = due.get(next_due).map_or(f64::INFINITY, |d| d.t);
            let t_done = done
                .peek()
                .map_or(f64::INFINITY, |k| f64::from_bits(k.0 .0));
            if t_done.min(t_due) > now {
                break;
            }
            if t_done <= t_due {
                let Reverse((_, i)) = done.pop().expect("peeked");
                if state[i] != State::Running {
                    continue; // cancelled while running
                }
                let o = tracer.enter("service.complete", i as u64);
                core.apply(Command::Complete(jobs[i].id));
                tracer.exit(o);
                state[i] = State::Gone;
                running_gpus -= jobs[i].gpus;
                running_jobs -= 1;
                completes += 1;
                continue;
            }
            let d = due[next_due];
            next_due += 1;
            let id = jobs[d.job].id;
            match d.kind {
                Kind::Submit => {
                    let o = tracer.enter("service.submit", id.0);
                    core.apply(Command::Submit(jobs[d.job].clone()));
                    tracer.exit(o);
                    state[d.job] = State::Pending;
                }
                Kind::Cancel => {
                    let o = tracer.enter("service.cancel", id.0);
                    core.apply(Command::Cancel(id));
                    tracer.exit(o);
                    if state[d.job] == State::Running {
                        running_gpus -= jobs[d.job].gpus;
                        running_jobs -= 1;
                    }
                    state[d.job] = State::Gone;
                    cancels += 1;
                }
                Kind::Query => {
                    let o = tracer.enter("service.query", id.0);
                    core.apply(Command::Query(id, Some(tx.clone())));
                    tracer.exit(o);
                    let expect = match state[d.job] {
                        State::Pending => JobStatus::Pending,
                        State::Running => JobStatus::Running,
                        State::NotArrived | State::Gone => JobStatus::Unknown,
                    };
                    let got = rx.try_recv().ok();
                    if got != Some(expect) {
                        rep.failures
                            .push(format!("query {id}: got {got:?}, expected {expect:?}"));
                    }
                    queries += 1;
                }
            }
        }

        if core.pending_len() > 0 {
            let before = core.running_len();
            let t0 = Instant::now();
            let _ = core.place_pass();
            let t1 = Instant::now();
            tracer.record("service.place_pass", pass, t0, t1);
            rep.decisions_ms.push(ms(t1 - t0));
            let o = tracer.enter("bench.check", pass);
            let session = core.session();
            for rj in &session.running()[before..] {
                let i = rj.id.0 as usize;
                cost.add(session.state(), &jobs[i], link_gbps);
                state[i] = State::Running;
                running_gpus += jobs[i].gpus;
                running_jobs += 1;
                placed += 1;
                wait_sum += now - jobs[i].arrival_s;
                done.push(done_key(now + jobs[i].ideal_time_s(), i));
                digest.placement(pass, rj);
            }
            if core.free_gpus() + running_gpus != total_gpus || core.running_len() != running_jobs {
                rep.failures.push(format!(
                    "pass {pass}: {} free + {running_gpus} running != {total_gpus} GPUs",
                    core.free_gpus()
                ));
            }
            tracer.exit(o);
        }
        let drained = core.pending_len() == 0;
        if next_due == due.len() && (drained || now > last_due + DRAIN_EPOCHS as f64 * EPOCH_S) {
            break;
        }
    }
    rep.wall_s = replay.elapsed().as_secs_f64();

    if full_check {
        let o = tracer.enter("waterfill.estimate", 0);
        let session = core.session();
        let set: Vec<PlacedJob> = session
            .running()
            .iter()
            .map(|r| r.to_placed(session.cluster()))
            .collect();
        let fresh = netpack_waterfill::estimate(session.cluster(), &set);
        tracer.exit(o);
        if fresh != *session.state() {
            rep.failures
                .push("warm steady state differs from a from-scratch estimate".into());
        }
    }
    let unplaced = core.pending_len() as u64;
    let report = core.finish();
    let c = report.counters;
    if c.placed != placed || c.completed != completes || c.queries != queries {
        rep.failures
            .push(format!("service counters disagree with the replay: {c:?}"));
    }
    if c.cancelled_pending + c.cancelled_running != cancels {
        rep.failures
            .push(format!("{cancels} cancels issued, service counted {c:?}"));
    }
    tracer.exit(root);

    rep.jobs = placed;
    rep.attempted = jobs.len() as u64 + completes + cancels + queries;
    rep.failed = c.rejected + c.unknown_ops + unplaced;
    rep.digest = digest.0;
    let wait_mean = wait_sum / placed.max(1) as f64;
    rep.cost_ratio = cost.ratio();
    rep.sim = vec![
        Metric::new("wait_sim_s_mean", "s", wait_mean),
        Metric::new("comm_time_sim_s", "s", cost.comm_s),
        Metric::new("placement_cost_ratio", "1", rep.cost_ratio),
        Metric::new("placed", "count", placed as f64),
        Metric::new("passes", "count", rep.decisions_ms.len() as f64),
    ];
    rep.notes = vec![
        format!("placement_cost_ratio: comm time of the {placed} placed jobs, each under the steady state of the pass that placed it, over the same at line rate"),
        format!(
            "{} submits, {completes} completes, {cancels} cancels ({} pending, {} running), {queries} queries",
            jobs.len(),
            c.cancelled_pending,
            c.cancelled_running
        ),
    ];
    if tracer.is_on() {
        layers(
            &mut rep,
            tracer,
            &report.perf,
            &c,
            ms(cluster_new),
            ms(core_new),
        );
    }
    rep
}

fn layers(
    rep: &mut Rep,
    tracer: &Tracer,
    perf: &netpack_metrics::PerfCounters,
    c: &netpack_service::ServiceCounters,
    cluster_new_ms: f64,
    core_new_ms: f64,
) {
    let spans = tracer.spans();
    let p50_us = |name: &str| crate::median(&crate::span_ms(spans, name)) * 1e3;
    let pass_ms = crate::span_total_ms(spans, "service.place_pass");
    let batch_ms = ms(perf.timer_total("place_batch"));
    let out = &mut rep.layers;
    crate::push_metrics(
        out,
        [
            ("service.submit_us", "us", p50_us("service.submit")),
            ("service.complete_us", "us", p50_us("service.complete")),
            ("service.cancel_us", "us", p50_us("service.cancel")),
            ("service.query_us", "us", p50_us("service.query")),
            ("service.place_pass_ms", "ms", pass_ms),
            ("service.self_ms", "ms", pass_ms - batch_ms),
            ("service.deferrals", "count", c.deferrals as f64),
            ("service.max_queue_depth", "count", c.max_queue_depth as f64),
            ("placement.place_batch_ms", "ms", batch_ms),
        ],
    );
    crate::placement_layers(perf, c.placed, out);
    crate::waterfill_layers(
        perf.counter("waterfill_jobs_resolved"),
        perf.counter("waterfill_jobs_reused"),
        perf.counter("waterfill_pushes"),
        perf.counter("waterfill_components_solved"),
        out,
    );
    crate::push_metrics(
        out,
        [
            // Every running-job completion or cancel is one estimator
            // remove; the session does not count them itself.
            (
                "waterfill.removes",
                "count",
                (c.completed + c.cancelled_running) as f64,
            ),
            (
                "waterfill.solve_ms",
                "ms",
                ms(perf.timer_total("waterfill_solve")),
            ),
            (
                "waterfill.estimate_ms",
                "ms",
                crate::span_total_ms(spans, "waterfill.estimate"),
            ),
            ("topology.cluster_new_ms", "ms", cluster_new_ms),
            ("service.core_new_ms", "ms", core_new_ms),
            (
                "workload.trace_gen_ms",
                "ms",
                crate::span_total_ms(spans, "workload.trace_gen"),
            ),
            ("bench.self_ms", "ms", crate::bench_self_ms(spans)),
        ],
    );
}
