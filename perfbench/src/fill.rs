//! `warehouse_fill`: placement scans at warehouse scale.
//!
//! A `NetPackSession` on fig10_xl's three-tier fat-tree (32 pods × 49
//! racks × 32 servers × 4 GPUs = 50,176 servers) is filled by successive
//! 100-job batches from fig10_xl's generator, with no completions. Only
//! adds reach the water-fill estimator — the opposite use of the session
//! from `service_churn`.

use crate::span::Tracer;
use crate::{derive_seed, ms, CommCost, Digest, Metric, Rep, Scale};
use netpack_placement::{NetPackConfig, NetPackSession};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_waterfill::PlacedJob;
use netpack_workload::{Job, ModelKind};
use std::time::Instant;

/// Jobs per batch, as in fig10_xl.
const BATCH: usize = 100;

/// One fig10_xl batch: xorshift demands in `1..max_gpus`, models drawn
/// uniformly, ids starting at `first_id`.
fn batch(first_id: u64, max_gpus: usize, seed: u64) -> Vec<Job> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..BATCH as u64)
        .map(|i| {
            let gpus = (next() % max_gpus as u64).max(1) as usize;
            let model = ModelKind::ALL[(next() % 6) as usize];
            Job::builder(JobId(first_id + i), model, gpus).build()
        })
        .collect()
}

/// One repetition: set up, fill, check.
pub fn run(seed: u64, scale: &Scale, tracer: &mut Tracer, full_check: bool) -> Rep {
    let mut rep = Rep::default();
    let root = tracer.enter("bench.rep", 0);

    let setup = Instant::now();
    let open = tracer.enter("bench.setup", 0);
    let o = tracer.enter("workload.batch_gen", 0);
    let batches: Vec<Vec<Job>> = (0..scale.fill_batches)
        .map(|k| batch((k * BATCH) as u64, 32, derive_seed(seed, 10 + k as u64)))
        .collect();
    tracer.exit(o);
    let (pods, racks_per_pod, servers_per_rack) = scale.fill_tree;
    let spec = ClusterSpec {
        racks: pods * racks_per_pod,
        servers_per_rack,
        gpus_per_server: 4,
        racks_per_pod: Some(racks_per_pod),
        ..ClusterSpec::paper_default()
    };
    let t0 = Instant::now();
    let cluster = Cluster::new(spec);
    let cluster_new = t0.elapsed();
    tracer.record("topology.cluster_new", 0, t0, Instant::now());
    let t0 = Instant::now();
    let mut session = NetPackSession::new(cluster, NetPackConfig::default());
    let session_new = t0.elapsed();
    tracer.record("placement.session_new", 0, t0, Instant::now());
    let total_gpus = session.cluster().total_gpus();
    let link_gbps = session.cluster().spec().server_link_gbps;
    tracer.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let mut cost = CommCost::default();
    let (mut running_gpus, mut deferred) = (0usize, 0u64);
    let fill = Instant::now();
    for (k, b) in batches.iter().enumerate() {
        let before = session.running().len();
        let t0 = Instant::now();
        let outcome = session.place_batch(b);
        let t1 = Instant::now();
        tracer.record("placement.place_batch", k as u64, t0, t1);
        rep.decisions_ms.push(ms(t1 - t0));
        let o = tracer.enter("bench.check", k as u64);
        deferred += outcome.deferred.len() as u64;
        // The Table 3 objective of this batch (`batch_comm_time_s`): the
        // placed jobs under the steady state over the running set plus
        // the batch.
        for (job, _) in &outcome.placed {
            running_gpus += job.gpus;
            cost.add(session.state(), job, link_gbps);
        }
        for rj in &session.running()[before..] {
            digest.placement(k as u64, rj);
        }
        if session.free_gpus() + running_gpus != total_gpus {
            rep.failures.push(format!(
                "batch {k}: {} free + {running_gpus} placed != {total_gpus} GPUs",
                session.free_gpus()
            ));
        }
        tracer.exit(o);
    }
    rep.wall_s = fill.elapsed().as_secs_f64();

    if full_check {
        let o = tracer.enter("waterfill.estimate", 0);
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
    tracer.exit(root);

    let jobs = (scale.fill_batches * BATCH) as u64;
    rep.jobs = jobs - deferred;
    rep.attempted = jobs;
    rep.failed = deferred;
    rep.digest = digest.0;
    rep.cost_ratio = cost.ratio();
    rep.sim = vec![
        Metric::new("comm_time_sim_s", "s", cost.comm_s),
        Metric::new("placement_cost_ratio", "1", rep.cost_ratio),
        Metric::new("placed", "count", rep.jobs as f64),
        Metric::new("gpus_placed", "count", running_gpus as f64),
    ];
    rep.notes = vec![format!(
        "placement_cost_ratio: sum over batches of batch_comm_time_s of the placed jobs over the same at line rate; {} servers, {running_gpus} of {total_gpus} GPUs placed",
        session.cluster().num_servers()
    )];
    if tracer.is_on() {
        let perf = session.perf();
        let spans = tracer.spans();
        let out = &mut rep.layers;
        out.push(Metric::new(
            "placement.place_batch_ms",
            "ms",
            crate::span_total_ms(spans, "placement.place_batch"),
        ));
        crate::placement_layers(perf, rep.jobs, out);
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
                ("topology.cluster_new_ms", "ms", ms(cluster_new)),
                ("placement.session_new_ms", "ms", ms(session_new)),
                (
                    "workload.batch_gen_ms",
                    "ms",
                    crate::span_total_ms(spans, "workload.batch_gen"),
                ),
                ("bench.self_ms", "ms", crate::bench_self_ms(spans)),
            ],
        );
    }
    rep
}
