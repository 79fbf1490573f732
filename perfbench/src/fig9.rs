//! `sim_fig9`: one Fig. 9 flow-simulation cell.
//!
//! `Simulation::run` replays one 4,000-job Philly-style trace on the
//! 1,024-server cell of Fig. 9's sweep (16 racks × 64 servers × 4 GPUs)
//! twice: once with `NetPackPlacer`, once with `GpuBalance`. As in the
//! figure, the trace is loaded against the sweep's smallest cluster (16
//! racks × 6 servers) and replayed on the larger one, so arrivals spread
//! over about 128 placement epochs per cell. The NetPack cell is
//! placement-bound, and the ratio of the two cells' mean JCTs is the
//! figure's normalized JCT. Both run the stateless `Placer::place_batch` +
//! `JobManager` path, which neither other workload uses.

use crate::span::Tracer;
use crate::{derive_seed, ms, Digest, Metric, Rep, Scale};
use netpack_flowsim::{SimConfig, SimResult, Simulation};
use netpack_placement::{BatchOutcome, GpuBalance, NetPackPlacer, Placer, RunningJob};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::{Job, Trace, TraceKind, TraceSpec};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Fig. 9's loaded trace: arrival pressure slightly above the service
/// capacity of `spec` (same shape as the figure binaries' `loaded_trace`).
fn loaded_trace(spec: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let max = (spec.total_gpus() / 2).clamp(2, 64);
    let duration_scale = 0.3;
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let mean_gpus = 4.5f64.min(max as f64 / 2.0);
    let interarrival = mean_gpus * mean_duration_s / (spec.total_gpus() as f64 * 1.15);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(max)
        .generate()
}

/// A placer shared with the benchmark, which times each of the
/// simulator's calls into it and reads its counters after the run.
struct Timed<P> {
    placer: P,
    calls: Vec<(Instant, Instant)>,
}

struct Shared<P>(Rc<RefCell<Timed<P>>>);

impl<P: Placer> Placer for Shared<P> {
    fn name(&self) -> &'static str {
        self.0.borrow().placer.name()
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        let mut t = self.0.borrow_mut();
        let start = Instant::now();
        let out = t.placer.place_batch(cluster, running, batch);
        let end = Instant::now();
        t.calls.push((start, end));
        out
    }
}

/// A simulation ready to run, with its shared placer.
struct Cell<P> {
    sim: Simulation,
    placer: Rc<RefCell<Timed<P>>>,
}

fn prepare<P: Placer + 'static>(placer: P, spec: &ClusterSpec, tracer: &mut Tracer) -> Cell<P> {
    let placer = Rc::new(RefCell::new(Timed {
        placer,
        calls: Vec::new(),
    }));
    let t0 = Instant::now();
    let cluster = Cluster::new(spec.clone());
    tracer.record("topology.cluster_new", 0, t0, Instant::now());
    let sim = Simulation::new(
        cluster,
        Box::new(Shared(Rc::clone(&placer))),
        SimConfig::default(),
    );
    Cell { sim, placer }
}

/// Simulate one cell: the result, its host seconds, and the placer with
/// its call times.
fn simulate<P>(
    cell: Cell<P>,
    trace: &Trace,
    id: u64,
    tracer: &mut Tracer,
) -> (SimResult, f64, Timed<P>) {
    let o = tracer.enter("flowsim.run", id);
    let start = Instant::now();
    let result = cell.sim.run(trace);
    let wall = start.elapsed().as_secs_f64();
    let timed = Rc::try_unwrap(cell.placer)
        .ok()
        .expect("the simulation dropped its placer")
        .into_inner();
    for (k, &(s, e)) in timed.calls.iter().enumerate() {
        tracer.record("placement.place_batch", k as u64, s, e);
    }
    tracer.exit(o);
    (result, wall, timed)
}

/// One repetition: set up, simulate both cells, check.
pub fn run(seed: u64, scale: &Scale, tracer: &mut Tracer, _full_check: bool) -> Rep {
    let mut rep = Rep::default();
    let root = tracer.enter("bench.rep", 0);

    let setup = Instant::now();
    let open = tracer.enter("bench.setup", 0);
    let spec = ClusterSpec {
        racks: 16,
        servers_per_rack: scale.fig9_servers_per_rack,
        ..ClusterSpec::paper_default()
    };
    // As in Fig. 9, the workload is loaded against the sweep's smallest
    // cluster (16 racks × 6 servers) and replayed on the larger one.
    let base = ClusterSpec {
        racks: 16,
        servers_per_rack: scale.fig9_base_servers_per_rack,
        ..ClusterSpec::paper_default()
    };
    let o = tracer.enter("workload.trace_gen", 0);
    let trace = loaded_trace(&base, scale.fig9_jobs, derive_seed(seed, 3));
    tracer.exit(o);
    let np_cell = prepare(NetPackPlacer::default(), &spec, tracer);
    let gb_cell = prepare(GpuBalance, &spec, tracer);
    tracer.exit(open);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let (np, np_wall, np_timed) = simulate(np_cell, &trace, 0, tracer);
    let (gb, gb_wall, _) = simulate(gb_cell, &trace, 1, tracer);
    rep.wall_s = np_wall + gb_wall;
    rep.decisions_ms = np_timed.calls.iter().map(|&(s, e)| ms(e - s)).collect();

    let o = tracer.enter("bench.check", 0);
    let n = trace.jobs().len();
    let mut digest = Digest::default();
    let mut finished = 0u64;
    for (name, r) in [("NetPack", &np), ("GB", &gb)] {
        if !r.unfinished.is_empty() || r.outcomes.len() != n {
            rep.failures.push(format!(
                "{name} cell: {} of {n} jobs finished, {} unfinished",
                r.outcomes.len(),
                r.unfinished.len()
            ));
        }
        finished += r.outcomes.len() as u64;
        for out in &r.outcomes {
            digest.word(out.id.0);
            digest.word(out.start_s.to_bits());
            digest.word(out.finish_s.to_bits());
        }
    }
    tracer.exit(o);
    tracer.exit(root);

    let jct_np = np.average_jct_s().unwrap_or(f64::INFINITY);
    let jct_gb = gb.average_jct_s().unwrap_or(f64::INFINITY);
    let wait_np =
        np.outcomes.iter().map(|o| o.wait_s()).sum::<f64>() / np.outcomes.len().max(1) as f64;
    rep.jobs = finished;
    rep.attempted = 2 * n as u64;
    rep.failed = rep.attempted - finished;
    rep.digest = digest.0;
    rep.cost_ratio = jct_np / jct_gb;
    rep.sim = vec![
        Metric::new("jct_mean_sim_s", "s", jct_np),
        Metric::new("gb_jct_mean_sim_s", "s", jct_gb),
        Metric::new("jct_gain_vs_gb", "1", jct_gb / jct_np),
        Metric::new("wait_sim_s_mean", "s", wait_np),
        Metric::new("makespan_sim_s", "s", np.makespan_s),
    ];
    rep.notes = vec![format!(
        "placement_cost_ratio: NetPack mean JCT over GB mean JCT (Fig. 9's normalized JCT); {n} jobs on {} servers, decision times are the NetPack cell's {} placement epochs",
        spec.num_servers(),
        rep.decisions_ms.len()
    )];
    if tracer.is_on() {
        let spans = tracer.spans();
        let out = &mut rep.layers;
        let both = |name: &'static str| (np.perf.counter(name) + gb.perf.counter(name)) as f64;
        let both_ms =
            |name: &'static str| ms(np.perf.timer_total(name) + gb.perf.timer_total(name));
        let perf = np_timed.placer.perf();
        let np_batch_ms: f64 = crate::span_ms(spans, "placement.place_batch")
            .iter()
            .take(np_timed.calls.len())
            .sum();
        crate::push_metrics(
            out,
            [
                ("flowsim.netpack.run_s", "s", np_wall),
                ("flowsim.gb.run_s", "s", gb_wall),
                ("flowsim.events", "count", both("sim_events")),
                ("flowsim.heap_stale_pops", "count", both("heap_stale_pops")),
                (
                    "core.epochs",
                    "count",
                    (np.perf.timer_count("place") + gb.perf.timer_count("place")) as f64,
                ),
                ("core.place_ms", "ms", both_ms("place")),
                // `heap_ops`, `place` and `resolve_component` time disjoint
                // stretches of each event, all inside the `events` timer.
                (
                    "flowsim.self_ms",
                    "ms",
                    both_ms("events")
                        - both_ms("heap_ops")
                        - both_ms("place")
                        - both_ms("resolve_component"),
                ),
                ("placement.place_batch_ms", "ms", np_batch_ms),
            ],
        );
        crate::placement_layers(perf, np.outcomes.len() as u64, out);
        // The simulator's warm estimator (`wf_*`) plus the estimators the
        // stateless NetPack placer rebuilds every epoch (`waterfill_*`).
        let wf = |sim: &'static str, placer: &'static str| both(sim) as u64 + perf.counter(placer);
        crate::waterfill_layers(
            wf("wf_jobs_resolved", "waterfill_jobs_resolved"),
            wf("wf_jobs_reused", "waterfill_jobs_reused"),
            wf("wf_pushes", "waterfill_pushes"),
            wf("wf_components_solved", "waterfill_components_solved"),
            out,
        );
        crate::push_metrics(
            out,
            [
                ("waterfill.removes", "count", both("wf_removes")),
                (
                    "waterfill.solve_ms",
                    "ms",
                    ms(perf.timer_total("waterfill_solve")) + both_ms("resolve_component"),
                ),
                (
                    "topology.cluster_new_ms",
                    "ms",
                    crate::span_total_ms(spans, "topology.cluster_new"),
                ),
                (
                    "workload.trace_gen_ms",
                    "ms",
                    crate::span_total_ms(spans, "workload.trace_gen"),
                ),
                ("bench.self_ms", "ms", crate::bench_self_ms(spans)),
                ("jct_gain_vs_gb", "1", jct_gb / jct_np),
            ],
        );
    }
    rep
}
