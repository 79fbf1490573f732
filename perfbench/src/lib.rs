//! Equal-work benchmark of the NetPack workspace.
//!
//! Three trace-driven workloads replay in virtual time through the crates'
//! public APIs at default settings, so bit-identical code does identical
//! work on every run:
//!
//! * [`churn`] — `service_churn`: the online `ServiceCore` under an
//!   open-loop Philly-style trace with completions, cancels and queries;
//! * [`fill`] — `warehouse_fill`: a `NetPackSession` on a 50,176-server
//!   fat-tree filled batch by batch;
//! * [`fig9`] — `sim_fig9`: one Fig. 9 flow-simulation cell, NetPack and
//!   GPU-balance on the same trace.
//!
//! Each workload runs repetitions of its fixed work until the time budget
//! is spent and reports medians ([`measure`]). A traced repetition
//! ([`trace_all`]) records spans around the benchmark's calls into each
//! layer and reads the counters the layers already expose.

pub mod churn;
pub mod fig9;
pub mod fill;
pub mod span;

use netpack_metrics::PerfCounters;
use span::Tracer;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["service_churn", "warehouse_fill", "sim_fig9"];

/// End-to-end metric names and units, in print order. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("placement_cost_ratio", "1"),
    ("ok_frac", "1"),
    ("peak_rss_mb", "MB"),
];

/// Input sizes. [`Scale::FULL`] is what the benchmark reports;
/// [`Scale::SMALL`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Jobs in the service_churn trace.
    pub churn_jobs: usize,
    /// 100-job batches placed by warehouse_fill.
    pub fill_batches: usize,
    /// `(pods, racks per pod, servers per rack)` of warehouse_fill's tree.
    pub fill_tree: (usize, usize, usize),
    /// Jobs in the sim_fig9 trace.
    pub fig9_jobs: usize,
    /// Servers per rack of the 16-rack sim_fig9 cluster.
    pub fig9_servers_per_rack: usize,
    /// Servers per rack of the 16-rack cluster sim_fig9's trace is
    /// loaded against.
    pub fig9_base_servers_per_rack: usize,
}

impl Scale {
    /// The reported sizes.
    pub const FULL: Scale = Scale {
        churn_jobs: 12_000,
        fill_batches: 8,
        fill_tree: (32, 49, 32),
        fig9_jobs: 4_000,
        fig9_servers_per_rack: 64,
        fig9_base_servers_per_rack: 6,
    };
    /// Reduced sizes for the self-tests.
    pub const SMALL: Scale = Scale {
        churn_jobs: 600,
        fill_batches: 3,
        fill_tree: (4, 5, 8),
        fig9_jobs: 150,
        fig9_servers_per_rack: 4,
        fig9_base_servers_per_rack: 2,
    };
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one repetition of a workload measured. Every workload fills the
/// same fields, so the medians and checks are computed in one place.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds spent building the inputs and the program's objects.
    pub setup_s: f64,
    /// Host seconds of the replay loop, end-of-run state check excluded.
    pub wall_s: f64,
    /// Jobs carried through the workload's work (placed, or simulated to
    /// completion).
    pub jobs: u64,
    /// Milliseconds per placement call.
    pub decisions_ms: Vec<f64>,
    /// The workload's deterministic placement cost, normalized by a
    /// placement-independent reference (see [`CommCost`] and `fig9`).
    pub cost_ratio: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations refused, never placed, or unfinished.
    pub failed: u64,
    /// Fingerprint of every placement decision, in order.
    pub digest: u64,
    /// Deterministic simulated-time results, compared bit for bit between
    /// repetitions and between the traced and untraced runs.
    pub sim: Vec<Metric>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<Metric>,
    /// Human-readable notes printed with the result.
    pub notes: Vec<String>,
}

/// Run one repetition of `workload`. `full_check` adds the end-of-run
/// comparison of the warm steady state against a from-scratch estimate.
pub fn run_rep(
    workload: &str,
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
    full_check: bool,
) -> Rep {
    match workload {
        "service_churn" => churn::run(seed, scale, tracer, full_check),
        "warehouse_fill" => fill::run(seed, scale, tracer, full_check),
        "sim_fig9" => fig9::run(seed, scale, tracer, full_check),
        other => panic!("unknown workload {other}"),
    }
}

/// Result of the untraced measurement of one workload.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Every end-to-end metric, in [`END_TO_END`] order.
    pub metrics: Vec<Metric>,
    /// Operations attempted in one repetition.
    pub attempted: u64,
    /// Operations failed in one repetition.
    pub failed: u64,
    /// Output checks that failed, in any repetition.
    pub failures: Vec<String>,
    /// Human-readable notes.
    pub notes: Vec<String>,
    /// Every repetition, first one first.
    pub reps: Vec<Rep>,
}

/// Percentile of the decision-time tail, taken within each repetition
/// and reported as its median over the run's repetitions. It is printed
/// but not gated: under the host slowdowns this benchmark was built with,
/// its quartile spread over ten runs reached 0.27 of its median, more than
/// any bound allows (see the README).
pub const TAIL_PCT: f64 = 90.0;

/// Fewest repetitions a measurement makes, however short the budget.
pub const MIN_REPS: usize = 3;

/// Repeat `workload` until `seconds` have passed (at least `min_reps`
/// times) with tracing off and summarize the repetitions by their medians.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    scale: &Scale,
) -> Measured {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < seconds {
        let mut off = Tracer::new(false);
        reps.push(run_rep(workload, seed, scale, &mut off, reps.is_empty()));
    }
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("rep {i}: {f}")));
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest || !same_bits(&r.sim, &first.sim) {
            failures.push(format!(
                "rep {i} placed or simulated differently from rep 0"
            ));
        }
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let calls = first.decisions_ms.len();
    let tail_beyond = calls - ((TAIL_PCT / 100.0) * calls as f64).ceil() as usize;
    let metrics = vec![
        Metric::new("setup_s", "s", med(&|r| r.setup_s)),
        Metric::new("jobs_per_s", "1/s", med(&|r| r.jobs as f64 / r.wall_s)),
        Metric::new(
            "decision_ms_p50",
            "ms",
            med(&|r| percentile(&r.decisions_ms, 50.0)),
        ),
        Metric::new("placement_cost_ratio", "1", first.cost_ratio),
        Metric::new(
            "ok_frac",
            "1",
            (first.attempted - first.failed) as f64 / first.attempted.max(1) as f64,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    let mut notes = first.notes.clone();
    notes.push(format!(
        "{} repetitions in {:.1} s; each: {} jobs, {} placement calls, {} ops attempted, {} failed",
        reps.len(),
        start.elapsed().as_secs_f64(),
        first.jobs,
        first.decisions_ms.len(),
        first.attempted,
        first.failed
    ));
    notes.push(format!(
        "decision_ms_p{TAIL_PCT} = {} ms (not gated): median over repetitions of p{TAIL_PCT} of each one's {calls} calls ({tail_beyond} beyond it)",
        med(&|r| percentile(&r.decisions_ms, TAIL_PCT))
    ));
    for m in &first.sim {
        notes.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    Measured {
        metrics,
        attempted: first.attempted,
        failed: first.failed,
        failures,
        notes,
        reps,
    }
}

/// Result of the traced run over every workload.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric, prefixed by its workload's short name.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, summed over the traced runs.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Spans of each workload's traced repetition.
    pub spans: Vec<(&'static str, Vec<span::Span>)>,
}

/// Short metric prefix of a workload.
pub(crate) fn short_name(workload: &str) -> &'static str {
    match workload {
        "service_churn" => "churn",
        "warehouse_fill" => "fill",
        "sim_fig9" => "fig9",
        other => panic!("unknown workload {other}"),
    }
}

/// Whether span self times summing to `self_sum` account for a traced
/// repetition that took `wall` by an outside clock: within 1% of the wall
/// or 5 ms, whichever is larger. The gap is the work after the root span
/// closes (reading counters, dropping the cluster) plus clock reads.
pub fn self_times_cover(self_sum: Duration, wall: Duration) -> bool {
    let gap = (self_sum.as_secs_f64() - wall.as_secs_f64()).abs();
    gap <= (0.01 * wall.as_secs_f64()).max(0.005)
}

/// Trace every workload: untraced repetitions for `seconds / 3` each (at
/// least one) give the reference wall time, then one traced repetition
/// gives the spans and counters. Every per-layer metric belongs to one
/// workload, so all three run and the metrics carry the workload's short
/// name.
pub fn trace_all(seed: u64, seconds: f64, scale: &Scale) -> Traced {
    let mut out = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        spans: Vec::new(),
    };
    for workload in WORKLOADS {
        let plain = measure(workload, seed, seconds / 3.0, 1, scale);
        let mut tracer = Tracer::new(true);
        let started = Instant::now();
        let rep = run_rep(workload, seed, scale, &mut tracer, true);
        let traced_wall = started.elapsed();
        let prefix = short_name(workload);
        out.failures
            .extend(plain.failures.iter().map(|f| format!("{workload}: {f}")));
        out.failures.extend(
            rep.failures
                .iter()
                .map(|f| format!("{workload} traced: {f}")),
        );
        let reference = &plain.reps[0];
        if rep.digest != reference.digest || !same_bits(&rep.sim, &reference.sim) {
            out.failures.push(format!(
                "{workload}: traced and untraced runs placed or simulated differently"
            ));
        }
        let spans = tracer.spans().to_vec();
        if let Err(e) = span::check_nesting(&spans) {
            out.failures.push(format!("{workload}: {e}"));
        }
        let self_sum: Duration = span::self_times(&spans).iter().sum();
        if !self_times_cover(self_sum, traced_wall) {
            out.failures.push(format!(
                "{workload}: span self times sum to {self_sum:?}, traced wall is {traced_wall:?}"
            ));
        }
        let untraced_wall = median(&plain.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        for m in rep.layers {
            out.metrics
                .push(Metric::new(format!("{prefix}.{}", m.name), m.unit, m.value));
        }
        out.metrics.push(Metric::new(
            format!("{prefix}.decision_ms_p90"),
            "ms",
            percentile(&rep.decisions_ms, TAIL_PCT),
        ));
        out.metrics.push(Metric::new(
            format!("{prefix}.traced_wall_s"),
            "s",
            rep.wall_s,
        ));
        out.metrics.push(Metric::new(
            format!("{prefix}.tracing_overhead_ms"),
            "ms",
            (rep.wall_s - untraced_wall) * 1e3,
        ));
        out.spans.push((workload, spans));
    }
    out
}

/// Per-layer metric of the sum of a name's span self times, in ms.
pub(crate) fn self_ms(spans: &[span::Span], name: &str) -> f64 {
    let own = span::self_times(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .sum()
}

/// Total duration in ms of every span named `name`.
pub(crate) fn span_total_ms(spans: &[span::Span], name: &str) -> f64 {
    span_ms(spans, name).iter().sum()
}

/// Append `(name, unit, value)` triples as metrics.
pub(crate) fn push_metrics<const N: usize>(
    out: &mut Vec<Metric>,
    metrics: [(&str, &'static str, f64); N],
) {
    out.extend(metrics.map(|(name, unit, value)| Metric::new(name, unit, value)));
}

/// Durations in ms of every span named `name`.
pub(crate) fn span_ms(spans: &[span::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect()
}

/// Whether two metric lists hold the same names and bit-identical values.
pub fn same_bits(a: &[Metric], b: &[Metric]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.name == y.name && x.value.to_bits() == y.value.to_bits())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, each
/// metric as `{"value", "unit"}` with every digit of its value.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100] of `xs`; 0 if empty.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seed of generator `stream`, derived from the command-line seed
/// (SplitMix64 finalizer, so nearby seeds give unrelated streams).
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1)
}

/// FNV-1a accumulator for placement digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(pub(crate) u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word into the digest.
    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a placement: its workers, parameter servers and INA flag.
    pub(crate) fn placement(&mut self, job: u64, p: &netpack_placement::RunningJob) {
        self.word(job);
        for &(s, w) in p.placement.workers() {
            self.word(s.0 as u64);
            self.word(w as u64);
        }
        for s in p.placement.pses() {
            self.word(s.0 as u64);
        }
        self.word(u64::from(p.placement.ina_enabled()));
    }
}

/// The Table 3 objective of placed jobs against a placement-independent
/// reference: Σ per-iteration communication time `d / v` over distributed
/// jobs, and Σ `d / B` for the same jobs at the server line rate `B`.
/// Their ratio is 1 when every job streams at line rate; it rises as
/// placements contend for links or lose aggregation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommCost {
    /// Σ d / v in simulated seconds per iteration.
    pub(crate) comm_s: f64,
    /// Σ d / B in simulated seconds per iteration.
    pub(crate) line_rate_s: f64,
}

impl CommCost {
    /// Add one placed job under the steady state that includes it.
    pub(crate) fn add(
        &mut self,
        state: &netpack_waterfill::SteadyState,
        job: &netpack_workload::Job,
        link_gbps: f64,
    ) {
        if job.gpus > 1 {
            let d = job.gradient_gbits();
            self.comm_s += state.comm_time_s(job.id, d).unwrap_or(f64::INFINITY);
            self.line_rate_s += d / link_gbps;
        }
    }

    /// `comm_s / line_rate_s`.
    pub(crate) fn ratio(&self) -> f64 {
        self.comm_s / self.line_rate_s
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Milliseconds in a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer metrics of the placement counters a `PerfCounters` from
/// `NetPackSession` or `NetPackPlacer` holds; `placed` jobs resulted.
pub(crate) fn placement_layers(perf: &PerfCounters, placed: u64, out: &mut Vec<Metric>) {
    let timer = |n: &'static str| ms(perf.timer_total(n));
    let c = |n: &'static str| perf.counter(n) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let offered = c("dp_candidates_offered");
    for (name, unit, value) in [
        ("candidate_select_ms", "ms", timer("candidate_select")),
        ("class_build_ms", "ms", timer("class_build")),
        ("worker_dp_ms", "ms", timer("worker_dp")),
        ("ps_scoring_ms", "ms", timer("ps_scoring")),
        ("place_one_ms", "ms", timer("place_one")),
        ("plans_considered", "count", c("plans_considered")),
        ("dp_candidates_offered", "count", offered),
        (
            "dp_keep_ratio",
            "1",
            ratio(c("dp_candidates_kept"), offered),
        ),
        ("ps_candidates_scored", "count", c("ps_candidates_scored")),
        ("spec_scored", "count", c("spec_scored")),
        ("spec_conflicts", "count", c("spec_conflicts")),
        (
            "spec_useful_ratio",
            "1",
            ratio(placed as f64, c("spec_scored")),
        ),
    ] {
        out.push(Metric::new(format!("placement.{name}"), unit, value));
    }
}

/// Self time of the benchmark's own spans: the root, set-up and checks.
pub(crate) fn bench_self_ms(spans: &[span::Span]) -> f64 {
    ["bench.rep", "bench.setup", "bench.check"]
        .iter()
        .map(|n| self_ms(spans, n))
        .sum()
}

/// The water-fill estimator's counters under their `waterfill.*` names
/// (the program calls them `waterfill_*` in placement and `wf_*` in
/// flowsim).
pub(crate) fn waterfill_layers(
    resolved: u64,
    reused: u64,
    pushes: u64,
    components: u64,
    out: &mut Vec<Metric>,
) {
    let seen = resolved + reused;
    let reuse = if seen > 0 {
        reused as f64 / seen as f64
    } else {
        0.0
    };
    for (name, unit, value) in [
        ("pushes", "count", pushes as f64),
        ("jobs_resolved", "count", resolved as f64),
        ("jobs_reused", "count", reused as f64),
        ("reuse_ratio", "1", reuse),
        ("components_solved", "count", components as f64),
    ] {
        out.push(Metric::new(format!("waterfill.{name}"), unit, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
