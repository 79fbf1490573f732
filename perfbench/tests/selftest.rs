//! Self-tests of the benchmark at reduced size: every metric named in
//! `BENCHMARK.json` prints with its unit, simulated-time results repeat
//! exactly and follow the seed, and spans nest and account for the traced
//! wall time.

use netpack_perfbench::span::{check_nesting, self_times, Tracer};
use netpack_perfbench::{
    measure, result_line, run_rep, same_bits, self_times_cover, trace_all, Scale, END_TO_END,
    WORKLOADS,
};
use std::time::{Duration, Instant};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which holds one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find("\n  ]").expect("section closes")];
    let field = |line: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        let from = line.find(&pat)? + pat.len();
        let len = line[from..].find('"')?;
        Some(line[from..from + len].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    let declared = declared("end_to_end");
    let ours: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(declared, ours);
    for workload in WORKLOADS {
        let m = measure(workload, 3, 0.0, 1, &Scale::SMALL);
        assert!(m.failures.is_empty(), "{workload}: {:?}", m.failures);
        let line = result_line(true, m.attempted, m.failed, &m.metrics);
        for (m, (name, unit)) in m.metrics.iter().zip(&declared) {
            assert_eq!((&m.name, m.unit), (name, unit.as_str()));
            assert!(
                m.value.is_finite() && m.value != 0.0,
                "{workload} {name} = {}",
                m.value
            );
            let printed = format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", m.value);
            assert!(
                line.contains(&printed),
                "{workload}: {printed} missing from {line}"
            );
        }
    }
}

#[test]
fn every_per_layer_metric_prints_with_its_unit_and_checks_pass() {
    let t = trace_all(3, 0.0, &Scale::SMALL);
    assert!(t.failures.is_empty(), "{:?}", t.failures);
    let ours: Vec<(String, String)> = t
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(ours, declared("per_layer"));
    let line = result_line(true, t.attempted, t.failed, &t.metrics);
    for m in &t.metrics {
        assert!(line.contains(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        )));
    }
}

#[test]
fn sim_time_results_repeat_exactly_and_follow_the_seed() {
    for workload in WORKLOADS {
        let rep = |seed| run_rep(workload, seed, &Scale::SMALL, &mut Tracer::new(false), true);
        let (a, b, c) = (rep(5), rep(5), rep(6));
        assert!(a.failures.is_empty(), "{workload}: {:?}", a.failures);
        assert!(
            same_bits(&a.sim, &b.sim),
            "{workload}: {:?} vs {:?}",
            a.sim,
            b.sim
        );
        assert_eq!(a.digest, b.digest, "{workload}");
        assert_eq!(a.cost_ratio.to_bits(), b.cost_ratio.to_bits(), "{workload}");
        assert!(
            !same_bits(&a.sim, &c.sim),
            "{workload}: seed did not change the results"
        );
        assert_ne!(a.digest, c.digest, "{workload}");
    }
}

#[test]
fn spans_nest_and_self_times_sum_to_the_traced_wall() {
    for workload in WORKLOADS {
        let mut tracer = Tracer::new(true);
        let started = Instant::now();
        let rep = run_rep(workload, 4, &Scale::SMALL, &mut tracer, true);
        let wall = started.elapsed();
        assert!(rep.failures.is_empty(), "{workload}: {:?}", rep.failures);
        let spans = tracer.spans();
        assert!(spans.len() > 3, "{workload}: only {} spans", spans.len());
        assert_eq!(
            spans.iter().filter(|s| s.parent.is_none()).count(),
            1,
            "{workload}: one root"
        );
        check_nesting(spans).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let total: Duration = self_times(spans).iter().sum();
        assert_eq!(
            total,
            spans[0].duration(),
            "{workload}: self times telescope to the root"
        );
        assert!(
            self_times_cover(total, wall),
            "{workload}: {total:?} of {wall:?}"
        );
    }
}
