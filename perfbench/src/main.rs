//! Benchmark command: `perfbench --workload <name|all> --seed <n>
//! --seconds <s> --trace <0|1>`, run from the repository root.
//!
//! With `--trace 0` it measures the named workload untraced for the given
//! time and prints every end-to-end metric. With `--trace 1` it runs every
//! workload once traced (after untraced reference runs), prints every
//! per-layer metric and writes the spans under `perfbench/out/`. The last
//! stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 1 when any output check failed, 2 on bad arguments.

use netpack_perfbench::{
    json_str, measure, result_line, span, trace_all, Metric, Scale, END_TO_END, MIN_REPS, WORKLOADS,
};
use std::process::ExitCode;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![WORKLOADS
            .into_iter()
            .find(|w| *w == workload)
            .ok_or_else(|| format!("unknown workload {workload}; one of {WORKLOADS:?} or all"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Commit of the checkout, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn meta_line(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("NETPACK_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "# meta {{\"available_parallelism\":{cores},\"placer_workers\":{},\"git_revision\":{},\"profile\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":[{}],\"netpack_env\":{{{}}}}}",
        netpack_metrics::sweep_threads(),
        json_str(&git_revision()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workloads.iter().map(|w| json_str(w)).collect::<Vec<_>>().join(","),
        env.join(",")
    )
}

/// Values JSON cannot carry fail the run rather than print.
fn finite(metrics: &[Metric], failures: &mut Vec<String>) {
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        failures.push(format!("{} is {}", m.name, m.value));
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", meta_line(&args));
    let mut ok = true;
    if args.trace {
        let mut t = trace_all(args.seed, args.seconds, &Scale::FULL);
        let dir = std::path::Path::new("perfbench/out");
        for (workload, spans) in &t.spans {
            let path = dir.join(format!("spans-{workload}-seed{}.csv", args.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, span::to_csv(spans)));
            match written {
                Ok(()) => println!(
                    "# {} spans of {workload} written to {}",
                    spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        }
        for m in &t.metrics {
            println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        finite(&t.metrics, &mut t.failures);
        for f in &t.failures {
            println!("CHECK FAILED: {f}");
        }
        ok &= t.failures.is_empty();
        println!("{}", result_line(ok, t.attempted, t.failed, &t.metrics));
    } else {
        for workload in &args.workloads {
            let mut m = measure(workload, args.seed, args.seconds, MIN_REPS, &Scale::FULL);
            println!("== {workload}");
            for note in &m.notes {
                println!("# {note}");
            }
            debug_assert!(m
                .metrics
                .iter()
                .map(|x| x.name.as_str())
                .eq(END_TO_END.iter().map(|e| e.0)));
            for x in &m.metrics {
                println!("{:<20} {:>16.6} {}", x.name, x.value, x.unit);
            }
            finite(&m.metrics, &mut m.failures);
            for f in &m.failures {
                println!("CHECK FAILED: {f}");
            }
            ok &= m.failures.is_empty();
            println!(
                "{}",
                result_line(m.failures.is_empty(), m.attempted, m.failed, &m.metrics)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
