//! The repository benchmark: four workloads over the real request path,
//! admission, rollout and the offline pipeline, with per-layer numbers
//! measured from outside the program. See README.md next to this file.
//!
//! ```text
//! benchmark --workload <serve-closed|serve-pipelined|rollout|pipeline|all>
//!           --seed <n> [--seconds <s>] [--trace <0|1>] [--out <file>]
//! benchmark --compare <a.json> <b.json>
//! ```

mod client;
mod metrics;
mod prepare;
mod probes;
mod procfs;
mod report;
mod sink;
mod stats;
mod trace;
mod workloads;

use report::{metric_value, num, obj, Host};
use serde::Value;
use stats::Summary;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Pass, Settings};

/// Measured seconds per run unless `--seconds` says otherwise; matches
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where runs keep their working files: `benchmark/` in the cargo target
/// directory, so that a run writes only inside the checkout it builds.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    "usage: benchmark --workload <serve-closed|serve-pipelined|rollout|pipeline|all> --seed <n> \
     [--seconds <s>] [--trace <0|1>] [--out <file>]\n       \
     benchmark --compare <a.json> <b.json>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: workloads::NAMES.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                parsed.workloads = match w.as_str() {
                    "all" => workloads::NAMES.to_vec(),
                    _ => vec![*workloads::NAMES
                        .iter()
                        .find(|n| **n == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?],
                };
            }
            "--seed" => {
                parsed.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => parsed.out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                parsed.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// What one workload reports.
struct Outcome {
    name: &'static str,
    /// Metrics measured once per repeat, from the untraced pass.
    repeated: BTreeMap<&'static str, Summary>,
    layer: BTreeMap<&'static str, f64>,
    extras: BTreeMap<String, f64>,
    self_ms: BTreeMap<String, (u64, f64, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    traced: bool,
}

impl Outcome {
    /// The metrics the result line carries: every end-to-end metric
    /// untraced, every per-layer metric traced (a metric measured in
    /// repeats reports their median). A missing or non-finite one is a
    /// problem.
    fn reported(&mut self) -> Vec<(&'static str, &'static str, f64)> {
        let list: &[(&'static str, &'static str)] = if self.traced {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        let mut out = Vec::new();
        for &(name, unit) in list {
            let v = self
                .layer
                .get(name)
                .copied()
                .filter(|_| self.traced)
                .or_else(|| self.repeated.get(name).map(|s| s.median));
            match v {
                Some(v) if v.is_finite() => out.push((name, unit, v)),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        out
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `workload` untraced, and with `traced` a second time with spans
/// and telemetry on, followed by the layer probes.
fn run_workload(
    name: &'static str,
    st: &Settings,
    traced: bool,
    work: &Path,
) -> (Outcome, Vec<trace::SpanRec>) {
    let base = workloads::run(name, st, work, false, &Tracer::new(false));
    let mut outcome = Outcome {
        name,
        repeated: base.repeated.clone(),
        layer: base.layer.clone(),
        extras: base.extras.clone(),
        self_ms: BTreeMap::new(),
        attempted: base.attempted,
        failed: base.failed,
        problems: base.problems.clone(),
        traced,
    };
    if !traced {
        return (outcome, Vec::new());
    }
    let tracer = Tracer::new(true);
    let t = workloads::run(name, st, work, true, &tracer);
    traced_layers(name, st, &base, &t, &tracer, &mut outcome);
    let spans = tracer.spans();
    outcome.self_ms = trace::self_times(&spans)
        .into_iter()
        .map(|(k, (n, total, own))| (k, (n, total as f64 / 1e6, own as f64 / 1e6)))
        .collect();
    (outcome, spans)
}

/// Folds the traced pass and the probes into `outcome`: per-layer numbers
/// the untraced pass measured stay (tracing perturbs them); the rest come
/// from the traced pass and the probes.
fn traced_layers(
    name: &str,
    st: &Settings,
    base: &Pass,
    t: &Pass,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    outcome.attempted += t.attempted;
    outcome.failed += t.failed;
    outcome
        .problems
        .extend(t.problems.iter().map(|p| format!("traced pass: {p}")));
    for (k, v) in &t.layer {
        outcome.layer.entry(k).or_insert(*v);
    }
    for (m, s) in &t.repeated {
        if let (Some(b), Some(name)) = (base.repeated.get(m), overhead_name(m)) {
            outcome.layer.insert(name, s.median / b.median);
        }
    }
    let (Some(bundle), Some(pool)) = (&t.bundle, &t.pool) else {
        outcome
            .problems
            .push("the traced pass served no bundle to probe".into());
        return;
    };
    let mut probe = || -> Result<(), String> {
        outcome.layer.extend(probes::wire(pool, tracer));
        let batch = outcome
            .layer
            .get("engine.batch_mean")
            .copied()
            .unwrap_or(1.0);
        outcome.layer.extend(probes::forward(
            bundle,
            pool,
            batch.round() as usize,
            tracer,
        )?);
        let (phases, admitted) = probes::admission(bundle, tracer)?;
        outcome.layer.extend(phases);
        outcome.layer.extend(probes::verify(bundle, tracer)?);
        let concurrency = match name {
            "serve-pipelined" | "rollout" => 1,
            _ => st.connections,
        };
        let (p50, p99, sent, bad) =
            probes::inproc(&admitted, pool, concurrency, st.repeat_s, tracer)?;
        outcome.attempted += sent;
        if bad > 0 {
            outcome.failed += bad;
            outcome
                .problems
                .push(format!("{bad} in-process replies wrong"));
        }
        outcome.layer.insert("engine.inproc_p50_us", p50);
        outcome.layer.insert("engine.inproc_p99_us", p99);
        if let Some(e2e) = base.repeated.get("p50_us") {
            outcome
                .layer
                .insert("transport.overhead_us", e2e.median - p50);
        }
        Ok(())
    };
    if let Err(e) = probe() {
        outcome.failed += 1;
        outcome.problems.push(format!("probe: {e}"));
    }
}

/// The per-layer `trace.overhead.<metric>` name of an end-to-end metric.
fn overhead_name(metric: &str) -> Option<&'static str> {
    metrics::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix("trace.overhead.") == Some(metric))
}

fn unit_value(name: &str) -> Value {
    Value::Str(metrics::unit_of(name).unwrap_or("?").to_string())
}

/// The result file: host, settings, and every workload's numbers.
fn result_value(host: &Host, st: &Settings, outcomes: &[Outcome]) -> Value {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let repeated = o
                .repeated
                .iter()
                .map(|(k, s)| {
                    let unit = metrics::unit_of(k).unwrap_or("?");
                    (k.to_string(), metric_value(unit, s))
                })
                .collect();
            let layer = o
                .layer
                .iter()
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        obj(vec![("value", num(*v)), ("unit", unit_value(k))]),
                    )
                })
                .collect();
            let extras = o.extras.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
            let self_ms = o
                .self_ms
                .iter()
                .map(|(k, (n, total, own))| {
                    (
                        k.clone(),
                        obj(vec![
                            ("count", num(*n as f64)),
                            ("total_ms", num(*total)),
                            ("self_ms", num(*own)),
                        ]),
                    )
                })
                .collect();
            let problems = o.problems.iter().map(|p| Value::Str(p.clone())).collect();
            (
                o.name.to_string(),
                obj(vec![
                    ("correct", Value::Bool(o.correct())),
                    ("attempted", num(o.attempted as f64)),
                    ("failed", num(o.failed as f64)),
                    (
                        "error_rate",
                        num(o.failed as f64 / o.attempted.max(1) as f64),
                    ),
                    ("problems", Value::Seq(problems)),
                    ("repeated", Value::Map(repeated)),
                    ("per_layer", Value::Map(layer)),
                    ("extras", Value::Map(extras)),
                    ("self_time", Value::Map(self_ms)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("host", host.to_value()),
        ("seed", num(st.seed as f64)),
        ("seconds", num(st.seconds)),
        ("traced", Value::Bool(outcomes.iter().any(|o| o.traced))),
        ("workloads", Value::Map(workloads)),
    ])
}

/// Human-readable lines for one workload.
fn print_table(o: &Outcome) {
    println!("== {} ==", o.name);
    for (k, s) in &o.repeated {
        println!(
            "  {k:<30} {:>14.4} {:<9} q1 {:.4} q3 {:.4} n {}",
            s.median,
            metrics::unit_of(k).unwrap_or(""),
            s.q1,
            s.q3,
            s.n
        );
    }
    for (k, v) in &o.layer {
        println!("  {k:<30} {v:>14.4} {}", metrics::unit_of(k).unwrap_or(""));
    }
    for (k, v) in &o.extras {
        println!("  {k:<30} {v:>14.4}");
    }
    for (k, (n, total, own)) in &o.self_ms {
        println!("  self {k:<25} {own:>12.3} ms of {total:.3} ms over {n}");
    }
    println!(
        "  attempted {} failed {} error_rate {:.6}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for p in &o.problems {
        println!("  PROBLEM: {p}");
    }
}

fn write_spans(path: &Path, name: &str, spans: &[trace::SpanRec]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"workload\":\"{name}\",\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

/// Removes a run's working directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn compare_mode(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Value, String> {
        let t = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&t).map_err(|e| format!("{}: {e}", p.display()))
    };
    let run = || -> Result<(String, bool), String> {
        report::compare(&load(a)?, &load(b)?, &load(Path::new("BENCHMARK.json"))?)
    };
    match run() {
        Ok((table, flagged)) => {
            print!("{table}");
            if flagged {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_mode(a, b);
    }
    let host = Host::current();
    let st = Settings::full(args.seed, args.seconds);
    let work = WorkDir(work_root().join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("creating {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let mut outcomes = Vec::new();
    for name in &args.workloads {
        let (outcome, spans) = run_workload(name, &st, args.traced, &work.0);
        if args.traced {
            let path = match &args.out {
                Some(out) => PathBuf::from(format!("{}.{name}.spans.jsonl", out.display())),
                None => work_root().join(format!("spans-{name}-seed{}.jsonl", args.seed)),
            };
            if let Err(e) = write_spans(&path, name, &spans) {
                eprintln!("writing spans to {}: {e}", path.display());
            }
        }
        print_table(&outcome);
        outcomes.push(outcome);
    }
    // the result line: one workload's metrics, or every workload's under
    // `<workload>/<metric>` names
    let single = outcomes.len() == 1;
    let mut metrics_json = Vec::new();
    for o in &mut outcomes {
        for (name, unit, v) in o.reported() {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", o.name)
            };
            metrics_json.push((
                key,
                obj(vec![("value", num(v)), ("unit", Value::Str(unit.into()))]),
            ));
        }
    }
    if let Some(out) = &args.out {
        let text =
            serde_json::to_string_pretty(&result_value(&host, &st, &outcomes)).unwrap_or_default();
        if let Err(e) = std::fs::write(out, text + "\n") {
            eprintln!("writing {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    let correct = outcomes.iter().all(Outcome::correct);
    let count = |f: fn(&Outcome) -> u64| Value::Num(serde::Number::U(outcomes.iter().map(f).sum()));
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", count(|o| o.attempted)),
        ("failed", count(|o| o.failed)),
        ("metrics", Value::Map(metrics_json)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(name: &str) -> WorkDir {
        let dir = std::env::temp_dir().join(format!("benchmark-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        WorkDir(dir)
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload rollout --seed 9 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!(args.workloads, vec!["rollout"]);
        assert_eq!((args.seed, args.seconds, args.traced), (9, 12.0, true));
        let bad =
            |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>()).is_err();
        assert!(bad("--workload nope"));
        assert!(bad("--trace 2"));
        assert!(bad("--seconds 0"));
        assert!(bad("--seed"));
    }

    /// Every workload at toy size, traced: every metric `BENCHMARK.json`
    /// names is emitted, finite, and nothing failed.
    #[test]
    fn toy_workloads_emit_every_metric_without_errors() {
        let work = work_dir("toy");
        for name in workloads::NAMES {
            let (mut outcome, spans) = run_workload(name, &Settings::toy(7), true, &work.0);
            assert!(!spans.is_empty(), "{name}: traced run records spans");
            for (metric, _) in metrics::END_TO_END {
                let s = outcome.repeated.get(metric);
                assert!(
                    s.is_some_and(|s| s.median.is_finite()),
                    "{name}: {metric} missing"
                );
            }
            assert_eq!(outcome.reported().len(), metrics::PER_LAYER.len(), "{name}");
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0, "{name}: error rate must be 0");
            assert!(outcome.attempted > 0);
        }
    }
}
