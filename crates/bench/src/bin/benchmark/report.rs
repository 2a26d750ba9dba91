//! Result files and the `--compare` verdicts.

use crate::stats::Summary;
use serde::{Number, Value};
use std::path::Path;

/// The host a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Describes this host and the checkout in the working directory.
    pub fn current() -> Host {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: read("/proc/cpuinfo")
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// As a JSON object.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("nproc", num(self.nproc as f64)),
            ("cpu_model", Value::Str(self.cpu_model.clone())),
            ("kernel", Value::Str(self.kernel.clone())),
            ("commit", Value::Str(self.commit.clone())),
        ])
    }
}

/// The commit `HEAD` names, read from the git directory without running
/// git: a detached hash, a loose ref, or a packed ref.
pub fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
}

/// A JSON number.
pub fn num(v: f64) -> Value {
    Value::Num(Number::F(v))
}

/// A JSON object from ordered pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A metric measured in repeats: its reported value (the median) and the
/// order statistics of its repeats.
pub fn metric_value(unit: &str, s: &Summary) -> Value {
    obj(vec![
        ("value", num(s.median)),
        ("unit", Value::Str(unit.to_string())),
        ("min", num(s.min)),
        ("q1", num(s.q1)),
        ("median", num(s.median)),
        ("q3", num(s.q3)),
        ("max", num(s.max)),
        ("n", num(s.n as f64)),
    ])
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// How a metric moved from one result to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// One side's repeats spread wider than the bound, so a move of the
    /// bound's size could be noise.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest repeats whose quartiles say anything about spread: with three
/// or fewer, Python's exclusive method puts the quartiles on (or beyond)
/// the extremes.
pub const MIN_REPEATS: usize = 4;

/// One side of a comparison: the median of a metric's repeats, how widely
/// they spread, and how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median of the repeats.
    pub median: f64,
    /// Quartile range of the repeats ÷ the median.
    pub spread: f64,
    /// Number of repeats.
    pub n: usize,
}

/// The verdict on `b` against baseline `a`, for a metric where lower (or
/// higher) is better, with regression bound `bound` (a share of `a`'s
/// median). Unresolved when either side has fewer than [`MIN_REPEATS`]
/// repeats or spreads wider than the bound, since a move of the bound's
/// size could then be noise.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let resolved = |s: Side| s.n >= MIN_REPEATS && s.spread <= bound;
    if !resolved(a) || !resolved(b) || a.median == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Direction and bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    field(benchmark, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = text(m, "name").ok_or("metric without a name")?;
            let better = text(m, "better").ok_or("metric without `better`")?;
            let bound = field(m, "bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// The comparison side of `metric` in `result`, with its quartiles.
fn side_of(result: &Value, workload: &str, metric: &str) -> Option<(Side, f64, f64)> {
    let m = field(field(field(result, "workloads")?, workload)?, "repeated")?;
    let m = field(m, metric)?;
    let get = |k| field(m, k).and_then(Value::as_f64);
    let (median, q1, q3, n) = (get("median")?, get("q1")?, get("q3")?, get("n")?);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / median.abs()
    };
    let side = Side {
        median,
        spread,
        n: n as usize,
    };
    Some((side, q1, q3))
}

/// Compares result `b` against baseline `a` under the bounds of
/// `benchmark`. Returns the printed table and whether any pair came out
/// worse or unresolved.
///
/// # Errors
///
/// Refuses results from hosts with another CPU model or core count.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<(String, bool), String> {
    let host = |r: &Value| {
        let h = field(r, "host")?;
        Some((
            field(h, "nproc")?.as_f64()?,
            text(h, "cpu_model")?.to_string(),
        ))
    };
    let (ha, hb) = (
        host(a).ok_or("first result has no host")?,
        host(b).ok_or("second result has no host")?,
    );
    if ha != hb {
        return Err(format!(
            "refusing to compare results from different hosts: {} cores of {} vs {} cores of {}",
            ha.0, ha.1, hb.0, hb.1
        ));
    }
    let bounds = bounds(benchmark)?;
    let workloads: Vec<String> = field(a, "workloads")
        .and_then(Value::as_map)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    let mut out = format!(
        "{:<16} {:<15} {:>14} {:>25} {:>3} {:>14} {:>25} {:>3} {:>6}  {}\n",
        "workload",
        "metric",
        "median a",
        "q1..q3 a",
        "n",
        "median b",
        "q1..q3 b",
        "n",
        "bound",
        "verdict"
    );
    let mut flagged = false;
    for w in &workloads {
        for (metric, lower, bound) in &bounds {
            let sides = (side_of(a, w, metric), side_of(b, w, metric));
            let (Some(sa), Some(sb)) = sides else {
                out.push_str(&format!("{w:<16} {metric:<15} missing from one result\n"));
                flagged = true;
                continue;
            };
            let v = verdict(sa.0, sb.0, *lower, *bound);
            flagged |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            out.push_str(&format!(
                "{w:<16} {metric:<15} {:>14.6} {:>25} {:>3} {:>14.6} {:>25} {:>3} {:>6.2}  {}\n",
                sa.0.median,
                format!("{:.6}..{:.6}", sa.1, sa.2),
                sa.0.n,
                sb.0.median,
                format!("{:.6}..{:.6}", sb.1, sb.2),
                sb.0.n,
                bound,
                v.label()
            ));
        }
    }
    Ok((out, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Side {
        Side {
            median,
            spread,
            n: 9,
        }
    }

    #[test]
    fn verdicts_apply_direction_bound_and_spread() {
        let a = side(100.0, 0.04);
        // lower is better: +20 % is worse, -20 % improved, +5 % unchanged
        assert_eq!(verdict(a, side(120.0, 0.02), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(a, side(80.0, 0.02), true, 0.1), Verdict::Improved);
        assert_eq!(verdict(a, side(105.0, 0.02), true, 0.1), Verdict::Unchanged);
        // higher is better flips the sign
        assert_eq!(verdict(a, side(120.0, 0.02), false, 0.1), Verdict::Improved);
        assert_eq!(verdict(a, side(80.0, 0.02), false, 0.1), Verdict::Worse);
        // repeats spread wider than the bound on either side
        assert_eq!(verdict(a, side(100.0, 0.4), true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(side(100.0, 0.4), a, true, 0.1), Verdict::Unresolved);
        // too few repeats to have quartiles, however tight they look
        let few = Side { n: 3, ..a };
        assert_eq!(verdict(few, a, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(a, few, true, 0.1), Verdict::Unresolved);
    }

    fn result_of(nproc: f64, values: &[f64]) -> Value {
        let stats = Summary::of(values).expect("non-empty");
        obj(vec![
            (
                "host",
                obj(vec![
                    ("nproc", num(nproc)),
                    ("cpu_model", Value::Str("X".into())),
                ]),
            ),
            (
                "workloads",
                obj(vec![(
                    "serve-closed",
                    obj(vec![(
                        "repeated",
                        obj(vec![("p50_us", metric_value("us", &stats))]),
                    )]),
                )]),
            ),
        ])
    }

    fn benchmark() -> Value {
        serde_json::from_str(
            r#"{"end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("fixture parses")
    }

    fn run(a: &[f64], b: &[f64]) -> (String, bool) {
        compare(&result_of(2.0, a), &result_of(2.0, b), &benchmark()).expect("same host")
    }

    #[test]
    fn compare_judges_medians_against_quartile_spread() {
        let steady = [30.0, 30.2, 30.1, 29.9, 30.0];
        let (table, flagged) = run(&steady, &[31.0, 31.1, 30.9, 31.0, 31.2]);
        assert!(!flagged && table.contains("unchanged"), "{table}");
        let (table, flagged) = run(&steady, &[40.0, 40.2, 39.9, 40.1, 40.0]);
        assert!(flagged && table.contains("worse"), "{table}");
        // quartiles 20..40 around a median of 30: wider than the bound
        let (table, flagged) = run(&steady, &[20.0, 20.0, 30.0, 40.0, 40.0]);
        assert!(flagged && table.contains("unresolved"), "{table}");
        // three repeats: unresolved even when they agree closely
        let (table, flagged) = run(&steady, &[30.0, 30.1, 30.2]);
        assert!(flagged && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn compare_refuses_other_hosts() {
        let v = [30.0, 30.0, 30.0, 30.0];
        assert!(compare(&result_of(2.0, &v), &result_of(4.0, &v), &benchmark()).is_err());
    }

    #[test]
    fn reads_commits_from_git_files() {
        let dir = std::env::temp_dir().join(format!("benchmark-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).expect("temp dir");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("write");
        std::fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").expect("write");
        assert_eq!(git_commit(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(git_commit(&dir), None);
    }
}
