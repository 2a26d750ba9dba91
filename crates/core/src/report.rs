//! Rendering experiment results as aligned text tables.
//!
//! The bench binaries print through these helpers so the formatting is
//! tested library code rather than ad-hoc `println!` strings, and so
//! downstream users can embed the same tables in their own reports.

use crate::experiment::{Table1Row, Table2Entry};
use std::fmt::Write as _;

/// Formats an optional Lipschitz constant the way Table I does ("-" for
/// the composite controllers).
pub fn fmt_lipschitz(l: Option<f64>) -> String {
    match l {
        Some(v) => format!("{v:.1}"),
        None => "-".to_owned(),
    }
}

/// Formats a possibly-NaN energy value ("n/a" when no safe trajectory
/// existed to average over).
pub fn fmt_energy(e: f64) -> String {
    if e.is_nan() {
        "n/a".to_owned()
    } else {
        format!("{e:.1}")
    }
}

/// Renders Table I rows as an aligned plain-text table.
///
/// # Examples
///
/// ```
/// use cocktail_core::experiment::Table1Row;
/// use cocktail_core::report::render_table1_text;
///
/// let rows = vec![Table1Row {
///     controller: "kappa1".into(),
///     safe_rate_percent: 85.0,
///     energy: 94.1,
///     lipschitz: Some(35.4),
/// }];
/// let out = render_table1_text(&rows);
/// assert!(out.contains("kappa1") && out.contains("85.0") && out.contains("35.4"));
/// ```
pub fn render_table1_text(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>8}",
        "controller", "S_r (%)", "e", "L"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>8.1} {:>10} {:>8}",
            row.controller,
            row.safe_rate_percent,
            fmt_energy(row.energy),
            fmt_lipschitz(row.lipschitz),
        );
    }
    out
}

/// Renders Table II entries as an aligned plain-text table.
pub fn render_table2_text(entries: &[Table2Entry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>8} {:>10}",
        "controller", "threat", "S_r (%)", "e"
    );
    for e in entries {
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>8.1} {:>10}",
            e.controller,
            e.threat,
            e.safe_rate_percent,
            fmt_energy(e.energy),
        );
    }
    out
}

/// Renders an aggregated telemetry stream ([`cocktail_obs::summarize`])
/// as an aligned plain-text report: spans with completion counts and
/// total wall-clock time, then counter totals, then histogram ranges.
///
/// # Examples
///
/// ```
/// use cocktail_core::report::render_telemetry_summary;
/// use cocktail_obs::{summarize, Event, EventKind};
///
/// let events = vec![Event::counter("ppo.iterations", 3)];
/// let out = render_telemetry_summary(&summarize(&events));
/// assert!(out.contains("ppo.iterations") && out.contains('3'));
/// ```
pub fn render_telemetry_summary(summary: &cocktail_obs::StreamSummary) -> String {
    let mut out = String::new();
    if !summary.spans.is_empty() {
        let _ = writeln!(out, "{:<28} {:>6} {:>12}", "span", "count", "total ms");
        for (name, count, total_us) in &summary.spans {
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>12.1}",
                name,
                count,
                *total_us as f64 / 1000.0
            );
        }
    }
    if !summary.counters.is_empty() {
        if !out.is_empty() {
            let _ = writeln!(out, "---");
        }
        let _ = writeln!(out, "{:<28} {:>10}", "counter", "total");
        for (name, total) in &summary.counters {
            let _ = writeln!(out, "{name:<28} {total:>10}");
        }
    }
    if !summary.histograms.is_empty() {
        if !out.is_empty() {
            let _ = writeln!(out, "---");
        }
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>12} {:>12}",
            "histogram", "count", "min", "max"
        );
        for (name, count, lo, hi) in &summary.histograms {
            let _ = writeln!(out, "{name:<28} {count:>6} {lo:>12.4} {hi:>12.4}");
        }
    }
    if summary.points > 0 {
        if !out.is_empty() {
            let _ = writeln!(out, "---");
        }
        let _ = writeln!(out, "point events: {}", summary.points);
    }
    if out.is_empty() {
        out.push_str("no telemetry recorded\n");
    }
    out
}

/// Renders a normalized signal series as a Unicode sparkline (Fig. 2's
/// terminal form). Values are clamped into `[-1, 1]`.
pub fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 7] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇'];
    series
        .iter()
        .map(|&v| {
            let t = ((v + 1.0) / 2.0).clamp(0.0, 1.0);
            GLYPHS[(t * (GLYPHS.len() - 1) as f64).round() as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Table1Row> {
        vec![
            Table1Row {
                controller: "A_S".into(),
                safe_rate_percent: 88.4,
                energy: 94.2,
                lipschitz: None,
            },
            Table1Row {
                controller: "kappa_star".into(),
                safe_rate_percent: 98.8,
                energy: 86.2,
                lipschitz: Some(7.6),
            },
        ]
    }

    #[test]
    fn text_table_has_dash_for_composites() {
        let out = render_table1_text(&rows());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].trim_end().ends_with('-'));
        assert!(lines[2].contains("7.6"));
    }

    #[test]
    fn energy_nan_renders_na() {
        assert_eq!(fmt_energy(f64::NAN), "n/a");
        assert_eq!(fmt_energy(12.34), "12.3");
    }

    #[test]
    fn table2_text_renders_all_entries() {
        let entries = vec![Table2Entry {
            controller: "kappa_D".into(),
            threat: "adversarial".into(),
            safe_rate_percent: 95.2,
            energy: 837.3,
        }];
        let out = render_table2_text(&entries);
        assert!(out.contains("kappa_D") && out.contains("adversarial") && out.contains("837.3"));
    }

    #[test]
    fn telemetry_summary_renders_all_sections() {
        use cocktail_obs::{summarize, Event, EventKind};
        let mut span_end = Event::new(EventKind::SpanEnd, "pipeline/ppo-mixing");
        span_end.duration_us = Some(2500);
        let events = vec![
            span_end,
            Event::counter("ppo.iterations", 4),
            Event::histogram("ppo.mean_return", -3.25),
            Event::point("ppo.iteration"),
        ];
        let out = render_telemetry_summary(&summarize(&events));
        assert!(out.contains("pipeline/ppo-mixing"), "{out}");
        assert!(out.contains("2.5"), "span total in ms: {out}");
        assert!(out.contains("ppo.iterations"), "{out}");
        assert!(out.contains("-3.2500"), "{out}");
        assert!(out.contains("point events: 1"), "{out}");
        assert_eq!(
            render_telemetry_summary(&summarize(&[])),
            "no telemetry recorded\n"
        );
    }

    #[test]
    fn sparkline_spans_glyph_range() {
        let s = sparkline(&[-1.0, 0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '▄');
        assert_eq!(chars[2], '▇');
        // out-of-range values clamp instead of panicking
        assert_eq!(sparkline(&[5.0]), "▇");
    }
}
