//! Metric names, units and the one-line JSON result.

/// End-to-end metrics, printed by every untraced run, with their units.
/// The medians of request and first-answer latency are printed on `#`
/// lines instead: on a host that switches between two speed modes they
/// sit between the modes and swung by 30% across seeds (see NOTES.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("first_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The nine Figure-1 class pairs as they appear in metric names.
pub const PAIR_NAMES: [&str; 9] = [
    "cq_cq",
    "cq_crpq",
    "crpq_cq",
    "cq_crpqfin",
    "crpqfin_cq",
    "crpq_crpqfin",
    "crpqfin_crpq",
    "crpqfin_crpqfin",
    "crpq_crpq",
];

/// Semantics as they appear in metric names, in `Semantics::ALL` order.
pub const SEM_NAMES: [&str; 3] = ["st", "ainj", "qinj"];

/// Per-layer metrics, printed by every traced run, with their units. A
/// layer a workload does not reach reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("query.parse_us", "us"),
        ("query.variants", "count"),
        ("query.variants_us", "us"),
        ("automata.compile_us", "us"),
        ("catalog.hits", "count"),
        ("catalog.misses", "count"),
        ("catalog.evictions", "count"),
        ("catalog.relation_mb", "MB"),
        ("catalog.scratch_kb", "KB"),
        ("rpq.materialise_ms", "ms"),
        ("rpq.materialise_share", "ratio"),
        ("eval.join_ms.st", "ms"),
        ("eval.join_ms.ainj", "ms"),
        ("eval.join_ms.qinj", "ms"),
        ("eval.tuples", "count"),
        ("wal.append_ms", "ms"),
        ("wal.fsync_ms", "ms"),
        ("wal.fsyncs", "count"),
        ("wal.bytes_per_mutation", "B"),
        ("wal.write_ms_p50", "ms"),
        ("wal.write_ms_p90", "ms"),
        ("wal.recover_ms", "ms"),
        ("wal.replayed", "count"),
        ("delta.compactions", "count"),
        ("delta.compact_ms", "ms"),
        ("delta.overlay_edges", "count"),
        ("delta.delete_hit_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for pair in PAIR_NAMES {
        m.push((format!("contain.decide_ms.{pair}"), "ms"));
    }
    for sem in SEM_NAMES {
        m.push((format!("contain.decide_ms.{sem}"), "ms"));
    }
    for verdict in ["contained", "not_contained", "inconclusive"] {
        m.push((format!("contain.verdicts.{verdict}"), "count"));
    }
    m.extend(
        [
            ("query.expansions", "count"),
            ("host.ref_ms", "ms"),
            ("trace.request_ms", "ms"),
            ("trace.untraced_request_ms", "ms"),
            ("trace.overhead_ms", "ms"),
            ("trace.unattributed_ms", "ms"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    m
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Every metric of `spec`
/// must have a finite value in `values`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    spec: &[(String, &str)],
    values: &std::collections::BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        if !valid_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// A finite float as a JSON number with all its digits.
fn json_number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec = include_str!("../../BENCHMARK.json");
        let all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &all {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 4;
        assert_eq!(spec.matches("\"name\": ").count(), all.len() + workloads);
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        for good in [
            "setup_s",
            "contain.decide_ms.crpq_crpq",
            "a",
            "9-x",
            "eval.join_ms.st",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "a b",
            "ms/s",
            "a{b}",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_json_shape() {
        let spec = vec![("latency_ms".to_string(), "ms"), ("n".to_string(), "count")];
        let mut values = BTreeMap::new();
        values.insert("latency_ms".to_string(), 1.25);
        values.insert("n".to_string(), 3.0);
        let line = result_json(true, 10, 0, &spec, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        values.remove("n");
        assert!(result_json(true, 1, 0, &spec, &values).is_err());
        values.insert("n".to_string(), f64::NAN);
        assert!(result_json(true, 1, 0, &spec, &values).is_err());
        let bad = vec![("bad name".to_string(), "ms")];
        values.insert("bad name".to_string(), 1.0);
        assert!(result_json(true, 1, 0, &bad, &values).is_err());
    }
}
