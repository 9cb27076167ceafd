//! `--compare a.json b.json`: two sets of runs, metric by metric.
//!
//! For every workload × end-to-end metric it prints both medians with
//! quartiles, how much worse `b` is than `a`, the bound, and a verdict:
//! `ok`, `regressed` (worse by more than the bound) or `unresolved` (either
//! side's own spread is wider than the bound, so the medians cannot tell —
//! unless every sample of `b` is better than every sample of `a`). The
//! exact-repeat values (packet count, model error, result digest) must be
//! equal.

use crate::metrics::END_TO_END;
use crate::summary::Summary;
use buffersizing::Json;

fn load(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("workloads") {
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        // A single-workload document compares as a set of one.
        _ => match doc.str("workload") {
            Some(name) => Ok(vec![(name.to_string(), doc.clone())]),
            None => Err(format!("{path}: neither a run set nor a workload document")),
        },
    }
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every
/// exact-repeat value is equal.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    let mut clean = true;
    println!("a = {path_a}\nb = {path_b}");
    println!(
        "{:<13} {:<15} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "a median [q1, q3] n", "b median [q1, q3] n", "worse", "bound"
    );
    for (name, doc_a) in &a {
        let Some((_, doc_b)) = b.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from b");
            clean = false;
            continue;
        };
        for spec in &END_TO_END {
            let get = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(spec.name))
                    .cloned()
            };
            let (Some(ma), Some(mb)) = (get(doc_a), get(doc_b)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::from_json(&ma), Summary::from_json(&mb)) else {
                continue;
            };
            let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
            let worse = sign * (sb.median - sa.median) / sa.median;
            let (xa, xb) = (samples(&ma), samples(&mb));
            let b_always_better = !xa.is_empty()
                && !xb.is_empty()
                && xb.iter().all(|&y| xa.iter().all(|&x| sign * (y - x) < 0.0));
            let verdict = if sa.spread().max(sb.spread()) > spec.bound && !b_always_better {
                "unresolved"
            } else if worse > spec.bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{:<13} {:<15} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {verdict}",
                name,
                spec.name,
                cell(&sa),
                cell(&sb),
                100.0 * worse,
                100.0 * spec.bound
            );
        }
        let (ea, eb) = (doc_a.get("exact"), doc_b.get("exact"));
        let equal = ea.is_some() && ea == eb;
        clean &= equal;
        println!(
            "{:<13} {:<15} {}",
            name,
            "exact-repeat",
            if equal {
                format!("equal: {}", exact_line(ea))
            } else {
                format!("DIFFERENT: a {} | b {}", exact_line(ea), exact_line(eb))
            }
        );
    }
    Ok(clean)
}

fn exact_line(exact: Option<&Json>) -> String {
    let Some(Json::Obj(pairs)) = exact else {
        return "missing".to_string();
    };
    pairs
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k} {s}"),
            Json::Num(x) => format!("{k} {x}"),
            _ => format!("{k} unvalidated"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}
