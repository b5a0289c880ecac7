//! Output: the per-metric lines, the driver's result line, the suite's
//! `results.json`, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::runs::RunOutput;
use crate::stats;

/// Below this many samples a 99th percentile has fewer than ten samples beyond it.
const P99_MIN_SAMPLES: u64 = 1_000;

/// One metric as `BENCHMARK.json` lists it (`bound` only on end-to-end metrics).
pub struct Listed {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Contract {
    pub end_to_end: Vec<Listed>,
    pub per_layer: Vec<Listed>,
    pub run_seconds: f64,
}

pub fn read_contract(path: &Path) -> Result<Contract, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Listed>, String> {
        doc.get(key)
            .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
            .as_arr()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key}: no {f}"))
                };
                Ok(Listed {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Contract {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds")?,
    })
}

/// Prints `workload metric value unit [n=..] [low_n]` for the whole pool, then the
/// result line holding exactly the `listed` metrics. `Err` if one is missing, not
/// finite, or carries another unit than `BENCHMARK.json` names.
pub fn print_run(workload: &str, run: &RunOutput, listed: &[Listed]) -> Result<(), String> {
    for note in &run.notes {
        println!("# {workload}: {note}");
    }
    for m in &run.metrics {
        let mut line = format!("{workload} {} {} {}", m.name, m.value, m.unit);
        if let Some(n) = m.n {
            line.push_str(&format!(" n={n}"));
            if m.name.contains("_p99_") && n < P99_MIN_SAMPLES {
                line.push_str(" low_n");
            }
        }
        println!("{line}");
    }
    let mut metrics = BTreeMap::new();
    for want in listed {
        let m = run
            .metrics
            .iter()
            .find(|m| m.name == want.name)
            .ok_or_else(|| format!("{workload}: metric {} was not measured", want.name))?;
        if !m.value.is_finite() {
            return Err(format!("{workload}: metric {} is {}", m.name, m.value));
        }
        if m.unit != want.unit {
            return Err(format!(
                "{workload}: {} is in {}, BENCHMARK.json says {}",
                m.name, m.unit, want.unit
            ));
        }
        metrics.insert(
            m.name.clone(),
            Json::obj([
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]),
        );
    }
    if let Err(diff) = &run.correct {
        eprintln!("{workload}: oracle mismatch: {diff}");
    }
    let line = Json::obj([
        ("correct".to_string(), Json::Bool(run.correct.is_ok())),
        (
            "attempted".to_string(),
            Json::Num(run.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(run.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Values of one metric across the runs of a suite.
#[derive(Default)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

/// `workload → ("end_to_end" | "per_layer") → metric → series`.
pub type Results = BTreeMap<String, BTreeMap<String, BTreeMap<String, Series>>>;

/// Folds one child's result line into the suite's results.
pub fn absorb(
    results: &mut Results,
    workload: &str,
    section: &str,
    line: &Json,
) -> Result<(), String> {
    if line.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: run reported correct=false"));
    }
    if line.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err(format!("{workload}: run reported failed operations"));
    }
    let metrics = line
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?;
    let into = results
        .entry(workload.to_string())
        .or_default()
        .entry(section.to_string())
        .or_default();
    for (name, m) in metrics {
        let series = into.entry(name.clone()).or_default();
        series.unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        series.values.push(
            m.get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?,
        );
    }
    Ok(())
}

pub fn results_json(results: &Results, header: Vec<(String, Json)>) -> Json {
    let workloads = results.iter().map(|(workload, sections)| {
        let sections = sections.iter().map(|(section, metrics)| {
            let metrics = metrics.iter().map(|(name, s)| {
                let body = Json::obj([
                    ("unit".to_string(), Json::Str(s.unit.clone())),
                    (
                        "median".to_string(),
                        Json::Num(stats::median_f64(&s.values)),
                    ),
                    ("spread".to_string(), Json::Num(stats::spread(&s.values))),
                    (
                        "values".to_string(),
                        Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]);
                (name.clone(), body)
            });
            (section.clone(), Json::obj(metrics))
        });
        (workload.clone(), Json::obj(sections))
    });
    let mut doc: BTreeMap<String, Json> = header.into_iter().collect();
    doc.insert("workloads".to_string(), Json::obj(workloads));
    Json::Obj(doc)
}

pub fn print_results(results: &Results) {
    for (workload, sections) in results {
        for metrics in sections.values() {
            for (name, s) in metrics {
                let mut line = format!(
                    "{workload} {name} {} {}",
                    stats::median_f64(&s.values),
                    s.unit
                );
                if s.values.len() > 1 {
                    line.push_str(&format!(
                        " spread={:.4} runs={}",
                        stats::spread(&s.values),
                        s.values.len()
                    ));
                }
                println!("{line}");
            }
        }
    }
}

/// `--compare A B`: one row per workload and gated metric. `B` is `worse` when its
/// median is worse than `A`'s by more than the bound, `unresolved` when either
/// side's own quartile spread is wider than the bound. Returns whether any row is
/// `worse`.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> Result<bool, String> {
    let series = |doc: &Json, workload: &str, name: &str| -> Option<(f64, f64)> {
        let m = doc
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(name)?;
        Some((m.get("median")?.as_f64()?, m.get("spread")?.as_f64()?))
    };
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut any_worse = false;
    println!(
        "{:<11} {:<17} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "sprA%", "sprB%", "bound%"
    );
    for workload in workloads.keys() {
        for m in &contract.end_to_end {
            let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
            let (Some((va, sa)), Some((vb, sb))) =
                (series(a, workload, &m.name), series(b, workload, &m.name))
            else {
                return Err(format!("{workload} {}: missing from one side", m.name));
            };
            let worse_by = if m.lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let verdict = if sa.max(sb) > bound {
                "unresolved"
            } else if worse_by > bound {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<11} {:<17} {va:>14.4} {vb:>14.4} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {verdict}",
                m.name,
                worse_by * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(any_worse)
}
