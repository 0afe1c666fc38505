//! The all-workloads command: re-executes this binary once per workload
//! and seed (a fresh process each, so RSS and thread state do not leak),
//! prints every end-to-end metric by name and unit with its spread, and —
//! under `--aa` — runs the whole set twice and holds the two against the
//! bounds `BENCHMARK.json` declares.

use crate::json::Json;
use crate::stats::Summary;
use crate::workloads::{summary_json, WORKLOADS};
use crate::{bench_dir, host, out_dir, Args};
use std::path::Path;
use std::process::Command;

/// `--quick`: same shapes, a third of the measuring time (two fit
/// repetitions and a ~3 s serve window on the serve workloads).
const QUICK_SECONDS: f64 = 4.0;

struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// The benchmark's declaration at the repo root: the one place bounds,
/// directions and the default run length are written down.
struct Declaration {
    run_seconds: f64,
    /// `(name, why)` per workload.
    workloads: Vec<(String, String)>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn load_declaration() -> Result<Declaration, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json: `{key}` is not a list"));
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .ok_or(format!("BENCHMARK.json: metric without `{k}`"))
                };
                Ok(Declared {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err("BENCHMARK.json: `workloads` is not a list".into());
    };
    Ok(Declaration {
        workloads: workloads
            .iter()
            .map(|w| {
                let field = |k: &str| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect(),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

pub fn default_seconds(quick: bool) -> f64 {
    if quick {
        QUICK_SECONDS
    } else {
        load_declaration().map_or(12.0, |d| d.run_seconds)
    }
}

struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

/// Run one workload in a child process and parse its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("{workload}: spawn failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", stdout.trim_end()),
    };
    if !body.is_empty() {
        println!("{body}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("{workload}: result line lacks `{k}`"))
    };
    let metrics = doc
        .get("metrics")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// One pass over every workload and seed.
struct Set {
    /// `(workload, metric, unit, one value per seed)`.
    rows: Vec<(String, String, String, Vec<f64>)>,
    attempted: f64,
    failed: f64,
    all_correct: bool,
}

fn run_set(args: &Args, seconds: f64, declared: &[Declared]) -> Result<Set, String> {
    let mut set = Set {
        rows: Vec::new(),
        attempted: 0.0,
        failed: 0.0,
        all_correct: true,
    };
    for w in &WORKLOADS {
        let mut per_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in args.seed..args.seed + args.seeds {
            let r = run_child(w.name, seed, seconds, args.trace)?;
            set.attempted += r.attempted;
            set.failed += r.failed;
            set.all_correct &= r.correct;
            for d in declared {
                let Some((_, value, unit)) = r.metrics.iter().find(|(n, _, _)| *n == d.name) else {
                    return Err(format!(
                        "{}: metric `{}` missing from the result line",
                        w.name, d.name
                    ));
                };
                if *unit != d.unit {
                    return Err(format!(
                        "{}: `{}` printed in {unit}, declared in {}",
                        w.name, d.name, d.unit
                    ));
                }
                match per_metric.iter_mut().find(|(n, _, _)| *n == d.name) {
                    Some((_, _, values)) => values.push(*value),
                    None => per_metric.push((d.name.clone(), unit.clone(), vec![*value])),
                }
            }
        }
        for (metric, unit, values) in per_metric {
            set.rows.push((w.name.to_string(), metric, unit, values));
        }
    }
    Ok(set)
}

fn print_set(title: &str, set: &Set) {
    println!("\n== {title}");
    println!(
        "{:<13} {:<34} {:>14} {:<8} {:>3} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "workload", "metric", "median", "unit", "n", "min", "q1", "q3", "max", "spread"
    );
    for (workload, metric, unit, values) in &set.rows {
        let s = Summary::of(values);
        println!(
            "{workload:<13} {metric:<34} {:>14.6} {unit:<8} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>6.1}%",
            s.median,
            s.n,
            s.min,
            s.q1,
            s.q3,
            s.max,
            s.spread() * 100.0
        );
    }
    println!(
        "fail_share {} (failed {} of {} attempted)",
        set.failed / set.attempted.max(1.0),
        set.failed,
        set.attempted
    );
}

fn set_json(set: &Set) -> Json {
    Json::obj([
        ("attempted", Json::Num(set.attempted)),
        ("failed", Json::Num(set.failed)),
        ("fail_share", Json::Num(set.failed / set.attempted.max(1.0))),
        (
            "metrics",
            Json::Arr(
                set.rows
                    .iter()
                    .map(|(workload, metric, unit, values)| {
                        Json::obj([
                            ("workload", Json::str(workload)),
                            ("metric", Json::str(metric)),
                            ("unit", Json::str(unit)),
                            ("summary", summary_json(&Summary::of(values))),
                            ("spread", Json::Num(Summary::of(values).spread())),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_out(name: &str, doc: &Json) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Stitch the children's `layers-<workload>.json` into one `layers.json`.
fn merge_layers(dir: &Path, provenance: &Json) -> Result<(), String> {
    let mut per_workload = Vec::new();
    for w in &WORKLOADS {
        let path = dir.join(format!("layers-{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        per_workload.push((
            w.name,
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    write_out(
        "layers.json",
        &Json::obj([
            ("provenance", provenance.clone()),
            ("workloads", Json::obj(per_workload)),
        ]),
    )
}

/// Hold two sets of runs of the same code against the declared bounds:
/// each set's quartile spread (needs two seeds or more; `setup_s` is
/// exempt) and the drift of the second median from the first.
fn compare(first: &Set, second: &Set, declared: &[Declared]) -> (Json, bool) {
    let mut ok = true;
    let mut rows = Vec::new();
    for ((workload, metric, _, a), (_, _, _, b)) in first.rows.iter().zip(&second.rows) {
        let d = declared
            .iter()
            .find(|d| d.name == *metric)
            .expect("rows follow the declaration");
        let bound = d.bound.unwrap_or(f64::INFINITY);
        let (sa, sb) = (Summary::of(a), Summary::of(b));
        let worse = if d.lower_is_better {
            (sb.median - sa.median) / sa.median
        } else {
            (sa.median - sb.median) / sa.median
        };
        let spread = sa.spread().max(sb.spread());
        let spread_ok = metric == "setup_s" || a.len() < 2 || spread <= bound;
        let drift_ok = worse <= bound;
        if !(spread_ok && drift_ok) {
            ok = false;
            println!(
                "A/A VIOLATION {workload}/{metric}: spread {:.1}% drift {:+.1}% bound {:.0}%",
                spread * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
        rows.push(Json::obj([
            ("workload", Json::str(workload)),
            ("metric", Json::str(metric)),
            ("bound", Json::Num(bound)),
            ("first_median", Json::Num(sa.median)),
            ("second_median", Json::Num(sb.median)),
            ("worse_by", Json::Num(worse)),
            ("first_spread", Json::Num(sa.spread())),
            ("second_spread", Json::Num(sb.spread())),
            ("within_bound", Json::Bool(spread_ok && drift_ok)),
        ]));
    }
    (Json::Arr(rows), ok)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let decl = load_declaration()?;
    if !decl
        .workloads
        .iter()
        .map(|(name, _)| name.as_str())
        .eq(WORKLOADS.iter().map(|w| w.name))
    {
        return Err("BENCHMARK.json and the benchmark name different workloads".into());
    }
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        decl.run_seconds
    });
    let provenance = Json::obj(
        host::provenance(&bench_dir().join(".."), args.seed, seconds)
            .entries()
            .iter()
            .cloned()
            .chain([
                ("seeds".to_string(), Json::Num(args.seeds as f64)),
                ("traced".to_string(), Json::Bool(args.trace)),
            ]),
    );
    println!("provenance {}", provenance.compact());
    let declared = if args.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };

    let first = run_set(args, seconds, declared)?;
    print_set(
        if args.trace {
            "per-layer metrics (traced run)"
        } else {
            "end-to-end metrics"
        },
        &first,
    );
    let mut ok = first.all_correct && first.failed == 0.0;
    if args.trace {
        merge_layers(&out_dir(), &provenance)?;
    }
    if args.aa {
        if args.trace {
            return Err(
                "--aa compares end-to-end metrics; it does not combine with --traced".into(),
            );
        }
        let second = run_set(args, seconds, declared)?;
        print_set("end-to-end metrics, second set", &second);
        ok &= second.all_correct && second.failed == 0.0;
        let (rows, within) = compare(&first, &second, declared);
        ok &= within;
        write_out(
            "aa.json",
            &Json::obj([
                ("provenance", provenance),
                ("within_bounds", Json::Bool(within)),
                ("comparison", rows),
                ("first", set_json(&first)),
                ("second", set_json(&second)),
            ]),
        )?;
    } else {
        write_out(
            if args.trace {
                "results-traced.json"
            } else {
                "results.json"
            },
            &Json::obj([("provenance", provenance), ("set", set_json(&first))]),
        )?;
    }
    if !ok {
        println!("FAILED: a check failed or a bound was exceeded (see above)");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads for the
    /// same reasons, and declare a bound for every end-to-end metric.
    #[test]
    fn declaration_matches_the_code() {
        let decl = load_declaration().expect("BENCHMARK.json at the repo root");
        let in_code: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(decl.workloads, in_code);
        assert!(decl.run_seconds >= 1.0 && decl.run_seconds <= 60.0);
        assert!(decl
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
        for d in &decl.end_to_end {
            let bound = d.bound.unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert!(decl.per_layer.iter().all(|d| d.bound.is_none()));
        let mut names: Vec<&str> = decl
            .end_to_end
            .iter()
            .chain(&decl.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a metric name is used twice"
        );
    }

    #[test]
    fn compare_flags_drift_and_spread_beyond_the_bound() {
        let declared = vec![
            Declared {
                name: "fit_s".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: Some(0.1),
            },
            Declared {
                name: "qps".into(),
                unit: "1/s".into(),
                lower_is_better: false,
                bound: Some(0.1),
            },
        ];
        let set = |fit: Vec<f64>, qps: Vec<f64>| Set {
            rows: vec![
                ("w".into(), "fit_s".into(), "s".into(), fit),
                ("w".into(), "qps".into(), "1/s".into(), qps),
            ],
            attempted: 1.0,
            failed: 0.0,
            all_correct: true,
        };
        let steady = set(vec![1.0, 1.01, 1.02], vec![100.0, 101.0, 102.0]);
        assert!(compare(&steady, &steady, &declared).1);
        // Slower by 20 % and fewer requests by 20 %: both directions count.
        let slower = set(vec![1.2, 1.21, 1.22], vec![100.0, 101.0, 102.0]);
        assert!(!compare(&steady, &slower, &declared).1);
        assert!(
            compare(&slower, &steady, &declared).1,
            "an improvement is not a violation"
        );
        let fewer = set(vec![1.0, 1.01, 1.02], vec![80.0, 81.0, 82.0]);
        assert!(!compare(&steady, &fewer, &declared).1);
        let noisy = set(vec![1.0, 1.3, 1.6], vec![100.0, 101.0, 102.0]);
        assert!(
            !compare(&noisy, &noisy, &declared).1,
            "spread beyond the bound"
        );
    }
}
