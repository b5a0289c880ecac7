//! `dbring-benchmark`: the repo's benchmark harness (see `benchmark/README.md`).
//!
//! * `--workload W --trace 0|1` runs one workload once and ends its output with one
//!   JSON line, the form the benchmark driver consumes;
//! * without `--trace` it runs a suite (every workload, or the one given: untraced
//!   `--runs` times on consecutive seeds, then traced once), each run a child process
//!   of its own, and writes `results.json`;
//! * `--compare A.json B.json` sets two suites' results against the bounds in
//!   `BENCHMARK.json`.

mod embedded;
mod gen;
mod json;
mod oracle;
mod report;
mod runs;
mod spec;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::{Contract, Results};
use runs::Options;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--runs N] [--quick] | --compare A.json B.json";

struct Cli {
    workload: Option<&'static Workload>,
    trace: Option<bool>,
    runs: usize,
    seconds: Option<f64>,
    compare: Option<(PathBuf, PathBuf)>,
    contract: PathBuf,
    opts: Options,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        runs: 1,
        seconds: None,
        compare: None,
        contract: PathBuf::from("BENCHMARK.json"),
        opts: Options {
            seed: 1,
            seconds: 0.0,
            quick: false,
            server_bin: PathBuf::from("target/release/dbring-serve"),
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{text:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let text = value()?;
                cli.opts.seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?} is not an unsigned integer"))?;
            }
            "--seconds" => cli.seconds = Some(number(value()?)?),
            "--trace" => cli.trace = Some(number(value()?)? != 0.0),
            "--runs" => cli.runs = (number(value()?)? as usize).max(1),
            "--quick" => cli.opts.quick = true,
            "--server-bin" => cli.opts.server_bin = PathBuf::from(value()?),
            "--out" => cli.opts.out_dir = PathBuf::from(value()?),
            "--contract" => cli.contract = PathBuf::from(value()?),
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// One workload, once, in this process.
fn single(
    cli: &Cli,
    contract: &Contract,
    w: &'static Workload,
    traced: bool,
) -> Result<bool, String> {
    let (run, listed) = if traced {
        (runs::run_traced(w, &cli.opts)?, &contract.per_layer)
    } else {
        (runs::run_untraced(w, &cli.opts)?, &contract.end_to_end)
    };
    report::print_run(w.name, &run, listed)?;
    Ok(run.correct.is_ok() && run.failed == 0)
}

/// Runs this executable again for one `(workload, seed, trace)` and returns the
/// parsed result line; the child's other output goes to our stderr.
fn child_run(cli: &Cli, w: &Workload, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--server-bin")
        .arg(&cli.opts.server_bin)
        .arg("--out")
        .arg(&cli.opts.out_dir)
        .arg("--contract")
        .arg(&cli.contract)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.opts.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    eprintln!("{body}");
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} trace {}: {}",
            w.name, traced as u8, output.status
        ));
    }
    json::parse(last).map_err(|e| format!("{} result line: {e}", w.name))
}

/// Every workload (or the one given): `--runs` untraced runs on consecutive seeds,
/// then one traced run, each in a child process; prints one line per metric and
/// writes `results.json`.
fn suite(cli: &Cli) -> Result<(), String> {
    let mut results = Results::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
    {
        for i in 0..cli.runs as u64 {
            let line = child_run(cli, w, cli.opts.seed.wrapping_add(i), false)?;
            report::absorb(&mut results, w.name, "end_to_end", &line)?;
        }
        let line = child_run(cli, w, cli.opts.seed, true)?;
        report::absorb(&mut results, w.name, "per_layer", &line)?;
    }
    report::print_results(&results);
    let header = vec![
        ("seed".to_string(), Json::Num(cli.opts.seed as f64)),
        ("runs".to_string(), Json::Num(cli.runs as f64)),
        ("seconds".to_string(), Json::Num(cli.opts.seconds)),
        ("quick".to_string(), Json::Bool(cli.opts.quick)),
    ];
    std::fs::create_dir_all(&cli.opts.out_dir).map_err(|e| e.to_string())?;
    let path = cli.opts.out_dir.join("results.json");
    std::fs::write(
        &path,
        report::results_json(&results, header).render() + "\n",
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let mut cli = parse_args()?;
    let contract = report::read_contract(&cli.contract)?;
    if let Some((a, b)) = &cli.compare {
        return Ok(!report::compare(&contract, &load(a)?, &load(b)?)?);
    }
    cli.opts.seconds = match cli.seconds {
        Some(seconds) => seconds,
        None if cli.opts.quick => 1.0,
        None => contract.run_seconds,
    };
    match (cli.workload, cli.trace) {
        (Some(w), Some(traced)) => single(&cli, &contract, w, traced),
        (None, Some(_)) => Err(format!("--trace needs --workload\n{USAGE}")),
        (_, None) => suite(&cli).map(|()| true),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dbring-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
