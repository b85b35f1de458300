//! `etx_bench` — the benchmark of record of the etx stack: five closed-loop
//! workloads end to end, every layer on record. See `README.md` beside
//! this package for the metric tables and the reasoning behind them.
//!
//! ```text
//! etx_bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (the driver's contract)
//! etx_bench run     [--seed N] [--repeats R] [--workload W] [--quick]   all five, end to end
//! etx_bench trace   [--seed N] [--workload W] [--quick]                 per-layer numbers and spans
//! etx_bench compare a.json b.json                                       bounds applied, row by row
//! etx_bench contract                                                    prints BENCHMARK.json
//! ```

mod calib;
mod compare;
mod json;
mod leg;
mod metrics;
mod micro;
mod parent;
mod report;
mod stages;
mod stats;
mod workloads;

use json::Json;
use parent::{Options, Stop};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seconds one driver run measures (`run_seconds` of the contract).
const RUN_SECONDS: u32 = 15;

/// Flags after the subcommand: `--name value` pairs and bare `--quick`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg.strip_prefix("--").ok_or(format!("unexpected argument `{arg}`"))?;
            let value = if name == "quick" {
                "1".to_string()
            } else {
                it.next().ok_or(format!("--{name} needs a value"))?.clone()
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot read `{v}`")))
            .transpose()
    }

    fn options(&self) -> Result<Options, String> {
        Ok(Options { quick: self.get("quick").is_some(), watchdog_s: self.num("watchdog-s")? })
    }

    /// The workloads selected by `--workload` (default: all five).
    fn specs(&self) -> Result<Vec<workloads::Spec>, String> {
        match self.get("workload") {
            None => Ok(workloads::all()),
            Some(name) => workloads::by_name(name)
                .map(|s| vec![s])
                .ok_or(format!("unknown workload `{name}`; one of {:?}", workloads::NAMES)),
        }
    }
}

/// The driver's contract: one workload, one seed, one JSON line last.
fn driver(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let spec = workloads::by_name(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = flags.num("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flags.num("seconds")?.ok_or("--seconds is required")?;
    let trace = flags.num::<u8>("trace")?.ok_or("--trace is required")? != 0;
    let opts = flags.options()?;
    let started = Instant::now();

    let (legs, values) = if trace {
        let (legs, mut layers) = report::traced_pair(&spec, seed, opts);
        // Whatever of the run's seconds the two legs left goes to the
        // layer microbenches, split evenly over their legs.
        let left = (seconds - started.elapsed().as_secs_f64()).max(1.0);
        let budget = Duration::from_secs_f64(left / 32.0);
        let (micro, _spans) = parent::run_micro(seed, budget)?;
        layers.extend(micro);
        let values: Vec<_> = metrics::contract_per_layer()
            .into_iter()
            // A metric that does not exist on this workload reads 0.
            .map(|(name, unit, _)| {
                (name, unit, layers.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0))
            })
            .collect();
        (legs, values)
    } else {
        let legs = parent::run_legs(&spec, seed, Stop::Seconds(seconds), opts);
        let summaries = parent::summarise(&legs);
        let mut values = Vec::new();
        for m in metrics::END_TO_END.iter().filter(|m| m.in_contract()) {
            let s = summaries.get(m.name).ok_or("no leg completed: nothing was measured")?;
            values.push((m.name, m.unit, s.median));
        }
        (legs, values)
    };
    let (attempted, failed) = parent::tally(&legs);
    for leg in legs.iter().filter(|l| !l.ok()) {
        eprintln!("leg seed {} failed ({:?}): {:?}", leg.seed, leg.reason, leg.problems);
    }
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                values
                    .into_iter()
                    .map(|(name, unit, v)| {
                        let entry = Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

/// Prints `BENCHMARK.json`, the projection of the metric tables and the
/// workload list onto the driver's contract.
fn contract() -> Json {
    let manifest = "examples/etx_bench/Cargo.toml";
    let command =
        ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", manifest];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|c| Json::str(c)).chain([Json::str("--")]).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("examples/etx_bench")])),
        ("run_seconds", Json::num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .filter(|m| m.in_contract())
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::num(m.contract_bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::contract_per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(first) = args.first() else {
        return Err("no arguments; see README.md beside this package".into());
    };
    if first.starts_with("--") {
        return driver(&Flags::parse(args)?);
    }
    let rest = &args[1..];
    match first.as_str() {
        "run" => report::run(&Flags::parse(rest)?),
        "trace" => report::trace(&Flags::parse(rest)?),
        "compare" => match rest {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare a.json b.json".into()),
        },
        "contract" => {
            print!("{}", contract().pretty());
            Ok(ExitCode::SUCCESS)
        }
        // The two internal entry points the parent spawns.
        "child" => {
            let [name, seed, quick, trace, limit] = rest else {
                return Err("child: workload seed quick trace limit_s".into());
            };
            let spec = workloads::by_name(name).ok_or("child: unknown workload")?;
            let bad = |what: &str| format!("child: bad {what}");
            let report = leg::run(
                &spec,
                seed.parse().map_err(|_| bad("seed"))?,
                quick == "1",
                trace == "1",
                limit.parse().map_err(|_| bad("limit"))?,
            );
            println!("{}", report.compact());
            // Exit without unwinding into any runtime teardown.
            std::process::exit(0);
        }
        "child-calib" => {
            calib::serve();
            Ok(ExitCode::SUCCESS)
        }
        "child-micro" => {
            let [seed, budget_ms] = rest else {
                return Err("child-micro: seed budget_ms".into());
            };
            let budget = Duration::from_millis(budget_ms.parse().map_err(|_| "bad budget")?);
            let spans = micro::run(seed.parse().map_err(|_| "bad seed")?, budget);
            let report = Json::obj([
                ("metrics", Json::from_map(&spans.metrics)),
                ("spans", spans.to_json()),
            ]);
            println!("{}", report.compact());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    // The CI matrix knobs of the test suite must not move a benchmark
    // number: every workload sets its features explicitly, and the
    // environment is scrubbed for good measure (children inherit it).
    for (name, _) in std::env::vars() {
        if name.starts_with("ETX_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("etx_bench: {msg}");
            ExitCode::from(2)
        }
    }
}
