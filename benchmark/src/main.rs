//! The repo benchmark.
//!
//! ```text
//! rrs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rrs-benchmark --all        [--seed n] [--save file]
//! rrs-benchmark --selfcheck  [--seed n]
//! rrs-benchmark --probes
//! ```
//!
//! The first form measures one workload and ends its standard output
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`):
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`.  `--all` and `--selfcheck` run that same form in child
//! processes and read the line back.  See `README.md` beside this
//! package for the rest.

mod gen;
mod measure;
mod names;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use measure::{run_rep, Tally};
use names::{Better, END_TO_END, IN_SITU, PER_RUN};
use report::{Exact, FullReport, Horizon, Reading, RunReport, WorkloadReport};
use serde::Value;
use spans::SpanLog;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Def, Kind, WORKLOADS};

/// Repetitions every run completes, however short `--seconds` is: the
/// simulated statistics of two must agree.
const MIN_REPS: usize = 2;
/// `run_seconds` of `BENCHMARK.json`: what a lone run defaults to and
/// what every run of a set is given.
const RUN_SECONDS: f64 = 20.0;
/// Rounds of a set, interleaving the workloads (A B C D, A B C D, …).
const ROUNDS: usize = 3;
/// Opens the line of a run's output that carries its `stats_digest`.
const DIGEST_PREFIX: &str = "stats_digest ";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    probes: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    save: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        selfcheck: false,
        probes: false,
        seed: 11,
        seconds: RUN_SECONDS,
        trace: false,
        save: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str| format!("{flag}: expected {what}");
        match flag.as_str() {
            "--all" => o.all = true,
            "--selfcheck" => o.selfcheck = true,
            "--probes" => o.probes = true,
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
                o.seconds = s;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--save" => o.save = Some(PathBuf::from(value()?)),
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [o.workload.is_some(), o.all, o.selfcheck, o.probes];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck, --probes".to_string());
    }
    if o.workload.is_none() && (o.seconds != RUN_SECONDS || o.trace) {
        return Err("--seconds and --trace go with --workload".to_string());
    }
    Ok(o)
}

fn print_readings(title: &str, readings: &[Reading]) {
    println!("{title}");
    for r in readings {
        println!(
            "  {:<52} {:>16.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} n {}",
            r.name, r.value, r.unit, r.median, r.q1, r.q3, r.n
        );
    }
}

/// Measures one workload: whole repetitions (set-up, warm-up, the
/// 20-slice window) back to back, as many as `--seconds` take at the
/// nominal pace.  With `trace` a quarter as many, each followed by a
/// traced repetition, so both see the same machine weather; the probes
/// and the slower traced repetitions fill the rest of the time.
fn run_workload(def: &'static Def, o: &Options) -> Result<RunReport, String> {
    let probes = if o.trace { probes::all()? } else { Vec::new() };
    let churn_free_migrations = match def.kind {
        Kind::ShardedChurn => measure::churn_free_migrations(def),
        _ => 0,
    };
    let reps = def.reps_for(o.seconds);
    let reps = if o.trace { reps / 4 } else { reps }.max(MIN_REPS);

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut slice_s = Vec::new();
    let mut exact: Option<Exact> = None;
    let mut traced_digest: Option<u64> = None;
    let mut traced_slice_s = Vec::new();
    let mut layer_values: Vec<Vec<f64>> = vec![Vec::new(); IN_SITU.len()];
    let mut kept_log: Option<SpanLog> = None;
    for _ in 0..reps {
        let rep = run_rep(def, o.seed, None);
        setup_s.push(rep.setup_s);
        slice_s.extend_from_slice(&rep.slice_s);
        let this = Exact::of(&rep);
        tally.absorb(rep.tally);
        match &exact {
            None => exact = Some(this),
            Some(first) => tally.check(*first == this, || {
                format!(
                    "simulated statistics differ between repetitions: {} vs {}",
                    first.stats_digest, this.stats_digest
                )
            }),
        }
        if o.trace {
            let mut log = SpanLog::new();
            let rep = run_rep(def, o.seed, Some(&mut log));
            for (slot, (_, v)) in layer_values.iter_mut().zip(report::in_situ(&rep, &log)) {
                slot.push(v);
            }
            traced_slice_s.extend_from_slice(&rep.slice_s);
            let digest = rep.digest;
            tally.absorb(rep.tally);
            tally.check(*traced_digest.get_or_insert(digest) == digest, || {
                "simulated statistics differ between traced repetitions".to_string()
            });
            kept_log.get_or_insert(log);
        }
    }
    let exact = exact.expect("at least one repetition ran");
    let invalid = exact.validity_failure(def, churn_free_migrations);
    tally.check(invalid.is_none(), || invalid.clone().unwrap_or_default());

    let mut per_layer = Vec::new();
    if let Some(log) = &kept_log {
        for (&(name, unit), values) in IN_SITU.iter().zip(&layer_values) {
            per_layer.push(Reading::of_samples(name, unit, values));
        }
        let overhead = Horizon::of(&traced_slice_s).fastest_s / Horizon::of(&slice_s).fastest_s;
        let per_run = [churn_free_migrations as f64, overhead];
        for (&(name, unit), value) in PER_RUN.iter().zip(per_run) {
            per_layer.push(Reading::exact(name, unit, value));
        }
        per_layer.extend(probes);
        let path = o.out_dir.join(format!("trace_{}.json", def.name));
        if let Err(e) = log.write_chrome_json(&path, def.name) {
            tally.check(false, || format!("writing {}: {e}", path.display()));
        }
    }

    Ok(RunReport {
        workload: def.name.to_string(),
        seed: o.seed,
        traced: o.trace,
        reps,
        end_to_end: report::end_to_end(def, &setup_s, &slice_s, &exact, report::peak_rss_mib()),
        slice_s,
        exact,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        per_layer,
    })
}

/// The one line the driver reads.
fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .readings()
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn single(def: &'static Def, o: &Options) -> Result<(), String> {
    let report = run_workload(def, o)?;
    print_readings(
        &format!(
            "{} seed {} — {} repetitions, {} slices",
            report.workload,
            report.seed,
            report.reps,
            report.slice_s.len()
        ),
        report.readings(),
    );
    println!("{DIGEST_PREFIX}{}", report.exact.stats_digest);
    let horizon = Horizon::of(&report.slice_s);
    let tail = horizon
        .slowdown_tail
        .map_or(String::new(), |(p, x)| format!(", p{p} ×{x:.2}"));
    println!(
        "  slice time over that slice's fastest repetition: median ×{:.2}{tail} (n {})",
        horizon.slowdown_median, horizon.n
    );
    if !report.readings().iter().all(|r| r.value.is_finite()) {
        return Err("a metric is not a finite number".to_string());
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result_line(&report));
    if report.failed > 0 {
        return Err(format!(
            "{} of {} checks and operations",
            report.failed, report.attempted
        ));
    }
    Ok(())
}

/// What a child run's output said.
struct ChildRun {
    stats_digest: String,
    /// `(name, unit, value)` in the order of the result line.
    metrics: Vec<(String, String, f64)>,
}

fn parse_run_output(stdout: &str) -> Option<ChildRun> {
    let stats_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DIGEST_PREFIX))?
        .to_string();
    let line: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    let metrics = line
        .field("metrics")
        .as_obj()?
        .iter()
        .map(|(name, m)| match (m.field("unit"), m.field("value")) {
            (Value::Str(unit), Value::Num(value)) => {
                Some((name.clone(), unit.clone(), value.as_f64()))
            }
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(ChildRun {
        stats_digest,
        metrics,
    })
}

/// Runs this binary again on one workload, in the form the driver uses,
/// and reads its output back.
fn child_run(def: &Def, o: &Options, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", def.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&o.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("the run of {} failed", def.name));
    }
    parse_run_output(&String::from_utf8_lossy(&output.stdout))
        .ok_or_else(|| format!("the run of {} printed no result", def.name))
}

/// One set: [`ROUNDS`] rounds interleaving the workloads, one process
/// per (round, workload).  A metric's reading is the median over rounds.
fn run_set(o: &Options) -> Result<Vec<WorkloadReport>, String> {
    let mut rounds: Vec<Vec<ChildRun>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (runs, def) in rounds.iter_mut().zip(&WORKLOADS) {
            eprintln!("round {} of {ROUNDS}: {}", round + 1, def.name);
            runs.push(child_run(def, o, false)?);
        }
    }
    WORKLOADS
        .iter()
        .zip(rounds)
        .map(|(def, runs)| {
            let stats_digest = runs[0].stats_digest.clone();
            if let Some(other) = runs.iter().find(|r| r.stats_digest != stats_digest) {
                return Err(format!(
                    "{}: simulated statistics differ between rounds: {stats_digest} vs {}",
                    def.name, other.stats_digest
                ));
            }
            let end_to_end = (0..END_TO_END.len())
                .map(|i| {
                    let (name, unit, _) = &runs[0].metrics[i];
                    let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].2).collect();
                    Reading::of_samples(name, unit, &values)
                })
                .collect();
            Ok(WorkloadReport {
                workload: def.name.to_string(),
                stats_digest,
                end_to_end,
                per_layer: Vec::new(),
            })
        })
        .collect()
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The full set: end-to-end (median over rounds), then one traced run
/// per workload.  Every traced run repeats the isolated probes, so a
/// probe's reading is the median over the four.
fn full(o: &Options) -> Result<(), String> {
    let mut workloads = run_set(o)?;
    let mut probe_samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (def, w) in WORKLOADS.iter().zip(&mut workloads) {
        eprintln!("traced run: {}", def.name);
        for (name, unit, value) in child_run(def, o, true)?.metrics {
            if !name.starts_with("probe.") {
                w.per_layer.push(Reading::exact(&name, &unit, value));
            } else if let Some(p) = probe_samples.iter_mut().find(|p| p.0 == name) {
                p.2.push(value);
            } else {
                probe_samples.push((name, unit, vec![value]));
            }
        }
    }
    let report = FullReport {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        rustc: rustc_version(),
        seed: o.seed,
        run_seconds: RUN_SECONDS,
        rounds: ROUNDS as u64,
        workloads,
        probes: probe_samples
            .iter()
            .map(|(name, unit, values)| Reading::of_samples(name, unit, values))
            .collect(),
    };
    for w in &report.workloads {
        print_readings(
            &format!(
                "{} — end to end, median of {ROUNDS} runs, digest {}",
                w.workload, w.stats_digest
            ),
            &w.end_to_end,
        );
        print_readings(
            &format!("{} — per layer (one traced run)", w.workload),
            &w.per_layer,
        );
    }
    print_readings(
        "isolated probes, median of the four traced runs",
        &report.probes,
    );
    let path = o
        .save
        .clone()
        .unwrap_or_else(|| o.out_dir.join("full_report.json"));
    report::write_json(&path, &report).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written to {}", path.display());
    Ok(())
}

/// Share by which `second` is worse than `first`, in the metric's own
/// direction (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Set-up times of a few milliseconds wander by more than their bound
/// on their own; below this absolute difference they are not a finding.
const SETUP_FLOOR_S: f64 = 0.05;

/// Two sets on the same tree must agree: wall metrics within their
/// bounds, simulated statistics to the last bit.
fn selfcheck(o: &Options) -> Result<(), String> {
    let first = run_set(o)?;
    let second = run_set(o)?;
    let mut misses = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        if a.stats_digest != b.stats_digest {
            misses.push(format!(
                "{}: simulated statistics differ between sets ({} vs {})",
                a.workload, a.stats_digest, b.stats_digest
            ));
        }
        for (m, (ra, rb)) in END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let worse = worsening(m.better, ra.value, rb.value);
            let within = if m.exact {
                ra.value.to_bits() == rb.value.to_bits()
            } else {
                worse <= m.bound || (m.name == "setup_s" && (rb.value - ra.value) <= SETUP_FLOOR_S)
            };
            println!(
                "{:<18} {:<30} set 1 {:>16.6} set 2 {:>16.6} {:<5} ({} is better) worse by {:>+7.2} % (bound {:.0} %) {}",
                a.workload,
                m.name,
                ra.value,
                rb.value,
                m.unit,
                m.better.label(),
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "MISS" }
            );
            if !within {
                misses.push(format!("{}: {} outside its bound", a.workload, m.name));
            }
        }
    }
    if misses.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(misses.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(name) = &o.workload {
        match workloads::by_name(name) {
            Some(def) => single(def, &o),
            None => Err(format!(
                "unknown workload {name}; one of: {}",
                WORKLOADS.map(|d| d.name).join(", ")
            )),
        }
    } else if o.all {
        full(&o)
    } else if o.selfcheck {
        selfcheck(&o)
    } else {
        probes::all().map(|readings| print_readings("isolated probes", &readings))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `BENCHMARK.json` and this binary must name the same things.
#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is there");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn text(v: &Value) -> String {
        match v {
            Value::Str(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Num(n) => n.as_f64(),
            other => panic!("not a number: {other:?}"),
        }
    }

    fn names_of(list: &Value) -> Vec<String> {
        let list = list.as_arr().expect("a list");
        list.iter().map(|m| text(m.field("name"))).collect()
    }

    /// `(name, unit)` of every per-layer metric, in print order.
    fn per_layer() -> Vec<(&'static str, &'static str)> {
        IN_SITU
            .iter()
            .chain(&PER_RUN)
            .copied()
            .chain(probes::QUICK.iter().map(|p| (p.0, "ns")))
            .chain(probes::WHOLE)
            .collect()
    }

    #[test]
    fn manifest_names_are_the_names_the_binary_prints() {
        let manifest = manifest();
        let workloads: Vec<_> = WORKLOADS.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names_of(manifest.field("workloads")), workloads);

        let end_to_end: Vec<_> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names_of(manifest.field("end_to_end")), end_to_end);

        let printed: Vec<_> = per_layer().iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_of(manifest.field("per_layer")), printed);
    }

    #[test]
    fn manifest_units_directions_bounds_and_run_length_match() {
        let manifest = manifest();
        assert_eq!(number(manifest.field("run_seconds")), RUN_SECONDS);
        for (m, j) in END_TO_END
            .iter()
            .zip(manifest.field("end_to_end").as_arr().unwrap())
        {
            assert_eq!(text(j.field("unit")), m.unit, "{}", m.name);
            assert_eq!(text(j.field("better")), m.better.label(), "{}", m.name);
            assert_eq!(number(j.field("bound")), m.bound, "{}", m.name);
        }
        for ((name, unit), j) in per_layer()
            .iter()
            .zip(manifest.field("per_layer").as_arr().unwrap())
        {
            assert_eq!(&text(j.field("unit")), unit, "{name}");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
    }

    #[test]
    fn set_options_take_no_run_length() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--selfcheck"])).is_ok());
        assert!(parse_args(&args(&["--all", "--seconds", "5"])).is_err());
        assert!(parse_args(&args(&["--all", "--rounds", "2"])).is_err());
        let o = parse_args(&args(&[
            "--workload",
            "w",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((o.seconds, o.trace), (5.0, true));
    }

    /// A run's output, as `single` prints it, reads back to the same
    /// digest, names and values.
    #[test]
    fn result_line_has_the_contract_keys_and_reads_back() {
        let exact = Exact {
            stats_digest: "0".repeat(16),
            elapsed_us: 1_000,
            delivered_us: 500,
            dispatches: 10,
            controller_cycles: 1,
            overhead_us: 20.0,
            fill_abs_err: 0.0,
            cache_hit_rate: 0.9,
            poll_wake_share: 0.0,
            rebalance_migrations: 0,
        };
        let def = workloads::by_name("spin_uncontended").unwrap();
        let report = RunReport {
            workload: def.name.to_string(),
            seed: 1,
            traced: false,
            reps: 2,
            end_to_end: report::end_to_end(def, &[0.1, 0.2], &[0.5; 40], &exact, 3.5),
            slice_s: vec![0.5; 40],
            exact,
            attempted: 7,
            failed: 0,
            failures: Vec::new(),
            per_layer: Vec::new(),
        };
        let line = result_line(&report);
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<_> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.field("correct"), &Value::Bool(true));

        let stdout = format!("a table\n{DIGEST_PREFIX}{}\n{line}\n", "0".repeat(16));
        let child = parse_run_output(&stdout).expect("reads back");
        assert_eq!(child.stats_digest, "0".repeat(16));
        for (m, (name, unit, value)) in END_TO_END.iter().zip(&child.metrics) {
            assert_eq!((m.name, m.unit), (name.as_str(), unit.as_str()));
            assert!(value.is_finite());
        }
        assert_eq!(child.metrics.len(), END_TO_END.len());
        assert_eq!(child.metrics[1].2, 10.0, "20 slices of 0.5 s");
        assert!(parse_run_output("no digest\n{}").is_none());
    }
}
