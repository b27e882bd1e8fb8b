//! `perfbench`: one command that runs one named workload through the
//! repository's public API, checks its outputs, and prints every metric
//! with its unit as the last line of standard output.
//!
//! ```text
//! perfbench --workload <gyre_step|gx01_solve|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a run in which every other operation cycle
//! records spans around each call into a layer (written to
//! `perfbench/out/`). See README.md.

mod gx01;
mod gyre;
mod host;
mod layers;
mod ledger;
mod report;
mod serve;

use layers::{EndToEnd, Layers};
use ledger::Ledger;
use report::{percentile, Tally};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["gyre_step", "gx01_solve", "serve_open"];

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back.
pub struct Run {
    pub tally: Tally,
    pub e2e: EndToEnd,
    /// Present on a traced run.
    pub layers: Option<Layers>,
    /// Operations the latency percentiles are taken over.
    pub samples: usize,
    /// Computed bytes of the data the timed operations touch.
    pub working_set_bytes: u64,
}

const USAGE: &str =
    "usage: perfbench --workload <gyre_step|gx01_solve|serve_open> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One caller in a closed loop: calls `op(i)`, which returns the seconds
/// it timed, until at least `seconds` of timed work and enough samples for
/// p95 are in, stopping only after a whole cycle so every workload mix is
/// complete. Gives up past [`WALL_CAP_S`].
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    mut op: impl FnMut(usize) -> f64,
) -> Result<Vec<f64>, String> {
    let need = report::min_samples_for(0.95);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut timed = 0.0;
    loop {
        for _ in 0..cycle {
            let t = op(times.len());
            timed += t;
            times.push(t);
        }
        if timed >= seconds && times.len() >= need {
            return Ok(times);
        }
        if start.elapsed().as_secs_f64() > WALL_CAP_S {
            return Err(format!(
                "only {} operations in {WALL_CAP_S} s; p95 needs {need}",
                times.len()
            ));
        }
    }
}

/// Longest a closed loop may run to collect its samples.
pub const WALL_CAP_S: f64 = 120.0;

/// Contiguous chunks a closed loop's figures are medians over.
pub const CHUNKS: usize = 10;

/// Verified operations per timed second, as the median over [`CHUNKS`]
/// contiguous chunks of whole cycles: one slow stretch of the host moves
/// one chunk, not the figure. A trailing partial chunk is left out.
pub fn median_rate(times: &[f64], ok: &[bool], cycle: usize) -> f64 {
    let per = (times.len() / cycle / CHUNKS).max(1) * cycle;
    let rates: Vec<f64> = times
        .chunks_exact(per)
        .zip(ok.chunks_exact(per))
        .map(|(t, o)| o.iter().filter(|&&b| b).count() as f64 / t.iter().sum::<f64>())
        .collect();
    report::median(&rates)
}

/// Percentile `q` as the median over contiguous chunks that each support
/// it on their own (a single chunk when the sample is small); the last
/// chunk takes the remainder.
pub fn chunked_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let k = (samples.len() / report::min_samples_for(q)).max(1);
    let per = samples.len() / k;
    let values = (0..k)
        .map(|c| {
            let end = if c + 1 == k {
                samples.len()
            } else {
                (c + 1) * per
            };
            percentile(&samples[c * per..end], q)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(report::median(&values))
}

/// The end-to-end record from set-up repetitions and per-op times (in
/// the order they ran).
pub fn end_to_end(
    setup_times: &[f64],
    op_times: &[f64],
    tally: &Tally,
    ops_per_s: f64,
    peak_rss_mb: f64,
) -> Result<EndToEnd, String> {
    Ok(EndToEnd {
        setup_s: report::median(setup_times),
        ops_per_s,
        op_p50_ms: chunked_percentile(op_times, 0.50)? * 1e3,
        op_p95_ms: chunked_percentile(op_times, 0.95)? * 1e3,
        ok_frac: 1.0 - tally.fail_frac(),
        peak_rss_mb,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::confine_git_to_cwd();
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch, spec.trace);
    let run = match spec.workload.as_str() {
        "gyre_step" => gyre::run(&spec, &mut ledger),
        "gx01_solve" => gx01::run(&spec, &mut ledger),
        "serve_open" => serve::run(&spec, &mut ledger),
        _ => unreachable!("parse_args admits only listed workloads"),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        host::provenance_line(
            &spec.workload,
            spec.seed,
            spec.trace,
            run.samples,
            run.working_set_bytes
        )
    );
    if spec.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-seed{}.jsonl", spec.workload, spec.seed));
        if let Err(e) = ledger.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics = match &run.layers {
        Some(l) => l.metrics(),
        None => run.e2e.metrics(),
    };
    let correct = run.tally.wrong == 0;
    match report::result_line(correct, run.tally.attempted, run.tally.not_ok(), &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong answer(s)", run.tally.wrong);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_is_strict() {
        let ok = parse_args(&args(
            "--workload gx01_solve --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.seed, 7);
        assert!(ok.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gyre_step --seed 1 --seconds 1",
            "--workload gyre_step --seed x --seconds 1 --trace 0",
            "--workload gyre_step --seed 1 --seconds 0 --trace 0",
            "--workload gyre_step --seed 1 --seconds 1 --trace 2",
            "--workload gyre_step --seed 1 --seconds 1 --trace 0 --quick 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn closed_loop_ends_on_a_whole_cycle_with_enough_samples() {
        let times = closed_loop(0.0, 3, |_| 1e-6).unwrap();
        assert_eq!(times.len() % 3, 0);
        assert!(times.len() >= report::min_samples_for(0.95));
    }

    #[test]
    fn chunked_figures_are_medians_over_chunks() {
        // 400 samples make two chunks that each support p95; the figure is
        // the median of their p95s. Fewer than 400 make one chunk, which is
        // the plain rule.
        let mut s: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 * 1e-3).collect();
        s.extend((0..200).map(|i| 10.0 + i as f64 * 1e-3));
        let p95 = chunked_percentile(&s, 0.95).unwrap();
        assert!((p95 - 0.5 * (1.189 + 10.189)).abs() < 1e-9, "{p95}");
        assert_eq!(
            chunked_percentile(&s[..250], 0.95).unwrap(),
            percentile(&s[..250], 0.95).unwrap()
        );
        assert!(chunked_percentile(&s[..150], 0.95).is_err());

        // Ten chunks of 3-op cycles; one chunk is 10x slower, one op failed.
        let mut t = vec![0.1; 30 * CHUNKS];
        t[..30].iter_mut().for_each(|x| *x = 1.0);
        let mut ok = vec![true; t.len()];
        ok[40] = false;
        assert!((median_rate(&t, &ok, 3) - 10.0).abs() < 1e-9);
    }

    /// The metric catalogue in BENCHMARK.json is the one this program
    /// prints, and every workload it names is one this program runs.
    #[test]
    fn benchmark_json_names_match_the_program() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<&str> {
            let start = json
                .find(&format!("\"{key}\": ["))
                .expect("section present");
            let end = start + json[start..].find(']').expect("section closes");
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("closing quote")])
                .collect()
        };
        assert!(section("workloads").iter().all(|w| WORKLOADS.contains(w)));
        assert!(section("workloads").len() >= 2);
        let e2e: Vec<String> = EndToEnd::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let layers: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layers);
        for m in EndToEnd::default()
            .metrics()
            .iter()
            .chain(&Layers::default().metrics())
        {
            let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&unit), "{unit}");
        }
    }
}
