//! End-to-end and per-layer benchmark of the NearPM reproduction.
//!
//! ```text
//! perfbench --workload <paper_sweep|open_loop|crash_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! A run repeats whole rounds of its workload, each with the same seeded
//! inputs, until `--seconds` of host time have passed. Host-time metrics
//! are read off those rounds; every round's simulated results must be
//! identical. The simulated figures of the parts a workload does not
//! measure come from one extra round of each after the measured window, so
//! every workload prints every end-to-end metric. With `--trace 1` rounds
//! alternate untraced and traced, every part is run traced at least once,
//! and the run prints the per-layer metrics plus the tracing overhead. The
//! last line of standard output is the JSON result; the exit code is
//! nonzero if any correctness check failed. See README.md.

mod crash;
mod open;
mod paper;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use open::OpenSize;
use stats::{median, metric, peak_rss_mib, quantile, result_line, Metric, RoundHost, Spans, Tally};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    OpenLoop,
    CrashSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_sweep" => Some(Workload::PaperSweep),
            "open_loop" => Some(Workload::OpenLoop),
            "crash_sweep" => Some(Workload::CrashSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::OpenLoop => "open_loop",
            Workload::CrashSweep => "crash_sweep",
        }
    }

    /// What one unit of `attempted` work is.
    fn unit(self) -> &'static str {
        match self {
            Workload::PaperSweep => "operations",
            Workload::OpenLoop => "requests",
            Workload::CrashSweep => "boundaries",
        }
    }
}

/// Input sizes of one round of each workload.
#[derive(Debug, Clone, Copy)]
struct Size {
    paper_ops: usize,
    open: OpenSize,
    crash_units: usize,
}

const FULL: Size = Size {
    paper_ops: 64,
    open: OpenSize {
        low_requests: 20_000,
        knee_requests: 80_000,
        search_requests: 8_000,
        search_steps: 6,
    },
    crash_units: 2,
};

/// Minimal sizes for the benchmark's own test.
const QUICK: Size = Size {
    paper_ops: 4,
    open: OpenSize {
        low_requests: 1_000,
        knee_requests: 1_000,
        search_requests: 500,
        search_steps: 2,
    },
    crash_units: 1,
};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = FULL;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            size = QUICK;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected paper_sweep, open_loop or crash_sweep"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Simulated results a round produced (compared across rounds).
#[derive(Debug, Clone, PartialEq)]
enum RoundSim {
    Paper(Option<paper::PaperSim>),
    Open(Option<open::OpenSim>),
    Crash { boundaries: u64, classes: u64 },
}

fn run_round(args: &Args, tally: &mut Tally, spans: &mut Spans) -> (RoundHost, RoundSim) {
    match args.workload {
        Workload::PaperSweep => {
            let r = paper::run_round(args.seed, args.size.paper_ops, tally, spans);
            (r.host, RoundSim::Paper(r.sim))
        }
        Workload::OpenLoop => {
            let r = open::run_round(args.seed, args.size.open, tally, spans);
            (r.host, RoundSim::Open(r.sim))
        }
        Workload::CrashSweep => {
            let r = crash::run_round(args.size.crash_units, tally, spans);
            let (boundaries, classes) = (r.boundaries, r.classes);
            (
                r.host,
                RoundSim::Crash {
                    boundaries,
                    classes,
                },
            )
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut untraced_spans = Spans::new(false);
    let mut traced_spans = Spans::new(args.trace);

    // The measured window: whole rounds until `--seconds` have passed; with
    // tracing, untraced and traced rounds alternate.
    let window = Instant::now();
    let mut untraced: Vec<RoundHost> = Vec::new();
    let mut traced: Vec<RoundHost> = Vec::new();
    let mut sims: Vec<RoundSim> = Vec::new();
    while sims.is_empty()
        || window.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced.is_empty())
    {
        let tracing = args.trace && untraced.len() > traced.len();
        let spans = if tracing {
            &mut traced_spans
        } else {
            &mut untraced_spans
        };
        let (host, sim) = run_round(&args, &mut tally, spans);
        eprintln!(
            "round {}: wall {:.3} s, measured {:.3} s, set-up {:.3} s, work {}{}",
            sims.len(),
            host.wall_s,
            host.run_s,
            host.setup_s,
            host.work,
            if tracing { " (traced)" } else { "" }
        );
        if tracing {
            traced.push(host);
        } else {
            untraced.push(host);
        }
        sims.push(sim);
    }
    let rss_mib = peak_rss_mib();
    if let Some(i) = sims.iter().position(|s| *s != sims[0]) {
        tally.problem(format!(
            "{}: round {i} simulated results differ from round 0 under the same seed",
            args.workload.name()
        ));
    }

    // Simulated figures of the parts this workload does not measure, and
    // per-layer numbers of every part when tracing. Their work is checked
    // but not counted in `attempted`.
    let mut side = Tally::default();
    let side_spans = if args.trace {
        &mut traced_spans
    } else {
        &mut untraced_spans
    };
    let paper_sim = match &sims[0] {
        RoundSim::Paper(sim) => sim.clone(),
        _ => paper::run_round(args.seed, args.size.paper_ops, &mut side, side_spans).sim,
    };
    let open_sim = match &sims[0] {
        RoundSim::Open(sim) => sim.clone(),
        _ => open::run_round(args.seed, args.size.open, &mut side, side_spans).sim,
    };
    let crash_counts = match (&sims[0], args.trace) {
        (
            RoundSim::Crash {
                boundaries,
                classes,
            },
            _,
        ) => Some((*boundaries, *classes)),
        (_, true) => {
            let r = crash::run_round(args.size.crash_units, &mut side, side_spans);
            Some((r.boundaries, r.classes))
        }
        (_, false) => None,
    };
    println!(
        "{}: {} rounds, attempted {} {}, failed {}; side runs attempted {}, failed {}",
        args.workload.name(),
        sims.len(),
        tally.attempted,
        args.workload.unit(),
        tally.failed,
        side.attempted,
        side.failed,
    );
    tally.problems.append(&mut side.problems);
    let (Some(paper_sim), Some(open_sim)) = (paper_sim, open_sim) else {
        tally.problem("a simulated figure is missing (see the failed checks above)".to_string());
        return finish(&tally, &[]);
    };

    let metrics = if args.trace {
        let crash_counts = crash_counts.expect("traced runs explore crashes");
        let overhead_pct = (wall(&traced) - wall(&untraced)) / wall(&untraced) * 100.0;
        per_layer(
            &traced_spans,
            overhead_pct,
            &paper_sim,
            &open_sim,
            crash_counts,
        )
    } else {
        end_to_end(&untraced, rss_mib, &paper_sim, &open_sim)
    };
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        tally.check(m.value.is_finite(), || {
            format!("metric {} is not finite", m.name)
        });
    }
    finish(&tally, &metrics)
}

fn finish(tally: &Tally, metrics: &[Metric]) -> ExitCode {
    let correct = tally.problems.is_empty();
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), tally.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Median wall time of `rounds`.
fn wall(rounds: &[RoundHost]) -> f64 {
    median(&rounds.iter().map(|h| h.wall_s).collect::<Vec<_>>())
}

fn end_to_end(
    untraced: &[RoundHost],
    rss_mib: f64,
    paper: &paper::PaperSim,
    open: &open::OpenSim,
) -> Vec<Metric> {
    let setup: Vec<f64> = untraced.iter().map(|h| h.setup_s).collect();
    let rate: Vec<f64> = untraced.iter().map(|h| h.work as f64 / h.run_s).collect();
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mib", rss_mib, "MiB"),
        // The lower quartile, not the median: the shared host runs this
        // cache-bound code up to 1.6x faster in bursts whose share of a run
        // varies from run to run (see README.md).
        metric("host_ops_per_s", quantile(&rate, 0.25), "op/s"),
        metric("sim_speedup", paper.speedup, "x"),
        metric("sim_cc_speedup", paper.cc_speedup, "x"),
        metric("sim_p99_us", open.low.p99_us, "us"),
        metric("sim_p50_knee_us", open.knee.p50_us, "us"),
        metric("sim_p99_knee_us", open.knee.p99_us, "us"),
        metric(
            "sim_goodput_kops",
            open.goodput_point.realized / 1e3,
            "kop/s",
        ),
    ]
}

fn per_layer(
    spans: &Spans,
    overhead_pct: f64,
    paper: &paper::PaperSim,
    open: &open::OpenSim,
    (boundaries, classes): (u64, u64),
) -> Vec<Metric> {
    let [logging, checkpointing, shadow] = paper.cc_speedup_by_mech;
    vec![
        metric("core.build_ms", spans.median_s("core.build") * 1e3, "ms"),
        metric("workloads.op_us", spans.mean_s("workloads.op") * 1e6, "us"),
        metric(
            "core.final_report_ms",
            spans.median_s("core.final_report") * 1e3,
            "ms",
        ),
        metric(
            "workloads.open_loop_point_s",
            spans.median_s("workloads.open_loop_point"),
            "s",
        ),
        metric("sim.tasks_per_op", paper.tasks_per_op, "task/op"),
        metric("ppo.events_per_op", paper.events_per_op, "event/op"),
        metric(
            "core.system_new_ms",
            spans.median_s("core.system_new") * 1e3,
            "ms",
        ),
        metric(
            "pm.device_image_ms",
            spans.median_s("pm.device_image") * 1e3,
            "ms",
        ),
        metric(
            "pm.write_log_replay_ms",
            spans.median_s("pm.write_log_replay") * 1e3,
            "ms",
        ),
        metric(
            "workloads.explore_cell_s",
            spans.median_s("workloads.explore_cell"),
            "s",
        ),
        metric("workloads.crash_boundaries", boundaries as f64, "count"),
        metric("workloads.crash_classes", classes as f64, "count"),
        metric("core.cc_share_baseline", paper.cc_share_baseline, "ratio"),
        metric("core.overlap_fraction", paper.overlap_fraction, "ratio"),
        metric("cc.logging.cc_speedup", logging, "x"),
        metric("cc.checkpointing.cc_speedup", checkpointing, "x"),
        metric("cc.shadow_paging.cc_speedup", shadow, "x"),
        metric(
            "device.ndp_requests_per_op",
            paper.ndp_requests_per_op,
            "req/op",
        ),
        metric("device.ndp_bytes_per_op", paper.ndp_bytes_per_op, "B/op"),
        metric(
            "pm.bytes_written_per_op",
            paper.pm_bytes_written_per_op,
            "B/op",
        ),
        metric(
            "workloads.admission_wait_us",
            open.knee.admission_wait_us,
            "us",
        ),
        metric(
            "device.fifo_high_watermark",
            open.knee.fifo_high_watermark as f64,
            "count",
        ),
        metric("device.fifo_stalls", open.knee.fifo_stalls as f64, "count"),
        metric(
            "device.unit_util_mean",
            open.goodput_point.unit_util_mean,
            "ratio",
        ),
        metric(
            "workloads.max_backlog",
            open.goodput_point.max_backlog as f64,
            "count",
        ),
        metric("bench.trace_overhead_pct", overhead_pct, "%"),
    ]
}
