//! `open_loop`: memcached under undo logging on NearPM MD, four modeled
//! server threads, seeded Poisson arrivals.
//!
//! A round runs two fixed offered rates — one well below the knee and one
//! just below it (the closed-loop service rate μ is about 1.14 M op/s), the
//! latter with more requests because its tail is the noisier —
//! then bisects over the offered rate for the goodput: the highest rate
//! whose p99 meets [`P99_LIMIT_US`] with no growing backlog. Long runs with
//! window samples and trace compaction make the incremental PPO fold, task
//! graph growth and the device FIFO/decode/issue queueing dominate host
//! time. Latency runs from each request's due arrival instant to its commit
//! retire; arrivals are pinned in simulated time, so the generator never
//! runs late.

use std::time::{Duration, Instant};

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, SimDuration};
use nearpm_sim::exact_percentile;
use nearpm_workloads::{run_open_loop, ArrivalProcess, OpenLoopOptions, OpenLoopReport};
use nearpm_workloads::{RunOptions, Runner, Workload};

use crate::stats::{mean, RoundHost, Spans, Tally};

const WORKLOAD: Workload = Workload::Memcached;
const MECHANISM: Mechanism = Mechanism::Logging;
const MODE: ExecMode = ExecMode::NearPmMd;
const THREADS: usize = 4;
/// Offered rate well below the knee (about 0.26 μ).
pub const LOW_RATE: f64 = 300e3;
/// Offered rate just below the knee (about 0.79 μ).
pub const KNEE_RATE: f64 = 900e3;
/// The p99 a rate must meet to count towards goodput.
pub const P99_LIMIT_US: f64 = 25.0;
/// Lowest delivery (achieved over realized arrival rate) that still counts
/// as a backlog that is not growing.
pub const MIN_DELIVERY: f64 = 0.99;
/// Upper end of the goodput search (above μ).
pub const SEARCH_HIGH: f64 = 1.5e6;
/// Latency windows per rate point.
const WINDOWS: usize = 8;

/// Requests per point and bisection steps of one round.
#[derive(Debug, Clone, Copy)]
pub struct OpenSize {
    pub low_requests: usize,
    pub knee_requests: usize,
    pub search_requests: usize,
    pub search_steps: usize,
}

/// Simulated results of one rate point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSim {
    pub offered: f64,
    /// Requests ÷ last arrival instant.
    pub realized: f64,
    /// Achieved throughput ÷ realized arrival rate.
    pub delivery: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Exact p99 of the last window (a growing backlog shows here first).
    pub last_window_p99_us: f64,
    pub max_backlog: usize,
    pub admission_wait_us: f64,
    pub fifo_high_watermark: usize,
    pub fifo_stalls: u64,
    pub unit_util_mean: f64,
}

impl PointSim {
    /// Meets the p99 limit, overall and in the last window, and delivers
    /// the realized arrival rate.
    pub fn meets_limit(&self) -> bool {
        self.p99_us <= P99_LIMIT_US
            && self.last_window_p99_us <= P99_LIMIT_US
            && self.delivery >= MIN_DELIVERY
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct OpenSim {
    pub low: PointSim,
    pub knee: PointSim,
    /// The highest-rate point that met the limit; the goodput is its
    /// realized arrival rate.
    pub goodput_point: PointSim,
}

/// One round: its simulated results and the host time it took. The host
/// work is the requests of every rate point, timed around `run_open_loop`.
#[derive(Debug)]
pub struct OpenRound {
    pub sim: Option<OpenSim>,
    pub host: RoundHost,
}

/// Checks one point's report and reads its simulated results; `None` (with
/// the problem recorded) if a check fails.
fn point_sim(offered: f64, r: &OpenLoopReport, tally: &mut Tally) -> Option<PointSim> {
    let n = r.operations;
    let label = format!("open_loop @ {offered:.0} op/s");
    let mut all: Vec<SimDuration> = Vec::with_capacity(n);
    let mut ok = true;
    for (i, w) in r.windows.iter().enumerate() {
        if w.matches_exact_oracle() != Some(true) {
            tally.problem(format!(
                "{label}: window {i} percentiles differ from the exact oracle"
            ));
            ok = false;
        }
        if !w.report.ppo_violations.is_empty() {
            tally.problem(format!("{label}: window {i} has PPO violations"));
            ok = false;
        }
        all.extend(w.exact.iter().flatten());
    }
    let recorded = r.report.request_latency.as_ref().map_or(0, |l| l.count);
    if all.len() != n || recorded != n as u64 || r.hist.count() != n as u64 {
        tally.problem(format!(
            "{label}: {n} requests issued, {} in windows, {recorded} recorded",
            all.len()
        ));
        ok = false;
    }
    if !r.report.ppo_violations.is_empty() {
        tally.problem(format!(
            "{label}: {} PPO violations",
            r.report.ppo_violations.len()
        ));
        ok = false;
    }
    if !ok || n == 0 {
        return None;
    }
    let last = r
        .windows
        .last()
        .and_then(|w| w.exact.clone())
        .unwrap_or_default();
    let percentiles = |mut v: Vec<SimDuration>| {
        v.sort_unstable();
        (exact_percentile(&v, 0.5), exact_percentile(&v, 0.99))
    };
    let (p50, p99) = percentiles(all);
    let (_, last_p99) = percentiles(last);
    let realized = n as f64 / (r.last_arrival.as_ps() as f64 / 1e12);
    let util: Vec<f64> = r
        .report
        .ndp_unit_utilization
        .iter()
        .map(|(_, u)| *u)
        .collect();
    Some(PointSim {
        offered,
        realized,
        delivery: r.achieved_ops_per_s / realized,
        p50_us: p50.as_us(),
        p99_us: p99.as_us(),
        last_window_p99_us: last_p99.as_us(),
        max_backlog: r.max_backlog,
        admission_wait_us: r.mean_admission_wait.as_us(),
        fifo_high_watermark: r.report.fifo_high_watermark,
        fifo_stalls: r.report.fifo_stalls,
        unit_util_mean: mean(&util),
    })
}

/// Host seconds to build and set up the same system `run_open_loop` builds
/// for a point, up to its first completed request. `run_open_loop` returns
/// no hook before its end, so the runner is driven with the identical
/// options for one request instead.
fn setup_time(seed: u64, tally: &mut Tally) -> Duration {
    let options = RunOptions::new(MODE, MECHANISM, 1)
        .with_threads(THREADS)
        .with_seed(seed)
        .with_latency_tracking(true)
        .with_trace_compaction(true);
    let start = Instant::now();
    let mut first = None;
    let result = Runner::new(WORKLOAD, options)
        .run_with_system_observed(|_, _| first = first.or(Some(start.elapsed())));
    if let Err(e) = result {
        tally.problem(format!("open_loop set-up run failed: {e}"));
    }
    first.unwrap_or_else(|| start.elapsed())
}

fn run_point(
    offered: f64,
    requests: usize,
    seed: u64,
    host: &mut RoundHost,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Option<PointSim> {
    host.setup_s += setup_time(seed, tally).as_secs_f64();

    tally.attempted += requests as u64;
    let options = OpenLoopOptions::new(
        WORKLOAD,
        MECHANISM,
        ArrivalProcess::poisson(offered),
        requests,
    )
    .with_mode(MODE)
    .with_threads(THREADS)
    .with_seed(seed)
    .with_windows(WINDOWS)
    .with_exact_oracle(true)
    .with_trace_compaction(true);
    let start = Instant::now();
    let result = run_open_loop(&options);
    let elapsed = start.elapsed();
    spans.record("workloads.open_loop_point", elapsed);
    let sim = match result {
        Ok(report) => point_sim(offered, &report, tally),
        Err(e) => {
            tally.problem(format!("open_loop @ {offered:.0} op/s: run failed: {e}"));
            None
        }
    };
    if sim.is_some() {
        host.work += requests as u64;
        host.run_s += elapsed.as_secs_f64();
    } else {
        tally.failed += requests as u64;
    }
    sim
}

/// Runs one round: the two fixed rates and the goodput bisection.
pub fn run_round(seed: u64, size: OpenSize, tally: &mut Tally, spans: &mut Spans) -> OpenRound {
    let start = Instant::now();
    let mut host = RoundHost::default();
    let low = run_point(LOW_RATE, size.low_requests, seed, &mut host, tally, spans);
    let knee = run_point(KNEE_RATE, size.knee_requests, seed, &mut host, tally, spans);

    // Bisection keeps `lo` passing and `hi` failing (or untested).
    let mut best = low.clone().filter(PointSim::meets_limit);
    let (mut lo, mut hi) = (best.as_ref().map_or(0.0, |p| p.offered), SEARCH_HIGH);
    let mut search_ok = true;
    for _ in 0..size.search_steps {
        let mid = (lo + hi) / 2.0;
        match run_point(mid, size.search_requests, seed, &mut host, tally, spans) {
            Some(p) if p.meets_limit() => {
                lo = mid;
                best = Some(p);
            }
            Some(_) => hi = mid,
            None => {
                search_ok = false;
                break;
            }
        }
    }
    host.wall_s = start.elapsed().as_secs_f64();
    let sim = match (low, knee, best, search_ok) {
        (Some(low), Some(knee), Some(goodput_point), true) => Some(OpenSim {
            low,
            knee,
            goodput_point,
        }),
        _ => None,
    };
    OpenRound { sim, host }
}
