//! `paper_sweep`: the Figure 15/16 configuration as a closed loop with one
//! client — every Table-4 workload × logging/checkpointing/shadow paging ×
//! {CPU baseline, NearPM MD}, `ops` operations per run.
//!
//! Many short runs make per-run system construction and the
//! `cc` → `core` → `device` operation path dominate host time; the PPO
//! checker sees only short traces, folded once per run.

use std::time::{Duration, Instant};

use nearpm_cc::Mechanism;
use nearpm_core::{ExecMode, RunReport};
use nearpm_workloads::{RunOptions, Runner, Workload};

use crate::stats::{geomean, mean, RoundHost, Spans, Tally};

/// Simulated results of one sweep; every field is a pure function of the
/// seed and the operations per run.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperSim {
    /// Geomean MD-over-baseline makespan speedup (Figure 16).
    pub speedup: f64,
    /// Geomean MD-over-baseline CC-region speedup (Figure 15).
    pub cc_speedup: f64,
    /// Geomean CC-region speedup per mechanism, in `Mechanism::all()` order.
    pub cc_speedup_by_mech: [f64; 3],
    /// Mean crash-consistency share of busy time in the baseline (Fig 1a).
    pub cc_share_baseline: f64,
    /// Mean CPU/NDP overlap fraction of the MD runs (Figure 18).
    pub overlap_fraction: f64,
    /// Task-graph tasks per operation, over every run.
    pub tasks_per_op: f64,
    /// PPO trace events per operation, over every run.
    pub events_per_op: f64,
    /// NearPM device requests per operation in the MD runs.
    pub ndp_requests_per_op: f64,
    /// Bytes moved by NearPM devices per operation in the MD runs.
    pub ndp_bytes_per_op: f64,
    /// PM bytes written per operation in the MD runs.
    pub pm_bytes_written_per_op: f64,
}

/// One sweep: its simulated results and the host time it took. The host
/// work is the operations after each run's first, timed from that first
/// operation's completion to the run's return.
#[derive(Debug)]
pub struct PaperRound {
    pub sim: Option<PaperSim>,
    pub host: RoundHost,
}

/// Runs one sweep with workload seed `seed`, checking every final report
/// against the naive recompute and for PPO violations.
pub fn run_round(seed: u64, ops: usize, tally: &mut Tally, spans: &mut Spans) -> PaperRound {
    let round_start = Instant::now();
    let mut host = RoundHost::default();
    let mut ops_done = 0u64;
    // (baseline, MD) report pairs, in (workload, mechanism) order.
    let mut pairs: Vec<(Mechanism, RunReport, RunReport)> = Vec::new();
    let (mut tasks, mut events) = (0u64, 0u64);
    for workload in Workload::all() {
        for mech in Mechanism::all() {
            let mut pair: [Option<RunReport>; 2] = [None, None];
            for (slot, mode) in [ExecMode::CpuBaseline, ExecMode::NearPmMd]
                .into_iter()
                .enumerate()
            {
                tally.attempted += ops as u64;
                let runner =
                    Runner::new(workload, RunOptions::new(mode, mech, ops).with_seed(seed));
                let label = || format!("{}/{}/{}", workload.name(), mech.label(), mode.label());
                let start = Instant::now();
                let mut first_op: Option<Duration> = None;
                let mut last_op = start;
                let traced = spans.enabled();
                let result = runner.run_with_system_observed(|_, done| {
                    if done == 1 {
                        first_op = Some(start.elapsed());
                    }
                    if traced {
                        let now = Instant::now();
                        if done > 1 {
                            spans.record("workloads.op", now - last_op);
                        }
                        last_op = now;
                    }
                });
                let elapsed = start.elapsed();
                let (report, sys) = match result {
                    Ok(r) => r,
                    Err(e) => {
                        tally.failed += ops as u64;
                        tally.problem(format!("paper_sweep {}: run failed: {e}", label()));
                        continue;
                    }
                };
                let setup = first_op.unwrap_or(elapsed);
                host.setup_s += setup.as_secs_f64();
                spans.record("core.build", setup);
                spans.record(
                    "core.final_report",
                    elapsed.saturating_sub(last_op.duration_since(start)),
                );

                let oracle_ok = report == sys.report_oracle();
                let clean = report.ppo_violations.is_empty();
                if !(oracle_ok && clean) {
                    tally.failed += ops as u64;
                    tally.problem(format!(
                        "paper_sweep {}: report equals naive recompute: {oracle_ok}, \
                         PPO violations: {}",
                        label(),
                        report.ppo_violations.len()
                    ));
                    continue;
                }
                ops_done += ops as u64;
                host.work += ops as u64 - 1;
                host.run_s += (elapsed - setup).as_secs_f64();
                tasks += sys.task_count() as u64;
                events += report.trace_events as u64;
                pair[slot] = Some(report);
            }
            if let [Some(base), Some(md)] = pair {
                pairs.push((mech, base, md));
            }
        }
    }
    host.wall_s = round_start.elapsed().as_secs_f64();
    let complete = pairs.len() == Workload::all().len() * Mechanism::all().len();
    PaperRound {
        sim: complete.then(|| summarize(&pairs, tasks, events, ops_done)),
        host,
    }
}

fn summarize(
    pairs: &[(Mechanism, RunReport, RunReport)],
    tasks: u64,
    events: u64,
    ops: u64,
) -> PaperSim {
    let speedups: Vec<f64> = pairs.iter().map(|(_, b, m)| m.speedup_over(b)).collect();
    let cc: Vec<f64> = pairs.iter().map(|(_, b, m)| m.cc_speedup_over(b)).collect();
    let by_mech = Mechanism::all().map(|mech| {
        let v: Vec<f64> = pairs
            .iter()
            .filter(|(m, _, _)| *m == mech)
            .map(|(_, b, md)| md.cc_speedup_over(b))
            .collect();
        geomean(&v)
    });
    let md_ops = ops as f64 / 2.0;
    let md_sum = |f: fn(&RunReport) -> u64| pairs.iter().map(|(_, _, m)| f(m)).sum::<u64>() as f64;
    PaperSim {
        speedup: geomean(&speedups),
        cc_speedup: geomean(&cc),
        cc_speedup_by_mech: by_mech,
        cc_share_baseline: mean(
            &pairs
                .iter()
                .map(|(_, b, _)| b.cc_fraction())
                .collect::<Vec<_>>(),
        ),
        overlap_fraction: mean(
            &pairs
                .iter()
                .map(|(_, _, m)| m.overlap_fraction)
                .collect::<Vec<_>>(),
        ),
        tasks_per_op: tasks as f64 / ops as f64,
        events_per_op: events as f64 / ops as f64,
        ndp_requests_per_op: md_sum(|r| r.ndp_requests) / md_ops,
        ndp_bytes_per_op: md_sum(|r| r.ndp_bytes_moved) / md_ops,
        pm_bytes_written_per_op: md_sum(|r| r.pm_traffic.bytes_written) / md_ops,
    }
}
