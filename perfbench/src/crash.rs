//! `crash_sweep`: exhaustive, unpruned crash-point exploration of all four
//! crash-consistency mechanisms, pipelined, on NearPM MD.
//!
//! Every boundary is replayed from a fresh system at the explorer's 32 MiB
//! geometry, crashed, recovered and verified against the uncrashed
//! committed-prefix oracle. Here `pm` does whole-image reads and write-log
//! replay rather than the other workloads' writes, while the simulated runs
//! are tiny and the checker does almost nothing.

use std::time::{Duration, Instant};

use nearpm_core::{ExecMode, NearPmSystem, Region, SystemConfig};
use nearpm_workloads::{explore, CcMech, ExplorerConfig, PipelineMode};

use crate::stats::{RoundHost, Spans, Tally};

const MODE: ExecMode = ExecMode::NearPmMd;
/// The explorer's system capacity (`crashpoint::Driver::new`).
const EXPLORER_CAPACITY: u64 = 32 << 20;
/// The explorer's pool size and application object size.
const EXPLORER_POOL: u64 = 16 << 20;
const EXPLORER_OBJECT: usize = 8192;

/// One round: the boundary and class counts and the host time it took.
/// The host work is the boundaries explored and verified, timed around
/// `explore` (its checks are the work); set-up is one explorer-geometry
/// system construction per cell.
#[derive(Debug)]
pub struct CrashRound {
    /// Boundaries the uncrashed runs passed through.
    pub boundaries: u64,
    /// Equivalence classes over all cells.
    pub classes: u64,
    pub host: RoundHost,
}

fn explorer_system() -> nearpm_core::Result<NearPmSystem> {
    NearPmSystem::try_new(SystemConfig::for_mode(MODE).with_capacity(EXPLORER_CAPACITY))
}

/// Times the `core` and `pm` calls every explored boundary makes, on a
/// system of the explorer's geometry holding the explorer's first write:
/// system construction, a whole-image read of every device, and the
/// write-log replay check.
fn probe_layers(tally: &mut Tally, spans: &mut Spans) {
    let start = Instant::now();
    let mut sys = match explorer_system() {
        Ok(sys) => sys,
        Err(e) => return tally.problem(format!("crash_sweep probe system: {e}")),
    };
    spans.record("core.system_new", start.elapsed());
    sys.enable_media_write_log();
    let written = sys
        .create_pool("crashpoint", EXPLORER_POOL)
        .and_then(|pool| sys.alloc(pool, EXPLORER_OBJECT as u64, 4096))
        .and_then(|obj| {
            sys.cpu_write_persist(0, obj, &[0xA5; EXPLORER_OBJECT], Region::AppPersist)
        });
    if let Err(e) = written {
        return tally.problem(format!("crash_sweep probe write: {e}"));
    }
    let start = Instant::now();
    let bytes: usize = (0..sys.media_count())
        .map(|d| sys.device_image(d).len())
        .sum();
    spans.record("pm.device_image", start.elapsed());
    tally.check(bytes as u64 == EXPLORER_CAPACITY, || {
        format!("crash_sweep probe: device images hold {bytes} bytes")
    });
    let start = Instant::now();
    let replay_ok = sys.verify_write_log_replay();
    spans.record("pm.write_log_replay", start.elapsed());
    tally.check(replay_ok, || {
        "crash_sweep probe: write-log replay diverges".to_string()
    });
}

/// Runs one round: every mechanism's cell at `units` units.
pub fn run_round(units: usize, tally: &mut Tally, spans: &mut Spans) -> CrashRound {
    let start = Instant::now();
    let mut round = CrashRound {
        boundaries: 0,
        classes: 0,
        host: RoundHost::default(),
    };
    for mech in CcMech::ALL {
        let build = Instant::now();
        if let Err(e) = explorer_system() {
            tally.problem(format!(
                "crash_sweep {mech}: system construction failed: {e}"
            ));
        }
        round.host.setup_s += build.elapsed().as_secs_f64();
        if spans.enabled() {
            probe_layers(tally, spans);
        }

        let mut cfg = ExplorerConfig::new(mech, PipelineMode::Pipelined, MODE);
        cfg.units = units;
        let cell = Instant::now();
        let result = explore(&cfg);
        let elapsed: Duration = cell.elapsed();
        spans.record("workloads.explore_cell", elapsed);
        match result {
            Ok(r) => {
                tally.attempted += r.boundaries;
                tally.failed += r.boundaries.saturating_sub(r.verified);
                round.boundaries += r.boundaries;
                round.host.work += r.verified;
                round.classes += r.classes;
                round.host.run_s += elapsed.as_secs_f64();
                if !r.ok() || r.verified != r.boundaries || r.boundaries == 0 {
                    tally.problem(format!("crash_sweep {r}: {:?}", r.failures));
                }
            }
            Err(e) => tally.problem(format!("crash_sweep {mech}: exploration failed: {e}")),
        }
    }
    round.host.wall_s = start.elapsed().as_secs_f64();
    round
}
