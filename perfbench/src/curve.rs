//! `duplex_curve`: the paper's full duplex + scrubbing + permanent-fault
//! system at the largest code that solves in seconds, evaluated as a
//! 25-point BER curve. Layers: `core` → `models` → `ctmc`.

use crate::stats::{fingerprint, median, median_of, metric, peak_rss_mb, timed, Metric};
use crate::{histogram, Outcome};
use rsmem::experiments::{run_with, ExperimentId};
use rsmem::units::{ErasureRate, SeuRate, Time, TimeGrid};
use rsmem::{CodeParams, DuplexModel, MemoryModel, MemorySystem, Parallelism, Scrubbing};
use rsmem_ctmc::uniformization::{transient_grid, UniformizationOptions};
use rsmem_ctmc::StateSpace;
use rsmem_models::DuplexState;
use std::hint::black_box;

const POINTS: usize = 25;
const HORIZON_HOURS: f64 = 48.0;
/// Size of the explored chain; a change here is a change of model.
const STATES: usize = 24_151;
const NNZ: usize = 227_453;
/// FNV-1a of the 25 BER values' bits.
const CURVE_FINGERPRINT: u64 = 0xaf28_b896_8706_557b;
/// Set-ups timed before the first curve, and after each curve: spread
/// over the whole run, so their median sees the same machine as the
/// curves' median.
const SETUPS_FIRST: usize = 5;
const SETUPS_PER_JOB: usize = 4;

fn system() -> Result<MemorySystem, String> {
    let code = CodeParams::new(28, 16, 8).map_err(|e| e.to_string())?;
    Ok(MemorySystem::duplex(code)
        .with_seu_rate(SeuRate::per_bit_day(1.7e-5))
        .with_erasure_rate(ErasureRate::per_symbol_day(1e-6))
        .with_scrubbing(Scrubbing::every_seconds(900.0)))
}

/// The model `MemorySystem::ber_curve` builds for [`system`].
fn model(system: &MemorySystem) -> DuplexModel {
    DuplexModel::new(system.code(), system.rates(), system.scrubbing())
}

fn times() -> Vec<Time> {
    TimeGrid::linspace(Time::zero(), Time::from_hours(HORIZON_HOURS), POINTS)
        .points()
        .to_vec()
}

fn explore(system: &MemorySystem) -> Result<StateSpace<DuplexState>, String> {
    let space = StateSpace::explore(&model(system)).map_err(|e| e.to_string())?;
    if space.len() != STATES || space.rates().nnz() != NNZ {
        return Err(format!(
            "explored {} states and {} nonzeros, expected {STATES} and {NNZ}",
            space.len(),
            space.rates().nnz()
        ));
    }
    Ok(space)
}

fn check_curve(ber: &[f64]) -> Result<(), String> {
    let got = fingerprint(ber);
    if got != CURVE_FINGERPRINT {
        return Err(format!(
            "curve fingerprint {got:#018x}, expected {CURVE_FINGERPRINT:#018x}"
        ));
    }
    Ok(())
}

/// One full curve through the public façade.
fn curve(system: &MemorySystem, times: &[Time]) -> Result<f64, String> {
    let (curve, secs) = timed(|| system.ber_curve(black_box(times)));
    check_curve(&curve.map_err(|e| e.to_string())?.ber)?;
    Ok(secs)
}

/// End-to-end run: set-up = building the system and exploring its
/// chain once; the timed job = one `ber_curve` call.
pub fn run(seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut setup = |count: usize| -> Result<(), String> {
        for _ in 0..count {
            let (space, secs) = timed(|| system().and_then(|s| explore(&s)));
            black_box(space?);
            setups.push(secs);
        }
        Ok(())
    };
    setup(SETUPS_FIRST)?;
    let system = system()?;
    let times = times();
    let mut jobs = Vec::new();
    let started = std::time::Instant::now();
    while jobs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        jobs.push(curve(&system, &times)?);
        setup(SETUPS_PER_JOB)?;
    }
    let job_s = median_of("job", &jobs);
    Ok(Outcome {
        attempted: jobs.len() as u64,
        failed: 0,
        metrics: vec![
            metric("setup_s", median_of("setup", &setups), "s"),
            metric("peak_rss_mb", peak_rss_mb("self")?, "MB"),
            metric("job_p50_ms", job_s * 1e3, "ms"),
            metric(
                "work_per_s",
                (POINTS * jobs.len()) as f64 / jobs.iter().sum::<f64>(),
                "1/s",
            ),
        ],
    })
}

/// The curve through `StateSpace::explore` + `transient_grid` called
/// directly; it must give the façade's vector bit for bit.
struct Split {
    space: StateSpace<DuplexState>,
    explore_s: f64,
    uniformization_s: f64,
}

fn split(system: &MemorySystem, days: &[f64]) -> Result<Split, String> {
    let (space, explore_s) = timed(|| explore(system));
    let space = space?;
    let (grid, uniformization_s) =
        timed(|| transient_grid(&space, black_box(days), &UniformizationOptions::default()));
    let grid = grid.map_err(|e| e.to_string())?;
    let model = model(system);
    let fail = space
        .index_of(&model.fail_state())
        .ok_or("the Fail state was never reached")?;
    let prefactor = model.code_params().ber_prefactor();
    let ber: Vec<f64> = grid.iter().map(|p| prefactor * p[fail]).collect();
    check_curve(&ber)?;
    Ok(Split {
        space,
        explore_s,
        uniformization_s,
    })
}

/// Summed time of every profiler node `(target, name)`, in seconds.
fn span_s(nodes: &[rsmem_obs::profile::SnapNode], target: &str, name: &str) -> f64 {
    nodes
        .iter()
        .map(|n| {
            let own = if n.target == target && n.name == name {
                n.total_us as f64 / 1e6
            } else {
                0.0
            };
            own + span_s(&n.children, target, name)
        })
        .sum()
}

/// Per-layer run: the split path timed directly, then the façade call
/// with the span profiler on. The façade's own spans divide its time
/// within one call (`ber_curve` minus its `transient_grid` child), which
/// the machine's drift between two separately timed calls cannot blur.
/// With `profiled`, the façade call is repeated with the profiler off
/// and the ratio returned.
pub fn trace(profiled: bool) -> Result<(Vec<Metric>, Option<f64>), String> {
    let system = system()?;
    let times = times();
    let days: Vec<f64> = times.iter().map(|t| t.as_days()).collect();

    let (terms_count0, terms_sum0) = histogram("rsmem_solver_uniformization_terms");
    let Split {
        space,
        explore_s,
        uniformization_s,
    } = split(&system, &days)?;
    let (terms_count1, terms_sum1) = histogram("rsmem_solver_uniformization_terms");

    rsmem_obs::profile::reset();
    rsmem_obs::profile::set_enabled(true);
    let curve_s = curve(&system, &times);
    rsmem_obs::profile::set_enabled(false);
    let curve_s = curve_s?;
    let roots = rsmem_obs::profile::snapshot().roots;
    let ber_curve_s = span_s(&roots, "core.system", "ber_curve");
    let grid_s = span_s(&roots, "ctmc.uniformization", "transient_grid");
    if ber_curve_s == 0.0 || grid_s == 0.0 {
        return Err("the profiler saw no ber_curve or transient_grid span".into());
    }
    let unattributed_s = ber_curve_s - grid_s - explore_s;

    let overhead = if profiled {
        Some(curve_s / curve(&system, &times)?)
    } else {
        None
    };

    // Series lengths are observed once per time point; t = 0 observes 0.
    let moving_points = days.iter().filter(|&&d| d > 0.0).count() as f64;
    if terms_count1 - terms_count0 != POINTS as u64 {
        return Err("uniformization terms histogram did not see every point".into());
    }
    let terms = (terms_sum1 - terms_sum0) / moving_points;
    let lambda_t = space.max_exit_rate() * days.last().copied().unwrap_or(0.0);
    let (n, nnz) = (space.len() as f64, space.rates().nnz() as f64);
    // Bytes one term touches, computed from the sizes (not measured):
    // the transposed CSR (f64 value + usize column per nonzero, one
    // usize row pointer per state), the gathered v[i] per nonzero, then
    // per state v[j], the exit rate and the write of next[j]; and for
    // each time point still accumulating, read + write of its
    // accumulator row and a read of v.
    let matvec_bytes = nnz * (8.0 + 8.0 + 8.0) + (n + 1.0) * 8.0 + n * 3.0 * 8.0;
    let accumulate_bytes = moving_points * n * 3.0 * 8.0;
    let metrics = vec![
        metric("ctmc.explore_s", explore_s, "s"),
        metric("ctmc.states", n, "count"),
        metric("ctmc.nnz", nnz, "count"),
        metric("ctmc.uniformization_s", uniformization_s, "s"),
        metric("ctmc.terms", terms, "count"),
        metric("ctmc.lambda_t", lambda_t, "1"),
        metric("ctmc.terms_per_lambda_t", terms / lambda_t, "ratio"),
        metric(
            "ctmc.ns_per_nnz_term",
            uniformization_s * 1e9 / (terms * nnz),
            "ns",
        ),
        metric(
            "ctmc.bytes_per_term_computed",
            matvec_bytes + accumulate_bytes,
            "bytes",
        ),
        metric("core.curve_s", curve_s, "s"),
        metric("core.unattributed_s", unattributed_s, "s"),
        metric(
            "unattributed.duplex_curve",
            unattributed_s / ber_curve_s,
            "ratio",
        ),
        metric("core.figures_ms", figures_s()? * 1e3, "ms"),
    ];
    Ok((metrics, overhead))
}

/// fig5–fig10 regenerated serially, as `GET /v1/experiments/*` does on
/// a cache miss (median of three passes).
fn figures_s() -> Result<f64, String> {
    let ids = &ExperimentId::ALL[..6];
    let mut passes = Vec::new();
    for _ in 0..3 {
        let (out, secs) = timed(|| {
            ids.iter()
                .map(|&id| run_with(id, &Parallelism::Serial).map(black_box))
                .collect::<Result<Vec<_>, _>>()
        });
        out.map_err(|e| e.to_string())?;
        passes.push(secs);
    }
    Ok(median(&passes))
}
