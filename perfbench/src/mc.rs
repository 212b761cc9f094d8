//! `mc_scrub` and `mc_readback`: duplex RS(36,16) Monte-Carlo campaigns
//! on one thread. Layers: `core` → `sim` → `codes` → `code` → `gf`.
//!
//! `mc_scrub` spends its time in per-scrub scalar decodes and fault
//! injection; `mc_readback` has no scrub, so the final batched read-back
//! decode (the bulk GF(2^8) plane plus escalation of dirty words)
//! carries the time.

use crate::stats::{median, median_of, metric, peak_rss_mb, timed, Metric, SplitMix64};
use crate::{counter_sum, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsmem::units::{SeuRate, Time};
use rsmem::{CodeParams, MemorySystem, MonteCarloReport, Parallelism, ScrubTiming, Scrubbing};
use rsmem_code::{BatchDecoder, DecodeOpts, RsCode, Symbol, SyndromeBatch};
use rsmem_sim::runner::SHARD_TRIALS;
use rsmem_sim::{DuplexSim, SimConfig, TrialOutcome};
use std::hint::black_box;

/// One campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    pub name: &'static str,
    seu_per_bit_day: f64,
    scrub_s: Option<f64>,
    trials: usize,
    /// `(correct, silent, detected)` at seed 42.
    pinned_42: (usize, usize, usize),
}

pub const SCRUB: Campaign = Campaign {
    name: "mc_scrub",
    seu_per_bit_day: 4e-1,
    scrub_s: Some(3600.0),
    trials: 5_000,
    pinned_42: (4_903, 0, 97),
};

pub const READBACK: Campaign = Campaign {
    name: "mc_readback",
    seu_per_bit_day: 1.5e-2,
    scrub_s: None,
    trials: 100_000,
    pinned_42: (98_598, 0, 1_402),
};

const STORE_DAYS: f64 = 2.0;
/// Set-ups timed before the first campaign, and after each campaign:
/// spread over the whole run, so their median sees the same machine as
/// the campaigns' median.
const SETUPS_FIRST: usize = 5;
const SETUPS_PER_JOB: usize = 2;
/// Shards replayed through the scalar per-trial path as an oracle.
const ORACLE_SHARDS: usize = 4;

fn code() -> CodeParams {
    CodeParams::rs36_16()
}

impl Campaign {
    fn system(&self) -> MemorySystem {
        let system =
            MemorySystem::duplex(code()).with_seu_rate(SeuRate::per_bit_day(self.seu_per_bit_day));
        match self.scrub_s {
            Some(s) => system.with_scrubbing(Scrubbing::every_seconds(s)),
            None => system,
        }
    }

    fn run(
        &self,
        system: &MemorySystem,
        trials: usize,
        seed: u64,
        par: &Parallelism,
    ) -> Result<MonteCarloReport, String> {
        system
            .monte_carlo_with(
                Time::from_days(STORE_DAYS),
                trials,
                seed,
                ScrubTiming::Periodic,
                par,
            )
            .map_err(|e| e.to_string())
    }

    /// Mean symbol-bit flips one module word collects between two
    /// decodes: one scrub period, or the whole storage time.
    fn flips_per_decode(&self) -> f64 {
        let days = self.scrub_s.map_or(STORE_DAYS, |s| s / 86_400.0);
        let c = code();
        self.seu_per_bit_day * f64::from(c.m()) * c.n() as f64 * days
    }
}

fn counts(report: &MonteCarloReport) -> (usize, usize, usize) {
    (report.correct, report.silent, report.detected)
}

/// The runner's per-shard RNG seed (SplitMix64 of `(seed, shard)`),
/// restated so the scalar oracle replays exactly the campaign's trials.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `shards` shards of a campaign replayed trial by trial
/// through `DuplexSim::run_trial`, which decodes with the scalar decoder
/// instead of the batch plane.
fn scalar_oracle(
    campaign: &Campaign,
    seed: u64,
    shards: usize,
) -> Result<(usize, usize, usize), String> {
    let c = code();
    let config = SimConfig {
        n: c.n(),
        k: c.k(),
        m: c.m(),
        family: c.family(),
        depth: 1,
        seu_per_bit_day: campaign.seu_per_bit_day,
        erasure_per_symbol_day: 0.0,
        scrub: campaign
            .scrub_s
            .map(|s| (s / 86_400.0, ScrubTiming::Periodic)),
        store_days: STORE_DAYS,
    };
    let sim = DuplexSim::new(config).map_err(|e| e.to_string())?;
    let mut tally = (0, 0, 0);
    for shard in 0..shards {
        let mut rng = StdRng::seed_from_u64(shard_seed(seed, shard as u64));
        for _ in 0..SHARD_TRIALS {
            match sim.run_trial(&mut rng) {
                TrialOutcome::Correct => tally.0 += 1,
                TrialOutcome::SilentCorruption => tally.1 += 1,
                TrialOutcome::Detected => tally.2 += 1,
            }
        }
    }
    Ok(tally)
}

fn check_counts(campaign: &Campaign, seed: u64, got: (usize, usize, usize)) -> Result<(), String> {
    if got.0 + got.1 + got.2 != campaign.trials {
        return Err(format!(
            "{got:?} does not add up to {} trials",
            campaign.trials
        ));
    }
    if seed == 42 && got != campaign.pinned_42 {
        return Err(format!("counts {got:?}, pinned {:?}", campaign.pinned_42));
    }
    Ok(())
}

/// Output checks made after the timed phase: pinned counts at seed 42,
/// the same counts at two threads, and the batch path agreeing with the
/// scalar per-trial oracle on a prefix of the campaign.
fn check(
    campaign: &Campaign,
    system: &MemorySystem,
    seed: u64,
    got: (usize, usize, usize),
) -> Result<(), String> {
    check_counts(campaign, seed, got)?;
    let two = campaign.run(system, campaign.trials, seed, &Parallelism::threads(2))?;
    if counts(&two) != got {
        return Err(format!(
            "two threads gave {:?}, one gave {got:?}",
            counts(&two)
        ));
    }
    let prefix = campaign.run(
        system,
        ORACLE_SHARDS * SHARD_TRIALS,
        seed,
        &Parallelism::Serial,
    )?;
    let oracle = scalar_oracle(campaign, seed, ORACLE_SHARDS)?;
    if counts(&prefix) != oracle {
        return Err(format!(
            "batch campaign prefix {:?} differs from the scalar oracle {oracle:?}",
            counts(&prefix)
        ));
    }
    Ok(())
}

/// End-to-end run: set-up = building the system and running a warm-up
/// campaign of a twentieth of the trials (in whole shards); the timed
/// job = one whole campaign.
pub fn run(campaign: &Campaign, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let warmup = (campaign.trials / 20).div_ceil(SHARD_TRIALS) * SHARD_TRIALS;
    let mut setups = Vec::new();
    let mut setup = |count: usize| -> Result<(), String> {
        for _ in 0..count {
            let (warm, secs) =
                timed(|| campaign.run(&campaign.system(), warmup, seed, &Parallelism::Serial));
            black_box(warm?);
            setups.push(secs);
        }
        Ok(())
    };
    setup(SETUPS_FIRST)?;
    let system = campaign.system();
    let mut jobs = Vec::new();
    let mut first = None;
    let started = std::time::Instant::now();
    while jobs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (report, secs) =
            timed(|| campaign.run(&system, campaign.trials, seed, &Parallelism::Serial));
        let got = counts(&report?);
        if *first.get_or_insert(got) != got {
            return Err(format!(
                "repeated campaign gave {got:?}, first gave {first:?}"
            ));
        }
        jobs.push(secs);
        setup(SETUPS_PER_JOB)?;
    }
    let rss = peak_rss_mb("self")?;
    check(
        campaign,
        &system,
        seed,
        first.expect("at least one campaign ran"),
    )?;
    Ok(Outcome {
        attempted: jobs.len() as u64,
        failed: 0,
        metrics: vec![
            metric("setup_s", median_of("setup", &setups), "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("job_p50_ms", median_of("job", &jobs) * 1e3, "ms"),
            metric(
                "work_per_s",
                (campaign.trials * jobs.len()) as f64 / jobs.iter().sum::<f64>(),
                "1/s",
            ),
        ],
    })
}

/// RS(36,16) codewords each hit by a Poisson number of random bit flips
/// with the given mean: the words a campaign's decoder sees.
fn dirty_words(
    rs: &RsCode,
    rng: &mut SplitMix64,
    count: usize,
    mean_flips: f64,
) -> Vec<Vec<Symbol>> {
    (0..count)
        .map(|_| {
            let data: Vec<Symbol> = (0..rs.k()).map(|_| rng.below(256) as Symbol).collect();
            let mut word = rs.encode(&data).expect("k symbols below 2^8");
            for _ in 0..rng.poisson(mean_flips) {
                word[rng.below(rs.n())] ^= 1 << rng.below(8);
            }
            word
        })
        .collect()
}

const PROBE_WORDS: usize = 4_096;
const PROBE_PASSES: usize = 5;

/// Median over passes of the per-word time of `f` on fresh copies of
/// `words` (copying is outside the timed region).
fn per_word_us(
    words: &[Vec<Symbol>],
    mut f: impl FnMut(&mut [Vec<Symbol>]) -> Result<(), String>,
) -> Result<f64, String> {
    let mut passes = Vec::with_capacity(PROBE_PASSES);
    for _ in 0..PROBE_PASSES {
        let mut batch = words.to_vec();
        let (out, secs) = timed(|| f(&mut batch));
        out?;
        passes.push(secs * 1e6 / words.len() as f64);
    }
    Ok(median(&passes))
}

fn decodes() -> u64 {
    counter_sum("rsmem_decode_outcomes_total", &[("family", "rs")])
}

/// Per-layer run for both campaigns: each is run once while the
/// program's own counters are read around it, and the decoder layers
/// are timed directly on words drawn from the campaign's error
/// distribution. With `profiled`, the named campaign is repeated with
/// the span profiler on and the time ratio returned.
pub fn trace(seed: u64, profiled: Option<&Campaign>) -> Result<(Vec<Metric>, Option<f64>), String> {
    let rs = RsCode::new(36, 16, 8).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(seed ^ 0x5eed_c0de);
    let campaign_s = |campaign: &Campaign| -> Result<f64, String> {
        let (report, secs) = timed(|| {
            campaign.run(
                &campaign.system(),
                campaign.trials,
                seed,
                &Parallelism::Serial,
            )
        });
        check_counts(campaign, seed, counts(&report?))?;
        Ok(secs)
    };

    // mc_scrub: decode counts and outcomes from the trait-level
    // counters, arbiter decisions, and the scalar decoder on words with
    // one scrub period's worth of flips.
    let outcome = |o: &str| {
        counter_sum(
            "rsmem_decode_outcomes_total",
            &[("family", "rs"), ("outcome", o)],
        )
    };
    let before = (
        decodes(),
        outcome("clean"),
        outcome("corrected"),
        outcome("failure"),
    );
    let arbiter0 = counter_sum("rsmem_arbiter_decisions_total", &[]);
    let scrub_s = campaign_s(&SCRUB)?;
    let after = (
        decodes(),
        outcome("clean"),
        outcome("corrected"),
        outcome("failure"),
    );
    let arbiter = counter_sum("rsmem_arbiter_decisions_total", &[]) - arbiter0;
    let scrub_decodes = (after.0 - before.0) as f64;
    let scrub_words = dirty_words(&rs, &mut rng, PROBE_WORDS, SCRUB.flips_per_decode());
    let scalar_us = per_word_us(&scrub_words, |batch| {
        for word in batch.iter() {
            black_box(rs.decode(word, &[]).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    let trials = SCRUB.trials as f64;
    let scrub_decode_share = scrub_decodes * scalar_us * 1e-6 / scrub_s;

    // mc_readback: words through the bulk plane, clean vs escalated.
    let path = |p: &str| counter_sum("rsmem_bulk_words_total", &[("path", p)]);
    let (clean0, escalated0) = (path("clean"), path("escalated"));
    let readback_s = campaign_s(&READBACK)?;
    let (clean, escalated) = (path("clean") - clean0, path("escalated") - escalated0);
    let readback_words = dirty_words(&rs, &mut rng, PROBE_WORDS, READBACK.flips_per_decode());
    let mut decoder = BatchDecoder::new();
    let mut outcomes = Vec::new();
    let batch_us = per_word_us(&readback_words, |batch| {
        decoder
            .decode_batch(&rs, batch, &[], &DecodeOpts::default(), &mut outcomes)
            .map_err(|e| e.to_string())
    })?;
    let syndromes_us = per_word_us(&readback_words, |batch| {
        black_box(SyndromeBatch::compute(&rs, batch).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let bulk_words = (clean + escalated) as f64;
    let readback_decode_share = bulk_words * batch_us * 1e-6 / readback_s;

    // The profiled repeat runs after every counter read above.
    let overhead = match profiled {
        Some(campaign) => {
            rsmem_obs::profile::set_enabled(true);
            let traced = campaign_s(campaign);
            rsmem_obs::profile::set_enabled(false);
            let untraced = if campaign.name == SCRUB.name {
                scrub_s
            } else {
                readback_s
            };
            Some(traced? / untraced)
        }
        None => None,
    };

    let metrics = vec![
        metric("sim.scrub_campaign_s", scrub_s, "s"),
        metric("code.decodes_per_trial", scrub_decodes / trials, "count"),
        metric(
            "code.decode_outcomes.clean",
            (after.1 - before.1) as f64,
            "count",
        ),
        metric(
            "code.decode_outcomes.corrected",
            (after.2 - before.2) as f64,
            "count",
        ),
        metric(
            "code.decode_outcomes.failed",
            (after.3 - before.3) as f64,
            "count",
        ),
        metric("code.scalar_decode_us", scalar_us, "us"),
        metric("sim.decode_share", scrub_decode_share, "ratio"),
        metric(
            "sim.non_decode_us_per_trial",
            (scrub_s - scrub_decodes * scalar_us * 1e-6) * 1e6 / trials,
            "us",
        ),
        metric(
            "sim.arbiter_decisions_per_trial",
            arbiter as f64 / trials,
            "count",
        ),
        metric("unattributed.mc_scrub", 1.0 - scrub_decode_share, "ratio"),
        metric("sim.readback_campaign_s", readback_s, "s"),
        metric("code.batch_decode_us_per_word", batch_us, "us"),
        metric(
            "code.batch_escalated_ratio",
            escalated as f64 / bulk_words,
            "ratio",
        ),
        metric("gf.syndromes_us_per_word", syndromes_us, "us"),
        // n symbols read and n−k syndromes written per word, as u16.
        metric(
            "gf.syndrome_bytes_per_word_computed",
            ((rs.n() + rs.parity_symbols()) * std::mem::size_of::<Symbol>()) as f64,
            "bytes",
        ),
        metric("sim.readback_decode_share", readback_decode_share, "ratio"),
        metric(
            "unattributed.mc_readback",
            1.0 - readback_decode_share,
            "ratio",
        ),
    ];
    Ok((metrics, overhead))
}
