//! Clean-path overhead of the supervised worker pool.
//!
//! `run_supervised` buys panic isolation (`catch_unwind` per attempt), a
//! watchdog channel, retry bookkeeping and a per-seed completion
//! callback. On a healthy campaign none of that machinery fires, so its
//! cost must be negligible — the robustness acceptance bar is ≤5%
//! overhead versus the plain `run_campaign` pool on the same job.
//!
//! Two job shapes bracket the claim:
//!
//! * `synthetic` — a ~1 ms SplitMix64 spin, small enough that any
//!   per-run fixed cost would show up;
//! * `trigger` — the real case-I emulate→mine job, the shape production
//!   sweeps actually run.
//!
//! Run with: `cargo bench -p sentomist-bench --bench supervised_overhead`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_apps::Mode;
use sentomist_core::campaign::{run_campaign, CampaignOptions, RunOutcome, Verdict};
use sentomist_core::supervise::{adapt_seed_job, run_supervised, SupervisorOptions};
use std::sync::Arc;

/// ~1 ms of seed-dependent integer work with a data-dependent result,
/// so neither pool can skip it.
fn synthetic_job(seed: u64) -> Result<RunOutcome, String> {
    let mut x = seed;
    for _ in 0..200_000 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    Ok(RunOutcome {
        seed,
        samples: (x % 16) as usize,
        symptoms: 0,
        buggy_ranks: vec![],
        verdict: Verdict::Clean,
        trace_digest: format!("{x:016x}"),
        wall_time_ms: 0,
    })
}

fn supervised_overhead(c: &mut Criterion) {
    let seeds: Vec<u64> = (1000..1032).collect();
    let threads = 4;

    let mut group = c.benchmark_group("supervised_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(seeds.len() as u64));

    group.bench_with_input(BenchmarkId::new("synthetic", "plain"), &(), |b, ()| {
        b.iter(|| {
            run_campaign(
                &seeds,
                CampaignOptions {
                    threads,
                    progress: false,
                },
                synthetic_job,
            )
        });
    });
    group.bench_with_input(BenchmarkId::new("synthetic", "supervised"), &(), |b, ()| {
        let job = Arc::new(adapt_seed_job(synthetic_job));
        let opts = SupervisorOptions {
            threads,
            ..SupervisorOptions::default()
        };
        b.iter(|| run_supervised(&seeds, &opts, Arc::clone(&job), |_| {}));
    });

    // The real case-I trigger sweep: emulate + mine per seed, the job
    // shape `campaign` runs in production.
    let trigger_seeds: Vec<u64> = (1000..1008).collect();
    let trigger = Mode::Trigger {
        period: 20,
        seconds: 1,
        nu: 0.05,
    };
    let plain_job = trigger.job().expect("oscilloscope assembles");
    group.bench_with_input(BenchmarkId::new("trigger", "plain"), &(), |b, ()| {
        b.iter(|| {
            run_campaign(
                &trigger_seeds,
                CampaignOptions {
                    threads,
                    progress: false,
                },
                &plain_job,
            )
        });
    });
    group.bench_with_input(BenchmarkId::new("trigger", "supervised"), &(), |b, ()| {
        let job = Arc::new(adapt_seed_job(
            trigger.job().expect("oscilloscope assembles"),
        ));
        let opts = SupervisorOptions {
            threads,
            ..SupervisorOptions::default()
        };
        b.iter(|| run_supervised(&trigger_seeds, &opts, Arc::clone(&job), |_| {}));
    });

    group.finish();
}

criterion_group!(benches, supervised_overhead);
criterion_main!(benches);
