//! Equivalence suite for the dense `FeatureMatrix` refactor: the matrix
//! pipeline must reproduce the ragged seed implementation's `Report`
//! rankings *byte for byte* — same sample order, same `f64` score bit
//! patterns — on all three case studies and on a 16-seed trigger
//! campaign's serialized JSON document.
//!
//! The golden digests below were captured from the pre-refactor
//! (`Vec<Vec<f64>>`-based) implementation at the seed commit; any change
//! to the numeric path that alters even one ULP of one score, or one
//! tie-break in the ranking, changes the digest. To re-capture after an
//! *intentional* numeric change, run with
//! `EQUIV_CAPTURE=1 cargo test -p sentomist-apps --test equivalence_matrix -- --nocapture`
//! and paste the printed values.
//!
//! The later pins (multi-node case I, the emulator-fidelity outcomes and
//! the supervised trigger path) guard paths that share their emulation
//! and harvest code with the case studies; they were captured from the
//! code as it stood before that code was merged.

use sentomist_apps::experiments::{
    run_case1_multinode, run_fidelity, Case1MultiConfig, FidelityOutcome,
};
use sentomist_apps::{
    run_case1, run_case2, run_case3, Case1Config, Case2Config, Case3Config, CaseResult, Mode,
};
use sentomist_core::campaign::{run_campaign, CampaignOptions};
use sentomist_core::supervise::{run_supervised, RunContext, SupervisorOptions};
use sentomist_core::Report;
use std::sync::Arc;
use tinyvm::TimingModel;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a full ranking: every entry's index label and the exact bit
/// pattern of its normalized score, in rank order.
fn report_digest(report: &Report) -> String {
    let mut h = Fnv::new();
    h.update(report.detector.as_bytes());
    for r in &report.ranking {
        h.update(r.index.to_string().as_bytes());
        h.update(&r.score.to_bits().to_le_bytes());
    }
    h.hex()
}

fn case_digest(result: &CaseResult) -> String {
    let mut h = Fnv::new();
    h.update(report_digest(&result.report).as_bytes());
    h.update(&(result.sample_count as u64).to_le_bytes());
    for r in &result.buggy_ranks {
        h.update(&(*r as u64).to_le_bytes());
    }
    h.update(&result.trace_digest.to_le_bytes());
    h.hex()
}

const GOLDEN_CASE1: &str = "b5e1c4b0205f2c4a";
const GOLDEN_CASE2: &str = "7948b906723fed9b";
const GOLDEN_CASE3: &str = "e1540603f9e1ec23";
const GOLDEN_CAMPAIGN: &str = "7b1a07b56e2d3d59";
const GOLDEN_CASE1_MULTINODE: &str = "cfddb2f3bd4f3928";
/// `(polluted_packets, symptom_intervals, intervals, any_preemption)` of
/// `run_fidelity(timing, 20 ms, 10 s, seed)` for seeds 0..3, each seed
/// cycle-accurate first, then zero-cost.
const GOLDEN_FIDELITY: [(usize, usize, usize, bool); 6] = [
    (6, 6, 500, true),
    (0, 0, 500, false),
    (6, 6, 500, true),
    (0, 0, 500, false),
    (2, 2, 500, true),
    (0, 0, 500, false),
];

/// The 16-seed, 2-second trigger sweep (the CI determinism sweep's shape).
const TRIGGER: Mode = Mode::Trigger {
    period: 20,
    seconds: 2,
    nu: 0.05,
};

fn campaign_seeds() -> Vec<u64> {
    (0..16).map(|i| 1000 + i).collect()
}

/// Digest of a serialized outcome list (wall times are not serialized).
fn outcomes_digest(outcomes: &[sentomist_core::campaign::RunOutcome]) -> String {
    let json = serde_json::to_string(outcomes).unwrap();
    let mut h = Fnv::new();
    h.update(json.as_bytes());
    h.hex()
}

fn check(name: &str, golden: &str, actual: &str) {
    if std::env::var("EQUIV_CAPTURE").is_ok() {
        println!("const GOLDEN_{}: &str = \"{actual}\";", name.to_uppercase());
        return;
    }
    assert_eq!(
        actual, golden,
        "{name}: ranking diverged from the ragged seed implementation"
    );
}

#[test]
fn case1_ranking_matches_seed_implementation() {
    let result = run_case1(&Case1Config::default()).unwrap();
    check("case1", GOLDEN_CASE1, &case_digest(&result));
}

#[test]
fn case2_ranking_matches_seed_implementation() {
    let result = run_case2(&Case2Config::default()).unwrap();
    check("case2", GOLDEN_CASE2, &case_digest(&result));
}

#[test]
fn case3_ranking_matches_seed_implementation() {
    let result = run_case3(&Case3Config::default()).unwrap();
    check("case3", GOLDEN_CASE3, &case_digest(&result));
}

#[test]
fn trigger_campaign_json_matches_seed_implementation() {
    // 16 seeds, 2-second runs (the CI determinism sweep's shape): the
    // serialized outcome document must be byte-identical to the seed
    // implementation's.
    let job = TRIGGER.job().unwrap();
    let result = run_campaign(&campaign_seeds(), CampaignOptions::default(), job);
    check(
        "campaign",
        GOLDEN_CAMPAIGN,
        &outcomes_digest(&result.outcomes),
    );
}

#[test]
fn supervised_trigger_campaign_matches_the_plain_golden() {
    // The cooperative job the CLI's `campaign` runs: emulation advances in
    // slices between watchdog checks, which must not move one bit.
    let traced = TRIGGER.supervised_traced_job().unwrap();
    let job = Arc::new(move |ctx: &RunContext| traced(ctx).map(|(outcome, _)| outcome));
    let result = run_supervised(
        &campaign_seeds(),
        &SupervisorOptions::default(),
        job,
        |_| {},
    );
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    check(
        "campaign",
        GOLDEN_CAMPAIGN,
        &outcomes_digest(&result.outcomes),
    );
}

#[test]
fn case1_multinode_ranking_is_pinned() {
    let result = run_case1_multinode(&Case1MultiConfig::default()).unwrap();
    check(
        "case1_multinode",
        GOLDEN_CASE1_MULTINODE,
        &case_digest(&result),
    );
}

#[test]
fn fidelity_outcomes_are_pinned() {
    let mut actual = Vec::new();
    for seed in 0..3u64 {
        for timing in [TimingModel::CycleAccurate, TimingModel::ZeroCostEvents] {
            actual.push(run_fidelity(timing, 20, 10, seed).unwrap());
        }
    }
    if std::env::var("EQUIV_CAPTURE").is_ok() {
        println!("{actual:?}");
        return;
    }
    let expected: Vec<FidelityOutcome> = GOLDEN_FIDELITY
        .iter()
        .map(
            |&(polluted_packets, symptom_intervals, intervals, any_preemption)| FidelityOutcome {
                polluted_packets,
                symptom_intervals,
                intervals,
                any_preemption,
            },
        )
        .collect();
    assert_eq!(actual, expected, "emulator-fidelity outcomes moved");
}
