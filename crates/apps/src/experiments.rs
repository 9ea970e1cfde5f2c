//! The paper's three evaluation case studies as runnable experiments.
//!
//! Each `run_case*` function executes the workload on the emulator,
//! anatomizes the traces into event-handling intervals, featurizes them as
//! instruction counters, ranks them with a plug-in detector, and — unlike
//! the paper, which relied on manual inspection — also computes the
//! ground-truth set of bug-symptom intervals from independent oracles, so
//! the ranking quality is machine-checkable.
//!
//! Each case study is defined once. Its application module records it
//! ([`oscilloscope::record`], [`forwarder::record_chain`],
//! [`ctp::record`]); one harvest-plus-oracle function here turns its
//! traces into the sample population and the ground-truth symptoms; the
//! callers rank. The campaign jobs built on these live in
//! [`crate::jobs::Mode`].

use crate::{ctp, forwarder, oscilloscope};
use mlcore::{
    EnsembleDetector, KdeDetector, KfdDetector, KnnDetector, MahalanobisDetector, PcaDetector,
};
use sentomist_core::campaign::{RunOutcome, Verdict};
use sentomist_core::{harvest_set, Pipeline, Report, SampleIndex, SampleSet};
use sentomist_trace::{EventInterval, Recorder, Trace};
use std::error::Error;
use std::sync::Arc;
use tinyvm::asm::AsmError;
use tinyvm::devices::NodeConfig;
use tinyvm::isa::irq;
use tinyvm::node::Node;
use tinyvm::{LifecycleItem, Program};

/// Simulated clock rate (cycles per second).
pub const CYCLES_PER_SECOND: u64 = tinyvm::isa::DEFAULT_CLOCK_HZ;

/// Which plug-in detector to use (paper §VI-E: the detector is a plug-in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// One-class SVM with the given ν (the paper's default).
    OcSvm {
        /// ν parameter.
        nu: f64,
    },
    /// PCA reconstruction error.
    Pca,
    /// kNN mean distance.
    Knn,
    /// Mahalanobis distance with shrinkage.
    Mahalanobis,
    /// Parzen-window kernel density.
    Kde,
    /// One-class Kernel Fisher Discriminant.
    Kfd,
    /// Rank-averaging committee (OC-SVM + Mahalanobis + kNN).
    Ensemble {
        /// ν for the OC-SVM member.
        nu: f64,
    },
}

impl DetectorKind {
    /// All detector kinds, for ablation sweeps.
    pub fn all(nu: f64) -> [DetectorKind; 7] {
        [
            DetectorKind::OcSvm { nu },
            DetectorKind::Pca,
            DetectorKind::Knn,
            DetectorKind::Mahalanobis,
            DetectorKind::Kde,
            DetectorKind::Kfd,
            DetectorKind::Ensemble { nu },
        ]
    }

    /// Builds the pipeline for this detector.
    pub fn pipeline(self) -> Pipeline {
        match self {
            DetectorKind::OcSvm { nu } => Pipeline::default_ocsvm(nu),
            DetectorKind::Pca => Pipeline::new(Box::new(PcaDetector::default())),
            DetectorKind::Knn => Pipeline::new(Box::new(KnnDetector::default())),
            DetectorKind::Mahalanobis => Pipeline::new(Box::new(MahalanobisDetector::default())),
            DetectorKind::Kde => Pipeline::new(Box::new(KdeDetector::default())),
            DetectorKind::Kfd => Pipeline::new(Box::new(KfdDetector::default())),
            DetectorKind::Ensemble { nu } => {
                Pipeline::new(Box::new(EnsembleDetector::committee(nu)))
            }
        }
    }

    /// The detector called `name` (as printed by [`DetectorKind::name`]),
    /// with `nu` for the kinds that take one.
    pub fn from_name(name: &str, nu: f64) -> Option<DetectorKind> {
        DetectorKind::all(nu).into_iter().find(|k| k.name() == name)
    }

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::OcSvm { .. } => "ocsvm",
            DetectorKind::Pca => "pca",
            DetectorKind::Knn => "knn",
            DetectorKind::Mahalanobis => "mahalanobis",
            DetectorKind::Kde => "kde",
            DetectorKind::Kfd => "kfd",
            DetectorKind::Ensemble { .. } => "ensemble",
        }
    }
}

/// Outcome of one case study.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The suspicion ranking (Figure-5 table material).
    pub report: Report,
    /// Total samples mined.
    pub sample_count: usize,
    /// Ground-truth bug-symptom samples (oracle-flagged), in sample order.
    pub buggy: Vec<SampleIndex>,
    /// 1-based ranks of the buggy samples, ascending.
    pub buggy_ranks: Vec<usize>,
    /// FNV-1a digest chained over every recorded trace of the case (node
    /// order) — the campaign replay-verification token.
    pub trace_digest: u64,
}

impl CaseResult {
    pub(crate) fn new(
        report: Report,
        sample_count: usize,
        buggy: Vec<SampleIndex>,
        trace_digest: u64,
    ) -> CaseResult {
        let mut buggy_ranks: Vec<usize> =
            buggy.iter().filter_map(|&ix| report.rank_of(ix)).collect();
        buggy_ranks.sort_unstable();
        CaseResult {
            report,
            sample_count,
            buggy,
            buggy_ranks,
            trace_digest,
        }
    }

    /// Condenses this case outcome into a campaign [`RunOutcome`].
    pub fn to_outcome(&self, seed: u64) -> RunOutcome {
        RunOutcome {
            seed,
            samples: self.sample_count,
            symptoms: self.buggy.len(),
            buggy_ranks: self.buggy_ranks.clone(),
            verdict: if self.buggy.is_empty() {
                Verdict::Clean
            } else {
                Verdict::Triggered
            },
            trace_digest: format!("{:016x}", self.trace_digest),
            wall_time_ms: 0,
        }
    }

    /// Whether every ground-truth buggy sample ranks within the top `k`.
    pub fn all_buggy_in_top(&self, k: usize) -> bool {
        !self.buggy_ranks.is_empty() && self.buggy_ranks.iter().all(|&r| r <= k)
    }

    /// The worst (largest) rank of a buggy sample.
    pub fn worst_buggy_rank(&self) -> Option<usize> {
        self.buggy_ranks.last().copied()
    }
}

/// True when `interval` contains a *nested* interrupt of the same line —
/// the paper's outlier pattern for case study I ("ADC interrupt, posting
/// a task, interrupt exit, ADC interrupt, interrupt exit, running the
/// task").
pub(crate) fn contains_nested_int(trace: &Trace, interval: &EventInterval, line: u8) -> bool {
    (interval.start_index + 1..interval.end_index)
        .any(|i| trace.events[i].item == LifecycleItem::Int(line))
}

/// Chains per-trace digests (in a fixed order) into one case-level
/// digest, FNV-1a style.
pub(crate) fn chain_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        h = (h ^ d).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs a network with one recorder per node and returns the traces in
/// node-id order — the recording half shared by every multi-node
/// emulation entry point.
pub(crate) fn record_sim(
    mut sim: netsim::NetSim,
    run_seconds: u64,
) -> Result<Vec<Trace>, netsim::SimError> {
    let mut recorders: Vec<Recorder> = (0..sim.node_count())
        .map(|id| Recorder::new(sim.node(id as u16).program().len()))
        .collect();
    sim.run(run_seconds * CYCLES_PER_SECOND, &mut recorders)?;
    Ok(recorders.into_iter().map(Recorder::into_trace).collect())
}

// ---------------------------------------------------------------------
// Harvest plus oracle: one function per case study
// ---------------------------------------------------------------------

/// How harvested intervals are labelled in a ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexShape {
    /// `[run, seq]`: one trace per testing run (case I's sampling periods).
    RunSeq,
    /// `seq`: the intervals of a single trace.
    Seq,
    /// `[node, seq]`: one trace per node, in node-id order.
    NodeSeq,
}

impl IndexShape {
    fn index(self, position: usize, seq: u32) -> SampleIndex {
        match self {
            IndexShape::RunSeq => SampleIndex::RunSeq {
                run: position as u32 + 1,
                seq,
            },
            IndexShape::Seq => SampleIndex::Seq(seq),
            IndexShape::NodeSeq => SampleIndex::NodeSeq {
                node: position as u16,
                seq,
            },
        }
    }
}

/// A harvested population plus its ground-truth symptom samples, in
/// sample order.
pub(crate) type Harvest = (SampleSet, Vec<SampleIndex>);

/// Harvests the `irq` intervals of `traces[p]` for each position `p`,
/// labels them by `shape` and pools them, marking the samples `symptom`
/// flags. This is the one harvest loop behind every case study. A single
/// trace's set is taken as is, never copied.
fn harvest(
    traces: &[Trace],
    positions: impl IntoIterator<Item = usize>,
    irq: u8,
    shape: IndexShape,
    symptom: impl Fn(&Trace, &EventInterval, &[f64]) -> bool,
) -> Result<Harvest, String> {
    let mut pooled: Option<SampleSet> = None;
    let mut buggy = Vec::new();
    for position in positions {
        let trace = &traces[position];
        let set = harvest_set(trace, irq, |seq, _| shape.index(position, seq)).map_err(|e| {
            format!(
                "harvesting {} intervals of trace {position}: {e}",
                irq::name(irq)
            )
        })?;
        buggy.extend(
            set.meta
                .iter()
                .zip(set.features.rows_iter())
                .filter(|(m, row)| symptom(trace, &m.interval, row))
                .map(|(m, _)| m.index),
        );
        match &mut pooled {
            None => pooled = Some(set),
            Some(all) => all.append(&set),
        }
    }
    Ok((pooled.unwrap_or_else(SampleSet::empty), buggy))
}

fn expect_traces(traces: &[Trace], expected: usize, what: &str) -> Result<(), String> {
    if traces.len() == expected {
        Ok(())
    } else {
        Err(format!(
            "{what} expects {expected} trace(s), got {}",
            traces.len()
        ))
    }
}

/// Case study I: the ADC intervals, where a symptom is an interval with a
/// nested ADC interrupt. `RunSeq` pools one trace per sampling period;
/// `Seq` takes the single trace of a trigger, fidelity or hunt run;
/// `NodeSeq` pools the sensors of a multi-node run, whose node 0 is the
/// sink and samples nothing.
pub(crate) fn harvest_case1(traces: &[Trace], shape: IndexShape) -> Result<Harvest, String> {
    let first = match shape {
        IndexShape::RunSeq => 0,
        IndexShape::Seq => {
            expect_traces(traces, 1, "a single-node oscilloscope run")?;
            0
        }
        IndexShape::NodeSeq => 1,
    };
    harvest(
        traces,
        first..traces.len(),
        irq::ADC,
        shape,
        |trace, interval, _| contains_nested_int(trace, interval, irq::ADC),
    )
}

/// Case study II: the relay's packet-arrival intervals of a forwarder
/// chain (sink, relay, source), where a symptom is an interval that ran
/// the relay's `fwd_drop` branch. The fixed relay has no such branch, so
/// its runs have no symptoms.
pub(crate) fn harvest_case2(traces: &[Trace], relay: &Program) -> Result<Harvest, String> {
    expect_traces(traces, 3, "a forwarder chain")?;
    let drop_pc = relay.label("fwd_drop").map(usize::from);
    harvest(
        traces,
        [usize::from(forwarder::nodes::RELAY)],
        irq::RX,
        IndexShape::Seq,
        |_, _, row| drop_pc.is_some_and(|pc| row[pc] > 0.0),
    )
}

/// Case study III: the report-timer intervals of the source nodes of a
/// CTP tree, pooled as `[node, seq]`, where a symptom is an interval that
/// ran the `ctp_fail` branch.
pub(crate) fn harvest_case3(traces: &[Trace], program: &Program) -> Result<Harvest, String> {
    expect_traces(traces, usize::from(ctp::NODE_COUNT), "a CTP tree")?;
    let fail_pc = usize::from(
        program
            .label("ctp_fail")
            .ok_or("ctp program lacks the ctp_fail label")?,
    );
    harvest(
        traces,
        ctp::SOURCES.map(usize::from),
        irq::TIMER0,
        IndexShape::NodeSeq,
        |_, _, row| row[fail_pc] > 0.0,
    )
}

/// Ranks a case study's harvest with `detector`; the trace digest chains
/// every trace in order.
fn rank_case(
    detector: DetectorKind,
    traces: &[Trace],
    (set, buggy): Harvest,
) -> Result<CaseResult, Box<dyn Error>> {
    let sample_count = set.len();
    let report = detector.pipeline().rank_set(set)?;
    Ok(CaseResult::new(
        report,
        sample_count,
        buggy,
        chain_digest(traces.iter().map(Trace::digest)),
    ))
}

// ---------------------------------------------------------------------
// Case study I: data pollution in single-hop data collection
// ---------------------------------------------------------------------

/// Configuration for case study I.
#[derive(Debug, Clone)]
pub struct Case1Config {
    /// Sampling periods `D` (ms), one testing run each (paper: 20..100).
    pub periods_ms: Vec<u32>,
    /// Duration of each testing run in simulated seconds (paper: 10 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed (race-free) application instead of the buggy one.
    pub use_fixed: bool,
}

impl Default for Case1Config {
    fn default() -> Self {
        Case1Config {
            periods_ms: vec![20, 40, 60, 80, 100],
            run_seconds: 10,
            seed: 45,
            detector: DetectorKind::OcSvm { nu: 0.05 },
            use_fixed: false,
        }
    }
}

/// Mines case study I from its recorded traces (one per sampling period,
/// in `periods_ms` order). This is the single mining code path shared by
/// the live [`run_case1`] and store-replayed re-mining, which is what
/// makes re-ranking a stored corpus bit-identical to the live run.
///
/// # Errors
///
/// Propagates trace extraction and pipeline errors.
pub fn mine_case1(config: &Case1Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    rank_case(
        config.detector,
        traces,
        harvest_case1(traces, IndexShape::RunSeq)?,
    )
}

/// Runs case study I and ranks the ADC event-handling intervals.
///
/// Ground truth: an interval is a bug symptom iff another ADC interrupt
/// fired inside it (the data race's only trigger pattern); the UART data
/// oracle (actual packet pollution) is checked for agreement.
///
/// # Errors
///
/// Propagates VM faults, trace extraction and pipeline errors.
pub fn run_case1(config: &Case1Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case1_traced(config).map(|(result, _)| result)
}

/// Like [`run_case1`], but also hands back the recorded traces (one per
/// sampling period) so callers can persist them to a trace store.
///
/// # Errors
///
/// Propagates VM faults, trace extraction and pipeline errors.
pub fn run_case1_traced(config: &Case1Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let mut traces = Vec::with_capacity(config.periods_ms.len());
    let mut polluted_packets = 0usize;
    for (r, &period) in config.periods_ms.iter().enumerate() {
        let params = oscilloscope::OscilloscopeParams::with_period_ms(period);
        let program = if config.use_fixed {
            oscilloscope::fixed(&params)?
        } else {
            oscilloscope::buggy(&params)?
        };
        let node_config = NodeConfig {
            seed: config.seed.wrapping_add(r as u64),
            ..NodeConfig::default()
        };
        let (trace, node) = oscilloscope::record(&program, node_config, config.run_seconds, None)?;
        polluted_packets += polluted_packets_of(&node);
        traces.push(trace);
    }
    let result = mine_case1(config, &traces)?;
    // Cross-check the two independent oracles: every polluted packet stems
    // from a nested-interrupt interval. (The trace oracle can flag one
    // extra interval at the horizon whose packet never got sent.)
    debug_assert!(
        result.buggy.len() >= polluted_packets,
        "oracles disagree: {} intervals vs {} polluted packets",
        result.buggy.len(),
        polluted_packets
    );
    Ok((result, traces))
}

/// Packets in `node`'s UART log whose content the race polluted (the
/// independent data oracle of case study I).
fn polluted_packets_of(node: &Node) -> usize {
    oscilloscope::parse_uart(node.uart())
        .iter()
        .filter(|p| p.polluted())
        .count()
}

// ---------------------------------------------------------------------
// Case study II: packet loss in multi-hop forwarding
// ---------------------------------------------------------------------

/// Configuration for case study II.
#[derive(Debug, Clone)]
pub struct Case2Config {
    /// Workload parameters.
    pub params: forwarder::ForwarderParams,
    /// Test duration in simulated seconds (paper: 20 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed relay instead of the buggy one.
    pub use_fixed: bool,
    /// Independent per-packet radio loss probability on every link — the
    /// "common wireless losses" the paper says the bug hides among.
    pub link_loss: f64,
}

impl Default for Case2Config {
    fn default() -> Self {
        Case2Config {
            params: forwarder::ForwarderParams::default(),
            run_seconds: 20,
            seed: 4,
            detector: DetectorKind::OcSvm { nu: 0.05 },
            use_fixed: false,
            link_loss: 0.04,
        }
    }
}

impl Case2Config {
    /// The relay under test. Assembly is deterministic, so re-mining
    /// locates the same `fwd_drop` label the recorded run executed.
    fn relay(&self) -> Result<Arc<Program>, AsmError> {
        if self.use_fixed {
            forwarder::relay_program_fixed()
        } else {
            forwarder::relay_program_buggy()
        }
    }
}

/// Mines case study II from its recorded traces (sink, relay, source in
/// node-id order); shared by [`run_case2`] and store-replayed re-mining.
///
/// # Errors
///
/// Fails on a wrong trace count; propagates assembly, extraction and
/// pipeline errors.
pub fn mine_case2(config: &Case2Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    let relay = config.relay()?;
    rank_case(config.detector, traces, harvest_case2(traces, &relay)?)
}

/// Runs case study II and ranks the relay's packet-arrival intervals.
///
/// Ground truth: an interval is a bug symptom iff the relay executed its
/// active-drop branch during it (located by the `fwd_drop` label).
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case2(config: &Case2Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case2_traced(config).map(|(result, _)| result)
}

/// Like [`run_case2`], but also hands back the three recorded node traces
/// for persistence.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case2_traced(config: &Case2Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let link = netsim::LinkConfig {
        loss_prob: config.link_loss,
        ..netsim::LinkConfig::default()
    };
    let traces = forwarder::record_chain(
        &config.relay()?,
        &config.params,
        link,
        link,
        config.seed,
        config.run_seconds,
    )?;
    let result = mine_case2(config, &traces)?;
    Ok((result, traces))
}

// ---------------------------------------------------------------------
// Case study III: unhandled failure from two co-existing protocols
// ---------------------------------------------------------------------

/// Configuration for case study III.
#[derive(Debug, Clone)]
pub struct Case3Config {
    /// Workload parameters.
    pub params: ctp::CtpParams,
    /// Test duration in simulated seconds (paper: 15 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed variant instead of the buggy one.
    pub use_fixed: bool,
}

impl Default for Case3Config {
    fn default() -> Self {
        Case3Config {
            params: ctp::CtpParams::default(),
            run_seconds: 15,
            seed: 3,
            detector: DetectorKind::OcSvm { nu: 0.1 },
            use_fixed: false,
        }
    }
}

impl Case3Config {
    /// The node program under test. Assembly is deterministic, so
    /// re-mining locates the same `ctp_fail` label the recorded run
    /// executed.
    fn program(&self) -> Result<Arc<Program>, AsmError> {
        if self.use_fixed {
            ctp::fixed(&self.params)
        } else {
            ctp::buggy(&self.params)
        }
    }
}

/// Runs case study III and ranks the report-timer intervals of the four
/// source nodes (pooled, as in the paper's 95-sample table).
///
/// Ground truth: an interval is a bug symptom iff the CTP send-failure
/// branch executed during it (located by the `ctp_fail` label).
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case3(config: &Case3Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case3_traced(config).map(|(result, _)| result)
}

/// Mines case study III from its recorded traces (one per node, in node-id
/// order); shared by [`run_case3`] and store-replayed re-mining.
///
/// # Errors
///
/// Fails on a wrong trace count; propagates assembly, extraction and
/// pipeline errors.
pub fn mine_case3(config: &Case3Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    let program = config.program()?;
    rank_case(config.detector, traces, harvest_case3(traces, &program)?)
}

/// Like [`run_case3`], but also hands back every node's recorded trace
/// for persistence.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case3_traced(config: &Case3Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let traces = ctp::record(&config.program()?, config.seed, config.run_seconds)?;
    let result = mine_case3(config, &traces)?;
    Ok((result, traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_kinds_build_pipelines() {
        for kind in DetectorKind::all(0.1) {
            let p = kind.pipeline();
            assert_eq!(p.detector_name(), kind.name());
            assert_eq!(DetectorKind::from_name(kind.name(), 0.1), Some(kind));
        }
        assert_eq!(DetectorKind::from_name("psychic", 0.1), None);
    }

    #[test]
    fn case_result_rank_bookkeeping() {
        use sentomist_core::{RankedSample, Report};
        use sentomist_trace::EventInterval;
        let iv = EventInterval {
            irq: 0,
            start_index: 0,
            end_index: 1,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 1,
            task_count: 0,
        };
        let report = Report {
            detector: "test".into(),
            ranking: (1..=5)
                .map(|i| RankedSample {
                    index: SampleIndex::Seq(i),
                    score: i as f64,
                    interval: iv,
                })
                .collect(),
        };
        let result = CaseResult::new(report, 5, vec![SampleIndex::Seq(2), SampleIndex::Seq(1)], 0);
        assert_eq!(result.buggy_ranks, vec![1, 2]);
        assert!(result.all_buggy_in_top(2));
        assert!(!result.all_buggy_in_top(1));
        assert_eq!(result.worst_buggy_rank(), Some(2));
    }
}

// ---------------------------------------------------------------------
// Emulator-fidelity study (§VI-E: why Avrora, not TOSSIM)
// ---------------------------------------------------------------------

/// Outcome of running case study I's workload under one timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityOutcome {
    /// Packets whose content was polluted by the race.
    pub polluted_packets: usize,
    /// ADC intervals containing a nested ADC interrupt (the symptom).
    pub symptom_intervals: usize,
    /// Total ADC intervals observed.
    pub intervals: usize,
    /// Whether any handler nesting occurred at all in the trace.
    pub any_preemption: bool,
}

/// Runs the case-I workload (one testing run) under the given timing
/// model. Under [`tinyvm::TimingModel::CycleAccurate`] (the Avrora-like
/// default) the data race manifests; under
/// [`tinyvm::TimingModel::ZeroCostEvents`] (the TOSSIM-style sequential
/// abstraction) event executions never overlap, so neither the symptom
/// nor the pollution can appear — reproducing the paper's argument for a
/// cycle-accurate emulator.
///
/// # Errors
///
/// Propagates VM faults and extraction errors.
pub fn run_fidelity(
    timing: tinyvm::TimingModel,
    period_ms: u32,
    run_seconds: u64,
    seed: u64,
) -> Result<FidelityOutcome, Box<dyn Error>> {
    let program =
        oscilloscope::buggy(&oscilloscope::OscilloscopeParams::with_period_ms(period_ms))?;
    let config = NodeConfig {
        seed,
        timing,
        ..NodeConfig::default()
    };
    let (trace, node) = oscilloscope::record(&program, config, run_seconds, None)?;
    let (set, symptoms) = harvest_case1(std::slice::from_ref(&trace), IndexShape::Seq)?;
    let mut depth = 0usize;
    let mut any_preemption = false;
    for e in &trace.events {
        match e.item {
            LifecycleItem::Int(_) => {
                depth += 1;
                if depth > 1 {
                    any_preemption = true;
                }
            }
            LifecycleItem::Reti => depth -= 1,
            _ => {}
        }
    }
    Ok(FidelityOutcome {
        polluted_packets: polluted_packets_of(&node),
        symptom_intervals: symptoms.len(),
        intervals: set.len(),
        any_preemption,
    })
}

// ---------------------------------------------------------------------
// Inspection-effort study: the paper's headline claim, quantified
// ---------------------------------------------------------------------

/// How much manual inspection a tester spends before reaching the bug
/// symptoms, under Sentomist's ranking versus the baselines the paper
/// argues against (chronological brute-force scanning; random sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct EffortSummary {
    /// Total intervals available for inspection.
    pub samples: usize,
    /// True bug-symptom intervals.
    pub positives: usize,
    /// Inspections until the *first* symptom, following the ranking.
    pub ranked_first: Option<usize>,
    /// Inspections until *all* symptoms, following the ranking.
    pub ranked_all: Option<usize>,
    /// Inspections until the first symptom when scanning chronologically
    /// (the brute-force trace inspection the paper contrasts against).
    pub chrono_first: Option<usize>,
    /// Expected inspections until the first symptom under uniformly
    /// random inspection order.
    pub random_expected_first: f64,
    /// ROC-AUC of the suspicion ranking against ground truth.
    pub auc: f64,
    /// Average precision of the ranking against ground truth.
    pub avg_precision: f64,
}

fn chronology_key(ix: &SampleIndex) -> (u32, u32) {
    match *ix {
        SampleIndex::RunSeq { run, seq } => (run, seq),
        SampleIndex::Seq(s) => (0, s),
        SampleIndex::NodeSeq { node, seq } => (node as u32, seq),
    }
}

/// Computes the inspection-effort summary of a case-study outcome.
pub fn effort_summary(result: &CaseResult) -> EffortSummary {
    use mlcore::evaluation as ev;
    let relevant = |ix: &SampleIndex| result.buggy.contains(ix);
    let ranked: Vec<SampleIndex> = result.report.ranking.iter().map(|r| r.index).collect();
    let mut chrono = ranked.clone();
    chrono.sort_by_key(chronology_key);
    EffortSummary {
        samples: result.sample_count,
        positives: result.buggy.len(),
        ranked_first: ev::inspections_until_first(&ranked, relevant),
        ranked_all: ev::inspections_until_all(&ranked, relevant),
        chrono_first: ev::inspections_until_first(&chrono, relevant),
        random_expected_first: ev::expected_random_inspections(
            result.sample_count,
            result.buggy.len(),
        ),
        auc: ev::roc_auc(&ranked, relevant),
        avg_precision: ev::average_precision(&ranked, relevant),
    }
}

// ---------------------------------------------------------------------
// Trigger campaign: how hard is the bug to hit, and does mining find it
// whenever it is hit? (paper §IV: "the bug is not easy to be triggered
// unless we generate a variety of random interleaving scenarios")
// ---------------------------------------------------------------------

/// Mines one recorded trigger-run trace into its campaign outcome — the
/// single code path behind both the live trigger job
/// ([`crate::Mode::Trigger`]) and re-mining a stored corpus, which is what
/// makes store-based re-ranking bit-identical to the live campaign. A
/// clean run has no symptom to rank, so the detector is skipped.
///
/// # Errors
///
/// Extraction and pipeline failures are reported as strings, matching the
/// campaign job contract.
pub fn mine_trigger_trace(seed: u64, trace: &Trace, nu: f64) -> Result<RunOutcome, String> {
    let (set, buggy) = harvest_case1(std::slice::from_ref(trace), IndexShape::Seq)?;
    let sample_count = set.len();
    let mut buggy_ranks: Vec<usize> = if buggy.is_empty() {
        Vec::new()
    } else {
        let report = Pipeline::default_ocsvm(nu)
            .rank_set(set)
            .map_err(|e| e.to_string())?;
        buggy.iter().filter_map(|&b| report.rank_of(b)).collect()
    };
    buggy_ranks.sort_unstable();
    Ok(RunOutcome {
        seed,
        samples: sample_count,
        symptoms: buggy.len(),
        buggy_ranks,
        verdict: if buggy.is_empty() {
            Verdict::Clean
        } else {
            Verdict::Triggered
        },
        trace_digest: format!("{:016x}", trace.digest()),
        wall_time_ms: 0,
    })
}

// ---------------------------------------------------------------------
// Case study I, multi-node form: several sensors + a sink (the paper's
// literal setup: "several sensor nodes monitor temperature and report
// the readings to a data sink in a single hop manner")
// ---------------------------------------------------------------------

/// Configuration for the multi-node variant of case study I.
#[derive(Debug, Clone)]
pub struct Case1MultiConfig {
    /// Number of sensing nodes (the sink is node 0 in addition).
    pub sensors: u16,
    /// Sampling period D in milliseconds (one value; samples are pooled
    /// across nodes and indexed `[node, seq]`).
    pub period_ms: u32,
    /// Run duration in simulated seconds.
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
}

impl Default for Case1MultiConfig {
    fn default() -> Self {
        Case1MultiConfig {
            sensors: 4,
            period_ms: 20,
            run_seconds: 10,
            seed: 42,
            detector: DetectorKind::OcSvm { nu: 0.05 },
        }
    }
}

/// Runs the multi-node single-hop variant of case study I: `sensors`
/// nodes run the buggy Oscilloscope program and broadcast packets a sink
/// overhears; ADC intervals are pooled across the sensing nodes.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case1_multinode(config: &Case1MultiConfig) -> Result<CaseResult, Box<dyn Error>> {
    let params = oscilloscope::OscilloscopeParams::with_period_ms(config.period_ms);
    let sensor_program = oscilloscope::buggy(&params)?;
    let sink_program = forwarder::sink_program()?;
    let node_count = config.sensors + 1;
    let topo = netsim::Topology::star(node_count, netsim::LinkConfig::default())?;
    let mut sim = netsim::NetSim::new(topo, config.seed);
    sim.add_node(
        sink_program,
        NodeConfig {
            node_id: 0,
            seed: config.seed,
            ..NodeConfig::default()
        },
    )?;
    for id in 1..node_count {
        sim.add_node(
            sensor_program.clone(),
            NodeConfig {
                node_id: id,
                seed: config.seed.wrapping_add(id as u64 * 101),
                ..NodeConfig::default()
            },
        )?;
    }
    let traces = record_sim(sim, config.run_seconds)?;
    rank_case(
        config.detector,
        &traces,
        harvest_case1(&traces, IndexShape::NodeSeq)?,
    )
}
