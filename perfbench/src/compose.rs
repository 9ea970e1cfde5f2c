//! The mining pipeline composed from its public pieces, one span per
//! call: `extract` and `CounterTable` (trace), `Scaler` and
//! `OneClassSvm::fit` (mlcore), `normalize_scores` and `rank_ascending`
//! (core). The traced runs use it in place of the entry points and check
//! that it reproduces them exactly.

use crate::measure::{fnv64, fold};
use crate::spans::Tracer;
use mlcore::{normalize_scores, rank_ascending, OneClassSvm, Scaler};
use sentomist_apps::CaseResult;
use sentomist_core::campaign::{RunOutcome, Verdict};
use sentomist_core::{SampleIndex, SampleMeta, SampleSet};
use sentomist_trace::{extract, CounterTable, EventInterval, Trace};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The checked identity of one mined job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDigest {
    /// Chained digest of the recorded traces.
    pub trace_digest: u64,
    /// Digest of the whole ranking (labels and score bits, in order).
    pub ranking_digest: u64,
    /// 1-based ranks of the ground-truth symptom intervals, ascending.
    pub buggy_ranks: Vec<usize>,
    /// Intervals ranked.
    pub samples: usize,
    /// Digest of the traces' `.stc` encoding; 0 where nothing is encoded.
    pub encoded_digest: u64,
}

impl JobDigest {
    /// The identity of an entry point's result.
    pub fn of_case(result: &CaseResult) -> JobDigest {
        JobDigest {
            trace_digest: result.trace_digest,
            ranking_digest: ranking_digest(
                result.report.ranking.iter().map(|r| (r.index, r.score)),
            ),
            buggy_ranks: result.buggy_ranks.clone(),
            samples: result.sample_count,
            encoded_digest: 0,
        }
    }

    /// Worst symptom rank as % of intervals ranked.
    pub fn rank_pct(&self) -> Option<f64> {
        crate::measure::symptom_rank_pct(&self.buggy_ranks, self.samples)
    }

    /// The campaign outcome the entry points condense a job into.
    pub fn to_outcome(&self, seed: u64) -> RunOutcome {
        RunOutcome {
            seed,
            samples: self.samples,
            symptoms: self.buggy_ranks.len(),
            buggy_ranks: self.buggy_ranks.clone(),
            verdict: if self.buggy_ranks.is_empty() {
                Verdict::Clean
            } else {
                Verdict::Triggered
            },
            trace_digest: format!("{:016x}", self.trace_digest),
            wall_time_ms: 0,
        }
    }
}

/// Digest of a ranking: each label's text and score bits, in order.
pub fn ranking_digest(ranking: impl Iterator<Item = (SampleIndex, f64)>) -> u64 {
    ranking.fold(fnv64(b"ranking"), |h, (index, score)| {
        let h = fold(h, index.to_string().as_bytes());
        fold(h, &score.to_bits().to_le_bytes())
    })
}

/// Chains per-trace digests in order (the case studies' trace digest).
pub fn chain_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Per-layer counts gathered while composing, summed over all ops.
#[derive(Debug, Default)]
pub struct Counts(Mutex<BTreeMap<&'static str, f64>>);

impl Counts {
    /// Adds `v` to counter `k`.
    pub fn add(&self, k: &'static str, v: f64) {
        *self.0.lock().expect("counts lock").entry(k).or_default() += v;
    }

    /// Reads counter `k`.
    pub fn get(&self, k: &str) -> f64 {
        self.0
            .lock()
            .expect("counts lock")
            .get(k)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Where a composed call's spans go.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// The span collector.
    pub tracer: &'a Tracer,
    /// Counters.
    pub counts: &'a Counts,
    /// Op id.
    pub op: u64,
    /// Parent span.
    pub parent: Option<u64>,
}

impl<'a> Ctx<'a> {
    /// Runs `f` in a child span of this context.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(Ctx<'a>) -> R,
    ) -> R {
        let me = *self;
        self.tracer.span(self.op, self.parent, name, layer, |id| {
            f(Ctx {
                parent: Some(id),
                ..me
            })
        })
    }
}

/// Anatomizes and featurizes one trace's intervals of `irq` (what
/// `harvest_set` does), appending them to `set`.
///
/// # Errors
///
/// Extraction or counter errors, as text.
pub fn harvest(
    cx: Ctx<'_>,
    trace: &Trace,
    irq: u8,
    mut label: impl FnMut(u32) -> SampleIndex,
    set: &mut SampleSet,
) -> Result<(), String> {
    cx.counts.add("trace.events", trace.events.len() as f64);
    let intervals: Vec<EventInterval> = cx.span("trace.extract", "trace", |_| {
        extract(trace)
            .map(|x| x.for_irq(irq))
            .map_err(|e| e.to_string())
    })?;
    cx.counts.add("trace.intervals", intervals.len() as f64);
    cx.span("trace.featurize", "trace", |_| {
        let table = CounterTable::try_new(trace).map_err(|e| e.to_string())?;
        let mut features = mlcore::FeatureMatrix::with_capacity(intervals.len(), table.dimension());
        let mut meta = Vec::with_capacity(intervals.len());
        for (i, interval) in intervals.into_iter().enumerate() {
            table
                .try_features_into(&interval, features.add_row())
                .map_err(|e| e.to_string())?;
            meta.push(SampleMeta {
                index: label(i as u32 + 1),
                interval,
            });
        }
        set.append(&SampleSet { meta, features });
        Ok(())
    })
}

/// Scales, fits the one-class SVM, normalizes and ranks (what
/// `Pipeline::default_ocsvm(nu).rank_set` does); `buggy` are rows of
/// `set`. Returns the job's identity.
///
/// # Errors
///
/// Solver errors, as text.
pub fn rank(
    cx: Ctx<'_>,
    mut set: SampleSet,
    nu: f64,
    buggy: &[usize],
    trace_digest: u64,
) -> Result<JobDigest, String> {
    if set.is_empty() {
        return Err("no samples to rank".into());
    }
    cx.span("mlcore.scale", "mlcore", |_| {
        let scaler = Scaler::fit(&set.features);
        scaler.transform_in_place(&mut set.features);
    });
    let model = cx.span("mlcore.fit", "mlcore", |_| {
        OneClassSvm::with_nu(nu)
            .fit(&set.features)
            .map_err(|e| e.to_string())
    })?;
    cx.counts.add("mlcore.fits", 1.0);
    cx.counts.add("mlcore.fit_n", set.len() as f64);
    cx.counts
        .add("mlcore.smo_iterations", model.iterations as f64);
    cx.counts
        .add("mlcore.support_vectors", model.num_support() as f64);
    cx.counts
        .add("mlcore.converged", if model.converged { 1.0 } else { 0.0 });
    let mut scores = model.decision;
    let (order, position) = cx.span("core.rank", "core", |_| {
        normalize_scores(&mut scores);
        let order = rank_ascending(&scores);
        let mut position = vec![0usize; order.len()];
        for (p, &i) in order.iter().enumerate() {
            position[i] = p + 1;
        }
        (order, position)
    });
    let mut buggy_ranks: Vec<usize> = buggy.iter().map(|&row| position[row]).collect();
    buggy_ranks.sort_unstable();
    Ok(JobDigest {
        trace_digest,
        ranking_digest: ranking_digest(order.iter().map(|&i| (set.meta[i].index, scores[i]))),
        buggy_ranks,
        samples: set.len(),
        encoded_digest: 0,
    })
}

/// Compares a composed job with its entry-point reference; a mismatch
/// is described.
pub fn same(composed: &JobDigest, reference: &JobDigest) -> Result<(), String> {
    if composed == reference {
        Ok(())
    } else {
        Err(format!(
            "composed job differs from the entry point: {composed:?} vs {reference:?}"
        ))
    }
}

/// Expected identities per seed: the first result of a seed becomes the
/// reference every later one must equal.
#[derive(Debug, Default)]
pub struct References {
    refs: HashMap<u64, JobDigest>,
    corrupt: bool,
}

impl References {
    /// New, optionally corrupting every stored reference.
    pub fn new(corrupt: bool) -> References {
        References {
            refs: HashMap::new(),
            corrupt,
        }
    }

    /// Checks `got` against the reference for `seed`, recording it as the
    /// reference when there is none yet.
    pub fn check(&mut self, seed: u64, got: &JobDigest) -> Result<(), String> {
        match self.refs.get(&seed) {
            Some(want) => same(got, want).map_err(|e| format!("seed {seed}: {e}")),
            None => {
                let mut want = got.clone();
                if self.corrupt {
                    want.ranking_digest ^= 1;
                }
                self.refs.insert(seed, want);
                Ok(())
            }
        }
    }

    /// The reference for `seed`, if known.
    pub fn get(&self, seed: u64) -> Option<&JobDigest> {
        self.refs.get(&seed)
    }
}
