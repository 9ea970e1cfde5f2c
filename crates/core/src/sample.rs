//! Samples: featurized event-handling intervals with human-readable
//! indices.
//!
//! The primary product of harvesting is a [`SampleSet`]: per-interval
//! metadata (label + interval) alongside a dense row-major
//! [`FeatureMatrix`] holding one instruction-counter row per interval.
//! Features are written straight from the trace's counter table into the
//! matrix rows — no intermediate per-sample allocation. The per-sample
//! [`Sample`] struct remains for call sites that work with individual
//! intervals (e.g. localization).

use mlcore::FeatureMatrix;
use sentomist_trace::{extract, CounterTable, EventInterval, ExtractError, Trace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a sample is labeled in ranking tables — matching the three index
/// styles of the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SampleIndex {
    /// `[run, seq]` — case study I labels samples by testing run and
    /// chronological order within the run.
    RunSeq {
        /// Testing-run index (1-based in the paper).
        run: u32,
        /// Chronological order within the run (1-based).
        seq: u32,
    },
    /// Bare chronological index — case study II.
    Seq(u32),
    /// `[node, seq]` — case study III labels samples by node id and
    /// per-node chronological order.
    NodeSeq {
        /// Node id.
        node: u16,
        /// Chronological order on that node (1-based).
        seq: u32,
    },
}

impl fmt::Display for SampleIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleIndex::RunSeq { run, seq } => write!(f, "[{run}, {seq}]"),
            SampleIndex::Seq(s) => write!(f, "{s}"),
            SampleIndex::NodeSeq { node, seq } => write!(f, "[{node}, {seq}]"),
        }
    }
}

/// One featurized event-handling interval, ready for outlier detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Table label.
    pub index: SampleIndex,
    /// The underlying interval.
    pub interval: EventInterval,
    /// Raw (unscaled) instruction-counter features — Definition 4.
    pub features: Vec<f64>,
}

/// Harvests the samples of one event type from a recorded trace:
/// anatomizes the trace (Figure 4), featurizes each interval of `irq`
/// (Definition 4), and labels them via `label(seq, interval)` with `seq`
/// the 1-based chronological order.
///
/// # Errors
///
/// Propagates [`ExtractError`] for ill-formed traces.
///
/// # Examples
///
/// ```
/// # use std::sync::Arc;
/// # use tinyvm::{asm, devices::NodeConfig, node::Node};
/// # use sentomist_core::sample::{harvest, SampleIndex};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let program = Arc::new(asm::assemble("\
/// # .handler TIMER0 h
/// # main:
/// #  ldi r1, 4
/// #  out TIMER0_PERIOD, r1
/// #  ldi r1, 1
/// #  out TIMER0_CTRL, r1
/// #  ret
/// # h:
/// #  reti
/// # ")?);
/// let mut node = Node::new(program.clone(), NodeConfig::default());
/// let mut rec = sentomist_trace::Recorder::new(program.len());
/// node.run(200_000, &mut rec)?;
/// let trace = rec.into_trace();
/// let samples = harvest(&trace, tinyvm::isa::irq::TIMER0, |seq, _| {
///     SampleIndex::Seq(seq)
/// })?;
/// assert!(!samples.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn harvest(
    trace: &Trace,
    irq: u8,
    mut label: impl FnMut(u32, &EventInterval) -> SampleIndex,
) -> Result<Vec<Sample>, ExtractError> {
    let extraction = extract(trace)?;
    let table = CounterTable::try_new(trace)?;
    extraction
        .for_irq(irq)
        .into_iter()
        .enumerate()
        .map(|(i, interval)| {
            Ok(Sample {
                index: label(i as u32 + 1, &interval),
                features: table.try_features(&interval)?,
                interval,
            })
        })
        .collect()
}

/// Metadata of one harvested interval: its table label and the interval
/// itself, with the features living in the owning [`SampleSet`]'s matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Table label.
    pub index: SampleIndex,
    /// The underlying interval.
    pub interval: EventInterval,
}

/// A harvested sample population: per-interval metadata plus one dense
/// feature matrix with a row per interval — the unit the rank path
/// operates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    /// Label + interval per sample, aligned with the matrix rows.
    pub meta: Vec<SampleMeta>,
    /// Instruction-counter features, row `i` belonging to `meta[i]`.
    pub features: FeatureMatrix,
}

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// An empty set (adopts the feature width of the first appended set).
    pub fn empty() -> SampleSet {
        SampleSet {
            meta: Vec::new(),
            features: FeatureMatrix::new(0),
        }
    }

    /// Pools another set's samples onto this one — how the multi-run /
    /// multi-node case studies merge per-trace harvests into one
    /// population without unpacking any row.
    ///
    /// # Panics
    ///
    /// Panics if both sets are non-empty and their feature widths differ.
    pub fn append(&mut self, other: &SampleSet) {
        self.features.append(&other.features);
        self.meta.extend_from_slice(&other.meta);
    }

    /// Packs individually-owned samples into a set (one flat allocation).
    ///
    /// Returns `None` if the samples disagree on feature dimensionality.
    pub fn from_samples(samples: &[Sample]) -> Option<SampleSet> {
        let d = samples.first().map_or(0, |s| s.features.len());
        let mut features = FeatureMatrix::with_capacity(samples.len(), d);
        let mut meta = Vec::with_capacity(samples.len());
        for s in samples {
            if s.features.len() != d {
                return None;
            }
            features.push_row(&s.features);
            meta.push(SampleMeta {
                index: s.index,
                interval: s.interval,
            });
        }
        Some(SampleSet { meta, features })
    }

    /// Unpacks into individually-owned samples (copies each row).
    pub fn to_samples(&self) -> Vec<Sample> {
        self.meta
            .iter()
            .zip(self.features.rows_iter())
            .map(|(m, row)| Sample {
                index: m.index,
                interval: m.interval,
                features: row.to_vec(),
            })
            .collect()
    }
}

/// Harvests one event type's samples as a [`SampleSet`]: intervals are
/// featurized by writing counter rows directly into the set's dense
/// matrix ([`CounterTable::features_into`]), with zero intermediate
/// allocation per interval.
///
/// # Errors
///
/// Propagates [`ExtractError`] for ill-formed traces, including
/// structurally broken count segments
/// ([`ExtractError::Malformed`]).
pub fn harvest_set(
    trace: &Trace,
    irq: u8,
    mut label: impl FnMut(u32, &EventInterval) -> SampleIndex,
) -> Result<SampleSet, ExtractError> {
    let extraction = extract(trace)?;
    let table = CounterTable::try_new(trace)?;
    let intervals = extraction.for_irq(irq);
    let mut features = FeatureMatrix::with_capacity(intervals.len(), table.dimension());
    let mut meta = Vec::with_capacity(intervals.len());
    for (i, interval) in intervals.into_iter().enumerate() {
        table.try_features_into(&interval, features.add_row())?;
        meta.push(SampleMeta {
            index: label(i as u32 + 1, &interval),
            interval,
        });
    }
    Ok(SampleSet { meta, features })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_display_matches_figure_5() {
        assert_eq!(
            SampleIndex::RunSeq { run: 1, seq: 76 }.to_string(),
            "[1, 76]"
        );
        assert_eq!(SampleIndex::Seq(20).to_string(), "20");
        assert_eq!(
            SampleIndex::NodeSeq { node: 8, seq: 2 }.to_string(),
            "[8, 2]"
        );
    }

    #[test]
    fn harvest_labels_sequentially() {
        use sentomist_trace::TraceEvent;
        use tinyvm::LifecycleItem;
        let items = [
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
        ];
        let trace = Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: i as u64,
                    item,
                })
                .collect(),
            segments: vec![vec![0]; 5],
            program_len: 1,
        };
        let samples = harvest(&trace, 0, |seq, _| SampleIndex::Seq(seq)).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].index, SampleIndex::Seq(1));
        assert_eq!(samples[1].index, SampleIndex::Seq(2));
    }

    #[test]
    fn harvest_set_matches_per_sample_harvest() {
        use sentomist_trace::TraceEvent;
        use tinyvm::LifecycleItem;
        let items = [
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
        ];
        let trace = Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: i as u64,
                    item,
                })
                .collect(),
            segments: vec![vec![3], vec![5], vec![0], vec![7], vec![1]],
            program_len: 1,
        };
        let samples = harvest(&trace, 0, |seq, _| SampleIndex::Seq(seq)).unwrap();
        let set = harvest_set(&trace, 0, |seq, _| SampleIndex::Seq(seq)).unwrap();
        assert_eq!(set.len(), samples.len());
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(set.meta[i].index, s.index);
            assert_eq!(set.meta[i].interval, s.interval);
            assert_eq!(set.features.row(i), s.features.as_slice());
        }
        // Round trips through both representations.
        let repacked = SampleSet::from_samples(&samples).unwrap();
        assert_eq!(repacked, set);
        assert_eq!(set.to_samples(), samples);
    }

    #[test]
    fn append_pools_sets_in_order() {
        let iv = EventInterval {
            irq: 0,
            start_index: 0,
            end_index: 1,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 1,
            task_count: 0,
        };
        let mk = |seq: u32, f: Vec<f64>| Sample {
            index: SampleIndex::Seq(seq),
            interval: iv,
            features: f,
        };
        let a = SampleSet::from_samples(&[mk(1, vec![1.0, 2.0])]).unwrap();
        let b = SampleSet::from_samples(&[mk(2, vec![3.0, 4.0]), mk(3, vec![5.0, 6.0])]).unwrap();
        let mut pooled = SampleSet::empty();
        pooled.append(&a);
        pooled.append(&b);
        assert_eq!(pooled.len(), 3);
        assert_eq!(pooled.meta[2].index, SampleIndex::Seq(3));
        assert_eq!(pooled.features.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_samples_rejects_ragged() {
        let iv = EventInterval {
            irq: 0,
            start_index: 0,
            end_index: 1,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 1,
            task_count: 0,
        };
        let samples = vec![
            Sample {
                index: SampleIndex::Seq(1),
                interval: iv,
                features: vec![1.0],
            },
            Sample {
                index: SampleIndex::Seq(2),
                interval: iv,
                features: vec![1.0, 2.0],
            },
        ];
        assert!(SampleSet::from_samples(&samples).is_none());
    }
}
