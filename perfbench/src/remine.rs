//! `remine-case3`: `apps::jobs::mine_corpus` at 2 threads over a stored
//! 64-seed case-III corpus. Set-up writes the corpus once through the
//! store API with `SyncPolicy::Fast` (no fsync: the set-up time then
//! measures the store, not the shared disk) and keeps the live campaign
//! document. One op is one full re-mine to its document, which must be
//! byte-identical to the live one.

use crate::case3::{self, THREADS};
use crate::compose::{Counts, Ctx};
use crate::measure::{ms_since, Rng};
use crate::spans::Tracer;
use crate::{
    end_to_end, note_failure, per_layer, repeat_setup, save_spans, Clock, Config, Layered, Outcome,
    Window,
};
use sentomist_apps::{campaign_document, ctp, mine_corpus, Case3Config, CorpusMineOptions, Mode};
use sentomist_core::campaign::{
    run_campaign, CampaignOptions, CampaignResult, FailureKind, RunError,
};
use sentomist_core::supervise::{run_supervised, RunContext, RunFailure};
use sentomist_tracestore::{
    CampaignManifest, CorpusIndex, IoShim, StoredRunError, SyncPolicy, TraceStore, MANIFEST_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `op_tail_ms` percentile: about 95 re-mines in 20 s leave only ~9
/// beyond p90.
const TAIL: crate::measure::Tail = crate::measure::P50;

/// A corpus written in set-up, with the live campaign's document.
#[derive(Debug)]
pub struct Corpus {
    /// Where it lives.
    pub dir: PathBuf,
    /// The store.
    pub store: TraceStore,
    /// The live campaign document (what `campaign --json` prints).
    pub document: String,
    /// The live campaign result.
    pub result: CampaignResult,
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Corpus size: 64 seeds, or 4 for the benchmark's own tests.
pub fn corpus_seeds(tiny: bool) -> u64 {
    if tiny {
        4
    } else {
        64
    }
}

/// The base seed of a run's corpus.
pub fn base_seed(seed: u64) -> u64 {
    Rng::new(seed, 3).next_u64() >> 24
}

/// Writes a case-III campaign corpus of `n` seeds from `base` into `dir`
/// at 2 threads, the way `sentomist campaign --case 3 --store` does, and
/// renders the live campaign document.
///
/// # Errors
///
/// Store or job-building failures.
pub fn write_corpus(dir: &Path, base: u64, n: u64) -> Result<Corpus, String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let store = TraceStore::create_with(dir, IoShim::new(SyncPolicy::Fast)).map_err(|e| err(&e))?;
    let mode = Mode::Case3;
    let traced = mode.supervised_traced_job().map_err(|e| err(&e))?;
    let program_digest = mode.program_digest().map_err(|e| err(&e))?;
    let sink = store.clone();
    let job = move |ctx: &RunContext| {
        let (outcome, traces) = traced(ctx)?;
        sink.save_run(ctx.seed(), mode.name(), program_digest, &traces)
            .map_err(|e| RunFailure::Transient(format!("storing run: {e}")))?;
        Ok(outcome)
    };
    let seeds: Vec<u64> = (0..n).map(|i| base + i).collect();
    let result = run_supervised(&seeds, &case3::pool_options(), Arc::new(job), |_| {});
    store
        .save_campaign(&CampaignManifest {
            format_version: MANIFEST_VERSION,
            mode: mode.name().to_string(),
            params: mode.params(),
            seeds: n,
            base_seed: base,
            errors: result
                .errors
                .iter()
                .map(|e| StoredRunError {
                    seed: e.seed,
                    message: e.message.clone(),
                    kind: e.kind.as_str().to_string(),
                    attempts: e.attempts,
                })
                .collect(),
        })
        .map_err(|e| err(&e))?;
    CorpusIndex::merge(&store).map_err(|e| err(&e))?;
    let document = render(&config_entries(n, base), &result)?;
    Ok(Corpus {
        dir: dir.to_path_buf(),
        store,
        document,
        result,
    })
}

fn config_entries(seeds: u64, base: u64) -> sentomist_apps::jobs::CampaignConfig {
    let mut config = Mode::Case3.config_entries();
    config.push(("seeds".into(), serde::Value::U64(seeds)));
    config.push(("base_seed".into(), serde::Value::U64(base)));
    config
}

fn render(
    config: &sentomist_apps::jobs::CampaignConfig,
    result: &CampaignResult,
) -> Result<String, String> {
    let doc = campaign_document(config.clone(), result);
    let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    text.push('\n');
    Ok(text)
}

/// Per-job worst symptom ranks of a campaign result, % of intervals.
pub fn rank_pcts(result: &CampaignResult) -> Vec<f64> {
    result
        .outcomes
        .iter()
        .filter_map(|o| crate::measure::symptom_rank_pct(&o.buggy_ranks, o.samples))
        .collect()
}

/// The expected document, corrupted on request (negative test).
pub fn expected(document: &str, corrupt: bool) -> Vec<u8> {
    let mut bytes = document.as_bytes().to_vec();
    if corrupt {
        bytes[0] ^= 0x20;
    }
    bytes
}

/// The re-mine composed from its public pieces: list manifests, then
/// per run (2 pool threads) `load_traces` and case III's mining stage,
/// then fold stored errors and render `campaign_document`.
///
/// # Errors
///
/// Store listing or rendering failures.
pub fn composed(cx: Ctx<'_>, store: &TraceStore) -> Result<String, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (campaign, manifests) = cx.span("tracestore.manifests", "tracestore", |_| {
        let campaign = store
            .campaign()
            .map_err(|e| err(&e))?
            .ok_or("store has no campaign manifest")?;
        let manifests = store.manifests().map_err(|e| err(&e))?;
        Ok::<_, String>((campaign, manifests))
    })?;
    let program = cx.span("apps.assemble", "apps", |_| {
        ctp::buggy(&Case3Config::default().params).map_err(|e| err(&e))
    })?;
    let seeds: Vec<u64> = manifests.iter().map(|m| m.seed).collect();
    let mut result = cx.span("core.pool", "", |pool| {
        run_campaign(
            &seeds,
            CampaignOptions {
                threads: THREADS,
                progress: false,
            },
            |seed| {
                let manifest = manifests
                    .iter()
                    .find(|m| m.seed == seed)
                    .ok_or_else(|| "unknown seed".to_string())?;
                pool.span("job", "", |job| {
                    let traces = job.span("tracestore.decode", "tracestore", |_| {
                        store.load_traces(manifest).map_err(|e| err(&e))
                    })?;
                    let bytes: u64 = manifest.nodes.iter().map(|n| n.encoded_bytes).sum();
                    job.counts.add("tracestore.decoded_bytes", bytes as f64);
                    case3::mine_composed(job, &program, &traces).map(|d| d.to_outcome(seed))
                })
            },
        )
    });
    result
        .errors
        .extend(campaign.errors.iter().map(|e| RunError {
            seed: e.seed,
            message: e.message.clone(),
            kind: FailureKind::parse(&e.kind),
            attempts: e.attempts.max(1),
        }));
    result.errors.sort_by_key(|e| e.seed);
    cx.span("apps.document", "apps", |_| {
        render(&config_entries(campaign.seeds, campaign.base_seed), &result)
    })
}

/// Re-mines with `mine` until `seconds` pass, checking every document.
fn window(
    seconds: f64,
    want: &[u8],
    notes: &mut Vec<(String, String)>,
    mut mine: impl FnMut(u64) -> Result<(String, Option<CampaignResult>), String>,
) -> Window {
    let mut w = Window::default();
    let clock = Clock::start();
    for op in 0u64.. {
        let t = Instant::now();
        let got = mine(op);
        let ms = ms_since(t);
        w.attempted += 1;
        match got {
            Ok((doc, result)) if doc.as_bytes() == want => {
                w.lat_ms.push(ms);
                if let Some(result) = result {
                    w.intervals += result
                        .outcomes
                        .iter()
                        .map(|o| o.samples as u64)
                        .sum::<u64>();
                    w.rank_pcts.extend(rank_pcts(&result));
                }
            }
            Ok(_) => {
                w.failed += 1;
                note_failure(
                    notes,
                    format!("op {op}: re-mined document differs from the live one"),
                );
            }
            Err(e) => {
                w.failed += 1;
                note_failure(notes, e);
            }
        }
        if clock.expired(seconds) {
            break;
        }
    }
    clock.stop(&mut w);
    w
}

fn entry_point(store: &TraceStore) -> Result<(String, Option<CampaignResult>), String> {
    let mined = mine_corpus(
        store,
        &CorpusMineOptions {
            threads: THREADS,
            progress: false,
            quarantine: false,
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((mined.document, Some(mined.result)))
}

/// Scratch directory of this process.
pub fn work_dir(cfg: &Config) -> PathBuf {
    cfg.out_dir
        .join(format!("work-{}-{}", cfg.workload, std::process::id()))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let work = work_dir(cfg);
    let base = base_seed(cfg.seed);
    let n = corpus_seeds(cfg.tiny);
    let mut attempt = 0;
    let (setup_s, corpus) = repeat_setup(if cfg.trace { 1 } else { 3 }, || {
        attempt += 1;
        write_corpus(&work.join(format!("corpus-{attempt}")), base, n)
    })?;
    let want = expected(&corpus.document, cfg.corrupt_expected);
    let mut out = Outcome::default();
    if !cfg.trace {
        let w = window(cfg.seconds, &want, &mut out.notes, |_| {
            entry_point(&corpus.store)
        });
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.metrics = end_to_end(setup_s, &w, TAIL, &mut out.notes);
        drop(corpus);
        let _ = std::fs::remove_dir_all(&work);
        return Ok(out);
    }

    let untraced = window(cfg.seconds / 2.0, &want, &mut out.notes, |_| {
        entry_point(&corpus.store)
    });
    let tracer = Tracer::default();
    let counts = Counts::default();
    let traced = window(cfg.seconds / 2.0, &want, &mut out.notes, |op| {
        tracer.span(op, None, "op", "", |id| {
            let cx = Ctx {
                tracer: &tracer,
                counts: &counts,
                op,
                parent: Some(id),
            };
            composed(cx, &corpus.store).map(|doc| (doc, None))
        })
    });
    let spans = tracer.spans();
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let mut values = Layered::new();
    values.insert(
        "core.pool_utilization".into(),
        sum("job") / (THREADS as f64 * sum("core.pool")).max(1.0),
    );
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    out.metrics = per_layer(
        values,
        &counts,
        &spans,
        None,
        traced.attempted,
        &untraced,
        &traced,
        &["tracestore", "trace"],
        &mut out.notes,
    );
    save_spans(cfg, &spans, &mut out.notes);
    drop(corpus);
    let _ = std::fs::remove_dir_all(&work);
    Ok(out)
}
