//! `case1-long`: case study I (buggy Oscilloscope, D ∈ {20..100} ms) with
//! 40 simulated seconds per run, one job at a time. Each job ranks about
//! 4,570 intervals × 64 counters: the one large one-class SVM problem.
//!
//! Ops cycle over a pool of sixteen seeds: a run of about 18 ops ranks
//! 16 distinct inputs, and every seed that comes round again must
//! reproduce its trace and ranking digests exactly.

use crate::compose::{self, chain_digest, Counts, Ctx, JobDigest, References};
use crate::measure::{ms_since, Rng};
use crate::spans::Tracer;
use crate::{
    end_to_end, note_failure, per_layer, repeat_setup, save_spans, Clock, Config, Layered, Outcome,
    Window,
};
use sentomist_apps::oscilloscope::{self, OscilloscopeParams};
use sentomist_apps::{run_case1_traced, Case1Config, Mode};
use sentomist_core::{SampleIndex, SampleSet};
use sentomist_trace::{Recorder, Trace};
use std::time::Instant;
use tinyvm::isa::{irq, DEFAULT_CLOCK_HZ};
use tinyvm::{LifecycleItem, Node, NodeConfig};

const POOL: usize = 16;
/// `op_tail_ms` percentile: about 18 ops in 20 s resolve no tail
/// percentile with ten samples beyond it.
const TAIL: crate::measure::Tail = crate::measure::P50;
/// Seed of the set-up's warm-up job.
const WARM_SEED: u64 = 45;

fn config(seed: u64, tiny: bool) -> Case1Config {
    Case1Config {
        run_seconds: if tiny { 2 } else { 40 },
        seed,
        ..Case1Config::default()
    }
}

/// The seed pool of a run.
pub fn seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 1);
    (0..POOL).map(|_| rng.next_u64() >> 24).collect()
}

fn entry_point(seed: u64, tiny: bool) -> Result<JobDigest, String> {
    run_case1_traced(&config(seed, tiny))
        .map(|(result, _)| JobDigest::of_case(&result))
        .map_err(|e| e.to_string())
}

/// Whether another ADC interrupt fired inside the interval: the
/// ground-truth symptom of case study I.
fn nested_adc(trace: &Trace, start: usize, end: usize) -> bool {
    (start + 1..end).any(|i| trace.events[i].item == LifecycleItem::Int(irq::ADC))
}

/// Case study I composed from its public pieces, one span per call.
///
/// # Errors
///
/// Assembly, VM, extraction or solver errors, as text.
pub fn composed(cx: Ctx<'_>, seed: u64, tiny: bool) -> Result<JobDigest, String> {
    let cfg = config(seed, tiny);
    let mut traces = Vec::with_capacity(cfg.periods_ms.len());
    for (r, &period) in cfg.periods_ms.iter().enumerate() {
        let program = cx.span("apps.assemble", "apps", |_| {
            oscilloscope::buggy(&OscilloscopeParams::with_period_ms(period))
                .map_err(|e| e.to_string())
        })?;
        let trace = cx.span("tinyvm.emulate", "tinyvm", |_| {
            let mut node = Node::new(
                program.clone(),
                NodeConfig {
                    seed: seed.wrapping_add(r as u64),
                    ..NodeConfig::default()
                },
            );
            let mut recorder = Recorder::new(program.len());
            node.run(cfg.run_seconds * DEFAULT_CLOCK_HZ, &mut recorder)
                .map_err(|e| e.to_string())?;
            cx.counts
                .add("tinyvm.instructions", node.instructions_retired() as f64);
            Ok::<_, String>(recorder.into_trace())
        })?;
        traces.push(trace);
    }
    let trace_digest = cx.span("trace.digest", "trace", |_| {
        chain_digest(traces.iter().map(Trace::digest))
    });
    let mut set = SampleSet::empty();
    let mut buggy = Vec::new();
    for (r, trace) in traces.iter().enumerate() {
        let first = set.len();
        compose::harvest(
            cx,
            trace,
            irq::ADC,
            |seq| SampleIndex::RunSeq {
                run: r as u32 + 1,
                seq,
            },
            &mut set,
        )?;
        cx.span("apps.oracle", "apps", |_| {
            for row in first..set.len() {
                let iv = &set.meta[row].interval;
                if nested_adc(trace, iv.start_index, iv.end_index) {
                    buggy.push(row);
                }
            }
        });
    }
    let nu = match cfg.detector {
        sentomist_apps::DetectorKind::OcSvm { nu } => nu,
        _ => return Err("case study I is configured for the one-class SVM".into()),
    };
    compose::rank(cx, set, nu, &buggy, trace_digest)
}

/// Runs the entry point over the seed pool until `seconds` pass.
fn untraced_window(
    cfg: &Config,
    pool: &[u64],
    seconds: f64,
    refs: &mut References,
    notes: &mut Vec<(String, String)>,
) -> Window {
    let mut w = Window::default();
    let clock = Clock::start();
    for i in 0.. {
        let seed = pool[i % pool.len()];
        let t = Instant::now();
        let got = entry_point(seed, cfg.tiny);
        let ms = ms_since(t);
        w.attempted += 1;
        match got.and_then(|d| refs.check(seed, &d).map(|()| d)) {
            Ok(d) => {
                w.lat_ms.push(ms);
                w.intervals += d.samples as u64;
                w.rank_pcts.extend(d.rank_pct());
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

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let pool = seeds(cfg.seed);
    // Set-up: assemble and digest the five programs, then warm up with
    // one short (2 s per run) job so lazy state is paid before timing.
    // The warm-up is the same in every run, so set-up time does not
    // depend on the workload seed.
    let warm = WARM_SEED;
    let (setup_s, _) = repeat_setup(5, || {
        Mode::Case1.program_digest().map_err(|e| e.to_string())?;
        entry_point(warm, true)
    })?;
    let mut refs = References::new(cfg.corrupt_expected);
    let mut out = Outcome::default();
    if !cfg.trace {
        let w = untraced_window(cfg, &pool, cfg.seconds, &mut refs, &mut out.notes);
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.metrics = end_to_end(setup_s, &w, TAIL, &mut out.notes);
        return Ok(out);
    }

    let untraced = untraced_window(cfg, &pool, cfg.seconds / 2.0, &mut refs, &mut out.notes);
    let tracer = Tracer::default();
    let counts = Counts::default();
    let mut traced = Window::default();
    let clock = Clock::start();
    for op in 0u64.. {
        let seed = pool[op as usize % pool.len()];
        if refs.get(seed).is_none() {
            if let Ok(d) = entry_point(seed, cfg.tiny) {
                refs.check(seed, &d)?;
            }
        }
        let t = Instant::now();
        let got = tracer.span(op, None, "op", "", |id| {
            let cx = Ctx {
                tracer: &tracer,
                counts: &counts,
                op,
                parent: Some(id),
            };
            composed(cx, seed, cfg.tiny)
        });
        let ms = ms_since(t);
        traced.attempted += 1;
        match got.and_then(|d| refs.check(seed, &d)) {
            Ok(()) => traced.lat_ms.push(ms),
            Err(e) => {
                traced.failed += 1;
                note_failure(&mut out.notes, e);
            }
        }
        if clock.expired(cfg.seconds / 2.0) {
            break;
        }
    }
    clock.stop(&mut traced);
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    let spans = tracer.spans();
    out.metrics = per_layer(
        Layered::new(),
        &counts,
        &spans,
        None,
        traced.attempted,
        &untraced,
        &traced,
        &["mlcore"],
        &mut out.notes,
    );
    save_spans(cfg, &spans, &mut out.notes);
    Ok(out)
}
