//! `case3-sweep`: case study III (9-node CTP on `netsim`, 15 simulated
//! seconds, about 97 intervals) swept over seeds through the supervised
//! campaign pool at 2 threads. Each job also encodes its 9 traces to
//! `.stc` bytes in memory with `write_trace`, the store's write side minus
//! the disk flush.
//!
//! Ops cycle over a pool of 48 seeds in batches of 32, so every seed
//! repeats and must reproduce its trace, ranking and encoding digests.

use crate::compose::{self, chain_digest, Counts, Ctx, JobDigest, References};
use crate::measure::{fnv64, fold, ms_since, Rng};
use crate::spans::Tracer;
use crate::{
    end_to_end, note_failure, per_layer, repeat_setup, save_spans, Clock, Config, Layered, Outcome,
    Window,
};
use sentomist_apps::{ctp, run_case3_traced, Case3Config, Mode};
use sentomist_core::supervise::{run_supervised, RunContext, RunFailure, SupervisorOptions};
use sentomist_core::{SampleIndex, SampleSet};
use sentomist_trace::{Recorder, Trace};
use sentomist_tracestore::write_trace;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tinyvm::isa::{irq, DEFAULT_CLOCK_HZ};
use tinyvm::Program;

/// Worker threads of the campaign pool.
pub const THREADS: usize = 2;
/// `op_tail_ms` percentile: about 600 jobs in 20 s leave ~60 beyond p90
/// and ~6 beyond p99.
const TAIL: crate::measure::Tail = crate::measure::P90;

fn sizes(tiny: bool) -> (usize, usize) {
    if tiny {
        (4, 4)
    } else {
        (48, 32)
    }
}

/// The seed pool of a run.
pub fn seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|_| rng.next_u64() >> 24).collect()
}

/// Options of the supervised pool: 2 threads, no retries, no watchdog.
pub fn pool_options() -> SupervisorOptions {
    SupervisorOptions {
        threads: THREADS,
        progress: false,
        max_retries: 0,
        timeout: None,
        cycle_budget: None,
        backoff_base_ms: 0,
        stop_after: None,
    }
}

/// Encodes traces to `.stc` bytes in memory; returns the digest of all
/// bytes plus (encoded, naive) byte counts.
fn encode(traces: &[Trace]) -> Result<(u64, u64, u64), String> {
    let mut digest = fnv64(b"stc");
    let (mut encoded, mut naive) = (0, 0);
    for trace in traces {
        let mut bytes = Vec::new();
        let stats = write_trace(&mut bytes, trace).map_err(|e| e.to_string())?;
        digest = fold(digest, &bytes);
        encoded += stats.encoded_bytes;
        naive += stats.naive_bytes;
    }
    Ok((digest, encoded, naive))
}

fn entry_point(seed: u64) -> Result<JobDigest, String> {
    let (result, traces) = run_case3_traced(&Case3Config {
        seed,
        ..Case3Config::default()
    })
    .map_err(|e| e.to_string())?;
    let mut d = JobDigest::of_case(&result);
    d.encoded_digest = encode(&traces)?.0;
    Ok(d)
}

/// Case study III's mining stage (what `mine_case3` does) composed from
/// its public pieces: harvest the four source nodes' report-timer
/// intervals, mark those that ran the send-failure branch, rank.
///
/// # Errors
///
/// Wrong trace count, extraction or solver errors, as text.
pub fn mine_composed(
    cx: Ctx<'_>,
    program: &Program,
    traces: &[Trace],
) -> Result<JobDigest, String> {
    if traces.len() != ctp::NODE_COUNT as usize {
        return Err(format!(
            "case III expects 9 node traces, got {}",
            traces.len()
        ));
    }
    let fail_pc = program
        .label("ctp_fail")
        .ok_or("ctp program lacks the ctp_fail label")? as usize;
    let trace_digest = cx.span("trace.digest", "trace", |_| {
        chain_digest(traces.iter().map(Trace::digest))
    });
    let mut set = SampleSet::empty();
    let mut buggy = Vec::new();
    for (id, trace) in traces.iter().enumerate() {
        let node = id as u16;
        if !ctp::SOURCES.contains(&node) {
            continue;
        }
        let first = set.len();
        compose::harvest(
            cx,
            trace,
            irq::TIMER0,
            |seq| SampleIndex::NodeSeq { node, seq },
            &mut set,
        )?;
        buggy.extend((first..set.len()).filter(|&row| set.features.row(row)[fail_pc] > 0.0));
    }
    let nu = match Case3Config::default().detector {
        sentomist_apps::DetectorKind::OcSvm { nu } => nu,
        _ => return Err("case study III is configured for the one-class SVM".into()),
    };
    compose::rank(cx, set, nu, &buggy, trace_digest)
}

/// One case-III job composed from its public pieces: assemble, emulate
/// all nodes on `NetSim`, encode, mine.
///
/// # Errors
///
/// Assembly, simulation, encoding, extraction or solver errors.
pub fn composed(cx: Ctx<'_>, seed: u64) -> Result<JobDigest, String> {
    let cfg = Case3Config {
        seed,
        ..Case3Config::default()
    };
    let program = cx.span("apps.assemble", "apps", |_| {
        ctp::buggy(&cfg.params).map_err(|e| e.to_string())
    })?;
    let mut sim = cx.span("netsim.setup", "netsim", |_| {
        let mut sim = netsim::NetSim::new(ctp::topology().map_err(|e| e.to_string())?, seed);
        for id in 0..ctp::NODE_COUNT {
            sim.add_node(program.clone(), ctp::node_config(id, seed))
                .map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(sim)
    })?;
    let mut recorders: Vec<Recorder> = (0..ctp::NODE_COUNT)
        .map(|_| Recorder::new(program.len()))
        .collect();
    cx.span("netsim.run", "netsim", |_| {
        sim.run(cfg.run_seconds * DEFAULT_CLOCK_HZ, &mut recorders)
            .map_err(|e| e.to_string())
    })?;
    let instructions: u64 = (0..ctp::NODE_COUNT)
        .map(|id| sim.node(id).instructions_retired())
        .sum();
    cx.counts.add("tinyvm.instructions", instructions as f64);
    cx.counts
        .add("netsim.deliveries", sim.deliveries().len() as f64);
    let traces: Vec<Trace> = cx.span("trace.record", "trace", |_| {
        recorders.into_iter().map(Recorder::into_trace).collect()
    });
    let (encoded_digest, encoded, naive) =
        cx.span("tracestore.encode", "tracestore", |_| encode(&traces))?;
    cx.counts.add("tracestore.encoded_bytes", encoded as f64);
    cx.counts.add("tracestore.naive_bytes", naive as f64);
    let mut d = mine_composed(cx, &program, &traces)?;
    d.encoded_digest = encoded_digest;
    Ok(d)
}

type Records = Arc<Mutex<Vec<(u64, f64, Result<JobDigest, String>)>>>;

/// Sweeps seed batches through the supervised pool until `seconds` pass;
/// `job` runs one seed and returns its identity. Returns the window plus
/// the summed wall time of the batches.
fn sweep<J>(
    cfg: &Config,
    pool: &[u64],
    seconds: f64,
    refs: &mut References,
    notes: &mut Vec<(String, String)>,
    job: J,
) -> Window
where
    J: Fn(u64) -> Result<JobDigest, String> + Send + Sync + 'static,
{
    let (_, batch) = sizes(cfg.tiny);
    let records: Records = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&records);
    let pooled = Arc::new(move |ctx: &RunContext| {
        let t = Instant::now();
        let got = job(ctx.seed());
        let ms = ms_since(t);
        let outcome = got
            .as_ref()
            .map(|d| d.to_outcome(ctx.seed()))
            .map_err(Clone::clone);
        sink.lock()
            .expect("records lock")
            .push((ctx.seed(), ms, got));
        outcome.map_err(RunFailure::Transient)
    });
    let mut w = Window::default();
    let clock = Clock::start();
    let mut next = 0;
    loop {
        let seeds: Vec<u64> = (0..batch).map(|j| pool[(next + j) % pool.len()]).collect();
        next += batch;
        run_supervised(&seeds, &pool_options(), Arc::clone(&pooled), |_| {});
        for (seed, ms, got) in records.lock().expect("records lock").drain(..) {
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
    let (n, _) = sizes(cfg.tiny);
    let pool = seeds(cfg.seed, n);
    // Set-up: assemble and digest the program, build the topology, then
    // warm up with one job so lazy state is paid before timing. The
    // warm-up is the same in every run.
    let warm = Case3Config::default().seed;
    let (setup_s, _) = repeat_setup(5, || {
        ctp::topology().map_err(|e| e.to_string())?;
        Mode::Case3.program_digest().map_err(|e| e.to_string())?;
        entry_point(warm)
    })?;
    let mut refs = References::new(cfg.corrupt_expected);
    let mut out = Outcome::default();
    if !cfg.trace {
        let w = sweep(
            cfg,
            &pool,
            cfg.seconds,
            &mut refs,
            &mut out.notes,
            entry_point,
        );
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.metrics = end_to_end(setup_s, &w, TAIL, &mut out.notes);
        return Ok(out);
    }

    let untraced = sweep(
        cfg,
        &pool,
        cfg.seconds / 2.0,
        &mut refs,
        &mut out.notes,
        entry_point,
    );
    let tracer = Arc::new(Tracer::default());
    let counts = Arc::new(Counts::default());
    let ops = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let (t2, c2) = (Arc::clone(&tracer), Arc::clone(&counts));
    let traced = sweep(
        cfg,
        &pool,
        cfg.seconds / 2.0,
        &mut refs,
        &mut out.notes,
        move |seed| {
            let op = ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            t2.span(op, None, "job", "", |id| {
                composed(
                    Ctx {
                        tracer: &t2,
                        counts: &c2,
                        op,
                        parent: Some(id),
                    },
                    seed,
                )
            })
        },
    );
    let spans = tracer.spans();
    let busy_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    let mut values = Layered::new();
    values.insert(
        "core.pool_utilization".into(),
        busy_ms / (THREADS as f64 * traced.wall_s * 1e3),
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
        &["tinyvm", "netsim"],
        &mut out.notes,
    );
    save_spans(cfg, &spans, &mut out.notes);
    Ok(out)
}
