//! The Sentomist benchmark.
//!
//! One binary runs one named workload for a fixed wall time, checks every
//! output it produces and prints every metric by name with its unit. It
//! drives each layer from outside, through public functions only.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `case1-long` — case study I, 5 runs × 40 simulated s, one job at a
//!   time: the one large one-class SVM problem.
//! * `case3-sweep` — case study III seed sweep through the supervised
//!   campaign pool at 2 threads, each job also encoding its traces to
//!   `.stc` bytes: the emulator workload.
//! * `remine-case3` — `mine_corpus` at 2 threads over a 64-seed stored
//!   case-III corpus: the store's read side.
//! * `daemon-mix` — two closed-loop clients against an in-process
//!   `service::Server`: framing, queueing and the result cache.
//!
//! With `--trace 0` a run reports the end-to-end metrics of the entry
//! points (`run_case1_traced`, `Mode`'s jobs, `mine_corpus`, the daemon).
//! With `--trace 1` it spends half its time on the same entry points and
//! half on a composition of the public pieces they are built from, with a
//! span around each call ([`spans`]); the composition's outputs are
//! checked identical to the entry points', and the per-layer metrics come
//! from its spans.

pub mod case1;
pub mod case3;
pub mod compose;
pub mod daemon;
pub mod measure;
pub mod remine;
pub mod spans;

use measure::{metric, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["case1-long", "case3-sweep", "remine-case3", "daemon-mix"];

/// Daemon verbs with a per-verb round trip.
pub const VERBS: [&str; 5] = ["ping", "lint", "slice", "mine", "emulate"];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reads 0. Times and counts are per op.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("tinyvm.emulate_ms", "ms"),
        ("tinyvm.instructions", "count"),
        ("tinyvm.minstr_per_s", "Minstr/s"),
        ("netsim.run_ms", "ms"),
        ("netsim.deliveries", "count"),
        ("trace.events", "count"),
        ("trace.extract_ms", "ms"),
        ("trace.intervals", "count"),
        ("trace.featurize_ms", "ms"),
        ("mlcore.scale_ms", "ms"),
        ("mlcore.fit_ms", "ms"),
        ("mlcore.fit_n", "count"),
        ("mlcore.smo_iterations", "count"),
        ("mlcore.support_vectors", "count"),
        ("mlcore.converged_ratio", "ratio"),
        ("core.rank_ms", "ms"),
        ("core.pool_utilization", "ratio"),
        ("tracestore.encode_ms", "ms"),
        ("tracestore.encoded_bytes", "bytes"),
        ("tracestore.encode_ratio", "ratio"),
        ("tracestore.decode_ms", "ms"),
        ("tracestore.decode_mb_per_s", "MB/s"),
        ("apps.document_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for verb in VERBS {
        v.push((format!("service.{verb}_rtt_ms"), "ms"));
        v.push((format!("service.{verb}_overhead_us"), "us"));
    }
    for (n, u) in [
        ("service.cache_hit_ratio", "ratio"),
        ("service.shed", "count"),
        ("service.rejected", "count"),
        ("service.failed", "count"),
        ("service.bytes_out", "bytes"),
        ("staticlint.lint_ms", "ms"),
        ("staticlint.slice_ms", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    for layer in spans::LAYERS {
        v.push((format!("{layer}.self_ms"), "ms"));
    }
    for (n, u) in [
        ("unattributed_ms", "ms"),
        ("op_busy_ms", "ms"),
        ("traced.op_p50_ms", "ms"),
        ("untraced.op_p50_ms", "ms"),
        ("tracing.overhead_pct", "%"),
        ("prediction.holds", "count"),
        ("error_ratio", "ratio"),
        ("quality.symptom_rank_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// How one benchmark run is shaped.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Corrupt every expected output (negative test of the checks).
    pub corrupt_expected: bool,
    /// Where scratch stores and span files go.
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: error responses, wire failures and output
    /// mismatches.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Provenance and diagnostics (commit, toolchain, percentile used...).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// True iff every op succeeded and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line printed before the result.
    pub fn notes_json(&self) -> String {
        let body: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{}\": \"{}\"",
                    k,
                    v.replace('\\', "\\\\").replace('"', "'")
                )
            })
            .collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The measured window of an untraced run (or of one half of a traced
/// run).
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Per-op latency, ms, for completed ops.
    pub lat_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (including output mismatches).
    pub failed: u64,
    /// Wall seconds of the window.
    pub wall_s: f64,
    /// Process CPU ms spent in the window.
    pub cpu_ms: f64,
    /// Event-handling intervals ranked in the window.
    pub intervals: u64,
    /// Per-job worst symptom rank, % of intervals ranked.
    pub rank_pcts: Vec<f64>,
    /// Peak resident set size when the window closed, MiB (before any
    /// after-the-window checking runs).
    pub peak_rss_mb: f64,
}

impl Window {
    /// Median op latency.
    pub fn p50(&self) -> f64 {
        measure::median(&self.lat_ms)
    }
}

/// Starts the clocks of a window.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    t0: Instant,
    cpu0: f64,
}

impl Clock {
    /// Reads wall and CPU clocks now.
    pub fn start() -> Clock {
        Clock {
            t0: Instant::now(),
            cpu0: measure::cpu_ms(),
        }
    }

    /// Whether `seconds` have passed.
    pub fn expired(&self, seconds: f64) -> bool {
        self.t0.elapsed().as_secs_f64() >= seconds
    }

    /// Stamps wall and CPU time into `w`.
    pub fn stop(&self, w: &mut Window) {
        w.wall_s = self.t0.elapsed().as_secs_f64();
        w.cpu_ms = measure::cpu_ms() - self.cpu0;
        w.peak_rss_mb = measure::peak_rss_mb();
    }
}

/// Records a failure's message; only the first few are kept.
pub fn note_failure(notes: &mut Vec<(String, String)>, message: String) {
    let n = notes
        .iter()
        .filter(|(k, _)| k.starts_with("failure_"))
        .count();
    if n < 5 {
        notes.push((format!("failure_{n}"), message));
    }
}

/// Runs `setup` `times` times and returns the median wall seconds plus
/// the last result (earlier results are dropped before the next set-up).
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((measure::median(&secs), last.expect("at least one set-up")))
}

/// The end-to-end metrics of an untraced run; `tail` is the workload's
/// `op_tail_ms` percentile.
pub fn end_to_end(
    setup_s: f64,
    w: &Window,
    tail: measure::Tail,
    notes: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let mut sorted = w.lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let done = sorted.len().max(1) as f64;
    notes.push(("ops_completed".into(), sorted.len().to_string()));
    notes.push(("op_tail_percentile".into(), tail.label.into()));
    notes.push((
        "op_tail_samples_beyond".into(),
        measure::beyond(sorted.len(), tail.p).to_string(),
    ));
    let tail = measure::percentile(&sorted, tail.p);
    notes.push((
        "error_ratio".into(),
        format!("{}", w.failed as f64 / w.attempted.max(1) as f64),
    ));
    // The paper's quality measure. It is reported here and as a per-layer
    // metric, not as a bounded end-to-end metric: per-job worst ranks
    // take few distinct values (case III: rank 1 or 2 of ~97 in ~95% of
    // jobs), so its median jumps between levels from seed to seed.
    notes.push(("jobs_with_symptoms".into(), w.rank_pcts.len().to_string()));
    notes.push((
        "symptom_rank_pct".into(),
        format!("{} %", measure::median(&w.rank_pcts)),
    ));
    vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", measure::percentile(&sorted, 50.0), "ms"),
        metric("op_tail_ms", tail, "ms"),
        metric("ops_per_s", sorted.len() as f64 / w.wall_s, "1/s"),
        metric("intervals_per_s", w.intervals as f64 / w.wall_s, "1/s"),
        metric("cpu_ms_per_op", w.cpu_ms / done, "ms"),
        metric("peak_rss_mb", w.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer values gathered by a traced run, keyed by metric name.
pub type Layered = BTreeMap<String, f64>;

/// Adds self times, the op accounting and the tracing overhead to
/// `values`, checks the dominant-layer prediction, and emits every
/// per-layer metric (0 where a workload does not exercise a layer).
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    mut values: Layered,
    counts: &compose::Counts,
    spans: &[spans::Span],
    estimated_selfs: Option<spans::SelfTimes>,
    ops: u64,
    untraced: &Window,
    traced: &Window,
    predicted: &[&str],
    notes: &mut Vec<(String, String)>,
) -> Vec<Metric> {
    let mut st = spans::self_times(spans);
    if let Some(est) = estimated_selfs {
        st.by_layer = est.by_layer;
        st.unattributed_ms = est.unattributed_ms;
        st.busy_ms = est.busy_ms;
    }
    let per_op = |v: f64| v / ops.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let span_ms = |name: &str| st.by_name.get(name).copied().unwrap_or(0.0);
    // Span times per op: a `<span>_ms` metric is the summed duration of
    // the spans named `<span>`.
    for (name, unit) in per_layer_names() {
        if let Some(span) = name.strip_suffix("_ms").filter(|_| unit == "ms") {
            if st.by_name.contains_key(span) && !values.contains_key(&name) {
                values.insert(name.clone(), per_op(span_ms(span)));
            }
        }
    }
    for k in [
        "tinyvm.instructions",
        "netsim.deliveries",
        "trace.events",
        "trace.intervals",
        "tracestore.encoded_bytes",
    ] {
        values.insert(k.into(), per_op(counts.get(k)));
    }
    let fits = counts.get("mlcore.fits");
    for k in [
        "mlcore.fit_n",
        "mlcore.smo_iterations",
        "mlcore.support_vectors",
    ] {
        values.insert(k.into(), ratio(counts.get(k), fits));
    }
    values.insert(
        "mlcore.converged_ratio".into(),
        ratio(counts.get("mlcore.converged"), fits),
    );
    values.insert(
        "tinyvm.minstr_per_s".into(),
        ratio(
            counts.get("tinyvm.instructions") / 1e3,
            span_ms("tinyvm.emulate") + span_ms("netsim.run"),
        ),
    );
    values.insert(
        "tracestore.encode_ratio".into(),
        ratio(
            counts.get("tracestore.encoded_bytes"),
            counts.get("tracestore.naive_bytes"),
        ),
    );
    values.insert(
        "tracestore.decode_mb_per_s".into(),
        ratio(
            counts.get("tracestore.decoded_bytes") / 1e3,
            span_ms("tracestore.decode"),
        ),
    );
    for layer in spans::LAYERS {
        values.insert(
            format!("{layer}.self_ms"),
            per_op(st.by_layer.get(layer).copied().unwrap_or(0.0)),
        );
    }
    values.insert("unattributed_ms".into(), per_op(st.unattributed_ms));
    values.insert("op_busy_ms".into(), per_op(st.busy_ms));
    let (tp, up) = (traced.p50(), untraced.p50());
    values.insert("traced.op_p50_ms".into(), tp);
    values.insert("untraced.op_p50_ms".into(), up);
    values.insert(
        "tracing.overhead_pct".into(),
        if up > 0.0 {
            100.0 * (tp / up - 1.0)
        } else {
            0.0
        },
    );
    let pcts: Vec<f64> = untraced
        .rank_pcts
        .iter()
        .chain(&traced.rank_pcts)
        .copied()
        .collect();
    values.insert("quality.symptom_rank_pct".into(), measure::median(&pcts));
    let attempted = untraced.attempted + traced.attempted;
    values.insert(
        "error_ratio".into(),
        (untraced.failed + traced.failed) as f64 / attempted.max(1) as f64,
    );

    // Dominant layer: the predicted group must outweigh every other
    // single layer.
    let self_of = |l: &str| st.by_layer.get(l).copied().unwrap_or(0.0);
    let group: f64 = predicted.iter().map(|l| self_of(l)).sum();
    let (top, top_ms) = spans::LAYERS
        .iter()
        .map(|l| (*l, self_of(l)))
        .fold(("none", 0.0), |a, b| if b.1 > a.1 { b } else { a });
    let holds = spans::LAYERS
        .iter()
        .filter(|l| !predicted.contains(l))
        .all(|l| self_of(l) <= group);
    values.insert("prediction.holds".into(), if holds { 1.0 } else { 0.0 });
    let busy = st.busy_ms.max(f64::MIN_POSITIVE);
    notes.push(("predicted_dominant".into(), predicted.join("+")));
    notes.push((
        "measured_dominant".into(),
        format!("{top} ({:.1}% of busy time)", 100.0 * top_ms / busy),
    ));
    notes.push((
        "prediction".into(),
        if holds { "holds" } else { "wrong" }.to_string(),
    ));
    let shares: Vec<String> = spans::LAYERS
        .iter()
        .map(|l| format!("{l} {:.1}%", 100.0 * self_of(l) / busy))
        .chain(std::iter::once(format!(
            "unattributed {:.1}%",
            100.0 * st.unattributed_ms / busy
        )))
        .collect();
    notes.push(("self_time_shares".into(), shares.join(", ")));
    notes.push(("traced_ops".into(), ops.to_string()));

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            metric(name, v, unit)
        })
        .collect()
}

/// Writes a traced run's spans under the output directory.
pub fn save_spans(cfg: &Config, spans: &[spans::Span], notes: &mut Vec<(String, String)>) {
    let path = cfg
        .out_dir
        .join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
    match spans::write_spans(&path, spans) {
        Ok(()) => notes.push(("spans_file".into(), path.display().to_string())),
        Err(e) => notes.push(("spans_file_error".into(), e.to_string())),
    }
}

/// Provenance: commit, toolchain, cores, seed and run length.
pub fn provenance(cfg: &Config) -> Vec<(String, String)> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        ("workload".into(), cfg.workload.clone()),
        ("seed".into(), cfg.seed.to_string()),
        ("run_seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), (cfg.trace as u8).to_string()),
        ("commit".into(), cmd("git", &["rev-parse", "HEAD"])),
        ("source_digest".into(), format!("{:016x}", source_digest())),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc".into(), cmd("rustc", &["--version"])),
    ]
}

/// FNV-1a over the program's sources (`crates/*/src`, manifests): the
/// identity of the measured code when the checkout is not a git
/// repository.
pub fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    files.iter().fold(measure::fnv64(b""), |h, f| {
        let bytes = std::fs::read(f).unwrap_or_default();
        measure::fold(h, &bytes)
    })
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workload, or a set-up failure (no result can be reported).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = match cfg.workload.as_str() {
        "case1-long" => case1::run(cfg),
        "case3-sweep" => case3::run(cfg),
        "remine-case3" => remine::run(cfg),
        "daemon-mix" => daemon::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }?;
    let mut notes = provenance(cfg);
    notes.append(&mut out.notes);
    out.notes = notes;
    Ok(out)
}
