//! `daemon-mix`: an in-process `service::Server` with its default config
//! (2 workers, cache 16) and two closed-loop clients on loopback. Each
//! client sends a seeded mix: 50% `Mine` of the `remine-case3` corpus
//! (served from the cache after the first), 15% `Lint`, 15% `Slice`, 10%
//! `Ping` and 10% `Emulate` (trigger mode, 2 s, a fresh seed each). The
//! loop is closed because daemon callers wait for each reply.
//!
//! Every payload is checked byte-identical to the in-process result:
//! `mine_corpus`, `staticlint::lint`, `jobs::slice_document` and the
//! trigger-mode job. Emulate payloads are checked after the window, so
//! the clients' loop carries no checking work.

use crate::compose::Counts;
use crate::measure::{fnv64, median, ms_since, Rng};
use crate::remine::{self, Corpus};
use crate::spans::{SelfTimes, Tracer};
use crate::{
    end_to_end, note_failure, per_layer, repeat_setup, save_spans, Clock, Config, Layered, Outcome,
    Window, VERBS,
};
use sentomist_apps::{bundled_program, mine_corpus, slice_document, CorpusMineOptions, Mode};
use sentomist_core::campaign::RunOutcome;
use sentomist_service::{Client, Request, Response, Server, ServiceConfig, HEADER_LEN};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

const APPS: [&str; 3] = ["oscilloscope", "forwarder", "ctp"];
/// `op_tail_ms` percentile: about 45,000 requests in 20 s leave ~45
/// beyond p99.9.
const TAIL: crate::measure::Tail = crate::measure::P99_9;
const CLIENTS: u64 = 2;
const EMULATE_PERIOD_MS: u32 = 20;
const EMULATE_SECONDS: u64 = 2;
const EMULATE_NU: f64 = 0.05;

fn pretty<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, String> {
    let mut s = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    s.push('\n');
    Ok(s.into_bytes())
}

/// The in-process answers every payload is compared with.
#[derive(Debug, Clone)]
pub struct Expected {
    mine: Vec<u8>,
    lint: Vec<Vec<u8>>,
    slice: Vec<Vec<u8>>,
}

fn lint_doc(app: usize) -> Result<Vec<u8>, String> {
    let program = bundled_program(APPS[app / 2], app % 2 == 1).map_err(|e| e.0)?;
    pretty(&staticlint::lint(&program))
}

fn slice_doc(app: usize) -> Result<Vec<u8>, String> {
    slice_document(APPS[app / 2], app % 2 == 1, &[])
        .map(String::into_bytes)
        .map_err(|e| e.0)
}

fn emulate_outcome(seed: u64) -> Result<RunOutcome, String> {
    let mode = Mode::Trigger {
        period: EMULATE_PERIOD_MS,
        seconds: EMULATE_SECONDS,
        nu: EMULATE_NU,
    };
    mode.job().map_err(|e| e.0)?(seed)
}

impl Expected {
    fn compute(corpus: &Corpus, corrupt: bool) -> Result<Expected, String> {
        let mined = mine_corpus(&corpus.store, &CorpusMineOptions::default()).map_err(|e| e.0)?;
        if mined.document != corpus.document {
            return Err("in-process re-mine differs from the live campaign document".into());
        }
        let mut e = Expected {
            mine: remine::expected(&mined.document, corrupt),
            lint: (0..6).map(lint_doc).collect::<Result<_, _>>()?,
            slice: (0..6).map(slice_doc).collect::<Result<_, _>>()?,
        };
        if corrupt {
            e.lint
                .iter_mut()
                .chain(e.slice.iter_mut())
                .for_each(|d| d[0] ^= 0x20);
        }
        Ok(e)
    }
}

/// The server, its corpus and the expected answers.
pub struct Daemon {
    server: Option<Server>,
    addr: SocketAddr,
    corpus: Corpus,
    expected: Expected,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

/// One request of the mix, kept small: a run sends tens of thousands,
/// and the log must not dominate the process's memory.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Round trip, ms.
    pub rtt_ms: f64,
    /// Response bytes on the wire.
    pub bytes: u32,
    /// Index into [`VERBS`].
    pub verb: u8,
    /// Error response, wire failure or wrong payload.
    pub failed: bool,
}

/// What one client sent.
#[derive(Debug, Default)]
pub struct Log {
    /// Every request, in order.
    pub sent: Vec<Sent>,
    /// Emulate requests: (index into `sent`, seed, payload digest), checked
    /// after the window.
    pub emulates: Vec<(usize, u64, u64)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Requests a client may log before its vector grows; reserved up front
/// so growth never copies the log inside the window.
const LOG_CAPACITY: usize = 1 << 18;

fn request_for(rng: &mut Rng, store: &str) -> (usize, Request, usize) {
    let app = rng.below(6) as usize;
    let (app_name, fixed) = (APPS[app / 2].to_string(), app % 2 == 1);
    let request = match rng.below(100) {
        0..=49 => Request::Mine {
            store: store.to_string(),
            quarantine: false,
        },
        50..=64 => Request::Lint {
            app: app_name,
            fixed,
        },
        65..=79 => Request::Slice {
            app: app_name,
            fixed,
            pcs: vec![],
        },
        80..=89 => Request::Ping,
        _ => Request::Emulate {
            case: String::new(),
            period: EMULATE_PERIOD_MS,
            seconds: EMULATE_SECONDS,
            nu: EMULATE_NU,
            seed: rng.next_u64() >> 24,
        },
    };
    let verb = match request {
        Request::Ping => 0,
        Request::Lint { .. } => 1,
        Request::Slice { .. } => 2,
        Request::Mine { .. } => 3,
        _ => 4,
    };
    (verb, request, app)
}

fn check(d: &Daemon, verb: usize, app: usize, payload: &[u8]) -> Result<(), String> {
    let want: &[u8] = match verb {
        0 => b"pong\n",
        1 => &d.expected.lint[app],
        2 => &d.expected.slice[app],
        3 => &d.expected.mine,
        _ => return Ok(()),
    };
    if payload == want {
        Ok(())
    } else {
        Err(format!(
            "{} payload differs from the in-process result",
            VERBS[verb]
        ))
    }
}

/// One closed-loop client until `seconds` pass; `wrap` runs each request
/// (the traced run puts a span around it).
fn client(
    d: &Daemon,
    seed: u64,
    id: u64,
    clock: &Clock,
    seconds: f64,
    wrap: &(dyn Fn(usize, &mut dyn FnMut()) + Sync),
) -> Log {
    let mut rng = Rng::new(seed, 100 + id);
    let store = d.corpus.dir.display().to_string();
    let mut conn: Option<Client> = None;
    let mut log = Log {
        sent: Vec::with_capacity(LOG_CAPACITY),
        ..Log::default()
    };
    loop {
        let (verb, request, app) = request_for(&mut rng, &store);
        let mut record = Sent {
            rtt_ms: 0.0,
            bytes: 0,
            verb: verb as u8,
            failed: false,
        };
        let mut outcome: Result<Option<u64>, String> = Ok(None);
        let mut call = || {
            let t = Instant::now();
            let response = match conn.as_mut() {
                Some(c) => c.request(&request),
                None => Client::connect(d.addr).and_then(|mut c| {
                    let r = c.request(&request);
                    conn = Some(c);
                    r
                }),
            };
            record.rtt_ms = ms_since(t);
            outcome = match response {
                Ok(Response::Ok(payload)) => {
                    record.bytes = (payload.len() + HEADER_LEN) as u32;
                    check(d, verb, app, &payload).map(|()| Some(fnv64(&payload)))
                }
                Ok(other) => Err(format!("{} answered {other:?}", VERBS[verb])),
                Err(e) => {
                    conn = None;
                    Err(format!("{} wire failure: {e}", VERBS[verb]))
                }
            };
        };
        wrap(verb, &mut call);
        match (outcome, &request) {
            (Ok(Some(digest)), Request::Emulate { seed, .. }) => {
                log.emulates.push((log.sent.len(), *seed, digest));
            }
            (Ok(_), _) => {}
            (Err(e), _) => {
                record.failed = true;
                if log.errors.len() < 5 {
                    log.errors.push(e);
                }
            }
        }
        log.sent.push(record);
        if clock.expired(seconds) {
            return log;
        }
    }
}

/// Runs both clients; returns their logs and the window, whose peak RSS
/// is read before any checking work runs.
fn mix(
    d: &Daemon,
    seed: u64,
    seconds: f64,
    wrap: &(dyn Fn(usize, &mut dyn FnMut()) + Sync),
) -> (Vec<Log>, Window) {
    let clock = Clock::start();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || client(d, seed, id, &clock, seconds, wrap)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut w = Window::default();
    clock.stop(&mut w);
    (logs, w)
}

/// Checks the emulate payloads against the in-process job, on 2
/// threads, and fills the window's counts.
fn settle(logs: &mut [Log], w: &mut Window, corrupt: bool, notes: &mut Vec<(String, String)>) {
    for (l, log) in logs.iter_mut().enumerate() {
        let verdicts: Mutex<Vec<(usize, Result<RunOutcome, String>)>> = Mutex::new(Vec::new());
        let emulates = &log.emulates;
        std::thread::scope(|s| {
            for part in emulates.chunks(emulates.len().div_ceil(2).max(1)) {
                let verdicts = &verdicts;
                s.spawn(move || {
                    for &(i, seed, digest) in part {
                        let v = emulate_outcome(seed).and_then(|o| {
                            let want = fnv64(&pretty(&o)?) ^ u64::from(corrupt);
                            if want == digest {
                                Ok(o)
                            } else {
                                Err(format!(
                                    "client {l}: emulate seed {seed}: payload differs from the in-process job"
                                ))
                            }
                        });
                        verdicts.lock().expect("verdict lock").push((i, v));
                    }
                });
            }
        });
        for (i, v) in verdicts.into_inner().expect("verdict lock") {
            match v {
                Ok(o) => {
                    w.intervals += o.samples as u64;
                    w.rank_pcts
                        .extend(crate::measure::symptom_rank_pct(&o.buggy_ranks, o.samples));
                }
                Err(e) => {
                    log.sent[i].failed = true;
                    log.errors.push(e);
                }
            }
        }
        for s in &log.sent {
            w.attempted += 1;
            if s.failed {
                w.failed += 1;
            } else {
                w.lat_ms.push(s.rtt_ms);
            }
        }
        for e in log.errors.drain(..) {
            note_failure(notes, e);
        }
    }
}

/// The repeated part of set-up: write the corpus and compute the
/// expected answers.
fn prepare(cfg: &Config, attempt: usize) -> Result<(Corpus, Expected), String> {
    let dir = remine::work_dir(cfg).join(format!("corpus-{attempt}"));
    let corpus = remine::write_corpus(
        &dir,
        remine::base_seed(cfg.seed),
        remine::corpus_seeds(cfg.tiny),
    )?;
    let expected = Expected::compute(&corpus, cfg.corrupt_expected)?;
    Ok((corpus, expected))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, including a failed warm-up request.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut attempt = 0;
    // The corpus and expected answers are set up several times (median
    // reported); the server starts once, after them, so no stopped
    // daemon's threads precede the measured one.
    let (prepare_s, (corpus, expected)) = repeat_setup(if cfg.trace { 1 } else { 3 }, || {
        attempt += 1;
        prepare(cfg, attempt)
    })?;
    let t = Instant::now();
    let server = Server::start(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let setup_s = prepare_s + t.elapsed().as_secs_f64();
    let d = Daemon {
        addr: server.local_addr(),
        server: Some(server),
        corpus,
        expected,
    };
    // Warm-up: fill the result cache with the corpus document.
    let warm = Request::Mine {
        store: d.corpus.dir.display().to_string(),
        quarantine: false,
    };
    match sentomist_service::request(d.addr, &warm) {
        Ok(Response::Ok(_)) => {}
        other => return Err(format!("warm-up mine failed: {other:?}")),
    }
    let plain = |_: usize, call: &mut dyn FnMut()| call();
    let mut out = Outcome::default();
    out.notes.push((
        "peak_rss_after_setup_mb".into(),
        crate::measure::peak_rss_mb().to_string(),
    ));
    // Warm-up: two seconds of the mix, so the daemon's and the
    // allocator's per-thread state has grown before the window opens.
    let (mut warm_logs, mut warm_w) = mix(&d, !cfg.seed, if cfg.tiny { 0.1 } else { 2.0 }, &plain);
    settle(
        &mut warm_logs,
        &mut warm_w,
        cfg.corrupt_expected,
        &mut Vec::new(),
    );
    out.notes
        .push(("warmup_failed".into(), warm_w.failed.to_string()));
    out.notes.push((
        "peak_rss_after_warmup_mb".into(),
        warm_w.peak_rss_mb.to_string(),
    ));
    let (mut logs, mut w) = mix(
        &d,
        cfg.seed,
        if cfg.trace {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        },
        &plain,
    );
    settle(&mut logs, &mut w, cfg.corrupt_expected, &mut out.notes);
    if !cfg.trace {
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.metrics = end_to_end(setup_s, &w, TAIL, &mut out.notes);
        drop(d);
        let _ = std::fs::remove_dir_all(remine::work_dir(cfg));
        return Ok(out);
    }

    let tracer = Tracer::default();
    let names = [
        "service.ping",
        "service.lint",
        "service.slice",
        "service.mine",
        "service.emulate",
    ];
    let traced_call = |verb: usize, call: &mut dyn FnMut()| {
        tracer.span(0, None, names[verb], "service", |_| call())
    };
    let (mut tlogs, mut traced) = mix(&d, cfg.seed ^ 1, cfg.seconds / 2.0, &traced_call);
    settle(
        &mut tlogs,
        &mut traced,
        cfg.corrupt_expected,
        &mut out.notes,
    );
    let stats = d.server.as_ref().map(Server::stats);

    // The same work done in-process, per verb: the part of a round trip
    // that is not the service's.
    let store_path = d.corpus.dir.clone();
    let mut inproc: Vec<Vec<f64>> = vec![Vec::new(); VERBS.len()];
    let reps = if cfg.tiny { 3 } else { 40 };
    let mut failures = Vec::new();
    for r in 0..reps {
        let timed = |f: &mut dyn FnMut() -> Result<(), String>| {
            let t = Instant::now();
            let ok = f();
            (ms_since(t), ok)
        };
        let app = r % 6;
        let results = [
            timed(&mut || Ok(())),
            timed(&mut || lint_doc(app).map(drop)),
            timed(&mut || slice_doc(app).map(drop)),
            timed(&mut || {
                let store = sentomist_tracestore::TraceStore::open(&store_path)
                    .map_err(|e| e.to_string())?;
                store.fingerprint().map_err(|e| e.to_string())?;
                std::hint::black_box(d.expected.mine.clone());
                Ok(())
            }),
            timed(&mut || emulate_outcome(r as u64).and_then(|o| pretty(&o)).map(drop)),
        ];
        for (v, (ms, ok)) in results.into_iter().enumerate() {
            inproc[v].push(ms);
            if let Err(e) = ok {
                failures.push(e);
            }
        }
    }
    for e in failures {
        traced.failed += 1;
        note_failure(&mut out.notes, e);
    }

    let mut values = Layered::new();
    let inproc_med: Vec<f64> = inproc.iter().map(|v| median(v)).collect();
    let mut rtts: Vec<Vec<f64>> = vec![Vec::new(); VERBS.len()];
    for s in tlogs.iter().flat_map(|l| &l.sent) {
        rtts[usize::from(s.verb)].push(s.rtt_ms);
    }
    // Split each round trip into the handler's in-process work (at its
    // verb's in-process median) and the service's remainder.
    let handler_layer = ["service", "staticlint", "staticlint", "tracestore", "apps"];
    let mut selfs = SelfTimes::default();
    for s in tlogs.iter().flat_map(|l| &l.sent) {
        let verb = usize::from(s.verb);
        let work = inproc_med[verb].min(s.rtt_ms);
        *selfs.by_layer.entry(handler_layer[verb]).or_default() += work;
        *selfs.by_layer.entry("service").or_default() += s.rtt_ms - work;
        selfs.busy_ms += s.rtt_ms;
    }
    for (v, verb) in VERBS.iter().enumerate() {
        let rtt = median(&rtts[v]);
        values.insert(format!("service.{verb}_rtt_ms"), rtt);
        values.insert(
            format!("service.{verb}_overhead_us"),
            1e3 * (rtt - inproc_med[v]),
        );
    }
    values.insert("staticlint.lint_ms".into(), inproc_med[1]);
    values.insert("staticlint.slice_ms".into(), inproc_med[2]);
    if let Some(st) = stats {
        let lookups = (st.cache_hits + st.cache_misses).max(1) as f64;
        values.insert(
            "service.cache_hit_ratio".into(),
            st.cache_hits as f64 / lookups,
        );
        values.insert("service.shed".into(), st.shed as f64);
        values.insert("service.rejected".into(), st.rejected as f64);
        values.insert("service.failed".into(), st.failed as f64);
    }
    let sent = tlogs.iter().flat_map(|l| &l.sent);
    let bytes: u64 = sent.clone().map(|s| u64::from(s.bytes)).sum();
    values.insert(
        "service.bytes_out".into(),
        bytes as f64 / sent.count().max(1) as f64,
    );
    out.notes.push((
        "self_time_split".into(),
        "estimated: each round trip minus its verb's in-process median is service time".into(),
    ));
    let spans = tracer.spans();
    out.attempted = w.attempted + traced.attempted;
    out.failed = w.failed + traced.failed;
    out.metrics = per_layer(
        values,
        &Counts::default(),
        &spans,
        Some(selfs),
        traced.attempted,
        &w,
        &traced,
        &["service"],
        &mut out.notes,
    );
    save_spans(cfg, &spans, &mut out.notes);
    drop(d);
    let _ = std::fs::remove_dir_all(remine::work_dir(cfg));
    Ok(out)
}
