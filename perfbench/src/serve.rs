//! `serve`: the `gcode-serve` daemon in process on a `loopback:1` fleet
//! with a cache file, under open-loop tenants at two constant rates and a
//! closed-loop capacity phase, interleaved in rounds.
//!
//! Sessions (500 iterations, zoo of 4, measured on the fleet) mix
//! ModelNet40 and MR. A fixed share repeats an earlier spec, so its zoo
//! measurements are read from the cache file; the rest deploy and append.
//! Admission, the fair scheduler, the shared fleet and the cache log are
//! all on the path, and requests queue.

use crate::common::{derive, work_dir, Outcome, RunSpec};
use crate::load::{constant_rate, goodput, Request};
use crate::stats::{median, nearest_rank, percentile};
use crate::trace::{self, Tracer};
use gcode::core::eval::Objective;
use gcode::core::search::SearchConfig;
use gcode::engine::{FleetSpec, SessionOutcome, SessionSpec, SessionTask};
use gcode::server::{
    run_standalone, Admission, PollReply, SearchServer, ServerClient, ServerConfig,
};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop rates (sessions per second). The daemon runs one session
/// worker, which completes about 95 sessions/s for two closed-loop clients
/// on a 2-core host: the heavy rate is about 40% of that, far enough below
/// it that a host slowing by 20% does not tip the queue over.
const LIGHT_RATE: f64 = 20.0;
const HEAVY_RATE: f64 = 40.0;
/// Shortest round of the three phases, and the share of a round spent on
/// each open-loop phase (the rest is the closed-loop phase). A 5-second
/// round sends 25 light sessions (enough for a p50) and 100 heavy ones
/// (enough for a p90 with 10 samples beyond it).
const ROUND_S: f64 = 5.0;
const LIGHT_SHARE: f64 = 0.25;
const HEAVY_SHARE: f64 = 0.5;
/// Generator threads and connections (the host's core count).
const CLIENTS: usize = 2;
/// A session answered later than this after it was due misses goodput;
/// an admission still refused this long after its due time is dropped.
const LIMIT_S: f64 = 0.25;
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Served outcomes checked bit for bit against `run_standalone`, per run
/// (more on traced runs, which also time the replays).
const CHECKED: usize = 4;
const CHECKED_TRACED: usize = 24;
/// Sessions each set-up serves before measuring: one block of the spec
/// mix, so set-up time averages over ten sessions rather than resting on
/// one.
const WARM_SESSIONS: usize = 10;

/// A seeded stream of session specs. Every block of 10 holds, in seeded
/// order, 3 repeats of an earlier spec at least 5 sessions back, 2 fresh
/// MR specs and 5 fresh ModelNet40 specs, so each run sends the same mix.
fn specs(seed: u64, count: usize) -> Vec<(SessionSpec, bool)> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, 21));
    let mut out: Vec<(SessionSpec, bool)> = Vec::with_capacity(count);
    let mut block: Vec<char> = Vec::new();
    for i in 0..count {
        if block.is_empty() {
            block = "RRRMMFFFFF".chars().collect();
            for k in (1..block.len()).rev() {
                block.swap(k, rng.gen_range(0..=k));
            }
        }
        let slot = block.pop().expect("refilled above");
        if slot == 'R' && i >= 10 {
            let j = rng.gen_range(0..i - 5);
            out.push((out[j].0.clone(), true));
            continue;
        }
        let task = if slot == 'M' { SessionTask::Mr } else { SessionTask::ModelNet40 };
        let spec = SessionSpec {
            config: SearchConfig {
                iterations: 500,
                zoo_size: 4,
                seed: rng.next_u64(),
                ..SearchConfig::default()
            },
            objective: Objective::new(0.25, 1.0, 5.0),
            task,
            measure_zoo: true,
            scenario: None,
        };
        out.push((spec, false));
    }
    out
}

/// What happened to one open-loop session.
struct Record {
    /// Position in the run's spec stream.
    index: usize,
    req: Request,
    opened_s: f64,
    polls: u64,
    busy: u64,
    error: Option<String>,
    deployed: u64,
    cached: u64,
    outcome: Option<Box<SessionOutcome>>,
}

/// Drives one connection through its share of an open-loop phase:
/// sends each session when due (retrying `Busy` until [`LIMIT_S`] past
/// due), polls the ones in flight, and records every timestamp on the
/// phase clock. On a traced run each client call is a span (request id:
/// the session's position in the spec stream) under a `gen` span for the
/// whole phase (request id: the connection).
fn open_loop_client(
    addr: std::net::SocketAddr,
    arrivals: &[(f64, usize)],
    specs: &[(SessionSpec, bool)],
    epoch: Instant,
    tr: Option<&Tracer>,
) -> Result<Vec<Record>, String> {
    let mut client = ServerClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let now = || epoch.elapsed().as_secs_f64();
    let mut records: Vec<Record> = arrivals
        .iter()
        .map(|&(due, index)| Record {
            index,
            req: Request::due(due),
            opened_s: 0.0,
            polls: 0,
            busy: 0,
            error: None,
            deployed: 0,
            cached: 0,
            outcome: None,
        })
        .collect();
    let mut next = 0;
    let mut admitting: VecDeque<usize> = VecDeque::new();
    let mut in_flight: Vec<(usize, u64)> = Vec::new();
    while next < records.len() || !admitting.is_empty() || !in_flight.is_empty() {
        while next < records.len() && arrivals[next].0 <= now() {
            admitting.push_back(next);
            next += 1;
        }
        while let Some(&r) = admitting.front() {
            let rec = &mut records[r];
            let t = now();
            rec.req.sent_s.get_or_insert(t);
            let req = rec.index as u64;
            match trace::maybe(tr, "client.open", req, || {
                client.open_session(&specs[req as usize].0)
            }) {
                Ok(Admission::Opened(id)) => {
                    rec.opened_s = now();
                    trace::maybe(tr, "client.submit", req, || client.submit(id))
                        .map_err(|e| format!("submit: {e}"))?;
                    in_flight.push((r, id));
                    admitting.pop_front();
                }
                Ok(Admission::Busy { .. }) => {
                    rec.busy += 1;
                    if t - rec.req.due_s > LIMIT_S {
                        rec.error = Some("refused: server busy past the deadline".to_string());
                        admitting.pop_front();
                        continue;
                    }
                    break;
                }
                Err(e) => {
                    rec.error = Some(format!("open: {e}"));
                    admitting.pop_front();
                }
            }
        }
        let mut k = 0;
        while k < in_flight.len() {
            let (r, id) = in_flight[k];
            records[r].polls += 1;
            match trace::maybe(tr, "client.poll", records[r].index as u64, || client.poll(id)) {
                Ok(PollReply::Progress(_)) if now() - records[r].req.due_s > 60.0 => {
                    records[r].error =
                        Some("session still running a minute after it was due".to_string());
                    in_flight.swap_remove(k);
                }
                Ok(PollReply::Progress(_)) => k += 1,
                Ok(PollReply::Done(outcome)) => {
                    let done = now();
                    let rec = &mut records[r];
                    rec.req.done_s = Some(done);
                    if let Some(m) = &outcome.report.measured {
                        rec.deployed = m.deployed;
                        rec.cached = m.cached;
                    }
                    rec.outcome = Some(outcome);
                    trace::maybe(tr, "client.close", rec.index as u64, || client.close_session(id))
                        .map_err(|e| format!("close: {e}"))?;
                    in_flight.swap_remove(k);
                }
                Err(e) => {
                    records[r].error = Some(format!("session failed: {e}"));
                    in_flight.swap_remove(k);
                }
            }
        }
        let idle = admitting.is_empty() && in_flight.is_empty();
        let wait = match arrivals.get(next) {
            Some(&(due, _)) if idle => Duration::from_secs_f64((due - now()).max(0.0)),
            Some(&(due, _)) => POLL_EVERY.min(Duration::from_secs_f64((due - now()).max(0.0))),
            None => POLL_EVERY,
        };
        std::thread::sleep(wait);
    }
    Ok(records)
}

/// Runs one open-loop phase over `CLIENTS` connections; arrivals (seconds
/// after `epoch`) are dealt round-robin.
fn open_loop(
    addr: std::net::SocketAddr,
    epoch: Instant,
    schedule: &[f64],
    first_index: usize,
    specs: &[(SessionSpec, bool)],
    tr: Option<&Tracer>,
) -> Result<Vec<Record>, String> {
    let shares: Vec<Vec<(f64, usize)>> = (0..CLIENTS)
        .map(|c| {
            schedule
                .iter()
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == c)
                .map(|(i, &due)| (due, first_index + i))
                .collect()
        })
        .collect();
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                s.spawn(move || {
                    trace::maybe(tr, "gen", c as u64, || {
                        open_loop_client(addr, share, specs, epoch, tr)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.index);
    Ok(records)
}

/// Closed loop: each connection sends its next session (the next spec
/// after `next`) when the last one finished, until `seconds` pass.
/// Returns sessions completed, attempted and failed, and the wall time.
fn closed_loop(
    addr: std::net::SocketAddr,
    specs: &[(SessionSpec, bool)],
    next: &AtomicUsize,
    seconds: f64,
) -> Result<(u64, u64, u64, f64), String> {
    let start = Instant::now();
    let results: Vec<Result<(u64, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(u64, u64), String> {
                    let mut client =
                        ServerClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let (mut done, mut failed) = (0, 0);
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed) % specs.len();
                        let served = client
                            .open_session_retry(&specs[i].0, 1000, POLL_EVERY)
                            .and_then(|id| {
                                client.submit(id)?;
                                let o = client.wait_result(id, POLL_EVERY, Duration::from_secs(60));
                                client.close_session(id)?;
                                o
                            });
                        match served {
                            Ok(_) => done += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    Ok((done, failed))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("capacity client panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (mut done, mut failed) = (0, 0);
    for r in results {
        let (d, f) = r?;
        done += d;
        failed += f;
    }
    Ok((done, done + failed, failed, wall))
}

/// Masks what legitimately differs between a served and a standalone
/// outcome: the session id, wall-clock latency percentiles, and whether a
/// zoo plan's measurement came from the cache file or a fresh deploy.
fn normalized(mut o: SessionOutcome) -> SessionOutcome {
    o.session = 0;
    if let Some(m) = o.report.measured.as_mut() {
        m.p50_s = 0.0;
        m.p95_s = 0.0;
        m.p99_s = 0.0;
        m.deployed += m.cached;
        m.cached = 0;
    }
    o
}

struct Daemon {
    server: SearchServer,
    cache: PathBuf,
}

/// Starts the daemon over a fresh cache file and warms it with one block
/// of [`WARM_SESSIONS`] sessions (both tasks) outside the measured spec
/// stream.
fn set_up(seed: u64) -> Result<Daemon, String> {
    let cache = work_dir().join(format!("serve-cache-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    // One session worker: with more, sessions share two cores with the
    // fleet and the load generator, and capacity swings twice as much.
    let config =
        ServerConfig::new(FleetSpec::loopback(1)).with_max_sessions(1).with_cache_file(&cache);
    let server =
        SearchServer::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
    let mut client = ServerClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (warm, _) in specs(derive(seed, 22), WARM_SESSIONS) {
        let id = client
            .open_session_retry(&warm, 100, POLL_EVERY)
            .map_err(|e| format!("warm open: {e}"))?;
        client.submit(id).map_err(|e| format!("warm submit: {e}"))?;
        client
            .wait_result(id, POLL_EVERY, Duration::from_secs(60))
            .map_err(|e| format!("warm session: {e}"))?;
        client.close_session(id).map_err(|e| format!("warm close: {e}"))?;
    }
    Ok(Daemon { server, cache })
}

fn tear_down(d: Daemon) -> Result<(), String> {
    d.server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    let _ = std::fs::remove_file(&d.cache);
    Ok(())
}

pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut daemon = None;
    for _ in 0..spec.setups.max(1) {
        if let Some(d) = daemon.take() {
            tear_down(d)?;
        }
        let t = Instant::now();
        daemon = Some(set_up(spec.seed)?);
        walls.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = median(&walls);
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.server.addr();

    // The budget is split into rounds of light, heavy and capacity
    // phases, so every phase samples the whole run window rather than
    // one contiguous third of it. One clock for every phase; each starts
    // 50 ms after the previous one has drained. Each figure is a median
    // over rounds, so a round or two that a host hiccup spoils do not set
    // it.
    let rounds = ((spec.seconds / ROUND_S).floor() as usize).max(1);
    let round_s = spec.seconds / rounds as f64;
    let light_n = ((LIGHT_RATE * LIGHT_SHARE * round_s).round() as usize).max(1);
    let heavy_n = ((HEAVY_RATE * HEAVY_SHARE * round_s).round() as usize).max(1);
    let stream = specs(spec.seed, rounds * (light_n + heavy_n));
    let cap_specs = specs(derive(spec.seed, 24), 10_000);
    let cap_next = AtomicUsize::new(0);
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let (mut cap_done, mut cap_attempted, mut cap_failed) = (0, 0, 0);
    let tracer = spec.traced.then(Tracer::new);
    let tr = tracer.as_ref();
    let ttw = |rs: &[Record]| -> Vec<f64> { rs.iter().filter_map(|r| r.req.latency_s()).collect() };
    let (mut light_p50s, mut heavy_p90s, mut cap_rates) = (Vec::new(), Vec::new(), Vec::new());
    let epoch = Instant::now();
    let mut next_spec = 0;
    for _ in 0..rounds {
        for (rate, n, records) in
            [(LIGHT_RATE, light_n, &mut light), (HEAVY_RATE, heavy_n, &mut heavy)]
        {
            let start = epoch.elapsed().as_secs_f64() + 0.05;
            let due: Vec<f64> = constant_rate(rate, n).iter().map(|d| d + start).collect();
            records.extend(open_loop(addr, epoch, &due, next_spec, &stream, tr)?);
            next_spec += n;
        }
        light_p50s.push(percentile(&ttw(&light[light.len() - light_n..]), 50.0));
        heavy_p90s.push(percentile(&ttw(&heavy[heavy.len() - heavy_n..]), 90.0));
        let cap_s = (1.0 - LIGHT_SHARE - HEAVY_SHARE) * round_s;
        let (d, a, f, w) = closed_loop(addr, &cap_specs, &cap_next, cap_s)?;
        (cap_done, cap_attempted, cap_failed) = (cap_done + d, cap_attempted + a, cap_failed + f);
        cap_rates.push(d as f64 / w);
    }
    let cap_rate = median(&cap_rates);
    let fleet = daemon.server.fleet_stats().map_err(|e| format!("fleet stats: {e}"))?;
    tear_down(daemon)?;

    let records: Vec<&Record> = light.iter().chain(&heavy).collect();
    let requests: Vec<Request> = records.iter().map(|r| r.req).collect();
    let (light_ttw, heavy_ttw) = (ttw(&light), ttw(&heavy));
    let errors: Vec<&String> = records.iter().filter_map(|r| r.error.as_ref()).collect();
    out.attempted = records.len() as u64 + cap_attempted;
    out.failed = errors.len() as u64 + cap_failed;
    for e in errors.iter().take(3) {
        eprintln!("serve: {e}");
    }

    // Output check: sampled served outcomes, fresh and cache-answered
    // alike, are bit-identical to a standalone run of the same spec.
    let want = if spec.traced { CHECKED_TRACED } else { CHECKED };
    let fresh = records.iter().filter(|r| r.outcome.is_some() && !stream[r.index].1);
    let repeats = records.iter().filter(|r| r.outcome.is_some() && stream[r.index].1);
    let sample: Vec<&&Record> = fresh.take(want / 2).chain(repeats.take(want - want / 2)).collect();
    let mut compute_ms = Vec::new();
    let mut queue_ms = Vec::new();
    for r in &sample {
        let t = Instant::now();
        let standalone = run_standalone(&stream[r.index].0);
        let standalone_s = t.elapsed().as_secs_f64();
        compute_ms.push(standalone_s * 1e3);
        if let Some(l) = r.req.latency_s() {
            queue_ms.push((l - standalone_s) * 1e3);
        }
        let served = r.outcome.as_deref().expect("sampled outcome").clone();
        out.check(normalized(served) == normalized(standalone), || {
            format!("session {}: served outcome differs from run_standalone", r.index)
        });
    }
    out.check(!sample.is_empty(), || "no served outcome to check".to_string());

    let median_ms = |per_round: &[Option<f64>]| {
        per_round.iter().copied().collect::<Option<Vec<f64>>>().map(|v| median(&v) * 1e3)
    };
    out.p50_ms = median_ms(&light_p50s);
    out.p90_ms = median_ms(&heavy_p90s);
    out.ops = records.len();
    out.rate_per_s = cap_rate;
    let good = goodput(&requests, LIMIT_S);
    out.named.push(("serve_ttw_p50_ms", out.p50_ms.unwrap_or(f64::NAN), "ms", light_ttw.len()));
    out.named.push(("serve_ttw_p90_ms", out.p90_ms.unwrap_or(f64::NAN), "ms", heavy_ttw.len()));
    let p95 = percentile(&heavy_ttw, 95.0).map_or(f64::NAN, |s| s * 1e3);
    out.named.push(("serve_ttw_p95_ms", p95, "ms", heavy_ttw.len()));
    out.named.push(("serve_goodput", good, "share", requests.len()));
    out.named.push(("serve_capacity", cap_rate, "1/s", cap_attempted as usize));

    if let Some(tracer) = tracer {
        out.spans = tracer.spans();
        let answered: Vec<&&Record> = records.iter().filter(|r| r.req.done_s.is_some()).collect();
        let admission_ms: Vec<f64> = answered
            .iter()
            .filter_map(|r| r.req.sent_s.map(|sent| (r.opened_s - sent) * 1e3))
            .collect();
        let lateness_ms: Vec<f64> =
            requests.iter().filter_map(|q| q.lateness_s()).map(|s| s * 1e3).collect();
        let (hits, deployed): (u64, u64) =
            records.iter().fold((0, 0), |(h, d), r| (h + r.cached, d + r.deployed));
        let n = answered.len().max(1) as f64;
        let l = &mut out.layers;
        l.insert("admission.wait_ms_p50", median(&admission_ms));
        l.insert("admission.busy_refusals", records.iter().map(|r| r.busy).sum::<u64>() as f64);
        l.insert("session.compute_ms_p50", median(&compute_ms));
        l.insert("serve.queue_ms_p50", median(&queue_ms));
        // The fleet also measured the closed-loop sessions.
        let sessions = (answered.len() as u64 + cap_done).max(1) as f64;
        l.insert(
            "executor.fleet_busy_s",
            fleet.pools.iter().map(|p| p.busy_s).sum::<f64>() / sessions,
        );
        l.insert(
            "client.polls_per_session",
            records.iter().map(|r| r.polls).sum::<u64>() as f64 / n,
        );
        l.insert("cache.hits", hits as f64);
        l.insert("cache.deployed", deployed as f64);
        l.insert("cache.hit_rate", hits as f64 / (hits + deployed).max(1) as f64);
        l.insert("gen.lateness_ms_p95", nearest_rank(&lateness_ms, 95.0));
        l.insert("serve.goodput", good);
    }
    Ok(out)
}
