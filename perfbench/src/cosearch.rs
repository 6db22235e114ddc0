//! `cosearch`: paper-scale co-searches on the full fidelity ladder, each
//! run to its winner.
//!
//! ModelNet40 space, TX2⇌i7 at 40 Mbps, 2000 iterations, the
//! `analytic,predictor,sim,engine` ladder (keep 0.25 per step) with the
//! engine tier on a `loopback:1` fleet streaming 8+2 frames of 24-point
//! clouds per candidate. About 130 candidates per search reach the engine
//! with tiny frames, so per-deploy fixed costs dominate.

use crate::common::{derive, Outcome, RunSpec, UPLINK_MBPS};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{self, Tracer};
use gcode::core::arch::{Architecture, WorkloadProfile};
use gcode::core::eval::backend::{AnalyticBackend, CascadeBackend, EvalBackend, Fidelity};
use gcode::core::eval::{Evaluator, Metrics, Objective, SearchSession};
use gcode::core::predictor::{LatencyPredictor, PredictorConfig, PredictorEvaluator};
use gcode::core::search::{RandomSearch, ScoredArch, SearchConfig};
use gcode::core::space::DesignSpace;
use gcode::core::surrogate::{SurrogateAccuracy, SurrogateTask};
use gcode::engine::{lower_and_optimize, EdgePool, EngineBackend, FleetSpec, OptimizeOptions};
use gcode::graph::datasets::{PointCloudDataset, Sample};
use gcode::hardware::{Link, Processor, SystemConfig};
use gcode::nn::seq::WeightBank;
use gcode::sim::{simulate, SimBackend, SimConfig};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const ITERATIONS: usize = 2000;
const PREDICTOR_SAMPLES: usize = 48;
const FRAMES: usize = 8;
const WARMUP: usize = 2;
const CLASSES: usize = 4;
/// Escalated candidates replayed on a bare pool for the per-layer figures.
const REPLAY_PLANS: usize = 64;
/// Searches per run whose seed is searched a second time (untimed) to
/// check that the winner's accuracy repeats (up to the objective's
/// penalty, see the check).
const REPEATS: usize = 2;

type Acc = fn(&Architecture) -> f64;

/// The four tiers, built once per set-up.
struct Tiers {
    analytic: AnalyticBackend<Acc>,
    predictor: PredictorEvaluator<Acc>,
    sim: SimBackend<Acc>,
    engine: EngineBackend<Acc>,
    frames: Vec<Sample>,
}

fn profile() -> WorkloadProfile {
    WorkloadProfile::modelnet40()
}

/// The paper's headline pairing: Jetson TX2 device, i7 edge.
fn tx2_i7() -> SystemConfig {
    SystemConfig::new(Processor::jetson_tx2(), Processor::intel_i7_7700(), Link::mbps(UPLINK_MBPS))
}

/// Calibrated ModelNet40 surrogate accuracy (a plain `fn`, so the tiers
/// are nameable types).
fn modelnet40_accuracy(a: &Architecture) -> f64 {
    SurrogateAccuracy::new(SurrogateTask::ModelNet40).overall_accuracy(a)
}

fn objective() -> Objective {
    Objective::new(0.25, 0.300, 3.0)
}

/// Builds the ladder: trains the GIN predictor on sim-priced samples and
/// warms the engine tier's fleet with one deploy. Returns the tiers and
/// the predictor's training time.
fn set_up(seed: u64) -> (Tiers, f64) {
    let sys = tx2_i7();
    let space = DesignSpace::paper(profile());
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, 1));
    let data: Vec<(Architecture, f64)> = (0..PREDICTOR_SAMPLES)
        .map(|_| {
            let a = space.sample_valid(&mut rng, 100_000).0;
            let lat = simulate(&a, &profile(), &sys, &SimConfig::single_frame()).frame_latency_s;
            (a, lat)
        })
        .collect();
    let t = Instant::now();
    let predictor = LatencyPredictor::train(
        PredictorConfig { hidden: 32, epochs: 60, ..PredictorConfig::default() },
        profile(),
        sys.clone(),
        &data,
    );
    let train_s = t.elapsed().as_secs_f64();
    let frames =
        PointCloudDataset::generate(FRAMES, 24, CLASSES, derive(seed, 2)).samples().to_vec();
    let acc: Acc = modelnet40_accuracy;
    let engine = EngineBackend::new(frames.clone(), CLASSES, sys.clone(), acc)
        .with_frames(FRAMES)
        .with_warmup(WARMUP)
        .with_uplink_mbps(UPLINK_MBPS)
        .with_fleet(FleetSpec::loopback(1));
    // Spawn the fleet now, not inside the first timed search.
    engine.evaluate(&data[0].0);
    let tiers = Tiers {
        analytic: AnalyticBackend { profile: profile(), sys: sys.clone(), accuracy_fn: acc },
        predictor: PredictorEvaluator { predictor, accuracy_fn: acc },
        sim: SimBackend {
            profile: profile(),
            sys,
            sim: SimConfig::single_frame(),
            accuracy_fn: acc,
        },
        engine,
        frames,
    };
    (tiers, train_s)
}

/// Pass-through [`EvalBackend`] that counts and times every call into the
/// tier it wraps, and records a span per call on traced runs.
struct Timed<'a> {
    inner: &'a dyn EvalBackend,
    layer: &'static str,
    tracer: Option<&'a Tracer>,
    request: &'a AtomicU64,
    evals: AtomicU64,
    busy_ns: AtomicU64,
    /// Every architecture priced here, when asked to keep them.
    seen: Option<Mutex<Vec<Architecture>>>,
}

impl<'a> Timed<'a> {
    fn new(
        inner: &'a dyn EvalBackend,
        layer: &'static str,
        tracer: Option<&'a Tracer>,
        request: &'a AtomicU64,
    ) -> Self {
        Self {
            inner,
            layer,
            tracer,
            request,
            evals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            seen: None,
        }
    }

    fn keeping_archs(mut self) -> Self {
        self.seen = Some(Mutex::new(Vec::new()));
        self
    }

    fn call<T>(&self, archs: &[Architecture], f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = trace::maybe(self.tracer, self.layer, self.request.load(Ordering::Relaxed), f);
        let dt = t.elapsed();
        self.evals.fetch_add(archs.len() as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
        if let Some(seen) = &self.seen {
            seen.lock().expect("arch log").extend_from_slice(archs);
        }
        out
    }

    fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl Evaluator for Timed<'_> {
    fn evaluate(&self, arch: &Architecture) -> Metrics {
        self.call(std::slice::from_ref(arch), || self.inner.evaluate(arch))
    }

    fn evaluate_batch(&self, archs: &[Architecture]) -> Vec<Metrics> {
        self.call(archs, || self.inner.evaluate_batch(archs))
    }

    fn evaluate_batch_workers(&self, archs: &[Architecture], workers: usize) -> Vec<Metrics> {
        self.call(archs, || self.inner.evaluate_batch_workers(archs, workers))
    }
}

impl EvalBackend for Timed<'_> {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn cost_hint(&self) -> f64 {
        self.inner.cost_hint()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let RunSpec { seed, seconds, setups, traced, full } = *spec;
    let mut out = Outcome::default();
    let mut setup_walls = Vec::new();
    let mut train_walls = Vec::new();
    let mut tiers = None;
    for _ in 0..setups.max(1) {
        drop(tiers.take());
        let t = Instant::now();
        let (built, train_s) = set_up(seed);
        setup_walls.push(t.elapsed().as_secs_f64());
        train_walls.push(train_s);
        tiers = Some(built);
    }
    out.setup_s = median(&setup_walls);
    let tiers = tiers.expect("at least one set-up");
    let warm = tiers.engine.measured_profile();

    let tracer = traced.then(Tracer::new);
    let request = AtomicU64::new(0);
    let tr = tracer.as_ref();
    let analytic = Timed::new(&tiers.analytic, "tier.analytic", tr, &request);
    let predictor = Timed::new(&tiers.predictor, "tier.predictor", tr, &request);
    let sim = Timed::new(&tiers.sim, "tier.sim", tr, &request);
    let engine = Timed::new(&tiers.engine, "tier.engine", tr, &request).keeping_archs();
    let ladder = CascadeBackend::ladder(vec![&analytic, &predictor, &sim, &engine], objective())
        .with_keep_fracs(&[0.25; 3]);
    let cascade = Timed::new(&ladder, "cascade", tr, &request);
    let space = DesignSpace::paper(profile());

    let search = |search_seed: u64| {
        let cfg =
            SearchConfig { iterations: ITERATIONS, seed: search_seed, ..SearchConfig::default() };
        let mut session = SearchSession::new(&space, &cascade).with_objective(objective());
        let t = Instant::now();
        let result = trace::maybe(tr, "eval", request.load(Ordering::Relaxed), || {
            session.run(&RandomSearch::new(cfg))
        });
        (t.elapsed().as_secs_f64(), result, session.cache_stats())
    };

    // Distinct search seeds drawn from the workload seed, searched until
    // the time budget is spent (and, on a full run, at least 100 times, so
    // the p90 has 10 samples beyond it).
    let mut seeds = ChaCha8Rng::seed_from_u64(derive(seed, 3));
    let mut walls = Vec::new();
    let mut winners = Vec::new();
    let (mut lookups, mut hits) = (0u64, 0u64);
    // Candidates the bottom tier screened per second of search wall.
    let mut screened_per_s = Vec::new();
    let started = Instant::now();
    while walls.is_empty()
        || started.elapsed().as_secs_f64() < seconds
        || (full && walls.len() < samples_needed(90.0))
    {
        let search_seed = seeds.next_u64();
        request.store(walls.len() as u64, Ordering::Relaxed);
        let screened = analytic.evals();
        let (wall, result, cache) = search(search_seed);
        walls.push(wall);
        screened_per_s.push((analytic.evals() - screened) as f64 / wall);
        lookups += cache.lookups();
        hits += cache.hits;
        winners.push((search_seed, result.best().cloned()));
    }
    let searches = walls.len();
    let measured = tiers.engine.measured_profile();
    let seen =
        engine.seen.as_ref().expect("engine tier keeps archs").lock().expect("arch log").clone();

    out.p50_ms = percentile(&walls, 50.0).map(|s| s * 1e3);
    out.ops = searches;
    out.p90_ms = percentile(&walls, 90.0).map(|s| s * 1e3);
    out.rate_per_s = median(&screened_per_s);
    out.named.push(("search_wall_s", median(&walls), "s", searches));
    out.named.push(("search_wall_p90_s", out.p90_ms.unwrap_or(f64::NAN) / 1e3, "s", searches));
    out.named.push(("screened_per_s", out.rate_per_s, "1/s", searches));
    let no_winner = winners.iter().filter(|(_, w)| w.is_none()).count() as u64;
    out.attempted =
        searches as u64 + (measured.deployed + measured.errors - warm.deployed - warm.errors);
    out.failed = no_winner + (measured.errors - warm.errors);

    if let Some(tracer) = &tracer {
        let per = |x: f64| x / searches as f64;
        let l = &mut out.layers;
        out.spans = tracer.spans();
        let by_layer = trace::self_time_by_layer(&out.spans);
        l.insert("eval.lookups", per(lookups as f64));
        l.insert("eval.memo_hit_rate", hits as f64 / lookups.max(1) as f64);
        l.insert("eval.self_s", per(by_layer.get("eval").copied().unwrap_or(0.0)));
        for (t, evals, busy) in [
            (&analytic, "tier.analytic.evals", "tier.analytic.busy_s"),
            (&predictor, "tier.predictor.evals", "tier.predictor.busy_s"),
            (&sim, "tier.sim.evals", "tier.sim.busy_s"),
            (&engine, "tier.engine.evals", "tier.engine.busy_s"),
        ] {
            l.insert(evals, per(t.evals() as f64));
            l.insert(busy, per(t.busy_s()));
        }
        l.insert(
            "tier.engine.escalation_rate",
            engine.evals() as f64 / analytic.evals().max(1) as f64,
        );
        l.insert("predictor.train_s", median(&train_walls));
        let opt = tiers.engine.optimizer_stats();
        l.insert("optimizer.ops_elided", per(opt.ops_elided() as f64));
        if let Some(fleet) = tiers.engine.fleet_stats() {
            l.insert("fleet.busy_s", per(fleet.pools.iter().map(|p| p.busy_s).sum()));
            l.insert("fleet.requeued", fleet.resharded as f64);
            l.insert("fleet.spawns", fleet.spawns() as f64);
            l.insert("fleet.failures", fleet.failures() as f64);
        }
        l.insert("engine.deployed", per((measured.deployed - warm.deployed) as f64));
        l.insert("engine.errors", (measured.errors - warm.errors) as f64);
        l.insert(
            "engine.bytes_per_frame",
            measured.bytes_sent as f64 / measured.frames.max(1) as f64,
        );
    }

    // Output checks. Every winner is valid in the space and was priced by
    // the engine tier (Measured fidelity); no deploy failed; a repeated
    // search seed finds a winner of the same surrogate accuracy.
    let priced: HashSet<&Architecture> = seen.iter().collect();
    for (s, w) in &winners {
        match w {
            None => out.problems.push(format!("search seed {s} found no winner")),
            Some(w) => {
                out.check(w.arch.validate(&profile()).is_ok(), || {
                    format!("search seed {s}: winner is not valid in the design space")
                });
                out.check(priced.contains(&w.arch), || {
                    format!("search seed {s}: winner was never priced by the engine tier")
                });
            }
        }
    }
    out.check(measured.errors == 0, || format!("{} engine deploys failed", measured.errors));
    // The engine tier prices latency in measured host seconds, so two
    // searches of one seed can pick different engine-priced winners when
    // their scores differ by less than the measurement noise. What the
    // objective does fix is how far apart their accuracies can be: no
    // more than the latency and energy penalty either winner paid.
    for (s, w) in winners.iter().take(REPEATS) {
        let again = search(*s).1.best().cloned();
        let penalty = |b: &ScoredArch| b.accuracy - b.score;
        let repeats = match (w, &again) {
            (Some(a), Some(b)) => (a.accuracy - b.accuracy).abs() <= penalty(a).max(penalty(b)),
            (a, b) => a.is_none() && b.is_none(),
        };
        out.check(repeats, || {
            format!(
                "search seed {s}: winner accuracy {:?} then {:?}, further apart than the objective's penalty",
                w.as_ref().map(|b| b.accuracy),
                again.as_ref().map(|b| b.accuracy)
            )
        });
    }

    if traced {
        let mut first = HashSet::new();
        let replay: Vec<Architecture> =
            seen.iter().filter(|a| first.insert(*a)).take(REPLAY_PLANS).cloned().collect();
        replay_layers(&replay, &tiers.frames, seed, &mut out)?;
    }
    Ok(out)
}

/// Replays escalated candidates outside the search: lowering through the
/// optimizer pipeline, and a deploy plus one tiny-frame run on a bare pool.
fn replay_layers(
    archs: &[Architecture],
    frames: &[Sample],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let opts = OptimizeOptions {
        enabled: true,
        profile: Some(WorkloadProfile::modelnet40_mini(24, CLASSES)),
        uplink_mbps: UPLINK_MBPS,
    };
    let mut lower_us = Vec::new();
    let mut plans = Vec::new();
    for a in archs {
        let t = Instant::now();
        let (plan, _) = lower_and_optimize(std::hint::black_box(a), &opts);
        lower_us.push(t.elapsed().as_secs_f64() * 1e6);
        plans.push(plan);
    }
    let pool_seed = derive(seed, 4);
    let mut pool = EdgePool::spawn(WeightBank::new(CLASSES, pool_seed), pool_seed)
        .map_err(|e| format!("replay pool: {e}"))?
        .with_uplink_mbps(UPLINK_MBPS);
    let (mut deploy_us, mut run_us) = (Vec::new(), Vec::new());
    for plan in plans {
        let t = Instant::now();
        pool.deploy(plan).map_err(|e| format!("replay deploy: {e}"))?;
        deploy_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        pool.run(frames).map_err(|e| format!("replay run: {e}"))?;
        run_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    pool.shutdown().map_err(|e| format!("replay pool shutdown: {e}"))?;
    out.layers.insert("optimizer.lower_us_p50", median(&lower_us));
    out.layers.insert("pool.deploy_us_p50", median(&deploy_us));
    out.layers.insert("pool.run_call_us_p50", median(&run_us));
    Ok(())
}
