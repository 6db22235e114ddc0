//! `stream`: co-inference on one warm pool through the runtime
//! dispatcher, under the 40 Mbps uplink cap.
//!
//! A frozen zoo (`data/stream_zoo.json`) holds five mappings: HGNAS on the
//! device, HGNAS / optimized DGCNN / DGCNN edge-only, and BranchyGNN split
//! across the link. Each visit hot-swaps one plan in (`dispatch_live`),
//! streams 256-point clouds back to back, then one frame per `run_live`
//! call. GNN kernels and the codec dominate; deploys are rare.

use crate::common::{derive, Outcome, RunSpec, UPLINK_MBPS};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{self, Tracer};
use gcode::core::search::ScoredArch;
use gcode::core::zoo::{ArchitectureZoo, RuntimeConstraint};
use gcode::engine::{
    decode_frame, encode_frame, EngineDispatcher, ExecutionPlan, Frame, WireState,
};
use gcode::graph::datasets::{PointCloudDataset, Sample};
use gcode::nn::seq::{classify, forward_features_slotted, GraphInput, WeightBank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::time::Instant;

const CLASSES: usize = 4;
const POINTS: usize = 256;
/// Frames per back-to-back run, then one-frame calls per visit.
const BACK_TO_BACK: usize = 8;
const SINGLES: usize = 8;

fn zoo_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/stream_zoo.json")
}

/// The zoo's entries from fastest to slowest, each with the latency
/// constraint that makes the dispatcher pick it (accuracy rises with
/// declared latency, so the bound selects exactly that entry).
fn constraints(zoo: &ArchitectureZoo) -> Vec<RuntimeConstraint> {
    let mut lat: Vec<f64> = zoo.entries().iter().map(|e| e.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    lat.into_iter().map(RuntimeConstraint::latency).collect()
}

struct Rig {
    dispatcher: EngineDispatcher,
    picks: Vec<RuntimeConstraint>,
    frames: Vec<Sample>,
    bank_seed: u64,
    run_seed: u64,
}

/// Loads the zoo, spawns and caps the pool, generates the frames, and
/// streams one frame through every plan so lazily built weights exist
/// before timing starts.
fn set_up(seed: u64) -> Result<Rig, String> {
    let json = std::fs::read_to_string(zoo_path()).map_err(|e| format!("stream zoo: {e}"))?;
    let zoo = ArchitectureZoo::from_json(&json).map_err(|e| format!("stream zoo: {e}"))?;
    let picks = constraints(&zoo);
    let (bank_seed, run_seed) = (derive(seed, 11), derive(seed, 12));
    let mut dispatcher = EngineDispatcher::new(zoo, WeightBank::new(CLASSES, bank_seed));
    dispatcher.attach_pool(run_seed).map_err(|e| format!("attach pool: {e}"))?;
    dispatcher.set_uplink_mbps(UPLINK_MBPS).map_err(|e| format!("uplink cap: {e}"))?;
    let frames =
        PointCloudDataset::generate(BACK_TO_BACK.max(SINGLES), POINTS, CLASSES, derive(seed, 13))
            .samples()
            .to_vec();
    for &c in &picks {
        dispatcher.dispatch_live(c).map_err(|e| format!("warm swap: {e}"))?;
        dispatcher.run_live(&frames[..1]).map_err(|e| format!("warm run: {e}"))?;
    }
    Ok(Rig { dispatcher, picks, frames, bank_seed, run_seed })
}

/// The calls one visit makes after its swap: one back-to-back run, then
/// single frames.
fn visit_calls(frames: &[Sample]) -> Vec<&[Sample]> {
    let mut calls = vec![&frames[..BACK_TO_BACK]];
    calls.extend((0..SINGLES).map(|j| &frames[j..j + 1]));
    calls
}

/// What an in-process replay of one visit predicted, and the time it
/// spent per stage.
#[derive(Default)]
struct Replay {
    predictions: Vec<usize>,
    device_s: f64,
    edge_s: f64,
    encode_s: f64,
    decode_s: f64,
    wire_bytes: usize,
    raw_bytes: usize,
    offloaded_frames: usize,
}

/// Replays one visit in process with the runtime's RNG discipline: the
/// device stream restarts per call, the edge stream per swap.
fn replay(plan: &ExecutionPlan, rig: &Rig, bank: &mut WeightBank) -> Result<Replay, String> {
    let mut edge_rng = ChaCha8Rng::seed_from_u64(rig.run_seed ^ 0xED6E);
    let mut r = Replay::default();
    for call in visit_calls(&rig.frames) {
        let mut dev_rng = ChaCha8Rng::seed_from_u64(rig.run_seed ^ 0xDE71CE);
        for (frame_id, s) in call.iter().enumerate() {
            let t = Instant::now();
            let (h, graph) = forward_features_slotted(
                &plan.device_specs,
                &plan.device_slots,
                GraphInput { features: &s.features, graph: s.graph.as_ref() },
                bank,
                &mut dev_rng,
            );
            let logits = if plan.offloaded {
                r.device_s += t.elapsed().as_secs_f64();
                r.raw_bytes += 4 * h.len()
                    + graph.as_ref().map_or(0, |g| 4 * (g.num_edges() + g.num_nodes() + 1));
                let state = WireState {
                    frame_id: frame_id as u64,
                    features: h,
                    graph,
                    label: s.label as u32,
                };
                let t = Instant::now();
                let body = encode_frame(&Frame::State(state));
                r.encode_s += t.elapsed().as_secs_f64();
                r.wire_bytes += body.len() + 4;
                let t = Instant::now();
                let Ok(Frame::State(state)) = decode_frame(&body) else {
                    return Err("replayed state frame does not decode".to_string());
                };
                r.decode_s += t.elapsed().as_secs_f64();
                r.offloaded_frames += 1;
                let t = Instant::now();
                let (h, _) = forward_features_slotted(
                    &plan.edge_specs,
                    &plan.edge_slots,
                    GraphInput { features: &state.features, graph: state.graph.as_ref() },
                    bank,
                    &mut edge_rng,
                );
                let logits = classify(&h, bank);
                r.edge_s += t.elapsed().as_secs_f64();
                logits
            } else {
                let logits = classify(&h, bank);
                r.device_s += t.elapsed().as_secs_f64();
                logits
            };
            r.predictions.push(logits.argmax_row(0));
        }
    }
    Ok(r)
}

pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..spec.setups.max(1) {
        if let Some(mut old) = rig.take() {
            old.dispatcher.detach_pool().map_err(|e| format!("detach pool: {e}"))?;
        }
        let t = Instant::now();
        rig = Some(set_up(spec.seed)?);
        walls.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = median(&walls);
    let mut rig = rig.expect("at least one set-up");
    let tracer = spec.traced.then(Tracer::new);
    let tr = tracer.as_ref();
    let plans = rig.picks.len();
    let warm_swaps = rig.dispatcher.live_swaps();

    let mut swap_us = Vec::new();
    let mut singles: Vec<Vec<f64>> = vec![Vec::new(); plans];
    let (mut b2b_frames, mut b2b_s) = (0usize, 0.0f64);
    // Back-to-back frames per second of each full cycle over the zoo.
    let mut cycle_fps = Vec::new();
    let mut seen: Vec<Vec<Vec<usize>>> = vec![Vec::new(); plans];
    let mut chosen: Vec<Option<ScoredArch>> = vec![None; plans];
    let started = Instant::now();
    let mut visit = 0u64;
    'cycles: while started.elapsed().as_secs_f64() < spec.seconds
        || (spec.full && singles.iter().map(Vec::len).sum::<usize>() < samples_needed(90.0))
    {
        let (frames_before, wall_before) = (b2b_frames, b2b_s);
        for p in 0..plans {
            let pick = rig.picks[p];
            let calls = visit_calls(&rig.frames);
            let body = || -> Result<(), String> {
                let t = Instant::now();
                let entry =
                    trace::maybe(tr, "dispatch", visit, || rig.dispatcher.dispatch_live(pick))
                        .map_err(|e| format!("swap: {e}"))?;
                swap_us.push(t.elapsed().as_secs_f64() * 1e6);
                chosen[p] = entry;
                let mut preds = Vec::new();
                for (i, call) in calls.iter().enumerate() {
                    out.attempted += call.len() as u64;
                    let t = Instant::now();
                    match trace::maybe(tr, "runtime", visit, || rig.dispatcher.run_live(call)) {
                        Ok((pr, _)) => preds.extend(pr),
                        Err(e) => {
                            out.failed += call.len() as u64;
                            return Err(format!("run_live: {e}"));
                        }
                    }
                    let dt = t.elapsed().as_secs_f64();
                    if i == 0 {
                        b2b_frames += call.len();
                        b2b_s += dt;
                    } else {
                        singles[p].push(dt);
                    }
                }
                seen[p].push(preds);
                Ok(())
            };
            let res = trace::maybe(tr, "stream.visit", visit, body);
            visit += 1;
            if let Err(e) = res {
                out.problems.push(e);
                break 'cycles;
            }
        }
        cycle_fps.push((b2b_frames - frames_before) as f64 / (b2b_s - wall_before));
    }
    let swaps = rig.dispatcher.live_swaps() - warm_swaps;
    rig.dispatcher.detach_pool().map_err(|e| format!("detach pool: {e}"))?;

    // Output checks: pick p swapped in the zoo entry whose latency
    // constraint p was built from, so the visits streamed five distinct
    // plans; and every visit of every plan predicted exactly what the
    // in-process reference predicts for the same plan, bank and seed.
    let mut streamed = HashSet::new();
    for (p, entry) in chosen.iter().enumerate() {
        let wanted = rig.picks[p].max_latency_s;
        out.check(
            entry.as_ref().is_some_and(|e| Some(e.latency_s) == wanted && streamed.insert(&e.arch)),
            || format!("plan {p}: dispatcher swapped in another entry than the one picked"),
        );
    }
    let mut replays = Vec::new();
    for (p, visits) in seen.iter().enumerate() {
        let (plan, _) = rig.dispatcher.dispatch(rig.picks[p]).ok_or("empty stream zoo")?;
        // The bank builds weights lazily on first use, as the pool's did
        // on the set-up's warm frame: the first pass builds them, the
        // second is timed (and checked; weights do not depend on order).
        let mut bank = WeightBank::new(CLASSES, rig.bank_seed);
        replay(&plan, &rig, &mut bank)?;
        let r = replay(&plan, &rig, &mut bank)?;
        for (v, preds) in visits.iter().enumerate() {
            out.check(*preds == r.predictions, || {
                format!("plan {p} visit {v}: predictions differ from the reference")
            });
        }
        replays.push(r);
    }
    out.check(rig.picks.len() == 5, || {
        format!("stream zoo has {} plans, expected 5", rig.picks.len())
    });

    let all_singles: Vec<f64> = singles.iter().flatten().copied().collect();
    out.p50_ms = percentile(&all_singles, 50.0).map(|s| s * 1e3);
    out.ops = all_singles.len();
    out.p90_ms = percentile(&all_singles, 90.0).map(|s| s * 1e3);
    out.rate_per_s = median(&cycle_fps);
    out.named.push(("stream_fps", out.rate_per_s, "1/s", cycle_fps.len()));
    out.named.push(("frame_p50_ms", out.p50_ms.unwrap_or(f64::NAN), "ms", all_singles.len()));
    out.named.push(("frame_p90_ms", out.p90_ms.unwrap_or(f64::NAN), "ms", all_singles.len()));
    let p95 = percentile(&all_singles, 95.0).map_or(f64::NAN, |s| s * 1e3);
    out.named.push(("frame_p95_ms", p95, "ms", all_singles.len()));

    if tracer.is_some() {
        let frames_per_visit = (BACK_TO_BACK + SINGLES) as f64;
        let n = replays.len() as f64 * frames_per_visit;
        let sum = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
        let offloaded: usize = replays.iter().map(|r| r.offloaded_frames).sum();
        let l = &mut out.layers;
        l.insert("kernel.device_ms_per_frame", sum(|r| r.device_s) / n * 1e3);
        l.insert("kernel.edge_ms_per_frame", sum(|r| r.edge_s) / n * 1e3);
        l.insert("codec.encode_us_per_frame", sum(|r| r.encode_s) / offloaded as f64 * 1e6);
        l.insert("codec.decode_us_per_frame", sum(|r| r.decode_s) / offloaded as f64 * 1e6);
        let wire = sum(|r| r.wire_bytes as f64);
        l.insert("codec.wire_bytes_per_frame", wire / offloaded as f64);
        l.insert("codec.ratio", sum(|r| r.raw_bytes as f64) / wire);
        // One-frame call wall minus the same frame's replayed compute and
        // codec time, averaged over plans.
        let overhead: Vec<f64> = replays
            .iter()
            .zip(&singles)
            .map(|(r, walls)| {
                let compute = (r.device_s + r.edge_s + r.encode_s + r.decode_s) / frames_per_visit;
                median(walls) - compute
            })
            .collect();
        l.insert(
            "runtime.overhead_ms_per_frame",
            overhead.iter().sum::<f64>() / overhead.len() as f64 * 1e3,
        );
        l.insert("dispatch.swaps", swaps as f64);
        l.insert("dispatch.swap_us_p50", median(&swap_us));
    }
    if let Some(tr) = tracer {
        out.spans = tr.spans();
    }
    Ok(out)
}
