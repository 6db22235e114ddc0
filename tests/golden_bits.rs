//! Golden-bits regression suite for the GNN inference kernels.
//!
//! Every hash below is the FNV-1a digest of the `f32::to_bits` of the
//! logits (or losses) that a fixed-seed run produces. The hashes were
//! recorded from the column-major reference kernels; any rewrite of kNN,
//! aggregation, pooling or the executor must keep the exact float-op
//! order and tie rules, so these values must never change.

use gcode::baselines::models;
use gcode::graph::datasets::PointCloudDataset;
use gcode::graph::knn::random_graph;
use gcode::nn::agg::AggMode;
use gcode::nn::pool::PoolMode;
use gcode::nn::seq::{
    classify, forward, forward_features_slotted, train_step, GraphInput, LayerSpec, WeightBank,
};
use gcode::tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CLASSES: usize = 10;
const BANK_SEED: u64 = 7;
const RNG_SEED: u64 = 11;

fn fnv1a_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(m: &Matrix) -> impl Iterator<Item = u32> + '_ {
    m.as_slice().iter().map(|v| v.to_bits())
}

/// Runs `specs` the way a deployed split plan does: a device prefix up to
/// the first `Identity` (a lowered `Communicate`), the live graph handed to
/// the edge suffix, then the classifier. Returns the hash of every cloud's
/// logit bits.
fn split_logits_hash(specs: &[LayerSpec], ds: &PointCloudDataset) -> u64 {
    let cut = specs.iter().position(|s| *s == LayerSpec::Identity).unwrap_or(specs.len());
    let slots: Vec<usize> = (0..specs.len()).collect();
    let mut bank = WeightBank::new(CLASSES, BANK_SEED);
    let mut dev_rng = ChaCha8Rng::seed_from_u64(RNG_SEED);
    let mut edge_rng = ChaCha8Rng::seed_from_u64(RNG_SEED ^ 0xED6E);
    let mut words = Vec::new();
    for s in ds.samples() {
        let (h, graph) = forward_features_slotted(
            &specs[..cut],
            &slots[..cut],
            GraphInput { features: &s.features, graph: None },
            &mut bank,
            &mut dev_rng,
        );
        let (h, _) = forward_features_slotted(
            &specs[cut..],
            &slots[cut..],
            GraphInput { features: &h, graph: graph.as_ref() },
            &mut bank,
            &mut edge_rng,
        );
        words.extend(bits(&classify(&h, &mut bank)));
    }
    fnv1a_words(words)
}

fn clouds() -> PointCloudDataset {
    PointCloudDataset::generate(2, 256, CLASSES, 2024)
}

#[test]
fn baseline_model_logits_are_bit_identical() {
    let ds = clouds();
    let got: Vec<(&str, u64)> = [
        ("dgcnn", models::dgcnn()),
        ("optimized_dgcnn", models::optimized_dgcnn()),
        ("hgnas", models::hgnas()),
        ("branchy_gnn", models::branchy_gnn()),
    ]
    .into_iter()
    .map(|(name, b)| (name, split_logits_hash(&b.arch.lower(), &ds)))
    .collect();
    let want = [
        ("dgcnn", 0x7d35_ad44_8685_2db3),
        ("optimized_dgcnn", 0x57f4_adac_f0a3_eea2),
        ("hgnas", 0x6298_9bc8_4b8b_b27b),
        ("branchy_gnn", 0x1f97_1fbb_ae97_6ae8),
    ];
    assert_eq!(got, want, "baseline logits changed");
}

/// Every aggregation and pooling mode, random and k-NN sampling, a fused
/// op, and an unpooled tail that falls back to the mean readout.
fn mixed_specs() -> Vec<Vec<LayerSpec>> {
    vec![
        vec![
            LayerSpec::BuildRandom { k: 16 },
            LayerSpec::Aggregate(AggMode::Add),
            LayerSpec::Combine { out_dim: 32 },
            LayerSpec::Aggregate(AggMode::Mean),
            LayerSpec::Identity,
            LayerSpec::BuildKnn { k: 8 },
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::FusedAggregateCombine { mode: AggMode::Max, out_dim: 48 },
            LayerSpec::GlobalPool(PoolMode::Sum),
            LayerSpec::Combine { out_dim: 24 },
        ],
        vec![
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::Combine { out_dim: 40 },
            LayerSpec::BuildKnn { k: 300 },
            LayerSpec::Aggregate(AggMode::Mean),
            LayerSpec::GlobalPool(PoolMode::Max),
        ],
        vec![
            LayerSpec::BuildKnn { k: 20 },
            LayerSpec::Combine { out_dim: 64 },
            LayerSpec::Identity,
            LayerSpec::Aggregate(AggMode::Max),
            LayerSpec::GlobalPool(PoolMode::Mean),
        ],
        vec![LayerSpec::BuildRandom { k: 4 }, LayerSpec::Aggregate(AggMode::Max)],
    ]
}

#[test]
fn mixed_plan_logits_are_bit_identical() {
    let ds = PointCloudDataset::generate(3, 64, CLASSES, 77);
    let got: Vec<u64> = mixed_specs().iter().map(|specs| split_logits_hash(specs, &ds)).collect();
    let want = [
        0x9ec1_77b5_f49e_261d,
        0x5a18_fac7_647c_b55e,
        0xfb31_4b9b_2398_c678,
        0x1a34_a783_be2e_0bd7,
    ];
    assert_eq!(got, want, "mixed plan logits changed");
}

#[test]
fn random_graph_draws_are_unchanged() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut words = Vec::new();
    for (n, k) in [(256, 20), (24, 20), (5, 20), (1, 3), (0, 3), (64, 63)] {
        let g = random_graph(n, k, &mut rng);
        words.push(g.num_nodes() as u32);
        words.extend(g.iter_edges().flat_map(|(u, v)| [u, v]));
    }
    assert_eq!(fnv1a_words(words), 0x40a4_d577_358f_ac43);
}

#[test]
fn training_through_max_kernels_is_bit_identical() {
    let ds = PointCloudDataset::generate(4, 48, CLASSES, 3);
    let specs = vec![
        LayerSpec::BuildKnn { k: 8 },
        LayerSpec::Aggregate(AggMode::Max),
        LayerSpec::Combine { out_dim: 16 },
        LayerSpec::Aggregate(AggMode::Max),
        LayerSpec::GlobalPool(PoolMode::Max),
        LayerSpec::Combine { out_dim: 16 },
    ];
    let mut bank = WeightBank::new(CLASSES, BANK_SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(RNG_SEED);
    let mut words = Vec::new();
    for _ in 0..3 {
        for s in ds.samples() {
            let input = GraphInput { features: &s.features, graph: None };
            words.push(train_step(&specs, input, s.label, &mut bank, 0.05, &mut rng).to_bits());
        }
    }
    for s in ds.samples() {
        let input = GraphInput { features: &s.features, graph: None };
        words.extend(bits(&forward(&specs, input, &mut bank, &mut rng)));
    }
    assert_eq!(fnv1a_words(words), 0x4379_de7b_3acb_385f);
}
