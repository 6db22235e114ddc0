//! K-nearest-neighbor graph construction.
//!
//! DGCNN rebuilds the neighbor graph *in feature space* before every edge
//! convolution; this is the `KNN` operation whose cost dominates GPU
//! execution in the paper's Fig. 3. The brute-force `O(n²·d)` scan here is
//! faithful to what PyG's `knn_graph` does for these sizes.

use crate::CsrGraph;
use gcode_tensor::Matrix;
use rand::Rng;

/// Builds the directed k-NN graph of the rows of `features` under squared
/// Euclidean distance. Node `u` points to its `k` nearest *other* nodes,
/// nearest first; for a graph with `n <= k` nodes every other node becomes
/// a neighbor.
///
/// Ties are broken by node index, which keeps the construction fully
/// deterministic.
///
/// # Panics
///
/// Panics if a distance is NaN, as a NaN feature or two infinite
/// features in one dimension produce.
///
/// # Example
///
/// ```
/// use gcode_graph::knn::knn_graph;
/// use gcode_tensor::Matrix;
///
/// let pts = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0]]);
/// let g = knn_graph(&pts, 1);
/// assert_eq!(g.neighbors(0), &[1]);
/// assert_eq!(g.neighbors(2), &[1]);
/// ```
pub fn knn_graph(features: &Matrix, k: usize) -> CsrGraph {
    let n = features.rows();
    let kk = k.min(n.saturating_sub(1));
    // Squared distances from `u` to every `v` accumulate one dimension at a
    // time over a transposed copy, so the inner loop runs over contiguous
    // `v` and vectorizes; each pair still sums its dimensions in ascending
    // order, so every distance has the bits of a per-pair loop.
    let columns = features.transpose();
    let mut sq = vec![0.0f32; n];
    // Distances are sums of squares, never -0.0, so for non-NaN values the
    // order of `(bits << 32) | v` is the order of `(distance, v)`.
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut adj = Vec::with_capacity(n);
    for u in 0..n {
        if kk == 0 {
            adj.push(Vec::new());
            continue;
        }
        sq.fill(0.0);
        for (j, &a) in features.row(u).iter().enumerate() {
            for (d, &b) in sq.iter_mut().zip(columns.row(j)) {
                let t = a - b;
                *d += t * t;
            }
        }
        keys.clear();
        keys.extend(sq.iter().enumerate().filter(|&(v, _)| v != u).map(|(v, &d)| {
            assert!(!d.is_nan(), "distances are finite");
            u64::from(d.to_bits()) << 32 | v as u64
        }));
        // Partial selection: only the first k entries need to be ordered.
        keys.select_nth_unstable(kk - 1);
        let chosen = &mut keys[..kk];
        chosen.sort_unstable();
        adj.push(chosen.iter().map(|&key| key as u32).collect());
    }
    CsrGraph::from_adjacency(adj)
}

/// Builds a random directed graph where each node points to `k` distinct
/// uniformly-sampled other nodes — the `Random` sampling function of the
/// design space's `Sample` operation (Fig. 6).
///
/// With `n <= k` nodes every other node becomes a neighbor.
pub fn random_graph(n: usize, k: usize, rng: &mut impl Rng) -> CsrGraph {
    let kk = k.min(n.saturating_sub(1));
    let mut adj = Vec::with_capacity(n);
    // Which nodes the current node already chose; cleared after each node.
    let mut seen = vec![false; n];
    for u in 0..n {
        let mut chosen = Vec::with_capacity(kk);
        // Reservoir-free rejection sampling is fine at these densities.
        while chosen.len() < kk {
            let v = rng.gen_range(0..n);
            if v != u && !seen[v] {
                seen[v] = true;
                chosen.push(v as u32);
            }
        }
        for &v in &chosen {
            seen[v as usize] = false;
        }
        adj.push(chosen);
    }
    CsrGraph::from_adjacency(adj)
}

/// Number of multiply-accumulate-equivalent operations a brute-force KNN
/// over `n` points of dimension `d` performs. Used by the hardware cost
/// model to price the op.
pub fn knn_flops(n: usize, d: usize) -> u64 {
    // n*(n-1) pairwise distances, d mul + d add each, plus selection ~ n log n.
    let pairs = (n as u64) * (n.saturating_sub(1) as u64);
    pairs * (2 * d as u64) + (n as u64) * (n as f64).log2().ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn grid_points() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[5.0, 5.0], &[5.0, 6.0]])
    }

    #[test]
    fn knn_every_node_has_k_neighbors() {
        let g = knn_graph(&grid_points(), 2);
        for u in 0..5 {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    fn knn_no_self_loops() {
        let g = knn_graph(&grid_points(), 3);
        for u in 0..g.num_nodes() {
            assert!(!g.neighbors(u).contains(&(u as u32)));
        }
    }

    #[test]
    fn knn_finds_true_nearest() {
        let g = knn_graph(&grid_points(), 1);
        assert_eq!(g.neighbors(3), &[4]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn knn_neighbors_sorted_by_distance() {
        let pts = Matrix::from_rows(&[&[0.0], &[3.0], &[1.0], &[10.0]]);
        let g = knn_graph(&pts, 3);
        assert_eq!(g.neighbors(0), &[2, 1, 3]);
    }

    #[test]
    fn knn_k_larger_than_n_saturates() {
        let pts = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let g = knn_graph(&pts, 10);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn knn_empty_input() {
        let g = knn_graph(&Matrix::zeros(0, 3), 4);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    /// The per-pair loop `knn_graph` used before the transposed
    /// accumulation, kept as the bit-level reference.
    fn reference_knn(features: &Matrix, k: usize) -> CsrGraph {
        let n = features.rows();
        let mut adj = Vec::with_capacity(n);
        for u in 0..n {
            let mut dist: Vec<(f32, u32)> = Vec::new();
            for v in (0..n).filter(|&v| v != u) {
                let mut d = 0.0;
                for (a, b) in features.row(u).iter().zip(features.row(v)) {
                    let t = a - b;
                    d += t * t;
                }
                dist.push((d, v as u32));
            }
            dist.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
            adj.push(dist.into_iter().take(k).map(|(_, v)| v).collect());
        }
        CsrGraph::from_adjacency(adj)
    }

    /// ReLU'd features with exact ties, both signed zeros, all-zero rows,
    /// duplicated points, and rotated copies of earlier points: a rotation
    /// is exactly as far from the origin in real arithmetic, so only the
    /// per-pair summation order decides which of the two ranks first.
    fn tricky_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, d);
        for u in 0..n {
            let kind = rng.gen_range(0..10);
            if u > 0 && kind < 4 {
                let mut src = m.row(rng.gen_range(0..u)).to_vec();
                src.rotate_left(kind as usize % d.max(1));
                m.row_mut(u).copy_from_slice(&src);
            } else if kind > 4 {
                for x in m.row_mut(u) {
                    *x = match rng.gen_range(0..10) {
                        0 => -0.0,
                        1..=3 => 0.5,
                        _ => rng.gen_range(-1.0f32..1.0).max(0.0),
                    };
                }
            }
        }
        m
    }

    #[test]
    fn knn_matches_per_pair_reference() {
        for (case, &(n, d, k)) in
            [(1, 3, 4), (2, 1, 20), (5, 3, 4), (21, 8, 20), (64, 3, 20), (64, 64, 20), (40, 17, 1)]
                .iter()
                .enumerate()
        {
            let x = tricky_points(n, d, case as u64);
            assert_eq!(knn_graph(&x, k), reference_knn(&x, k), "case {case}: n={n} d={d} k={k}");
        }
    }

    #[test]
    fn random_graph_degree_and_no_self_loops() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = random_graph(20, 4, &mut rng);
        for u in 0..20 {
            assert_eq!(g.degree(u), 4);
            assert!(!g.neighbors(u).contains(&(u as u32)));
            // neighbors are distinct
            let mut ns = g.neighbors(u).to_vec();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), 4);
        }
    }

    #[test]
    fn random_graph_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(random_graph(10, 3, &mut r1), random_graph(10, 3, &mut r2));
    }

    #[test]
    fn knn_flops_monotone_in_n_and_d() {
        assert!(knn_flops(100, 3) < knn_flops(200, 3));
        assert!(knn_flops(100, 3) < knn_flops(100, 6));
    }
}
