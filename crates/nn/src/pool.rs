//! Global graph pooling (readout), with backward pass.

use gcode_tensor::{ops, Matrix};
use serde::{Deserialize, Serialize};

/// Global readout over all nodes — the `GlobalPooling` operation's function
/// choices (Fig. 6: sum/mean/max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PoolMode {
    /// Sum over nodes.
    Sum,
    /// Mean over nodes.
    Mean,
    /// Elementwise max over nodes.
    Max,
}

impl PoolMode {
    /// All modes, in design-space order.
    pub const ALL: [PoolMode; 3] = [PoolMode::Sum, PoolMode::Mean, PoolMode::Max];
}

impl std::fmt::Display for PoolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PoolMode::Sum => "sum",
            PoolMode::Mean => "mean",
            PoolMode::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Cache for [`global_pool_backward`].
#[derive(Debug, Clone)]
pub struct PoolCache {
    mode: PoolMode,
    n: usize,
    /// For `Max`: row index chosen per feature column.
    argmax: Option<Vec<u32>>,
}

/// Pools `n × d` node features into a `1 × d` graph feature.
///
/// Returns the pooled feature and a cache for the backward pass.
/// Inference should call [`global_pool_forward`], which computes the same
/// bits without the `Max` argmax bookkeeping.
///
/// # Example
///
/// ```
/// use gcode_nn::pool::{global_pool, PoolMode};
/// use gcode_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 2.0]]);
/// let (out, _) = global_pool(&x, PoolMode::Max);
/// assert_eq!(out.row(0), &[3.0, 4.0]);
/// ```
pub fn global_pool(x: &Matrix, mode: PoolMode) -> (Matrix, PoolCache) {
    let (n, d) = x.shape();
    if mode == PoolMode::Max && n > 0 {
        // The fold of `Matrix::max_rows`, also recording the first row
        // that reached each column's maximum.
        let mut best = x.row(0).to_vec();
        let mut idx = vec![0u32; d];
        for i in 1..n {
            ops::max_into_arg(&mut best, &mut idx, x.row(i), i as u32);
        }
        return (Matrix::from_vec(1, d, best), PoolCache { mode, n, argmax: Some(idx) });
    }
    (global_pool_forward(x, mode), PoolCache { mode, n, argmax: None })
}

/// [`global_pool`] for inference: the same output bits, no backward cache.
pub fn global_pool_forward(x: &Matrix, mode: PoolMode) -> Matrix {
    match mode {
        PoolMode::Sum => x.sum_rows(),
        PoolMode::Mean => x.mean_rows(),
        PoolMode::Max => x.max_rows(),
    }
}

/// Backward pass of [`global_pool`]; `gout` is `1 × d`.
pub fn global_pool_backward(cache: &PoolCache, gout: &Matrix) -> Matrix {
    let d = gout.cols();
    let n = cache.n;
    let mut gx = Matrix::zeros(n, d);
    match cache.mode {
        PoolMode::Sum => {
            for i in 0..n {
                for j in 0..d {
                    gx[(i, j)] = gout[(0, j)];
                }
            }
        }
        PoolMode::Mean => {
            if n > 0 {
                let inv = 1.0 / n as f32;
                for i in 0..n {
                    for j in 0..d {
                        gx[(i, j)] = gout[(0, j)] * inv;
                    }
                }
            }
        }
        PoolMode::Max => {
            if let Some(idx) = &cache.argmax {
                for j in 0..d {
                    gx[(idx[j] as usize, j)] = gout[(0, j)];
                }
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Matrix {
        Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.0], &[-1.0, 5.0]])
    }

    #[test]
    fn sum_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Sum);
        assert_eq!(out.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn mean_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Mean);
        assert_eq!(out.row(0), &[1.0, 1.0]);
    }

    #[test]
    fn max_pool() {
        let (out, _) = global_pool(&x(), PoolMode::Max);
        assert_eq!(out.row(0), &[3.0, 5.0]);
    }

    #[test]
    fn sum_backward_broadcasts() {
        let (_, cache) = global_pool(&x(), PoolMode::Sum);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[1.0, 2.0]]));
        for i in 0..3 {
            assert_eq!(gx.row(i), &[1.0, 2.0]);
        }
    }

    #[test]
    fn mean_backward_divides() {
        let (_, cache) = global_pool(&x(), PoolMode::Mean);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[3.0, 3.0]]));
        for i in 0..3 {
            assert_eq!(gx.row(i), &[1.0, 1.0]);
        }
    }

    #[test]
    fn max_backward_routes_to_winner() {
        let (_, cache) = global_pool(&x(), PoolMode::Max);
        let gx = global_pool_backward(&cache, &Matrix::from_rows(&[&[1.0, 1.0]]));
        assert_eq!(gx.row(1), &[1.0, 0.0]); // col 0 max is row 1
        assert_eq!(gx.row(2), &[0.0, 1.0]); // col 1 max is row 2
        assert_eq!(gx.row(0), &[0.0, 0.0]);
    }

    /// The column-major argmax pass the row-major fold replaced, kept as
    /// the bit-level reference.
    fn reference_argmax(x: &Matrix) -> Vec<u32> {
        let mut idx = vec![0u32; x.cols()];
        for (j, slot) in idx.iter_mut().enumerate() {
            for i in 1..x.rows() {
                if x[(i, j)] > x[(*slot as usize, j)] {
                    *slot = i as u32;
                }
            }
        }
        idx
    }

    #[test]
    fn max_matches_column_major_reference_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (case, &(n, d)) in
            [(0, 4), (1, 3), (2, 8), (3, 16), (5, 32), (37, 5), (256, 64)].iter().enumerate()
        {
            let x = crate::agg::tests::tricky_features(n, d, 100 + case as u64);
            let (out, cache) = global_pool(&x, PoolMode::Max);
            assert_eq!(bits(&out), bits(&x.max_rows()), "case {case} output");
            assert_eq!(bits(&global_pool_forward(&x, PoolMode::Max)), bits(&out));
            let want = (n > 0).then(|| reference_argmax(&x));
            assert_eq!(cache.argmax, want, "case {case} argmax");
            if n > 0 {
                let picked: Vec<f32> =
                    (0..d).map(|j| x[(want.as_ref().unwrap()[j] as usize, j)]).collect();
                assert_eq!(bits(&out), bits(&Matrix::from_vec(1, d, picked)), "case {case}");
            }
        }
    }

    #[test]
    fn pool_reduces_transfer_size() {
        // The paper's Fig. 2 notes Pooling shrinks intermediate data; here
        // pooling 100 nodes to 1 divides wire size by 100.
        let big = Matrix::zeros(100, 16);
        let (pooled, _) = global_pool(&big, PoolMode::Mean);
        assert_eq!(pooled.len() * 100, big.len());
    }
}
