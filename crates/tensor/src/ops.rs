//! Elementwise activations and row-wise normalizations.

use crate::Matrix;

/// Rectified linear unit, elementwise.
///
/// # Example
///
/// ```
/// use gcode_tensor::{ops, Matrix};
/// let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
/// assert_eq!(ops::relu(&m), Matrix::from_rows(&[&[0.0, 2.0]]));
/// ```
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

/// Folds `src` into the running elementwise maximum `acc`: a slot takes
/// `src[j]` only when it is strictly greater, so the earlier value wins
/// ties (`+0.0` vs `-0.0` included), a NaN in `src` never wins and a NaN
/// already in `acc` stays. The select is branch-free, so the loop
/// vectorizes over contiguous rows.
///
/// # Example
///
/// ```
/// use gcode_tensor::ops;
/// let mut acc = [1.0, 5.0];
/// ops::max_into(&mut acc, &[3.0, 2.0]);
/// assert_eq!(acc, [3.0, 5.0]);
/// ```
#[inline]
pub fn max_into(acc: &mut [f32], src: &[f32]) {
    for (o, &s) in acc.iter_mut().zip(src) {
        *o = if s > *o { s } else { *o };
    }
}

/// [`max_into`] that also writes `idx` into `arg[j]` wherever `src[j]`
/// wins, so `arg` ends up holding the first row that reached each
/// maximum — the argmax a backward pass routes gradients to.
#[inline]
pub fn max_into_arg(acc: &mut [f32], arg: &mut [u32], src: &[f32], idx: u32) {
    for ((o, a), &s) in acc.iter_mut().zip(arg).zip(src) {
        // All ones where `src` loses. A mask rather than a second `if`
        // keeps the loop branch-free, so it vectorizes.
        let loses = u32::from(s > *o).wrapping_sub(1);
        *o = if s > *o { s } else { *o };
        *a = (*a & loses) | (idx & !loses);
    }
}

/// Gradient mask of ReLU: 1 where the forward input was positive, else 0.
pub fn relu_grad_mask(forward_input: &Matrix) -> Matrix {
    forward_input.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Leaky ReLU with negative slope `alpha`.
pub fn leaky_relu(m: &Matrix, alpha: f32) -> Matrix {
    m.map(|x| if x > 0.0 { x } else { alpha * x })
}

/// Hyperbolic tangent, elementwise.
pub fn tanh(m: &Matrix) -> Matrix {
    m.map(f32::tanh)
}

/// Logistic sigmoid, elementwise.
pub fn sigmoid(m: &Matrix) -> Matrix {
    m.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Numerically stable row-wise softmax.
///
/// Each row of the result sums to 1.
///
/// # Example
///
/// ```
/// use gcode_tensor::{ops, Matrix};
/// let p = ops::softmax_rows(&Matrix::from_rows(&[&[0.0, 0.0]]));
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
    out
}

/// Row-wise L2 normalization; zero rows are left untouched.
pub fn l2_normalize_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    out
}

/// Z-score normalization over a slice: `(x - mean) / std`.
///
/// A constant slice (std = 0) maps to all zeros. This is the normalization
/// the paper applies to LUT latencies before concatenating them into the
/// predictor's node features (Sec. 3.5, "Enhanced node features").
pub fn zscore(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std == 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - mean) / std).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_rows(&[&[-3.0, 0.0, 2.5]]);
        assert_eq!(relu(&m), Matrix::from_rows(&[&[0.0, 0.0, 2.5]]));
    }

    #[test]
    fn relu_grad_mask_matches_sign() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 3.0]]);
        assert_eq!(relu_grad_mask(&m), Matrix::from_rows(&[&[0.0, 0.0, 1.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&m);
        for i in 0..p.rows() {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Matrix::from_rows(&[&[1000.0, 1000.0]]);
        let p = softmax_rows(&m);
        assert!((p[(0, 0)] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn l2_normalize_unit_length() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        let n = l2_normalize_rows(&m);
        assert!((n[(0, 0)] - 0.6).abs() < 1e-6);
        assert!((n[(0, 1)] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_keeps_zero_rows() {
        let m = Matrix::zeros(1, 4);
        assert_eq!(l2_normalize_rows(&m), m);
    }

    #[test]
    fn zscore_zero_mean_unit_std() {
        let z = zscore(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        let var: f64 = z.iter().map(|v| v * v).sum::<f64>() / z.len() as f64;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zscore_constant_input_is_zero() {
        assert_eq!(zscore(&[7.0, 7.0, 7.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn zscore_empty_is_empty() {
        assert!(zscore(&[]).is_empty());
    }
}
