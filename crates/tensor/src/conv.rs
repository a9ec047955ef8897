//! Direct 2-D convolution kernels (stride 1) with forward and backward
//! passes.
//!
//! The paper's networks (VGG-style and ResNet-style) use stride-1
//! convolutions with "same" zero padding; spatial down-sampling happens in
//! pooling layers. These kernels therefore implement exactly that case.
//!
//! Layouts: input `[N, C, H, W]`, weight `[F, C, K, K]`, bias `[F]`,
//! output `[N, F, H', W']` with `H' = H + 2·pad − K + 1`.
//!
//! The loops are organized as *scalar × shifted-row* accumulations: for each
//! `(n, f, c, kh, kw)` the kernel weight multiplies a contiguous row of the
//! input, which keeps the inner loop vectorizable and branch-free.
//!
//! Batch loops fan out across rayon worker threads: the forward and
//! input-gradient kernels split the output over batch items, the
//! weight-gradient kernel over filters. Every split is a disjoint output
//! region computed in a fixed order, so results are bitwise identical
//! across thread counts.

use crate::chunking::for_each_chunk;
use crate::Tensor;

/// Below this many multiply-adds a kernel runs on the calling thread
/// rather than fanning out (the hand-off to pool workers would dominate).
const PARALLEL_MAC_THRESHOLD: usize = 128 * 1024;

/// Output spatial extent of a stride-1 convolution.
///
/// # Panics
///
/// Panics if the kernel (less padding) exceeds the input extent.
pub fn conv_out_extent(input: usize, kernel: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded + 1 > kernel,
        "kernel {kernel} too large for input {input} with padding {pad}"
    );
    padded - kernel + 1
}

/// The padding that keeps spatial extent unchanged for an odd kernel size.
///
/// # Panics
///
/// Panics if `kernel` is even — "same" padding is only well-defined for odd
/// kernels, and the paper's architectures use odd kernels (1, 3, 5) only.
pub fn same_padding(kernel: usize) -> usize {
    assert!(
        kernel % 2 == 1,
        "same padding requires an odd kernel, got {kernel}"
    );
    kernel / 2
}

/// Forward convolution: returns `[N, F, H', W']`.
///
/// # Panics
///
/// Panics on any layout mismatch between `input` `[N, C, H, W]`,
/// `weight` `[F, C, K, K]` and `bias` `[F]`.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, pad: usize) -> Tensor {
    let (n_batch, _, h, w) = dims4(input, "conv input");
    let (f_out, _, k, _) = dims4(weight, "conv weight");
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    let mut out = Tensor::zeros([n_batch, f_out, ho, wo]);
    conv2d_forward_into(input, weight, bias, pad, &mut out);
    out
}

/// [`conv2d_forward`] writing into a caller-provided (e.g.
/// workspace-acquired) output tensor; every element is overwritten. The
/// batch loop runs in parallel (one batch item per work unit).
///
/// # Panics
///
/// Panics on layout mismatches, including a wrongly shaped `out`.
pub fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    out: &mut Tensor,
) {
    let (n_batch, c_in, h, w) = dims4(input, "conv input");
    let (f_out, c_w, kh, kw) = dims4(weight, "conv weight");
    assert_eq!(c_in, c_w, "input channels {c_in} != weight channels {c_w}");
    assert_eq!(kh, kw, "only square kernels supported, got {kh}x{kw}");
    assert_eq!(bias.shape().dims(), &[f_out], "bias must be [{f_out}]");
    let k = kh;
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    assert_eq!(
        out.shape().dims(),
        &[n_batch, f_out, ho, wo],
        "conv output must be [{n_batch}, {f_out}, {ho}, {wo}]"
    );

    let id = input.data();
    let wd = weight.data();
    let bd = bias.data();
    let ipad = pad as isize;
    let macs = n_batch * f_out * c_in * k * k * ho * wo;
    for_each_chunk(
        out.data_mut(),
        f_out * ho * wo,
        macs >= PARALLEL_MAC_THRESHOLD,
        |n, ochunk| {
            // Initialize this item's planes with the bias.
            for (f, &b) in bd.iter().enumerate() {
                ochunk[f * ho * wo..(f + 1) * ho * wo].fill(b);
            }
            for f in 0..f_out {
                let obase = f * ho * wo;
                for c in 0..c_in {
                    let ibase = (n * c_in + c) * h * w;
                    let wbase = (f * c_in + c) * k * k;
                    for dkh in 0..k {
                        for dkw in 0..k {
                            let wval = wd[wbase + dkh * k + dkw];
                            if wval == 0.0 {
                                continue;
                            }
                            // out[oh, ow] += wval * in[oh + dkh - pad, ow + dkw - pad]
                            let oh_lo = (ipad - dkh as isize).max(0) as usize;
                            let oh_hi = ((h as isize + ipad - dkh as isize).min(ho as isize)).max(0)
                                as usize;
                            let ow_lo = (ipad - dkw as isize).max(0) as usize;
                            let ow_hi = ((w as isize + ipad - dkw as isize).min(wo as isize)).max(0)
                                as usize;
                            for oh in oh_lo..oh_hi {
                                let ih = (oh as isize + dkh as isize - ipad) as usize;
                                let irow = ibase + ih * w;
                                let orow = obase + oh * wo;
                                for ow in ow_lo..ow_hi {
                                    let iw = (ow as isize + dkw as isize - ipad) as usize;
                                    ochunk[orow + ow] += wval * id[irow + iw];
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Gradient of the loss w.r.t. the convolution input.
///
/// `grad_out` is `[N, F, H', W']`; returns `[N, C, H, W]` for the original
/// input extents `h` and `w`.
///
/// # Panics
///
/// Panics on layout mismatches.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    h: usize,
    w: usize,
    pad: usize,
) -> Tensor {
    let (n_batch, _, _, _) = dims4(grad_out, "conv grad_out");
    let (_, c_in, _, _) = dims4(weight, "conv weight");
    let mut gin = Tensor::zeros([n_batch, c_in, h, w]);
    conv2d_backward_input_into(grad_out, weight, pad, &mut gin);
    gin
}

/// [`conv2d_backward_input`] writing into a caller-provided (e.g.
/// workspace-acquired) output tensor of shape `[N, C, H, W]`; every
/// element is overwritten (zeroed first, then accumulated).
///
/// # Panics
///
/// Panics on layout mismatches, including a wrongly shaped `gin`.
pub fn conv2d_backward_input_into(
    grad_out: &Tensor,
    weight: &Tensor,
    pad: usize,
    gin: &mut Tensor,
) {
    let (n_batch, f_out, ho, wo) = dims4(grad_out, "conv grad_out");
    let (f_w, c_in, k, k2) = dims4(weight, "conv weight");
    assert_eq!(
        f_out, f_w,
        "grad_out filters {f_out} != weight filters {f_w}"
    );
    assert_eq!(k, k2, "only square kernels supported");
    let gdims = gin.shape().dims();
    assert_eq!(gdims.len(), 4, "conv input grad must be 4-D");
    assert_eq!(gdims[0], n_batch, "input grad batch mismatch");
    assert_eq!(gdims[1], c_in, "input grad channel mismatch");
    let (h, w) = (gdims[2], gdims[3]);
    assert_eq!(
        ho,
        conv_out_extent(h, k, pad),
        "grad_out height inconsistent"
    );
    assert_eq!(
        wo,
        conv_out_extent(w, k, pad),
        "grad_out width inconsistent"
    );

    let gd = grad_out.data();
    let wd = weight.data();
    let ipad = pad as isize;
    let macs = n_batch * f_out * c_in * k * k * ho * wo;
    for_each_chunk(
        gin.data_mut(),
        c_in * h * w,
        macs >= PARALLEL_MAC_THRESHOLD,
        |n, gchunk| {
            gchunk.fill(0.0);
            for f in 0..f_out {
                let gbase = (n * f_out + f) * ho * wo;
                for c in 0..c_in {
                    let ibase = c * h * w;
                    let wbase = (f * c_in + c) * k * k;
                    for dkh in 0..k {
                        for dkw in 0..k {
                            let wval = wd[wbase + dkh * k + dkw];
                            if wval == 0.0 {
                                continue;
                            }
                            // gin[ih, iw] += wval * gout[ih - dkh + pad, iw - dkw + pad]
                            let oh_lo = (ipad - dkh as isize).max(0) as usize;
                            let oh_hi = ((h as isize + ipad - dkh as isize).min(ho as isize)).max(0)
                                as usize;
                            let ow_lo = (ipad - dkw as isize).max(0) as usize;
                            let ow_hi = ((w as isize + ipad - dkw as isize).min(wo as isize)).max(0)
                                as usize;
                            for oh in oh_lo..oh_hi {
                                let ih = (oh as isize + dkh as isize - ipad) as usize;
                                let irow = ibase + ih * w;
                                let grow = gbase + oh * wo;
                                for ow in ow_lo..ow_hi {
                                    let iw = (ow as isize + dkw as isize - ipad) as usize;
                                    gchunk[irow + iw] += wval * gd[grow + ow];
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Gradients of the loss w.r.t. the convolution weight and bias.
///
/// Returns `(grad_weight: [F, C, K, K], grad_bias: [F])`.
///
/// # Panics
///
/// Panics on layout mismatches between `grad_out`, `input` and the implied
/// kernel size `k`.
pub fn conv2d_backward_params(
    grad_out: &Tensor,
    input: &Tensor,
    k: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let (_, f_out, _, _) = dims4(grad_out, "conv grad_out");
    let (_, c_in, _, _) = dims4(input, "conv input");
    let mut gw = Tensor::zeros([f_out, c_in, k, k]);
    let mut gb = Tensor::zeros([f_out]);
    conv2d_backward_params_into(grad_out, input, k, pad, &mut gw, &mut gb);
    (gw, gb)
}

/// [`conv2d_backward_params`] writing into caller-provided (e.g.
/// workspace-acquired) gradient tensors `gw: [F, C, K, K]` and `gb: [F]`;
/// every element of both is overwritten.
///
/// # Panics
///
/// Panics on layout mismatches, including wrongly shaped outputs.
pub fn conv2d_backward_params_into(
    grad_out: &Tensor,
    input: &Tensor,
    k: usize,
    pad: usize,
    gw: &mut Tensor,
    gb: &mut Tensor,
) {
    let (n_batch, f_out, ho, wo) = dims4(grad_out, "conv grad_out");
    let (n_in, c_in, h, w) = dims4(input, "conv input");
    assert_eq!(n_batch, n_in, "batch mismatch");
    assert_eq!(
        ho,
        conv_out_extent(h, k, pad),
        "grad_out height inconsistent"
    );
    assert_eq!(
        wo,
        conv_out_extent(w, k, pad),
        "grad_out width inconsistent"
    );
    assert_eq!(
        gw.shape().dims(),
        &[f_out, c_in, k, k],
        "weight grad must be [{f_out}, {c_in}, {k}, {k}]"
    );
    assert_eq!(gb.shape().dims(), &[f_out], "bias grad must be [{f_out}]");

    let gd = grad_out.data();
    let id = input.data();
    let ipad = pad as isize;
    {
        let gbd = gb.data_mut();
        gbd.fill(0.0);
        for n in 0..n_batch {
            for (f, g) in gbd.iter_mut().enumerate() {
                let gbase = (n * f_out + f) * ho * wo;
                *g += gd[gbase..gbase + ho * wo].iter().sum::<f32>();
            }
        }
    }
    // The weight gradient reduces over the batch, so the parallel split is
    // over filters instead: each worker owns one filter's `[C, K, K]`
    // slice and scans the batch in order (bitwise-deterministic).
    let macs = n_batch * f_out * c_in * k * k * ho * wo;
    for_each_chunk(
        gw.data_mut(),
        c_in * k * k,
        macs >= PARALLEL_MAC_THRESHOLD,
        |f, gwchunk| {
            gwchunk.fill(0.0);
            for n in 0..n_batch {
                let gbase = (n * f_out + f) * ho * wo;
                for c in 0..c_in {
                    let ibase = (n * c_in + c) * h * w;
                    let wbase = c * k * k;
                    for dkh in 0..k {
                        for dkw in 0..k {
                            let oh_lo = (ipad - dkh as isize).max(0) as usize;
                            let oh_hi = ((h as isize + ipad - dkh as isize).min(ho as isize)).max(0)
                                as usize;
                            let ow_lo = (ipad - dkw as isize).max(0) as usize;
                            let ow_hi = ((w as isize + ipad - dkw as isize).min(wo as isize)).max(0)
                                as usize;
                            let mut acc = 0.0;
                            for oh in oh_lo..oh_hi {
                                let ih = (oh as isize + dkh as isize - ipad) as usize;
                                let irow = ibase + ih * w;
                                let grow = gbase + oh * wo;
                                for ow in ow_lo..ow_hi {
                                    let iw = (ow as isize + dkw as isize - ipad) as usize;
                                    acc += gd[grow + ow] * id[irow + iw];
                                }
                            }
                            gwchunk[wbase + dkh * k + dkw] += acc;
                        }
                    }
                }
            }
        },
    );
}

/// Reference (naive, obviously-correct) forward convolution used by tests to
/// validate the optimized kernel.
pub fn conv2d_forward_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
) -> Tensor {
    let (n_batch, c_in, h, w) = dims4(input, "conv input");
    let (f_out, _, k, _) = dims4(weight, "conv weight");
    let ho = conv_out_extent(h, k, pad);
    let wo = conv_out_extent(w, k, pad);
    let mut out = Tensor::zeros([n_batch, f_out, ho, wo]);
    for n in 0..n_batch {
        for f in 0..f_out {
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut acc = bias.data()[f];
                    for c in 0..c_in {
                        for dkh in 0..k {
                            for dkw in 0..k {
                                let ih = oh as isize + dkh as isize - pad as isize;
                                let iw = ow as isize + dkw as isize - pad as isize;
                                if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                                    acc += weight.at4(f, c, dkh, dkw)
                                        * input.at4(n, c, ih as usize, iw as usize);
                                }
                            }
                        }
                    }
                    *out.at4_mut(n, f, oh, ow) = acc;
                }
            }
        }
    }
    out
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(t.shape().ndim(), 4, "{what} must be 4-D, got {}", t.shape());
    let d = t.shape().dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_t(shape: [usize; 4], seed: u64) -> Tensor {
        Tensor::randn(shape, 1.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn extents_and_padding() {
        assert_eq!(conv_out_extent(8, 3, 1), 8);
        assert_eq!(conv_out_extent(8, 5, 2), 8);
        assert_eq!(conv_out_extent(8, 3, 0), 6);
        assert_eq!(same_padding(1), 0);
        assert_eq!(same_padding(3), 1);
        assert_eq!(same_padding(5), 2);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn same_padding_rejects_even() {
        same_padding(2);
    }

    #[test]
    fn forward_matches_reference() {
        for (k, pad) in [(1, 0), (3, 1), (5, 2), (3, 0)] {
            let input = rand_t([2, 3, 6, 6], 10 + k as u64);
            let weight = rand_t([4, 3, k, k], 20 + k as u64);
            let bias = Tensor::randn([4], 1.0, &mut StdRng::seed_from_u64(30));
            let fast = conv2d_forward(&input, &weight, &bias, pad);
            let slow = conv2d_forward_reference(&input, &weight, &bias, pad);
            assert_close(fast.data(), slow.data(), 1e-4);
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A 3x3 kernel with a 1 in the center per matching channel is the
        // identity map under same padding — the building block of the
        // deepening morphism.
        let c = 3;
        let input = rand_t([2, c, 5, 5], 7);
        let mut weight = Tensor::zeros([c, c, 3, 3]);
        for f in 0..c {
            *weight.at4_mut(f, f, 1, 1) = 1.0;
        }
        let bias = Tensor::zeros([c]);
        let out = conv2d_forward(&input, &weight, &bias, 1);
        assert_close(out.data(), input.data(), 1e-6);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of conv2d_backward_params on a tiny case.
        let input = rand_t([1, 2, 4, 4], 1);
        let mut weight = rand_t([2, 2, 3, 3], 2);
        let bias = rand_t([1, 1, 1, 2], 3).reshape([2]);
        let pad = 1;
        let loss = |w: &Tensor| -> f32 {
            conv2d_forward(&input, w, &bias, pad)
                .data()
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                * 0.5
        };
        let out = conv2d_forward(&input, &weight, &bias, pad);
        // dL/dout = out for L = 0.5*||out||^2.
        let (gw, _gb) = conv2d_backward_params(&out, &input, 3, pad);
        let eps = 1e-2;
        for idx in [0usize, 5, 17, 35] {
            let orig = weight[idx];
            weight[idx] = orig + eps;
            let lp = loss(&weight);
            weight[idx] = orig - eps;
            let lm = loss(&weight);
            weight[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gw[idx];
            assert!(
                (numeric - analytic).abs() / (1.0 + analytic.abs()) < 5e-2,
                "weight grad mismatch at {idx}: numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut input = rand_t([1, 2, 4, 4], 4);
        let weight = rand_t([3, 2, 3, 3], 5);
        let bias = Tensor::zeros([3]);
        let pad = 1;
        let loss = |x: &Tensor| -> f32 {
            conv2d_forward(x, &weight, &bias, pad)
                .data()
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                * 0.5
        };
        let out = conv2d_forward(&input, &weight, &bias, pad);
        let gin = conv2d_backward_input(&out, &weight, 4, 4, pad);
        let eps = 1e-2;
        for idx in [0usize, 7, 15, 31] {
            let orig = input[idx];
            input[idx] = orig + eps;
            let lp = loss(&input);
            input[idx] = orig - eps;
            let lm = loss(&input);
            input[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gin[idx];
            assert!(
                (numeric - analytic).abs() / (1.0 + analytic.abs()) < 5e-2,
                "input grad mismatch at {idx}: numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn bias_gradient_is_sum_over_positions() {
        let input = rand_t([2, 1, 3, 3], 6);
        let weight = rand_t([2, 1, 3, 3], 7);
        let gout = Tensor::ones([2, 2, 3, 3]);
        let (_, gb) = conv2d_backward_params(&gout, &input, 3, 1);
        // With all-ones upstream gradient, bias grad = N*H*W = 2*3*3 = 18.
        assert_close(gb.data(), &[18.0, 18.0], 1e-5);
        let _ = weight;
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn forward_rejects_channel_mismatch() {
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([2, 4, 3, 3]);
        let bias = Tensor::zeros([2]);
        conv2d_forward(&input, &weight, &bias, 1);
    }
}
