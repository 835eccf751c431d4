"""Column-wise CIM reference in plain NumPy, apart from the program's kernels.

Rebuilds one CIM layer's output from what its plan stores: the integer cell
codes of every bit-split, the row tiles of the crossbar mapping, the weight
scale ``s_w`` (one per array and column), the partial-sum scale ``s_p``,
the shift-and-add factors, the activation scale and the bias.  It follows
the paper's per-column ADC formula::

    a      = clip(round(x / s_a))                       activation codes
    p      = a[:, rows of array i] @ cells[s, i]        one partial sum per
                                                        array, split, column
    code   = clip(round(p / s_p[s, i]))                 the column's ADC
    out    = s_a * sum_{i,s} code * s_p[s, i] * 2**(s*cell_bits) * s_w[i] + b

With partial-sum quantization off the ADC step is skipped (``code = p`` and
``s_p = 1``).  Nothing here imports ``repro``; the only contact with the
program is the attribute names of the plan objects handed in.
"""

from __future__ import annotations

import numpy as np


def im2col(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """``(N, C, H, W)`` to ``(N * L, C * kh * kw)`` rows, channel-major."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]                     # (N, C, OH, OW, kh, kw)
    oh, ow = win.shape[2], win.shape[3]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)


def column_weight_scale(plan) -> np.ndarray:
    """``s_w`` as ``(A, OC)``; refuses a scale that varies along the rows."""
    splits = np.asarray(plan.splits)
    _, a, r, oc = splits.shape
    s_w = np.broadcast_to(np.asarray(plan.s_w, dtype=np.float64), (a, r, oc))
    if not np.all(s_w == s_w[:, :1, :]):
        raise ValueError("weight scale is not column-wise (varies along rows)")
    return np.ascontiguousarray(s_w[:, 0, :])


def reference_rows(plan, rows: np.ndarray) -> np.ndarray:
    """Layer output for activation rows ``(M, in_features)`` -> ``(M, OC)``."""
    splits = np.asarray(plan.splits, dtype=np.float64)
    n_splits, n_arrays, _, oc = splits.shape
    rows = np.asarray(rows, dtype=np.float64)
    if plan.act_scale is not None:
        s_a = float(np.asarray(plan.act_scale).reshape(-1)[0])
        a = np.clip(np.round(rows / s_a), plan.act_qmin, plan.act_qmax)
    else:
        s_a, a = 1.0, rows
    s_w = column_weight_scale(plan)
    shifts = np.asarray(plan.shift_factors, dtype=np.float64).reshape(-1)
    if plan.psum_quant_enabled:
        s_p = np.broadcast_to(np.asarray(plan.s_p, dtype=np.float64),
                              (n_splits, n_arrays, oc))
    out = np.zeros((a.shape[0], oc))
    for i, tile in enumerate(plan.mapping.tiles):
        height = tile.row_stop - tile.row_start
        block = a[:, tile.row_start:tile.row_stop]
        for s in range(n_splits):
            psum = block @ splits[s, i, :height, :]
            if plan.psum_quant_enabled:
                code = np.clip(np.round(psum / s_p[s, i]),
                               plan.psum_qmin, plan.psum_qmax)
                out += code * (s_p[s, i] * shifts[s] * s_w[i])
            else:
                out += psum * (shifts[s] * s_w[i])
    out *= s_a
    if plan.bias is not None:
        out += np.asarray(plan.bias, dtype=np.float64).reshape(1, -1)
    return out


def reference_output(plan, x: np.ndarray) -> np.ndarray:
    """The reference output of a conv plan ``(N, OC, OH, OW)`` or a linear
    plan ``(N, OC)`` for the layer input ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if getattr(plan, "layer_type", "") != "conv2d":
        return reference_rows(plan, x)
    n = x.shape[0]
    kh, kw = plan.kernel_size
    rows = im2col(x, (kh, kw), plan.stride, plan.padding)
    oh = (x.shape[2] + 2 * plan.padding[0] - kh) // plan.stride[0] + 1
    ow = (x.shape[3] + 2 * plan.padding[1] - kw) // plan.stride[1] + 1
    out = reference_rows(plan, rows)
    return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)


def adc_step(plan) -> float:
    """Smallest output change one ADC code (or one weight code) can make."""
    s_a = 1.0 if plan.act_scale is None \
        else float(np.asarray(plan.act_scale).reshape(-1)[0])
    s_w = column_weight_scale(plan)
    if not plan.psum_quant_enabled:
        return s_a * float(s_w.min())
    n_splits, n_arrays, _, oc = np.asarray(plan.splits).shape
    s_p = np.broadcast_to(np.asarray(plan.s_p, dtype=np.float64),
                          (n_splits, n_arrays, oc))
    shifts = np.asarray(plan.shift_factors, dtype=np.float64).reshape(-1, 1, 1)
    return s_a * float((s_p * shifts * s_w[None]).min())


#: Float-route tolerance as a share of the layer's smallest ADC step.
FLOAT_TOL_STEPS = 1e-6


def check_layer(plan, x: np.ndarray, out: np.ndarray, route: str) -> tuple:
    """Compare one captured layer call with the reference.

    Returns ``(ok, max_abs_err, allowed)``.  The float route must agree
    within :data:`FLOAT_TOL_STEPS` ADC steps; the int route within the
    layer's declared ``requant.drift_bound`` plus the float tolerance
    (layers without an input quantizer run on the float route in int mode
    and get the float bound alone).
    """
    ref = reference_output(plan, x)
    err = float(np.max(np.abs(np.asarray(out, dtype=np.float64) - ref))) \
        if ref.size else 0.0
    allowed = FLOAT_TOL_STEPS * adc_step(plan)
    if route == "int" and plan.act_scale is not None:
        allowed += float(plan.requant.drift_bound)
    return err <= allowed, err, allowed
