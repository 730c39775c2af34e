"""Optional C hot-loop kernels, compiled on demand with graceful fallback.

Three kernels: two serve :class:`repro.ml.tree.FlatEnsemble`
predictions and one grows trees.

* ``route_leaves`` walks every (tree, row) pair to its leaf.  The walk is
  three dependent gathers per (tree, row, level) — a memory-latency-bound
  chain that numpy cannot fuse: every level round-trips each intermediate
  through a full-size temporary.  The C loop runs the same chain
  register-resident, tiled so a block of binned rows stays in L1/L2
  across all trees (`repro perf` attributes the win: the numpy path's
  working set per level is ``3 * states * 4`` bytes of temporaries, the C
  path's is one row of ``n_features`` bytes plus the node arrays).
* ``accumulate_leaves`` adds each routed tree's leaf value into its output
  columns, tree by tree.  In numpy that is one fancy-indexed add per tree,
  whose per-call overhead dominates a 1–2-row request on a 400-tree model.
* ``grow_tree`` grows one whole tree of :func:`repro.ml.tree.grow_tree`
  in one call: per-node histograms (the smaller child's built, the
  larger's by subtraction from its parent), the cumulative split scan,
  the stable row partition and the depth-first node stack.  The numpy
  loop pays a dozen array dispatches per node; on depth-9 trees that
  dispatch, not arithmetic, was the cost of training.

Design constraints:

* **Bit-identical**: routing evaluates exactly the integer comparisons
  of the numpy path (uint8 feature vs packed uint8 threshold), so the
  routed leaves are equal, not approximately equal.  Accumulation adds
  into each output element the same leaf values in the same tree order
  as the numpy round loop (plain IEEE additions, which the compiler may
  not reassociate without ``-ffast-math``), so predictions are equal
  too.  Pinned by ``tests/test_ml_flat.py``.  Growing repeats the numpy
  grower's float operations in its order: histogram cells add rows in
  row order (as ``np.bincount`` does), node totals and means over
  outputs use numpy's pairwise summation where numpy does, prefix sums
  are sequential (``cumsum``), and the first best split wins (``argmax``),
  so trees are bit-identical.  Pinned by ``tests/test_ml_grow_kernel.py``
  against the frozen grower in ``tests/tree_reference.py``.
* **No floating-point contraction**: the kernels build with
  ``-ffp-contract=off``.  GNU C fuses ``a * b + c`` into one FMA by
  default under ``-march=native``, which rounds once instead of twice
  and would change split gains.  No flag may let the compiler
  reassociate or contract (no ``-ffast-math``).
* **Zero hard dependencies**: the kernels are compiled at first use with
  the system C compiler (``cc``, else ``gcc``).  No compiler, a failed
  compile, a read-only cache directory, or ``REPRO_NATIVE=0`` all degrade
  silently to the numpy path — never an exception, never a behavioural
  difference.
* **Compile once**: the shared object is cached under
  ``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-native``) keyed by the
  SHA-256 of the source + compiler flags, so recompilation happens only
  when a kernel changes.  Concurrent builders race benignly: each
  compiles from and to its own temp names and ``os.replace``-s the
  result into place atomically; temp files never outlive a build.

This module is bottom-layer: it imports nothing from ``repro`` (enforced
by ``tools/check_layering.py``) so any layer may use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["available", "route_leaves", "accumulate_leaves", "grow_tree",
           "kernel_info"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Route every (tree, row) pair to its leaf in the flat ensemble arrays.
 *
 * featthr:  per-node (feature << 8) | uint8_bin_threshold
 * children: interleaved per-node [right, left] indexed by 2*node + go_left
 *           (leaves self-loop, so every level is branch-free)
 * roots:    per-tree root node index
 * xb:       row-major (n_rows, n_features) uint8 binned feature matrix
 * out:      row-major (n_trees, n_rows) int32 leaf node indices
 *
 * Rows are processed in tiles sized so a tile of xb stays cache-resident
 * while every tree walks it (the node arrays are small and hot; the row
 * data is the streaming operand).
 */
void route_leaves(const int32_t *featthr, const int32_t *children,
                  const int32_t *roots, const uint8_t *xb,
                  int64_t n_rows, int64_t n_features, int64_t n_trees,
                  int64_t max_depth, int32_t *out)
{
    int64_t tile = 16384 / (n_features > 0 ? n_features : 1);
    if (tile < 64)
        tile = 64;
    for (int64_t r0 = 0; r0 < n_rows; r0 += tile) {
        int64_t r1 = r0 + tile < n_rows ? r0 + tile : n_rows;
        for (int64_t t = 0; t < n_trees; t++) {
            const int32_t root = roots[t];
            int32_t *dst = out + t * n_rows;
            const uint8_t *row = xb + r0 * n_features;
            for (int64_t r = r0; r < r1; r++, row += n_features) {
                int32_t node = root;
                for (int64_t d = 0; d < max_depth; d++) {
                    const int32_t ft = featthr[node];
                    const int32_t go_left = row[ft >> 8] <= (ft & 255);
                    node = children[(node << 1) + go_left];
                }
                dst[r] = node;
            }
        }
    }
}

/* Add every tree's routed leaf value into its output columns.
 *
 * leaves:  row-major (n_trees, n_rows) int32 leaf node indices
 * values:  row-major per-node values, value_stride doubles per node
 * cols:    per-tree first output column the tree adds to
 * pred:    row-major (n_rows, pred_stride) float64, updated in place
 *
 * Tree t adds values[leaf, 0:width] to pred[r, cols[t]:cols[t]+width].
 * Trees are applied in order, so each output element receives the same
 * additions in the same order as a per-tree loop.
 */
void accumulate_leaves(const int32_t *leaves, const double *values,
                       const int32_t *cols, int64_t n_trees, int64_t n_rows,
                       int64_t value_stride, int64_t width,
                       int64_t pred_stride, double *pred)
{
    for (int64_t t = 0; t < n_trees; t++) {
        const int32_t *leaf = leaves + t * n_rows;
        double *dst = pred + cols[t];
        for (int64_t r = 0; r < n_rows; r++, dst += pred_stride) {
            const double *src = values + (int64_t)leaf[r] * value_stride;
            for (int64_t j = 0; j < width; j++)
                dst[j] += src[j];
        }
    }
}

/* numpy's float64 add.reduce inner loop (pairwise summation): eight
 * accumulators per block of at most 128 elements, longer runs split in
 * two at a multiple of 8.  The caller adds the result to 0.0, as numpy
 * adds it to the reduction's identity.
 */
static double pairwise_sum(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride) +
           pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* np.mean over k contiguous values. */
static double mean_k(const double *a, int64_t k)
{
    return (0.0 + pairwise_sum(a, k, 1)) / (double)k;
}

/* Histogram of rows[lo:hi): per (feature position, bin) cell the row
 * count and the k gradient then k hessian sums, each added in row order
 * (the order np.bincount adds its weights in). */
static void build_hist(const uint8_t *xs, const double *g, const double *h,
                       const int64_t *rows, int64_t lo, int64_t hi,
                       int64_t fs, int64_t k, int64_t n_bins,
                       int64_t *counts, double *sums)
{
    memset(counts, 0, (size_t)(fs * n_bins) * sizeof(int64_t));
    memset(sums, 0, (size_t)(fs * n_bins * 2 * k) * sizeof(double));
    for (int64_t i = lo; i < hi; i++) {
        const int64_t r = rows[i];
        const uint8_t *x = xs + r * fs;
        const double *gr = g + r * k, *hr = h + r * k;
        for (int64_t j = 0; j < fs; j++) {
            const int64_t cell = j * n_bins + x[j];
            double *dst = sums + cell * 2 * k;
            counts[cell]++;
            for (int64_t o = 0; o < k; o++) {
                dst[o] += gr[o];
                dst[k + o] += hr[o];
            }
        }
    }
}

/* The best split of one node: the first (feature position, bin) with the
 * highest finite, valid score, as the numpy grower's argmax picks it.
 * G, H are the node's per-output totals and cnt its row count; work
 * holds 5k doubles.  Returns the best score (-inf when none is valid).
 * Always inlined, so calls with a constant k get their per-output loops
 * unrolled; the operations and their order are the same for every k.
 */
static inline __attribute__((always_inline)) double
best_split(const int64_t *counts, const double *sums, const double *G,
           const double *H, int64_t cnt, int64_t fs, int64_t k,
           int64_t n_bins, double min_child_weight, double lam,
           double gamma, double min_samples_leaf, double *work,
           int64_t *best_j, int64_t *best_b)
{
    double *gl = work, *hl = work + k, *hr = work + 2 * k,
           *sl = work + 3 * k, *sr = work + 4 * k;
    for (int64_t o = 0; o < k; o++)
        sl[o] = G[o] * G[o] / (H[o] + lam);
    const double parent = mean_k(sl, k);
    double best = -INFINITY;
    for (int64_t j = 0; j < fs; j++) {
        const int64_t *fc = counts + j * n_bins;
        const double *fsum = sums + j * n_bins * 2 * k;
        int64_t cl = 0;
        for (int64_t b = 0; b < n_bins - 1; b++) {
            const double *cell = fsum + b * 2 * k;
            if (b == 0) {
                for (int64_t o = 0; o < k; o++) {
                    gl[o] = cell[o];
                    hl[o] = cell[k + o];
                }
            } else {
                for (int64_t o = 0; o < k; o++) {
                    gl[o] += cell[o];
                    hl[o] += cell[k + o];
                }
            }
            cl += fc[b];
            if ((double)cl < min_samples_leaf ||
                (double)(cnt - cl) < min_samples_leaf)
                continue;
            for (int64_t o = 0; o < k; o++)
                hr[o] = H[o] - hl[o];
            if (!(mean_k(hl, k) >= min_child_weight) ||
                !(mean_k(hr, k) >= min_child_weight))
                continue;
            for (int64_t o = 0; o < k; o++) {
                const double gr = G[o] - gl[o];
                sl[o] = gl[o] * gl[o] / (hl[o] + lam);
                sr[o] = gr * gr / (hr[o] + lam);
            }
            const double score =
                0.5 * (mean_k(sl, k) + mean_k(sr, k) - parent) - gamma;
            if (isfinite(score) && score > best) {
                best = score;
                *best_j = j;
                *best_b = b;
            }
        }
    }
    return best;
}

typedef struct {
    int64_t node, lo, hi, depth;
} grow_entry;

/* Grow one tree depth first, reproducing repro.ml.tree's numpy grower
 * operation for operation so the node arrays are bit-identical.
 *
 * xs:        row-major (n, fs) uint8 bins of the eligible features
 * features:  per position, the feature index written to feat
 * g, h:      row-major (n, k) gradients and hessians
 * rows_in:   the m rows the tree grows on (repeats allowed)
 * feat .. n_samples: per-node outputs, room for cap nodes (values
 *            holds k doubles per node)
 *
 * Returns the node count, -1 when out of memory or room, -2 when a row
 * or bin is out of range (the caller then takes the numpy path).
 */
int64_t grow_tree(const uint8_t *xs, const int64_t *features,
                  const double *g, const double *h, const int64_t *rows_in,
                  int64_t n, int64_t m, int64_t fs, int64_t k,
                  int64_t n_bins, int64_t max_depth,
                  double min_child_weight, double lam, double gamma,
                  double min_samples_leaf, double leaf_scale, int64_t cap,
                  int64_t *feat, int64_t *thr, int64_t *left,
                  int64_t *right, double *values, double *gain,
                  int64_t *n_samples, int64_t *depth_reached)
{
    for (int64_t i = 0; i < m; i++) {
        const int64_t r = rows_in[i];
        if (r < 0 || r >= n)
            return -2;
        for (int64_t j = 0; j < fs; j++)
            if (xs[r * fs + j] >= n_bins)
                return -2;
    }
    const int64_t cells = fs * n_bins;
    const int64_t slots = (max_depth < m ? max_depth : m) + 2;
    int64_t result = -1, n_nodes = 1, sp = 1, reached = 0;
    int64_t *rows = malloc((size_t)(2 * m + 1) * sizeof(int64_t));
    double *scratch = malloc((size_t)(7 * k) * sizeof(double));
    grow_entry *stack = malloc((size_t)slots * sizeof(grow_entry));
    int64_t **counts = calloc((size_t)slots, sizeof(int64_t *));
    double **sums = calloc((size_t)slots, sizeof(double *));
    if (!rows || !scratch || !stack || !counts || !sums)
        goto done;
    int64_t *spill = rows + m;
    memcpy(rows, rows_in, (size_t)m * sizeof(int64_t));
    double *G = scratch, *H = scratch + k;

    for (int64_t i = 0; i < cap; i++) {
        feat[i] = -1;
        thr[i] = 0;
        left[i] = right[i] = -1;
        gain[i] = 0.0;
    }
    counts[0] = malloc((size_t)cells * sizeof(int64_t));
    sums[0] = malloc((size_t)(cells * 2 * k) * sizeof(double));
    if (!counts[0] || !sums[0])
        goto done;
    build_hist(xs, g, h, rows, 0, m, fs, k, n_bins, counts[0], sums[0]);
    stack[0] = (grow_entry){0, 0, m, 0};

    while (sp > 0) {
        const int64_t p = --sp;
        const grow_entry e = stack[p];
        const int64_t cnt = e.hi - e.lo;
        const int64_t *pc = counts[p];
        const double *ps = sums[p];
        /* Totals off feature 0: numpy's pairwise sum over the bins when
         * k == 1, a sequential sum per output otherwise. */
        for (int64_t o = 0; o < k; o++) {
            if (k == 1) {
                G[o] = 0.0 + pairwise_sum(ps + o, n_bins, 2 * k);
                H[o] = 0.0 + pairwise_sum(ps + k + o, n_bins, 2 * k);
            } else {
                double gs = 0.0, hs = 0.0;
                for (int64_t b = 0; b < n_bins; b++) {
                    gs += ps[b * 2 * k + o];
                    hs += ps[b * 2 * k + k + o];
                }
                G[o] = gs;
                H[o] = hs;
            }
        }
        n_samples[e.node] = cnt;
        for (int64_t o = 0; o < k; o++)
            values[e.node * k + o] = -leaf_scale * G[o] / (H[o] + lam);
        if (e.depth >= max_depth || (double)cnt < 2 * min_samples_leaf)
            continue;

        int64_t best_j = 0, best_b = 0;
        double best;
        if (k == 1)
            best = best_split(pc, ps, G, H, cnt, fs, 1, n_bins,
                              min_child_weight, lam, gamma,
                              min_samples_leaf, H + k, &best_j, &best_b);
        else if (k == 4)
            best = best_split(pc, ps, G, H, cnt, fs, 4, n_bins,
                              min_child_weight, lam, gamma,
                              min_samples_leaf, H + k, &best_j, &best_b);
        else
            best = best_split(pc, ps, G, H, cnt, fs, k, n_bins,
                              min_child_weight, lam, gamma,
                              min_samples_leaf, H + k, &best_j, &best_b);
        if (!(best > 0.0))
            continue;

        /* Stable partition: left rows in place, right rows via spill. */
        int64_t nl = 0, nr = 0;
        for (int64_t i = e.lo; i < e.hi; i++) {
            const int64_t r = rows[i];
            if (xs[r * fs + best_j] <= best_b)
                rows[e.lo + nl++] = r;
            else
                spill[nr++] = r;
        }
        memcpy(rows + e.lo + nl, spill, (size_t)nr * sizeof(int64_t));
        if (nl == 0 || nr == 0)
            continue;
        if (n_nodes + 2 > cap || p + 2 > slots)
            goto done;

        const int64_t lnode = n_nodes, rnode = n_nodes + 1;
        n_nodes += 2;
        feat[e.node] = features[best_j];
        thr[e.node] = best_b;
        gain[e.node] = best;
        left[e.node] = lnode;
        right[e.node] = rnode;
        if (e.depth + 1 > reached)
            reached = e.depth + 1;

        /* The smaller child's histogram is built into slot p + 1; the
         * parent's in slot p becomes the larger child's by subtraction.
         * Swapping the slots leaves the smaller child below the larger,
         * so the larger is grown first. */
        grow_entry small = {lnode, e.lo, e.lo + nl, e.depth + 1};
        grow_entry large = {rnode, e.lo + nl, e.hi, e.depth + 1};
        if (nl > nr) {
            small = (grow_entry){rnode, e.lo + nl, e.hi, e.depth + 1};
            large = (grow_entry){lnode, e.lo, e.lo + nl, e.depth + 1};
        }
        if (!counts[p + 1]) {
            counts[p + 1] = malloc((size_t)cells * sizeof(int64_t));
            sums[p + 1] = malloc((size_t)(cells * 2 * k) * sizeof(double));
            if (!counts[p + 1] || !sums[p + 1])
                goto done;
        }
        build_hist(xs, g, h, rows, small.lo, small.hi, fs, k, n_bins,
                   counts[p + 1], sums[p + 1]);
        int64_t *lc = counts[p];
        double *ls = sums[p];
        const int64_t *sc = counts[p + 1];
        const double *ss = sums[p + 1];
        for (int64_t c = 0; c < cells; c++)
            lc[c] -= sc[c];
        for (int64_t c = 0; c < cells * 2 * k; c++)
            ls[c] -= ss[c];
        counts[p] = counts[p + 1];
        sums[p] = sums[p + 1];
        counts[p + 1] = lc;
        sums[p + 1] = ls;
        stack[p] = small;
        stack[p + 1] = large;
        sp = p + 2;
    }
    *depth_reached = reached;
    result = n_nodes;
done:
    if (counts && sums)
        for (int64_t s = 0; s < slots; s++) {
            free(counts[s]);
            free(sums[s]);
        }
    free(counts);
    free(sums);
    free(stack);
    free(scratch);
    free(rows);
    return result;
}
"""

_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC", "-fno-math-errno",
           "-ffp-contract=off")

_I32 = ctypes.POINTER(ctypes.c_int32)
_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_F64 = ctypes.POINTER(ctypes.c_double)

#: Tri-state: None = not yet attempted, else (handle-or-None, detail str).
_state: tuple[ctypes.CDLL | None, str] | None = None
_lock = threading.Lock()


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _build(cache: Path, so_path: Path) -> str | None:
    """Compile the kernels into *so_path*; the failure reason, or None.

    Source and object go through unique temp names in *cache* that are
    removed on every path, so concurrent builders never read each
    other's half-written files and a failed build leaves nothing.
    """
    fd, src = tempfile.mkstemp(dir=cache, suffix=".c")
    with os.fdopen(fd, "w") as fh:
        fh.write(_SOURCE)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
    os.close(fd)
    errors = []
    try:
        for compiler in ("cc", "gcc"):
            try:
                proc = subprocess.run(
                    [compiler, *_CFLAGS, "-o", tmp, src],
                    capture_output=True, text=True, timeout=120,
                )
            except (OSError, subprocess.SubprocessError) as exc:
                errors.append(f"{compiler}: {exc}")
                continue
            if proc.returncode == 0:
                os.replace(tmp, so_path)
                return None
            errors.append(f"{compiler}: {proc.stderr.strip()[:200]}")
    finally:
        for path in (src, tmp):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
    return "compile failed: " + "; ".join(errors)


def _compile() -> tuple[ctypes.CDLL | None, str]:
    """Build (or reuse) the kernel shared object; never raises."""
    if os.environ.get("REPRO_NATIVE", "1") in ("0", "off", "false"):
        return None, "disabled via REPRO_NATIVE"
    digest = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    try:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        so_path = cache / f"kernels-{digest}.so"
        if not so_path.is_file():
            error = _build(cache, so_path)
            if error is not None:
                return None, error
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        return None, f"unavailable: {exc}"
    lib.route_leaves.restype = None
    lib.route_leaves.argtypes = [
        _I32, _I32, _I32, _U8,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I32,
    ]
    lib.accumulate_leaves.restype = None
    lib.accumulate_leaves.argtypes = [
        _I32, _F64, _I32,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _F64,
    ]
    lib.grow_tree.restype = ctypes.c_int64
    lib.grow_tree.argtypes = [
        _U8, _I64, _F64, _F64, _I64,
        *[ctypes.c_int64] * 6,
        *[ctypes.c_double] * 5,
        ctypes.c_int64,
        _I64, _I64, _I64, _I64, _F64, _F64, _I64, _I64,
    ]
    return lib, str(so_path)


def _load() -> ctypes.CDLL | None:
    global _state
    state = _state
    if state is None:
        with _lock:
            state = _state
            if state is None:
                _state = state = _compile()
    return state[0]


def available() -> bool:
    """True when the compiled kernels are loadable on this host."""
    return _load() is not None


def kernel_info() -> str:
    """Human-readable kernel status (shared-object path or the reason
    the fallback path is active)."""
    _load()
    assert _state is not None
    return _state[1]


def route_leaves(
    featthr: np.ndarray,
    children: np.ndarray,
    roots: np.ndarray,
    xb: np.ndarray,
    max_depth: int,
    out: np.ndarray,
) -> bool:
    """Fill *out* with per-(tree, row) leaf indices; False if unavailable.

    All arrays must be C-contiguous with the dtypes produced by
    :class:`repro.ml.tree.FlatEnsemble` (int32 node arrays, uint8 rows,
    int32 output of shape ``(n_trees, n_rows)``).  Returns ``True`` when
    the kernel ran; ``False`` means the caller must take its fallback
    path (kernel disabled or not compilable here).
    """
    lib = _load()
    if lib is None:
        return False
    n_rows, n_features = xb.shape
    lib.route_leaves(
        featthr.ctypes.data_as(_I32),
        children.ctypes.data_as(_I32),
        roots.ctypes.data_as(_I32),
        xb.ctypes.data_as(_U8),
        n_rows, n_features, out.shape[0], max_depth,
        out.ctypes.data_as(_I32),
    )
    return True


def accumulate_leaves(
    leaves: np.ndarray,
    values: np.ndarray,
    cols: np.ndarray,
    width: int,
    pred: np.ndarray,
) -> bool:
    """Add ``values[leaves[t, r], :width]`` into ``pred[r, cols[t]:][:width]``
    for every tree *t* in order; False if unavailable.

    *leaves* is :func:`route_leaves` output (int32 ``(n_trees, n_rows)``),
    *values* the ensemble's float64 ``(n_nodes, k)`` node values, *cols*
    int32 per-tree first output column and *pred* the float64
    ``(n_rows, n_outputs)`` accumulator, updated in place; all
    C-contiguous.  Returns ``True`` when the kernel ran; ``False`` means
    the caller must take its fallback path.
    """
    lib = _load()
    if lib is None:
        return False
    lib.accumulate_leaves(
        leaves.ctypes.data_as(_I32),
        values.ctypes.data_as(_F64),
        cols.ctypes.data_as(_I32),
        leaves.shape[0], leaves.shape[1], values.shape[1], width,
        pred.shape[1], pred.ctypes.data_as(_F64),
    )
    return True


def grow_tree(
    xs: np.ndarray,
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    n_bins: int,
    max_depth: int,
    min_child_weight: float,
    reg_lambda: float,
    gamma: float,
    min_samples_leaf: float,
    leaf_scale: float,
) -> tuple | None:
    """Grow one tree in one call; its node arrays, or None if unavailable.

    *xs* is the uint8 ``(n, fs)`` bin matrix of the eligible features,
    *features* their indices, *g*/*h* the ``(n, k)`` gradients and
    hessians and *rows* the rows to grow on.  Returns ``(feat, thr, left,
    right, values, gain, n_samples, max_depth_reached)`` as
    :class:`repro.ml.tree.Tree` holds them.  ``None`` means the caller
    must take its fallback path (kernel disabled or not compilable here,
    or a row or bin out of range).
    """
    lib = _load()
    if lib is None:
        return None
    xs = np.ascontiguousarray(xs)
    features, rows = (np.ascontiguousarray(a, dtype=np.int64)
                      for a in (features, rows))
    g, h = (np.ascontiguousarray(a, dtype=np.float64) for a in (g, h))
    if (xs.dtype != np.uint8 or xs.ndim != 2 or g.ndim != 2
            or g.shape != h.shape or g.shape[0] != xs.shape[0]
            or features.shape != (xs.shape[1],) or rows.ndim != 1):
        raise ValueError("grow_tree: the arrays do not describe one tree")
    n, fs = xs.shape
    k = g.shape[1]
    m = len(rows)
    # Every split leaves rows on both sides, so no tree is deeper than
    # m - 1 or has more than 2m - 1 nodes.
    max_depth = min(max_depth, m)
    cap = min(max(2 * m - 1, 1), (1 << (min(max_depth, 40) + 1)) - 1)
    feat = np.empty(cap, dtype=np.int64)
    thr = np.empty(cap, dtype=np.int64)
    left = np.empty(cap, dtype=np.int64)
    right = np.empty(cap, dtype=np.int64)
    values = np.empty((cap, k), dtype=np.float64)
    gain = np.empty(cap, dtype=np.float64)
    n_samples = np.empty(cap, dtype=np.int64)
    reached = np.zeros(1, dtype=np.int64)
    n_nodes = lib.grow_tree(
        xs.ctypes.data_as(_U8), features.ctypes.data_as(_I64),
        g.ctypes.data_as(_F64), h.ctypes.data_as(_F64),
        rows.ctypes.data_as(_I64),
        n, m, fs, k, n_bins, max_depth,
        min_child_weight, reg_lambda, gamma, min_samples_leaf, leaf_scale,
        cap,
        feat.ctypes.data_as(_I64), thr.ctypes.data_as(_I64),
        left.ctypes.data_as(_I64), right.ctypes.data_as(_I64),
        values.ctypes.data_as(_F64), gain.ctypes.data_as(_F64),
        n_samples.ctypes.data_as(_I64), reached.ctypes.data_as(_I64),
    )
    if n_nodes < 0:
        return None
    return (*(a[:n_nodes].copy() for a in (feat, thr, left, right, values,
                                           gain, n_samples)),
            int(reached[0]))
