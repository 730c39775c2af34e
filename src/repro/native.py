"""Optional C hot-loop kernels, compiled on demand with graceful fallback.

Two kernels serve :class:`repro.ml.tree.FlatEnsemble` predictions:

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

Design constraints:

* **Bit-identical**: routing evaluates exactly the integer comparisons
  of the numpy path (uint8 feature vs packed uint8 threshold), so the
  routed leaves are equal, not approximately equal.  Accumulation adds
  into each output element the same leaf values in the same tree order
  as the numpy round loop (plain IEEE additions, which the compiler may
  not reassociate without ``-ffast-math``), so predictions are equal
  too.  Pinned by ``tests/test_ml_flat.py``.
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

__all__ = ["available", "route_leaves", "accumulate_leaves",
           "kernel_info"]

_SOURCE = r"""
#include <stdint.h>

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
"""

_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC", "-fno-math-errno")

_I32 = ctypes.POINTER(ctypes.c_int32)
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
