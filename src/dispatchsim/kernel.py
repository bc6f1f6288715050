"""The compiled FCFS recursion for rr, jiq, lwl and card, built on first use.

`load()` compiles `_kernel.c` with gcc the first time a run needs it and
loads it with ctypes once per process. The shared library is cached in a
per-user directory (`$XDG_CACHE_HOME/dispatchsim`, else `~/.cache/dispatchsim`,
else `dispatchsim-<uid>` under the temp directory) under a name keyed by the
source hash, the compiler version and the flags, so a later process loads it
without compiling. Builds go to a temp file that is renamed into place, so
concurrent processes never see a partial library.

`Kernel.stage` and `engine._stage` implement one stage contract: the same
arguments, return value and `settle` calls, and the same bytes. Without gcc,
or if the build fails, `load()` returns None and `engine.run` calls
`engine._stage`, which also serves as the kernel's test oracle.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .randomness import halves

SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off: no FMA contraction, so the kernel rounds like Python
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_loaded = None  # the Kernel, or False once loading failed in this process


def load() -> Kernel | None:
    """The compiled kernel, or None if it cannot be built here."""
    global _loaded
    if _loaded is None:
        _loaded = _build() or False
    return _loaded or None


def cache_dirs() -> list[str]:
    """Where the library may be cached, in order of preference."""
    import tempfile

    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [os.path.join(home, "dispatchsim"),
            os.path.join(tempfile.gettempdir(), f"dispatchsim-{os.getuid()}")]


def _build() -> Kernel | None:
    import ctypes
    import hashlib
    import shutil
    import subprocess

    gcc = shutil.which("gcc")
    if gcc is None or os.name != "posix":
        return None
    try:
        source = SOURCE.read_bytes()
        version = subprocess.run([gcc, "-dumpfullversion"], capture_output=True, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    key = hashlib.sha256(b"\0".join((source, version.strip(), *map(str.encode, FLAGS))))
    name = f"kernel-{key.hexdigest()[:20]}.so"
    for folder in cache_dirs():
        path = os.path.join(folder, name)
        try:
            _private_dir(folder)
            if not os.path.exists(path):
                _compile(gcc, folder, path)
            return Kernel(ctypes.CDLL(path))
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def _private_dir(folder: str) -> None:
    """Create `folder` with mode 0700 unless it exists; refuse one that
    another user owns or others may write to."""
    os.makedirs(folder, mode=0o700, exist_ok=True)
    st = os.stat(folder)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{folder} is not a private directory")


def _compile(gcc: str, folder: str, path: str) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
    os.close(fd)
    try:
        subprocess.run([gcc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Kernel:
    """ctypes bindings of `_kernel.c`."""

    def __init__(self, lib) -> None:
        import ctypes

        size, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
        common = [size, ptr, ptr, size, size, real, ptr, ptr, ptr, ptr, ptr]
        drawing = [*common, size, ptr, size, ptr]
        lib.dispatch_rr.argtypes, lib.dispatch_rr.restype = common, None
        lib.dispatch_lwl.argtypes, lib.dispatch_lwl.restype = [*drawing, ptr], size
        lib.dispatch_card.argtypes, lib.dispatch_card.restype = [*drawing, *[ptr] * 6], size
        lib.dispatch_jiq.argtypes, lib.dispatch_jiq.restype = [*drawing, size, *[ptr] * 7], size
        self._lib = lib

    def stage(self, kind, arr, req, size, offset, count, speed, clear, busy, since, rng,
              thresholds=None, stage1=False, settle=None):
        """Completions and global servers of one stage's dispatches (rr, jiq,
        lwl or card), in dispatch order; updates `clear`, `busy` and `since`
        (float64 arrays over global servers) in place. `rng` is the stage's
        policy stream, which nothing else may read.

        jiq calls `settle(k, fresh, done, where)` when the servers that drain
        before dispatch k tie at one instant, or one drains at k's instant on
        stage 1 (`stage1`): `fresh` lists their (clear, server) in heap order,
        and done[:k] and where[:k] are the stage's dispatches so far. It
        returns the (clear, server) pairs that drain, in pop order, and those
        that stay busy."""
        import ctypes

        arr, req, size = (np.ascontiguousarray(a, dtype=np.float64) for a in (arr, req, size))
        T = len(arr)
        if not (len(req) == len(size) == T and 0 <= offset and 0 < count
                and offset + count <= min(map(len, (clear, busy, since)))):
            raise ValueError("stage arrays and servers do not match")
        done, where = np.empty(T), np.empty(T, dtype=np.intp)
        common = [T, *(_ptr(a) for a in (arr, req)), offset, count, speed,
                  *(_ptr(a) for a in (clear, busy, since, done, where))]
        if kind == "rr":
            self._lib.dispatch_rr(*common)
            return done, where
        if kind == "lwl":
            fn, extra = self._lib.dispatch_lwl, [np.empty(count, dtype=np.intp)]
        elif kind == "jiq":
            heap_c, cand_c = np.empty((2, count))
            heap_g, idle, slot, cand_g = np.empty((4, count), dtype=np.intp)
            idle[:] = slot[:] = np.arange(count)  # every server starts idle
            # heap length, idle count, dispatch whose drains are done, tied
            # drains, settled drains: `st` in `dispatch_jiq`
            st = np.array([0, count, -1, 0, 0], dtype=np.intp)
            fn, extra = self._lib.dispatch_jiq, [heap_c, heap_g, idle, slot, cand_c, cand_g, st]
        else:
            if len(thresholds.m) != count:
                raise ValueError(f"thresholds are for {len(thresholds.m)} servers, not {count}")
            fn, extra = self._lib.dispatch_card, [
                size, np.asarray(thresholds.m, dtype=np.float64),
                np.asarray(thresholds.c, dtype=np.float64), np.empty(count),
                np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)]
        extra_ptrs = [_ptr(a) for a in extra]  # `extra` keeps the arrays alive
        if kind == "jiq":
            extra_ptrs.insert(0, int(stage1))
        words, drawn, pos, k = 1024, np.empty(0, dtype=np.uint32), ctypes.c_ssize_t(0), 0
        while (k := fn(*common, k, _ptr(drawn), len(drawn), ctypes.byref(pos), *extra_ptrs)) < T:
            if kind == "jiq" and (tied := st[3]):
                out, held = settle(k, list(zip(cand_c[:tied].tolist(), cand_g[:tied].tolist())),
                                   done, where)
                cand_g[:tied], st[4] = [g for _c, g in out + held], len(out)
                continue
            drawn, pos.value = np.concatenate((drawn[pos.value:], halves(rng, words))), 0
            words = min(4 * words, 1 << 16)
        return done, where


def _ptr(a: np.ndarray) -> int:
    if not a.flags.c_contiguous or a.dtype not in (np.float64, np.intp, np.uint32):
        raise ValueError("kernel arrays must be contiguous float64, intp or uint32")
    return a.ctypes.data
