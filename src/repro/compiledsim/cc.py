"""Compile-and-load for the C kernel tier.

Builds :data:`repro.compiledsim.csrc.KERNELS_C` into a shared library
with the system C compiler and binds it through :mod:`ctypes`.  The
build is disk-cached: the library lands in a per-user cache directory
keyed by a hash of the source (plus compiler identity), so a machine
pays the ~1 s compile exactly once.

Everything here degrades by returning ``None``/raising into the tier
probe in :mod:`repro.compiledsim.runtime`; no hard dependency on a
compiler being present.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from .csrc import KERNELS_C, SOURCE_VERSION

__all__ = ["load_kernels", "cache_dir", "CCBuildError"]

_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ["-O3", "-march=native", "-fPIC", "-shared", "-fvisibility=hidden"]


class CCBuildError(RuntimeError):
    """The C tier could not be built (no compiler, or compile failed)."""


def cache_dir() -> Path:
    """Directory holding cached kernel libraries (override via env)."""
    env = os.environ.get("REPRO_COMPILED_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "compiledsim"


def _find_compiler() -> str | None:
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _source_tag(compiler: str) -> str:
    h = hashlib.sha256()
    h.update(f"v{SOURCE_VERSION}:{compiler}:".encode())
    h.update(KERNELS_C.encode())
    return h.hexdigest()[:16]


def _lib_suffix() -> str:
    return ".dylib" if sys.platform == "darwin" else ".so"


def _build(compiler: str, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(KERNELS_C, encoding="utf-8")
        tmp_out = Path(tmp) / out_path.name
        cmd = [compiler, *_CFLAGS, str(src), "-o", str(tmp_out)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise CCBuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        # Atomic publish so concurrent workers never load a half-written
        # library; the loser of the race just overwrites with identical
        # bytes.
        stage = out_path.with_name(out_path.name + f".{os.getpid()}.tmp")
        shutil.copy2(tmp_out, stage)
        os.replace(stage, out_path)


#: Every array argument is a raw address: callers pass ``arr.ctypes.data``
#: (an int), which ctypes converts without building a pointer object.
_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_DBL = ctypes.c_double

#: name -> (restype, argtypes)
_SIGNATURES = {
    "max_seg_run": (_I64, [_P, _I64]),
    "mex_sorted": (None, [_P, _P, _I64, _I64, _P, _P, _I64, _P]),
    "waved_color": (
        None, [_P, _I64, _P, _P, _P, _P, _I64, _P, _P, _P, _I64, _P],
    ),
    "detect_conflicts_full": (None, [_P, _P, _P, _I64, _P]),
    "detect_conflicts_subset": (None, [_P, _P, _P, _P, _I64, _P]),
    "issue_order": (None, [_P, _I64, _P, _P, _P, _P]),
    "first_occurrences": (
        _I64, [_P, _I64, _P, _P, _P, _P, _P, _I64, _I64, _P, _P, _P, _P],
    ),
    "pack_mask": (_I64, [_P, _I64, _P]),
    "first_occ3": (
        _I64, [_P, _P, _P, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _P, _P],
    ),
    "emit_coalesced": (
        _I64,
        [_P, _P, _I64, _P, _P, _P, _I64, _I64, _I64, _I64, _I64, _I64,
         _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P],
    ),
    "merge_order_i32": (
        _I64, [_P, _P, _P, _P, _I64, _I64, _I64, _P, _P, _P, _P],
    ),
}
for _suf in ("i32", "i64"):
    _SIGNATURES[f"reuse_prev_{_suf}"] = (
        _I64, [_P, _I64, _P, _P, _P, _P, _P, _I64, _I64],
    )
    _SIGNATURES[f"walk_stats_{_suf}"] = (
        None, [_P, _P, _P, _I64, _I64, _I64, _I64, _P, _P],
    )
    _SIGNATURES[f"walk_ro_{_suf}"] = (
        _I64, [_P, _P, _P, _P, _I64, _I64, _I64, _P, _P, _P, _I64],
    )
    _SIGNATURES[f"walk_l2_{_suf}"] = (
        None,
        [_P, _P, _P, _P, _I64, _I64, _I64, _I64, _P, _P, _DBL, _P, _P, _P,
         _P, _I64, _P],
    )
for _wsuf in ("w32", "w64"):
    for _ssuf in ("s32", "s64"):
        _SIGNATURES[f"order3_{_wsuf}{_ssuf}"] = (
            None, [_P, _P, _P, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _P],
        )


def _bind(lib: ctypes.CDLL) -> dict:
    fns = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
        fns[name] = fn
    return fns


def load_kernels() -> dict:
    """Build (if needed) and bind the C kernels; raises CCBuildError."""
    compiler = _find_compiler()
    if compiler is None:
        raise CCBuildError("no C compiler found (tried $CC, cc, gcc, clang)")
    tag = _source_tag(compiler)
    lib_path = cache_dir() / f"kernels-{tag}{_lib_suffix()}"
    if not lib_path.exists():
        _build(compiler, lib_path)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        # Stale/corrupt cache entry (e.g. interrupted publish on an old
        # kernel): rebuild once.
        lib_path.unlink(missing_ok=True)
        _build(compiler, lib_path)
        lib = ctypes.CDLL(str(lib_path))
    return _bind(lib)
