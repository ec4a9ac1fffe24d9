"""The compiled kernels of _kernels.c and their ctypes signatures.

The library is built on first use, never at import, in KERNEL_CACHE_DIR
under a name that hashes the source, numpy's bitgen.h and the compiler
flags, and is loaded once per process.  No -ffast-math or -march=native,
and no fused multiply-add, so a rerun on one machine is bit-identical.
Without a cached library and without ``cc``, ``library()`` raises
KernelBuildError.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

KERNEL_CACHE_DIR = (Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
                    / "spreademb")
_SOURCE = Path(__file__).with_name("_kernels.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_F64_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_I64_OUT = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
_INT = ctypes.c_int64
_BITGEN = ctypes.c_void_p   # a numpy bitgen_t *, from rng.bit_generator.ctypes

# restype and argtypes of every exported function
_SIGNATURES = {
    "sgns_epoch": (_INT, [_F64_OUT, _F64_OUT, _INT, _I64, _I64, _INT, _INT, _F64, _INT,
                          _F64_OUT]),
    "si_tree_static": (_INT, [_BITGEN, _INT, _I64, _I64, _F64, _INT, _INT,
                              _I64_OUT, _I64_OUT, _I64_OUT]),
    "si_tree_temporal": (_INT, [_BITGEN, _INT, _I64, _I64, _I64, _INT, _INT, _INT,
                                ctypes.c_double, _I64_OUT, _I64_OUT, _I64_OUT]),
    "si_tree_paths": (_INT, [_BITGEN, _I64, _I64, _INT, _INT, _INT, _I64_OUT, _I64_OUT]),
    "si_corpus_static": (_INT, [_BITGEN, _INT, _I64, _I64, _F64, _INT, _I64, _INT, _INT,
                                _I64_OUT, _I64_OUT]),
    "si_corpus_temporal": (_INT, [_BITGEN, _INT, _I64, _I64, _I64, _INT, _I64, _I64, _INT,
                                  ctypes.c_double, _I64, _INT, _INT, _I64_OUT, _I64_OUT]),
}


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded kernel library, compiled into the cache if not there yet."""
    include = Path(np.get_include())
    flags = (*_FLAGS, f"-I{include}")
    digest = hashlib.sha256(_SOURCE.read_bytes()
                            + (include / "numpy" / "random" / "bitgen.h").read_bytes()
                            + " ".join(flags).encode()).hexdigest()
    lib_path = KERNEL_CACHE_DIR / f"_kernels-{digest}.so"
    if not lib_path.exists():
        compiler = shutil.which("cc")
        if compiler is None:
            raise KernelBuildError(
                "C compiler 'cc' not found on PATH; it is needed once, "
                f"to build {_SOURCE.name} into {lib_path.parent}")
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        # concurrent builders (pool workers) each write their own file; the
        # atomic rename leaves one complete library under the final name
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".so.tmp", dir=lib_path.parent)
        os.close(fd)
        try:
            build = subprocess.run(
                [compiler, *flags, "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True, text=True)
            if build.returncode != 0:
                raise KernelBuildError(
                    f"{compiler} failed to build {_SOURCE.name}:\n{build.stderr}")
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(lib_path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def call_with(rng: np.random.Generator, fn, *args):
    """``fn(bitgen, *args)`` with ``rng``'s bit generator, locked for the call,
    as the source of every random number the kernel draws."""
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        return fn(bit_generator.ctypes.bit_generator, *args)
