"""The BLAS kernel behind numpy's matrix products.

The network layers' products run in numpy's BLAS, and numpy's bundled
OpenBLAS picks one of several kernels for the CPU when it loads. Two
kernels can round the same product differently in the last bit, which
forks a DRL run, so a result is a fact about one kernel. numpy's build
information names the library; only the library itself knows the kernel
it chose at run time.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy._core import _multiarray_umath


def blas_kernel() -> dict[str, str] | None:
    """numpy's version, its BLAS library and that library's runtime core,
    as ``{"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
    "core": "SkylakeX"}``; ``None`` when numpy is not using its bundled
    OpenBLAS.

    The core comes from OpenBLAS's ``scipy_openblas_get_corename64_``,
    looked up through the numpy extension module that links the library.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        return None
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
        corename = library.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "core": corename().decode(),
    }
