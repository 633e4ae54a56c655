"""The host a result was measured on, and the default configuration.

:func:`scrub_env` must run before numpy is imported: it records the
threading variables a user may have set and removes them, so every
workload runs under the library defaults.  :func:`host_record` names
the host; two results whose ``fingerprint`` differ are not comparable
(see ``compare.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from typing import Dict, Optional

#: Variables that change threading (and thus timing) in the program.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_JOBS",
              "REPRO_HOST_WORKERS", "REPRO_GEMM_SHARDS")


def scrub_env() -> Dict[str, Optional[str]]:
    """Record, then unset, every variable in :data:`THREAD_ENV`."""
    seen = {name: os.environ.get(name) for name in THREAD_ENV}
    for name in THREAD_ENV:
        os.environ.pop(name, None)
    return seen


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')}-{blas.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def host_record(env_seen: Dict[str, Optional[str]]) -> Dict[str, object]:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    rec: Dict[str, object] = {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        # The run itself always has these unset; a user's value is kept
        # for the record only.
        "env": {k: v for k, v in env_seen.items() if v is not None},
    }
    key = {k: rec[k] for k in ("nproc", "cpu_count", "machine", "system",
                               "python", "numpy", "blas")}
    rec["fingerprint"] = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()).hexdigest()[:12]
    return rec
