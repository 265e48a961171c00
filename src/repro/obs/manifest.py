"""Run manifests: provenance sidecars for experiment artifacts.

Every artifact the experiments write can carry a ``<artifact>.manifest
.json`` sidecar recording what produced it: the git commit, the seed,
a stable hash of the run configuration, the package versions, wall and
CPU time, and the evaluation-cache counters (hits, misses, evictions,
transform/inversion call counts, bytes held per cache).  A reviewer comparing two divergent
artifacts starts from the manifests: same commit?  same seed?  same
config hash?  how much of the model evaluation was served from cache?

Nothing here imports the simulator; the manifest layer has to stay
importable from any artifact writer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

__all__ = [
    "build_manifest",
    "write_manifest",
    "manifest_path_for",
    "config_hash",
    "git_sha",
    "RunTimer",
]

#: Schema marker so ``cosmodel report`` can recognise a manifest file.
MANIFEST_KIND = "cosmodel-run-manifest"


def git_sha(repo_dir: str | os.PathLike | None = None) -> str | None:
    """The current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def config_hash(config) -> str:
    """Stable short hash of a run configuration.

    Dataclasses are hashed via their field dict, everything else via
    ``repr`` -- the goal is "did the config change", not reversibility.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = repr(
            sorted((f.name, repr(getattr(config, f.name)))
                   for f in dataclasses.fields(config))
        )
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RunTimer:
    """Context manager capturing wall and CPU seconds of a run."""

    __slots__ = ("wall_s", "cpu_s", "_t0", "_c0")

    def __init__(self) -> None:
        self.wall_s: float | None = None
        self.cpu_s: float | None = None

    def __enter__(self) -> "RunTimer":
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0


def _evalcache_counters() -> dict:
    from repro.distributions import evalcache

    return evalcache.stats()


def build_manifest(
    *,
    command: str | None = None,
    seed: int | None = None,
    config=None,
    wall_s: float | None = None,
    cpu_s: float | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a manifest document for one run.

    ``config`` may be any object (a :class:`ClusterConfig`, a scenario,
    an argparse namespace dict); only its stable hash is stored, plus a
    short repr for humans.  Eval-cache counters are snapshotted at call
    time, so build the manifest *after* the run.
    """
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dep today
        scipy_version = None
    doc = {
        "kind": MANIFEST_KIND,
        "created_unix": time.time(),
        "command": command,
        "seed": seed,
        "config_hash": config_hash(config) if config is not None else None,
        "config_repr": repr(config)[:500] if config is not None else None,
        "git_sha": git_sha(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy_version,
        },
        "host": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "wall_s": round(wall_s, 3) if wall_s is not None else None,
        "cpu_s": round(cpu_s, 3) if cpu_s is not None else None,
        "evalcache": _evalcache_counters(),
    }
    if extra:
        doc["extra"] = extra
    return doc


def manifest_path_for(artifact_path: str | os.PathLike) -> Path:
    """Sidecar path convention: ``<artifact>.manifest.json``."""
    return Path(str(artifact_path) + ".manifest.json")


def write_manifest(doc: dict, artifact_path: str | os.PathLike) -> Path:
    """Write ``doc`` as the sidecar of ``artifact_path``; returns it."""
    path = manifest_path_for(artifact_path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
