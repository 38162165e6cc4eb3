"""Scout persistence.

The deployed system's lifecycle (§6): Resource Central trains models
offline, puts them "in a highly available storage system", and serves
them online.  This module is that storage hop: a fitted Scout's *model
state* (forest, imputer, selector, CPD+ cluster model) is saved to one
file and later re-attached to a live environment (topology + monitoring
store), which is how the online serving component works — models move,
monitoring data does not.

Two durability invariants hold for every write and read:

* **Writes are atomic.**  The bundle is fully serialized in memory,
  written to a temporary file in the destination directory, and
  ``os.replace``d into place — a crash mid-write leaves the previous
  bundle intact, never a torn file.
* **Corruption fails loudly.**  Any file that is not a complete,
  well-formed bundle — wrong magic, truncated pickle stream, flipped
  bits, foreign payload, incompatible format version — raises
  :class:`ValueError` naming the offending path.  A corrupted model
  store must never surface as a raw ``UnpicklingError`` deep inside a
  serving stack, and must never silently serve garbage.

The versioned, digest-checked storage tier on top of this module lives
in :mod:`repro.registry`.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..config.spec import ScoutConfig
from ..datacenter.topology import Topology
from ..monitoring.store import MonitoringStore
from .cpd_plus import CPDPlus
from .extraction import ComponentExtractor
from .features import FeatureBuilder
from .scout import Scout

__all__ = [
    "ScoutBundle",
    "save_scout",
    "load_scout",
    "read_bundle",
    "parse_bundle",
    "bundle_bytes",
    "write_bundle",
    "attach_bundle",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1
_MAGIC = b"SCOUTPKL"


@dataclass
class ScoutBundle:
    """The serializable model state of a fitted Scout."""

    format_version: int
    team: str
    config: ScoutConfig
    forest: object
    imputer: object
    selector: object
    cpd_cluster_rf: object
    cpd_handful_threshold: int
    cpd_fallback_threshold: float


def _bundle(scout: Scout) -> ScoutBundle:
    return ScoutBundle(
        format_version=FORMAT_VERSION,
        team=scout.team,
        config=scout.config,
        forest=scout.forest,
        imputer=scout.imputer,
        selector=scout.selector,
        cpd_cluster_rf=scout.cpd._cluster_rf,
        cpd_handful_threshold=scout.cpd.handful_threshold,
        cpd_fallback_threshold=scout.cpd.fallback_threshold,
    )


def bundle_bytes(bundle: ScoutBundle) -> bytes:
    """Serialize a bundle to its on-disk byte representation."""
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    pickle.dump(bundle, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    return buffer.getvalue()


def _replace_bytes(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename; a crash at any point
    leaves either the old file or the new one, never a torn mix.
    """
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_bundle(bundle: ScoutBundle, path: str | Path) -> None:
    """Atomically persist a bundle (serialize fully, then rename)."""
    _replace_bytes(Path(path), bundle_bytes(bundle))


def save_scout(scout: Scout, path: str | Path) -> None:
    """Serialize a fitted Scout's model state to ``path`` atomically."""
    write_bundle(_bundle(scout), path)


def parse_bundle(raw: bytes, path: str | Path) -> ScoutBundle:
    """Validate and deserialize bundle bytes already read from ``path``.

    ``path`` is only used for error messages; callers that verified a
    digest over ``raw`` (the model registry) parse the same bytes they
    hashed instead of re-reading the file.
    """
    if not raw.startswith(_MAGIC):
        raise ValueError(f"{path}: not a Scout bundle")
    try:
        bundle = pickle.loads(raw[len(_MAGIC):])
    except Exception as exc:  # noqa: BLE001 — any unpickle failure is corruption
        # A truncated-but-magic-prefixed file raises EOFError /
        # UnpicklingError (and flipped bits can surface as almost
        # anything); the persistence contract is a ValueError naming
        # the path, not a raw pickle internal.
        raise ValueError(
            f"{path}: truncated or corrupted Scout bundle "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(bundle, ScoutBundle):
        raise ValueError(f"{path}: unexpected payload type")
    if bundle.format_version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {bundle.format_version} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return bundle


def read_bundle(path: str | Path) -> ScoutBundle:
    """Read and validate a Scout bundle without attaching it to a
    monitoring environment.

    Used by tools that inspect persisted models (``repro lint``'s
    schema-drift check) where no live topology exists.
    """
    return parse_bundle(Path(path).read_bytes(), path)


def attach_bundle(
    bundle: ScoutBundle,
    topology: Topology,
    store: MonitoringStore,
) -> Scout:
    """Attach an already-validated bundle to a live environment."""
    builder = FeatureBuilder(bundle.config, topology, store)
    cpd = CPDPlus(
        builder,
        handful_threshold=bundle.cpd_handful_threshold,
        fallback_threshold=bundle.cpd_fallback_threshold,
    )
    cpd._cluster_rf = bundle.cpd_cluster_rf
    return Scout(
        config=bundle.config,
        extractor=ComponentExtractor(bundle.config, topology),
        builder=builder,
        selector=bundle.selector,
        forest=bundle.forest,
        imputer=bundle.imputer,
        cpd=cpd,
    )


def load_scout(
    path: str | Path,
    topology: Topology,
    store: MonitoringStore,
) -> Scout:
    """Load a Scout and attach it to a live monitoring environment.

    Raises ``ValueError`` for non-Scout files, truncated or bit-flipped
    payloads, and incompatible format versions — a corrupted model
    store must fail loudly, not serve garbage predictions.
    """
    return attach_bundle(read_bundle(path), topology, store)
