"""The filesystem model registry: versioned, integrity-checked bundles.

Production Scouts retrain continuously (§6: Resource Central trains
offline and drops models into highly available storage; the online
tier picks them up).  :class:`ModelRegistry` is that storage tier for
the reproduction — a directory of per-team version histories::

    <root>/
      PhyNet/
        1.scout            # the bundle (persistence format)
        1.manifest.json    # digests + provenance (see manifest.py)
        2.scout
        2.manifest.json
        ACTIVE             # the version serving should load ("2")

Three gates stand between a training run and a served model:

* **Lint pre-flight.**  ``publish(lint=True)`` (the default) runs the
  scoutlint config analyzer against the Scout's monitoring store and
  refuses any config with ERROR findings — a misconfigured model never
  enters the registry, mirroring the ``register(lint=True)`` serving
  gate.
* **Digest verification.**  ``fetch()`` reads the manifest first,
  checks the bundle's size and SHA-256 against it, and only then
  unpickles.  A tampered, truncated, or bit-flipped bundle raises
  :class:`ValueError` naming the path *before* any pickle byte is
  interpreted.
* **Cross-checks.**  The decoded bundle must carry the manifest's team
  and hash to the manifest's config digest, so a manifest can never be
  paired with somebody else's bundle.

Versions are monotonically increasing integers assigned at publish
time.  The ``ACTIVE`` pointer decouples *published* from *serving*:
the first publish for a team activates itself, later ones wait for an
explicit :meth:`set_active` (the CLI ``promote`` flow runs a shadow
evaluation first).  All writes go through the same atomic
temp-file-and-rename discipline as :mod:`repro.core.persistence`.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..core.persistence import (
    ScoutBundle,
    _bundle,
    _replace_bytes,
    bundle_bytes,
    parse_bundle,
)
from ..core.scout import Scout
from .manifest import (
    BundleManifest,
    config_digest,
    payload_digest,
    schema_digest,
)

__all__ = ["ModelRegistry"]


def _unwrap_store(store):
    """See through fault-injection shims to the real store."""
    return getattr(store, "inner", store)


class ModelRegistry:
    """A directory of versioned, digest-checked Scout bundles.

    Parameters
    ----------
    root:
        The registry directory (created on first publish).
    clock:
        Wall-clock source for manifest ``created_at`` stamps; inject a
        fake for byte-reproducible manifests.
    """

    def __init__(self, root: str | Path, clock=time.time) -> None:
        self.root = Path(root)
        self._clock = clock

    # -- layout ------------------------------------------------------------

    def _team_dir(self, team: str) -> Path:
        if not team or any(sep in team for sep in ("/", "\\", "..")):
            raise ValueError(f"invalid team name: {team!r}")
        return self.root / team

    def bundle_path(self, team: str, version: int) -> Path:
        return self._team_dir(team) / f"{int(version)}.scout"

    def manifest_path(self, team: str, version: int) -> Path:
        return self._team_dir(team) / f"{int(version)}.manifest.json"

    def _active_path(self, team: str) -> Path:
        return self._team_dir(team) / "ACTIVE"

    # -- enumeration -------------------------------------------------------

    def teams(self) -> list[str]:
        """Teams with at least one published version, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def versions(self, team: str) -> list[int]:
        """Published versions for ``team``, ascending."""
        team_dir = self._team_dir(team)
        if not team_dir.is_dir():
            return []
        found = []
        for entry in team_dir.glob("*.scout"):
            stem = entry.name[: -len(".scout")]
            if stem.isdigit() and self.manifest_path(team, int(stem)).is_file():
                found.append(int(stem))
        return sorted(found)

    def latest_version(self, team: str) -> int | None:
        versions = self.versions(team)
        return versions[-1] if versions else None

    def active_version(self, team: str) -> int | None:
        """The version serving should load (None before any publish)."""
        path = self._active_path(team)
        if not path.is_file():
            return None
        text = path.read_text().strip()
        if not text.isdigit():
            raise ValueError(f"{path}: malformed ACTIVE pointer {text!r}")
        return int(text)

    def resolve(self, team: str, version: int | None = None) -> int:
        """An explicit version, else the active one, else the latest."""
        if version is not None:
            if int(version) not in self.versions(team):
                raise ValueError(
                    f"{self.bundle_path(team, version)}: no such version "
                    f"(published: {self.versions(team) or 'none'})"
                )
            return int(version)
        resolved = self.active_version(team)
        if resolved is None:
            resolved = self.latest_version(team)
        if resolved is None:
            raise ValueError(f"no published versions for team {team!r}")
        return resolved

    def set_active(self, team: str, version: int) -> None:
        """Point serving at ``version`` (must exist and verify)."""
        self.verify(team, int(version))
        _replace_bytes(
            self._active_path(team), f"{int(version)}\n".encode("ascii")
        )

    # -- publish -----------------------------------------------------------

    def publish(
        self,
        scout: Scout,
        *,
        lint: bool = True,
        training: dict | None = None,
        activate: bool | str = "auto",
    ) -> BundleManifest:
        """Publish a fitted, attached Scout as the team's next version.

        ``lint=True`` (the default) runs the scoutlint pre-flight
        against the Scout's own monitoring store and raises
        :class:`~repro.lint.LintError` on any ERROR finding.
        ``activate`` is True/False, or ``"auto"`` — activate only when
        the team has no active version yet (the bootstrap publish).
        """
        store = _unwrap_store(getattr(scout.builder, "store", None))
        if lint:
            # Gate before bundling: a refused config never costs a
            # model serialization (and the error points at the config,
            # not at whatever pickling would have tripped on).
            self._lint(scout.config, store)
        return self._publish(
            _bundle(scout),
            schema_names=tuple(scout.builder.schema.names),
            store=store,
            lint=False,
            training=training,
            activate=activate,
        )

    def publish_bundle(
        self,
        bundle: ScoutBundle,
        store,
        *,
        lint: bool = True,
        training: dict | None = None,
        activate: bool | str = "auto",
    ) -> BundleManifest:
        """Publish a detached bundle (e.g. read from a ``train`` file).

        ``store`` is the monitoring store to lint against and to derive
        the feature schema from (a bundle carries no live environment).
        """
        from ..core.features import FeatureSchema

        schema = FeatureSchema(bundle.config, _unwrap_store(store))
        return self._publish(
            bundle,
            schema_names=tuple(schema.names),
            store=_unwrap_store(store),
            lint=lint,
            training=training,
            activate=activate,
        )

    @staticmethod
    def _lint(config, store) -> None:
        from ..lint import lint_config, require_clean

        require_clean(lint_config(config, store))

    def _publish(
        self,
        bundle: ScoutBundle,
        schema_names: tuple[str, ...],
        store,
        lint: bool,
        training: dict | None,
        activate: bool | str,
    ) -> BundleManifest:
        if lint:
            self._lint(bundle.config, store)
        team = bundle.team
        team_dir = self._team_dir(team)
        team_dir.mkdir(parents=True, exist_ok=True)
        version = (self.latest_version(team) or 0) + 1
        raw = bundle_bytes(bundle)
        manifest = BundleManifest(
            team=team,
            version=version,
            bundle_file=f"{version}.scout",
            sha256=payload_digest(raw),
            size_bytes=len(raw),
            bundle_format_version=bundle.format_version,
            config_sha256=config_digest(bundle.config),
            schema_sha256=schema_digest(schema_names),
            n_features=len(schema_names),
            created_at=float(self._clock()),
            training=dict(training or {}),
        )
        # Bundle first, manifest second: versions() requires both files,
        # so a crash between the two writes leaves no half-version.
        _replace_bytes(self.bundle_path(team, version), raw)
        _replace_bytes(
            self.manifest_path(team, version),
            manifest.to_json().encode("utf-8"),
        )
        if activate is True or (
            activate == "auto" and self.active_version(team) is None
        ):
            self.set_active(team, version)
        return manifest

    # -- fetch -------------------------------------------------------------

    def manifest(self, team: str, version: int | None = None) -> BundleManifest:
        version = self.resolve(team, version)
        path = self.manifest_path(team, version)
        return BundleManifest.from_json(path.read_text(), path)

    def _verified_bytes(
        self, team: str, version: int | None
    ) -> tuple[BundleManifest, bytes, Path]:
        version = self.resolve(team, version)
        manifest = self.manifest(team, version)
        path = self.bundle_path(team, version)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(f"{path}: cannot read bundle ({exc})") from exc
        if len(raw) != manifest.size_bytes:
            raise ValueError(
                f"{path}: bundle is {len(raw)} bytes but the manifest "
                f"records {manifest.size_bytes} (truncated or tampered)"
            )
        digest = payload_digest(raw)
        if digest != manifest.sha256:
            raise ValueError(
                f"{path}: SHA-256 digest mismatch (bundle corrupted or "
                f"tampered; manifest {manifest.sha256[:12]}…, "
                f"file {digest[:12]}…)"
            )
        return manifest, raw, path

    def verify(self, team: str, version: int | None = None) -> BundleManifest:
        """Digest-check a version without unpickling its payload."""
        manifest, _, _ = self._verified_bytes(team, version)
        return manifest

    def fetch(self, team: str, version: int | None = None) -> ScoutBundle:
        """Digest-verify, then decode, one published version.

        The SHA-256 check runs over the exact bytes that are parsed, so
        no pickle byte of a tampered or truncated bundle is ever
        interpreted.  Raises :class:`ValueError` naming the path on any
        integrity failure.
        """
        manifest, raw, path = self._verified_bytes(team, version)
        bundle = parse_bundle(raw, path)
        if bundle.team != manifest.team:
            raise ValueError(
                f"{path}: bundle is for team {bundle.team!r} but the "
                f"manifest records {manifest.team!r}"
            )
        if config_digest(bundle.config) != manifest.config_sha256:
            raise ValueError(
                f"{path}: bundle config does not hash to the manifest's "
                "config_sha256 (manifest/bundle mismatch)"
            )
        return bundle

    def load(
        self,
        team: str,
        topology,
        store,
        version: int | None = None,
    ) -> Scout:
        """Fetch a verified version and attach it to a live environment."""
        from ..core.persistence import attach_bundle

        return attach_bundle(self.fetch(team, version), topology, store)
