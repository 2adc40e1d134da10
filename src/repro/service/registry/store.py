"""The on-disk versioned artifact registry.

Directory layout (everything JSON, everything written atomically)::

    <root>/
      CURRENT                      # the pinned version id (one line)
      versions/
        <version-id>/
          artifact.json            # canonical payload; its bytes hash
                                   # to the version id (content address)
          manifest.json            # provenance: parent, trigger, dates

Versions are **immutable**: the id is the content hash of the
canonical payload (:mod:`repro.service.registry.artifacts`), so a
version can never be edited in place — a new payload is a new version,
and re-publishing identical content is an idempotent no-op.  The only
mutable state is the ``CURRENT`` pin, moved atomically by
:meth:`ArtifactRegistry.pin` / :meth:`ArtifactRegistry.rollback`.

Every write goes through a temp file + ``os.replace`` in the target
directory, so a crashed writer can never leave a half-written artifact
where a reader finds it; concurrent writers racing on the same version
write byte-identical artifact files, so last-rename-wins is safe.
Reads distrust the disk: manifests must parse and describe their own
directory, artifact bytes must hash back to the recorded digest, and
foreign formats are rejected — each failure with its typed
:class:`~repro.errors.RegistryError` subclass.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from repro.core.repository import RuleRepository
from repro.errors import (
    LintGateError,
    RegistryCorruptError,
    RegistryError,
    RegistryFormatError,
    RegistryNotFoundError,
    RepositoryError,
)
from repro.service.registry.artifacts import (
    VERSION_ID_LENGTH,
    artifact_payload,
    canonical_json,
    payload_diff,
    repository_from_payload,
    router_from_payload,
)
from repro.service.router import ClusterRouter

#: Format tag of manifests written by this module.
MANIFEST_FORMAT = 1

_VERSIONS_DIR = "versions"
_CURRENT_FILE = "CURRENT"
_ARTIFACT_FILE = "artifact.json"
_MANIFEST_FILE = "manifest.json"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _lint_gate(
    repository: RuleRepository,
    router: Optional[ClusterRouter],
    allow_findings: bool,
) -> None:
    """Run the static analyzer over a publish candidate.

    Counts every finding in ``repro_lint_findings_total{code}`` and
    raises :class:`LintGateError` when error-severity findings exist
    and ``allow_findings`` is not set.  Imports lazily: the analyzer
    depends on registry serialization, so a top-level import would be
    a cycle — and non-publishing registry readers never pay for it.
    """
    from repro.analysis import analyze_artifact
    from repro.service.metrics import default_registry

    findings = analyze_artifact(repository, router)
    if findings:
        counter = default_registry().from_spec("repro_lint_findings_total")
        for finding in findings:
            counter.labels(finding.code).inc()
    errors = [f for f in findings if f.severity == "error"]
    if errors and not allow_findings:
        raise LintGateError(
            f"lint gate: {len(errors)} error-severity finding(s) "
            f"({', '.join(sorted({f.code for f in errors}))}); "
            "fix the artifact or publish with allow_findings",
            findings=tuple(errors),
        )


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-whole-then-rename: readers see old bytes or new, never half."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class VersionManifest:
    """Provenance of one immutable registry version."""

    version: str                 # short content hash (the directory name)
    sha256: str                  # full digest of the canonical payload
    parent: Optional[str]        # version this one was refit from
    created: str                 # ISO-8601 UTC creation time
    source: str                  # "initial" | "refit" | "import"
    fit_pages: int               # sample size the fit/refit consumed
    #: The recorded ``DriftEvent``/``RefitEvent`` dict that triggered a
    #: refit-published version (``None`` for initial/imported ones).
    trigger: Optional[dict]
    clusters: tuple = ()         # cluster names in the artifact (sorted)
    routed: bool = False         # whether the artifact carries a router
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON object persisted as the version's manifest."""
        data = dict(self.__dict__)
        data["clusters"] = list(self.clusters)
        return {"format": MANIFEST_FORMAT, **data}

    @classmethod
    def from_dict(cls, data: dict) -> "VersionManifest":
        """Parse a manifest object (raises ``RegistryCorruptError``)."""
        if not isinstance(data, dict):
            raise RegistryCorruptError(
                f"manifest must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        recorded = payload.pop("format", None)
        if recorded != MANIFEST_FORMAT:
            raise RegistryFormatError(
                f"unsupported registry manifest format {recorded!r}"
            )
        try:
            payload["clusters"] = tuple(payload.get("clusters", ()))
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise RegistryCorruptError(
                f"malformed registry manifest: {exc}"
            ) from exc


class ArtifactRegistry:
    """Content-addressed, immutable versions of deployable artifacts.

    Args:
        root: registry directory; created (with ``versions/``) if
            absent.

    Thread-/process-safe by construction rather than by locking:
    artifact files are content-addressed (racing writers of one
    version write identical bytes), all writes are atomic renames, and
    the pin is a single small file replaced atomically.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            (self.root / _VERSIONS_DIR).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryError(
                f"cannot create registry at {self.root}: {exc}"
            ) from exc

    # -- paths ---------------------------------------------------------- #

    def _version_dir(self, version: str) -> Path:
        return self.root / _VERSIONS_DIR / version

    def exists(self, version: str) -> bool:
        """Whether ``version`` is present in the store."""
        return (self._version_dir(version) / _MANIFEST_FILE).is_file()

    def version_ids(self) -> list:
        """Every version directory name, sorted (health unverified)."""
        return sorted(
            entry.name
            for entry in (self.root / _VERSIONS_DIR).iterdir()
            if entry.is_dir()
        )

    # -- publishing ----------------------------------------------------- #

    def publish(
        self,
        repository: RuleRepository,
        router: Optional[ClusterRouter] = None,
        parent: Optional[str] = None,
        source: str = "import",
        fit_pages: int = 0,
        trigger: Optional[dict] = None,
        lint: bool = True,
        allow_findings: bool = False,
    ) -> VersionManifest:
        """Store one artifact; returns its (possibly pre-existing) manifest.

        Idempotent on content: publishing a payload that already exists
        verifies the stored bytes against the content hash and returns
        the existing manifest — metadata of the first publisher wins.
        The artifact file lands before the manifest, so a reader that
        can see a manifest can always load its artifact.

        Publishing runs the rule-set static analyzer first (``lint``
        disables it for trusted import paths like shard merges).
        Error-severity findings refuse the publish with a
        :class:`~repro.errors.LintGateError` carrying them, unless
        ``allow_findings`` overrides the gate; every finding — allowed
        or not — is counted in ``repro_lint_findings_total{code}``.
        """
        if lint:
            _lint_gate(repository, router, allow_findings)
        payload = artifact_payload(repository, router)
        text = canonical_json(payload)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        version = digest[:VERSION_ID_LENGTH]
        directory = self._version_dir(version)
        artifact_path = directory / _ARTIFACT_FILE
        manifest_path = directory / _MANIFEST_FILE
        if manifest_path.is_file() and artifact_path.is_file():
            stored = artifact_path.read_text(encoding="utf-8")
            if hashlib.sha256(stored.encode("utf-8")).hexdigest() != digest:
                raise RegistryCorruptError(
                    f"version {version} exists with different content "
                    "(tampered artifact or hash collision)"
                )
            return self.manifest(version)
        manifest = VersionManifest(
            version=version,
            sha256=digest,
            parent=parent,
            created=_utc_now(),
            source=source,
            fit_pages=fit_pages,
            trigger=trigger,
            clusters=tuple(sorted(repository.clusters())),
            routed=router is not None,
        )
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(artifact_path, text)
            _atomic_write_text(
                manifest_path,
                json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
                + "\n",
            )
        except OSError as exc:
            raise RegistryError(
                f"cannot publish version {version}: {exc}"
            ) from exc
        return manifest

    # -- reading -------------------------------------------------------- #

    def manifest(self, version: str) -> VersionManifest:
        """Load one version's manifest, verified to describe itself."""
        path = self._version_dir(version) / _MANIFEST_FILE
        if not path.is_file():
            raise RegistryNotFoundError(
                f"no version {version!r} in registry {self.root}"
            )
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryCorruptError(
                f"truncated or unreadable manifest for version "
                f"{version}: {exc}"
            ) from exc
        manifest = VersionManifest.from_dict(data)
        if manifest.version != version:
            raise RegistryCorruptError(
                f"manifest in {version}/ describes version "
                f"{manifest.version!r}"
            )
        return manifest

    def versions(self) -> list:
        """Manifests of every *healthy* version, oldest first.

        Corrupt or foreign entries are skipped (``registry list``
        reports them per-id via :meth:`manifest`); sorting is by
        creation time with the version id as tiebreak.
        """
        manifests = []
        for version in self.version_ids():
            try:
                manifests.append(self.manifest(version))
            except RegistryError:
                continue
        return sorted(manifests, key=lambda m: (m.created, m.version))

    def _payload(self, version: str, manifest: VersionManifest) -> dict:
        path = self._version_dir(version) / _ARTIFACT_FILE
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise RegistryNotFoundError(
                f"version {version} has no readable artifact: {exc}"
            ) from exc
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != manifest.sha256:
            raise RegistryCorruptError(
                f"artifact for version {version} fails its content hash "
                "(tampered or truncated)"
            )
        # The hash matched, so this is exactly what was published —
        # but what was published may predate/postdate this code.
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:  # pragma: no cover - hash-matched
            raise RegistryCorruptError(
                f"artifact for version {version} is not JSON: {exc}"
            ) from exc

    def load(
        self, version: str
    ) -> tuple:
        """Load one version: ``(repository, router-or-None, manifest)``.

        Raises:
            RegistryNotFoundError: unknown version / missing artifact.
            RegistryCorruptError: content-hash or shape failures.
            RegistryFormatError: a foreign artifact format.
        """
        manifest = self.manifest(version)
        payload = self._payload(version, manifest)
        try:
            repository = repository_from_payload(payload)
        except RepositoryError as exc:
            raise RegistryCorruptError(
                f"version {version}: {exc}"
            ) from exc
        return repository, router_from_payload(payload), manifest

    def compile(self, version: str) -> dict:
        """Compile one version's clusters into version-stamped wrappers.

        The deploy path: ``cluster name ->`` :class:`~repro.service.
        compiler.CompiledWrapper` with :attr:`~repro.service.compiler.
        CompiledWrapper.version` recording the provenance.  Each
        wrapper's stats carry the analyzer's finding count for its
        cluster (``lint_findings``), so ``registry show --stats`` and
        progress compile events surface analyzer results next to
        ``automaton_slots``/``steps_saved``.
        """
        from repro.analysis import analyze_artifact
        from repro.service.compiler import compile_wrapper

        repository, router, manifest = self.load(version)
        findings = analyze_artifact(repository, router, target=version)
        per_cluster: dict = {}
        for finding in findings:
            if finding.cluster:
                per_cluster[finding.cluster] = (
                    per_cluster.get(finding.cluster, 0) + 1
                )
        return {
            cluster: compile_wrapper(
                repository, cluster,
                version=manifest.version,
                lint_findings=per_cluster.get(cluster, 0),
            )
            for cluster in repository.clusters()
        }

    # -- the pin -------------------------------------------------------- #

    def pinned(self) -> Optional[str]:
        """The currently pinned version id (``None`` when unpinned)."""
        path = self.root / _CURRENT_FILE
        try:
            text = path.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise RegistryError(f"cannot read {path}: {exc}") from exc
        return text or None

    def pin(self, version: str) -> None:
        """Atomically point ``CURRENT`` at an existing version."""
        self.manifest(version)  # typed error if absent/corrupt
        _atomic_write_text(self.root / _CURRENT_FILE, version + "\n")

    def rollback(self) -> VersionManifest:
        """Re-pin the current version's parent; returns its manifest.

        Raises:
            RegistryError: nothing pinned, or the pinned version has
                no parent to roll back to.
            RegistryNotFoundError: the recorded parent version is
                missing from the registry.
        """
        current = self.pinned()
        if current is None:
            raise RegistryError("nothing is pinned; cannot roll back")
        manifest = self.manifest(current)
        if manifest.parent is None:
            raise RegistryError(
                f"version {current} has no parent to roll back to"
            )
        parent = self.manifest(manifest.parent)
        self.pin(parent.version)
        return parent

    # -- comparison ----------------------------------------------------- #

    def diff(self, a: str, b: str) -> dict:
        """Structural diff between two versions' payloads."""
        payload_a = self._payload(a, self.manifest(a))
        payload_b = self._payload(b, self.manifest(b))
        return payload_diff(payload_a, payload_b)
