"""Versioned artifact registry and canary rollout of router refits.

The persistence/deployment tier between "adaptive" and "operable":

* :mod:`~repro.service.registry.artifacts` — canonical serialization
  and content-addressed hashing of rule-sets + router profile-sets;
* :mod:`~repro.service.registry.store` — the immutable on-disk
  version store with atomic writes and a movable ``CURRENT`` pin;
* :mod:`~repro.service.registry.canary` — shadow routing of refit
  candidates and the promote/rollback verdict loop.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "artifacts": (
        "ARTIFACT_FORMAT",
        "VERSION_ID_LENGTH",
        "artifact_payload",
        "canonical_json",
        "content_hash",
        "payload_diff",
        "profile_from_dict",
        "profile_to_dict",
        "repository_from_payload",
        "router_from_dict",
        "router_from_payload",
        "router_to_dict",
        "version_id",
    ),
    "canary": (
        "CanaryController",
        "LintRefusalEvent",
        "PromoteEvent",
        "RollbackEvent",
        "ShadowEvent",
        "wrapper_extractor",
    ),
    "store": ("MANIFEST_FORMAT", "ArtifactRegistry", "VersionManifest"),
})

__all__ = [
    "ARTIFACT_FORMAT",
    "MANIFEST_FORMAT",
    "VERSION_ID_LENGTH",
    "ArtifactRegistry",
    "CanaryController",
    "LintRefusalEvent",
    "PromoteEvent",
    "RollbackEvent",
    "ShadowEvent",
    "VersionManifest",
    "artifact_payload",
    "canonical_json",
    "content_hash",
    "payload_diff",
    "profile_from_dict",
    "profile_to_dict",
    "repository_from_payload",
    "router_from_dict",
    "router_from_payload",
    "router_to_dict",
    "version_id",
    "wrapper_extractor",
]
