"""The rule repository (Section 3.5).

"Once the candidate rule has been validated for the component values in
all the pages of the working sample, it is recorded in a rule
repository.  This repository will be used by external agents, for
instance by the XML extractor."

The repository groups rules by page cluster and optionally stores the
cluster's *enhanced structure* — the a-posteriori aggregation tree of
Section 4 ("the leaf components comments and rating could be embedded
into a higher level component called users-opinion ... this enhanced
structure is recorded in the rule repository").

Persistence is JSON on disk; the format is versioned and stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from repro.errors import RepositoryError, RuleError, XPathSyntaxError
from repro.core.component import validate_component_name
from repro.core.rule import MappingRule

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Aggregation:
    """An enhanced-structure node: a named group of component names.

    Example: ``Aggregation("users-opinion", ("comments", "rating"))``.
    Groups may nest by referring to other aggregation names.
    """

    name: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        validate_component_name(self.name)
        if not self.members:
            raise RepositoryError(f"aggregation {self.name!r} has no members")


class RuleRepository:
    """Validated mapping rules, grouped by page cluster."""

    def __init__(self) -> None:
        self._clusters: dict[str, dict[str, MappingRule]] = {}
        self._aggregations: dict[str, list[Aggregation]] = {}

    # -- recording --------------------------------------------------------- #

    def record(self, cluster: str, rule: MappingRule) -> None:
        """Record ``rule`` for ``cluster``, replacing any same-name rule.

        "Each mapping rule addresses exactly one page component, and,
        conversely, a page component can be mapped by exactly one
        mapping rule" — re-recording a component overwrites.
        """
        self._clusters.setdefault(cluster, {})[rule.name] = rule

    def record_aggregation(self, cluster: str, aggregation: Aggregation) -> None:
        """Record an enhanced-structure grouping for ``cluster``.

        Raises:
            RepositoryError: when a member is neither a recorded
                component nor a previously recorded aggregation.
        """
        known = set(self.component_names(cluster))
        known.update(a.name for a in self._aggregations.get(cluster, []))
        for member in aggregation.members:
            if member not in known:
                raise RepositoryError(
                    f"aggregation {aggregation.name!r} refers to unknown "
                    f"member {member!r}"
                )
        self._aggregations.setdefault(cluster, []).append(aggregation)

    # -- access ------------------------------------------------------------ #

    def clusters(self) -> list[str]:
        return list(self._clusters)

    def rules(self, cluster: str) -> list[MappingRule]:
        """Rules for a cluster, in recording order."""
        if cluster not in self._clusters:
            raise RepositoryError(f"unknown cluster {cluster!r}")
        return list(self._clusters[cluster].values())

    def rule(self, cluster: str, component_name: str) -> MappingRule:
        try:
            return self._clusters[cluster][component_name]
        except KeyError:
            raise RepositoryError(
                f"no rule for component {component_name!r} in cluster "
                f"{cluster!r}"
            ) from None

    def component_names(self, cluster: str) -> list[str]:
        return list(self._clusters.get(cluster, {}))

    def aggregations(self, cluster: str) -> list[Aggregation]:
        return list(self._aggregations.get(cluster, []))

    # -- compilation (service subsystem entry point) ----------------------- #

    def compile_cluster(self, cluster: str, postprocessor=None):
        """Compile one cluster's rules into a :class:`CompiledWrapper`.

        The compiled wrapper is the deployable serving artifact: XPath
        ASTs are pre-parsed, eligible locations fuse into a single-pass
        DOM automaton, the remaining relative primaries share one
        prefix-trie walk, and post-processor chains are pre-resolved.
        See :mod:`repro.service.compiler`.
        """
        from repro.service.compiler import compile_wrapper

        return compile_wrapper(self, cluster, postprocessor=postprocessor)

    def compile_all(self, postprocessor=None) -> dict:
        """Compile every cluster: cluster name -> :class:`CompiledWrapper`."""
        return {
            cluster: self.compile_cluster(cluster, postprocessor=postprocessor)
            for cluster in self.clusters()
        }

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._clusters.values())

    def __iter__(self) -> Iterator[tuple[str, MappingRule]]:
        for cluster, rules in self._clusters.items():
            for rule in rules.values():
                yield cluster, rule

    # -- persistence --------------------------------------------------------#

    def to_dict(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "clusters": {
                cluster: {
                    "rules": [rule.to_dict() for rule in rules.values()],
                    "aggregations": [
                        {"name": a.name, "members": list(a.members)}
                        for a in self._aggregations.get(cluster, [])
                    ],
                }
                for cluster, rules in self._clusters.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleRepository":
        if not isinstance(data, dict):
            raise RepositoryError(
                f"repository payload must be a JSON object, "
                f"got {type(data).__name__}"
            )
        version = data.get("version")
        if version != _FORMAT_VERSION:
            raise RepositoryError(f"unsupported repository version {version!r}")
        repository = cls()
        clusters = data.get("clusters", {})
        if not isinstance(clusters, dict):
            raise RepositoryError("'clusters' must be a JSON object")
        for cluster, payload in clusters.items():
            try:
                for rule_data in payload.get("rules", []):
                    repository.record(cluster, MappingRule.from_dict(rule_data))
                for agg in payload.get("aggregations", []):
                    repository.record_aggregation(
                        cluster, Aggregation(agg["name"], tuple(agg["members"]))
                    )
            except RepositoryError:
                raise
            except (
                AttributeError,
                KeyError,
                TypeError,
                ValueError,
                RuleError,
                XPathSyntaxError,
            ) as exc:
                raise RepositoryError(
                    f"malformed payload for cluster {cluster!r}: {exc}"
                ) from exc
        return repository

    def save(self, path: Union[str, Path]) -> None:
        """Write the repository as JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RuleRepository":
        """Read a repository previously written by :meth:`save`.

        Raises:
            RepositoryError: on malformed content or version mismatch.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RepositoryError(f"cannot load repository: {exc}") from exc
        return cls.from_dict(data)
