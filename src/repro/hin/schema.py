"""Typed schema for heterogeneous information networks.

The schema declares the object type set ``A`` and the relation set ``R`` of
Section 2.1.  A relation is directed, from a source object type to a target
object type.  Relations may declare an *inverse*: the paper notes that if
``A R B`` exists then ``B R^-1 A`` holds naturally (for example
``write(author, paper)`` and ``written_by(paper, author)``), and the DBLP
and weather networks of Section 5 all contain both directions as distinct
relation types with independently learned strengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchemaError


@dataclass(frozen=True, slots=True)
class ObjectType:
    """An object (node) type such as ``author`` or ``temperature-sensor``.

    Parameters
    ----------
    name:
        Unique type name inside one schema.
    description:
        Free-form human description; not used by algorithms.
    """

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("object type name must be a non-empty string")


@dataclass(frozen=True, slots=True)
class RelationType:
    """A directed link type between two object types.

    Parameters
    ----------
    name:
        Unique relation name inside one schema, e.g. ``"write"``.
    source:
        Name of the source object type.
    target:
        Name of the target object type.
    inverse:
        Optional name of the inverse relation (``R^-1``).  The inverse must
        itself be declared in the schema with swapped endpoint types and
        must point back to this relation.
    description:
        Free-form human description.
    """

    name: str
    source: str
    target: str
    inverse: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation type name must be a non-empty string")
        if not self.source or not self.target:
            raise SchemaError(
                f"relation {self.name!r} must name both endpoint types"
            )


@dataclass(slots=True)
class NetworkSchema:
    """The pair ``(A, R)``: object types plus typed, directed relations.

    Instances are append-only: types and relations can be added but not
    removed, so networks holding a reference to the schema can rely on
    declared names staying valid.

    Examples
    --------
    >>> schema = NetworkSchema()
    >>> schema.add_object_type("author")
    >>> schema.add_object_type("paper")
    >>> schema.add_relation("write", "author", "paper", inverse="written_by")
    >>> schema.add_relation("written_by", "paper", "author", inverse="write")
    >>> schema.relation("write").inverse
    'written_by'
    """

    _object_types: dict[str, ObjectType] = field(default_factory=dict)
    _relations: dict[str, RelationType] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def add_object_type(self, name: str, description: str = "") -> ObjectType:
        """Declare an object type; raises :class:`SchemaError` on duplicates."""
        if name in self._object_types:
            raise SchemaError(f"object type {name!r} already declared")
        obj = ObjectType(name, description)
        self._object_types[name] = obj
        return obj

    def add_relation(
        self,
        name: str,
        source: str,
        target: str,
        inverse: str | None = None,
        description: str = "",
    ) -> RelationType:
        """Declare a relation between two already-declared object types."""
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already declared")
        for endpoint in (source, target):
            if endpoint not in self._object_types:
                raise SchemaError(
                    f"relation {name!r} references undeclared object type "
                    f"{endpoint!r}"
                )
        relation = RelationType(name, source, target, inverse, description)
        self._relations[name] = relation
        return relation

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def object_types(self) -> tuple[ObjectType, ...]:
        """All declared object types, in declaration order."""
        return tuple(self._object_types.values())

    @property
    def relations(self) -> tuple[RelationType, ...]:
        """All declared relations, in declaration order."""
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def has_object_type(self, name: str) -> bool:
        return name in self._object_types

    def object_type(self, name: str) -> ObjectType:
        try:
            return self._object_types[name]
        except KeyError:
            raise SchemaError(f"unknown object type {name!r}") from None

    def relation(self, name: str) -> RelationType:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    # ------------------------------------------------------------------
    # consistency
    # ------------------------------------------------------------------
    def check_inverse_consistency(self) -> None:
        """Verify that every declared inverse is mutual and type-compatible.

        Raises
        ------
        SchemaError
            If an inverse is undeclared, does not point back, or its
            endpoint types are not the swap of the original's.
        """
        for relation in self._relations.values():
            if relation.inverse is None:
                continue
            if relation.inverse not in self._relations:
                raise SchemaError(
                    f"relation {relation.name!r} declares undeclared inverse "
                    f"{relation.inverse!r}"
                )
            inverse = self._relations[relation.inverse]
            if inverse.inverse != relation.name:
                raise SchemaError(
                    f"inverse of {relation.name!r} is {inverse.name!r}, but "
                    f"{inverse.name!r} declares inverse {inverse.inverse!r}"
                )
            if (inverse.source, inverse.target) != (
                relation.target,
                relation.source,
            ):
                raise SchemaError(
                    f"inverse relation {inverse.name!r} endpoints "
                    f"({inverse.source!r} -> {inverse.target!r}) do not swap "
                    f"those of {relation.name!r} "
                    f"({relation.source!r} -> {relation.target!r})"
                )
