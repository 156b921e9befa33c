"""Class hierarchies: parsing, validation, closure, level and occurrence stats.

The hierarchy is a DAG of named concepts with subclass axioms (child, parent)
and unordered disjointness axioms. Leaves are the concepts that correspond to
image classes downstream.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .jsonio import read_json

logger = logging.getLogger(__name__)


class OntologyError(ValueError):
    """Raised for malformed documents or hierarchies that fail validation."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: ``kind`` is a stable machine-readable tag."""

    kind: str
    message: str
    concepts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Ontology:
    """Immutable concept hierarchy.

    concepts keep first-appearance order; subsumption pairs are (child, parent);
    disjointness pairs are stored canonically with the lexicographically smaller
    name first.
    """

    concepts: tuple[str, ...]
    told_subsumptions: tuple[tuple[str, str], ...]
    disjointness: tuple[tuple[str, str], ...]
    leaves: tuple[str, ...] = ()

    @cached_property
    def concept_set(self) -> frozenset[str]:
        return frozenset(self.concepts)

    @cached_property
    def told_parents(self) -> dict[str, tuple[str, ...]]:
        parents: dict[str, list[str]] = {c: [] for c in self.concepts}
        for child, parent in self.told_subsumptions:
            if child in parents:
                parents[child].append(parent)
        return {c: tuple(ps) for c, ps in parents.items()}

    @cached_property
    def told_children(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {c: [] for c in self.concepts}
        for child, parent in self.told_subsumptions:
            if parent in children:
                children[parent].append(child)
        return {c: tuple(cs) for c, cs in children.items()}

    def to_dict(self) -> dict:
        return {
            "concepts": list(self.concepts),
            "subclass": [list(p) for p in self.told_subsumptions],
            "disjoint": [list(p) for p in self.disjointness],
            "leaves": list(self.leaves),
        }


@dataclass(frozen=True)
class Ich:
    """Every subsumption pair (P, Q) with P below Q, transitively closed."""

    pairs: frozenset[tuple[str, str]]

    @cached_property
    def _ancestors(self) -> dict[str, frozenset[str]]:
        anc: dict[str, set[str]] = {}
        for p, q in self.pairs:
            anc.setdefault(p, set()).add(q)
        return {c: frozenset(qs) for c, qs in anc.items()}

    def ancestors_of(self, concept: str) -> set[str]:
        return set(self._ancestors.get(concept, ()))

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in sorted(self.pairs)]}


@dataclass(frozen=True)
class HierarchyStats:
    """Level map (roots at 1, longest told path), level count, axiom mentions."""

    total_levels: int
    level: dict[str, int]
    occurrences: dict[str, int]


def _canon_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _reflexive_ancestors(ontology: Ontology) -> dict[str, set[str]]:
    """Concept -> {itself plus everything reachable upward}."""
    anc: dict[str, set[str]] = {}
    for c in _topological_order(ontology.concepts, ontology.told_parents):
        result = {c}
        for p in ontology.told_parents.get(c, ()):
            result |= anc[p]
        anc[c] = result
    return anc


def _undeclared_in_subclass(child: str, parent: str, name: str) -> Diagnostic:
    return Diagnostic(
        "unknown-identifier",
        f"subclass axiom ({child!r}, {parent!r}) references undeclared {name!r}",
        (name,))


def _topological_order(concepts, parents) -> list[str]:
    """Order with every parent before its children.

    A told parent that is not among ``concepts`` is refused with the
    "unknown-identifier" diagnostic ``validate`` gives for it.

    Concepts left over sit on or below a cycle, and each has a left-over
    parent, so walking up through left-over parents from the first one must
    revisit a concept. That closed walk of (child, parent) edges is the
    witness the OntologyError names and carries as a "cycle" diagnostic.
    """
    out_deg = {c: len(parents.get(c, ())) for c in concepts}
    children: dict[str, list[str]] = {c: [] for c in concepts}
    for c in concepts:
        for p in parents.get(c, ()):
            if p not in children:
                diag = _undeclared_in_subclass(c, p, p)
                raise OntologyError(diag.message, [diag])
            children[p].append(c)
    ready = deque(c for c in concepts if out_deg[c] == 0)
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for ch in children[node]:
            out_deg[ch] -= 1
            if out_deg[ch] == 0:
                ready.append(ch)
    if len(order) == len(concepts):
        return order
    walk: dict[str, int] = {}  # concept -> position on the walk
    node = next(c for c in concepts if out_deg[c] > 0)
    while node not in walk:
        walk[node] = len(walk)
        node = next(p for p in parents[node] if out_deg[p] > 0)
    cycle = list(walk)[walk[node]:] + [node]
    message = "subsumption cycle: " + " -> ".join(cycle)
    raise OntologyError(message, [Diagnostic("cycle", message, tuple(cycle[:-1]))])


def validate(ontology: Ontology) -> list[Diagnostic]:
    """Check every hierarchy invariant; an empty list means the ontology is sound.

    Reports empty, duplicate and unknown identifiers, self-disjointness,
    cycles (with a witness), leaves that have children, disjointness pairs in
    the subsumption closure, and concepts made unsatisfiable by a pair of
    disjoint ancestors.
    """
    diags: list[Diagnostic] = []
    known = ontology.concept_set

    seen = set()
    for c in ontology.concepts:
        if not c:
            diags.append(Diagnostic("empty-concept", "empty concept identifier"))
        elif c in seen:
            diags.append(Diagnostic("duplicate-concept", f"concept {c!r} declared twice", (c,)))
        seen.add(c)

    for child, parent in ontology.told_subsumptions:
        for name in (child, parent):
            if name not in known:
                diags.append(_undeclared_in_subclass(child, parent, name))
    for a, b in ontology.disjointness:
        for name in (a, b):
            if name not in known:
                diags.append(Diagnostic(
                    "unknown-identifier",
                    f"disjointness axiom {{{a!r}, {b!r}}} references undeclared {name!r}",
                    (name,)))
        if a == b:
            diags.append(Diagnostic(
                "self-disjointness", f"concept {a!r} declared disjoint with itself", (a,)))
    for leaf in ontology.leaves:
        if leaf not in known:
            diags.append(Diagnostic(
                "unknown-identifier", f"leaf {leaf!r} is not a declared concept", (leaf,)))
    if diags:
        # structural references are broken; graph checks below would be misleading
        return diags

    try:
        anc = _reflexive_ancestors(ontology)
    except OntologyError as err:
        return list(err.diagnostics)

    for leaf in ontology.leaves:
        kids = ontology.told_children.get(leaf, ())
        if kids:
            diags.append(Diagnostic(
                "leaf-with-children",
                f"leaf {leaf!r} has told children {sorted(kids)}",
                (leaf,) + tuple(sorted(kids))))

    for a, b in ontology.disjointness:
        if b in anc[a] or a in anc[b]:
            diags.append(Diagnostic(
                "disjoint-subsumption-conflict",
                f"{a!r} and {b!r} are disjoint yet one subsumes the other",
                (a, b)))
    disjoint_set = set(ontology.disjointness)
    for c in ontology.concepts:
        ups = anc[c]
        for a, b in disjoint_set:
            if a in ups and b in ups:
                diags.append(Diagnostic(
                    "unsatisfiable-concept",
                    f"{c!r} is below both {a!r} and {b!r}, which are disjoint",
                    (c, a, b)))
                break
    return diags


def _build_ontology(concepts, subclass_pairs, disjoint_pairs, leaves) -> Ontology:
    """Strip names, drop repeated leaves and axioms (warning for each axiom),
    canonicalise disjoint pairs, then validate."""
    sub: dict[tuple[str, str], None] = {}
    for child, parent in subclass_pairs:
        pair = (child.strip(), parent.strip())
        if pair in sub:
            logger.warning("duplicate subclass axiom (%s, %s) ignored", *pair)
        sub[pair] = None

    dis: dict[tuple[str, str], None] = {}
    for a, b in disjoint_pairs:
        pair = _canon_pair(a.strip(), b.strip())
        if pair in dis:
            logger.warning("duplicate disjointness axiom {%s, %s} ignored", *pair)
        dis[pair] = None

    leaves = dict.fromkeys(leaf.strip() for leaf in leaves)
    onto = Ontology(tuple(c.strip() for c in concepts), tuple(sub),
                    tuple(dis), tuple(leaves))
    diags = validate(onto)
    if diags:
        raise OntologyError(
            "invalid ontology: " + "; ".join(d.message for d in diags), diags)
    return onto


_AXIOM_SECTIONS = ("subclass", "disjoint")
_SECTIONS = ("concepts", *_AXIOM_SECTIONS, "leaves")


def ontology_from_dict(obj: dict) -> Ontology:
    """Check the document's shape, then build and validate its hierarchy.

    The keys are ``_SECTIONS``, each a list: ``concepts`` and ``leaves`` of
    strings, the axiom sections of two-string lists. Only ``concepts`` is
    required. Declaration faults are left to ``validate``.
    """
    if not isinstance(obj, dict):
        raise OntologyError("ontology document must be a JSON object")
    unknown = sorted(set(obj) - set(_SECTIONS))
    if unknown:
        raise OntologyError(f"unknown ontology keys {unknown}; "
                            f"expected {list(_SECTIONS)}")
    if "concepts" not in obj:
        raise OntologyError('ontology document is missing the "concepts" list')
    for key, items in obj.items():
        if not isinstance(items, list):
            raise OntologyError(f'"{key}" must be a JSON list')
        for i, item in enumerate(items):
            if key not in _AXIOM_SECTIONS:
                if not isinstance(item, str):
                    raise OntologyError(f'"{key}"[{i}] must be a string')
            elif not (isinstance(item, list) and len(item) == 2
                      and all(isinstance(name, str) for name in item)):
                raise OntologyError(
                    f'"{key}"[{i}] must be a list of two strings')
    return _build_ontology(*(obj.get(key, []) for key in _SECTIONS))


def load_ontology(path) -> Ontology:
    return ontology_from_dict(read_json(path, "ontology file"))


def compute_ich(ontology: Ontology) -> Ich:
    """Irreflexive transitive closure of the told subsumption relation."""
    anc = _reflexive_ancestors(ontology)
    return Ich(frozenset((c, a) for c in ontology.concepts for a in anc[c]
                         if a != c))


def compute_stats(ontology: Ontology, ich: Ich) -> HierarchyStats:
    """Levels by longest told path from a root (roots at 1); occurrence counts
    over closed subsumption pairs plus disjointness pairs."""
    level: dict[str, int] = {}
    for c in _topological_order(ontology.concepts, ontology.told_parents):
        parents = ontology.told_parents.get(c, ())
        level[c] = 1 if not parents else 1 + max(level[p] for p in parents)
    level = {c: level[c] for c in ontology.concepts}
    total = max(level.values(), default=0)

    occurrences = {c: 0 for c in ontology.concepts}
    for p, q in ich.pairs:
        occurrences[p] += 1
        occurrences[q] += 1
    for a, b in ontology.disjointness:
        occurrences[a] += 1
        occurrences[b] += 1
    return HierarchyStats(total_levels=total, level=level, occurrences=occurrences)
