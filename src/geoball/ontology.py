"""Class hierarchies: parsing, validation, closure, level and occurrence stats.

The hierarchy is a DAG of named concepts with subclass axioms (child, parent)
and unordered disjointness axioms. Leaves are the concepts that correspond to
image classes downstream.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from functools import cached_property

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

    def ancestors_of(self, concept: str) -> set[str]:
        return {q for p, q in self.pairs if p == concept}

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.sorted_pairs()]}


@dataclass(frozen=True)
class HierarchyStats:
    """Level map (roots at 1, longest told path), level count, axiom mentions."""

    total_levels: int
    level: dict[str, int]
    occurrences: dict[str, int]


def _canon_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _find_cycle(concepts, parents) -> list[str] | None:
    """Return a witness cycle over the child->parent edges, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {c: WHITE for c in concepts}
    stack_path: list[str] = []

    def visit(start):
        # iterative DFS keeping the grey path for the witness
        todo = [(start, iter(parents.get(start, ())))]
        color[start] = GREY
        stack_path.append(start)
        while todo:
            node, it = todo[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, BLACK) == GREY:
                    i = stack_path.index(nxt)
                    return stack_path[i:] + [nxt]
                if color.get(nxt, BLACK) == WHITE:
                    color[nxt] = GREY
                    stack_path.append(nxt)
                    todo.append((nxt, iter(parents.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                todo.pop()
                stack_path.pop()
                color[node] = BLACK
        return None

    for c in concepts:
        if color[c] == WHITE:
            cycle = visit(c)
            if cycle is not None:
                return cycle
    return None


def _reflexive_ancestors(ontology: Ontology) -> dict[str, set[str]]:
    """Concept -> {itself plus everything reachable upward}."""
    order = _topological_order(ontology.concepts, ontology.told_parents)
    if order is None:
        cycle = _find_cycle(ontology.concepts, ontology.told_parents)
        witness = " -> ".join(cycle) if cycle else "unknown"
        raise OntologyError(f"cycle detected while closing the hierarchy: {witness}")
    anc: dict[str, set[str]] = {}
    for c in order:
        result = {c}
        for p in ontology.told_parents.get(c, ()):
            result |= anc[p]
        anc[c] = result
    return anc


def _topological_order(concepts, parents) -> list[str] | None:
    """Order with every parent before its children, or None on a cycle."""
    out_deg = {c: len(parents.get(c, ())) for c in concepts}
    children: dict[str, list[str]] = {c: [] for c in concepts}
    for c in concepts:
        for p in parents.get(c, ()):
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
    if len(order) != len(concepts):
        return None
    return order


def validate(ontology: Ontology) -> list[Diagnostic]:
    """Check every hierarchy invariant; an empty list means the ontology is sound.

    Reports unknown identifiers, duplicate concepts, cycles (with a witness),
    leaves that have children, disjointness pairs in the subsumption closure,
    and concepts made unsatisfiable by a pair of disjoint ancestors.
    """
    diags: list[Diagnostic] = []
    known = ontology.concept_set

    seen = set()
    for c in ontology.concepts:
        if c in seen:
            diags.append(Diagnostic("duplicate-concept", f"concept {c!r} declared twice", (c,)))
        seen.add(c)

    for child, parent in ontology.told_subsumptions:
        for name in (child, parent):
            if name not in known:
                diags.append(Diagnostic(
                    "unknown-identifier",
                    f"subclass axiom ({child!r}, {parent!r}) references undeclared {name!r}",
                    (name,)))
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

    cycle = _find_cycle(ontology.concepts, ontology.told_parents)
    if cycle is not None:
        diags.append(Diagnostic(
            "cycle",
            "subsumption cycle: " + " -> ".join(cycle),
            tuple(dict.fromkeys(cycle))))
        return diags

    for leaf in ontology.leaves:
        kids = ontology.told_children.get(leaf, ())
        if kids:
            diags.append(Diagnostic(
                "leaf-with-children",
                f"leaf {leaf!r} has told children {sorted(kids)}",
                (leaf,) + tuple(sorted(kids))))

    anc = _reflexive_ancestors(ontology)
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


def _build_ontology(concepts, subclass_pairs, disjoint_pairs, leaves, strict=True) -> Ontology:
    """Assemble, deduplicate (warning per duplicate axiom) and validate."""
    interned: list[str] = []
    seen = set()
    for raw in concepts:
        name = str(raw).strip()
        if not name:
            raise OntologyError("empty concept identifier")
        if name in seen:
            raise OntologyError(f"duplicate concept identifier {name!r}")
        seen.add(name)
        interned.append(name)

    def check_ref(name):
        if name not in seen:
            raise OntologyError(f"unknown identifier {name!r} referenced by an axiom")

    sub: list[tuple[str, str]] = []
    sub_seen = set()
    for child, parent in subclass_pairs:
        child, parent = str(child).strip(), str(parent).strip()
        check_ref(child)
        check_ref(parent)
        pair = (child, parent)
        if pair in sub_seen:
            logger.warning("duplicate subclass axiom (%s, %s) ignored", child, parent)
            continue
        sub_seen.add(pair)
        sub.append(pair)

    dis: list[tuple[str, str]] = []
    dis_seen = set()
    for a, b in disjoint_pairs:
        a, b = str(a).strip(), str(b).strip()
        check_ref(a)
        check_ref(b)
        if a == b:
            raise OntologyError(f"concept {a!r} declared disjoint with itself")
        pair = _canon_pair(a, b)
        if pair in dis_seen:
            logger.warning("duplicate disjointness axiom {%s, %s} ignored", *pair)
            continue
        dis_seen.add(pair)
        dis.append(pair)

    leaf_list: list[str] = []
    for leaf in leaves:
        leaf = str(leaf).strip()
        check_ref(leaf)
        if leaf not in leaf_list:
            leaf_list.append(leaf)

    onto = Ontology(tuple(interned), tuple(sub), tuple(dis), tuple(leaf_list))
    if strict:
        diags = validate(onto)
        if diags:
            raise OntologyError(
                "invalid ontology: " + "; ".join(d.message for d in diags), diags)
    return onto


def ontology_from_dict(obj: dict, strict: bool = True) -> Ontology:
    if not isinstance(obj, dict):
        raise OntologyError("ontology document must be a JSON object")
    if "concepts" not in obj:
        raise OntologyError('ontology document is missing the "concepts" list')
    return _build_ontology(
        obj.get("concepts", []),
        obj.get("subclass", []),
        obj.get("disjoint", []),
        obj.get("leaves", []),
        strict=strict,
    )


def parse_ontology(text: str) -> Ontology:
    """Parse and validate a JSON hierarchy document.

    Expected shape: {"concepts": [...], "subclass": [[child, parent], ...],
    "disjoint": [[a, b], ...], "leaves": [...]}. Duplicate axioms are dropped
    with a warning; structural problems raise OntologyError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise OntologyError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return ontology_from_dict(obj)


def load_ontology(path) -> Ontology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ontology(fh.read())


def compute_ich(ontology: Ontology) -> Ich:
    """Irreflexive transitive closure of the told subsumption relation."""
    anc = _reflexive_ancestors(ontology)
    return Ich(frozenset((c, a) for c in ontology.concepts for a in anc[c]
                         if a != c))


def compute_stats(ontology: Ontology, ich: Ich) -> HierarchyStats:
    """Levels by longest told path from a root (roots at 1); occurrence counts
    over closed subsumption pairs plus disjointness pairs."""
    order = _topological_order(ontology.concepts, ontology.told_parents)
    if order is None:
        raise OntologyError("cycle detected while computing levels")
    level: dict[str, int] = {}
    for c in order:
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


def ingest_hypernym_edges(edges_text: str, leaf_labels, sibling_disjoint: bool = False) -> Ontology:
    """Build a hierarchy from a child<TAB>parent edge list and a set of leaf labels.

    Keeps, for each leaf, every ancestor chain up to a root, merged across
    leaves. Lines starting with '#' and blank lines are skipped. With
    sibling_disjoint, leaves sharing a told parent are declared pairwise
    disjoint.
    """
    parents: dict[str, list[str]] = {}
    nodes: set[str] = set()
    for lineno, raw in enumerate(edges_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 2 or not all(fields):
            raise OntologyError(
                f"line {lineno}: expected 'child<TAB>parent', got {raw!r}")
        child, parent = fields
        nodes.add(child)
        nodes.add(parent)
        parents.setdefault(child, [])
        if parent not in parents[child]:
            parents[child].append(parent)

    cycle = _find_cycle(sorted(nodes), {c: tuple(ps) for c, ps in parents.items()})
    if cycle is not None:
        raise OntologyError("cycle in edge list: " + " -> ".join(cycle))

    leaf_list = [str(label).strip() for label in leaf_labels]
    for leaf in leaf_list:
        if leaf not in nodes:
            raise OntologyError(f"leaf label {leaf!r} does not appear in the edge list")

    concepts: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    for leaf in leaf_list:
        if leaf not in seen:
            seen.add(leaf)
            concepts.append(leaf)
        queue = deque([leaf])
        while queue:
            node = queue.popleft()
            for parent in parents.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    concepts.append(parent)
                edge = (node, parent)
                if edge not in edge_seen:
                    edge_seen.add(edge)
                    edges.append(edge)
                    queue.append(parent)

    disjoint: list[tuple[str, str]] = []
    if sibling_disjoint:
        leaf_set = set(leaf_list)
        by_parent: dict[str, list[str]] = {}
        for child, parent in edges:
            if child in leaf_set:
                by_parent.setdefault(parent, []).append(child)
        pair_seen: set[tuple[str, str]] = set()
        for parent in sorted(by_parent):
            group = by_parent[parent]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pair = _canon_pair(group[i], group[j])
                    if pair not in pair_seen:
                        pair_seen.add(pair)
                        disjoint.append(pair)

    return _build_ontology(concepts, edges, disjoint, leaf_list)
