import json
import logging

import numpy as np
import pytest

from geoball.ontology import (
    Ich,
    Ontology,
    OntologyError,
    compute_ich,
    compute_stats,
    load_ontology,
    ontology_from_dict,
    validate,
)


def reachability_oracle(concepts, edges):
    """Brute-force proper-ancestor sets via DFS from every node."""
    parents = {}
    for c, p in edges:
        parents.setdefault(c, []).append(p)
    pairs = set()
    for c in concepts:
        seen, stack = set(), [c]
        while stack:
            node = stack.pop()
            for p in parents.get(node, []):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        pairs.update((c, a) for a in seen)
    return pairs


def random_dag(rng, n_nodes):
    """Random DAG on node names; edges only point from higher to lower index."""
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        for j in range(i):
            if rng.random() < 0.15:
                edges.append((names[i], names[j]))
    return names, edges


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_document():
    onto = ontology_from_dict(json.loads(
        '{"concepts": ["A", "B"], "subclass": [["A", "B"]], "disjoint": []}'))
    assert onto.concepts == ("A", "B")
    assert onto.told_subsumptions == (("A", "B"),)
    assert onto.disjointness == ()


def test_parse_self_subsumption_is_cycle():
    with pytest.raises(OntologyError, match="cycle"):
        ontology_from_dict(json.loads('{"concepts": ["A"], "subclass": [["A", "A"]]}'))


def test_parse_poodle_fixture(poodle_ontology):
    assert len(poodle_ontology.concepts) == 6
    assert len(poodle_ontology.told_subsumptions) == 5
    assert len(poodle_ontology.disjointness) == 1
    assert poodle_ontology.leaves == ("poodle", "retriever", "street_sign")


def test_parse_syntax_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"concepts": [,]}')
    with pytest.raises(ValueError, match=r"syntax error at line \d+"):
        load_ontology(path)


def test_parse_unknown_identifier():
    with pytest.raises(OntologyError, match="undeclared 'C'"):
        ontology_from_dict(json.loads(
            '{"concepts": ["A", "B"], "subclass": [["A", "C"]]}'))


def test_parse_reports_every_declaration_fault_at_once():
    doc = {"concepts": ["A", "B", "A", " "], "subclass": [["A", "C"]],
           "disjoint": [["B", "B"]], "leaves": ["D"]}
    with pytest.raises(OntologyError) as err:
        ontology_from_dict(doc)
    assert [(d.kind, d.concepts) for d in err.value.diagnostics] == [
        ("duplicate-concept", ("A",)),
        ("empty-concept", ()),
        ("unknown-identifier", ("C",)),
        ("self-disjointness", ("B",)),
        ("unknown-identifier", ("D",)),
    ]
    for diag in err.value.diagnostics:
        assert diag.message in str(err.value)


def test_parse_duplicate_axiom_warns_and_dedupes(caplog):
    doc = '{"concepts": ["A", "B"], "subclass": [["A", "B"], ["A", "B"]]}'
    with caplog.at_level(logging.WARNING, logger="geoball.ontology"):
        onto = ontology_from_dict(json.loads(doc))
    assert onto.told_subsumptions == (("A", "B"),)
    assert any("duplicate" in r.message for r in caplog.records)


def test_parse_trims_whitespace_preserves_case():
    onto = ontology_from_dict(json.loads(
        '{"concepts": [" Dog ", "animal"], "subclass": [["Dog", "animal"]]}'))
    assert onto.concepts == ("Dog", "animal")


def test_roundtrip_to_dict(poodle_ontology, poodle_doc):
    assert poodle_ontology.to_dict() == poodle_doc


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_fixture(poodle_ontology):
    assert validate(poodle_ontology) == []


def test_validate_cycle_names_witness():
    onto = Ontology(("A", "B"), (("A", "B"), ("B", "A")), (), ())
    diags = validate(onto)
    assert any(d.kind == "cycle" for d in diags)
    cycle = next(d for d in diags if d.kind == "cycle")
    assert {"A", "B"} <= set(cycle.concepts)


def test_validate_unsatisfiable_concept():
    onto = Ontology(
        ("A", "B", "C"), (("C", "A"), ("C", "B")), (("A", "B"),), ())
    diags = validate(onto)
    unsat = [d for d in diags if d.kind == "unsatisfiable-concept"]
    assert len(unsat) == 1
    assert unsat[0].concepts[0] == "C"


def test_validate_disjoint_subsumption_overlap():
    onto = Ontology(("A", "B"), (("A", "B"),), (("A", "B"),), ())
    kinds = {d.kind for d in validate(onto)}
    assert "disjoint-subsumption-conflict" in kinds


def test_validate_leaf_with_children():
    onto = Ontology(("A", "B"), (("A", "B"),), (), ("B",))
    assert any(d.kind == "leaf-with-children" for d in validate(onto))


# ---------------------------------------------------------------------------
# inferred hierarchy


def test_ich_transitive_chain():
    onto = ontology_from_dict(json.loads(
        '{"concepts": ["A", "B", "C"], "subclass": [["A", "B"], ["B", "C"]]}'))
    assert compute_ich(onto).pairs == frozenset(
        {("A", "B"), ("B", "C"), ("A", "C")})


def test_ich_empty():
    onto = ontology_from_dict(json.loads('{"concepts": ["A", "B"]}'))
    assert compute_ich(onto).pairs == frozenset()


def test_ich_poodle_fixture(poodle_ontology):
    # expected pairs frozen from the reachability oracle over the fixture DAG
    oracle = reachability_oracle(
        poodle_ontology.concepts, poodle_ontology.told_subsumptions)
    ich = compute_ich(poodle_ontology)
    assert ich.pairs == frozenset(oracle)
    assert len(ich.pairs) == 10


def test_ich_matches_oracle_on_random_dags():
    rng = np.random.default_rng(7)
    for _ in range(25):
        names, edges = random_dag(rng, int(rng.integers(2, 30)))
        onto = Ontology(tuple(names), tuple(edges), (), ())
        assert compute_ich(onto).pairs == frozenset(reachability_oracle(names, edges))


def test_ich_ancestors_match_the_pair_scan_and_stay_uncorrupted():
    rng = np.random.default_rng(8)
    for _ in range(10):
        names, edges = random_dag(rng, int(rng.integers(2, 30)))
        ich = compute_ich(Ontology(tuple(names), tuple(edges), (), ()))
        for concept in names:
            expected = {q for p, q in ich.pairs if p == concept}
            got = ich.ancestors_of(concept)
            assert got == expected
            got.add("intruder")  # the caller's copy, not the cached map
            assert ich.ancestors_of(concept) == expected
        assert ich.ancestors_of("not-a-concept") == set()


def test_ich_superset_of_told_and_idempotent(poodle_ontology):
    ich = compute_ich(poodle_ontology)
    assert set(poodle_ontology.told_subsumptions) <= ich.pairs
    # re-closing the closure changes nothing
    closed = Ontology(
        poodle_ontology.concepts, tuple(sorted(ich.pairs)), (), ())
    assert compute_ich(closed).pairs == ich.pairs


def test_ich_cycle_aborts():
    onto = Ontology(("A", "B"), (("A", "B"), ("B", "A")), (), ())
    with pytest.raises(OntologyError, match="cycle"):
        compute_ich(onto)


# ---------------------------------------------------------------------------
# hierarchy stats


def test_stats_single_root():
    onto = ontology_from_dict(json.loads('{"concepts": ["R"]}'))
    stats = compute_stats(onto, compute_ich(onto))
    assert stats.level == {"R": 1}
    assert stats.total_levels == 1


def test_stats_chain_levels():
    onto = ontology_from_dict(json.loads(
        '{"concepts": ["A", "B", "C"], "subclass": [["A", "B"], ["B", "C"]]}'))
    stats = compute_stats(onto, compute_ich(onto))
    assert stats.level == {"C": 1, "B": 2, "A": 3}
    assert stats.total_levels == 3


def test_stats_poodle_occurrences(poodle_ontology):
    # frozen from the oracle: mentions over closed pairs plus disjointness
    ich = compute_ich(poodle_ontology)
    stats = compute_stats(poodle_ontology, ich)
    assert stats.occurrences["dog"] == 4
    assert stats.occurrences["poodle"] == 4
    assert stats.occurrences["entity"] == 5
    assert stats.occurrences["street_sign"] == 1
    assert stats.total_levels == 4
    assert stats.level["poodle"] == 4 and stats.level["street_sign"] == 2


def test_stats_longest_path_wins():
    # D has parents at different depths; the longer path sets its level
    onto = Ontology(
        ("R", "A", "B", "D"),
        (("A", "R"), ("B", "A"), ("D", "R"), ("D", "B")), (), ())
    stats = compute_stats(onto, compute_ich(onto))
    assert stats.level["D"] == 4


def test_stats_level_increases_along_told_edges(poodle_ontology):
    stats = compute_stats(poodle_ontology, compute_ich(poodle_ontology))
    for child, parent in poodle_ontology.told_subsumptions:
        assert stats.level[child] > stats.level[parent]


def test_stats_deterministic_bytes(poodle_doc):
    def run():
        onto = ontology_from_dict(poodle_doc)
        stats = compute_stats(onto, compute_ich(onto))
        return json.dumps(
            {"n": stats.total_levels, "level": stats.level, "occ": stats.occurrences},
            sort_keys=True).encode()

    assert run() == run()

