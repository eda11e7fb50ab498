"""Unit tests for the reusable engine (:mod:`repro.engine`)."""

import json

import pytest

from repro.core.search import scan_fingerprint
from repro.engine import Engine, EngineConfig, ResultCache, fingerprint_key
from repro.errors import MappingError
from repro.relational import parse_schema

SCHEMA_A = "emp(ss*: SSN, name: Name)"
SCHEMA_B = "person(id*: SSN, nm: Name)"
SCHEMA_C = "person(id*: SSN, nm: Name, extra: Name)"


def _schema(text):
    schema, _ = parse_schema(text)
    return schema


@pytest.fixture
def engine():
    eng = Engine(EngineConfig())
    with eng:
        yield eng


def test_equivalence_request_payload(engine):
    payload = engine.equivalence_request(_schema(SCHEMA_A), _schema(SCHEMA_B))
    assert payload["kind"] == "equivalence"
    assert payload["verdict"] == "ok"
    assert payload["equivalent"] is True
    assert payload["lines"]
    # Deterministic and JSON-serializable.
    json.dumps(payload)


def test_equivalence_request_negative(engine):
    payload = engine.equivalence_request(_schema(SCHEMA_A), _schema(SCHEMA_C))
    assert payload["equivalent"] is False


def test_second_identical_request_is_served_from_cache(engine):
    s1, s2 = _schema(SCHEMA_A), _schema(SCHEMA_B)
    hits_before = engine.result_cache.hits
    first = engine.dominance_request(s1, s2, max_atoms=1)
    second = engine.dominance_request(_schema(SCHEMA_A), _schema(SCHEMA_B), max_atoms=1)
    assert second is first  # the stored payload object, no recomputation
    assert engine.result_cache.hits == hits_before + 1
    canonical = lambda p: json.dumps(p, sort_keys=True, separators=(",", ":"))
    assert canonical(first) == canonical(second)


def test_dominance_request_lines_match_cli_format(engine):
    payload = engine.dominance_request(_schema(SCHEMA_A), _schema(SCHEMA_B), max_atoms=1)
    assert payload["verdict"] == "ok"
    assert payload["found"] is True
    assert payload["lines"][0].startswith("candidates: α=")
    assert payload["lines"][1] == "dominance witness found:"
    assert payload["witness"]["alpha"] and payload["witness"]["beta"]


def test_dominance_timeout_verdict_is_not_cached(engine):
    s1, s2 = _schema(SCHEMA_A), _schema(SCHEMA_C)
    size_before = len(engine.result_cache)
    payload = engine.dominance_request(s1, s2, max_atoms=1, deadline=0.0)
    assert payload["verdict"] == "timeout"
    assert payload["found"] is False
    assert "search inconclusive" in payload["lines"][-1]
    assert len(engine.result_cache) == size_before
    # A later, un-deadlined ask computes (and caches) the real answer.
    real = engine.dominance_request(s1, s2, max_atoms=1)
    assert real["verdict"] == "ok"
    assert len(engine.result_cache) == size_before + 1


def test_mapping_request_valid_and_cached(engine):
    s1, s2 = _schema(SCHEMA_A), _schema(SCHEMA_B)
    text = "person(X, Y) :- emp(X, Y).\n"
    payload = engine.mapping_request(s1, s2, text)
    assert payload["kind"] == "mapping-check"
    assert payload["valid"] is True
    assert payload["per_relation"] == {"person": True}
    assert payload["lines"][0] == "mapping valid: True"
    assert engine.mapping_request(s1, s2, text) is payload


def test_mapping_request_bad_head_raises(engine):
    with pytest.raises(MappingError, match="'zzz'"):
        engine.mapping_request(
            _schema(SCHEMA_A), _schema(SCHEMA_B), "zzz(X) :- emp(X, Y).\n"
        )


def test_fingerprint_key_is_canonical():
    fp1 = scan_fingerprint("search", [_schema(SCHEMA_A)], 2)
    fp2 = scan_fingerprint("search", [_schema(SCHEMA_A)], 2)
    assert fingerprint_key(fp1) == fingerprint_key(fp2)
    fp3 = scan_fingerprint("search", [_schema(SCHEMA_A)], 3)
    assert fingerprint_key(fp1) != fingerprint_key(fp3)
    # The retired enumeration caps stay as null keys, so fingerprints —
    # persisted result caches, fabric plans, journals — keep their bytes.
    assert list(fp1) == [
        "kind", "schemas", "max_atoms", "per_relation_cap", "mapping_cap"
    ]
    assert fp1["per_relation_cap"] is None and fp1["mapping_cap"] is None


def test_result_cache_lru_bound():
    cache = ResultCache(maxsize=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}  # refreshes "a"
    cache.put("c", {"v": 3})
    assert len(cache) == 2
    assert cache.get("b") is None  # LRU victim
    assert cache.get("c") == {"v": 3}


def test_result_cache_persistence_round_trip(tmp_path):
    path = tmp_path / "results.json"
    cache = ResultCache(path=path, maxsize=8)
    cache.put("k", {"verdict": "ok", "lines": ["x"]})
    assert cache.save() == path
    warm = ResultCache(path=path, maxsize=8)
    assert warm.get("k") == {"verdict": "ok", "lines": ["x"]}


def test_result_cache_ignores_corrupt_file(tmp_path):
    path = tmp_path / "results.json"
    path.write_text("{not json", encoding="utf-8")
    cache = ResultCache(path=path, maxsize=8)
    assert len(cache) == 0


def test_search_dominance_passthrough_defaults():
    eng = Engine(EngineConfig(max_atoms=1))
    with eng:
        result = eng.search_dominance(_schema(SCHEMA_A), _schema(SCHEMA_B))
    assert result.found
    assert result.complete
