"""JSON series files: roundtrips and schema rejection messages."""

import json

import numpy as np
import pytest

from conftest import random_power_series
from polyhardy import (
    DirichletSeries,
    MultiIndex,
    PowerSeries,
    SeriesFormatError,
    bohr,
    bohr_inverse,
    load_series,
    save_series,
    series_from_dict,
    series_to_dict,
)


class TestRoundtrip:
    def test_one_term_vector_file(self, tmp_path):
        F = PowerSeries.vector(2, {MultiIndex([2, 1]): [1.0 + 2.0j, -0.5]})
        path = tmp_path / "one.json"
        save_series(F, path)
        assert load_series(path) == F

    def test_random_power_series(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            F = random_power_series(rng, "operator" if i % 2 else "vector", 2, 3, 3, 6)
            path = tmp_path / f"s{i}.json"
            save_series(F, path)
            assert load_series(path) == F

    def test_random_dirichlet_series(self, tmp_path):
        rng = np.random.default_rng(1)
        D = bohr(random_power_series(rng, "vector", 3, 3, 3, 6))
        path = tmp_path / "d.json"
        save_series(D, path)
        assert load_series(path) == D

    def test_dict_roundtrip_without_files(self):
        rng = np.random.default_rng(2)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        assert series_from_dict(series_to_dict(F)) == F

    def test_empty_document_is_power_series(self):
        got = series_from_dict({"kind": "vector", "dim": 3, "terms": []})
        assert isinstance(got, PowerSeries)
        assert got.is_zero

    @pytest.mark.parametrize("empty", [DirichletSeries.vector(2), DirichletSeries.operator(2), PowerSeries.operator(1)])
    def test_empty_series_keeps_its_type(self, tmp_path, empty):
        path = tmp_path / "empty.json"
        save_series(empty, path)
        got = load_series(path)
        assert type(got) is type(empty) and got == empty

    def test_document_names_its_series_type(self):
        D = DirichletSeries.vector(1, {3: [1.0]})
        assert series_to_dict(D)["series"] == "dirichlet"
        assert series_to_dict(bohr_inverse(D))["series"] == "power"

    def test_terms_emitted_in_canonical_order(self):
        F = PowerSeries.vector(
            1, {MultiIndex([2]): [1.0], MultiIndex(): [1.0], MultiIndex([1]): [1.0]}
        )
        doc = series_to_dict(F)
        assert [t["alpha"] for t in doc["terms"]] == [[], [1], [2]]


class TestSchemaErrors:
    def test_dimension_mismatch_message(self):
        doc = {
            "kind": "vector",
            "dim": 3,
            "terms": [{"alpha": [1], "coeff": [[1.0, 0.0]]}],
        }
        with pytest.raises(SeriesFormatError, match="shape"):
            series_from_dict(doc)

    def test_missing_fields(self):
        with pytest.raises(SeriesFormatError, match="missing"):
            series_from_dict({"kind": "vector", "terms": []})

    def test_bad_kind(self):
        with pytest.raises(SeriesFormatError, match="kind"):
            series_from_dict({"kind": "tensor", "dim": 1, "terms": []})

    def test_bad_dim(self):
        with pytest.raises(SeriesFormatError, match="dim"):
            series_from_dict({"kind": "vector", "dim": 0, "terms": []})

    def test_non_finite_coefficient(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [{"alpha": [], "coeff": [[1e999, 0.0]]}],
        }
        with pytest.raises(SeriesFormatError, match="non-finite"):
            series_from_dict(doc)

    def test_mixed_term_styles(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [
                {"alpha": [1], "coeff": [[1.0, 0.0]]},
                {"n": 2, "coeff": [[1.0, 0.0]]},
            ],
        }
        with pytest.raises(SeriesFormatError, match="mixes"):
            series_from_dict(doc)

    @pytest.mark.parametrize(
        "series, term", [("power", {"n": 2}), ("dirichlet", {"alpha": [1]}), ("taylor", {"alpha": [1]})]
    )
    def test_series_field_must_name_the_terms_type(self, series, term):
        doc = {"series": series, "kind": "vector", "dim": 1, "terms": [{**term, "coeff": [[1.0, 0.0]]}]}
        with pytest.raises(SeriesFormatError, match="^series "):
            series_from_dict(doc)

    def test_term_with_both_keys(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [{"alpha": [1], "n": 2, "coeff": [[1.0, 0.0]]}],
        }
        with pytest.raises(SeriesFormatError, match="exactly one"):
            series_from_dict(doc)

    def test_negative_alpha_entry(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [{"alpha": [-1], "coeff": [[1.0, 0.0]]}],
        }
        with pytest.raises(SeriesFormatError, match="non-negative"):
            series_from_dict(doc)

    def test_bad_frequency(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [{"n": 0, "coeff": [[1.0, 0.0]]}],
        }
        with pytest.raises(SeriesFormatError, match="positive"):
            series_from_dict(doc)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="malformed JSON"):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesFormatError, match="cannot read"):
            load_series(tmp_path / "absent.json")

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="object"):
            load_series(path)

    def test_non_numeric_coefficient(self):
        doc = {
            "kind": "vector",
            "dim": 1,
            "terms": [{"alpha": [], "coeff": [["a", "b"]]}],
        }
        with pytest.raises(SeriesFormatError, match="not numeric"):
            series_from_dict(doc)


    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind": "vector", "dim": true, "terms": []}', "^dim must"),
            ('{"kind": "vector", "dim": 1, "terms": [{"alpha": [true, 2], "coeff": [[1, 0]]}]}', r"\.alpha must"),
            ('{"kind": "vector", "dim": 1, "terms": [{"n": true, "coeff": [[1, 0]]}]}', r"\.n must"),
        ],
    )
    def test_json_booleans_are_not_integers(self, text, message):
        with pytest.raises(SeriesFormatError, match=message):
            series_from_dict(json.loads(text))

    @pytest.mark.parametrize("entry", ["true", "false", '"1.5"', "1" + "0" * 400])
    def test_coefficient_entries_must_be_json_numbers(self, entry):
        """numpy reads booleans and numeric strings as numbers, and raises
        OverflowError for an integer beyond the doubles."""
        text = '{"kind": "vector", "dim": 1, "terms": [{"alpha": [1], "coeff": [[%s, 0]]}]}' % entry
        with pytest.raises(SeriesFormatError, match=r"coefficient at terms\[0\] is not numeric"):
            series_from_dict(json.loads(text))


class TestDirichletDocs:
    def test_operator_dirichlet_roundtrip(self, tmp_path):
        A = np.array([[1.0, 1.0j], [0.0, 2.0]])
        D = DirichletSeries.operator(2, {6: A, 1: np.eye(2)})
        path = tmp_path / "op.json"
        save_series(D, path)
        got = load_series(path)
        assert isinstance(got, DirichletSeries)
        assert got == D
