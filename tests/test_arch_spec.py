"""Architecture-description file format: laws, examples, CLI wiring.

Four contracts live here:

* **format laws** — round-trip stability, unknown-key and version-skew
  rejection, torn/invalid files surfacing as one-line
  :class:`~repro.errors.ConfigurationError` diagnostics;
* **examples are schema-valid** — every file under ``examples/arch/``
  loads, names are unique, fingerprints are distinct, and the default
  spec file reproduces ``DEFAULT_PARAMS`` exactly;
* **byte-identity differential** — ``repro bench --arch <default spec>``
  emits byte-identical reports to a flagless run in all three formats;
* **sweep execution** — ``--arch DIR`` sections follow deterministic
  filename order, and the ``--shard`` composition emits one export per
  variant keyed by that variant's own fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.arch.spec import (
    ARCH_SCHEMA_VERSION,
    DEFAULT_ARCH,
    ArchDescription,
    dump_arch,
    from_document,
    load_arch,
    load_arch_sweep,
    loads_arch,
    save_arch,
    validate_document,
)
from repro.cli import main
from repro.errors import ConfigurationError

EXAMPLES_DIR = Path(__file__).parents[1] / "examples" / "arch"
DEFAULT_SPEC = EXAMPLES_DIR / "marionette_default.json"

VARIANT = ArchDescription(
    name="mesh-probe",
    params=ArchParams(rows=8, cols=8, nonlinear_pes=8,
                      control_topology="mesh"),
    description="an 8x8 mesh-only probe",
)


def _one_line(error: pytest.ExceptionInfo) -> str:
    text = str(error.value)
    assert "\n" not in text, f"diagnostic spans lines: {text!r}"
    return text


# ----------------------------------------------------------------------
# Round-trip laws
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("desc", [DEFAULT_ARCH, VARIANT],
                             ids=["default", "variant"])
    def test_loads_of_dump_is_identity(self, desc):
        assert loads_arch(dump_arch(desc)) == desc

    def test_dump_is_stable_across_dumps(self):
        assert dump_arch(VARIANT) == dump_arch(
            loads_arch(dump_arch(VARIANT)))

    def test_save_load_file_round_trip(self, tmp_path):
        path = tmp_path / "variant.json"
        save_arch(VARIANT, path)
        assert load_arch(path) == VARIANT

    def test_network_key_is_the_topology(self):
        assert VARIANT.network == "mesh"
        assert VARIANT.to_document()["network"] == "mesh"
        assert "control_topology" not in VARIANT.to_document()["params"]

    def test_fingerprint_distinguishes_variants(self):
        assert DEFAULT_ARCH.fingerprint() != VARIANT.fingerprint()
        renamed = replace(VARIANT, name="other-name")
        assert renamed.fingerprint() != VARIANT.fingerprint()

    def test_fingerprint_is_deterministic(self):
        assert VARIANT.fingerprint() == loads_arch(
            dump_arch(VARIANT)).fingerprint()


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
class TestValidation:
    def _document(self, **overrides):
        document = DEFAULT_ARCH.to_document()
        document.update(overrides)
        return document

    def test_valid_document_passes(self):
        assert from_document(self._document()) == DEFAULT_ARCH

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            validate_document([1, 2, 3], source="x.json")
        assert "x.json" in _one_line(error)

    def test_wrong_schema_marker_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            validate_document(self._document(schema="other-format"))
        assert "not an arch description" in _one_line(error)

    @pytest.mark.parametrize("version", [0, ARCH_SCHEMA_VERSION + 1,
                                         "1", None])
    def test_version_skew_rejected_naming_both_versions(self, version):
        with pytest.raises(ConfigurationError) as error:
            validate_document(self._document(version=version))
        text = _one_line(error)
        assert str(ARCH_SCHEMA_VERSION) in text
        assert repr(version) in text

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            validate_document(self._document(frequency=500))
        assert "frequency" in _one_line(error)

    def test_missing_required_key_rejected(self):
        document = self._document()
        del document["network"]
        with pytest.raises(ConfigurationError) as error:
            validate_document(document)
        assert "network" in _one_line(error)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            from_document(self._document(name="  "))
        assert "name" in _one_line(error)

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            from_document(self._document(network="torus"))
        assert "torus" in _one_line(error)

    def test_non_object_params_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            validate_document(self._document(params=[4, 4]))
        assert "params" in _one_line(error)

    def test_topology_inside_params_rejected(self):
        document = self._document()
        document["params"] = dict(document["params"],
                                  control_topology="mesh")
        with pytest.raises(ConfigurationError) as error:
            validate_document(document)
        assert "'network'" in _one_line(error)

    def test_unknown_params_key_rejected(self):
        document = self._document()
        document["params"] = dict(document["params"], rosw=4)
        with pytest.raises(ConfigurationError) as error:
            validate_document(document)
        assert "rosw" in _one_line(error)

    @pytest.mark.parametrize("value", [True, 4.0, "4", None],
                             ids=["bool", "float", "str", "null"])
    def test_non_integer_param_value_rejected(self, value):
        document = self._document()
        document["params"] = dict(document["params"], rows=value)
        with pytest.raises(ConfigurationError) as error:
            validate_document(document)
        assert "params.rows" in _one_line(error)

    def test_arch_params_validation_runs_on_load(self):
        # The document is well-formed JSON but names an impossible
        # machine; ArchParams' own checks must still fire, prefixed
        # with the source.
        document = self._document()
        document["params"] = dict(document["params"], sram_banks=0)
        with pytest.raises(ConfigurationError) as error:
            from_document(document, source="bad.json")
        text = _one_line(error)
        assert "bad.json" in text and "sram_banks" in text


# ----------------------------------------------------------------------
# File-level failure modes
# ----------------------------------------------------------------------
class TestLoadFailures:
    def test_missing_file_is_one_line_diagnostic(self, tmp_path):
        with pytest.raises(ConfigurationError) as error:
            load_arch(tmp_path / "absent.json")
        assert "absent.json" in _one_line(error)

    def test_torn_json_is_one_line_diagnostic(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text(dump_arch(DEFAULT_ARCH)[:40], encoding="utf-8")
        with pytest.raises(ConfigurationError) as error:
            load_arch(path)
        text = _one_line(error)
        assert "torn.json" in text and "invalid arch description" in text

    def test_non_json_file_is_one_line_diagnostic(self, tmp_path):
        path = tmp_path / "notes.json"
        path.write_text("rows: 4\ncols: 4\n", encoding="utf-8")
        with pytest.raises(ConfigurationError) as error:
            load_arch(path)
        assert "notes.json" in _one_line(error)


# ----------------------------------------------------------------------
# Sweep directory loading
# ----------------------------------------------------------------------
class TestSweepLoading:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError) as error:
            load_arch_sweep(tmp_path / "absent")
        assert "does not exist" in _one_line(error)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError) as error:
            load_arch_sweep(tmp_path)
        assert "no .json" in _one_line(error)

    def test_duplicate_variant_names_rejected(self, tmp_path):
        save_arch(DEFAULT_ARCH, tmp_path / "a.json")
        save_arch(replace(DEFAULT_ARCH, description="same name"),
                  tmp_path / "b.json")
        with pytest.raises(ConfigurationError) as error:
            load_arch_sweep(tmp_path)
        assert "marionette-default" in _one_line(error)

    def test_filename_order_not_declaration_order(self, tmp_path):
        save_arch(VARIANT, tmp_path / "z_last.json")
        save_arch(DEFAULT_ARCH, tmp_path / "a_first.json")
        (tmp_path / "README.md").write_text("not a spec\n")
        names = [desc.name for _path, desc in load_arch_sweep(tmp_path)]
        assert names == ["marionette-default", "mesh-probe"]


# ----------------------------------------------------------------------
# The shipped examples (CI for examples/arch/)
# ----------------------------------------------------------------------
class TestShippedExamples:
    def test_directory_holds_default_plus_variants(self):
        paths = sorted(EXAMPLES_DIR.glob("*.json"))
        assert DEFAULT_SPEC in paths
        assert len(paths) >= 4

    def test_every_example_is_schema_valid(self):
        # load_arch_sweep validates each file and rejects duplicate
        # names, so one call covers the whole directory.
        entries = load_arch_sweep(EXAMPLES_DIR)
        assert len(entries) >= 4

    def test_every_example_is_in_canonical_form(self):
        # A hand-edited file that drifts from dump_arch's formatting
        # would break dump/load round-trip diffs; keep them canonical.
        for path, desc in load_arch_sweep(EXAMPLES_DIR):
            assert path.read_text(encoding="utf-8") == dump_arch(desc), \
                f"{path} is not canonically formatted"

    def test_example_fingerprints_are_distinct(self):
        prints = [desc.fingerprint()
                  for _path, desc in load_arch_sweep(EXAMPLES_DIR)]
        assert len(set(prints)) == len(prints)

    def test_default_spec_reproduces_default_params(self):
        desc = load_arch(DEFAULT_SPEC)
        assert desc.params == DEFAULT_PARAMS
        assert desc.network == "cs_benes"
        assert desc == DEFAULT_ARCH


# ----------------------------------------------------------------------
# CLI: byte-identity differential and sweep execution
# ----------------------------------------------------------------------
class TestArchCli:
    @pytest.mark.parametrize("fmt", ["ascii", "json", "csv"])
    def test_default_spec_is_byte_identical_to_flagless(self, fmt,
                                                        capsys):
        assert main(["bench", "--scale", "tiny", "--format", fmt]) == 0
        flagless = capsys.readouterr().out
        assert main(["bench", "--scale", "tiny", "--format", fmt,
                     "--arch", str(DEFAULT_SPEC)]) == 0
        assert capsys.readouterr().out == flagless

    def test_unreadable_arch_file_exits_2(self, capsys, tmp_path):
        assert main(["bench", "--scale", "tiny",
                     "--arch", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "absent.json" in err

    def test_variant_arch_changes_the_report(self, capsys):
        assert main(["bench", "--scale", "tiny",
                     "--format", "csv"]) == 0
        default = capsys.readouterr().out
        assert main(["bench", "--scale", "tiny", "--format", "csv",
                     "--arch", str(EXAMPLES_DIR / "mesh_8x8.json")]) == 0
        assert capsys.readouterr().out != default

    def test_sweep_sections_follow_filename_order(self, capsys):
        assert main(["bench", "--scale", "tiny",
                     "--arch", str(EXAMPLES_DIR)]) == 0
        captured = capsys.readouterr()
        expected = load_arch_sweep(EXAMPLES_DIR)
        headers = [line for line in captured.out.splitlines()
                   if line.startswith("== arch: ")]
        assert headers == [
            f"== arch: {desc.name} ({path.name}) "
            f"fingerprint {desc.fingerprint()[:12]} =="
            for path, desc in expected
        ]
        assert f"{len(expected)} variant(s)" in captured.err

    def test_sweep_shard_exports_one_document_per_variant(self, capsys):
        from repro.experiments.report import all_specs

        assert main(["bench", "--scale", "tiny", "--shard", "1/1",
                     "--arch", str(EXAMPLES_DIR)]) == 0
        lines = capsys.readouterr().out.splitlines()
        documents = [json.loads(line) for line in lines if line.strip()]
        expected = load_arch_sweep(EXAMPLES_DIR)
        assert [doc["arch"] for doc in documents] \
            == [desc.name for _path, desc in expected]
        spec_sets = []
        for doc, (_path, desc) in zip(documents, expected):
            prints = {spec.fingerprint()
                      for spec in all_specs("tiny", 0, desc.params)}
            # Every spec of this variant landed in this variant's
            # export (entries also hold shared functional traces).
            assert prints <= set(doc["entries"])
            spec_sets.append(prints)
        # Arch identity is in every fingerprint: no variant's cycle
        # records can collide with another's.
        union = set().union(*spec_sets)
        assert len(union) == sum(len(s) for s in spec_sets)
