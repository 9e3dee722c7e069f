"""Sharding tests: partition laws and shard-merge byte-identity.

The fingerprint-prefix partition must be a true partition (disjoint,
covering, order-independent), and the CLI round trip — N shard runs
exporting their working sets, merged back into one report — must be
byte-identical to the unsharded ``repro bench`` run in every format.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.cli import main
from repro.engine import (
    merge_shard_documents,
    parse_shard,
    read_shard_export,
    shard_of,
    shard_specs,
)
from repro.engine.cache import ENGINE_VERSION
from repro.errors import ConfigurationError, EngineError
from repro.experiments.report import all_specs

SCALE = "tiny"
SEED = 0


@pytest.fixture(scope="module")
def specs():
    return all_specs(SCALE, SEED)


def _export(path, *argv) -> str:
    """``repro bench ARGV`` with stdout redirected to ``path`` — the
    documented ``--shard K/N > shard-K.json`` recipe."""
    with open(path, "w", encoding="utf-8") as handle, \
            contextlib.redirect_stdout(handle):
        assert main(["bench", *argv]) == 0
    return str(path)


class TestParseShard:
    def test_parses_well_formed_selectors(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/3") == (2, 3)

    @pytest.mark.parametrize(
        "text", ["", "1", "1/2/3", "a/b", "0/2", "3/2", "1/0", "-1/2"]
    )
    def test_rejects_malformed_selectors(self, text):
        with pytest.raises(ConfigurationError):
            parse_shard(text)


class TestPartitionLaws:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_shards_are_disjoint_and_cover(self, specs, count):
        shards = [shard_specs(specs, index, count)
                  for index in range(1, count + 1)]
        union = [spec for shard in shards for spec in shard]
        assert len(union) == len(specs)
        assert set(union) == set(specs)
        for a in range(count):
            for b in range(a + 1, count):
                assert not set(shards[a]) & set(shards[b])

    def test_assignment_is_order_independent(self, specs):
        forward = {spec: shard_of(spec, 4) for spec in specs}
        backward = {spec: shard_of(spec, 4) for spec in reversed(specs)}
        assert forward == backward

    def test_single_shard_is_the_whole_batch(self, specs):
        assert shard_specs(specs, 1, 1) == list(specs)

    def test_shards_preserve_batch_order(self, specs):
        shard = shard_specs(specs, 1, 2)
        positions = [specs.index(spec) for spec in shard]
        assert positions == sorted(positions)


class TestShardMergeCli:
    """Two shard runs + merge vs the unsharded run, every format."""

    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shards")
        return [
            _export(root / f"shard{index}.json", "--scale", SCALE,
                    "--seed", str(SEED), "--shard", f"{index}/2",
                    "--cache-dir", str(root / "cache"))
            for index in (1, 2)
        ]

    @pytest.mark.parametrize("fmt", ["ascii", "json", "csv"])
    def test_merged_report_is_byte_identical(self, exports, fmt, capsys):
        assert main(["bench", "--scale", SCALE, "--seed", str(SEED),
                     "--format", fmt]) == 0
        unsharded = capsys.readouterr().out
        assert main(["bench", "--merge-shards", *exports,
                     "--format", fmt]) == 0
        merged = capsys.readouterr().out
        assert merged == unsharded

    def test_merge_recomputes_nothing(self, exports, capsys):
        assert main(["bench", "--merge-shards", *exports,
                     "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "incomplete" not in captured.err

    def test_warm_cache_exports_are_complete(self, tmp_path, capsys):
        # A cycle-warm shard run never reads traces, so without explicit
        # prefetching its export would miss the trace records the merged
        # report reads (forcing a local recompute + warning at merge).
        cache = str(tmp_path / "cache")
        assert main(["bench", "--scale", SCALE, "--seed", str(SEED),
                     "--cache-dir", cache, "--format", "csv"]) == 0
        paths = [
            _export(tmp_path / f"shard{index}.json", "--scale", SCALE,
                    "--seed", str(SEED), "--shard", f"{index}/2",
                    "--cache-dir", cache)
            for index in (1, 2)
        ]
        capsys.readouterr()
        assert main(["bench", "--merge-shards", *paths,
                     "--format", "csv"]) == 0
        assert "incomplete" not in capsys.readouterr().err

    def test_export_covers_only_its_shard(self, exports, specs):
        documents = [read_shard_export(path) for path in exports]
        sizes = [len(doc["entries"]) for doc in documents]
        merged = merge_shard_documents(documents)
        # Each shard export is a strict subset of the merged working set.
        assert all(size < len(merged["entries"]) for size in sizes)
        # Cycle records: one per unique spec across the whole batch.
        total_cycles = sum(
            1 for doc in documents for digest in doc["entries"]
            if digest in {spec.fingerprint() for spec in specs}
        )
        assert total_cycles == len(set(specs))


class TestMergeValidation:
    def test_incomplete_shard_set_rejected(self, tmp_path, capsys):
        path = _export(tmp_path / "s1.json", "--scale", SCALE,
                       "--shard", "1/2")
        assert main(["bench", "--merge-shards", path,
                     "--format", "csv"]) == 2
        assert "cover" in capsys.readouterr().err

    def test_mismatched_scales_rejected(self):
        base = {"format": "repro-shard-export", "format_version": 1,
                "engine_version": ENGINE_VERSION, "seed": 0, "shard": None,
                "stats": {}, "entries": {}}
        with pytest.raises(EngineError, match="scale"):
            merge_shard_documents([
                dict(base, scale="tiny"), dict(base, scale="small"),
            ])

    def test_duplicate_shard_index_rejected(self):
        base = {"scale": "tiny", "seed": 0, "entries": {}}
        with pytest.raises(EngineError, match="cover"):
            merge_shard_documents([
                dict(base, shard=[1, 2]), dict(base, shard=[1, 2]),
            ])

    def test_structurally_incomplete_export_rejected(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({
            "format": "repro-shard-export", "format_version": 1,
            "engine_version": ENGINE_VERSION,
        }))
        with pytest.raises(EngineError, match="malformed"):
            read_shard_export(path)

    def test_non_dict_entries_rejected(self, tmp_path):
        path = tmp_path / "bad-entries.json"
        path.write_text(json.dumps({
            "format": "repro-shard-export", "format_version": 1,
            "engine_version": ENGINE_VERSION, "scale": "tiny", "seed": 0,
            "entries": ["not", "a", "table"],
        }))
        with pytest.raises(EngineError, match="malformed"):
            read_shard_export(path)

    def test_malformed_shard_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad-shard.json"
        path.write_text(json.dumps({
            "format": "repro-shard-export", "format_version": 1,
            "engine_version": ENGINE_VERSION, "scale": "tiny", "seed": 0,
            "entries": {}, "shard": 1,
        }))
        with pytest.raises(EngineError, match="malformed"):
            read_shard_export(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-shard.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(EngineError, match="not a repro shard export"):
            read_shard_export(path)

    def test_malformed_shard_selector_is_an_error(self, capsys):
        assert main(["bench", "--shard", "1-2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_with_merge_is_an_error(self, capsys):
        assert main(["bench", "--shard", "1/2",
                     "--merge-shards", "x.json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shard_with_format_or_stats_is_an_error(self, capsys):
        # A shard run emits a shard export, never a report, so report
        # flags must be rejected rather than silently ignored.
        assert main(["bench", "--shard", "1/2", "--format", "csv"]) == 2
        assert "no effect with --shard" in capsys.readouterr().err

    def test_merge_with_stream_is_an_error(self, capsys):
        assert main(["bench", "--merge-shards", "x.json",
                     "--stream"]) == 2
        assert "no effect with --merge-shards" in capsys.readouterr().err

    def test_merge_with_scale_or_seed_is_an_error(self, capsys):
        # The exports carry their own (scale, seed); an explicit flag
        # would be silently superseded, so it is rejected instead.
        assert main(["bench", "--merge-shards", "x.json",
                     "--scale", "paper"]) == 2
        assert "no effect with --merge-shards" in capsys.readouterr().err
        assert main(["bench", "--merge-shards", "x.json",
                     "--seed", "7"]) == 2
        assert "no effect with --merge-shards" in capsys.readouterr().err
