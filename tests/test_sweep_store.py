"""The result store: round trips, integrity, legacy layouts, tooling."""

import hashlib
import json
import multiprocessing
import os
import pickle
import sqlite3

import pytest

from differential import case
from repro.cli import main
from repro.graphs.families import torus_2d
from repro.sweep.cells import (
    GeneralRotorCell,
    LabeledGeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
)
from repro.sweep.executor import run_sweep
from repro.sweep.spec import InitFamily, ScenarioSpec, SweepConfig
from repro.sweep.store import (
    STORE_FILE,
    STORE_SCHEMA_VERSION,
    SqliteStore,
    _canonical,
    open_store,
    store_info,
    vacuum_store,
)


def _config(seed: int, **overrides) -> SweepConfig:
    base = dict(
        n=16,
        k=2,
        placement="random",
        pointer="random",
        seed=seed,
        metrics=("cover",),
        max_rounds=4096,
    )
    base.update(overrides)
    return SweepConfig(**base)


def _cover_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="store-test",
        ns=(16, 24),
        ks=(2, 3),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _write_json_tree(directory, items) -> None:
    """Write ``(cell, metrics)`` pairs in the legacy JSON-tree layout.

    One ``<hash[:2]>/<hash>.json`` file per cell holding
    ``{"config": identity, "metrics": metrics}`` — the one-file-per-cell
    cache of older versions.
    """
    for cell, metrics in items:
        config_hash = cell.config_hash
        path = os.path.join(directory, config_hash[:2], f"{config_hash}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"config": cell.identity(), "metrics": metrics},
                handle,
                sort_keys=True,
            )


def _listing(directory) -> list[str]:
    """Every path under ``directory``, relative and sorted."""
    found = []
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(dirs + files):
            found.append(os.path.relpath(os.path.join(root, name), directory))
    return found


class TestSpecStrings:
    def test_prefixed_specs(self, tmp_path):
        directory = str(tmp_path / "absent")
        assert open_store(f"sqlite://{directory}").directory == directory
        assert open_store(directory).directory == directory
        assert open_store("sqlite://rel/c").directory == "rel/c"
        assert not os.path.exists(directory)  # opening creates nothing

    def test_open_store_dispatches(self, tmp_path):
        # A plain path and sqlite:// open the one store, in one file.
        directory = str(tmp_path / "cache")
        cell = _config(0)
        plain = open_store(directory)
        assert isinstance(plain, SqliteStore)
        plain.put_many([(cell, {"cover": 1})])
        plain.close()
        prefixed = open_store(f"sqlite://{directory}")
        assert prefixed.path == os.path.join(directory, STORE_FILE)
        assert prefixed.lookup_many([cell])[0] == {
            cell.config_hash: {"cover": 1}
        }
        prefixed.close()
        # One database file (plus its transient WAL companions).
        assert all(
            name.startswith(STORE_FILE) for name in os.listdir(directory)
        )

    def test_unknown_scheme_rejected(self):
        # json:// named the retired JSON tree; it is unknown now.
        for spec in ("redis://host/db", "json://rel/c"):
            with pytest.raises(ValueError, match="unknown store scheme"):
                open_store(spec)

    def test_empty_directory_rejected(self):
        with pytest.raises(ValueError, match="names no directory"):
            open_store("sqlite://")


class TestLegacyLayouts:
    """An older layout is refused before anything is written."""

    def test_json_tree_refused_untouched(self, tmp_path, capsys):
        directory = str(tmp_path / "tree")
        _write_json_tree(directory, [(_config(0), {"cover": 1})])
        before = _listing(directory)
        with pytest.raises(ValueError, match="delete the directory"):
            open_store(directory)
        with pytest.raises(ValueError, match="delete the directory"):
            run_sweep(_cover_spec(ns=(16,), ks=(2,)), cache_dir=directory)
        assert main(["cache", "info", directory]) == 2
        assert "delete the directory" in capsys.readouterr().err
        assert _listing(directory) == before

    def test_shard_files_refused_untouched(self, tmp_path, capsys):
        directory = tmp_path / "shards"
        directory.mkdir()
        sqlite3.connect(str(directory / "shard-a.db")).close()
        before = _listing(str(directory))
        with pytest.raises(ValueError, match="delete the directory"):
            open_store(f"sqlite://{directory}")
        assert main(["cache", "verify", str(directory)]) == 2
        assert "delete the directory" in capsys.readouterr().err
        assert _listing(str(directory)) == before

    @pytest.mark.parametrize("layout", ["tree", "shards"])
    @pytest.mark.parametrize(
        "argv",
        [
            lambda cache: ["sweep", "table1", "--quick", "--cache", cache],
            lambda cache: ["run", "table1", "--quick", "--cache", cache],
            lambda cache: ["cache", "info", cache],
            lambda cache: ["cache", "verify", cache, "--repair"],
            lambda cache: ["cache", "vacuum", cache],
        ],
        ids=["sweep", "run", "info", "verify", "vacuum"],
    )
    def test_every_command_refuses_in_one_line(
        self, tmp_path, capsys, layout, argv
    ):
        # Nothing is computed or written, wherever the store is opened.
        directory = str(tmp_path / "legacy")
        if layout == "tree":
            _write_json_tree(directory, [(_config(0), {"cover": 1})])
        else:
            os.makedirs(directory)
            sqlite3.connect(os.path.join(directory, "shard-a.db")).close()
        before = _listing(str(tmp_path))
        assert main(argv(directory)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "delete the directory" in captured.err
        assert _listing(str(tmp_path)) == before


def _open(spelling: str, directory) -> SqliteStore:
    """The store at ``directory``, named by a plain path or ``sqlite://``."""
    prefix = "sqlite://" if spelling == "sqlite" else ""
    return open_store(f"{prefix}{directory}")


@pytest.mark.parametrize("spelling", ["plain", "sqlite"])
class TestRoundTrip:
    def test_put_many_lookup_many(self, spelling, tmp_path):
        store = _open(spelling, tmp_path)
        cells = [_config(seed) for seed in range(20)]
        store.put_many([(c, {"cover": c.seed * 3}) for c in cells])
        found, statuses = store.lookup_many(cells)
        assert len(found) == 20
        assert all(status == "hit" for status in statuses.values())
        for cell in cells:
            assert found[cell.config_hash] == {"cover": cell.seed * 3}
        assert store.count() == 20
        store.close()

    def test_missing_cells_report_miss(self, spelling, tmp_path):
        store = _open(spelling, tmp_path)
        present = [_config(seed) for seed in range(4)]
        absent = [_config(seed) for seed in range(100, 104)]
        store.put_many([(c, {"cover": 1}) for c in present])
        found, statuses = store.lookup_many(present + absent)
        assert set(found) == {c.config_hash for c in present}
        for cell in absent:
            assert statuses[cell.config_hash] == "miss"
        store.close()

    def test_duplicate_probes_collapse(self, spelling, tmp_path):
        store = _open(spelling, tmp_path)
        cell = _config(7)
        store.put_many([(cell, {"cover": 9})])
        found, statuses = store.lookup_many([cell, cell, cell])
        assert found == {cell.config_hash: {"cover": 9}}
        assert statuses == {cell.config_hash: "hit"}
        store.close()

    def test_put_replaces(self, spelling, tmp_path):
        store = _open(spelling, tmp_path)
        cell = _config(1)
        store.put_many([(cell, {"cover": 1})])
        store.put_many([(cell, {"cover": 2})])
        assert store.lookup_many([cell])[0] == {cell.config_hash: {"cover": 2}}
        assert store.count() == 1
        store.close()

    def test_close_is_idempotent(self, spelling, tmp_path):
        store = _open(spelling, tmp_path)
        store.close()
        store.close()


class TestRowIdentity:
    def test_rows_hold_the_canonical_identity_of_every_cell_kind(
        self, tmp_path
    ):
        graph = torus_2d(3, 4)
        cells = [
            _config(3),
            RotorCell(
                n=6, agents=(0, 3), directions=(1, -1) * 3,
                metrics=("cover",), max_rounds=99,
            ),
            WalkCoverCell(n=6, agents=(0,), seeds=(4, 5), max_rounds=99),
            WalkGapsCell(
                n=6, k=2, node=1, observation_rounds=50, burn_in=6, seed=7
            ),
            GeneralRotorCell.from_graph(graph, (0, 5), [0] * 12, 99),
            LabeledGeneralRotorCell.from_graph(
                graph, (1,), [1] * 12, 99, family="torus", seed=2
            ),
        ]
        store = SqliteStore(str(tmp_path))
        store.put_many([(cell, {"cover": 1}) for cell in cells])
        rows = dict(
            store._connection().execute("SELECT hash, config FROM cells")
        )
        store.close()
        assert len(rows) == len(cells)
        for cell in cells:
            text = rows[cell.config_hash]
            assert text == _canonical(cell.identity()), type(cell).__name__
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == cell.config_hash, type(cell).__name__

    def test_pickled_cells_leave_the_text_behind(self):
        cell = _config(3)
        text = cell.identity_text
        copy = pickle.loads(pickle.dumps(cell))
        assert "identity_text" not in vars(copy)
        assert copy.config_hash == cell.config_hash
        assert copy.identity_text == text


class TestCorruptEntries:
    def _tamper(self, directory, config_hash, metrics_text):
        store = SqliteStore(directory)
        store._connection().execute(
            "UPDATE cells SET metrics = ? WHERE hash = ?",
            (metrics_text, config_hash),
        )
        store.close()

    def test_sqlite_unparseable_metrics_reports_corrupt(self, tmp_path):
        cells = [_config(seed) for seed in range(6)]
        store = SqliteStore(str(tmp_path))
        store.put_many([(c, {"cover": c.seed}) for c in cells])
        store.close()
        self._tamper(str(tmp_path), cells[2].config_hash, "{broken")
        store = SqliteStore(str(tmp_path))
        found, statuses = store.lookup_many(cells)
        assert statuses[cells[2].config_hash] == "corrupt"
        assert cells[2].config_hash not in found
        # The other rows are still served.
        for cell in cells:
            if cell is not cells[2]:
                assert statuses[cell.config_hash] == "hit"
                assert found[cell.config_hash] == {"cover": cell.seed}
        store.close()

    def test_sqlite_non_dict_metrics_reports_corrupt(self, tmp_path):
        cells = [_config(seed) for seed in range(6)]
        store = SqliteStore(str(tmp_path))
        store.put_many([(c, {"cover": c.seed}) for c in cells])
        store.close()
        self._tamper(str(tmp_path), cells[4].config_hash, "[1,2,3]")
        store = SqliteStore(str(tmp_path))
        found, statuses = store.lookup_many(cells)
        assert statuses[cells[4].config_hash] == "corrupt"
        assert cells[4].config_hash not in found
        assert len(found) == 5
        store.close()

    def test_sqlite_schema_mismatch_refuses(self, tmp_path):
        store = SqliteStore(str(tmp_path))
        cell = _config(0)
        store.put_many([(cell, {"cover": 1})])
        store.close()
        conn = sqlite3.connect(store.path)
        conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 41}")
        conn.close()
        fresh = SqliteStore(str(tmp_path))
        with pytest.raises(ValueError, match="schema"):
            fresh.lookup_many([cell])


class TestBackendEquivalence:
    """Randomized put/probe trials against a dict of what was stored:
    the ``store`` row of the differential harness."""

    test_randomized_probe_equivalence = case("store")


def _write_slice(args):
    directory, start = args
    store = SqliteStore(directory)
    cells = [_config(seed) for seed in range(start, start + 25)]
    store.put_many([(c, {"cover": c.seed}) for c in cells])
    store.close()
    return len(cells)


class TestConcurrentWriters:
    def test_two_processes_one_store(self, tmp_path):
        # Both writers share the one database file; WAL and the busy
        # timeout serialize them.
        directory = str(tmp_path / "db")
        with multiprocessing.Pool(processes=2) as pool:
            written = pool.map(
                _write_slice, [(directory, 0), (directory, 25)]
            )
        assert written == [25, 25]
        store = SqliteStore(directory)
        cells = [_config(seed) for seed in range(50)]
        found, statuses = store.lookup_many(cells)
        assert len(found) == 50
        assert all(status == "hit" for status in statuses.values())
        for cell in cells:
            assert found[cell.config_hash] == {"cover": cell.seed}
        store.close()


class TestExecutorIntegration:
    def test_run_sweep_sqlite_cache_hits_second_time(self, tmp_path):
        spec = _cover_spec()
        cache = f"sqlite://{tmp_path / 'cache'}"
        first = run_sweep(spec, cache_dir=cache)
        assert first.cache_misses == spec.num_configs
        assert first.cache_hits == 0
        second = run_sweep(spec, cache_dir=cache, jobs=2)
        assert second.cache_misses == 0
        assert second.cache_hits == spec.num_configs

    def test_warm_sqlite_rerun_serves_from_cache_alone(self, tmp_path):
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache = f"sqlite://{tmp_path / 'cache'}"
        run_sweep(spec, cache_dir=cache)
        warm = run_sweep(spec, cache_dir=cache)
        cold = run_sweep(spec, cache_dir=None)
        for cached, computed in zip(warm.results, cold.results):
            assert cached.cached
            assert cached.metrics == computed.metrics


class TestTooling:
    def test_store_info(self, tmp_path):
        directory = str(tmp_path / "db")
        store = SqliteStore(directory)
        store.put_many([(_config(seed), {"cover": 1}) for seed in range(8)])
        store.close()
        info = store_info(directory)
        assert info["entries"] == 8
        assert info["schema"] == STORE_SCHEMA_VERSION
        assert info["bytes"] > 0

    def test_vacuum(self, tmp_path):
        directory = str(tmp_path / "db")
        assert vacuum_store(directory) == {"vacuumed": 0}
        db = SqliteStore(directory)
        db.put_many([(_config(0), {"cover": 1})])
        db.close()
        assert vacuum_store(directory) == {"vacuumed": 1}


class TestCacheCli:
    def test_info_and_vacuum(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        store = SqliteStore(directory)
        store.put_many([(_config(0), {"cover": 1})])
        store.close()
        assert main(["cache", "info", directory]) == 0
        out = capsys.readouterr().out
        assert "entries=1" in out
        assert f"schema={STORE_SCHEMA_VERSION}" in out
        assert main(["cache", "vacuum", directory]) == 0
        assert "vacuumed=1" in capsys.readouterr().out

    def test_cache_info_on_missing_store_fails_cleanly(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope"
        assert main(["cache", "info", str(missing)]) == 0
        assert "entries=0" in capsys.readouterr().out
        assert main(["cache", "vacuum", str(missing)]) == 0
        assert "vacuumed=0" in capsys.readouterr().out
        assert not missing.exists()
