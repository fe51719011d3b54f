"""The campaign runner: specs, merge reductions, determinism, resume.

The worker-pool tests run a deliberately cheap toy scenario (loaded via
``module_paths``, the same route example scripts use) so that the
byte-identity and crash/resume contracts are exercised end-to-end in a
few seconds; the real-figure sweeps get the same treatment in CI's
campaign smoke job (serial vs 2 workers, ``cmp``).
"""

import json
from pathlib import Path

import pytest

from repro.campaign import (Cell, SweepSpec, derive_seed, get_scenario,
                            get_sweep, list_sweeps, merge_bucket_rows,
                            pool_values, pooled_stats, run_campaign,
                            scenario, sum_counters)

HELPER = str(Path(__file__).resolve().parent
             / "campaign_scenarios_helper.py")


def toy_spec(**overrides):
    base = dict(name="toy", scenario="toy_stats",
                grid={"n": [50, 60], "scale": [1.0, 2.0]},
                seeds=(7, 8), fixed={}, modules=(),
                module_paths=(HELPER,))
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# Spec enumeration and identity
# ---------------------------------------------------------------------------

class TestSweepSpec:
    def test_commit_order_is_grid_order_seeds_innermost(self):
        cells = list(toy_spec().cells())
        assert len(cells) == len(toy_spec()) == 8
        assert [c.index for c in cells] == list(range(8))
        # n varies slowest, then scale, then seed.
        assert [(dict(c.params)["n"], dict(c.params)["scale"], c.seed)
                for c in cells[:4]] == [
            (50, 1.0, 7), (50, 1.0, 8), (50, 2.0, 7), (50, 2.0, 8)]

    def test_fixed_params_reach_every_cell(self):
        spec = toy_spec(grid={"n": [50]}, fixed={"scale": 3.0},
                        seeds=(7,))
        (cell,) = list(spec.cells())
        assert dict(cell.params) == {"n": 50, "scale": 3.0}

    def test_cell_id_stable_and_content_addressed(self):
        a, b = list(toy_spec().cells())[:2], list(toy_spec().cells())[:2]
        assert [c.cell_id for c in a] == [c.cell_id for c in b]
        # Different seed => different id at the same index.
        assert a[0].cell_id != a[1].cell_id.replace("0001", "0000")

    def test_verbatim_seeds_by_default(self):
        seeds = {c.seed for c in toy_spec().cells()}
        assert seeds == {7, 8}

    def test_derived_seeds_are_distinct_per_cell(self):
        spec = toy_spec(derive_cell_seeds=True, seeds=(7,))
        seeds = [c.seed for c in spec.cells()]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [c.seed for c in spec.cells()]  # stable

    def test_derive_seed_is_pure(self):
        assert derive_seed(1, "x", 2.0) == derive_seed(1, "x", 2.0)
        assert derive_seed(1, "x", 2.0) != derive_seed(2, "x", 2.0)
        assert 0 <= derive_seed(0) < 2 ** 31

    def test_restrict_replaces_axes_and_seeds(self):
        spec = toy_spec().restrict(seeds=(7,), n=[50])
        assert len(spec) == 2
        with pytest.raises(ValueError, match="unknown grid axes"):
            toy_spec().restrict(bogus=[1])

    def test_dict_roundtrip(self):
        spec = toy_spec(derive_cell_seeds=True)
        clone = SweepSpec.from_dict(spec.to_dict())
        assert [c.cell_id for c in clone.cells()] \
            == [c.cell_id for c in spec.cells()]

    def test_rejects_overlapping_and_empty_axes(self):
        with pytest.raises(ValueError, match="both swept and fixed"):
            toy_spec(fixed={"n": 1})
        with pytest.raises(ValueError, match="has no values"):
            toy_spec(grid={"n": []})
        with pytest.raises(ValueError, match="at least one seed"):
            toy_spec(seeds=())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            SweepSpec.from_dict({"name": "x", "scenario": "y",
                                 "typo": 1})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_sweeps_are_listed(self):
        names = list_sweeps()
        for expected in ("fig15", "fig15-micro", "fig16", "table1",
                         "failure-recovery", "fig12"):
            assert expected in names

    def test_get_sweep_unknown_name(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            get_sweep("nope")

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("never-registered")

    def test_duplicate_registration_is_rejected(self):
        @scenario("test_dup_scenario")
        def first(seed):
            return None

        with pytest.raises(ValueError, match="already registered"):
            @scenario("test_dup_scenario")
            def second(seed):
                return None

        # Re-registering the same function is an idempotent no-op.
        scenario("test_dup_scenario")(first)

    def test_same_definition_reimported_is_tolerated(self, tmp_path):
        # A scenario script executes under several module names
        # (__main__, __mp_main__ in spawn workers, the runner's
        # by-path import); each run makes a fresh function object for
        # one source definition, which must not count as a conflict.
        import importlib.util

        source = tmp_path / "dup_module.py"
        source.write_text(
            "from repro.campaign.registry import scenario\n\n\n"
            "@scenario('test_reimported_scenario')\n"
            "def cell(seed):\n"
            "    return seed\n")

        def load(as_name):
            spec = importlib.util.spec_from_file_location(
                as_name, str(source))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module

        first = load("test_dup_first")
        load("test_dup_second")  # same file, new function object: ok
        # The first registration wins, so earlier resolutions stay valid.
        assert get_scenario("test_reimported_scenario") is first.cell


# ---------------------------------------------------------------------------
# Merge reductions
# ---------------------------------------------------------------------------

class TestMerge:
    def test_sum_counters_recurses_and_unions(self):
        merged = sum_counters([
            {"a": 1, "nested": {"x": 2}, "label": "s"},
            {"a": 2, "b": 5, "nested": {"x": 3, "y": 1}, "label": "s"},
        ])
        assert merged == {"a": 3, "b": 5,
                          "nested": {"x": 5, "y": 1}, "label": "s"}

    def test_sum_counters_skips_none(self):
        assert sum_counters([{"m": None}, {"m": 2.5}]) == {"m": 2.5}

    def test_sum_counters_rejects_conflicting_labels(self):
        with pytest.raises(ValueError, match="differs across cells"):
            sum_counters([{"label": "a"}, {"label": "b"}])

    def test_pooled_stats(self):
        pooled = pool_values([[1.0, 3.0], [], [2.0]])
        assert pooled == [1.0, 3.0, 2.0]
        stats = pooled_stats(pooled)
        assert stats == {"count": 3, "mean": 2.0, "min": 1.0, "max": 3.0}
        assert pooled_stats([])["mean"] is None

    def test_merge_bucket_rows_weights_by_count(self):
        part_a = [{"start": 0.0, "count": 1, "mean": 2.0, "min": 2.0,
                   "max": 2.0, "last": 2.0}]
        part_b = [{"start": 0.0, "count": 3, "mean": 6.0, "min": 1.0,
                   "max": 9.0, "last": 5.0},
                  {"start": 1.0, "count": 1, "mean": 4.0, "min": 4.0,
                   "max": 4.0, "last": 4.0}]
        merged = merge_bucket_rows([part_a, part_b])
        assert merged[0] == {"start": 0.0, "count": 4, "mean": 5.0,
                             "min": 1.0, "max": 9.0, "last": 5.0}
        assert merged[1]["start"] == 1.0


# ---------------------------------------------------------------------------
# Runner: execution, artifacts, determinism
# ---------------------------------------------------------------------------

class TestRunner:
    def test_serial_in_memory_run(self):
        result = run_campaign(toy_spec())
        assert not result.partial and result.executed == 8
        assert all(isinstance(r, dict) for r in result.results())
        one = result.get(n=50, scale=2.0, seed=8)
        assert one["n"] == 50

    def test_get_requires_unique_match(self):
        result = run_campaign(toy_spec())
        with pytest.raises(KeyError, match="2 cells match"):
            result.get(n=50, scale=2.0)
        with pytest.raises(KeyError, match="0 cells match"):
            result.get(n=999, seed=7)

    def test_out_dir_layout_and_artifacts(self, tmp_path):
        out = tmp_path / "camp"
        result = run_campaign(toy_spec(), out=out)
        assert (out / "spec.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 8
        for entry, record in zip(manifest["cells"], result.records):
            assert entry["id"] == record.cell.cell_id
            assert (out / entry["checkpoint"]).is_file()
            (artifact,) = entry["artifacts"]
            assert artifact == (f"artifacts/{entry['id']}/values.csv")
            assert (out / artifact).is_file()
        merged = json.loads((out / "merged.json").read_text())
        assert [c["result"] for c in merged["cells"]] == result.results()

    def test_two_workers_byte_identical_to_serial(self, tmp_path):
        run_campaign(toy_spec(), out=tmp_path / "serial", workers=0)
        run_campaign(toy_spec(), out=tmp_path / "par", workers=2)
        for name in ("manifest.json", "merged.json"):
            assert (tmp_path / "serial" / name).read_bytes() \
                == (tmp_path / "par" / name).read_bytes(), name

    def test_crash_then_resume_matches_uninterrupted(self, tmp_path):
        reference = tmp_path / "ref"
        run_campaign(toy_spec(), out=reference)
        crashed = tmp_path / "crashed"
        partial = run_campaign(toy_spec(), out=crashed, max_cells=3)
        assert partial.partial and partial.executed == 3
        assert not (crashed / "manifest.json").exists()
        resumed = run_campaign(toy_spec(), out=crashed, workers=2,
                               resume=True)
        assert resumed.executed == 5 and not resumed.partial
        for name in ("manifest.json", "merged.json"):
            assert (crashed / name).read_bytes() \
                == (reference / name).read_bytes(), name

    def test_resume_without_flag_reruns_everything(self, tmp_path):
        out = tmp_path / "camp"
        run_campaign(toy_spec(), out=out, max_cells=3)
        rerun = run_campaign(toy_spec(), out=out)
        assert rerun.executed == 8

    def test_stale_checkpoints_are_invalidated_by_spec_edits(
            self, tmp_path):
        out = tmp_path / "camp"
        run_campaign(toy_spec(), out=out)
        edited = toy_spec(grid={"n": [50, 61], "scale": [1.0, 2.0]})
        resumed = run_campaign(edited, out=out, resume=True)
        # The n=50 half is reusable; the n=61 half has new cell ids.
        assert resumed.executed == 4

    def test_torn_checkpoint_is_rerun(self, tmp_path):
        out = tmp_path / "camp"
        run_campaign(toy_spec(), out=out, max_cells=2)
        victim = sorted((out / "cells").iterdir())[0]
        victim.write_text('{"id": "torn',  encoding="utf-8")
        resumed = run_campaign(toy_spec(), out=out, resume=True)
        assert resumed.executed == 7

    def test_cell_failure_names_the_cell(self):
        spec = toy_spec(scenario="toy_boom",
                        grid={"n": [1, 13], "scale": [1.0]}, seeds=(0,))
        with pytest.raises(RuntimeError, match=r"toy_boom\(n=13"):
            run_campaign(spec)

    def test_non_finite_result_fails_at_the_cell(self, tmp_path):
        # ``NaN`` / ``Infinity`` are not JSON: the checkpoint write must
        # refuse them and say which cell leaked one, not commit a file
        # strict parsers reject.
        spec = toy_spec(scenario="toy_nan",
                        grid={"n": [1, 13], "scale": [1.0]}, seeds=(0,))
        with pytest.raises(RuntimeError, match=r"toy_nan\(n=13"):
            run_campaign(spec, out=tmp_path / "camp")
        assert not (tmp_path / "camp" / "merged.json").exists()
        assert "NaN" not in "".join(
            path.read_text() for path in (tmp_path / "camp").rglob("*.json"))

    def test_max_cells_requires_out_dir(self):
        with pytest.raises(ValueError, match="max_cells"):
            run_campaign(toy_spec(), max_cells=1)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(toy_spec(), workers=-1)

    def test_progress_callback_sees_every_cell(self, tmp_path):
        lines = []
        run_campaign(toy_spec(), out=tmp_path / "c",
                     progress=lines.append)
        assert len(lines) == 8

    def test_builtin_micro_sweep_runs_serially(self):
        spec = get_sweep("fig15-micro").restrict(
            load=["moderate"], policy=["silo"])
        result = run_campaign(spec)
        (record,) = result.records
        assert 0.0 < record.result["total"] <= 1.0


class TestCellTimeout:
    """Satellite: per-cell wall-clock budgets keep campaigns live."""

    def sleeper_spec(self, **overrides):
        base = dict(name="sleepy", scenario="toy_sleeper",
                    grid={"duration": [0.0, 30.0]}, seeds=(1,),
                    fixed={}, modules=(), module_paths=(HELPER,))
        base.update(overrides)
        return SweepSpec(**base)

    def test_serial_timeout_fails_cell_and_completes(self, tmp_path):
        out = tmp_path / "c"
        result = run_campaign(self.sleeper_spec(), out=out,
                              cell_timeout=1.0)
        # The campaign completed (no hang): both cells executed, the
        # sleeper failed, the run is partial with no merge outputs.
        assert result.executed == 2
        assert result.partial
        (failed,) = result.failed
        assert "timeout" in failed.error
        assert dict(failed.cell.params)["duration"] == 30.0
        assert len(result.records) == 1
        # The fast cell checkpointed; the failed one did not, so a
        # resume would retry exactly it.
        assert len(list((out / "cells").glob("*.json"))) == 1
        assert not (out / "merged.json").exists()
        assert not (out / "manifest.json").exists()

    def test_timeout_not_triggered_leaves_run_complete(self, tmp_path):
        spec = self.sleeper_spec(grid={"duration": [0.0, 0.01]})
        result = run_campaign(spec, out=tmp_path / "c",
                              cell_timeout=30.0)
        assert not result.partial and not result.failed
        assert (tmp_path / "c" / "merged.json").exists()

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            run_campaign(self.sleeper_spec(), cell_timeout=0.0)

    def test_worker_pool_timeout_cli_exits_nonzero(self, tmp_path):
        """A hung worker cell fails via the CLI too -- subprocess, so
        SIGALRM delivery inside spawned pool workers is covered."""
        import os
        import subprocess
        import sys
        repo = Path(__file__).resolve().parent.parent
        spec_file = tmp_path / "sleepy.json"
        spec_file.write_text(json.dumps(
            self.sleeper_spec(grid={"duration": [0.0, 30.0]},
                              seeds=(1, 2)).to_dict()))
        out = tmp_path / "c"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--spec", str(spec_file), "--out", str(out),
             "--workers", "2", "--cell-timeout", "2"],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=repo)
        assert proc.returncode == 1, proc.stderr
        assert "FAILED" in proc.stderr
        assert "timeout" in proc.stderr
        # The fast cells checkpointed; the sleepers did not.
        assert len(list((out / "cells").glob("*.json"))) == 2
        assert not (out / "merged.json").exists()
