"""Smoke runs of each workload at tiny sizes, and checks that cannot pass silently.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from schubert_gb.linalg import CosetLeaderTable
from tracing import Tracer
from workloads import CODES, END_TO_END, PER_LAYER, Sizes

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = Sizes(stream_words=60, sim_trials=5, rungs=(18,), ladder_decodes=12,
             sections=("integrity", "params", "capability"), decode_setups=1,
             ladder_setups=2, verify_setups=2)


def run(name, trace=True, seed=7):
    tracer = Tracer(enabled=trace)
    res = workloads.WORKLOADS[name](seed, 0, tracer, TINY)
    return res, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace):
    res, tracer = run(name, trace)
    assert res.ledger.attempted > 0
    assert res.ledger.failed == 0, res.ledger.reasons
    for metric in END_TO_END:
        assert res.values[metric] > 0
    assert bool(tracer.spans) == trace
    if trace:
        assert res.values["traced_pass_s"] > 0
        assert set(res.values) <= set(PER_LAYER) | set(END_TO_END)


def test_decode_layers():
    res, tracer = run("decode_stream")
    for code in CODES:
        assert res.values[f"groebner.normal_form_us.{code}"] > 0
        assert res.values[f"groebner.nf_steps_mean.{code}"] > 0
    again, _ = run("decode_stream")
    assert all(again.values[f"groebner.nf_steps_mean.{c}"] == res.values[f"groebner.nf_steps_mean.{c}"]
               for c in CODES)
    assert all(parent == -1 or tracer.spans[parent][0].startswith("decode_stream.")
               for _, _, _, parent in tracer.spans)


def test_ladder_counts():
    res, _ = run("build_ladder")
    assert res.values["linalg.cosets.n18"] == 1 << 13
    assert res.values["groebner.code_binomials.n18"] > 0
    assert res.values["formats.basis_bytes.n18"] > 0


def test_corrupted_decode_outcome_counts_as_failure(monkeypatch):
    real = workloads.gb_decode

    def wrong(word, gb, mode="bounded"):
        out = real(word, gb, mode)
        return dataclasses.replace(out, canonical=out.canonical ^ 1) if word % 3 == 0 else out

    monkeypatch.setattr(workloads, "gb_decode", wrong)
    for name in ("decode_stream", "build_ladder"):
        res, _ = run(name, trace=False)
        assert 0 < res.ledger.failed < res.ledger.attempted, name


def test_corrupted_basis_counts_as_failure(monkeypatch):
    real = workloads.coset_engine

    def short(code, limit=None):
        gb = real(code, limit)
        drop = gb.code_binomials[-1]
        return type(gb)(n=gb.n, elements=tuple(b for b in gb.elements if b != drop))

    monkeypatch.setattr(workloads, "coset_engine", short)
    for name in ("decode_stream", "build_ladder"):
        res, _ = run(name, trace=False)
        assert res.ledger.failed > 0, name


def test_oracle_matches_program_table():
    code = workloads.fixtures.load_code("2_4")
    table = workloads.build_coset_leader_table(code).leaders.astype(np.int64)
    assert (workloads.coset_leaders(table, code.codeword_masks()) == table).all()


def test_wrong_tie_break_counts_as_failure(monkeypatch):
    """A table that breaks weight ties the wrong way (smallest mask) still
    indexes its own syndromes; only the oracle can tell."""
    def smallest_mask(code, limit=None):
        words = np.arange(1 << code.n, dtype=np.int64)
        synd = workloads.syndromes(words, code)
        order = np.lexsort((words, workloads.weights(words), synd))
        firsts = order[np.flatnonzero(np.diff(synd[order], prepend=-1))]
        return CosetLeaderTable(leaders=words[firsts].astype(np.uint64), n=code.n, k=code.k)

    monkeypatch.setattr(workloads, "build_coset_leader_table", smallest_mask)
    res, _ = run("build_ladder", trace=False)
    assert any("coset-leader table differs from the oracle" in r for r in res.ledger.reasons)


def test_exception_counts_as_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("enumeration bound exceeded")

    monkeypatch.setattr(workloads, "build_coset_leader_table", boom)
    res, _ = run("build_ladder", trace=False)
    assert res.ledger.failed == res.ledger.attempted > 0


def test_failed_verify_check_counts(monkeypatch):
    real = workloads.verify_mod.run_checks

    def one_fails(only=None, echo=None):
        results = real(only, echo)
        if only != ["params"]:
            return results
        return [dataclasses.replace(results[0], passed=False)] + results[1:]

    monkeypatch.setattr(workloads.verify_mod, "run_checks", one_fails)
    res, _ = run("verify_paper", trace=False)
    assert res.ledger.failed == res.extra["passes"][0]  # one FAIL line per pass


def test_benchmark_json_lists_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _cli(cwd, *extra, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path)
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_refuses_guard_override():
    proc = _cli(ROOT, env={**os.environ, "SGB_MAX_N": "24"})
    assert proc.returncode != 0 and "{" not in proc.stdout
