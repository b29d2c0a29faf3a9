"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json

import numpy as np
import pytest

import run
from spans import LAYERS, Tracer
from workloads import WORKLOADS

cli = run.import_cli()


def tiny_requests(tmp_path, name, seed=7):
    workdir = tmp_path / name
    workdir.mkdir()
    return WORKLOADS[name].build(np.random.default_rng(seed), str(workdir), tiny=True)[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(tmp_path, name):
    p = run.run_pass(cli, tiny_requests(tmp_path, name))
    assert p.failures == []
    assert p.latencies and p.bytes_out > 0


def test_check_catches_a_wrong_answer(tmp_path):
    req = next(r for r in tiny_requests(tmp_path, "spectral-large") if r.command == "check")
    _, _, code, out, _ = run.call_cli(cli, req.argv)
    assert code == 0
    req.check(out)
    flipped = out.replace("true", "false") if '"symmetrizable":true' in out else out.replace(
        '"symmetrizable":false', '"symmetrizable":true')
    with pytest.raises(run.CheckFailed):
        req.check(flipped)


def test_tracer_keeps_stdout_and_restores_every_binding(tmp_path):
    requests = [r for name in sorted(WORKLOADS) for r in tiny_requests(tmp_path, name)]
    plain = [run.call_cli(cli, r.argv)[3] for r in requests]

    tracer = Tracer().install()
    try:
        patched = tracer.patched
        traced = [run.call_cli(cli, r.argv)[3] for r in requests]
    finally:
        tracer.uninstall()

    assert traced == plain
    for owner, key, original in patched:
        current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert current is original, key
    names = {s.name for s in tracer.spans}
    assert {name.split(".", 1)[0] for name in names} == set(LAYERS)
    # names rebound by ``from ... import`` and the class method are wrapped too
    keys = {(getattr(owner, "__name__", type(owner).__name__), key) for owner, key, _ in patched}
    for binding in [("netosc.dynamics", "spectral_decomposition"),
                    ("netosc.doubled", "build_matrices"),
                    ("netosc.cli", "canonical_json"),
                    ("Trajectory", "to_csv"),
                    ("dict", "verify")]:
        assert binding in keys
    assert tracer.summary()["cli.run"]["calls"] == len(requests)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
