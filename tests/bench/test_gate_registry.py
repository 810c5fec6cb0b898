"""The gate registry: every entry's pins, its CLI path, and the rules
that keep a test run away from the checked-in baselines."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import throughput
from repro.bench.experiments.e21_chaos import PINNED_CHAOS_FIELDS
from repro.bench.experiments.e22_attribution import (
    ATTRIBUTION_ARMS,
    PINNED_ATTRIBUTION_FIELDS,
)
from repro.bench.experiments.e24_overload import (
    PINNED_HOG_FIELDS,
    PINNED_OVERLOAD_FIELDS,
    PINNED_SCALE_FIELDS,
)
from repro.bench.experiments.e25_recovery import PINNED_RECOVERY_FIELDS
from repro.bench.experiments.e26_tail import (
    PINNED_TAIL_HEDGE_FIELDS,
    PINNED_TAIL_OBJECTIVE_FIELDS,
)
from repro.bench.regress import BASELINE_DIR, GATES, PINNED_ARM_FIELDS, main
from repro.bench.throughput import run_throughput_gate

from .test_throughput_gate import _shrink_hot_loop

CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" \
    / "workflows" / "ci.yml"


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def docs():
    """One run of every gate, shared by the registry tests.

    Throughput is the exception: its full-size run takes tens of
    seconds, and on a shrunken workload the two stacks are timed too
    briefly for the 5x bar to mean anything. Its doc is the committed
    full-size baseline; ``test_throughput_runner_matches_baseline_shape``
    runs the runner itself on the shrunken workload.
    """
    return {name: _load(BASELINE_DIR / gate.baseline)
            if name == "throughput" else gate.run(None)
            for name, gate in GATES.items()}


@pytest.fixture
def cached_gates(docs, monkeypatch):
    """Point every registry entry's runner at its cached doc."""
    for name, gate in GATES.items():
        doc = docs[name]
        monkeypatch.setitem(GATES, name,
                            replace(gate, run=lambda out, d=doc: d))
    return docs


def _pins(name, doc):
    """(path, field) for every field the gate pins exactly."""
    arms = {
        "autoscale": [(arm,) for arm in ("fixed", "controlled")],
        "chaos": [(arm,) for arm in ("naive", "hardened")],
        "attribution": [(arm,) for arm in ATTRIBUTION_ARMS],
        "recovery": [(arm,) for arm in ("detection", "none")],
    }
    fields = {
        "autoscale": PINNED_ARM_FIELDS,
        "chaos": PINNED_CHAOS_FIELDS,
        "attribution": PINNED_ATTRIBUTION_FIELDS,
        "recovery": PINNED_RECOVERY_FIELDS,
    }
    if name in arms:
        return [(path, fld) for path in arms[name]
                for fld in fields[name]]
    if name == "e4":
        return [(("by_layer",), layer) for layer in doc["by_layer"]]
    if name == "throughput":
        return [((), fld) for fld in ("hot_loop_fingerprint",
                                      "invoke_fingerprint")]
    if name == "overload":
        return ([(("sweep", arm, mult), fld)
                 for arm in ("none", "gateway")
                 for mult in doc["sweep"][arm]
                 for fld in PINNED_OVERLOAD_FIELDS]
                + [((arm,), fld) for arm in ("hog_none", "hog_gateway")
                   for fld in PINNED_HOG_FIELDS]
                + [(("scale",), fld) for fld in PINNED_SCALE_FIELDS])
    assert name == "tail"
    return ([((arm,), fld) for arm in ("mean", "p99")
             for fld in PINNED_TAIL_OBJECTIVE_FIELDS]
            + [((arm,), fld) for arm in ("hedge_fixed", "hedge_adaptive")
               for fld in PINNED_TAIL_HEDGE_FIELDS])


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        return {**value, "perturbed": 1}
    if value is None:
        return 0
    return f"{value}!"


def _perturb(doc, path, fld):
    """A deep copy of ``doc`` with one pinned field changed."""
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in path:
        target = target[key]
    target[fld] = _perturbed(target[fld])
    return copy


def test_registry_lists_the_eight_gates_in_order():
    assert list(GATES) == ["e4", "autoscale", "chaos", "attribution",
                           "throughput", "overload", "recovery", "tail"]
    assert len({gate.baseline for gate in GATES.values()}) == len(GATES)
    for gate in GATES.values():
        assert (BASELINE_DIR / gate.baseline).is_file()


@pytest.mark.parametrize("name", list(GATES))
def test_gate_passes_against_itself(name, docs):
    doc = json.loads(json.dumps(docs[name]))
    assert GATES[name].compare(doc, doc) == []
    assert GATES[name].summary(doc)


@pytest.mark.parametrize("name", list(GATES))
def test_gate_flags_every_pinned_field(name, docs):
    doc = json.loads(json.dumps(docs[name]))
    pins = _pins(name, doc)
    assert pins
    for path, fld in pins:
        violations = GATES[name].compare(doc, _perturb(doc, path, fld))
        assert any(fld in v for v in violations), (path, fld, violations)


@pytest.mark.parametrize("name", list(GATES))
def test_gate_cli_round_trip(name, cached_gates, tmp_path):
    base_dir = tmp_path / "baselines"
    out = tmp_path / "out"
    argv = ["--gate", name, "--baseline-dir", str(base_dir)]
    assert main(argv) == 2  # no baseline yet
    assert main(argv + ["--update"]) == 0
    assert [p.name for p in base_dir.iterdir()] == [GATES[name].baseline]
    assert main(argv + ["--out", str(out)]) == 0
    assert _load(out / f"{name}.json") \
        == json.loads(json.dumps(cached_gates[name]))

    # Perturb one pinned field of the baseline: the gate must fail.
    baseline = base_dir / GATES[name].baseline
    path, fld = _pins(name, cached_gates[name])[0]
    baseline.write_text(json.dumps(_perturb(_load(baseline), path, fld)))
    assert main(argv) == 1


def test_cli_gate_selection_is_exact(cached_gates, tmp_path):
    assert main(["--gate", "tail", "--gate", "chaos", "--update",
                 "--baseline-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted([GATES["chaos"].baseline, GATES["tail"].baseline])


def test_cli_rejects_unknown_gates_and_retired_flags():
    for argv in (["--gate", "nope"], ["--baseline", "x.json"],
                 ["--only-chaos"], ["--skip-tail"],
                 ["--chaos-baseline", "x.json"], ["--requests", "1"],
                 ["--throughput-repeat", "3"], ["--sample-rate", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_update_never_touches_the_checked_in_baselines(cached_gates,
                                                       tmp_path):
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
              for p in BASELINE_DIR.iterdir()}
    assert main(["--update", "--baseline-dir", str(tmp_path)]) == 0
    assert main(["--baseline-dir", str(tmp_path)]) == 0
    after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
             for p in BASELINE_DIR.iterdir()}
    assert after == before
    # The regenerated baselines are byte-identical to the committed
    # ones: every gate replays its pinned workload exactly.
    for gate in GATES.values():
        assert (tmp_path / gate.baseline).read_bytes() \
            == (BASELINE_DIR / gate.baseline).read_bytes(), gate.name


def test_throughput_runner_matches_baseline_shape(monkeypatch):
    _shrink_hot_loop(monkeypatch)
    monkeypatch.setattr(throughput, "INVOKE_WARMUP", 2)
    monkeypatch.setattr(throughput, "INVOKE_COUNT", 12)
    doc = run_throughput_gate()
    assert set(doc) == set(_load(BASELINE_DIR / "throughput.json"))
    assert doc["batched_matches_serial"] is True
    assert doc["repeat"] == 3


def test_ci_matrix_runs_every_registry_gate():
    text = CI_WORKFLOW.read_text(encoding="utf-8")
    match = re.search(r"^\s*gate:\s*\[([^\]]*)\]", text, re.MULTILINE)
    assert match, "regression-gates matrix not found"
    assert [g.strip() for g in match.group(1).split(",")] == list(GATES)
