"""Acceptance gate: one test per contract criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

Run: pytest tests/test_acceptance.py -s
"""

import filecmp
import subprocess
import sys

import pytest

from crossarray.demo import run_demo


@pytest.fixture(scope="module")
def checks():
    """The demo's check results by name; each criterion asserts on one."""
    return {result.name: result for result in run_demo()}


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _report_check(criterion: str, result) -> None:
    timing = "" if result.timing_s is None else f", runtime {result.timing_s:.2f}s"
    _report(f"{criterion} ({result.name})", result.passed, result.detail + timing)


def test_criterion_1_exact_3d_distance_on_all_noise_free_scenarios(checks):
    _report_check("criterion 1", checks["3d-distance-exactness"])


def test_criterion_2_1d_model_fails_on_3d_sway(checks):
    _report_check("criterion 2", checks["1d-model-contrast"])


def test_criterion_3_regime_collapse(checks):
    _report_check("criterion 3", checks["regime-collapse"])


def test_criterion_4_disembodied_optics_are_scale_blind(checks):
    _report_check("criterion 4", checks["optics-scale-blindness"])


def test_criterion_5_slope_invariant(checks):
    _report_check("criterion 5", checks["slope-invariant"])


def test_criterion_6_simulation_is_detected(checks):
    _report_check("criterion 6", checks["replay-detection"])


def test_criterion_7_differencing_convergence_order(checks):
    _report_check("criterion 7", checks["differencing-convergence"])


def test_criterion_8_demo_is_byte_deterministic(tmp_path):
    trees = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "crossarray.cli", "demo",
             "--out-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        trees.append(out)
    files_a = sorted(p.relative_to(trees[0])
                     for p in trees[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(trees[1])
                     for p in trees[1].rglob("*") if p.is_file())
    same_layout = files_a == files_b
    mismatched = [str(f) for f in files_a
                  if not filecmp.cmp(trees[0] / f, trees[1] / f, shallow=False)]
    _report("criterion 8 (deterministic demo)",
            same_layout and not mismatched,
            f"{len(files_a)} files, identical trees"
            + ("" if not mismatched else f"; mismatches: {mismatched}"))
