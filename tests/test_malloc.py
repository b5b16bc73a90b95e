"""The package's glibc malloc thresholds: a pipeline run that drops its
results leaves the freed heap mapped for the next run."""

import os
import platform
import subprocess
import sys

import pytest

import crossarray

glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                           reason="the thresholds are glibc's")

RUNS, COUNTED = 5, 3
# one 40,001-sample sway3d through the numerics, RUNS times, each run's
# results dropped; prints the minor faults of the last COUNTED runs
LOOP = f"""
import resource
from crossarray import (ScenarioConfig, constant_support, detect, generate,
                        project_and_estimate, slope_invariant)
cfg = ScenarioConfig(kind="sway3d", duration=400.0, sample_rate=100.0)

def run():  # frees all it made on return
    track = generate(cfg)
    optics, inertial, _ = project_and_estimate(track, cfg.scene_object)
    detect(optics, inertial)
    slope_invariant(inertial, constant_support(track.grid))

for _ in range({RUNS - COUNTED}):
    run()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({COUNTED}):
    run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def _faults_per_run(**malloc_env) -> float:
    env = {name: value for name, value in os.environ.items()
           if name not in crossarray.MALLOC_ENV and name != "GLIBC_TUNABLES"}
    env.update(malloc_env)
    out = subprocess.run([sys.executable, "-c", LOOP], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out) / COUNTED


@glibc
def test_freed_heap_is_not_faulted_in_again():
    # with glibc's dynamic thresholds each run faulted ~5,400 pages in
    assert _faults_per_run() < 300


@glibc
def test_the_environment_keeps_its_own_malloc_settings():
    # a trim threshold of 128 KiB hands the freed arrays back each run
    assert _faults_per_run(MALLOC_TRIM_THRESHOLD_="131072") > 1000
