"""Reference figures quoted in README.md, outside the benchmark proper.

    python3 bench/reference.py

Prints the bare interpreter start-up, the cold ``phasemin bounds`` time, and
the ROADMAP baseline: in-process bounds math per call, a 400-point sweep
with one and two workers, a 4-D Gaussian restack at about 3.75 M cells
with its peak RSS, and the sampler's time per sample.  Each figure is the
median of a few repeats; BLAS is pinned to one thread as in run.py.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# pin BLAS before numpy loads it, as run.py does for its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from run import BENCH, SRC, child_env  # noqa: E402

REPEATS = 5


def wall(argv) -> float:
    times = []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def in_process(fn, repeats) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from phasemin import Moments, QuadraticPotential, SymplecticSampler
    from phasemin.energy import linear_gardner_energy, linear_gromov_energy, verify_map_optimality

    import checks

    work = Path(tempfile.mkdtemp(dir=BENCH, prefix="_reference-"))
    try:
        rng = np.random.default_rng(0)
        problem = work / "bounds.json"
        v, h = checks.random_spd(rng, 4, 0.5, 2.0), checks.random_spd(rng, 4, 0.5, 2.0)
        problem.write_text(json.dumps({
            "n": 2, "potential": {"V0": 0.0, "d": [0.0] * 4, "V": v.tolist()},
            "distribution": {"type": "gaussian", "weight": 1.0, "mean": [0.0] * 4,
                             "covariance": h.tolist()}}))
        print(f"bare interpreter start-up      {wall([sys.executable, '-c', 'pass']):.3f} s")
        cold = wall([sys.executable, "-m", "phasemin", "bounds", str(problem)])
        print(f"cold phasemin bounds (n = 2)   {cold:.3f} s")

        for n in (1, 2, 4, 8):
            v, h = checks.random_spd(rng, 2 * n, 0.5, 2.0), checks.random_spd(rng, 2 * n, 0.5, 2.0)
            m = Moments(1.0, np.zeros(2 * n), h)
            potential = QuadraticPotential(0.0, np.zeros(2 * n), v)

            def bounds_math():
                for report in (linear_gardner_energy(m, potential),
                               linear_gromov_energy(m, potential)):
                    verify_map_optimality(report, m, potential)

            print(f"bounds math in-process, n = {n}  {1e3 * in_process(bounds_math, 200):.3f} ms")

        spec = work / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "epsilon",
            "template": {"n": 1, "potential": {"V0": 0.0, "d": [0, 0],
                                               "V": [[1, 0], [0, "epsilon**2"]]},
                         "distribution": {"type": "gaussian", "weight": 1.0, "mean": [0, 0],
                                          "covariance": [[2, 0], [0, 0.5]]}},
            "range": {"start": 0.1, "stop": 3.0, "points": 400}}))
        for workers in (1, 2):
            seconds = wall([sys.executable, "-m", "phasemin", "sweep", str(spec),
                            "-o", str(work / "sweep.csv"), "--workers", str(workers)])
            print(f"sweep, 400 points, {workers} worker(s)  {seconds:.3f} s")

        restack = work / "restack.json"
        restack.write_text(json.dumps({
            "n": 2, "potential": {"V0": 0.0, "d": [0.0] * 4, "V": np.eye(4).tolist()},
            "distribution": {"type": "gaussian", "weight": 1.0, "mean": [0.0] * 4,
                             "covariance": (0.5 * np.eye(4)).tolist()},
            "box": {"lo": [-4.0] * 4, "hi": [4.0] * 4}}))
        code = ("import resource, sys, time; from phasemin.cli import main; "
                "t = time.perf_counter(); main(sys.argv[1:]); "
                "print(time.perf_counter() - t, "
                "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
        # 44 cells per axis: 44^4 = 3,748,096 cells
        out = subprocess.run([sys.executable, "-c", code, "restack", str(restack), "--levels",
                              "0", "--base-spacing", repr(8 / 44), "-o", str(work / "r.csv")],
                             env=child_env(), check=True, capture_output=True, text=True)
        seconds, rss = map(float, out.stdout.split())
        print(f"restack 4-D Gaussian, 3.75 M cells  {seconds:.3f} s, peak RSS {rss:.0f} MiB")

        sampler = SymplecticSampler(2, seed=0)
        batch = in_process(lambda: sampler.sample_batch(4096), 20)
        print(f"sampler, dof = 2, batch 4096   {1e3 * batch:.2f} ms "
              f"({1e6 * batch / 4096:.2f} us per sample)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
