"""Shared infrastructure for the benchmark harness.

Every bench writes its regenerated table/figure to
``benchmarks/results/<name>.txt`` via the ``record`` fixture; a terminal
summary hook replays them after the pytest-benchmark timing table, so
``pytest benchmarks/ --benchmark-only`` shows the paper-shaped outputs.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_session_outputs: list[Path] = []


@pytest.fixture()
def record():
    """Save a named table/figure and register it for the summary."""

    def _record(name: str, text: str) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text.rstrip() + "\n")
        _session_outputs.append(path)
        print(f"\n[{name}]\n{text}")
        return text

    return _record


@pytest.fixture()
def interleaved():
    """Time named callables in interleaved rounds: median and IQR each.

    ``run(paths, reps)`` calls every callable of ``paths`` once per
    round, in order, for ``reps`` rounds (at least 5), so a slow spell
    on the machine hits every path alike.  Returns ``{name: {"median_s",
    "q1_s", "q3_s", "iqr_s", "samples_s"}}``.
    """

    def _run(paths: dict[str, Callable[[], object]], reps: int = 7) -> dict:
        if reps < 5:
            raise ValueError(f"need at least 5 interleaved reps, got {reps}")
        samples: dict[str, list[float]] = {name: [] for name in paths}
        for _ in range(reps):
            for name, fn in paths.items():
                start = time.perf_counter()
                fn()
                samples[name].append(time.perf_counter() - start)
        summary = {}
        for name, times in samples.items():
            q1, median, q3 = statistics.quantiles(times, n=4)
            summary[name] = {
                "median_s": median,
                "q1_s": q1,
                "q3_s": q3,
                "iqr_s": q3 - q1,
                "samples_s": times,
            }
        return summary

    return _run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _session_outputs:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for path in _session_outputs:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", path.stem)
        terminalreporter.write_line(path.read_text().rstrip())
