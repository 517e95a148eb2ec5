"""EXP-X6 benchmark: coupled-line crosstalk study (extension).

Times the full spacing sweep (each point = four MNA transients of the
two-line bus) and asserts the physical signatures.
"""

from __future__ import annotations

from repro.experiments import crosstalk_study


def test_bench_crosstalk(benchmark, record_table):
    table = benchmark.pedantic(crosstalk_study.run, rounds=1, iterations=1)
    record_table(table)
    noise_pos = table.column("noise+_%")
    noise_neg = table.column("noise-_%")
    # Capacitive glitch shrinks with spacing; some inductive dip remains.
    assert noise_pos[0] > noise_pos[-1]
    assert all(n < 0 for n in noise_neg)
    # Regime flip: odd slower than even at minimum pitch (Miller),
    # faster at the widest (loop inductance).
    first, last = table.rows[0], table.rows[-1]
    assert first[7] > first[6]   # odd > even at 0.6 um
    assert last[7] < last[6]     # odd < even at 4 um
