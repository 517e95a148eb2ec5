"""Every simulated 50% delay is an answer of ``simulated_delay_50_batch``.

The scalar :func:`~repro.core.simulate.simulated_delay_50` is a batch
of one on every route, a batch answers each line as its own scalar
call would, the waveform of
:func:`~repro.core.simulate.simulated_step_waveform` gives the same
delay and tier record, and the repeater and EXP-E17 scorers that go
through it keep their exact values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.canonical import DriverLineLoad
from repro.core.repeater import (
    Buffer,
    RepeaterSystem,
    bakoglu_rc_design,
    optimal_rlc_design,
)
from repro.core.simulate import (
    simulated_delay_50,
    simulated_delay_50_batch,
    simulated_step_waveform,
)
from repro.experiments import eq17

#: Under-, near-critically and over-damped lines (zeta about 0.25, 1.2, 8).
LINES = (
    dict(rt=200.0, lt=1e-7, ct=1e-12, rtr=50.0),
    dict(rt=1000.0, lt=1e-7, ct=1e-12, rtr=200.0),
    dict(rt=2000.0, lt=1e-8, ct=1e-12, rtr=500.0),
)


@pytest.mark.parametrize("loaded", [True, False], ids=["loaded", "unloaded"])
@pytest.mark.parametrize("route", ["statespace", "tline", "mna"])
def test_scalar_is_batch_of_one(route, loaded):
    lines = [DriverLineLoad(**p, cl=2e-13 if loaded else 0.0) for p in LINES]
    # One tline query inverts the transfer function once per sample.
    options = dict(route=route, n_segments=40, n_samples=801)

    scalars = [simulated_delay_50(line, **options) for line in lines]
    assert all(type(t) is float for t in scalars)
    assert simulated_delay_50_batch(lines[:1], **options)[0] == scalars[0]
    batch = simulated_delay_50_batch(lines, **options)
    assert batch.dtype == np.float64
    assert batch.tolist() == scalars
    waveforms = [simulated_step_waveform(line, **options) for line in lines]
    assert [w.delay_50(v_final=1.0) for w in waveforms] == scalars


def _with_selections(query):
    """``query()`` and the ``rom.model_selected`` counters it recorded."""
    with obs.capture():
        value = query()
        entries = obs.REGISTRY.snapshot()["counters"].get("rom.model_selected", [])
    obs.reset()
    return value, {
        (entry["labels"]["model"], entry["labels"]["rule"]): entry["value"]
        for entry in entries
    }


@pytest.mark.parametrize("model", ["auto", "reduced"])
def test_mna_waveform_and_delay_share_tier(model):
    """The Table 1 line of the ``simulated_delay_50`` doctest on ``mna``:
    the waveform is served by the same tier as the delay query, and its
    50% crossing is the delay."""
    line = DriverLineLoad(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
    options = dict(route="mna", n_segments=100, n_samples=1201, model=model)

    delay, delay_tier = _with_selections(lambda: simulated_delay_50(line, **options))
    waveform, waveform_tier = _with_selections(
        lambda: simulated_step_waveform(line, **options)
    )
    assert delay_tier and waveform_tier == delay_tier
    assert waveform.delay_50(v_final=1.0) == delay


def test_repeater_totals_keep_their_values():
    """``total_delay_simulated`` of the 50 mm clock spine (T_L/R = 5).

    The same ladders stepped in SI units with an 80-bit (long double)
    Taylor ``expm`` give 1.6786121455842989e-09 and
    1.5732264229733499e-09: both pins are within 2e-14 of them.
    """
    line = DriverLineLoad(rt=500.0, lt=125e-9, ct=10e-12)
    buffer = Buffer(r0=5000.0, c0=1e-14)
    system = RepeaterSystem(line, buffer)
    assert system.total_delay_simulated(bakoglu_rc_design(line, buffer)) == (
        1.6786121455843098e-09
    )
    assert system.total_delay_simulated(optimal_rlc_design(line, buffer)) == (
        1.5732264229733782e-09
    )


def test_eq17_simulated_increase_keeps_its_value():
    assert eq17.simulated_delay_increase(3.0, n_segments=20, n_samples=801) == (
        4.2201189963900365
    )
