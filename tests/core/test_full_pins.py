"""History-digest and event-count pins for full-mode training.

Full mode sends real parameter and gradient arrays through the same
message path as timing mode, then trains on them. These pins freeze
one small full-mode run per algorithm (``small_full_config``): the
digest covers the whole training history — accuracies, losses,
virtual times, iteration count, wire bytes and messages — so a change
in delivery order, payload routing or numerics shows up here, while the
event count catches a scheduling change that happens to leave the
numbers alone. The contract matches ``tests/sim/test_engine_pins.py``:
a mismatch is a behaviour change, never something to re-pin silently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import DistributedRunner
from tests.conftest import small_full_config

# (history digest, events_processed) per algorithm.
FULL_PINS = {
    "bsp": ("26111be3eab4c4097608dbe0ea4098afb41d091f23bcf5abdb6bee3b41d3b704", 594),
    "asp": ("c2e945b979bded6f2326c6161845284f3f42f47dd1d2d83f8142289c376e3a4f", 574),
    "ssp": ("184cca45425066cdb95418dc4d49fb2973fd783d5ca8fb21b7dd369644628239", 654),
    "easgd": ("a1bee5471c458e5c1619bd096cbfea07f30390d41079e7261323b2e341580ecd", 136),
    "ar-sgd": ("d6ad2e1e97599989cd1ab4d5b1dc1a0e2638a1f9ab5a4d715fe9e5bb855d2672", 1694),
    "gosgd": ("4fdfc70d4dc07994b1a827f119462a084a26a5ad2f6bb109f938662e4c42e172", 91),
    "ad-psgd": ("870256233cef538f4a1dbe535ace527f8dc0315c32248cc022bae99d4e3e8812", 335),
}


def history_digest(history) -> str:
    return hashlib.sha256(
        json.dumps(history.to_dict(), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(FULL_PINS))
def test_full_mode_pinned_history_and_event_count(algorithm: str):
    expected_digest, expected_events = FULL_PINS[algorithm]
    runner = DistributedRunner(small_full_config(algorithm))
    history = runner.run()
    assert history_digest(history) == expected_digest, (
        f"{algorithm}: full-mode history digest changed — training is no "
        "longer bit-identical"
    )
    assert runner.engine.events_processed == expected_events, (
        f"{algorithm}: events_processed {runner.engine.events_processed} != "
        f"{expected_events} — same history via different scheduling"
    )
