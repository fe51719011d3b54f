"""Pluggable SLO mechanisms: Silo and the baselines it competes against.

The paper's evaluation (§6) compares Silo's guarantees against schemes
that attack the same tail-latency problem from different angles.  This
package makes that comparison a first-class axis of the repo: each
mechanism configures the *whole* stack -- hypervisor pacing, transport
behavior, queue discipline, control loops -- behind one
:class:`~repro.mechanisms.base.Mechanism` interface that scenario
construction consumes, so ``repro trace --mechanism eyeq`` and the
``mechanism-compare`` campaign swap entire mechanisms, not flags.

Registered mechanisms: ``silo`` (pacing + priorities + admission),
``swp`` (speculative duplicates), ``eyeq`` (distributed hose congestion
control), ``none`` (plain TCP), and the paper's other section 6.2
baselines ``dctcp``, ``hull``, ``okto`` and ``okto+``.  See
docs/MECHANISMS.md for a tour and DESIGN.md ("Competing mechanisms")
for the design rationale.
"""

from repro.mechanisms.base import (
    MECHANISMS,
    Mechanism,
    get_mechanism,
    mechanism_names,
    register_mechanism,
)
from repro.mechanisms import baselines  # noqa: F401  (registers four)
from repro.mechanisms.eyeq import (
    DEFAULT_FEEDBACK_INTERVAL,
    EyeQController,
    EyeQMechanism,
)
from repro.mechanisms.silo import NoneMechanism, SiloMechanism
from repro.mechanisms.swp import SwpMechanism

__all__ = [
    "DEFAULT_FEEDBACK_INTERVAL",
    "EyeQController",
    "EyeQMechanism",
    "MECHANISMS",
    "Mechanism",
    "NoneMechanism",
    "SiloMechanism",
    "SwpMechanism",
    "get_mechanism",
    "mechanism_names",
    "register_mechanism",
]
