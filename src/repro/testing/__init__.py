"""Testing utilities shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection harness
used by the resilience test suite and the chaos smoke scenario: named
hook points inside the serving stack (registry builds, the scheduler drain
loop, artifact-cache loads) consult a process-global injector that tests arm
with exceptions, delays and trigger counts.  In production nothing is armed
and every hook is a single dict check.
"""

from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    bitflip_bytes,
    corrupt_file,
    fire,
    injector,
    mutate_payload,
    truncate_bytes,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "bitflip_bytes",
    "corrupt_file",
    "fire",
    "injector",
    "mutate_payload",
    "truncate_bytes",
]
