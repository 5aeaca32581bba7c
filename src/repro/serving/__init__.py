"""The concurrent estimation service.

This subsystem turns the single-graph :class:`~repro.engine.session.EstimationSession`
into a multi-graph, multi-client serving layer:

* :class:`~repro.serving.registry.SessionRegistry` owns many named sessions
  keyed by graph digest + config hash, builds each lazily on first use behind
  a single-flight lock, and evicts by LRU under a session-count and/or byte
  budget;
* :class:`~repro.serving.scheduler.EstimateScheduler` coalesces individual
  estimate requests arriving within a short window into one
  ``estimate_batch`` call per session, with backpressure via a bounded queue
  and latency/throughput counters on a
  :class:`~repro.serving.scheduler.ServiceStats`;
* :mod:`repro.serving.http` / :mod:`repro.serving.client` are a stdlib JSON
  HTTP endpoint and client, drivable end-to-end via ``repro serve`` and
  ``repro client`` with no dependencies beyond the standard library.  The
  HTTP API is versioned under ``/v1/`` (see ``docs/API.md``);
* :class:`~repro.serving.prefork.PreforkServer` scales the endpoint across
  CPU cores: one parent forks N workers sharing the listening socket, each
  running the full handler/scheduler stack against read-only memory-mapped
  catalog artifacts (``repro serve --workers N``);
* :mod:`repro.serving.artifacts` is the directory-backed content-addressed
  artifact server (``repro artifact-server``) behind which a fleet shares
  build artifacts through :class:`~repro.engine.remote.RemoteArtifactStore`;
* :mod:`repro.serving.base` is the HTTP scaffold both servers subclass:
  keep-alive, request ids, the error envelope, the body cap and
  ``/metrics`` are defined there once.
"""

from repro.serving.artifacts import ArtifactHTTPServer, make_artifact_server
from repro.serving.client import ServiceClient
from repro.serving.http import API_PREFIX, EstimationHTTPServer, make_server
from repro.serving.prefork import PreforkServer
from repro.serving.registry import RegistryStats, SessionRegistry
from repro.serving.scheduler import EstimateScheduler, ServiceStats

__all__ = [
    "API_PREFIX",
    "ArtifactHTTPServer",
    "EstimateScheduler",
    "EstimationHTTPServer",
    "PreforkServer",
    "RegistryStats",
    "ServiceClient",
    "ServiceStats",
    "SessionRegistry",
    "make_artifact_server",
    "make_server",
]
