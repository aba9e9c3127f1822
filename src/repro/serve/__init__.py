"""Long-lived serving: the content-keyed result-caching daemon.

``repro serve`` amortizes extraction across repeat traffic: requests are
keyed by the content digest of the input matrix plus a canonicalized
config digest, hits replay the memoized result with zero kernel launches
(bit-identical to the cold run), identical concurrent misses share one
pipeline run, and distinct cold misses inside the batch window share one
set of kernel launches through :func:`repro.batch.extract_linear_forest_batch`.

* :mod:`~repro.serve.server` — :class:`ReproServer`, the line-delimited
  JSON request loop, key derivation and request canonicalization.
* :mod:`~repro.serve.result_cache` — :class:`ResultCache`, the LRU
  byte-budgeted content-keyed store with atomic persistence.
* :mod:`~repro.serve.session` — :class:`RequestSession`, per-request
  ``repro.obs/v1`` spans + metrics folded into a run report per response.

See ``docs/SERVING.md`` for the protocol and cache contract.
"""

from .result_cache import RESULTS_SCHEMA, ResultCache, ServeWarning, payload_nbytes
from .server import (
    PROTOCOL,
    ReproServer,
    ServeConfig,
    canonical_config,
    config_digest,
    load_matrix,
    request_key,
)
from .session import RequestSession

__all__ = [
    "PROTOCOL",
    "RESULTS_SCHEMA",
    "ReproServer",
    "RequestSession",
    "ResultCache",
    "ServeConfig",
    "ServeWarning",
    "canonical_config",
    "config_digest",
    "load_matrix",
    "payload_nbytes",
    "request_key",
]
