"""Wire protocol of the compile/run server: JSON lines, stdlib only.

One request per line, one response per line, UTF-8 JSON. Requests carry an
``op`` (``run`` — the default — ``optimize``, ``stats``, ``ping``,
``health``, ``ready``, ``drain``, or ``shutdown``), a ``tenant`` label for
admission accounting, a workload named the same way the CLI names one
(``algorithm`` + ``dataset`` + ``scale``, ``iterations``), and an optional
``deadline_seconds`` budget. A ``run`` may name ``outputs``, a subset of
what the algorithm's script declares it returns (its ``output`` line;
all of them by default): any other name is refused before anything runs,
since a run keeps nothing else. Responses echo the request ``id`` and carry a
``status``: ``ok``, ``rejected`` (admission control; the ``error`` field
names one of :data:`REJECTION_REASONS` and ``retry_after`` is computed
from actual bucket/queue state), or ``error`` (bad request, failed
execution, or the typed ``deadline_exceeded``).

Result matrices travel as canonical little-endian C-order bytes. Every
output always reports a SHA-256 digest over ``dtype | shape | bytes``
(the bit-identity invariant is *checkable from the response alone*).
``return_values: true`` turns the response into a *frame*: the JSON line,
whose ``results[name]`` entries also carry ``shape``, ``dtype`` and
``nbytes``, followed at once by each output's ``nbytes`` raw bytes, in
``results`` order, with no separator and nothing after the last section.
The bytes hashed are the bytes sent. The client checks each announced
section (``nbytes == prod(shape) * itemsize`` of a fixed-size ``dtype``)
before it allocates, and leaves what it read under ``entry["data"]`` for
:func:`decode_array`. Every other request and response is one line.
:func:`array_digest` / :func:`digest_result` are shared with the tests
that pin server results against a direct ``Engine.run``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..algorithms import ALGORITHMS
from ..data import ALL_DATASET_NAMES
from ..engines import ENGINES

#: Operations a request may name.
OPS = ("run", "optimize", "stats", "ping", "shutdown", "drain", "health",
       "ready")

#: Typed reasons a ``rejected`` response may carry; every rejection names
#: exactly one of these in its ``error`` field.
REJECTION_REASONS = ("server_busy", "quota_exceeded", "rate_limited",
                     "draining")

#: Ceiling on a client-supplied ``deadline_seconds``.
MAX_DEADLINE_SECONDS = 86_400.0


class ProtocolError(ValueError):
    """A request that cannot be admitted: malformed or unknown fields."""


@dataclass
class Request:
    """One parsed client submission."""

    op: str = "run"
    id: object = None
    tenant: str = "anonymous"
    engine: str | None = None
    algorithm: str = "dfp"
    dataset: str = "cri1"
    scale: float = 0.5
    iterations: int = 10
    outputs: tuple[str, ...] = ()
    return_values: bool = False
    #: Per-request deadline in wall seconds (``None`` = server default).
    deadline_seconds: float | None = None
    raw: dict = field(default_factory=dict, repr=False)


def parse_request(payload: object) -> Request:
    """Validate one decoded JSON payload into a :class:`Request`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"request must be a JSON object, "
                            f"got {type(payload).__name__}")
    op = payload.get("op", "run")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    request = Request(op=op, id=payload.get("id"), raw=payload)
    tenant = payload.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
    request.tenant = tenant
    if op in ("stats", "ping", "shutdown", "drain", "health", "ready"):
        return request

    for name, known in (("engine", ENGINES), ("algorithm", ALGORITHMS),
                        ("dataset", ALL_DATASET_NAMES)):
        default = getattr(request, name)  # engine None: the server's own
        value = payload.get(name, default)
        if value != default and not (type(value) is str and value in known):
            raise ProtocolError(f"unknown {name} {value!r}; "
                                f"known: {', '.join(sorted(known))}")
        setattr(request, name, value)
    try:
        request.scale = float(payload.get("scale", 0.5))
        request.iterations = int(payload.get("iterations", 10))
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad scale/iterations: {error}") from None
    if not 0.0 < request.scale <= 4.0:
        raise ProtocolError(f"scale must be in (0, 4], got {request.scale}")
    if not 1 <= request.iterations <= 10_000:
        raise ProtocolError(
            f"iterations must be in [1, 10000], got {request.iterations}")
    outputs = payload.get("outputs", ())
    if not isinstance(outputs, (list, tuple)) \
            or not all(isinstance(o, str) for o in outputs):
        raise ProtocolError(f"outputs must be a list of names, got {outputs!r}")
    declared = ALGORITHMS[request.algorithm].outputs
    undeclared = [name for name in outputs if name not in declared]
    if undeclared:
        raise ProtocolError(
            f"outputs {', '.join(undeclared)} not declared by "
            f"{request.algorithm}, whose outputs are {', '.join(declared)}")
    request.outputs = tuple(outputs)
    request.return_values = values = payload.get("return_values", False)
    if not isinstance(values, bool):
        raise ProtocolError(f"return_values must be a boolean, got {values!r}")
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if isinstance(deadline, bool):
            raise ProtocolError(
                f"deadline_seconds must be a number, got {deadline!r}")
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"deadline_seconds must be a number, "
                f"got {deadline!r}") from None
        if not 0.0 < deadline <= MAX_DEADLINE_SECONDS:  # rejects NaN
            raise ProtocolError(
                f"deadline_seconds must be in (0, {MAX_DEADLINE_SECONDS}], "
                f"got {deadline}")
        request.deadline_seconds = deadline
    return request


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def canonical(array: np.ndarray) -> np.ndarray:
    """C-order little-endian array (ndim >= 1): one byte layout per value.
    An array already in that layout comes back as is, not as a copy."""
    array = np.asarray(array)
    return np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over ``dtype | shape | bytes`` of the canonical layout."""
    array = canonical(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.reshape(-1).view(np.uint8).data)
    return digest.hexdigest()


def digest_result(result, outputs) -> dict[str, str]:
    """Per-output digests of one RunResult (same function the server uses)."""
    return {name: array_digest(result.value(name)) for name in outputs}


def encode_array(array: np.ndarray) -> dict:
    """The header's fields for ``array`` and, under ``data``, its raw section:
    the canonical bytes, not copied (``memoryview.cast`` refuses size 0)."""
    array = canonical(array)
    return {"shape": list(array.shape), "dtype": array.dtype.str,
            "nbytes": array.nbytes,
            "data": array.reshape(-1).view(np.uint8).data}


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`: a view of ``payload["data"]``, not
    a copy, writable when that buffer is (a client's ``bytearray``)."""
    return np.frombuffer(payload["data"], dtype=np.dtype(payload["dtype"])) \
        .reshape(payload["shape"])


def rejection(request: Request, reason: str, retry_after: float) -> dict:
    """An admission-control rejection (429-style backpressure).

    ``reason`` is one of :data:`REJECTION_REASONS`; ``retry_after`` is the
    server's *computed* back-off suggestion (bucket refill time or
    estimated queue drain), floored at ``ServerConfig.retry_after_seconds``.
    """
    assert reason in REJECTION_REASONS, reason
    return {"id": request.id, "status": "rejected", "tenant": request.tenant,
            "error": reason, "retry_after": round(retry_after, 6)}


def deadline_exceeded(request: Request, deadline_seconds: float,
                      elapsed_seconds: float) -> dict:
    """The typed response for a request that outlived its deadline.

    ``status`` is ``error`` with the machine-matchable reason
    ``deadline_exceeded`` — unlike a rejection there is no point retrying
    the identical request without raising its budget, so no
    ``retry_after`` is suggested.
    """
    return {"id": request.id, "status": "error", "tenant": request.tenant,
            "error": "deadline_exceeded",
            "deadline_seconds": deadline_seconds,
            "elapsed_ms": round(elapsed_seconds * 1e3, 3)}


def error_response(request_id: object, message: str) -> dict:
    return {"id": request_id, "status": "error", "error": message}
