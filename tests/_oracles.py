"""Independent oracles shared across the test suite.

These deliberately avoid the library's forward/backward internals where the
point is to check them: finite differences only call the forward pass, the
straight-line MLP passes are from-scratch numpy transcriptions, and the dominance
oracle is a direct pairwise scan.  The coefficient-trace and static-scalarization
helpers are what the tests read of a run or a quadratic pair; no run path needs them.
The two-pass record writers format every trace float twice, as the record
document and as the trace file, which the one-pass writers must match byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ngdiff import EvalResult, LabeledBatch, MethodSpec, parameter_vector
from ngdiff.autodiff import _adopt_vector
from ngdiff.bench import mlp_factory
from ngdiff.engine import RUN_COUNTERS, TRACE_COLUMNS


def segments(widths) -> list:
    """``(name, shape)`` of each weight ``w<i>`` and bias ``b<i>`` of a tanh MLP of ``widths``,
    in the order of its flat parameter vector."""
    out = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), start=1):
        out += [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    return out


def segment(widths, data: np.ndarray, name: str) -> np.ndarray:
    """The ``name`` weight or bias of a tanh MLP of ``widths`` in its flat ``data``, as a shaped view."""
    offset = 0
    for seg, shape in segments(widths):
        size = math.prod(shape)
        if seg == name:
            return data[offset : offset + size].reshape(shape)
        offset += size
    raise KeyError(name)


def forward(graph, params: np.ndarray, batch) -> float:
    """The mean cross-entropy of a lone pass of ``graph`` over one labeled batch."""
    return graph.run(params, graph.bind(batch))[0]


def fd_gradient(graph, params: np.ndarray, batch, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the graph loss, forward passes only."""
    out = np.zeros(params.size)
    for i in range(params.size):
        bump = np.zeros(params.size)
        bump[i] = eps
        lp = forward(graph, parameter_vector(params + bump), batch)
        lm = forward(graph, parameter_vector(params - bump), batch)
        out[i] = (lp - lm) / (2.0 * eps)
    return out


def gradient(values) -> np.ndarray:
    """A gradient as the library hands one on: a read-only flat float64 copy of ``values``, proved finite."""
    with np.errstate(over="ignore"):
        return _adopt_vector(np.array(np.ravel(values), dtype=np.float64), "gradient")


def assert_matches_fd(graph, params, batch, grad: np.ndarray, rel: float = 1e-5, floor: float = 1e-8):
    fd = fd_gradient(graph, params, batch)
    err = np.abs(grad - fd)
    tol = np.maximum(floor, rel * np.abs(fd))
    worst = np.max(err - tol)
    assert np.all(err <= tol), f"gradient mismatch beyond tolerance by {worst:g}"


def straight_line_mlp_loss(widths, params: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Independent re-derivation of the tanh-MLP cross-entropy forward pass."""
    h = features
    n_layers = len(widths) - 1
    for i in range(1, n_layers + 1):
        w = segment(widths, params, f"w{i}")
        b = segment(widths, params, f"b{i}")
        h = h @ w + b
        if i < n_layers:
            h = np.tanh(h)
    m = h.max(axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(h - m), axis=1, keepdims=True))
    logprob = h[np.arange(h.shape[0]), labels] - lse[:, 0]
    return float(-np.mean(logprob))


def straight_line_mlp_grad(widths, params: np.ndarray, features, labels, dlp=None) -> np.ndarray:
    """Independent reverse pass of the tanh MLP, in the order of a plain tape.

    Its reductions are numpy's plain ``sum`` calls, so it is the reference
    for the kernel's faster forms of them.  Without ``dlp`` it differentiates the mean cross-entropy; with ``dlp`` it
    pulls back the given gradient w.r.t. the true-label log-probabilities.
    """
    n_layers = len(widths) - 1
    hs = [features]
    for i in range(1, n_layers + 1):
        w = segment(widths, params, f"w{i}")
        h = hs[-1] @ w + segment(widths, params, f"b{i}")
        hs.append(np.tanh(h) if i < n_layers else h)
    logits = hs[-1]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    if dlp is None:
        g = (probs - onehot) * (1.0 / len(labels))
    else:
        g = np.asarray(dlp).reshape(-1, 1) * (onehot - probs)
    grads = {}
    for i in range(n_layers, 0, -1):
        grads[f"b{i}"] = g.sum(axis=0)
        grads[f"w{i}"] = hs[i - 1].T @ g
        if i > 1:
            g = (1.0 - hs[i - 1] * hs[i - 1]) * (g @ segment(widths, params, f"w{i}").T)
    return np.concatenate([grads[name].ravel() for name, _ in segments(widths)])


def random_mlp_case(seed: int):
    """Random small tanh MLP with a random batch, deterministic in ``seed``."""
    rng = np.random.default_rng([seed, 77])
    depth = int(rng.integers(1, 4))
    widths = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    graph, params = mlp_factory(seed, widths)
    n = int(rng.integers(2, 7))
    features = rng.standard_normal((n, widths[0]))
    labels = rng.integers(0, widths[-1], size=n)
    batch = LabeledBatch(features, labels, widths[-1])
    # move off the zero-bias init so every layer sees generic values
    params = parameter_vector(params + 0.1 * rng.standard_normal(params.size))
    return graph, params, batch


def brute_force_front(points):
    """Quadratic-scan dominance oracle over (retain_loss, forget_loss) pairs."""
    front = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            if (
                q.retain_loss <= p.retain_loss
                and q.forget_loss >= p.forget_loss
                and (q.retain_loss < p.retain_loss or q.forget_loss > p.forget_loss)
            ):
                dominated = True
                break
        if not dominated:
            front.append(p)
    return front


def method_spec(kind: str, **fields) -> MethodSpec:
    """The method holder of ``kind`` as a parsed config holds it: a field not given is None."""
    return MethodSpec(**{**dict.fromkeys(MethodSpec._fields), "kind": kind, **fields})


def coefficient_trace(outputs) -> list[float]:
    """Extract the per-step coefficient sequence from combiner outputs."""
    trace = [float(getattr(o, "coefficient", o)) for o in outputs]
    if not trace:
        raise ValueError("empty coefficient trace")
    return trace


def tail_variation(trace, window: int = 50) -> float:
    """Max |c_t - c_{t-1}| over the last ``window`` steps (0 for constant tails)."""
    cs = coefficient_trace(trace)
    tail = cs[-(window + 1) :]
    if len(tail) < 2:
        return 0.0
    return max(abs(b - a) for a, b in zip(tail, tail[1:]))


def lsp_value(problem, theta, c: float) -> float:
    """Static scalarization ``c * L_retain - (1 - c) * L_forget`` of a quadratic pair."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("scalarization weight c must lie in [0, 1]")
    return c * problem.retain_loss(theta) - (1.0 - c) * problem.forget_loss(theta)


def lsp_gradient(problem, theta, c: float) -> np.ndarray:
    if not 0.0 <= c <= 1.0:
        raise ValueError("scalarization weight c must lie in [0, 1]")
    return c * problem.retain_grad(theta) - (1.0 - c) * problem.forget_grad(theta)


def _num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_cell(x):
    """A trace cell as record.json holds it: an int as is, a float as a number or None."""
    return x if isinstance(x, int) else _num(x)


def _csv_cell(x) -> str:
    """A trace cell as trace.csv holds it: an int in decimal, a float as its repr."""
    return "%d" % x if isinstance(x, int) else repr(x)


def record_to_dict(record) -> dict:
    """The ``record.json`` document of ``record``, a non-finite float as None."""
    return {
        "schema": record.schema,
        "config": record.config,
        "trace_columns": list(TRACE_COLUMNS),
        "trace": [[_json_cell(x) for x in row] for row in record.rows],
        **{key: getattr(record, key) for key in RUN_COUNTERS},
        "final": {name: _num(x) for name, x in zip(EvalResult._fields, record.final)},
        "params_digest": record.params_digest,
    }


def record_to_json_two_pass(record) -> str:
    """``record.json`` as ``json.dumps`` writes the whole document."""
    return json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_trace_csv_two_pass(record, path) -> None:
    """``trace.csv``, every cell formatted on its own by its Python type."""
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(",".join(map(_csv_cell, row)) for row in record.rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
