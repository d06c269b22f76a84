"""Exact information quantities on small finite protocols.

Everything is reported in bits; where a bound is native to natural logs the
ln(2) factor is kept explicit at the API boundary.  The joint table and the
information cost read their probabilities off `core.protocol_tree`, which
also checks mu and enforces the enumeration guard (`core.ENUMERATION_GUARD`).
The walk yields one tree level at a time: reaches as (node x input pair)
arrays, intents per (node x own input value) with the pair -> value column
map.  So the information cost is a handful of array reductions per level.
On a level where every reach is positive, the weights are the raveled reach
and the entropies and divergences are evaluated once per (node, own value),
then expanded to pairs; on any other level, at the positive entries.  The
scalar `binary_entropy` and `kl_bernoulli` remain for single values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvariantViolation,
    ParameterError,
    ProtocolSpec,
    SpecError,
    node_prefixes,
    protocol_tree,
)

LN2 = math.log(2.0)


def binary_entropy(p: float) -> float:
    """h(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def kl_bernoulli(p: float, q: float) -> float:
    """D(p || q) in bits; infinite when absolute continuity fails."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ParameterError("arguments must be probabilities")
    if (p > 0.0 and q == 0.0) or (p < 1.0 and q == 1.0):
        return math.inf
    total = 0.0
    if p > 0.0:
        total += p * math.log2(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return total


_SMALLEST_NORMAL = np.finfo(float).smallest_normal
_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise on [0, 1], with 0 ln 0 = 0 (-scipy.special.entr)."""
    return x * np.log(np.maximum(x, _SMALLEST_SUBNORMAL))


def _rel_entr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x ln(x / y) elementwise on [0, 1] (scipy.special.rel_entr): 0 where
    x = 0, inf where x > 0 = y.

    ln(x / y) is log1p of |x - y| over the smaller argument, signed like
    x - y: the log of the rounded ratio would lose the digits near x = y."""
    d = x - y
    lo = np.minimum(x, y)
    # Normal arguments take the first return.  Sending them through the
    # masked form below too cut info_cost ops_per_s by about 12%
    # (BENCH_36.json): the kernels run on every level of every tree.
    if lo.min(initial=1.0) >= _SMALLEST_NORMAL:
        return x * np.copysign(np.log1p(np.abs(d) / lo), d)
    # A zero or subnormal argument.  Where |d| / lo overflows, ln(x / y)
    # is the difference of the logs; x = 0 gives 0 whatever y is.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = x * np.copysign(np.log1p(np.abs(d) / lo), d)
        t = np.where(np.isfinite(t), t, x * (np.log(x) - np.log(y)))
    return np.where(x == 0.0, 0.0, t)


def _entropy(p: np.ndarray) -> np.ndarray:
    """Elementwise binary_entropy."""
    return (_xlogx(p) + _xlogx(1.0 - p)) / -LN2


def _divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise kl_bernoulli."""
    return (_rel_entr(p, q) + _rel_entr(1.0 - p, 1.0 - q)) / LN2


def _row_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=1)`, bit for bit.  Below 8 columns numpy's pairwise sum
    adds a row left to right, as column additions do, and on a tall array
    those are several times faster; on a short one the single call is."""
    if a.shape[1] >= 8 or len(a) < 64:
        return np.add.reduce(a, 1)
    total = a[:, 0]
    for j in range(1, a.shape[1]):
        total = total + a[:, j]
    return total


def uniform_inputs(spec: ProtocolSpec) -> dict:
    """Uniform product distribution over the declared input domains."""
    w = 1.0 / (len(spec.alice_inputs) * len(spec.bob_inputs))
    return {(x, y): w for x in spec.alice_inputs for y in spec.bob_inputs}


@dataclass
class FiniteJoint:
    """Exact joint table over (x, y, transcript) for one protocol and mu."""

    table: dict[tuple, float]
    rounds: int

    @classmethod
    def from_protocol(cls, spec: ProtocolSpec, mu: dict) -> "FiniteJoint":
        pairs = [pair for pair, w in mu.items() if w > 0.0]
        for ids, reach, *_ in protocol_tree(spec, mu):
            pass  # the leaf level comes last
        rows, cols = np.nonzero(reach > 0.0)
        leaves = node_prefixes(spec.rounds, ids)
        table = {
            (*pairs[j], leaves[i]): pr
            for i, j, pr in zip(rows.tolist(), cols.tolist(), reach[rows, cols].tolist())
        }
        total, mass = sum(table.values()), sum(mu.values())
        if abs(total - mass) > 1e-9:
            raise InvariantViolation(f"joint table sums to {total}, but mu to {mass}")
        return cls(table, spec.rounds)


@dataclass(frozen=True)
class InfoCostResult:
    """External information cost via three independent computation routes.

    `bits` is the direct mutual information with the full transcript,
    `chain_bits` sums the per-round conditional informations, and
    `divergence_bits` sums the per-round expected divergences between the
    speaker's parameter and the public posterior.  The three must agree.
    """

    bits: float
    chain_bits: float
    divergence_bits: float
    per_round: tuple[float, ...]


def external_info_cost(phi: ProtocolSpec, mu: dict) -> InfoCostResult:
    """Exact IC of a noiseless protocol: what the transcript tells an observer.

    One walk of the prefix tree feeds all three routes: each interior level
    gives its chain-rule and divergence terms, the leaf level the joint
    matrix of the direct route.  Private coins (Bernoulli nodes) are
    marginalized by construction; zero-weight branches are pruned.
    """
    if phi.crossover is not None:
        raise SpecError("information cost is computed for noiseless protocols")
    chain = [0.0] * phi.rounds
    div = [0.0] * phi.rounds
    for level, (_, reach, intent, _, columns) in enumerate(protocol_tree(phi, mu)):
        p_prefix = _row_sums(reach)
        # On a full level every reach is positive and the weights are the
        # raveled reach; otherwise only the positive entries are weighted.
        full = np.minimum.reduce(reach, None) > 0.0
        if full:
            w = reach.ravel()
        else:
            rows, cols = np.nonzero(reach > 0.0)
            w = reach[rows, cols]
        if intent is None:
            p_pair = reach.sum(axis=0)
            if full:
                joint = (p_pair * p_prefix[:, None]).ravel()
            else:
                joint = p_pair[cols] * p_prefix[rows]
            bits = float(np.dot(w, np.log2(w / joint)))
            break
        q = _row_sums(reach * intent[:, columns]) / p_prefix
        if full:
            # Entropy and divergence per (node, own value), then per pair.
            h_r = _entropy(intent)[:, columns].ravel()
            d_rq = _divergence(intent, q[:, None])[:, columns].ravel()
        else:
            r = intent[rows, columns[cols]]
            h_r = _entropy(r)
            d_rq = _divergence(r, q[rows])
        chain[level] = float(np.dot(p_prefix, _entropy(q)) - np.dot(w, h_r))
        div[level] = float(np.dot(w, d_rq))
    return InfoCostResult(
        bits=bits,
        chain_bits=sum(chain),
        divergence_bits=sum(div),
        per_round=tuple(chain),
    )


def ine_bounds(p: float, q: float) -> tuple[float, float]:
    """Quadratic sandwich around ln(2) * D(p || q) over the two outcomes.

    lower = sum_x delta^2 / (2 max(...)), upper = sum_x delta^2 / q_x, and
    lower <= ln(2) * D(p || q) <= upper.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError("the reference parameter must be interior")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be a probability")
    delta = p - q
    lower = delta**2 / (2.0 * max(p, q)) + delta**2 / (2.0 * max(1.0 - p, 1.0 - q))
    upper = delta**2 / q + delta**2 / (1.0 - q)
    return lower, upper


# Constants materialized from the four-region divergence analysis.  The
# region with large p and tiny q needs sup_{p >= 0.02} h(p)/p, attained at
# p = 0.02; the often-quoted log(100) is an under-estimate of that supremum,
# so the honest constant below is what the verification grids can support.
_C_LOG3 = 1.0 - 1.0 / math.log2(3.0)
_H_RATIO_SUP = binary_entropy(0.02) / 0.02
_C_LOG_Q = 1.0 - _H_RATIO_SUP / math.log2(200.0)


def table1_bound(p: float, q: float) -> tuple[str, float]:
    """Explicit divergence lower bound and its region label.

    Regions follow the sampler's dispatch order; every returned value
    satisfies D(p || q) >= bound on the whole region.
    """
    if not 0.0 < q < 1.0 or not 0.0 <= p <= 1.0:
        raise ParameterError("need 0 < q < 1 and p in [0, 1]")
    if p <= 2.0 * q:
        return "p <= 2q", (p - q) ** 2 / (4.0 * q * LN2)
    if p < 0.02 and q < 0.01:
        if p > 3.0 * q:
            bound = _C_LOG3 * p * math.log2(p / q)
        else:
            bound = (p - q) ** 2 / (2.0 * p * LN2)
        return "2q < p < 0.02, q < 0.01", bound
    if q >= 0.01:
        return "2q < p, q >= 0.01", (p - q) ** 2 / (2.0 * p * LN2)
    if q <= 0.005:
        bound = _C_LOG_Q * p * math.log2(1.0 / q)
    else:
        bound = p / (8.0 * LN2)
    return "p >= 0.02, q < 0.01", bound
