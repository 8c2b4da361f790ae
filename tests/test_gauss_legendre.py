"""The quadrature's 15-point Gauss-Legendre rule, recomputed at 50 digits."""

from mpmath import cos, libmp, mp, mpf, pi

from logser.quadrature import _NODES, _WEIGHTS

N = 15


def _legendre(x):
    """P_N(x) and P_N'(x) by the three-term recurrence."""
    prev, cur = mpf(1), x
    for k in range(2, N + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, N * (x * cur - prev) / (x * x - 1)


def _rounded(x) -> float:
    # to_float's default round_fast is not round-to-nearest
    return libmp.to_float(x._mpf_, rnd=libmp.round_nearest)


def _rule():
    """Non-negative nodes in increasing order, with their weights."""
    nodes, weights = [], []
    with mp.workdps(50):
        for i in range(1, (N + 1) // 2 + 1):
            x = cos(pi * (i - mpf(1) / 4) / (N + mpf(1) / 2))
            for _ in range(100):
                p, dp = _legendre(x)
                step = p / dp
                x -= step
                if abs(step) < mpf(10) ** -45:
                    break
            p, dp = _legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes[::-1], weights[::-1]


def test_literals_are_the_correctly_rounded_rule():
    nodes, weights = _rule()
    half = N // 2
    # P_N is odd, so the middle node is 0 exactly
    assert _NODES[half] == 0.0
    assert abs(nodes[0]) < mpf(10) ** -40
    assert list(_NODES[half + 1:]) == [_rounded(x) for x in nodes[1:]]
    assert list(_WEIGHTS[half:]) == [_rounded(w) for w in weights]


def test_rule_is_symmetric():
    assert len(_NODES) == len(_WEIGHTS) == N
    assert _NODES == tuple(-x for x in reversed(_NODES))
    assert _WEIGHTS == _WEIGHTS[::-1]
    assert list(_NODES) == sorted(_NODES)
