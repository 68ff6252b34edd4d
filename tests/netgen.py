"""Deterministic fixture generators shared across the test suite."""

from __future__ import annotations

import csv

import numpy as np
from hypothesis import strategies as st

from tradeshock import FLOW_IMPORT, TradeNetwork, TradeRecord, Trajectory

GRID = 2.0**-20  # all values multiples of this stay exactly representable


def codes_for(n: int) -> tuple[str, ...]:
    return tuple(f"E{i:03d}" for i in range(n))


def active_edges(net: TradeNetwork) -> list[tuple[str, str, float]]:
    """Active edges as (source, target, weight), in row-major order of the weight matrix."""
    return [
        (net.code_of(i), net.code_of(j), float(net.baseline_weights[i, j]))
        for i, j in np.argwhere(net.active_edge_mask).tolist()
    ]


def probe_edges(net: TradeNetwork, probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probes of elements as the ``(owner, tails, heads)`` arrays of ``DistanceEngine.without``.

    An edge probe removes that edge; a node removes its active out-edges and
    in-edges. ``owner[k]`` is the probe that removes edge ``tails[k] -> heads[k]``.
    """
    mask = net.active_edge_mask
    owner, tails, heads = [], [], []
    for probe, elements in enumerate(probes):
        for element in elements:
            if isinstance(element, str):
                i = net.index_of(element)
                out, into = np.flatnonzero(mask[i]).tolist(), np.flatnonzero(mask[:, i]).tolist()
                pairs = [(i, j) for j in out] + [(j, i) for j in into]
            else:
                pairs = [(net.index_of(element[0]), net.index_of(element[1]))]
            owner += [probe] * len(pairs)
            tails += [t for t, _ in pairs]
            heads += [h for _, h in pairs]
    return tuple(np.array(column, dtype=np.intp) for column in (owner, tails, heads))


def network_to_records(net: TradeNetwork) -> list[TradeRecord]:
    """Active edges of a network with a year as import-flow records (they round-trip)."""
    return [
        TradeRecord(net.year, reporter=target, partner=source, flow=FLOW_IMPORT, value=weight)
        for source, target, weight in active_edges(net)
    ]


def random_network(
    rng: np.random.Generator,
    n: int,
    p_edge: float = 0.5,
    w_low: float = 0.05,
    w_high: float = 10.0,
    year: int | None = None,
) -> TradeNetwork:
    """Random weighted digraph; weights continuous so ties never occur."""
    weights = np.zeros((n, n))
    mask = rng.random((n, n)) < p_edge
    np.fill_diagonal(mask, False)
    weights[mask] = rng.uniform(w_low, w_high, int(mask.sum()))
    return TradeNetwork(codes_for(n), weights, year=year)


def connected_random_network(
    rng: np.random.Generator, n: int, extra_p: float = 0.3, year: int | None = None
) -> TradeNetwork:
    """Random digraph containing a two-way ring, so it is strongly connected."""
    weights = np.zeros((n, n))
    for i in range(n):
        weights[i, (i + 1) % n] = rng.uniform(0.5, 10.0)
        weights[(i + 1) % n, i] = rng.uniform(0.5, 10.0)
    mask = rng.random((n, n)) < extra_p
    np.fill_diagonal(mask, False)
    mask &= weights == 0
    weights[mask] = rng.uniform(0.5, 10.0, int(mask.sum()))
    return TradeNetwork(codes_for(n), weights, year=year)


def complete_uniform_network(n: int, weight: float = 3.0) -> TradeNetwork:
    weights = np.full((n, n), weight)
    np.fill_diagonal(weights, 0.0)
    return TradeNetwork(codes_for(n), weights)


def star_network(n_leaves: int = 5, weight: float = 4.0) -> TradeNetwork:
    """Center exports to every leaf and imports from every leaf."""
    n = n_leaves + 1
    weights = np.zeros((n, n))
    weights[0, 1:] = weight
    weights[1:, 0] = weight / 2.0
    codes = ("CTR",) + tuple(f"LF{i}" for i in range(n_leaves))
    return TradeNetwork(codes, weights)


def two_cliques_bridge(
    clique: int = 4, heavy: float = 10.0, bridge: float = 0.25
) -> TradeNetwork:
    """Two complete subgraphs joined by a single weak directed bridge."""
    n = 2 * clique
    weights = np.zeros((n, n))
    for block in (slice(0, clique), slice(clique, n)):
        weights[block, block] = heavy
    np.fill_diagonal(weights, 0.0)
    weights[clique - 1, clique] = bridge
    return TradeNetwork(codes_for(n), weights)


def hub_network(n: int = 200, n_hubs: int = 8, seed: int = 7) -> TradeNetwork:
    """Hub-dominated synthetic trade network.

    A dense, heavily weighted hub core carries almost all long-range
    efficiency; periphery nodes form fully connected triples with light
    internal weights and attach to the two hubs their triple is assigned.
    Periphery nodes end up with clustering 1.0 (their four neighbors are
    pairwise linked), while hubs dominate every degree, strength, and
    path-based indicator.
    """
    rng = np.random.default_rng(seed)
    n_periphery = n - n_hubs
    if n_periphery % 3:
        raise ValueError("periphery size must be divisible by 3")
    codes = tuple(f"H{i:02d}" for i in range(n_hubs)) + tuple(
        f"P{i:03d}" for i in range(n_periphery)
    )
    weights = np.zeros((n, n))
    hub = slice(0, n_hubs)
    weights[hub, hub] = rng.uniform(200.0, 400.0, (n_hubs, n_hubs))
    np.fill_diagonal(weights, 0.0)
    for triple_start in range(n_hubs, n, 3):
        members = [triple_start, triple_start + 1, triple_start + 2]
        for a in members:
            for b in members:
                if a != b:
                    weights[a, b] = rng.uniform(1.0, 3.0)
        h1, h2 = rng.choice(n_hubs, size=2, replace=False)
        for m in members:
            for h in (int(h1), int(h2)):
                weights[h, m] = rng.uniform(40.0, 80.0)
                weights[m, h] = rng.uniform(20.0, 40.0)
    return TradeNetwork(codes, weights)


def grid_trajectory(rng: np.random.Generator, max_steps: int = 12) -> Trajectory:
    """Random shock-recovery trajectory whose values sit on a dyadic grid.

    Every NE value is k * 2^-20 with k an integer in [0, 2^20], so sums and
    differences of trajectory values are exact in double precision; the
    telescoping and additivity identities must then hold bit for bit. All
    post-baseline values stay at or below ne0, as on a real trajectory.
    """
    k0 = int(rng.integers(2**19, 2**20 + 1))

    def draw() -> float:
        return float(rng.integers(0, k0 + 1)) * GRID

    n_shock = int(rng.integers(1, max_steps + 1))
    n_recovery = int(rng.integers(1, max_steps + 1))
    ne = [k0 * GRID] + [draw() for _ in range(n_shock + n_recovery)]
    return Trajectory(tuple(ne), t_r=n_shock, batches=(), reference_mean_weight=1.0)


# The lines a drawn trade file mixes: valid rows, rows built from cells that
# may be malformed, and whole lines the parser must name as faults or skip.
_TRADE_HEADER = b"year,reporter,partner,flow,value_usd"
_VALID_CELLS = (
    ("2001", "2002"),
    ("USA", "CHN", "DEU", "JPN", "MÉX"),
    ("USA", "CHN", "DEU", "JPN", "MÉX"),
    ("import", "export"),
    ("5", "0.25", "1e3", "7"),
)
_FAULTY_CELLS = (
    ("2001", " 2002 ", "1800", "20x1", "", "2001.5"),
    ("USA", "CHN", "", " "),
    ("CHN", "DEU", "", " "),
    ("import", " Import ", "both", ""),
    ("5", "0", "0.0", "-3", "nan", "inf", "1e999", "1,5", "x", ""),
)
_FAULT_LINES = (
    b"",
    b"   ",
    b" , ,\t, , ",
    "\u3000,\u00a0".encode(),  # whitespace that is not ASCII
    b"2001,USA,CHN",
    b'2001,"USA"X,CHN,import,5',  # text after a closing quote
    b'2001,USA,CHN,import,"5',  # an unclosed quote runs on to the end of the file
    b"2001,C\xffN,USA,import,3",  # a byte that is not UTF-8
    b"\xff",
    b"2001,USA,CHN,import," + b"9" * (csv.field_size_limit() + 1),
)


def _cells(pools) -> st.SearchStrategy[bytes]:
    return st.tuples(*map(st.sampled_from, pools)).map(lambda row: ",".join(row).encode())


@st.composite
def trade_files(draw, max_rows: int = 8) -> bytes:
    """The bytes of a trade file: an optional byte-order mark, the header and drawn lines.

    Each line ends in LF, CRLF or CR, and the last may end in nothing.
    """
    valid = _cells(_VALID_CELLS)  # drawn twice as often as each fault
    line = st.one_of(valid, valid, _cells(_FAULTY_CELLS), st.sampled_from(_FAULT_LINES))
    lines = [_TRADE_HEADER, *draw(st.lists(line, max_size=max_rows))]
    end = st.sampled_from((b"\n", b"\r\n", b"\r"))
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = b""
    bom = draw(st.sampled_from((b"", b"\xef\xbb\xbf")))
    return bom + b"".join(text + end for text, end in zip(lines, ends))
