"""Energy-storage dispatch benchmark generator.

Builds a transportation-network (no power-flow angles) grid with ramping
generators, capacity-limited lines, a fleet of storage devices and
regime-switching wind.  The post-decision resource state is the vector of
stored energies (one entry per device), carried between periods through the
storage balance rows; wind enters the right-hand side per regime.

All quantities are in MWh per period: power limits are multiplied by the
period length at build time.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .model import (
    MultistageProblem,
    ProcessKind,
    StageRealization,
    UncertaintyProcess,
    read_json,
    write_json,
)

PARAMS_FORMAT = "storage-params"
PARAMS_VERSION = 1


@dataclass
class StorageNetworkParams:
    n_nodes: int = 3
    n_lines: int = 3
    n_storage: int = 10
    n_generators: int = 2
    n_regimes: int = 3
    T: int = 24
    dt_minutes: float = 60.0
    p_stay: float = 0.91
    markov: bool = True  # False: stagewise-uniform regimes
    energy_capacity: float = 10.0  # MWh per device
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95
    power_limit: float = 5.0  # MW per device
    storage_cost: float = 0.5  # currency per MWh moved
    gen_capacity: float = 120.0  # MW per generator
    ramp_limit: float = 30.0  # MW deviation from baseline per period
    gen_cost: float = 20.0  # currency per MWh
    line_capacity: float = 60.0  # MW
    demand_scale: float = 50.0  # mean MW demand per node
    wind_scale: float = 30.0  # mean MW wind at a wind node
    shed_cost_factor: float = 1e4  # times the max generator cost
    initial_fill: float = 0.5  # starting fraction of energy capacity

    def violations(self) -> list[str]:
        out = []
        if not 0.0 < self.charge_efficiency <= 1.0:
            out.append("charge efficiency must lie in (0, 1]")
        if not 0.0 < self.discharge_efficiency <= 1.0:
            out.append("discharge efficiency must lie in (0, 1]")
        if not 0.0 < self.p_stay < 1.0:
            out.append("p_stay must lie in (0, 1)")
        for name in (
            "energy_capacity",
            "power_limit",
            "gen_capacity",
            "line_capacity",
            "demand_scale",
            "wind_scale",
        ):
            if getattr(self, name) < 0.0:
                out.append(f"{name} must be nonnegative")
        for name in ("n_nodes", "n_storage", "n_generators", "n_regimes", "T"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be at least 1")
        if self.n_regimes < 2 and self.markov:
            out.append("a Markov regime chain needs at least 2 regimes")
        if self.n_lines < self.n_nodes - 1:
            out.append("need at least n_nodes - 1 lines to connect the network")
        if not 0.0 <= self.initial_fill <= 1.0:
            out.append("initial_fill must lie in [0, 1]")
        # Peak gross demand must be coverable without wind or storage.
        if self.n_generators * self.gen_capacity < 1.3 * self.n_nodes * self.demand_scale:
            out.append(
                "total generation capacity is below 1.3x peak demand; "
                "relatively complete recourse is not guaranteed"
            )
        return out

    def check(self) -> None:
        """Raise ``ValueError`` naming every violation, if there is one."""
        bad = self.violations()
        if bad:
            raise ValueError("invalid storage params: " + "; ".join(bad))

    def to_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj: dict) -> "StorageNetworkParams":
        params = cls(**obj)
        for f in fields(cls):  # f.type is the annotation as text
            allowed = ("int", "float") if f.type == "float" else (f.type,)
            if type(getattr(params, f.name)).__name__ not in allowed:
                raise ValueError(f"{f.name} must be of type {f.type}")
        params.check()
        return params

    def save(self, path) -> None:
        write_json(path, PARAMS_FORMAT, PARAMS_VERSION, self.to_obj())


def load_params(path) -> StorageNetworkParams:
    return read_json(
        path, PARAMS_FORMAT, PARAMS_VERSION, "params", StorageNetworkParams.from_obj
    )


@dataclass
class _Network:
    lines: list[tuple[int, int]]
    gen_node: np.ndarray
    storage_node: np.ndarray
    wind_nodes: np.ndarray
    demand: np.ndarray  # (T, n_nodes) MWh per period
    baseline: np.ndarray  # (T, n_generators) MWh per period
    wind: np.ndarray  # (n_regimes, T, n_nodes) MWh per period
    gen_cost: np.ndarray
    storage_cost: np.ndarray
    caps: dict = field(default_factory=dict)


def _build_network(params: StorageNetworkParams, rng: np.random.Generator) -> _Network:
    p = params
    dh = p.dt_minutes / 60.0
    # Ring topology plus random chords.
    lines = [(i, (i + 1) % p.n_nodes) for i in range(min(p.n_nodes, p.n_lines))]
    if p.n_nodes == 1:
        lines = []
    while len(lines) < p.n_lines and p.n_nodes > 1:
        u, v = rng.integers(0, p.n_nodes, size=2)
        if u != v:
            lines.append((int(min(u, v)), int(max(u, v))))
    gen_node = np.arange(p.n_generators) % p.n_nodes
    storage_node = np.arange(p.n_storage) % p.n_nodes
    n_wind = max(1, p.n_nodes // 3)
    wind_nodes = np.arange(n_wind)

    hours = (np.arange(p.T) + 1) * dh
    diurnal = 0.75 + 0.25 * np.sin(2.0 * np.pi * hours / 24.0 - 0.5 * np.pi)
    node_weight = 0.8 + 0.4 * rng.random(p.n_nodes)
    demand = (
        p.demand_scale
        * dh
        * diurnal[:, None]
        * node_weight[None, :]
        * (1.0 + 0.05 * rng.standard_normal((p.T, p.n_nodes)))
    )
    demand = np.maximum(demand, 0.0)

    # Regime mean outputs: evenly spread levels with per-regime shape noise.
    levels = np.linspace(0.15, 1.0, p.n_regimes)
    profile = 0.7 + 0.3 * rng.random((p.T, len(wind_nodes)))
    wind = np.zeros((p.n_regimes, p.T, p.n_nodes))
    for i in range(p.n_regimes):
        shape = 1.0 + 0.1 * rng.standard_normal((p.T, len(wind_nodes)))
        wind[i][:, wind_nodes] = np.maximum(
            p.wind_scale * dh * levels[i] * profile * shape, 0.0
        )

    # Baselines track the wind-free share of demand.
    total_demand = demand.sum(axis=1)
    mean_wind = wind.mean(axis=0).sum(axis=1)
    residual = np.maximum(total_demand - mean_wind, 0.2 * total_demand)
    share = rng.dirichlet(np.full(p.n_generators, 5.0))
    baseline = residual[:, None] * share[None, :]
    baseline = np.minimum(baseline, 0.85 * p.gen_capacity * dh)

    gen_cost = p.gen_cost * (0.8 + 0.4 * rng.random(p.n_generators))
    # identical devices: fleet-level degeneracy is part of the benchmark
    storage_cost = np.full(p.n_storage, float(p.storage_cost))
    caps = {
        "energy": np.full(p.n_storage, float(p.energy_capacity)),
        "power": np.full(p.n_storage, float(p.power_limit) * dh),
        "line": np.full(len(lines), float(p.line_capacity) * dh),
        "ramp": np.full(p.n_generators, float(p.ramp_limit) * dh),
        "gen": np.full(p.n_generators, float(p.gen_capacity) * dh),
        "shed": 2.0 * demand.max(initial=1.0) * np.ones(p.n_nodes),
    }
    caps["spill"] = (
        caps["gen"].sum() + wind.max(initial=0.0) * p.n_nodes + caps["power"].sum()
    ) * np.ones(p.n_nodes)
    return _Network(
        lines=lines,
        gen_node=gen_node,
        storage_node=storage_node,
        wind_nodes=wind_nodes,
        demand=demand,
        baseline=baseline,
        wind=wind,
        gen_cost=gen_cost,
        storage_cost=storage_cost,
        caps=caps,
    )


def _stage_matrices(params: StorageNetworkParams, net: _Network, t: int):
    """Constraint matrix, linking matrix and cost for period t (1-based);
    the rhs is assembled per regime by the caller.

    Variable order: E, ch, dis, sE, sch, sdis, up, dn, sup, sdn,
    f+, f-, sf, shed, sshed, spill, sspill.
    Row order: storage balance (linking rows first), node balance, E cap,
    ch cap, dis cap, up cap, dn cap, line cap, shed cap, spill cap.
    """
    p = params
    ns, ng, nl, nn = p.n_storage, p.n_generators, len(net.lines), p.n_nodes
    eta_c = p.charge_efficiency
    eta_d = p.discharge_efficiency

    cols = {}
    offset = 0
    for name, width in (
        ("E", ns),
        ("ch", ns),
        ("dis", ns),
        ("sE", ns),
        ("sch", ns),
        ("sdis", ns),
        ("up", ng),
        ("dn", ng),
        ("sup", ng),
        ("sdn", ng),
        ("fp", nl),
        ("fm", nl),
        ("sf", nl),
        ("shed", nn),
        ("sshed", nn),
        ("spill", nn),
        ("sspill", nn),
        ("const", 1),  # pinned to 1; carries the baseline generation cost
    ):
        cols[name] = offset
        offset += width
    n = offset
    m = ns + nn + 3 * ns + 2 * ng + nl + 2 * nn + 1

    A = np.zeros((m, n))
    row = 0
    # Storage balance: -E + eta_c ch - dis/eta_d = -R_prev (rhs 0 - R_prev).
    for j in range(ns):
        A[row, cols["E"] + j] = -1.0
        A[row, cols["ch"] + j] = eta_c
        A[row, cols["dis"] + j] = -1.0 / eta_d
        row += 1
    node_row0 = row
    # Node balance: up - dn + flows + dis - ch + shed - spill = rhs.
    for node in range(nn):
        for g in range(ng):
            if net.gen_node[g] == node:
                A[row, cols["up"] + g] = 1.0
                A[row, cols["dn"] + g] = -1.0
        for l, (u, v) in enumerate(net.lines):
            if v == node:
                A[row, cols["fp"] + l] = 1.0
                A[row, cols["fm"] + l] = -1.0
            elif u == node:
                A[row, cols["fp"] + l] = -1.0
                A[row, cols["fm"] + l] = 1.0
        for j in range(ns):
            if net.storage_node[j] == node:
                A[row, cols["dis"] + j] = 1.0
                A[row, cols["ch"] + j] = -1.0
        A[row, cols["shed"] + node] = 1.0
        A[row, cols["spill"] + node] = -1.0
        row += 1

    def cap_rows(var: str, slack: str, caps: np.ndarray):
        nonlocal row
        for j in range(caps.shape[0]):
            A[row, cols[var] + j] = 1.0
            A[row, cols[slack] + j] = 1.0
            row += 1

    cap_rows("E", "sE", net.caps["energy"])
    cap_rows("ch", "sch", net.caps["power"])
    cap_rows("dis", "sdis", net.caps["power"])
    for g in range(ng):
        A[row, cols["up"] + g] = 1.0
        A[row, cols["sup"] + g] = 1.0
        row += 1
    for g in range(ng):
        A[row, cols["dn"] + g] = 1.0
        A[row, cols["sdn"] + g] = 1.0
        row += 1
    for l in range(nl):
        A[row, cols["fp"] + l] = 1.0
        A[row, cols["fm"] + l] = 1.0
        A[row, cols["sf"] + l] = 1.0
        row += 1
    cap_rows("shed", "sshed", net.caps["shed"])
    cap_rows("spill", "sspill", net.caps["spill"])
    A[row, cols["const"]] = 1.0
    row += 1
    assert row == m

    B = np.zeros((ns, n))
    B[np.arange(ns), cols["E"] + np.arange(ns)] = 1.0

    c = np.zeros(n)
    shed_cost = p.shed_cost_factor * net.gen_cost.max()
    c[cols["ch"] : cols["ch"] + ns] = net.storage_cost
    c[cols["dis"] : cols["dis"] + ns] = net.storage_cost
    c[cols["up"] : cols["up"] + ng] = net.gen_cost
    c[cols["dn"] : cols["dn"] + ng] = -net.gen_cost
    c[cols["fp"] : cols["fp"] + nl] = 0.01
    c[cols["fm"] : cols["fm"] + nl] = 0.01
    c[cols["shed"] : cols["shed"] + nn] = shed_cost
    c[cols["spill"] : cols["spill"] + nn] = 0.001 * net.gen_cost.max()
    c[cols["const"]] = float(net.baseline[t - 1] @ net.gen_cost)
    return A, B, c, cols, node_row0


def _stage_rhs(
    params: StorageNetworkParams, net: _Network, t: int, regime: int, node_row0: int, m: int
) -> np.ndarray:
    p = params
    ns, ng, nl, nn = p.n_storage, p.n_generators, len(net.lines), p.n_nodes
    b = np.zeros(m)
    ti = t - 1
    base_by_node = np.zeros(nn)
    for g in range(ng):
        base_by_node[net.gen_node[g]] += net.baseline[ti, g]
    b[node_row0 : node_row0 + nn] = (
        net.demand[ti] - base_by_node - net.wind[regime, ti]
    )
    row = node_row0 + nn
    for caps in (
        net.caps["energy"],
        net.caps["power"],
        net.caps["power"],
    ):
        b[row : row + caps.shape[0]] = caps
        row += caps.shape[0]
    up_cap = np.minimum(net.caps["ramp"], net.caps["gen"] - net.baseline[ti])
    dn_cap = np.minimum(net.caps["ramp"], net.baseline[ti])
    b[row : row + ng] = np.maximum(up_cap, 0.0)
    row += ng
    b[row : row + ng] = np.maximum(dn_cap, 0.0)
    row += ng
    b[row : row + nl] = net.caps["line"]
    row += nl
    b[row : row + nn] = net.caps["shed"]
    row += nn
    b[row : row + nn] = net.caps["spill"]
    row += nn
    b[row] = 1.0  # the baseline-cost carrier variable
    row += 1
    assert row == m
    return b


def generate_storage_instance(
    params: StorageNetworkParams, rng: np.random.Generator
) -> MultistageProblem:
    """Emit a standard-form multistage instance of the storage benchmark."""
    params.check()
    p = params
    net = _build_network(params, rng)
    ns = p.n_storage

    # Stage 0 pins the initial stored energy.
    e0 = p.initial_fill * net.caps["energy"]
    stage0 = StageRealization(
        A=np.eye(ns), B=np.eye(ns), b=e0, c=np.zeros(ns)
    )

    outcomes = []
    for t in range(1, p.T + 1):
        A, B, c, cols, node_row0 = _stage_matrices(params, net, t)
        stage = []
        B_t = B if t < p.T else np.zeros((0, A.shape[1]))
        for regime in range(p.n_regimes):
            b = _stage_rhs(params, net, t, regime, node_row0, A.shape[0])
            stage.append(StageRealization(A=A, B=B_t, b=b, c=c))
        outcomes.append(tuple(stage))

    if p.markov:
        off = (1.0 - p.p_stay) / max(p.n_regimes - 1, 1)
        P = np.full((p.n_regimes, p.n_regimes), off)
        np.fill_diagonal(P, p.p_stay)
        process = UncertaintyProcess(
            kind=ProcessKind.MARKOV,
            outcomes=tuple(outcomes),
            initial=np.full(p.n_regimes, 1.0 / p.n_regimes),
            transitions=tuple(P.copy() for _ in range(p.T - 1)),
        )
    else:
        process = UncertaintyProcess(
            kind=ProcessKind.STAGEWISE_INDEPENDENT,
            outcomes=tuple(outcomes),
            probs=tuple(
                np.full(p.n_regimes, 1.0 / p.n_regimes) for _ in range(p.T)
            ),
        )
    resource_dims = tuple([ns] * p.T)
    return MultistageProblem(
        T=p.T, stage0=stage0, process=process, resource_dims=resource_dims
    )
