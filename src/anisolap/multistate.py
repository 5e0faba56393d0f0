"""CTRWs with N internal states: simulation, matrix Montroll transform in
Fourier-Laplace space, and path-functional statistics.

Exponential waiting admits an exact Fourier-space ODE oracle (the chain is
Markov), so validation is offered only there; power-law waiting enters the
Laplace-domain formulas through its small-s transform (WaitingLaw.laplace) and
is flagged as such rather than validated against ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import expm
from .measures import _check_kind, from_json, to_json
from .sampler import JumpSpec, Trajectory, empirical_cf, jump_cf, sample_jump

__all__ = [
    "WaitingLaw",
    "StateModel",
    "FunctionalSpec",
    "MultistateEnsemble",
    "ValidationReport",
    "simulate_multistate_ctrw",
    "multistate_endpoints",
    "montroll_transform",
    "validate_multistate",
    "empirical_functional_cf",
]

_ROW_TOL = 1e-12
_WAITING_FIELDS = {"exp": (("rate",), ()), "power_law": (("alpha",), ("scale",))}


@dataclass(frozen=True)
class WaitingLaw:
    """Per-state waiting time law: Exponential(rate) or an asymptotic power
    law with tail exponent alpha in (0,1) (Pareto with the given scale)."""

    kind: str
    rate: Optional[float] = None
    alpha: Optional[float] = None
    scale: float = 1.0

    def __post_init__(self):
        _check_kind(self, _WAITING_FIELDS, ())
        if self.rate is not None and not self.rate > 0:
            raise ValueError("rate must be positive")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def asymptotic(self) -> bool:
        return self.kind == "power_law"

    def laplace(self, s: complex) -> complex:
        """Laplace transform of the waiting density; the power-law branch is
        the small-s form 1 - Gamma(1 - alpha) (scale s)^alpha of sample's law."""
        if self.kind == "exp":
            return self.rate / (s + self.rate)
        return 1.0 - math.gamma(1.0 - self.alpha) * (self.scale * complex(s)) ** self.alpha

    def sample(self, rng, size: int) -> np.ndarray:
        if self.kind == "exp":
            return rng.exponential(1.0 / self.rate, size=size)
        return self.scale * rng.uniform(size=size) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class StateModel:
    """N internal states: row-stochastic transition matrix, initial
    distribution, and per-state waiting and jump laws."""

    M: np.ndarray
    init: np.ndarray
    waiting: tuple[WaitingLaw, ...]
    jumps: tuple[JumpSpec, ...]

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        init = np.asarray(self.init, dtype=float)
        n = len(init)
        if M.shape != (n, n):
            raise ValueError("transition matrix shape must match init length")
        if np.any(M < 0) or np.any(np.abs(M.sum(axis=1) - 1.0) > _ROW_TOL):
            raise ValueError("M must be row-stochastic")
        if np.any(init < 0) or abs(init.sum() - 1.0) > _ROW_TOL:
            raise ValueError("init must be a probability vector")
        if len(self.waiting) != n or len(self.jumps) != n:
            raise ValueError("waiting and jumps must list one law per state")
        dims = {j.dimension for j in self.jumps}
        if len(dims) != 1:
            raise ValueError("all jump laws must share one dimension")
        M = M.copy()
        init = init.copy()
        M.setflags(write=False)
        init.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "waiting", tuple(self.waiting))
        object.__setattr__(self, "jumps", tuple(self.jumps))

    @property
    def n_states(self) -> int:
        return len(self.init)

    @property
    def dimension(self) -> int:
        return self.jumps[0].dimension

    @property
    def all_exponential(self) -> bool:
        return all(w.kind == "exp" for w in self.waiting)


@dataclass(frozen=True)
class FunctionalSpec:
    """Path functional A = int_0^t U(X(tau)) dtau and its Fourier dual rho."""

    U: Callable
    rho: float = 1.0


@dataclass(frozen=True)
class MultistateEnsemble:
    positions: np.ndarray
    states: np.ndarray
    functional: Optional[np.ndarray]
    t: float


def simulate_multistate_ctrw(model: StateModel, T: float, start, rng,
                             functional: Optional[FunctionalSpec] = None) -> Trajectory:
    """One path: wait per current state, jump per current state, then switch
    state by the corresponding row of M.  The recorded state at each event
    time is the one occupying the following interval; the functional column
    accumulates U(position) * waiting duration."""
    if T <= 0:
        raise ValueError("T must be positive")
    x = np.asarray(start, dtype=float).reshape(model.dimension)
    state = int(rng.choice(model.n_states, p=model.init))
    times, positions, states = [0.0], [x.copy()], [state]
    acc = [0.0]
    t = 0.0
    A = 0.0
    while True:
        wait = float(model.waiting[state].sample(rng, 1)[0])
        if t + wait > T:
            break
        t += wait
        if functional is not None:
            A += float(functional.U(x)) * wait
        x = x + sample_jump(model.jumps[state], rng)
        state = int(rng.choice(model.n_states, p=model.M[state]))
        times.append(t)
        positions.append(x.copy())
        states.append(state)
        acc.append(A)
    return Trajectory(
        np.asarray(times), np.asarray(positions), np.asarray(states, dtype=int),
        np.asarray(acc) if functional is not None else None,
    )


def multistate_endpoints(model: StateModel, t: float, n_paths: int, rng,
                         functional: Optional[FunctionalSpec] = None) -> MultistateEnsemble:
    """Vectorised lockstep ensemble from the origin: positions, occupied
    states and the functional values at time t (the final partial waiting
    interval is included in the functional)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    pos = np.zeros((n_paths, model.dimension))
    states = rng.choice(model.n_states, size=n_paths, p=model.init)
    tcur = np.zeros(n_paths)
    A = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    cumM = np.cumsum(model.M, axis=1)
    while np.any(active):
        idx = np.flatnonzero(active)
        waits = np.empty(len(idx))
        for si in range(model.n_states):
            sel = states[idx] == si
            if np.any(sel):
                waits[sel] = model.waiting[si].sample(rng, int(sel.sum()))
        t_new = tcur[idx] + waits
        if functional is not None:
            u = np.asarray(functional.U(pos[idx]), dtype=float)
            A[idx] += u * (np.minimum(t_new, t) - tcur[idx])
        fire = t_new <= t
        fidx = idx[fire]
        if len(fidx):
            for si in range(model.n_states):
                sel = states[fidx] == si
                if np.any(sel):
                    pos[fidx[sel]] += sample_jump(model.jumps[si], rng, size=int(sel.sum()))
            u = rng.uniform(size=len(fidx))
            states[fidx] = (u[:, None] > cumM[states[fidx]]).sum(axis=1)
        tcur[idx] = np.minimum(t_new, t)
        active[idx] = fire
    return MultistateEnsemble(pos, states, A if functional is not None else None, t)


# ---------------------------------------------------------------------------
# Fourier-Laplace machinery
# ---------------------------------------------------------------------------

def montroll_transform(model: StateModel, k, s: complex) -> np.ndarray:
    """State-resolved position transform
        ((I - Phi(s))/s) (I - M^T Lambda(k) Phi(s))^{-1} |init>.
    Power-law waiting uses the asymptotic transform and is flagged through
    WaitingLaw.asymptotic; Re s > 0 is required."""
    if complex(s).real <= 0:
        raise ValueError("the Laplace variable must satisfy Re s > 0")
    N = model.n_states
    phi = np.array([w.laplace(s) for w in model.waiting], dtype=complex)
    lam = np.array([jump_cf(j, k) for j in model.jumps], dtype=complex)
    A = np.eye(N, dtype=complex) - model.M.T @ np.diag(lam * phi)
    try:
        core = np.linalg.solve(A, model.init.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"resolvent matrix is singular (condition ~ {np.linalg.cond(A):.3e})"
        ) from exc
    return ((1.0 - phi) / s) * core


@dataclass(frozen=True)
class ValidationReport:
    deviations: np.ndarray
    tolerance: float
    n_paths: int
    passed: bool


def _fourier_ode_oracle(model: StateModel, k, t: float) -> np.ndarray:
    """Exact state-resolved characteristic vector for exponential waiting:
    solves d g/dt = (M^T Lambda(k) - I) Z g, g(0) = init."""
    Z = np.diag([w.rate for w in model.waiting])
    lam = np.diag([jump_cf(j, k) for j in model.jumps])
    gen = (model.M.T @ lam - np.eye(model.n_states)) @ Z
    return expm(gen * t) @ model.init.astype(complex)


def validate_multistate(model: StateModel, k_probes, t: float, n_paths: int,
                        rng) -> ValidationReport:
    """Compare ensemble state-resolved ECFs against the matrix-exponential
    oracle at the probe wavenumbers, to 5/sqrt(n_paths); refuses power-law
    waiting, whose transform is only asymptotic."""
    if not model.all_exponential:
        raise ValueError("validation requires exponential waiting in every state")
    ens = multistate_endpoints(model, t, n_paths, rng)
    tol = 5.0 / math.sqrt(n_paths)
    devs = []
    for k in np.atleast_2d(np.asarray(k_probes, dtype=float)):
        oracle = _fourier_ode_oracle(model, k, t)
        phases = np.exp(1j * (ens.positions @ k))
        for si in range(model.n_states):
            emp = np.mean(np.where(ens.states == si, phases, 0.0))
            devs.append(abs(emp - oracle[si]))
    devs = np.asarray(devs)
    return ValidationReport(devs, tol, n_paths, bool(np.max(devs) <= tol))


def empirical_functional_cf(functional_values: np.ndarray, rho: float):
    """(1/N) sum exp(i rho A_j) with its 1/sqrt(N) standard error: the
    empirical_cf of the one-column ensemble A at wavenumber rho."""
    return empirical_cf(np.asarray(functional_values, dtype=float), [rho])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def state_model_to_json(model: StateModel) -> dict:
    return {"N": model.n_states, **to_json(model)}


def state_model_from_json(doc: dict) -> StateModel:
    """The model of doc; its optional "N" must match the length of init."""
    model = from_json(StateModel, {k: v for k, v in doc.items() if k != "N"})
    if doc.get("N", model.n_states) != model.n_states:
        raise ValueError("declared N does not match init length")
    return model
