"""Brute-force ground truth for circuits of X and multi-controlled NOT gates.

Such circuits permute computational basis states without introducing phases,
so every check here reduces to integer index manipulation:

  * basis state x (bit i = value of qubit with global id i) is stored at
    amplitude index sum(x[i] << (n-1-i)) -- qubit 0 is the highest bit, so
    integer order equals lexicographic order on bit tuples;
  * the circuit is a permutation P with P[index(x)] = index(f(x)).

The checks deliberately enumerate ALL basis environments rather than
sampling; they define ground truth for the acceptance tests.
"""

import numpy as np

from .elaborator import FlatCircuit, QubitId, QubitRole
from .errors import QborrowError
from .verify import EXHAUSTIVE_CAP

STATEVECTOR_CAP = 14
RESTORE_CAP = 13  # one amplitude slot reserved for the traced-out qubit
BELL_CAP = 12  # one hypothetical partner qubit appended

TOL = 1e-9

BasisState = tuple[int, ...]

# canonical one-qubit pure states, as (amplitude of |0>, amplitude of |1>)
_S = 1 / np.sqrt(2.0)
STATE_ZERO = (1.0 + 0j, 0.0 + 0j)
STATE_ONE = (0.0 + 0j, 1.0 + 0j)
STATE_PLUS = (_S + 0j, _S + 0j)
STATE_PLUS_I = (_S + 0j, _S * 1j)
STATE_MINUS = (_S + 0j, -_S + 0j)

FIVE_STATES = {
    "zero": STATE_ZERO,
    "one": STATE_ONE,
    "plus": STATE_PLUS,
    "plus_i": STATE_PLUS_I,
    "minus": STATE_MINUS,
}


class TooManyQubits(QborrowError):
    pass


def pack_basis(x: BasisState) -> int:
    idx = 0
    for bit in x:
        idx = (idx << 1) | (bit & 1)
    return idx


def unpack_basis(idx: int, n: int) -> BasisState:
    return tuple((idx >> (n - 1 - i)) & 1 for i in range(n))


def permutation(c: FlatCircuit) -> np.ndarray:
    """The circuit's action on all 2^n basis indices as an int64 array."""
    n = c.n_qubits
    if n > EXHAUSTIVE_CAP:
        raise TooManyQubits(f"{n} qubits exceed the exhaustive cap of {EXHAUSTIVE_CAP}")
    values = np.arange(1 << n, dtype=np.int64)
    for g in c.gates:
        tmask = np.int64(1 << (n - 1 - g.target.gid))
        fire = np.ones(values.shape, dtype=bool)
        for ctrl in g.controls:
            cmask = 1 << (n - 1 - ctrl.gid)
            fire &= (values & cmask) != 0
        values ^= np.where(fire, tmask, np.int64(0))
    return values


class OracleVerdict:
    """Safe, or Unsafe with the lexicographically smallest violating input."""

    __slots__ = ("safe", "witness")

    def __init__(self, safe: bool, witness: BasisState | None = None):
        self.safe = safe
        self.witness = witness

    def __repr__(self):
        return "Safe" if self.safe else f"Unsafe(witness={self.witness})"

    def __eq__(self, other):
        return (
            isinstance(other, OracleVerdict)
            and self.safe == other.safe
            and self.witness == other.witness
        )


def _clean_mask(c: FlatCircuit, q: QubitId) -> int:
    """Basis-index bits of the clean (alloc) qubits other than q: inputs
    with any of them set are never prepared, since those qubits start at 0."""
    n = c.n_qubits
    return sum(
        1 << (n - 1 - qq.gid)
        for qq, role in zip(c.qubits, c.roles)
        if role is QubitRole.CLEAN and qq != q
    )


def exhaustive_safe(c: FlatCircuit, q: QubitId) -> OracleVerdict:
    """Decide safety of returning dirty qubit q by enumerating all inputs
    whose clean (alloc) qubits are 0.

    Safe iff for every such input x the circuit preserves bit q, and flipping
    bit q of the input changes nothing but (possibly) bit q of the output
    -- together: the circuit acts as (identity on q) tensor (rest).
    """
    n = c.n_qubits
    values = permutation(c)  # raises above EXHAUSTIVE_CAP
    idx = np.arange(1 << n, dtype=np.int64)
    qmask = 1 << (n - 1 - q.gid)
    clean = _clean_mask(c, q)
    keeps_q = ((values ^ idx) & qmask) == 0
    flipped = values[idx ^ qmask]
    off_independent = ((values ^ flipped) & ~qmask) == 0
    violation = ~(keeps_q & off_independent) & ((idx & clean) == 0)
    if not violation.any():
        return OracleVerdict(True)
    witness = int(np.argmax(violation))  # smallest index = lex-smallest tuple
    return OracleVerdict(False, unpack_basis(witness, n))


def simulate_statevector(c: FlatCircuit, psi: np.ndarray) -> np.ndarray:
    """Permute amplitudes: output[index(f(x))] = input[index(x)]."""
    n = c.n_qubits
    if n > STATEVECTOR_CAP:
        raise TooManyQubits(f"{n} qubits exceed the statevector cap of {STATEVECTOR_CAP}")
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (1 << n,):
        raise ValueError(f"state must have length {1 << n}")
    out = np.empty_like(psi)
    out[permutation(c)] = psi
    return out


def reduced_density(psi: np.ndarray, subset: list[QubitId]) -> np.ndarray:
    """Partial trace onto a 1- or 2-qubit subset of a pure state."""
    if len(subset) not in (1, 2):
        raise ValueError("subset must contain one or two qubits")
    psi = np.asarray(psi, dtype=np.complex128)
    n = psi.size.bit_length() - 1
    if psi.size != 1 << n:
        raise ValueError("state length must be a power of two")
    positions = [q.gid for q in subset]
    rest = [i for i in range(n) if i not in positions]
    tensor = psi.reshape([2] * n)
    tensor = np.transpose(tensor, positions + rest)
    flat = tensor.reshape(1 << len(subset), -1)
    return flat @ flat.conj().T


def _env_indices(n: int, qpos: int) -> np.ndarray:
    """Basis indices of all n-bit states with bit `qpos` clear, ordered by
    the (n-1)-bit environment value."""
    env = np.arange(1 << (n - 1), dtype=np.int64)
    low = env & ((1 << qpos) - 1)
    high = (env >> qpos) << (qpos + 1)
    return high | low


def _split(values: np.ndarray, qpos: int) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (bit at qpos, remaining bits compressed)."""
    bit = (values >> qpos) & 1
    rest = ((values >> (qpos + 1)) << qpos) | (values & ((1 << qpos) - 1))
    return bit, rest


def check_state_restoration(c: FlatCircuit, q: QubitId, phi) -> bool:
    """Does the circuit return qubit q to pure state phi for every basis
    environment in which the clean (alloc) qubits are 0?

    For environment e the prepared state e (x) phi has exactly two nonzero
    amplitudes, at indices (e, q=0) and (e, q=1); the circuit maps them to
    j0 and j1.  Writing j_k = (r_k, b_k) with b_k the q bit, the reduced
    state on q is

        rho = |phi0|^2 |b0><b0| + |phi1|^2 |b1><b1|
            + [r0 == r1] (phi0 conj(phi1) |b0><b1| + h.c.),

    which is compared entrywise against |phi><phi|.  This is the partial
    trace of the simulated output, evaluated in closed form so all
    environments can be checked at once.
    """
    n = c.n_qubits
    if n > RESTORE_CAP:
        raise TooManyQubits(f"{n} qubits exceed the restoration cap of {RESTORE_CAP}")
    phi0, phi1 = complex(phi[0]), complex(phi[1])
    norm = abs(phi0) ** 2 + abs(phi1) ** 2
    if abs(norm - 1.0) > TOL:
        raise ValueError("phi must be normalized")
    target = np.array([[phi0], [phi1]]) @ np.array([[phi0], [phi1]]).conj().T

    values = permutation(c)
    qpos = n - 1 - q.gid
    base = _env_indices(n, qpos)
    j0 = values[base]
    j1 = values[base | (1 << qpos)]
    b0, r0 = _split(j0, qpos)
    b1, r1 = _split(j1, qpos)
    same_r = r0 == r1

    p0, p1 = abs(phi0) ** 2, abs(phi1) ** 2
    rho00 = p0 * (b0 == 0) + p1 * (b1 == 0)
    rho11 = p0 * (b0 == 1) + p1 * (b1 == 1)
    rho01 = same_r * (
        phi0 * np.conj(phi1) * ((b0 == 0) & (b1 == 1))
        + phi1 * np.conj(phi0) * ((b1 == 0) & (b0 == 1))
    )
    ok = (
        (np.abs(rho00 - target[0, 0]) <= TOL)
        & (np.abs(rho01 - target[0, 1]) <= TOL)
        & (np.abs(rho11 - target[1, 1]) <= TOL)
    )
    return bool(ok[(base & _clean_mask(c, q)) == 0].all())


def check_bell_preservation(c: FlatCircuit, q: QubitId) -> bool:
    """Does the circuit preserve a Bell pair between q and an external qubit?

    A hypothetical partner q' (untouched by the circuit) is appended and
    (q, q') prepared in (|00> + |11>)/sqrt(2) for every basis environment
    in which the clean (alloc) qubits are 0.
    With j0, j1 the images of the two prepared indices as in
    check_state_restoration, the reduced state on (q, q') equals the Bell
    projector exactly when the q bit of j0 is 0, the q bit of j1 is 1, and
    the environments agree; any failure perturbs some entry by at least 1/4,
    far beyond the tolerance.
    """
    n = c.n_qubits
    if n > BELL_CAP:
        raise TooManyQubits(f"{n} qubits exceed the Bell cap of {BELL_CAP}")
    values = permutation(c)
    qpos = n - 1 - q.gid
    base = _env_indices(n, qpos)
    j0 = values[base]
    j1 = values[base | (1 << qpos)]
    b0, r0 = _split(j0, qpos)
    b1, r1 = _split(j1, qpos)
    ok = (b0 == 0) & (b1 == 1) & (r0 == r1)
    return bool(ok[(base & _clean_mask(c, q)) == 0].all())

