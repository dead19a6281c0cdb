"""Integers of Q: factoring with budgets, radical mass, logarithms of big
integers and exact decimal input and output.

Factoring is budgeted and degrades gracefully: when the effort budget runs
out, the unsplit composite is reported as an explicit cofactor instead of an
error, so downstream verdicts can say "unresolved" rather than guess.
`trial_division` hands back the prime powers below 10^4 before any rho
step, so a caller that needs only a small prime can stop there.
All randomness is derived deterministically from the input, so repeated runs
produce identical output, and `finish_factoring` may share the rho stages
of independent numbers with forked workers, one per further CPU.
"""

from __future__ import annotations

import decimal
import marshal
import math
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from typing import NamedTuple, Optional

from .errors import InvariantError

DEFAULT_BUDGET = 2_000_000
# digits allowed in an exact value: orbit values and constant power literals
DEFAULT_DIGIT_CAP = 10**6
_TRIAL_BOUND = 10_000
_PROVED_BELOW = 9973**2  # a trial-division leftover below it is 1 or a prime

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = []


def _small_primes():
    if not _SMALL_PRIMES:
        sieve = bytearray([1]) * (_TRIAL_BOUND + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(math.isqrt(_TRIAL_BOUND)) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _SMALL_PRIMES.extend(i for i in range(2, _TRIAL_BOUND + 1) if sieve[i])
    return _SMALL_PRIMES


def _mr_round(n, a, d, s):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.317e24, 64 derived witnesses above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if not _mr_round(n, a, d, s):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    # Derived witnesses keep the test reproducible without a global RNG.
    a = 43
    for i in range(64):
        a = (a * a + i + 1) % n
        if a < 2:
            a += 2
        if not _mr_round(n, a, d, s):
            return False
    return True


def primality_is_certified(n: int) -> bool:
    """True when is_probable_prime(n) used the deterministic witness set."""
    return n < _MR_DETERMINISTIC_BOUND


def _brent_split(n, budget):
    """Try to find a nontrivial factor of odd composite n within `budget`
    modular steps.  Deterministic parameter schedule.  Returns (factor, used).
    The budget is checked only when r doubles: `used` can reach about twice
    `budget`."""
    used = 0
    y0, c = 2, 1
    m = 128
    while used < budget:
        y, r, q = y0, 1, 1
        g = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += steps
                g = int_gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = int_gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
        # Restart with fresh parameters.
        c += 1
        y0 += 1
    return None, used


# a NamedTuple body cannot define __new__, so FactoredValue checks in a subclass
class _Factored(NamedTuple):
    sign: int
    prime_powers: tuple
    cofactor: Optional[int] = None
    certified: bool = True


class FactoredValue(_Factored):
    """A nonzero integer as sign * prod(p^e) * cofactor.

    `cofactor`, when present, is a composite the budget could not split.
    `certified` is False when some listed prime only passed the probabilistic
    primality test (inputs beyond the deterministic witness bound).
    """

    __slots__ = ()

    def __new__(cls, sign, prime_powers, cofactor=None, certified=True):
        primes = [p for p, _ in prime_powers]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("prime_powers must be sorted with distinct primes")
        return super().__new__(cls, sign, prime_powers, cofactor, certified)

    @property
    def is_complete(self) -> bool:
        return self.cofactor is None

    def reconstruct(self) -> int:
        n = self.sign
        for p, e in self.prime_powers:
            n *= p**e
        if self.cofactor is not None:
            n *= self.cofactor
        return n

    def primes(self):
        return [p for p, _ in self.prime_powers]


def factor(n: int, budget: int = DEFAULT_BUDGET) -> FactoredValue:
    """Factor a nonzero integer: trial division, Miller-Rabin, Brent rho.

    `budget` counts Brent-rho modular steps (iterations of y -> y^2 + c
    modulo the piece being split), summed over every piece.  Budget
    exhaustion is a data outcome (unresolved cofactor), not an error.
    Rho checks the budget only when its cycle length doubles (see
    `_brent_split`), so a call can spend up to about twice what remained.
    Listed exponents are exact: no listed prime divides the cofactor.
    """
    return finish_factoring([trial_division(n)], budget)[0]


def trial_division(n: int):
    """(sign, prime powers, leftover) of a nonzero integer after division by
    the primes below 10^4: the powers (p, e), p | n, come in ascending order
    with exact exponents.  Division stops once p^2 passes what is left, so
    the leftover is 1, a prime below 9973^2 (proved by the division), or at
    least 9973^2 and free of primes below 10^4."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    small = []
    for p in _small_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            small.append((p, e))
    return sign, tuple(small), n


def finish_factoring(trials, budget: int) -> list:
    """The factorizations that `trial_division` results lead to.  A leftover
    below 9973^2 is listed as it is, with no test; the rest go to
    `rho_factor`, run on every CPU the process may use: each is a pure
    function of its leftover and budget, so the list is the same for any
    worker count."""
    big = [rest for _, _, rest in trials if rest >= _PROVED_BELOW]
    rhos = {}
    if big:  # most batches, such as every small `factor` call, have no rho stage
        rhos = dict(zip(big, _parallel_map(lambda n: tuple(rho_factor(n, budget)), big)))
    factored = []
    for sign, small, rest in trials:
        proved = ((rest, 1),) if 1 < rest < _PROVED_BELOW else ()
        _, powers, cofactor, certified = rhos.get(rest, (1, proved, None, True))
        factored.append(FactoredValue(sign, small + powers, cofactor, certified))
    return factored


def rho_factor(n: int, budget: int) -> FactoredValue:
    """Factor a positive integer by Miller-Rabin and Brent rho alone, within
    `budget` rho steps: the stage of `factor` after trial division, for a
    leftover of at least 9973^2 free of primes below 10^4.  A `_brent_split`
    call may overrun what remained of the budget, so the total spent can
    reach about twice `budget`.
    """
    powers = {}
    certified = True
    cofactors = []
    stack = [n] if n > 1 else []
    remaining = budget
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            powers[m] = powers.get(m, 0) + 1
            certified = certified and primality_is_certified(m)
            continue
        d, used = _brent_split(m, remaining)
        remaining -= used
        if d is None:
            cofactors.append(m)
            continue
        stack.append(d)
        stack.append(m // d)
    unsplit = cofactor = math.prod(cofactors)
    # Rho can split p off one piece and run out of budget on another that
    # still holds p; those copies belong to p's exponent.
    for p in powers:
        while cofactor % p == 0:
            cofactor //= p
            powers[p] += 1
    if cofactor == 1:
        cofactor = None
    elif cofactor != unsplit and is_probable_prime(cofactor):
        powers[cofactor] = 1
        certified = certified and primality_is_certified(cofactor)
        cofactor = None
    return FactoredValue(
        sign=1,
        prime_powers=tuple(sorted(powers.items())),
        cofactor=cofactor,
        certified=certified,
    )


_in_worker = False


def _parallel_map(fn, items) -> list:
    """[fn(x) for x in items], shared by the caller and forked workers, one
    per further CPU in os.sched_getaffinity(0).  All take item indices,
    largest item first, from one pipe; workers send (index, fn(x)) pairs
    back with marshal, never fork and leave by os._exit, so the caller's
    frames, buffers and exit hooks stay the parent's.  The parent reaps
    every worker on every path.  A task that fails in a worker raises
    InvariantError; one that fails in the caller raises as in sequence.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(items), len(affinity(0))) if len(items) > 1 and affinity else 1
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    if len(items) > 1024:  # 4-byte tasks fill 4096 bytes, the least a Linux pipe holds
        return _parallel_map(fn, items[:1024]) + _parallel_map(fn, items[1024:])
    order = sorted(range(len(items)), key=items.__getitem__, reverse=True)
    task_r, task_w = os.pipe()
    with open(task_w, "wb") as queue:
        queue.write(b"".join(i.to_bytes(4, "little") for i in order))
    fds, pids, replies = [task_r], [], None  # fds: what the parent holds open
    try:
        for _ in range(workers - 1):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, items, task_r, fds[-1])
            pids.append(pid)
            os.close(fds.pop())  # the worker's write end: its exit ends the reply
        done = _take(fn, items, task_r)
        replies = [open(fd, "rb", closefd=False).read() for fd in fds[1:]]
    finally:
        for fd in fds:
            os.close(fd)
        if replies is None:
            from signal import SIGKILL  # lazily: only a batch that stops early needs it
            for pid in pids:
                os.kill(pid, SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise InvariantError(f"a factoring worker failed: exit codes {codes}")
    results = dict(done + [pair for reply in replies for pair in marshal.loads(reply)])
    return [results[i] for i in range(len(items))]


def _take(fn, items, task_r) -> list:
    """(i, fn(items[i])) for each index i taken from the queue until it is
    empty."""
    done = []
    while task := os.read(task_r, 4):
        i = int.from_bytes(task, "little")
        done.append((i, fn(items[i])))
    return done


def _worker(fn, items, task_r, result_w):
    """A forked worker's body: it leaves only through os._exit."""
    global _in_worker
    _in_worker, code = True, 1
    try:
        with open(result_w, "wb") as reply:
            reply.write(marshal.dumps(_take(fn, items, task_r)))
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size.

    Uses the top 128 bits plus an exact power-of-two correction; the relative
    error is far below the 1e-9 tolerances used throughout.
    """
    if n <= 0:
        raise ValueError("log_int needs a positive integer")
    b = n.bit_length()
    if b <= 512:
        return math.log(n)
    shift = b - 128
    return math.log(n >> shift) + shift * math.log(2)


def log_fraction(x) -> float:
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_fraction needs a positive rational")
    return log_int(x.numerator) - log_int(x.denominator)


def _cap_bits(cap: int) -> int:
    # bit_length/3.3 approximates the decimal digit count closely enough
    return int(cap * 3.33) + 64


# Pieces at most this large convert with str() and int(): 2000 bits is at
# most 603 digits, below the smallest int/str digit guard the interpreter
# allows (640), so the guard never fires and is never changed.  Decimal(int)
# converts in binary and never meets the guard.
_DECIMAL_PIECE_BITS = 2000
_DECIMAL_PIECE_DIGITS = 600

# The one context for exact decimal integers: no operation on integers
# inside it can round, and one that would raises instead.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)


@lru_cache(maxsize=None)  # j <= 10 for values inside the default digit cap
def _decimal_pow2(j: int) -> decimal.Decimal:
    """Decimal(2 ** (_DECIMAL_PIECE_BITS << j)), squared up from j = 0; called
    inside the EXACT context."""
    if j == 0:
        return decimal.Decimal(1 << _DECIMAL_PIECE_BITS)
    half = _decimal_pow2(j - 1)
    return half * half


def _as_decimal(n: int) -> decimal.Decimal:
    """n >= 0 as hi * 2^k + lo, with k the largest piece size times a power
    of two below the bit length of n."""
    width = n.bit_length()
    if width <= _DECIMAL_PIECE_BITS:
        return decimal.Decimal(n)
    j = ((width - 1) // _DECIMAL_PIECE_BITS).bit_length() - 1
    k = _DECIMAL_PIECE_BITS << j
    high = n >> k
    return _as_decimal(high) * _decimal_pow2(j) + _as_decimal(n - (high << k))


def exact_decimal(n: int) -> decimal.Decimal:
    """An integer of any size as an exact Decimal.

    Past one piece the binary halves are combined in exact `decimal`
    arithmetic, whose multiply is subquadratic (Brent-Zimmermann, Modern
    Computer Arithmetic, 1.7)."""
    with decimal.localcontext(EXACT):
        value = _as_decimal(abs(n))
    return value.copy_negate() if n < 0 else value


def to_decimal(n: int) -> str:
    """Decimal string of an integer of any size, through exact_decimal past
    one piece."""
    if n.bit_length() <= _DECIMAL_PIECE_BITS:
        return str(n)
    return str(exact_decimal(n))


def rational_to_decimal(z) -> str:
    """A rational as "p", or "p/q" with q > 0, through to_decimal."""
    if isinstance(z, int):
        return to_decimal(z)
    z = Fraction(z)
    if z.denominator == 1:
        return to_decimal(z.numerator)
    return f"{to_decimal(z.numerator)}/{to_decimal(z.denominator)}"


def point_str(z) -> str:
    """A point of P^1 as text: "p" or "p/q" for a rational, else str(z),
    which is "inf" or an element of Q(t)."""
    return rational_to_decimal(z) if isinstance(z, (int, Fraction)) else str(z)


def from_decimal(text: str) -> int:
    """Inverse of to_decimal: an optional minus sign and ASCII digits."""
    sign, digits = (-1, text[1:]) if text[:1] == "-" else (1, text)
    # int() would also take "_", spaces, "+" and other scripts' digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal literal of {len(text)} characters")
    return sign * _from_digits(digits)


def _from_digits(digits: str) -> int:
    if len(digits) <= _DECIMAL_PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _from_digits(digits[:-k]) * 10**k + _from_digits(digits[-k:])


class LogMass(NamedTuple):
    """Sum of log p over a set of primes, tracked with its exact radical.

    `exact` is False when an unresolved cofactor means the mass is only a
    lower bound.
    """

    value: float
    exact: bool
    radical: int

    def __float__(self):
        return self.value


def radical_logmass(f: FactoredValue) -> LogMass:
    """Sum of log p over the distinct resolved primes of a factored value."""
    radical = 1
    total = 0.0
    for p, _ in f.prime_powers:
        radical *= p
        total += log_int(p)
    return LogMass(value=total, exact=f.is_complete, radical=radical)
