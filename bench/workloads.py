"""The four benchmark workloads: seeded inputs, the timed work, exact output checks.

Each workload has three parts.

* ``inputs(seed)`` makes plain data (Fractions, tuples, JSON text) from the
  seed alone, without importing the package, so tests can compare it across
  seeds and processes.
* ``prepare(dh, data)`` turns that data into package objects; the runner times
  it, together with the package import, as set-up.
* ``ops(dh, prepared)`` is a generator of ``Op``s.  The runner times each op's
  ``call`` on its own, sends the output back into the generator (later ops may
  depend on it), then checks and fingerprints it outside the timed region.

``battery-ci`` runs whole suites and has its own ``execute``.

The package is always reached through the module object ``dh`` that the
runner imported, never through a module-level import here: the runner
re-imports the package for every repetition so that its caches start cold.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterator

# Case counts of run_all at the ci profile, identical for every seed.
CI_SUITE_CASES = {"commute": 270, "sl2": 420, "lemma1": 280, "anticommutator": 480,
                  "dplus2": 1080, "fischer": 1376, "hermite-eq": 735, "diffeq": 378,
                  "roesler": 384, "orthogonality": 20}


@dataclass
class Op:
    """One timed unit of work, its exact check, and its canonical output for the digest."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    render: Callable[[Any], Any]


@dataclass
class UnitResult:
    """What one execution of a workload's fixed work produced."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # (kind, start, seconds), one per timed op
    work: list = field(default_factory=list)       # (start, end) intervals that make up wall time
    digests: list = field(default_factory=list)    # one short output digest per op
    details: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.work)


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Hooks:
    """Told when each op starts and ends: the speed probe runs between ops, the tracer traces op calls only."""

    def begin(self, op_id: int) -> None:
        pass

    def end(self) -> None:
        pass


def run_ops(ops: Iterator[Op], hooks: Hooks) -> UnitResult:
    """Run a generator of ops one at a time; checks and digests stay outside the timing."""
    result = UnitResult()
    clock = time.perf_counter
    try:
        op = next(ops)
        while True:
            hooks.begin(result.attempted)
            result.attempted += 1
            start = clock()
            try:
                output = op.call()
                raised = False
            except Exception:  # a raising op is a failed op, and the run goes on
                output, raised = None, True
            end = clock()
            hooks.end()
            result.work.append((start, end))
            result.latencies.append((op.kind, start, end - start))
            ok = not raised and _passes(op.check, output)
            result.failed += 0 if ok else 1
            result.digests.append(digest(op.render(output)) if ok else "failed")
            op = ops.send(output if ok else None)
    except StopIteration:
        pass
    return result


def _passes(check: Callable[[Any], bool], output: Any) -> bool:
    try:
        return bool(check(output))
    except Exception:  # malformed output fails its check rather than stopping the run
        return False


# -- seeded input helpers ------------------------------------------------------

def draw_kappa(rng: random.Random) -> Fraction:
    """A nonzero multiplicity in (0, 3] with denominator at most 4."""
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(1, 3 * den), den)


def monomials(m: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one total degree, in a fixed order of the benchmark's own."""
    return [e for e in itertools.product(range(degree + 1), repeat=m) if sum(e) == degree]


def dense_terms(rng: random.Random, m: int, degree: int) -> dict:
    """Every monomial of the degree with a nonzero small rational coefficient."""
    return {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
            for e in monomials(m, degree)}


def classical_harmonic_dim(m: int, degree: int) -> int:
    """Fischer count dim P_k - dim P_(k-2), computed here without the package."""
    def dim(k: int) -> int:
        return comb(k + m - 1, m - 1) if k >= 0 else 0
    return dim(degree) - dim(degree - 2)


def classical_monogenic_dim(m: int, degree: int) -> int:
    """2^m (dim P_k - dim P_(k-1)): the Dirac operator maps onto degree k - 1."""
    def dim(k: int) -> int:
        return comb(k + m - 1, m - 1) if k >= 0 else 0
    return (1 << m) * (dim(degree) - dim(degree - 1))


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_json(m: int, terms: dict) -> dict:
    return {"m": m, "terms": [{"c": _rat(c), "e": list(e)} for e, c in terms.items()]}


def _term_map(poly_json: dict) -> dict:
    return {tuple(t["e"]): Fraction(t["c"]) for t in poly_json["terms"]}


def _sum_terms(parts) -> dict:
    total: dict = {}
    for terms in parts:
        for e, c in terms.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


# -- root systems with reflections that are not signed permutations -----------

def g2_json(short_kappa: Fraction, long_kappa: Fraction) -> dict:
    """G2 in the sum-zero plane of R^3: short roots e_i - e_j, long roots 2e_i - e_j - e_k."""
    short = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    long_ = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    return {"m": 3, "positive_roots": [[str(c) for c in r] for r in short + long_],
            "multiplicities": [{"orbit_rep": ["1", "-1", "0"], "kappa": _rat(short_kappa)},
                               {"orbit_rep": ["2", "-1", "-1"], "kappa": _rat(long_kappa)}]}


def f4_json(short_kappa: Fraction, long_kappa: Fraction) -> dict:
    """F4 in R^4: 12 short roots e_i and (1/2)(1, +-1, +-1, +-1), 12 long roots e_i +- e_j."""
    roots = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    roots += [tuple(Fraction(1 if k == i else s if k == j else 0) for k in range(4))
              for i in range(4) for j in range(i + 1, 4) for s in (1, -1)]
    roots += [(Fraction(1, 2),) + tuple(Fraction(s, 2) for s in signs)
              for signs in itertools.product((1, -1), repeat=3)]
    return {"m": 4, "positive_roots": [[_rat(c) for c in r] for r in roots],
            "multiplicities": [{"orbit_rep": ["1", "0", "0", "0"], "kappa": _rat(short_kappa)},
                               {"orbit_rep": ["1", "1", "0", "0"], "kappa": _rat(long_kappa)}]}


def _basis_json(basis) -> list:
    return [h.to_json() for h in basis.elements]


def _harmonic_op(dh, ctx, degree: int) -> Op:
    m = ctx.m
    return Op("harmonic", lambda: dh.harmonic_basis(ctx, degree),
              lambda b: len(b.elements) == classical_harmonic_dim(m, degree), _basis_json)


def _fischer_op(dh, ctx, poly, terms: dict, layers: int) -> Op:
    """Decompose; the parts must sum back to the input exactly, in at most ``layers`` layers."""
    def check(parts) -> bool:
        return (len(parts) <= layers
                and _sum_terms(_term_map(q.to_json()) for _, q in parts) == terms)
    return Op("fischer", lambda: dh.fischer_decompose(ctx, poly), check,
              lambda parts: [[i, q.to_json()] for i, q in parts])


# -- generic-roots ---------------------------------------------------------------

GENERIC_DRAWS = 3
# (name, JSON builder, m, harmonic degrees, top degree of h for the Laplacian ops):
# a G2 Laplacian is cheap (6 roots), an F4 one is not (24 roots).
GENERIC_SYSTEMS = (("G2", g2_json, 3, (0, 1, 2, 3, 4), 3), ("F4", f4_json, 4, (0, 1, 2, 3), 1))


def generic_inputs(seed: int) -> dict:
    rng = random.Random(f"generic-roots/{seed}")
    systems = []
    for _ in range(GENERIC_DRAWS):
        for name, make, m, degrees, laplacian_max in GENERIC_SYSTEMS:
            kappas = (draw_kappa(rng), draw_kappa(rng))
            systems.append({"name": name, "json": make(*kappas), "degrees": degrees,
                            "laplacian_max": laplacian_max,
                            "polys": [dense_terms(rng, m, d) for d in degrees[-2:]]})
    return {"systems": systems}


def generic_prepare(dh, data: dict) -> list:
    out = []
    for system in data["systems"]:
        ctx = dh.DunklContext(dh.root_system_from_json(system["json"]))
        out.append((ctx, system["degrees"], system["laplacian_max"],
                    [(dh.Polynomial(ctx.m, terms), terms) for terms in system["polys"]]))
    return out


def generic_ops(dh, prepared: list) -> Iterator[Op]:
    """Harmonic bases, Dunkl Laplacians of |x|^2 h, and Fischer decompositions at the top two degrees.

    Delta(|x|^2 h) = 2(2 deg h + mu) h for harmonic h, an exact identity independent
    of how the basis was computed.
    """
    for ctx, degrees, laplacian_max, polys in prepared:
        norm2 = dh.Polynomial.norm_squared(ctx.m)
        for degree in degrees:
            basis = yield _harmonic_op(dh, ctx, degree)
            if basis is None or degree > laplacian_max:
                continue
            factor = 2 * (2 * degree + ctx.mu)
            for h in basis.elements:
                expected = {e: factor * c for e, c in _term_map(h.to_json()).items()}
                lifted = norm2 * h
                yield Op("laplacian", lambda p=lifted: dh.dunkl_laplacian(ctx, p),
                         lambda out, want=expected: _term_map(out.to_json()) == want,
                         lambda out: out.to_json())
        for poly, terms in polys:
            yield _fischer_op(dh, ctx, poly, terms, max(degrees) // 2 + 1)


# -- kernels -----------------------------------------------------------------------

Z2_HARMONIC_DEGREES = (6, 7, 8)
Z2_MONOGENIC_DEGREES = (0, 1, 2, 3)
TRIVIAL_DEGREES = (7, 8)
B3_DRAWS = 4
B3_FISCHER_DEGREE = 6
B3_FISCHER_COUNT = 40  # per draw: decompositions are over 90 % of the ops, so p90 lies among them


def kernels_inputs(seed: int) -> dict:
    rng = random.Random(f"kernels/{seed}")
    return {"z2_harmonic_degrees": Z2_HARMONIC_DEGREES, "z2_monogenic_degrees": Z2_MONOGENIC_DEGREES,
            "trivial_degrees": TRIVIAL_DEGREES,
            "z2_kappas": tuple(draw_kappa(rng) for _ in range(4)),
            "b3": [{"kappas": (draw_kappa(rng), draw_kappa(rng)),
                    "polys": [dense_terms(rng, 3, B3_FISCHER_DEGREE) for _ in range(B3_FISCHER_COUNT)]}
                   for _ in range(B3_DRAWS)]}


def kernels_prepare(dh, data: dict) -> dict:
    return {**data,
            "z2": dh.DunklContext(dh.builtin_root_system("z2", 4, data["z2_kappas"])),
            "trivial": dh.DunklContext(dh.trivial_root_system(5)),
            "b3": [(dh.DunklContext(dh.builtin_root_system("b", 3, draw["kappas"])),
                    [(dh.Polynomial(3, terms), terms) for terms in draw["polys"]])
                   for draw in data["b3"]]}


def kernels_ops(dh, prepared: dict) -> Iterator[Op]:
    """Exact RREF-bound problems: large harmonic and monogenic kernels, dense Fischer solves."""
    z2 = prepared["z2"]
    for degree in prepared["z2_harmonic_degrees"]:
        yield _harmonic_op(dh, z2, degree)
    for degree in prepared["z2_monogenic_degrees"]:
        yield Op("monogenic", lambda d=degree: dh.monogenic_basis(z2, d),
                 lambda basis, d=degree: len(basis) == classical_monogenic_dim(4, d),
                 lambda basis: [F.to_json() for F in basis])
    for degree in prepared["trivial_degrees"]:
        yield _harmonic_op(dh, prepared["trivial"], degree)
    for ctx, polys in prepared["b3"]:
        for poly, terms in polys:
            yield _fischer_op(dh, ctx, poly, terms, B3_FISCHER_DEGREE // 2 + 1)


# -- cli-requests ----------------------------------------------------------------

# Every request shape appears equally often for every seed; the seed draws the
# multiplicities, harmonic indices, polynomials and the order.  The kinds barely
# overlap in latency (group-info with m <= 3 < hermite < decompose on B3), and
# the counts put p50 inside the hermite requests and p90 in the middle of the
# decompose requests, not at the border between two kinds.
GROUP_INFO_SHAPES = [(family, m) for family in ("z2", "a", "b", "d") for m in (2, 3)]
HERMITE_SHAPES = [(family, m, t, ell) for family, m in (("z2", 2), ("a", 3), ("b", 2))
                  for t in (1, 2) for ell in (0, 1, 2)]
CLI_COPIES = {"group-info": 10, "hermite": 9, "decompose": 60}
DECOMPOSE_DEGREE = 3


def _orbit_count(family: str, m: int) -> int:
    return {"z2": m, "a": 1, "b": 2, "d": 2 if m == 2 else 1}[family]


def _kappa_flag(rng: random.Random, count: int) -> str:
    return ",".join(_rat(draw_kappa(rng)) for _ in range(count))


def cli_inputs(seed: int) -> dict:
    """group-info, hermite --construction all and decompose requests, in seeded order."""
    rng = random.Random(f"cli-requests/{seed}")
    requests = []
    for family, m in GROUP_INFO_SHAPES * CLI_COPIES["group-info"]:
        argv = ["group-info", "--group", family, "--m", str(m),
                "--kappa", _kappa_flag(rng, _orbit_count(family, m))]
        requests.append({"kind": "group-info", "argv": argv, "stdin": ""})
    for family, m, t, ell in HERMITE_SHAPES * CLI_COPIES["hermite"]:
        argv = ["hermite", "--group", family, "--m", str(m),
                "--kappa", _kappa_flag(rng, _orbit_count(family, m)), "--t", str(t),
                "--ell", str(ell), "--h-index", str(rng.randrange(classical_harmonic_dim(m, ell))),
                "--construction", "all"]
        requests.append({"kind": "hermite", "argv": argv, "stdin": ""})
    for _ in range(CLI_COPIES["decompose"]):
        argv = ["decompose", "--group", "b", "--m", "3", "--kappa", _kappa_flag(rng, 2),
                "--poly-file", "-"]
        text = json.dumps(_poly_json(3, dense_terms(rng, 3, DECOMPOSE_DEGREE)))
        requests.append({"kind": "decompose", "argv": argv, "stdin": text})
    rng.shuffle(requests)
    return {"requests": requests}


def cli_prepare(dh, data: dict) -> list:
    return data["requests"]


def _cli_call(dh, request: dict) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _stdin(io.StringIO(request["stdin"])):
        try:
            code = dh.cli.main(list(request["argv"]))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    saved, sys.stdin = sys.stdin, stream
    try:
        yield
    finally:
        sys.stdin = saved


def _cli_check(request: dict, result) -> bool:
    code, text = result
    if code != 0:
        return False
    payload = json.loads(text)
    kind = request["kind"]
    if kind == "group-info":
        kappas = [Fraction(entry["kappa"]) for entry in payload["multiplicities"]]
        gamma = sum((len(orbit) * k for orbit, k in zip(payload["orbits"], kappas)), Fraction(0))
        return Fraction(payload["mu"]) == payload["m"] + 2 * gamma
    if kind == "hermite":
        return payload["agree"] is True
    parts = [_term_map(c["component"]) for c in payload["components"]]
    return _sum_terms(parts) == _term_map(json.loads(request["stdin"]))


def cli_ops(dh, requests: list) -> Iterator[Op]:
    """One ``cli.main`` call per request; each builds its own context, so caches start cold."""
    for request in requests:
        yield Op(request["kind"], lambda r=request: _cli_call(dh, r),
                 lambda result, r=request: _cli_check(r, result),
                 lambda result: result[1])


# -- battery-ci --------------------------------------------------------------------

BATTERIES = 2


def battery_inputs(seed: int) -> dict:
    """``BATTERIES`` batteries, each with one seed per suite derived from the run's seed.

    ``run_all`` hands every suite the same seed, so the suites draw the same
    multiplicities and their costs rise and fall together.  Independent seeds
    keep the same checks but let the suites' costs average out, so that a run's
    time depends less on which seed it was given.
    """
    rng = random.Random(f"battery-ci/{seed}")
    return {"batteries": [{name: rng.randrange(1 << 31) for name in CI_SUITE_CASES}
                          for _ in range(BATTERIES)]}


def battery_prepare(dh, data: dict) -> dict:
    return {"profile": dh.PROFILES["ci"], **data}


def battery_execute(dh, prepared: dict, hooks: Hooks) -> UnitResult:
    """The ten suites at the ci profile, per battery.

    One op of ``attempted`` and ``ops_per_s`` is one exact check.  The checks
    are not timed one at a time, so latency is timed per group case instead, by
    rebinding the suites' private case loop: a latency sample covers one group
    case and its many checks.  Each suite is traced from its entry to its exit.
    """
    result = UnitResult()
    suites = dh.suites
    original = suites._run_cases
    clock = time.perf_counter

    def timed_cases(worker, cases):
        out = []
        for case in cases:
            hooks.begin(len(result.latencies))
            start = clock()
            out.append(worker(case))
            result.latencies.append(("case", start, clock() - start))
        return out

    suites._run_cases = timed_cases
    verdicts = []
    try:
        for battery in prepared["batteries"]:
            for name, seed in battery.items():
                hooks.begin(len(result.latencies))
                start = clock()
                try:
                    verdict = dh.run_suite(name, prepared["profile"], seed)
                except Exception:  # a raising suite has failed all its checks, and the run goes on
                    verdict = None
                result.work.append((start, clock()))
                hooks.end()
                verdicts.append((name, verdict))
    finally:
        suites._run_cases = original
    suite_wall_s = result.details["suite_wall_s"] = {}
    for name, verdict in verdicts:
        expected = CI_SUITE_CASES[name]
        result.attempted += expected
        if verdict is None:
            result.failed += expected
            result.digests.append("failed")
            continue
        # a suite that ran a different number of checks has failed all of them
        result.failed += len(verdict.failures) if verdict.cases == expected else expected
        result.digests.append(digest(verdict.to_json()))
        suite_wall_s[name] = suite_wall_s.get(name, 0.0) + verdict.wall_time_ms / 1000
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_s: float  # one repetition on the reference box; sets the repetitions per run
    inputs: Callable[[int], dict]
    prepare: Callable[[Any, dict], Any]
    execute: Callable[..., UnitResult]


def _ops_executor(ops: Callable) -> Callable[..., UnitResult]:
    def execute(dh, prepared, hooks: Hooks) -> UnitResult:
        return run_ops(ops(dh, prepared), hooks)
    return execute


WORKLOADS = {w.name: w for w in (
    Workload("battery-ci",
             "the product verdict: two ci batteries of the ten suites; an op is one of 2 x 5,423 exact "
             "checks, a latency sample one of 148 group cases; poly-bound",
             33, battery_inputs, battery_prepare, battery_execute),
    Workload("generic-roots",
             "G2 and F4 loaded from JSON: no reflection is a signed permutation, so compose_linear "
             "does real polynomial products",
             14, generic_inputs, generic_prepare, _ops_executor(generic_ops)),
    Workload("kernels",
             "exact RREF-bound kernels: z2^4 harmonic and monogenic bases, trivial m=5 harmonics, "
             "dense Fischer solves in B3; linalg-bound",
             14, kernels_inputs, kernels_prepare, _ops_executor(kernels_ops)),
    Workload("cli-requests",
             "seeded cli.main requests with cold per-context caches; the only workload through "
             "argument parsing and JSON I/O",
             12, cli_inputs, cli_prepare, _ops_executor(cli_ops)),
)}
