"""One workload in one process: set up, say "ready", run timed passes over
the workload's cases, check every answer, and print one JSON line.

``bench/run.py`` starts this script and times set-up from the outside;
run it by hand only to debug a workload:

    python3 bench/child.py --workload verify --seed 1 --seconds 5 --trace 0

The lcalab under test is the one in this checkout's ``src``.  Every case
calls the public functions of ``solver``, ``bimaps``, ``algebra`` and
``cli`` in process, on inputs made from ``--seed``.  A case whose
mathematical answer is wrong, or that raises, counts as failed; the
script then exits 1 after printing its result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
import lcalab  # noqa: E402
from lcalab import algebra, bimaps, cli, poly, solver  # noqa: E402
from lcalab.poly import B, D, L, M  # noqa: E402
from layertrace import Tracer  # noqa: E402

SOLVER_TAGS = ("def1a", "def1b")
ALL_SOLVER_TAGS = ("def1a", "def1b", "lem1")
INHOMOGENEOUS = BENCH / "inhomogeneous_clw.json"


@dataclass
class Case:
    """One timed call and the check of its answer.

    ``run`` is timed; ``check`` gets its return value and lists what is
    wrong with it (empty when the answer is right).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def canonical_sha256(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# Solver cases: solve_bider + match_templates + solver_report, the path of
# `lcalab match --format json`.
# ---------------------------------------------------------------------------

def check_report(report: dict, dimension: int, golden: str | None) -> list[str]:
    """Dimension, full template match, and (for fixed inputs) the golden hash."""
    problems: list[str] = []
    expect(problems, report["dimension"] == dimension,
           f"dimension {report['dimension']}, expected {dimension}")
    expect(problems, not report["unmatched"] and len(report["matched"]) == dimension,
           f"{len(report['unmatched'])} basis vectors unmatched")
    if golden is not None:
        digest = canonical_sha256(report)
        expect(problems, digest == golden,
               f"solver_report sha256 {digest}, golden {golden}")
    return problems


def solver_case(name: str, alg, degree: int, tags: tuple[str, ...], dimension: int,
                golden: str | None) -> Case:
    def run():
        # solve_bider re-checks every basis vector with verify_map and raises
        # SolverError if one fails, so a returned space passed the re-check.
        space = solver.solve_bider(alg, degree, tags)
        match = solver.match_templates(space)
        return solver.solver_report(space, match)

    return Case(name, run, lambda report: check_report(report, dimension, golden))


def cli_match_case(name: str, algebra_file: Path, degree: int, dimension: int,
                   golden: str) -> Case:
    """`lcalab match --algebra FILE --format json --out OUT`, in process."""
    out = OUT / f"{name}.json"
    argv = ["match", "--algebra", str(algebra_file), "--degree", str(degree),
            "--format", "json", "--out", str(out)]

    def check(code) -> list[str]:
        if code != 0:
            return [f"lcalab match exited {code}"]
        report = json.loads(out.read_text())
        out.unlink()
        return check_report(report, dimension, golden)

    return Case(name, lambda: cli.main(argv), check)


def axioms_case(name: str, alg) -> Case:
    def check(report) -> list[str]:
        return [] if report.passed else [f"{alg.name} fails its axioms: "
                                         f"{report.failures()[:3]}"]
    return Case(name, lambda: algebra.check_axioms(alg), check)


# ---------------------------------------------------------------------------
# Verification cases: no solver, only bracket / map_eval / residual / Poly.
# ---------------------------------------------------------------------------

def tuple_count(n_gens: int, tags) -> int:
    return sum(n_gens ** bimaps.TAG_ARITY[t] for t in tags)


def verify_family_case(name: str, alg, shift: int, a: Fraction) -> Case:
    phi = bimaps.make_family(alg, "clw_shift", shift=shift, a=a, g=0)
    checked = tuple_count(len(alg.generators()), bimaps.TAGS)

    def check(report) -> list[str]:
        problems: list[str] = []
        expect(problems, report.passed, f"clw_shift(s={shift}, a={a}) fails: "
                                        f"{[str(r) for r in report.failures[:3]]}")
        expect(problems, report.checked == checked,
               f"checked {report.checked} tuples, expected {checked}")
        return problems

    return Case(name, lambda: bimaps.verify_map(phi, bimaps.TAGS), check)


def cli_axioms_case(name: str, m: int) -> Case:
    """`lcalab check-axioms --catalog clw --m M --format json` at symbolic b."""
    out = OUT / f"{name}.json"
    argv = ["check-axioms", "--catalog", "clw", "--m", str(m), "--format", "json",
            "--out", str(out)]
    n = 2 * m

    def check(code) -> list[str]:
        if code != 0:
            return [f"lcalab check-axioms exited {code}"]
        report = json.loads(out.read_text())
        out.unlink()
        problems: list[str] = []
        expect(problems, report["passed"] is True and not report["failures"],
               f"CLW(m={m}) fails its axioms")
        expect(problems, report["checked"] == {"skew": n ** 2, "jacobi": n ** 3},
               f"checked {report['checked']}")
        return problems

    return Case(name, lambda: cli.main(argv), check)


def negative_control_case(name: str, alg, shift: int, golden_residual: str) -> Case:
    """The g-component of clw_shift forced onto symbolic b.

    It is a biderivation only at b = -1, so def1b must fail on exactly the
    (L, L, L) triples, each with residual (b+1)*l*(d+l+2*m) on
    G_{i+j+k+shift}.
    """
    gens = alg.generators()
    table = {(gi, gj): alg.element({alg.gen("G", gi.index + gj.index + shift): D + 2 * L})
             for gi in gens for gj in gens if gi.family == gj.family == "L"}
    phi = bimaps.BilinearMap(alg, table)
    factor = (B + 1) * L * (D + L + 2 * M)
    expected = {
        (x, y, z): alg.element({alg.gen("G", x.index + y.index + z.index + shift): factor})
        for x in gens for y in gens for z in gens
        if x.family == y.family == z.family == "L"
    }

    def check(report) -> list[str]:
        problems: list[str] = []
        expect(problems, report.checked == len(gens) ** 3,
               f"checked {report.checked} tuples, expected {len(gens) ** 3}")
        got = {r.args: r.value for r in report.failures}
        expect(problems, got == expected,
               f"{len(got)} failing residuals, expected the {len(expected)} "
               f"(L,L,L) residuals (b+1)*l*(d+l+2*m)")
        printed = {str(c) for value in got.values() for c in value.terms.values()}
        expect(problems, printed == {golden_residual},
               f"residuals print as {sorted(printed)}, golden {golden_residual}")
        return problems

    return Case(name, lambda: bimaps.verify_map(phi, ["def1b"]), check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def generic_rational(rng: random.Random) -> Fraction:
    """A non-integer rational p/q, 2 <= q <= 5, |p| <= 9.

    Integer b such as 0 or 1 zero out bracket coefficients and make the
    case sparser; a non-integer b keeps the work per seed comparable and
    is never the special value -1.
    """
    while True:
        p, q = rng.randint(-9, 9), rng.randint(2, 5)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def classify(rng: random.Random, golden: dict) -> list[Case]:
    reports = golden["reports"]
    b = generic_rational(rng)
    return [
        solver_case("cw4-d2", algebra.make_catalog("cw", 4), 2, SOLVER_TAGS, 4,
                    reports["cw4-d2"]),
        solver_case("clw3-bm1-d2", algebra.make_catalog("clw", 3, -1), 2, SOLVER_TAGS,
                    6, reports["clw3-bm1-d2"]),
        solver_case(f"clw2-b{b}-d2", algebra.make_catalog("clw", 2, b), 2, SOLVER_TAGS,
                    2, None),
    ]


def classify_ungraded(rng: random.Random, golden: dict) -> list[Case]:
    # Both solves are fixed inputs, checked against golden hashes; the seed
    # does not change them.
    reports = golden["reports"]
    return [
        axioms_case("inhom-axioms", algebra.load_algebra(INHOMOGENEOUS)),
        cli_match_case("inhom-cli-d2", INHOMOGENEOUS, 2, 3, reports["inhom-cli-d2"]),
        solver_case("clw2-bm1-all-d2", algebra.make_catalog("clw", 2, -1), 2,
                    ALL_SOLVER_TAGS, 4, reports["clw2-bm1-all-d2"]),
    ]


def verify(rng: random.Random, golden: dict) -> list[Case]:
    clw4 = algebra.make_catalog("clw", 4)
    shift = rng.randrange(4)
    a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    neg_shift = rng.randrange(4)
    return [
        verify_family_case(f"clw4-shift{shift}-a{a}", clw4, shift, a),
        cli_axioms_case("clw6-axioms-cli", 6),
        negative_control_case(f"neg-control-shift{neg_shift}", clw4, neg_shift,
                              golden["negative_control_residual"]),
    ]


def smoke(rng: random.Random, golden: dict, offset: int = 0) -> list[Case]:
    reports = golden["reports"]
    return [
        solver_case("vir-d2", algebra.make_catalog("vir"), 2, SOLVER_TAGS, 1 + offset,
                    reports["vir-d2"]),
        solver_case("cw2-d2", algebra.make_catalog("cw", 2), 2, SOLVER_TAGS, 2 + offset,
                    reports["cw2-d2"]),
    ]


WORKLOADS = {
    "classify": classify,
    "classify-ungraded": classify_ungraded,
    "verify": verify,
    # The two smallest cases, for the benchmark's own smoke test; the second
    # expects a wrong dimension, so every one of its answer checks fails.
    "smoke": smoke,
    "smoke-wrong-answer": lambda rng, golden: smoke(rng, golden, offset=1),
}


# ---------------------------------------------------------------------------
# Passes and tracing
# ---------------------------------------------------------------------------

class Tally:
    """Cases attempted and failed; each failing case is reported once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def fail(self, case: Case, message: str) -> None:
        self.failed += 1
        if case.name not in self._reported:
            self._reported.add(case.name)
            print(f"bench: case {case.name} {message}", file=sys.stderr)


class SpeedProbe:
    """The host's speed, sampled while the cases run.

    On a shared host the speed drifts by up to 1.5x over minutes, so raw
    pass times of runs made minutes apart do not compare.  Every
    INTERVAL_S a SIGALRM handler times a fixed integer loop that shares no
    code with lcalab.  It runs interleaved with the cases and sees the same
    host speed, so a pass's seconds can be rescaled to the speed at which
    the loop takes NOMINAL_S.  Time spent in the probe is kept in ``busy``
    and left out of the pass.
    """

    INTERVAL_S = 0.02
    LOOP = 3000
    NOMINAL_S = 200e-6

    def __init__(self) -> None:
        self.busy = 0.0
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, seconds: float) -> tuple[float, float]:
        """(seconds at nominal speed, median probe time) of the pass just
        ended; the next pass starts with no samples."""
        if not self.samples:
            self._sample()
        probe = statistics.median(self.samples)
        self.samples = []
        return seconds * self.NOMINAL_S / probe, probe


def run_case(case: Case) -> object:
    return case.run()


def run_pass(cases: list[Case], tally: Tally, runner=run_case,
             probe: SpeedProbe | None = None) -> float:
    """Run every case once; return the seconds spent inside the case calls."""
    seconds = 0.0
    for case in cases:
        tally.attempted += 1
        busy = probe.busy if probe else 0.0
        t0 = time.perf_counter()
        try:
            result = runner(case)
        except Exception:  # a crash is a failed case, not a dead benchmark
            tally.fail(case, f"raised:\n{traceback.format_exc()}")
            continue
        finally:
            seconds += time.perf_counter() - t0 - ((probe.busy - busy) if probe else 0.0)
        problems = case.check(result)
        if problems:
            tally.fail(case, f"wrong: {'; '.join(problems)}")
    return seconds


def timed_passes(cases: list[Case], seconds: float, tally: Tally,
                 after_pass=None, runner=run_case,
                 probe: SpeedProbe | None = None) -> list[float]:
    """Run passes until ``seconds`` have gone by; at least one."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        times.append(run_pass(cases, tally, runner, probe))
        if after_pass is not None:
            after_pass(times[-1])
        if time.perf_counter() - start >= seconds:
            return times


def install_tracer() -> Tracer:
    tracer = Tracer()
    for module, attr, name in [
        ("lcalab.algebra", "bracket", "algebra.bracket"),
        ("lcalab.bimaps", "map_eval", "bimaps.map_eval"),
        ("lcalab.bimaps", "residual", "bimaps.residual"),
    ]:
        tracer.install_function(module, attr, name)
    for module, attr, name, keep in [
        ("lcalab.cli", "main", "cli.main", False),
        ("lcalab.algebra", "check_axioms", "algebra.check_axioms", False),
        ("lcalab.bimaps", "verify_map", "bimaps.verify_map", True),
        ("lcalab.solver", "solve_bider", "solver.solve_bider", False),
        ("lcalab.solver", "assemble", "solver.assemble", True),
        ("lcalab.solver", "nullspace", "solver.nullspace", True),
        ("lcalab.solver", "match_templates", "solver.match_templates", False),
    ]:
        tracer.install_function(module, attr, name, coarse=True, keep_results=keep)
    for attr, name in [
        ("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
        ("__add__", "poly.add"), ("__radd__", "poly.add"),
        ("__sub__", "poly.add"), ("__rsub__", "poly.add"),
        ("__neg__", "poly.neg"), ("__pow__", "poly.pow"),
        ("subst", "poly.subst"),
    ]:
        tracer.install_method(poly.Poly, attr, name)
    return tracer


POLY_OPS = ("poly.mul", "poly.add", "poly.neg", "poly.pow", "poly.subst")


def layer_metrics(tracer, case_seconds: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    def total(name, parent=None):
        return tracer.totals(name, parent)[1]

    def self_s(name):
        return tracer.totals(name)[2]

    def calls(name, parent=None):
        return tracer.totals(name, parent)[0]

    systems = tracer.results.get("solver.assemble", [])
    spaces = tracer.results.get("solver.nullspace", [])
    rows = sum(s.n_rows for s in systems)
    rank = sum(sp.ansatz.n_unknowns - sp.dimension for sp in spaces)
    assemble_s = total("solver.assemble")
    return {
        "solver.assemble.s": assemble_s,
        "solver.assemble.self_s": self_s("solver.assemble"),
        "solver.assemble.share": assemble_s / case_seconds,
        "solver.assemble.residual_calls": calls("bimaps.residual", "solver.assemble"),
        "solver.assemble.rows": rows,
        "solver.assemble.distinct_rows": sum(
            len({frozenset(r.items()) for r in s.rows}) for s in systems),
        "solver.assemble.row_yield": rank / rows if rows else 0.0,
        "solver.unknowns": sum(s.n_unknowns for s in systems),
        "solver.rank": rank,
        "solver.nullspace.s": total("solver.nullspace"),
        "solver.post_verify.s": total("bimaps.verify_map", "solver.solve_bider"),
        "solver.match.s": total("solver.match_templates"),
        "bimaps.residual.calls": calls("bimaps.residual"),
        "bimaps.residual.self_s": self_s("bimaps.residual"),
        "bimaps.map_eval.calls": calls("bimaps.map_eval"),
        "bimaps.map_eval.self_s": self_s("bimaps.map_eval"),
        "bimaps.verify_map.s": total("bimaps.verify_map"),
        "bimaps.verify_map.tuples": sum(
            r.checked for r in tracer.results.get("bimaps.verify_map", [])),
        "algebra.bracket.calls": calls("algebra.bracket"),
        "algebra.bracket.self_s": self_s("algebra.bracket"),
        "algebra.check_axioms.s": total("algebra.check_axioms"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.add.calls": calls("poly.add"),
        "poly.add.self_s": self_s("poly.add"),
        "poly.subst.calls": calls("poly.subst"),
        "poly.subst.self_s": self_s("poly.subst"),
        "poly.self_s": sum(self_s(name) for name in POLY_OPS),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (for timing set-up alone)")
    args = parser.parse_args(argv)

    if Path(lcalab.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: imported lcalab from {lcalab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    golden = json.loads((BENCH / "golden.json").read_text())
    cases = WORKLOADS[args.workload](random.Random(args.seed), golden)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    if not args.trace:
        wall: list[float] = []
        probes: list[float] = []

        def rescale(seconds: float) -> None:
            scaled, probe_s = probe.rescale(seconds)
            wall.append(scaled)
            probes.append(probe_s)

        with SpeedProbe() as probe:
            raw = timed_passes(cases, args.seconds, tally, rescale, probe=probe)
        print(f"bench: {len(raw)} passes, raw median {statistics.median(raw):.4f} s, "
              f"probe median {statistics.median(probes) * 1e6:.1f} us", file=sys.stderr)
        layers = None
    else:
        # A third of the time untraced, the rest traced, in the same process,
        # so that their ratio is the tracing overhead.
        wall = timed_passes(cases, args.seconds / 3, tally)
        tracer = install_tracer()
        per_pass: list[dict[str, float]] = []

        def collect(seconds: float) -> None:
            per_pass.append(layer_metrics(tracer, seconds))
            tracer.reset()

        traced = timed_passes(cases, args.seconds * 2 / 3, tally, collect,
                              tracer.coarse("bench.case", run_case))
        layers = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(wall)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }), flush=True)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
