"""The four benchmark workloads.

Each workload is a closed loop of one client: a round is a fixed list of
calls made the way a user makes them, each started after the previous one
returns.  ``graphrenorm.cli.main`` is called in-process where a command
exists and the public function otherwise.  A round draws fresh inputs
from (seed, round), so no round reuses another's Monte Carlo streams or,
on ``combinatorics``, another's graphs (the package memoizes per-subgraph
counts, which a user running one command per process never reuses).

Only the program calls are timed.  Outputs are checked after the last
round, so that checking adds no time to the measured work; the one large
output, ``analyze``'s report, is cut down to the counts its check needs
between calls, so that peak memory does not grow with the number of rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

# Package functions are called through their modules (lattice.irreducibles,
# not a name imported here), so that the tracer's patches see the calls.
from graphrenorm import charts as gr_charts
from graphrenorm import cli as gr_cli
from graphrenorm import fixtures as fx
from graphrenorm import graphs, homology, lattice, renorm
from graphrenorm.bump import BumpSpec
from graphrenorm.graphs import Graph
from graphrenorm.mc import MCParams

import oracles
import reference

HERE = Path(__file__).resolve().parent
META = json.loads((HERE / "meta.json").read_text())

N_SIGMA = 3.0      # tolerance of every statistical check
GROSS_SIGMA = 5.0  # beyond this a miss is a defect, not chance


def derive_seed(*parts) -> int:
    """31-bit seed, stable across platforms, from the run seed and tags."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


class Checks:
    """Output checks of one run.  ``failed`` counts misses at the stated
    tolerance; ``gross`` counts exact-check failures and statistical misses
    beyond GROSS_SIGMA, which a calibrated estimate essentially never
    produces by chance."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gross = 0
        self.misses: list[str] = []

    def exact(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.gross += 1
            self.misses.append(what)

    def sigma(self, value: float, target: float, stderr: float,
              what: str) -> None:
        """value within N_SIGMA stderr of target."""
        z = abs(value - target) / stderr if stderr > 0 else math.inf
        self.attempted += 1
        if not z <= N_SIGMA:
            self.failed += 1
            self.misses.append(f"{what}: {z:.2f} sigma")
            if not z <= GROSS_SIGMA:
                self.gross += 1


class Timer:
    """Sums the measured wall time of the program calls of one round and
    probes the machine's speed between calls (see reference.py)."""

    PROBE_EVERY_S = 1.0

    def __init__(self):
        self.wall = 0.0
        self.probes = [reference.probe()]

    def __call__(self, fn, *args, **kwargs):
        if time.perf_counter() - self.probes[-1][0] >= self.PROBE_EVERY_S:
            self.probes.append(reference.probe())
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.wall += time.perf_counter() - start
        return out

    def close(self) -> None:
        self.probes.append(reference.probe())


def cli(args: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gr_cli.main(args)
    return code, out.getvalue()


def pooled(values: list[float], stderrs: list[float]) -> tuple[float, float]:
    """Equal-weight mean of independent equal-size estimates."""
    n = len(values)
    return sum(values) / n, math.sqrt(sum(e * e for e in stderrs)) / n


def finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


class Workload:
    """A round list plus the checks on what the rounds returned.

    ``samples`` is the number of Monte Carlo points (or, on combinatorics,
    enumerated objects) per round; ``errors`` holds one
    {estimate: stderr / scale} dict per round for the figure of merit.
    """

    name = ""

    def __init__(self, root: Path, seed: int):
        self.fixtures = root / "fixtures"
        self.seed = seed
        self.samples = 0
        self.errors: list[dict] = []

    def seed_for(self, r: int, tag: str) -> int:
        return derive_seed(self.seed, self.name, r, tag)

    def round(self, r: int, timed: Timer) -> None:
        raise NotImplementedError

    def check(self, checks: Checks) -> None:
        raise NotImplementedError

    def _scaled(self, key: str, stderr: float) -> float:
        return stderr / META["scales"][key]


def _estimate(code: int, text: str) -> dict:
    return json.loads(text) if code == 0 else {}


# ---------------------------------------------------------------------------
# period
# ---------------------------------------------------------------------------

class Period(Workload):
    """Periods without counterterms: the fish, the dunce's leading
    coefficient (a product of two fish periods) and K4."""

    name = "period"
    FISH_SAMPLES = 2_000_000
    LEAD_SAMPLES = 2_000_000
    K4_SAMPLES = 500_000
    BATCHES = 200  # steadier batch-variance stderr for the figure of merit

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.fish = str(self.fixtures / "fish.g")
        self.k4 = str(self.fixtures / "k4.g")
        self.dunce = graphs.parse_graph(
            (self.fixtures / "dunce.g").read_text())
        self.out: list[dict] = []

    def _fish_args(self, r):
        return ["period", self.fish, "--samples", str(self.FISH_SAMPLES),
                "--batches", str(self.BATCHES),
                "--seed", str(self.seed_for(r, "fish"))]

    def round(self, r, timed):
        fish = timed(cli, self._fish_args(r))
        lead = timed(renorm.leading_coefficient, self.dunce,
                     MCParams(samples=self.LEAD_SAMPLES,
                              batches=self.BATCHES,
                              seed=self.seed_for(r, "lead")))
        k4 = timed(cli, ["period", self.k4, "--samples",
                         str(self.K4_SAMPLES),
                         "--seed", str(self.seed_for(r, "k4"))])
        self.out.append({"fish": fish, "lead": lead, "k4": k4})
        fish_est, k4_est = _estimate(*fish), _estimate(*k4)
        self.samples = (fish_est.get("samples", 0) + lead.samples
                        + k4_est.get("samples", 0))
        # K4's integrand has infinite variance: its batch stderr ranges
        # over four decades between seeds, so it is timed but left out of
        # the figure of merit.
        self.errors.append({
            "fish_period": self._scaled("fish_period",
                                        fish_est.get("stderr", math.inf)),
            "dunce_leading": self._scaled("dunce_leading", lead.stderr)})

    def check(self, checks):
        fish_v, fish_e, lead_v, lead_e = [], [], [], []
        for out in self.out:
            for key, want in (("fish", self.FISH_SAMPLES),
                              ("k4", self.K4_SAMPLES)):
                code, text = out[key]
                est = _estimate(code, text)
                checks.exact(code == 0 and est.get("samples") == want
                             and finite(est.get("value"), est.get("stderr"))
                             and est["stderr"] > 0,
                             f"{key} period output")
            est = _estimate(*out["fish"])
            if est:
                fish_v.append(est["value"])
                fish_e.append(est["stderr"])
            lead = out["lead"]
            checks.exact(finite(lead.value, lead.stderr) and lead.stderr > 0,
                         "dunce leading coefficient output")
            lead_v.append(lead.value)
            lead_e.append(lead.stderr)
        if fish_v:
            value, stderr = pooled(fish_v, fish_e)
            checks.sigma(value, oracles.fish_period(), stderr,
                         "fish period vs oracle")
        value, stderr = pooled(lead_v, lead_e)
        checks.sigma(value, oracles.dunce_leading(), stderr,
                     "dunce leading vs oracle")
        checks.exact(cli(self._fish_args(0)) == self.out[0]["fish"],
                     "fish period rerun byte-identical")


# ---------------------------------------------------------------------------
# counterterms
# ---------------------------------------------------------------------------

class Counterterms(Workload):
    """Counterterm (subset-sum) integrands at |N| = 1, 2 and 3: the RG
    identity on the dunce's cap, fixed-conditions subtraction on the top
    chart of nm11 and the minimal-subtraction cutoff shift on the fish."""

    name = "counterterms"
    RG_SAMPLES = 200_000
    NM11_SAMPLES = 200_000
    MS_SAMPLES = 500_000
    MS_BATCHES = 200  # steadier batch-variance stderr for the figure of merit
    MS_CUTS = (0.7, 1.3)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.dunce = str(self.fixtures / "dunce.g")
        self.nm11 = str(self.fixtures / "nm11.g")
        fish = graphs.parse_graph((self.fixtures / "fish.g").read_text())
        self.fish_chart = gr_charts.chart_for(
            lattice.irreducibles(lattice.divergent_lattice(fish)),
            [fish.full()])
        self.psi = BumpSpec(2.0)
        self.out: list[dict] = []

    def _ms(self, r):
        return renorm.ms_cutoff_difference(
            self.fish_chart, *self.MS_CUTS, self.psi, 1.0,
            MCParams(samples=self.MS_SAMPLES, batches=self.MS_BATCHES,
                     seed=self.seed_for(r, "ms")))

    def round(self, r, timed):
        rg = timed(cli, ["rgcheck", self.dunce, "--samples",
                         str(self.RG_SAMPLES),
                         "--seed", str(self.seed_for(r, "rg"))])
        nm11 = timed(cli, ["renorm", self.nm11, "--scheme", "fixed",
                           "--samples", str(self.NM11_SAMPLES),
                           "--seed", str(self.seed_for(r, "nm11"))])
        ms = timed(self._ms, r)
        self.out.append({"rg": rg, "nm11": nm11, "ms": ms})
        rg_doc = json.loads(rg[1]) if rg[1] else {}
        nm_est = _estimate(*nm11)
        self.samples = (rg_doc.get("lhs", {}).get("samples", 0)
                        + rg_doc.get("rhs", {}).get("samples", 0)
                        + nm_est.get("samples", 0) + ms.samples)
        # The rgcheck sides and nm11 have heavy tails (nm11's stderr spans
        # a factor of 20 between seeds), so only the fish shift, whose
        # variance is finite, enters the figure of merit.
        self.errors.append({"fish_ms_shift": self._scaled("fish_ms_shift",
                                                          ms.stderr)})

    def check(self, checks):
        ms_v, ms_e = [], []
        for out in self.out:
            code, text = out["rg"]
            doc = json.loads(text) if text else {}
            lhs, rhs = doc.get("lhs", {}), doc.get("rhs", {})
            ok = finite(lhs.get("value"), lhs.get("stderr"),
                        rhs.get("value"), rhs.get("stderr"))
            checks.exact(ok and code == (0 if doc.get("passed") else 1)
                         and lhs.get("samples") == self.RG_SAMPLES,
                         "rgcheck output")
            if ok:
                checks.sigma(lhs["value"], rhs["value"],
                             math.hypot(lhs["stderr"], rhs["stderr"]),
                             "rgcheck lhs vs rhs (passed)")
            code, text = out["nm11"]
            est = _estimate(code, text)
            checks.exact(code == 0 and est.get("samples") == self.NM11_SAMPLES
                         and finite(est.get("value"), est.get("stderr"))
                         and est["stderr"] > 0, "nm11 renorm output")
            ms = out["ms"]
            checks.exact(finite(ms.value, ms.stderr) and ms.stderr > 0,
                         "fish ms shift output")
            ms_v.append(ms.value)
            ms_e.append(ms.stderr)
        value, stderr = pooled(ms_v, ms_e)
        checks.sigma(value, oracles.fish_ms_shift(*self.MS_CUTS), stderr,
                     "fish ms shift vs oracle")
        again = self._ms(0)
        first = self.out[0]["ms"]
        checks.exact((again.value, again.stderr, again.samples)
                     == (first.value, first.stderr, first.samples),
                     "fish ms shift rerun identical")


# ---------------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------------

class Locality(Workload):
    """Numeric locality check on nm11: joint-chart pairing against the
    factorized one with an inner Monte Carlo over the cross edges."""

    name = "locality"
    SAMPLES = 100_000

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.nm11 = str(self.fixtures / "nm11.g")
        self.out: list = []

    def round(self, r, timed):
        out = timed(cli, ["locality", self.nm11, "--g", "0,1", "--h", "2,3",
                          "--numerical", "--samples", str(self.SAMPLES),
                          "--seed", str(self.seed_for(r, "locality"))])
        self.out.append(out)
        doc = json.loads(out[1]) if out[1] else {}
        numeric = doc.get("numeric", {})
        lhs, rhs = numeric.get("lhs", {}), numeric.get("rhs", {})
        self.samples = lhs.get("samples", 0) + rhs.get("samples", 0)
        # Both sides have infinite-variance tails (Cauchy-sampled marked
        # coordinates): their batch stderr varies a thousandfold between
        # rounds, so neither enters the figure of merit.

    def check(self, checks):
        for code, text in self.out:
            doc = json.loads(text) if text else {}
            numeric = doc.get("numeric", {})
            lhs, rhs = numeric.get("lhs", {}), numeric.get("rhs", {})
            ok = finite(lhs.get("value"), lhs.get("stderr"),
                        rhs.get("value"), rhs.get("stderr"))
            passed = numeric.get("passed")
            checks.exact(doc.get("combinatorial_ok") is True
                         and doc.get("irreducibles_split") is True
                         and doc.get("nested_sets_split") is True,
                         "locality: nested sets split")
            checks.exact(ok and lhs.get("samples") == self.SAMPLES
                         and code == (0 if passed else 1),
                         "locality output")
            if ok:
                checks.sigma(lhs["value"], rhs["value"],
                             math.hypot(lhs["stderr"], rhs["stderr"]),
                             "locality lhs vs rhs (passed)")


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

# (fixture function, arguments, enumerate charts).  Sized so that the
# lattice scan, the property check, chart enumeration, the homology oracle
# and report writing each take a tenth or more of the round.  bubble_chain(4)
# (684,584 charts, about 10 s), insertion_chain(7) (195,024 charts) and
# two_sided_bubbles(4,2) skip chart enumeration to keep a round well under
# the run length.
FAMILY = [
    ("bubble_chain", (2,), True),
    ("bubble_chain", (3,), True),
    ("bubble_chain", (4,), False),
    ("insertion_chain", (3,), True),
    ("insertion_chain", (4,), True),
    ("insertion_chain", (5,), True),
    ("insertion_chain", (6,), True),
    ("insertion_chain", (7,), False),
    ("two_sided_bubbles", (2, 2), True),
    ("two_sided_bubbles", (3, 2), True),
    ("two_sided_bubbles", (3, 3), True),
    ("two_sided_bubbles", (4, 2), False),
    ("k_complete", (4,), True),
]
SATURATED = (4, 5)          # K_n whose saturated posets are built
ORACLE_MAX_ATOMS = 5        # six atoms take more than 120 s
BELL = {4: 15, 5: 52}       # saturated subgraphs of K_n = set partitions
# The package's unbounded per-subgraph memo caches, taken before any tracer
# patch.  A round's graphs are never seen again, so their entries are
# dropped between rounds and do not add to later rounds' peak memory.
MEMOS = [f for f in vars(graphs).values() if hasattr(f, "cache_clear")]


def family_key(kind: str, args: tuple) -> str:
    return f"{kind}({','.join(map(str, args))})"


def permuted(graph: Graph, rng: random.Random, tag: str) -> Graph:
    """Same graph with shuffled edge order and shuffled, fresh vertex
    labels (fresh labels make it a new object for every memo cache)."""
    pos = list(range(graph.n_vertices))
    rng.shuffle(pos)
    order = list(range(graph.n_edges))
    rng.shuffle(order)
    labels = [""] * graph.n_vertices
    for old, new in enumerate(pos):
        labels[new] = f"{tag}{graph.vertices[old]}"
    edges = tuple((pos[graph.edges[e][0]], pos[graph.edges[e][1]])
                  for e in order)
    return Graph(tuple(labels), edges, 0, graph.dim)


def profile(timed: Timer, graph: Graph, charts: bool) -> dict:
    """Permutation-invariant profile of one graph, every stage timed."""
    poset = timed(lattice.divergent_lattice, graph)
    props = timed(lattice.check_lattice_properties, poset)
    building = timed(lattice.irreducibles, poset)
    nested = timed(lattice.enumerate_nested_sets, building)
    card = timed(lattice.max_nested_cardinality, building)
    atoms = poset.atoms()
    out = {"lattice": len(poset.elements), "atoms": len(atoms),
           "lattice_ok": props.ok, "irreducibles": len(building.members),
           "nested": len(nested), "max_nested": card.max_cardinality,
           "betti": timed(homology.homology_from_atoms, poset).as_dict()}
    if charts:
        out["charts"] = len(timed(gr_charts.enumerate_charts, building))
    if len(atoms) <= ORACLE_MAX_ATOMS:
        out["betti_oracle"] = \
            timed(homology.homology_gm_oracle, poset).as_dict()
    return out


class Combinatorics(Workload):
    """Lattices, building and nested sets, charts and homology over a
    family of graphs whose edge order and vertex labels the seed permutes,
    plus the saturated posets of K4 and K5 and ``analyze`` on bubble3."""

    name = "combinatorics"
    EXPECTED = json.loads((HERE / "combinatorics_expected.json").read_text())

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.scratch = root / ".bench_out"
        self.scratch.mkdir(exist_ok=True)
        self.bubble3 = graphs.parse_graph(
            (self.fixtures / "bubble3.g").read_text())
        self.profiles: list[dict] = []
        self.saturated: list[dict] = []
        self.analyze: list = []
        self.inputs = self._inputs(0)

    def _inputs(self, r: int):
        rng = random.Random(self.seed_for(r, "permutation"))
        tag = f"r{r}_"
        family = [(family_key(b, a), permuted(getattr(fx, b)(*a), rng, tag),
                   charts) for b, a, charts in FAMILY]
        complete = {n: permuted(fx.k_complete(n), rng, tag)
                    for n in SATURATED}
        path = self.scratch / f"bubble3-{self.seed}-{r}.g"
        path.write_text(fx.graph_file_text(permuted(self.bubble3, rng, tag)))
        return family, complete, path

    def round(self, r, timed):
        family, complete, path = self.inputs if r == 0 else self._inputs(r)
        self.profiles.append({key: profile(timed, g, charts)
                              for key, g, charts in family})
        self.saturated.append(
            {n: len(timed(lattice.saturated_poset, g).elements)
             for n, g in complete.items()})
        self.analyze.append(analyze_summary(*timed(cli, ["analyze",
                                                         str(path)])))
        path.unlink()
        for memo in MEMOS:
            memo.cache_clear()
        scanned = sum(2 ** g.n_edges for _, g, _ in family) \
            + sum(2 ** g.n_edges for g in complete.values()) \
            + 2 * 2 ** self.bubble3.n_edges
        charts = sum(p.get("charts", 0) for p in self.profiles[-1].values())
        self.samples = scanned + charts \
            + self.EXPECTED["analyze_bubble3"]["charts"]

    def check(self, checks):
        exp = self.EXPECTED
        for profiles in self.profiles:
            for kind, args, _ in FAMILY:
                key = family_key(kind, args)
                got, want = profiles[key], exp["family"][key]
                for field, value in got.items():
                    if field != "betti_oracle":
                        checks.exact(value == _int_keys(want[field]),
                                     f"{key} {field}")
                if "betti_oracle" in got:
                    checks.exact(got["betti_oracle"] == got["betti"],
                                 f"{key} oracle Betti table = atom table")
                n = args[0]
                if kind == "bubble_chain":
                    checks.exact(got["irreducibles"] == n * (n + 1) // 2,
                                 f"{key} |I| = n(n+1)/2")
                if kind == "insertion_chain":
                    checks.exact(got["nested"] == 2 ** n - 1,
                                 f"{key} nested sets = 2^n - 1")
        for sizes in self.saturated:
            for n, size in sizes.items():
                checks.exact(size == BELL[n], f"saturated poset of K{n}")
        want = exp["analyze_bubble3"]
        for got in self.analyze:
            checks.exact(got is not None and got["betti_oracle"] == got["betti"]
                         and all(got[k] == want[k] for k in
                                 ("charts", "lattice", "nested", "betti")),
                         "analyze bubble3")
        code, text = cli(["analyze", str(self.fixtures / "dunce.g")])
        golden = (self.fixtures / "dunce_analysis.json").read_text()
        checks.exact(code == 0 and text == golden,
                     "analyze dunce.g byte-identical to golden")


def analyze_summary(code: int, text: str) -> dict | None:
    """The counts and Betti tables of an ``analyze`` report, or None when
    the command failed."""
    if code != 0:
        return None
    doc = json.loads(text)
    return {"charts": len(doc["charts"]),
            "lattice": len(doc["divergent_lattice"]["elements"]),
            "nested": len(doc["nested"]["faces"]),
            "betti": doc["betti_from_atoms"],
            "betti_oracle": doc["betti_oracle"]}


def _int_keys(value):
    """JSON object keys come back as strings; Betti tables use int keys."""
    if isinstance(value, dict):
        return {int(k): v for k, v in value.items()}
    return value


WORKLOADS = {cls.name: cls for cls in
             (Period, Counterterms, Locality, Combinatorics)}
