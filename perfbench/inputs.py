"""Seeded job lists and input files for the three benchmark workloads.

Everything here uses its own small permutation code, so generating inputs
runs no function of the package under test.  A job is one CLI argv plus
what the checker needs to know about it.  Every group handed to the
program is a fresh random relabelling of its points with its generator
list shuffled, which changes every element index the program sees.

The files follow the package's documented formats: a group file lists
permutation generators and the indices of those spanning the normal
subgroup; a bundle file's action table has one row per group element in
the breadth-first closure order of the group file's generators.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

# -- permutations ---------------------------------------------------------------


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i)), the product the package uses for group files."""
    return tuple(p[i] for i in q)


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles_perm(degree: int, cycles) -> tuple:
    out = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def closure_bfs(degree: int, gens) -> list:
    """Elements in the breadth-first discovery order of the file format:
    identity first, then products x o g in queue order."""
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = compose(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return elems


def subgroup_closure(gens, degree: int) -> frozenset:
    return frozenset(closure_bfs(degree, list(gens)))


def class_count(members: frozenset) -> int:
    """Number of conjugacy classes of a permutation group given by its elements."""
    seen = set()
    count = 0
    for h in members:
        if h in seen:
            continue
        count += 1
        seen.update(compose(compose(k, h), inverse(k)) for k in members)
    return count


def _cyc(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


def _power(p: tuple, k: int) -> tuple:
    out = tuple(range(len(p)))
    for _ in range(k):
        out = compose(p, out)
    return out


def _direct(*factors) -> tuple:
    """Generators of a direct product acting on disjoint point blocks;
    factors are (degree, gens) and the result is (degree, gens per factor)."""
    total = sum(d for d, _ in factors)
    out = []
    offset = 0
    for d, gens in factors:
        block = []
        for g in gens:
            p = list(range(total))
            for i, x in enumerate(g):
                p[offset + i] = offset + x
            block.append(tuple(p))
        out.append(block)
        offset += d
    return total, out


def _ext(p: tuple, degree: int) -> tuple:
    """Extend a permutation of the first len(p) points by the identity."""
    return tuple(p) + tuple(range(len(p), degree))


def _dicyclic(m: int) -> tuple:
    """Left-regular generators (a, b) of the dicyclic group of order 4m and
    the central element a^m."""
    n = 4 * m

    def mul(x, y):
        i, j = x % (2 * m), x // (2 * m)
        k, l = y % (2 * m), y // (2 * m)
        if j == 0:
            return (i + k) % (2 * m) + 2 * m * l
        if l == 0:
            return (i - k) % (2 * m) + 2 * m
        return (i - k + m) % (2 * m)

    def left(g):
        return tuple(mul(g, h) for h in range(n))

    return n, left(1), left(2 * m), left(m)


# -- the group pool -----------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A permutation group with a distinguished normal subgroup A.

    gens generate G; normal_gens generate A and lie in G.
    """

    name: str
    degree: int
    gens: tuple
    normal_gens: tuple


def _pool() -> dict:
    s3 = (3, (cycles_perm(3, [(0, 1, 2)]), cycles_perm(3, [(0, 1)])))
    s4_gens = (cycles_perm(4, [(0, 1, 2, 3)]), cycles_perm(4, [(0, 1)]))
    v4 = (cycles_perm(4, [(0, 1), (2, 3)]), cycles_perm(4, [(0, 2), (1, 3)]))
    z2 = (2, (cycles_perm(2, [(0, 1)]),))
    pool = {}

    def add(name, degree, gens, normal):
        pool[name] = GroupSpec(name, degree, tuple(gens), tuple(normal))

    for n in (4, 8):
        add("Z%d" % n, n, [_cyc(n)], [_power(_cyc(n), 2)])
    for n in range(3, 14):
        refl = tuple((n - i) % n for i in range(n))
        add("D%d" % (2 * n), n, [_cyc(n), refl], [_cyc(n)])
    for m in (2, 3, 4, 5, 6):
        n, a, b, am = _dicyclic(m)
        add("Q%d" % n if m in (2, 4) else "Dic%d" % n, n, [a, b], [am])
    add("S3", 3, s3[1], s3[1][:1])
    add("S4", 4, s4_gens, v4)
    add("A4", 4, [cycles_perm(4, [(0, 1, 2)])] + list(v4), v4)
    add("F20", 5, [_cyc(5), tuple(2 * i % 5 for i in range(5))], [_cyc(5)])
    add("F21", 7, [_cyc(7), tuple(2 * i % 7 for i in range(7))], [_cyc(7)])
    # second normal subgroups of the catalog pairs sweep
    add("D8/center", 4, [_cyc(4), (0, 3, 2, 1)], [_power(_cyc(4), 2)])
    n, a, b, _ = _dicyclic(2)
    add("Q8/Z4", n, [a, b], [a])
    add("S4/A4", 4, s4_gens, [cycles_perm(4, [(0, 1, 2)])] + list(v4))
    # products beyond the catalog; A is the first factor's normal subgroup
    deg, (f1, f2) = _direct(s3, s3)
    add("S3xS3", deg, f1 + f2, [f1[0], f2[0]])
    deg, (f1, f2) = _direct((4, s4_gens), z2)
    add("S4xZ2", deg, f1 + f2, [_ext(v, deg) for v in v4])
    deg, (f1, f2) = _direct((4, s4_gens), s3)
    add("S4xS3", deg, f1 + f2, [_ext(v, deg) for v in v4] + [f2[0]])
    s5 = (cycles_perm(5, [(0, 1, 2, 3, 4)]), cycles_perm(5, [(0, 1)]))
    add("S5", 5, s5, [cycles_perm(5, [(0, 1, 2, 3, 4)]), cycles_perm(5, [(0, 1, 2)])])
    return pool


POOL = _pool()

# Conjugacy classes of subgroups of each group run under `bordism --global`,
# counted by brute force (every subgroup as a closure of a smaller one plus
# one element) with the permutation code above; they agree with the known
# values S3: 4, D8: 8, Q8: 6, S4: 11, S3xS3: 22, S4xZ2: 33, S5: 19.
SUBGROUP_CLASSES = {"D6": 4, "D8": 8, "D10": 4, "D12": 10, "D14": 4, "D16": 11, "D22": 4,
                    "D26": 4, "Q8": 6, "Q16": 9, "Dic12": 6, "Dic20": 6, "Dic24": 12,
                    "F20": 6, "F21": 4, "S4": 11, "S3xS3": 22, "S4xZ2": 33, "S5": 19}

# the pairs swept by the package's own catalog acceptance tests
CATALOG_PAIRS = ("Z4", "Z8", "D6", "D8", "D10", "D14", "Q8", "Q16", "S4", "A4",
                 "F21", "F20", "D8/center", "Q8/Z4", "S4/A4")


# -- jobs and their files -----------------------------------------------------------


@dataclass
class Job:
    """One CLI call and what its output must satisfy.

    key names the pool entry and arguments, so the checker can require
    every relabelling of one entry to give the same invariants.
    """

    argv: list
    kind: str            # irr, clifford, bundle, bordism-global, bordism-pair, d2p
    key: str
    order: int = 0       # |G| from the generator's own closure
    expect_exit: int = 0
    corrupted_orbit: Optional[list] = None
    points: int = 0
    subgroup_classes: int = 0   # for bordism --global: expected series[0]


@dataclass
class _Writer:
    """Writes relabelled group and bundle files into one directory."""

    workdir: str
    rng: random.Random
    count: int = 0

    def _path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, "%04d-%s.json" % (self.count, stem))

    def group_file(self, spec: GroupSpec) -> tuple:
        """Write a relabelled copy of spec; returns the path, the generator
        list as written, and the relabelled generators of G and of A."""
        sigma = list(range(spec.degree))
        self.rng.shuffle(sigma)
        sig_inv = inverse(tuple(sigma))

        def relabel(p):
            return compose(compose(tuple(sigma), p), sig_inv)

        gens = [relabel(p) for p in spec.gens]
        normal = [relabel(p) for p in spec.normal_gens]
        listed = gens + [p for p in normal if p not in gens]
        self.rng.shuffle(listed)
        data = {"name": spec.name.split("/")[0], "degree": spec.degree,
                "generators": [list(p) for p in listed],
                "normal_subgroup_generators": [listed.index(p) for p in normal]}
        path = self._path(spec.name.replace("/", "-"))
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        return path, listed, gens, normal

    def bundle_file(self, spec: GroupSpec, shape: int, corrupt: bool) -> tuple:
        """Write a bundle over an A-trivial G-set of coset orbits.

        Shape 0 is the single orbit G/A; shape 1 adds the orbits G/<A, g>
        (g the last generator) and a fixed point.  Returns (path, number of
        points, points of the corrupted orbit or None).  Orbits with two
        stored fibers get multiplicities c*(1,...,1) + b*e_0, which every
        transport between stabilizers preserves (isomorphisms permute the
        irreducibles and fix the trivial one, row 0); a corrupted file adds
        one copy of every irreducible at the second stored point of one
        such orbit.
        """
        rng = self.rng
        gpath, listed, gens, normal = self.group_file(spec)
        deg = spec.degree
        elems = closure_bfs(deg, listed)
        index = {p: i for i, p in enumerate(elems)}
        subgroups = [subgroup_closure(normal, deg)]
        if shape == 1:
            subgroups.append(subgroup_closure(list(normal) + [gens[-1]], deg))
            subgroups.append(frozenset(elems))
        # points are left cosets x H, one orbit per subgroup, numbered in a
        # shuffled order; g acts by (g o x) H
        cosets = []        # (orbit, representative x) in discovery order
        coset_of = []      # per orbit: element -> its coset's index in cosets
        for oi, h in enumerate(subgroups):
            index_of = {}
            for x in elems:
                if x not in index_of:
                    for y in h:
                        index_of[compose(x, y)] = len(cosets)
                    cosets.append((oi, x))
            coset_of.append(index_of)
        numbering = list(range(len(cosets)))
        rng.shuffle(numbering)
        action = [[0] * len(cosets) for _ in elems]
        for g in elems:
            row = action[index[g]]
            for i, (oi, x) in enumerate(cosets):
                row[numbering[i]] = numbering[coset_of[oi][compose(g, x)]]

        fibers = []
        doubles = []
        for oi, h in enumerate(subgroups):
            orbit = sorted(numbering[i] for i, c in enumerate(cosets) if c[0] == oi)
            rows = class_count(h)
            stored = rng.sample(orbit, 2 if len(orbit) > 1 and rng.random() < 0.5 else 1)
            if corrupt and oi == 0 and len(stored) == 1:
                stored.append(rng.choice([pt for pt in orbit if pt != stored[0]]))
            if len(stored) == 1:
                ms = [rng.randrange(3) for _ in range(rows)]
                if not any(ms):
                    ms[rng.randrange(rows)] = 1
                fibers.append((stored[0], ms))
            else:
                c, b = rng.randrange(3), rng.randrange(1, 3)
                ms = [c] * rows
                ms[0] += b
                fibers.append((stored[0], ms))
                fibers.append((stored[1], list(ms)))
                doubles.append((len(fibers) - 1, orbit))
        corrupted = None
        if corrupt:
            pos, orbit = doubles[rng.randrange(len(doubles))]
            fibers[pos] = (fibers[pos][0], [m + 1 for m in fibers[pos][1]])
            corrupted = orbit
        data = {"group": os.path.basename(gpath),
                "base": {"points": len(cosets), "action": action},
                "fibers": [{"orbit_rep": pt, "character": {"irreducible_multiplicities": ms}}
                           for pt, ms in fibers]}
        path = self._path(spec.name.replace("/", "-") + "-bundle")
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        return path, len(cosets), corrupted


# -- workloads ------------------------------------------------------------------------

_IRR_GROUPS = ("Z4", "Z8", "D6", "D8", "D10", "D14", "Q8", "Q16", "S4", "A4", "F21",
               "F20", "S3xS3", "S4xZ2", "S4xS3", "S5")
_BORDISM_GROUPS = ("D6", "D8", "D10", "D12", "D14", "D16", "D22", "D26", "Q8", "Q16",
                   "Dic12", "Dic20", "Dic24", "F20", "F21", "S4", "S3xS3", "S4xZ2", "S5")

# One cycle is a fixed multiset of job templates (kind, pool entry, extra
# arguments); a run is a whole number of cycles, so every run of a workload
# does the same mix of work whatever its seed, and the seed changes only
# point labels, generator order, job order, stored fiber points and
# multiplicities.
CYCLES = {
    # the heavy jobs are a fixed 3 in 64 and clifford on D14 a block of 10
    # just below them, so the 90th percentile lands inside that block rather
    # than on the edge between two kinds of job; three more small irr jobs
    # put the median among the small clifford jobs, which take alike times
    "clifford": ([("irr", g, ()) for g in _IRR_GROUPS] * 2
                 + [("irr", g, ()) for g in ("Z4", "D8", "Q8")]
                 + [("clifford", p, ()) for p in CATALOG_PAIRS + ("S4xZ2", "S3xS3")]
                 + [("clifford", "D14", ())] * 9
                 + [("clifford", "S4xS3", ()), ("clifford", "S5", ()),
                    ("clifford", "S5", ("--normal", "full"))]),
    "bundles": [("bundle", p, (shape,)) for p in CATALOG_PAIRS for shape in (0, 1)],
    # S3xS3 --global runs six times, a block just below the two heaviest
    # jobs in which the 90th percentile lands, for the same reason
    "bordism": ([("bordism-global", g, ("--max-degree", str(20 + 10 * (i % 5))))
                 for i, g in enumerate(_BORDISM_GROUPS)]
                + [("bordism-global", "S3xS3", ("--max-degree", "30"))] * 5
                + [("bordism-pair", g, ("--max-degree", str(60 - 10 * (i % 5))))
                   for i, g in enumerate(_BORDISM_GROUPS + ("S4xS3",))]
                + [("d2p", str(p), ("--max-degree", str(20 + 10 * i)))
                   for i, p in enumerate((3, 5, 7, 11, 13))]),
}

# share of bundle files carrying one inconsistent redundant fiber
CORRUPT_SHARE = 0.1


def _central(spec: GroupSpec) -> bool:
    """Whether A is central in G.  Then G fixes every irreducible of A, the
    decomposition identity at a point reads only that point's fiber, and an
    inconsistent redundant fiber cannot show as a mismatch; such pairs carry
    no corrupted controls."""
    return all(compose(a, g) == compose(g, a) for a in spec.normal_gens for g in spec.gens)


def build_jobs(workload: str, seed: int, cycles: int, workdir: str,
               limit: Optional[int] = None) -> list:
    """The job list of a run: `cycles` shuffled cycles, or the first `limit`
    jobs of one; files are written to workdir."""
    rng = random.Random("%s:%d" % (workload, seed))
    writer = _Writer(workdir, rng)
    templates = CYCLES[workload]
    jobs = []
    for _ in range(cycles):
        bundles = [i for i, t in enumerate(templates) if t[0] == "bundle"]
        can_corrupt = [i for i in bundles if not _central(POOL[templates[i][1]])]
        corrupt = set(rng.sample(can_corrupt, round(CORRUPT_SHARE * len(bundles))))
        cycle = [_make_job(writer, kind, name, extra, i in corrupt)
                 for i, (kind, name, extra) in enumerate(templates)]
        rng.shuffle(cycle)
        jobs.extend(cycle[:limit])
    return jobs


def _make_job(writer: _Writer, kind: str, name: str, extra: tuple, corrupt: bool) -> Job:
    key = " ".join((kind, name) + tuple(map(str, extra)))
    if kind == "d2p":
        return Job(["d2p", "--p", name] + list(extra), kind, key)
    spec = POOL[name]
    if kind == "bundle":
        path, points, bad = writer.bundle_file(spec, extra[0], corrupt)
        return Job(["bundle-verify", path], kind, key, expect_exit=1 if corrupt else 0,
                   corrupted_orbit=bad, points=points)
    path, listed, _, _ = writer.group_file(spec)
    order = len(closure_bfs(spec.degree, listed))
    if kind == "irr":
        return Job(["irr", path], kind, key, order=order)
    if kind == "clifford":
        return Job(["clifford", path] + list(extra), kind, key, order=order)
    argv = ["bordism", path] + list(extra)
    if kind == "bordism-global":
        return Job(argv + ["--global"], kind, key, order=order,
                   subgroup_classes=SUBGROUP_CLASSES[name])
    return Job(argv, kind, key, order=order)
