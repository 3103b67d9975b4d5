"""Seeded self-check battery behind the verify command.

Twelve numbered criteria exercise the package end to end: the
tensor/forms dualities, trace and scalar identities, every family
closed form against the general engine, the normal-form generators and
the classifier, and sign-flip sensitivity of the core conventions.
Number 12 is vacant: it checked a paired matrix factorization that the
classifier no longer uses, and the sign-flip criterion keeps number 13
so that a criterion's number and its seed stream stay fixed.

Each criterion is declared once, by the ``@_criterion(number, slug,
title)`` line above its body, and the registry ``_CRITERIA`` (and
``SLUGS``, read off it) lists the declared functions by number.  The
body records its checks into the :class:`CriterionResult` it is given
and draws its sample i from ``draw(i)``, which is
``rng_for(seed * 1000 + number, i)``, so all sampling is deterministic.

The family reports compare their closed forms with the engine
themselves (:func:`~liehermitian.hermitian.cross_check`), so the
criteria do not repeat those comparisons: each report call counts as
one check, and an error it raises is recorded as a failed draw.  A
report reads the closed Bismut Ricci blocks only through its ``cyt``
residual, and no report carries the closed Ricci contractions, so both
are held entrywise against the engine in criterion 10 by
:func:`hold_curvature_blocks`, one check per draw.

Criterion 11 samples the paired-block generator over its whole block
rank range.  Rank-one draws must be torsion-parallel normal forms; draws
of rank r >= 2 must be refuted exactly as the rank obstruction of
:func:`~liehermitian.codim2.btpv0_obstruction` predicts.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import forms
from . import hermitian
from .algebra import RANK_CUT, TOL_X10, TOL_X100, TOL_X1000, max_abs
from .almost_abelian import (
    AlmostAbelianData,
    aa_report,
    aa_astheno_profile,
    spectral_pluriclosed_residual,
)
from .codim2 import (
    btpv0_obstruction,
    c2_bismut_blocks,
    c2_btp_residuals,
    c2_report,
    c2_ricci_closed,
    chern_flat_normal_form,
    classify_btp,
)
from .errors import NotAstheno, LieHermitianError
from . import sampling as sm
from .sampling import rng_for

DEFAULT_SEED = 20260818


@dataclass
class CriterionResult:
    """The outcome of one criterion, and the collector its body records
    named subchecks into."""

    number: int
    slug: str
    title: str
    passed: bool
    checks: int
    failures: list
    detail: str

    def as_dict(self):
        return dict(vars(self), failures=self.failures[:20], failure_count=len(self.failures))

    def ok(self, cond, label):
        self.checks += 1
        if not cond:
            self.failures.append(label)

    def near(self, value, label, bound):
        self.ok(value <= bound, "%s (%.3e > %.3e)" % (label, value, bound))

    def report(self, family_report, d, label):
        """Run a family report, or another comparison that raises on a
        disagreement, as one check: the report compares every closed
        form it has against the engine.  A raised error is recorded as
        a failure naming the draw, and None is returned."""
        try:
            rep = family_report(d)
        except LieHermitianError as exc:
            self.ok(False, "%s: report raised %s" % (label, exc))
            return None
        self.ok(True, "")
        return rep


def _criterion(number, slug, title):
    """Declare criterion ``number``.  The decorated ``body(col, draw)``
    records into the result ``col`` and returns its detail line or None;
    the declared function runs it for a seed and returns the result,
    passed when no subcheck failed."""
    def declare(body):
        def run(seed):
            col = CriterionResult(number, slug, title, False, 0, [], "")
            col.detail = body(col, lambda i: rng_for(seed * 1000 + number, i)) or ""
            col.passed = not col.failures
            return col
        run.number, run.slug, run.__doc__ = number, slug, body.__doc__
        run.__name__ = run.__qualname__ = body.__name__
        return run
    return declare


def _mixed_algebra(rng, index):
    """Rotating mix of sample sources used by the cross-cutting criteria.

    Returns (algebra, expect_valid) where expect_valid is None for the
    unconstrained general draws that may or may not satisfy Jacobi.
    """
    mode = index % 5
    n = int(rng.integers(2, 5))
    if mode == 0:
        return sm.random_general(rng, n), None
    if mode == 1:
        return sm.aa_random(rng, n, unimodular=bool(index % 2)).build(), True
    if mode == 2:
        return sm.c2_random(rng, n + 1, unimodular=bool(index % 2)).build(), True
    if mode == 3:
        return sm.hopf_algebra(n), True
    return sm.aa_nilpotent(rng, n).build(), True


def _unimodular_algebra(rng, index):
    n = int(rng.integers(2, 5))
    if index % 2:
        return sm.aa_random(rng, n, unimodular=True).build()
    return sm.c2_random(rng, n + 1, unimodular=True).build()


@_criterion(1, "duality", "bracket Jacobi residual matches d^2 on generators")
def criterion_1(col, draw):
    """Jacobi residual and d-squared on generators vanish together."""
    for i in range(200):
        rng = draw(i)
        a, _ = _mixed_algebra(rng, i)
        bound = TOL_X10 * a.tol
        dd = forms.d_squared_residual(a)
        agree = (a.jacobi_max <= bound) == (dd <= bound)
        col.ok(agree, "draw %d: jacobi %.3e vs d^2 %.3e disagree" % (i, a.jacobi_max, dd))


@_criterion(2, "gauduchon", "del delbar of omega^(n-1) vanishes when unimodular")
def criterion_2(col, draw):
    """Unimodular draws satisfy the top-degree del-delbar identity."""
    for i in range(200):
        a = _unimodular_algebra(draw(i), i)
        col.near(forms.del_delbar_residual(a, a.n - 1),
                 "draw %d" % i, TOL_X10 * a.tol)


@_criterion(3, "skt-agreement", "pluriclosed tensor equals the del-delbar coefficients")
def criterion_3(col, draw):
    """Pluriclosed tensor and the forms engine agree exactly."""
    for i in range(200):
        rng = draw(i)
        a, valid = _mixed_algebra(rng, i)
        if valid is None and a.jacobi_max > a.tol:
            continue
        bound = TOL_X10 * a.tol
        col.near(hermitian.skt_form_tensor_residual(a), "entrywise draw %d" % i, bound)
        tens = max_abs(hermitian.skt_tensor(a))
        dd = forms.del_delbar_residual(a, 1)
        col.ok((tens <= bound) == (dd <= bound),
               "boolean draw %d: tensor %.3e vs form %.3e" % (i, tens, dd))


@_criterion(4, "aa-scalars", "codim-1 scalar curvature closed forms")
def criterion_4(col, draw):
    """Scalar curvature values on unimodular codim-1 data."""
    for i in range(100):
        rng = draw(i)
        n = int(rng.integers(2, 6))
        d = sm.aa_random(rng, n, unimodular=True)
        scal = d.scal
        a = d.build()
        bound = TOL_X10 * a.tol
        col.near(abs(scal["s"] + d.lam ** 2), "s draw %d" % i, bound)
        col.near(abs(scal["s_hat"] + 2.0 * d.lam ** 2 + float(np.vdot(d.v, d.v).real)),
                 "s_hat draw %d" % i, bound)
        R = hermitian.chern_curvature(a)
        col.near(abs(hermitian.chern_scalar(R) - scal["s"]),
                 "engine s draw %d" % i, bound)
        col.near(abs(hermitian.chern_scalar_alt(R) - scal["s_hat"]),
                 "engine s_hat draw %d" % i, bound)


@_criterion(5, "aa-booleans", "codim-1 closed-form predicates match the engine")
def criterion_5(col, draw):
    """Closed-form predicate booleans against the engine, through the
    cross-check of aa_report, plus the two pluriclosed formulations
    against each other."""
    for n in (2, 3, 4, 5):
        for i in range(500):
            rng = draw(n * 10000 + i)
            kind = i % 5
            if kind == 0:
                d = sm.aa_random(rng, n, unimodular=True)
            elif kind == 1:
                d = sm.aa_random(rng, n, unimodular=False)
            elif kind == 2:
                d = sm.aa_pluriclosed(rng, n, unimodular=bool(i % 2))
            elif kind == 3:
                d = sm.aa_kaehler(rng, n)
            else:
                d = sm.aa_balanced(rng, n)
            col.report(aa_report, d, "n=%d draw %d" % (n, i))
    # matrix equation vs spectral formulation of pluriclosed
    for i in range(400):
        rng = draw(900000 + i)
        n = int(rng.integers(2, 6))
        if i < 200:
            d = sm.aa_normal_matrix(rng, n, unimodular=bool(i % 2))
        else:
            d = sm.aa_random(rng, n, unimodular=bool(i % 2))
        tol10 = TOL_X10 * d.tol
        mat = AlmostAbelianData.PREDICATES["pluriclosed"](d)
        spec = spectral_pluriclosed_residual(d)
        col.ok((mat <= tol10) == (spec <= tol10),
               "formulations draw %d: matrix %.3e spectral %.3e" % (i, mat, spec))


@_criterion(6, "aa-btp", "skew-torsion parallelism constraint surface")
def criterion_6(col, draw):
    """Torsion-parallel condition on codim-1 data: projection and refutation."""
    for i in range(100):
        rng = draw(i)
        n = int(rng.integers(2, 6))
        d = sm.aa_btp(rng, n)
        rep = col.report(aa_report, d, "projected draw %d" % i)
        if rep is not None:
            eng = rep["engine"]["properties"]
            col.ok(eng["btp"] and eng["bkl"], "projected draw %d not parallel (btp=%s bkl=%s)"
                   % (i, eng["btp"], eng["bkl"]))
        col.ok(AlmostAbelianData.PREDICATES["btp"](d) <= TOL_X10 * d.tol,
               "projected draw %d: constraint drifted" % i)
    for i in range(100):
        rng = draw(10000 + i)
        n = int(rng.integers(2, 6))
        d = sm.aa_btp_perturbed(rng, n)
        rep = col.report(aa_report, d, "perturbed draw %d" % i)
        if rep is not None:
            col.ok(not rep["engine"]["properties"]["btp"],
                   "perturbed draw %d still parallel" % i)
        col.ok(AlmostAbelianData.PREDICATES["btp"](d) >= 0.1,
               "perturbed draw %d residual too small" % i)


@_criterion(7, "astheno", "astheno equals pluriclosed at k = n-2 (n = 4, 5)")
def criterion_7(col, draw):
    """Astheno condition coincides with pluriclosed in low dimension.

    The equality holds for unimodular data only, so it is asserted on
    the unimodular draws; the eigenvalue certificate must agree on every
    astheno positive, including the deliberately non-unimodular ones
    (the certificate family with two or more low eigenvalues never
    balances the trace).
    """
    astheno_seen = 0
    for i in range(200):
        rng = draw(i)
        n = 4 + (i % 2)
        if i % 3 == 0:
            d = sm.aa_astheno(rng, n)
        elif i % 3 == 1:
            d = sm.aa_pluriclosed(rng, n, unimodular=True)
        else:
            d = sm.aa_random(rng, n, unimodular=True)
        rep = col.report(aa_report, d, "draw %d n=%d" % (i, n))
        if rep is None:
            continue
        eng = rep["engine"]["properties"]
        if eng["unimodular"]:
            col.ok(eng["astheno_kaehler"] == eng["pluriclosed"],
                   "draw %d n=%d: astheno %s pluriclosed %s"
                   % (i, n, eng["astheno_kaehler"], eng["pluriclosed"]))
        if not eng["astheno_kaehler"]:
            continue
        astheno_seen += 1
        try:
            k, h, comm = aa_astheno_profile(d)
        except NotAstheno as exc:
            col.ok(False, "draw %d: profile refused an astheno sample (%s)" % (i, exc))
            continue
        tol10 = TOL_X10 * d.tol
        col.near(comm, "draw %d commutator" % i, tol10)
        col.near(abs(h * (n - 2) + (n - 1 - k) * d.lam), "draw %d trace relation" % i,
                 TOL_X100 * tol10)
        re_eigs = np.sort(np.linalg.eigvals(d.A).real)
        lo = np.sum(np.abs(re_eigs[:k] - h / 2.0)) if k else 0.0
        hi = np.sum(np.abs(re_eigs[k:] - (d.lam + h) / 2.0))
        col.near(lo + hi, "draw %d eigenvalue split" % i, TOL_X100 * tol10)
    return "%d astheno positives among 200 draws" % astheno_seen


@_criterion(8, "flat-classes", "flatness and curvature-symmetry closed forms")
def criterion_8(col, draw):
    """Curvature-flatness predicates: closed forms against the engine,
    through the cross-check of aa_report, and the collapse of the
    curvature-symmetric class onto the flat one."""
    ckl_flat_agree = True
    for i in range(200):
        rng = draw(i)
        n = int(rng.integers(2, 6))
        kind = i % 4
        if kind == 0:
            d = sm.aa_chern_flat(rng, n)
        elif kind == 1:
            d = sm.aa_cyt(rng, n)
        else:
            d = sm.aa_random(rng, n, unimodular=True)
        rep = col.report(aa_report, d, "draw %d" % i)
        if rep is None:
            continue
        eng = rep["engine"]["properties"]
        if eng["chern_kaehler_like"] != eng["chern_flat"]:
            ckl_flat_agree = False
            col.ok(False, "draw %d: curvature-symmetric without being flat" % i)
    return "symmetry class collapses to flat: %s" % ckl_flat_agree


@_criterion(9, "c2-booleans", "codim-2 closed-form predicates match the engine")
def criterion_9(col, draw):
    """Codim-2 closed-form predicate booleans against the engine, through
    the cross-check of c2_report."""
    for i in range(200):
        rng = draw(i)
        n = int(rng.integers(3, 6))
        d = sm.c2_random(rng, n, unimodular=bool(i % 2), scramble=bool(i % 3))
        col.report(c2_report, d, "draw %d" % i)


def hold_curvature_blocks(d, a):
    """Hold c2_ricci_closed and c2_bismut_blocks of family data ``d``
    against the Ricci contractions and Bismut Ricci blocks of its algebra
    ``a`` through :func:`~liehermitian.hermitian.cross_check`, which names
    the first that disagrees.  Returns the engine's first contraction."""
    R = hermitian.chern_curvature(a)
    names = ("ric1", "ric2", "ric3", "bismut_one_one", "bismut_two_zero")
    engine = (hermitian.ricci_first(R), hermitian.ricci_second(R),
              hermitian.ricci_third(R), *hermitian.bismut_ricci_blocks(a))
    hermitian.cross_check(dict(zip(names, c2_ricci_closed(d) + c2_bismut_blocks(d))),
                          dict(zip(names, engine)), a.tol)
    return engine[0]


@_criterion(10, "c2-curvature", "codim-2 curvature identities and trace blocks")
def criterion_10(col, draw):
    """Codim-2 curvature data: the Ricci contractions and skew-torsion
    Ricci blocks against their closed forms (one check per draw), the
    flat normal form, and the rank and sign of the first trace.  The
    predicates and scalars are held by the cross-check of c2_report."""
    for i in range(200):
        rng = draw(i)
        n = int(rng.integers(3, 6))
        d = sm.c2_random(rng, n, unimodular=bool(i % 2), scramble=True)
        rep = col.report(c2_report, d, "draw %d" % i)
        if rep is None:
            continue
        a = rep["algebra"]
        bound = TOL_X10 * a.tol
        ric1 = col.report(lambda data: hold_curvature_blocks(data, a), d, "draw %d blocks" % i)
        if ric1 is None:
            continue
        # (i) flat samples reconstruct to zero curvature through the normal form
        if rep["engine"]["properties"]["chern_flat"]:
            nf, _frame = chern_flat_normal_form(d)
            col.near(max_abs(hermitian.chern_curvature(nf.build())),
                     "draw %d flat reconstruction" % i, bound)
        # (ii) first trace has rank <= 1 and its sign follows the scalar
        rank = int(np.count_nonzero(np.linalg.svd(ric1, compute_uv=False) > bound))
        col.ok(rank <= 1, "draw %d: rank %d" % (i, rank))
        s = rep["engine"]["scalars"]["s"]
        eig = np.linalg.eigvalsh((ric1 + ric1.conj().T) / 2.0)
        lead = eig[np.argmax(np.abs(eig))]
        if abs(s) > bound:
            col.ok(np.sign(lead.real) == np.sign(s),
                   "draw %d: trace sign %.3e vs scalar %.3e" % (i, lead.real, s))


def _paired_blocks(d, r):
    """(S, W) read off an unscrambled make_btpv0 draw of block rank r."""
    S = np.diag(d.B[:r, r : 2 * r]).real
    return S, d.Z[:r, r : 2 * r] / S[:, None]


def generator_answer(kind, d):
    """(r, family) for a c2_generator draw of ``kind``: the block rank r
    of a paired-block draw (None for v1 and v2) and the family
    classify_btp must return, which is NotBTP for rank r >= 2."""
    if kind != "v0":
        return None, kind
    r = int(np.linalg.matrix_rank(d.Z, tol=RANK_CUT))
    return r, "NotBTP" if r >= 2 else "v0"


def generator_checks(kind, d, rep, r):
    """Named checks of one c2_generator draw against its c2_report.

    Every draw is unimodular.  The v1 draws are torsion-parallel, BKL,
    pluriclosed and not balanced; the v2 draws torsion-parallel and
    neither balanced nor pluriclosed.  Paired blocks are balanced and
    not pluriclosed, and eq1 of the residual system equals
    btpv0_obstruction(S, W) within 10 tol.  At rank one they are torsion-parallel; at rank
    r >= 2 they are the witness of the rank obstruction: the torsion is
    not parallel and the engine's residual is at least eq1 less 10 tol.
    """
    eng = rep["engine"]["properties"]
    checks = {"unimodular": eng["unimodular"]}
    if kind == "v1":
        checks.update(torsion_parallel=eng["btp"], bkl=eng["bkl"],
                      pluriclosed=eng["pluriclosed"], not_balanced=not eng["balanced"])
    elif kind == "v2":
        checks.update(torsion_parallel=eng["btp"], not_balanced=not eng["balanced"],
                      not_pluriclosed=not eng["pluriclosed"])
    else:
        bound = TOL_X10 * rep["tol"]
        eq1 = c2_btp_residuals(d)["eq1"]
        checks.update(balanced=eng["balanced"], not_pluriclosed=not eng["pluriclosed"],
                      eq1=abs(eq1 - btpv0_obstruction(*_paired_blocks(d, r))) <= bound)
        if r == 1:
            checks["torsion_parallel"] = eng["btp"]
        else:
            checks["rank_obstruction"] = (
                not eng["btp"] and rep["engine"]["residuals"]["btp"] >= eq1 - bound)
    return checks


@_criterion(11, "btp-families", "torsion-parallel generators and classifier")
def criterion_11(col, draw):
    """Normal-form generators and the classifier.

    Every generator draw must pass :func:`generator_checks`.  Rank-one
    paired blocks are torsion-parallel normal forms; paired blocks of
    rank r >= 2 must be refuted as the rank obstruction predicts.
    Scrambled draws must classify as :func:`generator_answer` says, with
    the generator's parameters.
    """
    witnesses = refuted = 0
    for kind_pos, kind in enumerate(("v1", "v2", "v0")):
        for i in range(50):
            rng = draw(kind_pos * 1000 + i)
            n = int(rng.integers(3, 7))
            d = sm.c2_generator(rng, n, kind=kind)
            r, _ = generator_answer(kind, d)
            label = "%s draw %d (n=%d%s)" % (kind, i, n, "" if r is None else ", r=%d" % r)
            rep = col.report(c2_report, d, label)
            bad = ["report"]
            if rep is not None:
                bad = sorted(k for k, v in generator_checks(kind, d, rep, r).items() if not v)
                col.ok(not bad, "%s: failed %s" % (label, bad))
            if (r or 0) >= 2:
                witnesses += 1
                refuted += not bad
    for i in range(100):
        rng = draw(50000 + i)
        n = int(rng.integers(3, 7))
        kind = ("v1", "v2", "v0")[i % 3]
        d = sm.c2_generator(rng, n, kind=kind)
        r_drawn, expected = generator_answer(kind, d)
        scrambled = sm.c2_scramble(rng, d)
        label = "classify draw %d (%s%s)" % (
            i, kind, "" if r_drawn is None else " r=%d" % r_drawn)
        try:
            out = classify_btp(scrambled)
        except LieHermitianError as exc:
            col.ok(False, "%s: raised %s" % (label, exc))
            continue
        good = out["family"] == expected
        bound = TOL_X10 * d.tol
        if good and expected in ("v1", "v2"):
            good = abs(out["params"]["v2"] - np.linalg.norm(d.v)) <= bound
        if good and expected == "v2":
            zrow = np.linalg.svd(d.Z, compute_uv=False)
            good = abs(out["params"]["p"] - zrow[0]) <= bound
        if good and expected == "v0":
            want_S = np.sort(np.linalg.svd(d.Z, compute_uv=False))[::-1][:r_drawn]
            good = (out["params"]["r"] == r_drawn
                    and max_abs(np.sort(out["params"]["S"])[::-1] - want_S) <= bound)
        col.ok(good, "%s: got %s" % (label, out["family"]))
        if expected == "NotBTP":
            witnesses += 1
            refuted += good
    return ("%d rank>=2 paired-block draws, %d refuted as the obstruction "
            "predicts, %d unexplained") % (witnesses, refuted, len(col.failures))


def _mutation_probe(draw):
    """Quick identity set that must pass unmutated and break under either
    documented sign flip.  Returns the list of failing labels.  The
    family reports cross-check closed forms against the engine and raise
    when a mutation makes them disagree; that raise counts as detection.
    """
    bad = []
    for i in range(10):
        a = _unimodular_algebra(draw(i), i)
        bound = TOL_X10 * a.tol
        if hermitian.ricci_form_trace_residual(a) > bound:
            bad.append("ricci-trace draw %d" % i)
        if hermitian.torsion_bianchi_residual(a) > TOL_X1000 * bound:
            bad.append("bianchi draw %d" % i)
        res = hermitian.scalar_identity_residuals(a)
        if max(res["s"], res["s_hat"]) > bound:
            bad.append("scalar draw %d" % i)
    for i in range(5):
        rng = draw(100 + i)
        d = sm.aa_btp(rng, int(rng.integers(2, 5)))
        try:
            if not aa_report(d)["engine"]["properties"]["btp"]:
                bad.append("projected-parallel draw %d" % i)
        except LieHermitianError as exc:
            bad.append("projected-parallel draw %d (%s)" % (i, type(exc).__name__))
    return bad


# The two documented convention mutations: the transpose term in the
# torsion and the second (connection-squared) term in the curvature.
MUTATIONS = (
    ("torsion-transpose-term", {"torsion_index": 2}),
    ("curvature-second-term", {"curvature_index": 1}),
)


@_criterion(13, "mutation", "sign-flip sensitivity of the conventions")
def criterion_13(col, draw):
    """Single sign flips in the core conventions break the battery."""
    baseline = _mutation_probe(draw)
    col.ok(not baseline, "baseline probe failed: %s" % baseline[:3])
    for name, kwargs in MUTATIONS:
        with hermitian.sign_mutation(**kwargs):
            broken = _mutation_probe(draw)
        col.ok(bool(broken), "mutation %r went undetected" % name)
        after = _mutation_probe(draw)
        col.ok(not after, "mutation %r leaked out of its scope" % name)


_CRITERIA = {c.number: c for c in (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_13)}

SLUGS = {number: c.slug for number, c in _CRITERIA.items()}


def run_battery(seed=DEFAULT_SEED, name_filter=None):
    """Run the numbered criteria, optionally restricted by substring.

    ``name_filter`` matches against the label "criterion-N slug", case
    insensitive; where it ends in a digit, the label may not go on with
    another, so "criterion-1" selects criterion 1 alone, not 10, 11 and
    13.  Returns a list of CriterionResult in numeric order.
    """
    if name_filter:
        tail = r"(?!\d)" if name_filter[-1].isdigit() else ""
        pattern = re.compile(re.escape(name_filter) + tail, re.IGNORECASE)
    return [c(seed) for number, c in sorted(_CRITERIA.items())
            if not name_filter or pattern.search("criterion-%d %s" % (number, c.slug))]
