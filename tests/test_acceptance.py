"""Acceptance battery: one test per published criterion.

The battery itself lives in liehermitian.verify and is reused by the
``verify`` subcommand; this file pins it into the test run so that
every criterion prints exactly one pass or fail line under ``pytest
-v``.

Criterion 11 samples the paired-block generator over its whole block
rank range.  The shape is torsion-parallel only at rank one: for r >= 2
the per-index equation eq1 equals btpv0_obstruction(S, W) >=
S_1 S_2 / sqrt(r) > 0.  The criterion therefore holds the rank >= 2
draws to that refutation instead of to parallelism, and
test_rank_obstruction_fully_explains_11 checks that the default seed
still draws such data and that every such draw is refuted as predicted.
"""

import re

import pytest

from liehermitian import hermitian, verify


@pytest.fixture(scope="session")
def battery():
    # keyed by the registry, not by the number each result carries
    return dict(zip(sorted(verify.SLUGS), verify.run_battery()))


_IDS = ["%02d-%s" % (n, verify.SLUGS[n]) for n in sorted(verify.SLUGS)]


@pytest.mark.parametrize("number", sorted(verify.SLUGS), ids=_IDS)
def test_criterion(battery, number):
    res = battery[number]
    assert res.checks > 0
    message = "criterion-%d %s: %s" % (number, res.slug, res.detail or "")
    if res.failures:
        message += "\n  " + "\n  ".join(res.failures[:8])
    assert res.passed, message


def test_registry_holds_every_criterion_under_its_number(battery):
    # the one tuple that builds the registry is where it could drift
    declared = {int(name.split("_")[1]): value for name, value in vars(verify).items()
                if re.fullmatch(r"criterion_\d+", name)}
    assert verify._CRITERIA == declared
    assert verify.SLUGS.keys() == declared.keys()
    assert {number: (res.number, res.slug) for number, res in battery.items()} == {
        number: (number, slug) for number, slug in verify.SLUGS.items()}


# The verdict and check count of every criterion at the default seed.
# An engine change that drops a check shows up here.
CHECK_COUNTS = {1: 200, 2: 200, 3: 320, 4: 400, 5: 2400, 6: 600, 7: 769,
                8: 200, 9: 200, 10: 743, 11: 400, 13: 5}


# The detail line of every criterion at the default seed (empty where the
# criterion writes none).  A kernel change that flips a draw shows up here.
DETAILS = {
    7: "134 astheno positives among 200 draws",
    8: "symmetry class collapses to flat: True",
    11: "18 rank>=2 paired-block draws, 18 refuted as the obstruction predicts, "
        "0 unexplained",
}


def test_battery_verdicts_and_check_counts_are_pinned(battery):
    got = {number: (res.passed, res.checks) for number, res in battery.items()}
    assert got == {number: (True, count) for number, count in CHECK_COUNTS.items()}


def test_battery_details_are_pinned(battery):
    got = {number: res.detail for number, res in battery.items()}
    assert got == {number: DETAILS.get(number, "") for number in CHECK_COUNTS}


def test_rank_obstruction_fully_explains_11(battery):
    res = battery[11]
    found = re.search(r"(\d+) rank>=2 paired-block draws, (\d+) refuted as "
                      r"the obstruction predicts, (\d+) unexplained", res.detail)
    assert found, "criterion 11 detail lost its tally: %r" % res.detail
    drawn, refuted, unexplained = map(int, found.groups())
    assert drawn > 0, "the default seed no longer draws rank>=2 paired blocks"
    assert refuted == drawn, (
        "rank>=2 draws not refuted as the obstruction predicts: %r"
        % res.failures[:5])
    assert unexplained == 0 and not res.failures, res.failures[:5]
    assert "0 unexplained" in res.detail


def test_criterion_4_reads_both_scalars_off_one_curvature(monkeypatch):
    # four checks per draw; the engine's s and s_hat come from one
    # Chern curvature tensor per draw
    real, calls = hermitian.chern_curvature, []
    monkeypatch.setattr(hermitian, "chern_curvature",
                        lambda a: calls.append(a) or real(a))
    res = verify.criterion_4(verify.DEFAULT_SEED)
    assert res.passed, res.failures[:5]
    assert res.checks == 400 and len(calls) == 100


@pytest.mark.parametrize("name_filter, numbers", [
    ("criterion-1", [1]),
    ("criterion-10 c2-curvature", [10]),
    ("CRITERION-13", [13]),
    ("criterion-1 duality", [1]),
    ("duality", [1]),
    ("c2-", [9, 10]),
], ids=str)
def test_filter_ending_in_a_digit_is_not_a_prefix(monkeypatch, name_filter, numbers):
    # run nothing: each criterion stands in by its number
    stubs = {}
    for number, slug in verify.SLUGS.items():
        stubs[number] = lambda seed, number=number: number
        stubs[number].slug = slug
    monkeypatch.setattr(verify, "_CRITERIA", stubs)
    assert verify.run_battery(name_filter=name_filter) == numbers


def test_battery_is_seed_stable():
    one = verify.run_battery(name_filter="criterion-4")
    two = verify.run_battery(name_filter="criterion-4")
    assert [r.as_dict() for r in one] == [r.as_dict() for r in two]


@pytest.mark.parametrize("criterion", [verify.criterion_8, verify.criterion_10])
def test_report_disagreement_is_a_recorded_failure(criterion):
    # Under a curvature sign flip the family reports raise
    # CrossCheckFailure; the criterion records that as a failed draw.
    with hermitian.sign_mutation(curvature_index=1):
        res = criterion(verify.DEFAULT_SEED)
    assert not res.passed
    assert re.match(r"draw \d+: report raised .*disagree", res.failures[0])
