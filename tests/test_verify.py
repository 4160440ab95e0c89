"""The suite's tally: a check's number is the count of identities it
yielded, and its failure detail lists the texts it yielded."""

import inspect

from bmsheaves import verify


def test_tally_counts_every_yield_and_collects_the_failures():
    def three(ctx):
        yield None
        yield "a"
        yield None

    def passing(ctx):
        yield from (None, None, None)

    assert verify._tally("cases")(three)(None) == (False, "1/3 failed: a")
    assert verify._tally("cases")(passing)(None) == (True, "3 cases checked")


def test_a_failed_least_descent_check_is_counted(monkeypatch):
    """At length 3 the patched right descents are shifted past every
    product's s, so 25 least-descent checks fail; each one counts on top
    of the 1170 coefficient identities of a passing suite run, where the
    check of both routes has filled the products of all of A3 first."""
    right_descents = verify.right_descents

    def shifted(x):
        descents = right_descents(x)
        return {s + 1 for s in descents} if x.length == 3 else descents

    monkeypatch.setattr(verify, "right_descents", shifted)
    ctx = verify.SuiteContext()
    assert verify.crit_kl_oracle(ctx) == (True, "109 cases checked")
    ok, detail = verify.crit_product_recursion(ctx)
    assert not ok
    assert detail.startswith("25/1195 failed: A2 x=121: s=1 is not its least right")


def test_only_the_tally_counts():
    """No check keeps its own count or failure list."""
    source = inspect.getsource(verify)
    tally = inspect.getsource(verify._tally)
    for text in ("checked +=", "bad.append"):
        assert source.count(text) == tally.count(text) == 1, text
