"""Command-line contract: catalog, exit codes, reports, configuration."""

import csv
import io
import json
import math
import os
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import autoseries.cli as cli
from autoseries.cli import UsageError, main, parse_real
from autoseries.errors import AutoseriesError, DomainError
from autoseries.evaluator import (
    COMPOSITE9_SERIES,
    DELTA_SERIES,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
)
from autoseries.identities import (
    Identity,
    Route,
    Sqrt,
    TwoPowerRatio,
    builtin_registry,
    eval_series_spec,
    get_identity,
)
from autoseries.report import CSV_COLUMNS, ReportDocument
from autoseries.sequences import CoefficientSequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal(out):
    """The one record line a verify run printed, which must be [REFUSED]:
    a refused check is a record that names its reason, not an error."""
    (record,) = [line for line in out.splitlines() if line.startswith("[")]
    assert record.startswith("[REFUSED] ") and "1 refused" in out, out
    return record


# -- number parsing ------------------------------------------------------------


def test_parse_real_forms():
    assert parse_real("9/7") == 9.0 / 7.0
    assert parse_real("1.25") == 1.25
    assert parse_real("1e-3") == 1e-3
    assert parse_real("-2") == -2.0
    assert parse_real("sqrt2") == math.sqrt(2.0)
    assert parse_real("(17*sqrt2-2)/15") == pytest.approx((17 * math.sqrt(2) - 2) / 15, rel=1e-15)


def test_parse_real_rejects_junk():
    with pytest.raises(UsageError):
        parse_real("import os")
    with pytest.raises(UsageError):
        parse_real("sqrt3")
    with pytest.raises(UsageError):
        parse_real("1/0")


# -- eval ------------------------------------------------------------------------


def test_eval_f_json(capsys):
    # at (2, 1e-10) f is summed directly in 224 counters; at (3, 1e-20) on
    # the mpmath path the functional equation's levels run
    code, out, _ = run(capsys, "eval", "f", "2", "1e-10")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "f"
    assert float(payload["abs_error_bound"]) <= 1e-10
    assert payload["method"] == "naive"
    code, out, _ = run(capsys, "eval", "f", "3", "1e-20")
    assert code == 0 and json.loads(out)["method"] == "functional-equation"


def test_eval_csv_is_a_header_and_a_value_row(capsys):
    code, out, _ = run(capsys, "eval", "f", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["series", "s", "eps", "value", "abs_error_bound", "terms_used", "method"]
    assert len(rows) == 2
    row = dict(zip(*rows))
    assert float(row["abs_error_bound"]) <= 1e-8
    # the JSON rendering of the same request carries the same fields
    code, out, _ = run(capsys, "eval", "f", "3", "--format", "json")
    assert json.loads(out) == {**row, "terms_used": int(row["terms_used"])}


def test_eval_phi_is_zeta_minus_f_over_two(capsys):
    code, out, _ = run(capsys, "eval", "phi", "2", "1e-8")
    payload = json.loads(out)
    assert code == 0
    zeta2 = math.pi**2 / 6
    code, out, _ = run(capsys, "eval", "f", "2", "1e-10")
    f2 = float(json.loads(out)["value"])
    assert float(payload["value"]) == pytest.approx(zeta2 / 2 - f2 / 2, abs=1e-7)


def test_eval_composite9_matches_hurwitz_sixteenth(capsys):
    from autoseries.precision import Precision
    from autoseries.special_functions import hurwitz_zeta

    code, out, _ = run(capsys, "eval", "composite9", "2", "1e-6")
    assert code == 0
    value = float(json.loads(out)["value"])
    ref = hurwitz_zeta(2.0, 0.25, Precision(target_eps=1e-10)).value / 16.0
    assert value == pytest.approx(ref, abs=2e-6)


def test_eval_catalog_variants(capsys):
    for name in ("g", "delta", "odd-epsilon", "digitsum:3", "affine:-1:0:shifted"):
        code, out, _ = run(capsys, "eval", name, "3", "1e-6")
        assert code == 0, name
        assert json.loads(out)["terms_used"] >= 1


def test_eval_mp_value_printed_within_its_bound(capsys):
    # on the mpmath path the printed value carries the digits its 8e-20
    # bound needs; a float would be up to ~5e-17 off.  Reference: the
    # functional equation at 120 bits to 1e-22 (bound 6.8e-23)
    ref = Decimal("0.8531759200838268776858781")
    code, out, _ = run(capsys, "eval", "f", "3.02", "1e-19")
    assert code == 0
    payload = json.loads(out)
    bound = Decimal(payload["abs_error_bound"])
    assert bound <= Decimal("1e-19")
    assert abs(Decimal(payload["value"]) - ref) <= bound + Decimal("1e-22")
    code, out, _ = run(capsys, "eval", "f", "3.02", "1e-19", "--format", "text")
    assert code == 0
    line = next(x for x in out.splitlines() if x.startswith("value"))
    assert abs(Decimal(line.split("=")[1].strip()) - ref) <= bound + Decimal("1e-22")


def test_eval_mp_zero_series_has_a_zero_bound(capsys):
    code, out, _ = run(capsys, "eval", "affine:0:0", "3", "1e-13")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["abs_error_bound"]) == ("0.0", "0.0")


def test_eval_double_value_is_a_float_repr(capsys):
    code, out, _ = run(capsys, "eval", "f", "3.02", "1e-10")
    assert code == 0
    value = json.loads(out)["value"]
    assert value == repr(float(value))


def test_eval_unknown_series_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "nope", "2", "1e-6")
    assert code == 2
    assert "unknown series" in err


def test_eval_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "eval", "f", "0.5", "1e-6")
    assert code == 1
    assert "s > 1" in err


def test_eval_resource_error_exit_one(capsys):
    # g(2) to 1e-6 takes 55 counters
    code, _, err = run(capsys, "eval", "g", "2", "1e-6", "--method", "naive", "--max-terms", "10")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("s", ["1.01", "1.5"])
def test_eval_cap_past_two_to_the_53_is_held_there(capsys, s):
    # no kernel can index more than 2^53 terms, whatever --max-terms says:
    # the request is refused at once instead of summing for ever (or, on the
    # mpmath path, sieving primes up to 10^10).  composite9's growing
    # discrepancy needs about 10^20 or more terms here (f, with aligned
    # blocks, now certifies these cells in 20,000-40,000)
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "eval", "composite9", s, "1e-30", "--method", "naive",
        "--max-terms", "10000000000000000000000000000000",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "(cap 2^53, past which float64 counters are not exact)" in err


def test_eval_functional_equation_names_its_leaf_cap(capsys):
    # the levels' table holds 2M >= 2 counters, so a cap of 1 is refused by
    # the route's own limit; with a cap of 2 (M = 1) the levels go deep enough
    code, _, err = run(capsys, "eval", "f", "2", "1e-10", "--max-terms", "1")
    assert code == 1
    assert err == (
        "error: functional-equation route for f at s=2 to eps=1e-10 needs "
        "a table of at least 2 terms (cap 1)\n"
    )
    code, out, _ = run(capsys, "eval", "f", "2", "1e-10", "--max-terms", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "functional-equation"
    assert float(payload["abs_error_bound"]) <= 1e-10


@pytest.mark.parametrize("series", ["affine:5e-324:5e-324", "affine:0:-5e-324:shifted"])
def test_eval_subnormal_letter_is_refused_by_name(capsys, series):
    # the mean share 0.25 eps/|mu| overflowed, or mu and B underflowed to a
    # zero bound that the value missed by about 2e-324
    for extra in ([], ["--method", "naive"], ["--precision-bits", "80"]):
        code, out, err = run(capsys, "eval", series, "2", "1e-6", *extra)
        assert (code, out) == (1, "")
        assert "alphabet letter" in err and "e-324 is subnormal" in err


def test_eval_overflowing_alphabet_names_its_coefficient(capsys):
    # b - a = -2e308 is not a float: the decomposition's f coefficient
    # (b - a)(1 + q)/(2 - 2q) is refused by name, not as a zero eps share
    code, _, err = run(capsys, "eval", "affine:1e308:-1e308", "2")
    assert code == 1
    assert err.startswith("error: coefficient -1.11254*2^1024*(1 + 2^s)") and "at s=2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("series,reference", [("f", "functional"), ("g", "naive")])
def test_eval_odd_method_reports_odd_decomposition(capsys, series, reference):
    code, out, _ = run(capsys, "eval", series, "3", "1e-9", "--method", "odd")
    assert code == 0
    odd = json.loads(out)
    assert odd["method"] == "odd-split"
    code, out, _ = run(capsys, "eval", series, "3", "1e-9", "--method", reference)
    assert code == 0
    ref = json.loads(out)
    bounds = float(odd["abs_error_bound"]) + float(ref["abs_error_bound"])
    assert abs(float(odd["value"]) - float(ref["value"])) <= bounds


def test_eval_g_at_two_to_1e12_is_naive_and_agrees_with_odd_split(capsys):
    # the Abel tail makes the naive sum affordable where the majorant
    # needed ~2e12 terms
    code, out, _ = run(capsys, "eval", "g", "2", "1e-12")
    assert code == 0
    auto = json.loads(out)
    assert auto["method"] == "naive"
    assert float(auto["abs_error_bound"]) <= 1e-12
    code, out, _ = run(capsys, "eval", "g", "2", "1e-12", "--method", "odd")
    assert code == 0
    odd = json.loads(out)
    bounds = float(auto["abs_error_bound"]) + float(odd["abs_error_bound"])
    assert abs(float(auto["value"]) - float(odd["value"])) <= bounds


@pytest.mark.parametrize("ident", ["shallit:10", "allouche-shallit"])
def test_verify_fixed_form_over_max_terms_names_the_cap(capsys, ident):
    # allouche-shallit needs about 140 terms at 1e-6, shallit:10 about 5,000
    code, out, err = run(capsys, "verify", ident, "--eps", "1e-6", "--max-terms", "100")
    assert (code, err) == (1, "")
    assert "(cap 100)" in refusal(out)


@pytest.mark.parametrize("ident", ["woods-robbins", "allouche-shallit"])
def test_verify_fixed_form_below_its_default_eps(tmp_path, capsys, ident):
    # at eps 1e-13 the 0.95 eps truncation leaves no room for the double
    # rounding budget, so the sum is truncated again for eps less the budget
    out_path = tmp_path / "fixed.json"
    code, _, err = run(capsys, "verify", ident, "--eps", "1e-13", "--out", str(out_path))
    assert code == 0, err
    (rec,) = json.loads(out_path.read_text())["records"]
    assert rec["pass"]
    assert float(rec["lhs_bound"]) <= 0.5e-13


def test_verify_fixed_form_refuses_a_budget_above_eps(capsys):
    # 64 double unit roundoffs (1.4e-14) alone exceed the left share 5e-16
    code, out, err = run(capsys, "verify", "woods-robbins", "--eps", "1e-15")
    assert (code, err) == (1, "")
    assert "rounding budget alone" in refusal(out)


def test_eval_method_mismatch_is_usage_error(capsys):
    # composite9 has no decomposition, so no accelerated route
    code, _, err = run(capsys, "eval", "composite9", "2", "1e-6", "--method", "functional")
    assert code == 2
    assert err == "error: method 'functional' does not apply to composite9\n"


_GRID_NAMES = ("f", "g", "phi", "gamma", "delta", "odd-epsilon", "composite9", "digitsum:3",
               "affine:1:4", "affine:-1:0:shifted", "affine:1:-1:shifted")


def _asked_route(method: str, spec: SeriesSpec) -> Route:
    """The route ``--method`` asks for: functional is f's functional
    equation and every other series' decomposition."""
    if method == "functional":
        return Route.FUNCTIONAL_EQUATION if spec == F_SERIES else Route.DECOMPOSED
    return {"auto": Route.AUTO, "naive": Route.NAIVE, "odd": Route.ODD_SPLIT}[method]


@pytest.mark.parametrize("method", ["auto", "naive", "odd", "functional"])
@pytest.mark.parametrize("name", _GRID_NAMES)
def test_eval_name_method_exit_codes(capsys, name, method):
    # a usage error (exit 2) exactly where the router refuses the route as
    # not serving the series; otherwise the router's result or refusal
    code, out, err = run(capsys, "eval", name, "3", "1e-8", "--method", method)
    spec = cli._catalog_series(name)
    try:
        r = eval_series_spec(spec, 3.0, 1e-8, _asked_route(method, spec))
    except DomainError as exc:
        assert "route does not apply" in str(exc)
        assert (code, out) == (2, "")
        assert err == f"error: method {method!r} does not apply to {name}\n"
        return
    except AutoseriesError as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["abs_error_bound"], payload["terms_used"], payload["method"]) == (
        repr(r.abs_error_bound), r.terms_used, r.method.value)
    assert r.abs_error_bound <= 1e-8


@pytest.mark.parametrize("argv, method", [
    (["delta", "3", "1e-8", "--method", "functional"], "decomposed"),
    (["phi", "3", "1e-8", "--method", "functional"], "decomposed"),
    (["gamma", "2", "1e-14"], "decomposed"),
    (["g", "3", "1e-9", "--method", "odd"], "odd-split"),
    (["f", "2", "1e-14"], "functional-equation"),
    (["f", "1000", "1e-8"], "naive"),
    (["f", "1000", "1e-8", "--method", "functional"], "naive"),
])
def test_eval_names_the_route_that_ran(capsys, argv, method):
    # a linear form names its own route, whatever its leaves ran; a direct
    # sum is naive whichever route asked for it
    code, out, err = run(capsys, "eval", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == method


# every catalog name, and an affine alphabet, with the series it names
_NAMED_SERIES = {
    "f": F_SERIES, "g": G_SERIES, "phi": PHI_SERIES, "gamma": GAMMA_SERIES,
    "delta": DELTA_SERIES, "odd-epsilon": ODD_PLUS_MINUS_SERIES,
    "composite9": COMPOSITE9_SERIES, "digitsum:3": SeriesSpec(CoefficientSequence.digit_sum(3)),
    "affine:1:4": SeriesSpec(CoefficientSequence.affine(1.0, 4.0)),
}


@pytest.mark.parametrize("s, eps", [("3", "1e-8"), ("2", "1e-12"), ("4", "1e-13"), ("3", "1e-20")])
@pytest.mark.parametrize("name", _NAMED_SERIES)
def test_eval_prints_what_the_library_gives(capsys, name, s, eps):
    # no name picks a route: ``eval NAME`` is eval_series_spec on AUTO, on
    # both paths, refusals included (digitsum:3 at 2 and at 1e-20)
    code, out, err = run(capsys, "eval", name, s, eps, "--format", "json")
    try:
        r = eval_series_spec(_NAMED_SERIES[name], float(s), float(eps))
    except AutoseriesError as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    assert code == 0, err
    payload = json.loads(out)
    assert payload["value"] == cli._value_text(r.value, r.abs_error_bound)
    assert (payload["abs_error_bound"], payload["terms_used"], payload["method"]) == (
        repr(r.abs_error_bound), r.terms_used, r.method.value)


@pytest.mark.parametrize("method", ["odd", "functional"])
def test_eval_method_reads_the_series_not_its_name(capsys, method):
    # affine:1:-1:shifted is f, so the routes that apply to f apply to it
    code, out, _ = run(capsys, "eval", "affine:1:-1:shifted", "3", "1e-9", "--method", method)
    assert code == 0
    by_alphabet = json.loads(out)
    code, out, _ = run(capsys, "eval", "f", "3", "1e-9", "--method", method)
    assert code == 0
    assert {**by_alphabet, "series": "f"} == json.loads(out)


@pytest.mark.parametrize("command", [["eval", "f", "3", "1e-8"], ["verify", "lemma1"],
                                     ["solve", "pows", "1", "9/7"]])
def test_depth_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--depth", "40"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------------


def test_verify_theorem3_grid(capsys):
    code, out, _ = run(capsys, "verify", "theorem3", "--s", "2,3,4", "--eps", "1e-8")
    assert code == 0
    assert out.count("[PASS]") == 3
    assert "summary: 3/3 passed" in out


def test_verify_shallit_ten(capsys):
    code, out, _ = run(capsys, "verify", "shallit:10", "--eps", "1e-4")
    assert code == 0
    assert "[PASS] shallit:10" in out


#: The records that hold for every s > 1, and how each ends past s = 1024,
#: where 2^s is no float: a pass, or a refused record naming what broke.
_HUGE_S_OUTCOMES = {
    "lemma1": None,
    "corollary2-phi": None,
    "corollary2-gamma": None,
    "theorem3": "coefficient 2^s",
    "theorem5-zero": None,
    "theorem5-pows": "coefficient 2^s",
    "theorem5-eta": "coefficient 2^s",
    "example8": None,
    # 4^-s zeta(s, 1/4): the coefficient underflows, the Hurwitz value
    # (about 4^s) is no float
    "example9": "coefficient (1)/(2^2s) underflows to 0",
}


@pytest.mark.parametrize("s", ["1030", "1100"])
@pytest.mark.parametrize("ident", list(_HUGE_S_OUTCOMES))
def test_verify_at_huge_s_passes_or_names_the_limit(capsys, ident, s):
    # coefficients are evaluated in q = 2^-s: at s = 1030 q is subnormal,
    # at 1100 it is 0, and 2^s overflowed into a traceback before
    code, out, err = run(capsys, "verify", ident, "--s", s, "--format", "text")
    needle = _HUGE_S_OUTCOMES[ident]
    if needle is None:
        assert code == 0, err
        assert f"[PASS] {ident}" in out
    else:
        assert (code, err) == (1, "")
        assert needle in refusal(out), out
    assert get_identity(ident).valid_s is None


@pytest.mark.parametrize("extra", [[], ["--precision-bits", "80"]])
def test_verify_example9_past_the_float_range_names_the_coefficient(capsys, extra):
    # 4^-1030 is below the float range; more working bits cannot help, so
    # the refusal must not suggest them
    code, out, err = run(capsys, "verify", "example9", "--s", "1030", *extra)
    assert (code, err) == (1, "")
    reason = refusal(out)
    assert "coefficient (1)/(2^2s) underflows to 0 at s=1030" in reason
    assert "working_bits" not in reason and "inf" not in reason


@pytest.mark.parametrize("s", ["70", "300"])
def test_verify_example9_at_large_s_passes(capsys, s):
    # 4^-s is far below 1e-30 here; its leaf zeta(s, 1/4) ~ 4^s must get
    # the share eps/4^-s, not eps/1e-30
    code, out, err = run(capsys, "verify", "example9", "--s", s)
    assert (code, err) == (0, "")
    assert out.startswith("[PASS] example9") and f" s={s} " in out


def test_verify_example9_at_512_names_the_float_range(capsys):
    code, out, err = run(capsys, "verify", "example9", "--s", "512")
    assert (code, err) == (1, "")
    assert "past the largest float" in refusal(out)


def test_verify_example9_past_the_float_hurwitz_value_names_it(capsys):
    # at s = 520 the coefficient 4^-s is still a (subnormal) float, but
    # zeta(s, 1/4) ~ 4^s is not; more working bits cannot help
    code, out, err = run(capsys, "verify", "example9", "--s", "520")
    assert (code, err) == (1, "")
    reason = refusal(out)
    assert "zeta(s, a) at s=520, a=1/4" in reason and "largest float" in reason
    assert "working_bits" not in reason


@pytest.mark.parametrize("s", ["3", "20"])
def test_verify_all_keeps_refused_records_and_writes_the_report(tmp_path, capsys, s):
    # --s moves only the identities valid for every s > 1: at s=3 every
    # record passes (example4a, prop6a and prop6c, each valid at one s, were
    # refused); at s=20 the f leaves of theorem3 and theorem5 need more than
    # 53 bits, and one refused (identity, s) used to end the run with no
    # report: every identity leaves exactly one record
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "verify", "--all", "--s", s, "--out", str(out_path))
    if s == "3":
        assert (code, err) == (0, "")
        assert "summary: 19/19 passed" in out and "[PASS] example4a              s=2 " in out
        return
    assert (code, err) == (1, "")
    report = json.loads(out_path.read_text())
    records = report["records"]
    assert [r["identity"] for r in records] == [i.identity_id for i in builtin_registry()]
    refused = {r["identity"]: r["reason"] for r in records if r["status"] == "refused"}
    assert set(refused) == {"theorem3", "theorem5-pows", "theorem5-eta"}
    assert all("raise working_bits" in reason for reason in refused.values())
    for r in records:
        assert r["status"] == ("refused" if r["identity"] in refused else "pass")
        assert r["pass"] is (r["status"] == "pass")
        assert (r["reason"] is None) is (r["status"] != "refused")
        assert (r["lhs_value"] is None) is (r["status"] == "refused")
    summary = report["summary"]
    assert summary["refused"] == len(refused) > 0 and summary["failed"] == 0
    assert summary["passed"] + summary["refused"] == summary["total"] == len(records)
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert sum(line.startswith("[REFUSED] ") for line in lines) == len(refused)
    assert f"{summary['passed']}/{len(records)} passed, {len(refused)} refused" in out
    # the text and CSV forms of the same report, and a round trip
    doc = ReportDocument.from_json(out_path.read_text())
    assert [r.status for r in doc.records] == [r["status"] for r in records]
    assert doc.to_json() == out_path.read_text()
    text = doc.to_text()
    assert "[REFUSED] theorem3" in text and refused["theorem3"] in text
    rows = list(csv.DictReader(io.StringIO(doc.to_csv())))
    assert list(rows[0]) == list(CSV_COLUMNS) and CSV_COLUMNS[-2:] == ("status", "reason")
    assert {row["identity"]: row["reason"] for row in rows if row["status"] == "refused"} == refused


def test_reports_without_status_fields_still_read():
    text = (Path(__file__).parent / "data" / "golden_report.json").read_text()
    assert '"status"' not in text and '"reason"' not in text
    doc = ReportDocument.from_json(text)
    assert [r.status for r in doc.records] == ["pass", "pass", "pass"]
    assert doc.summary["refused"] == 0


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown identity" in err


def test_verify_without_ids_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "theorem3", "example4a", "--eps", "1e-7", "--out", str(out_path)
    )
    assert code == 0
    doc = ReportDocument.from_json(out_path.read_text())
    assert [r.identity_id for r in doc.records] == [
        "theorem3",
        "theorem3",
        "theorem3",
        "example4a",
    ]
    assert doc.all_passed
    assert doc.config.eps == 1e-7
    assert doc.summary["total"] == 4


def test_verify_csv_format(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        "verify", "example4b", "--eps", "1e-7", "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("example4b,3.0,")


def test_verify_text_format(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, _, _ = run(
        capsys,
        "verify", "woods-robbins", "--out", str(out_path), "--format", "text",
    )
    assert code == 0
    text = out_path.read_text()
    assert "woods-robbins" in text and " heuristic" not in text
    # no record is heuristic now: an older report's flag is read and dropped
    doc = ReportDocument.from_json(
        (Path(__file__).parent / "data" / "golden_report.json").read_text()
    )
    assert not [line for line in doc.to_text().splitlines() if "heuristic" in line]


def test_verify_failure_still_writes_report_and_exits_one(tmp_path, capsys, monkeypatch):
    # a deliberately false constant, sqrt(2) * 0.500001, fails deterministically
    wrong = Identity(
        identity_id="woods-robbins-wrong",
        lhs=(),
        rhs=((TwoPowerRatio((Fraction(500001, 1000000),)), Sqrt(2)),),
        fixed_lhs=get_identity("woods-robbins").fixed_lhs,
        description="wrong on purpose",
    )
    monkeypatch.setattr(cli, "get_identity", lambda _ident: wrong)
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "woods-robbins", "--eps", "1e-8", "--out", str(out_path),
    )
    assert code == 1
    assert "[FAIL]" in out
    doc = ReportDocument.from_json(out_path.read_text())
    assert not doc.all_passed


# -- solve --------------------------------------------------------------------------


def test_solve_zero_mints_and_verifies(capsys):
    code, out, _ = run(
        capsys, "solve", "zero", "1", "0.333333333333", "--mint", "--verify-at-solution"
    )
    assert code == 0
    assert "s=2" in out.replace("s=1.99999999999", "s=2")
    assert "[PASS]" in out


def test_solve_pows_decimal_input(capsys):
    code, out, _ = run(
        capsys, "solve", "pows", "1", "1.2857142857", "--mint", "--verify-at-solution"
    )
    assert code == 0
    assert "[PASS]" in out


def test_solve_eta_sqrt2_tokens(capsys):
    code, out, _ = run(
        capsys,
        "solve", "powsminus2", "sqrt2", "(17*sqrt2-2)/15", "--mint", "--verify-at-solution",
    )
    assert code == 0
    assert "s=4" in out
    assert "[PASS]" in out


def test_solve_guard_violation_named(capsys):
    code, _, err = run(capsys, "solve", "zero", "2", "1")
    assert code == 1
    assert "k != l + 1" in err


def test_solve_zero_denominator_rounding_to_zero_exits_one(capsys):
    # "--" keeps the negative alphabet value from parsing as a flag
    code, _, err = run(capsys, "solve", "--", "zero", "1/3", "-2/3")
    assert code == 1
    assert "k != l + 1" in err


def test_solve_negative_fraction_needs_no_dashes(capsys):
    code, _, err = run(capsys, "solve", "zero", "1/3", "-2/3")
    assert code == 1
    assert "k != l + 1" in err


@pytest.mark.parametrize("k,l", [("-1", "-16/15"), ("-.5", "-sqrt2"), ("-sqrt2", "-(1+sqrt2)")])
def test_solve_accepts_negative_alphabet_values(capsys, k, l):
    code, out, _ = run(capsys, "solve", "pows", k, l, "--mint")
    assert code == 0
    assert "minted" in out


def test_solve_exact_fractions(capsys):
    code, out, _ = run(capsys, "solve", "pows", "1", "9/7")
    assert code == 0
    assert "s=3" in out


def test_solve_unknown_case(capsys):
    code, _, err = run(capsys, "solve", "wat", "1", "2")
    assert code == 2


# -- list ---------------------------------------------------------------------------


def test_list_prints_registry(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for needle in ("theorem3", "lemma1", "prop6c", "shallit:10", "woods-robbins"):
        assert needle in out


# -- configuration precedence ----------------------------------------------------------


def test_env_max_terms_applies(capsys, monkeypatch):
    monkeypatch.setenv("AUTOSERIES_MAX_TERMS", "10")
    code, _, err = run(capsys, "eval", "g", "2", "1e-6", "--method", "naive")
    assert code == 1
    assert "cap 10)" in err


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("AUTOSERIES_MAX_TERMS", "1000")
    code, _, _ = run(capsys, "eval", "g", "2", "1e-6", "--method", "naive", "--max-terms", "100000000")
    assert code == 0


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "autoseries.json"
    cfg.write_text(json.dumps({"eps": 1e-3}))
    monkeypatch.setenv("AUTOSERIES_CONFIG", str(cfg))
    # config's eps applies when no flag is given
    code, out, _ = run(capsys, "eval", "f", "2")
    assert code == 0
    assert float(json.loads(out)["eps"]) == 1e-3
    # flag beats config
    code, out, _ = run(capsys, "eval", "f", "2", "1e-9")
    assert code == 0
    assert float(json.loads(out)["eps"]) == 1e-9


def test_malformed_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("AUTOSERIES_MAX_TERMS", "lots")
    code, out, err = run(capsys, "eval", "f", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "AUTOSERIES_MAX_TERMS" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "content, needle",
    [({"eps": "tiny"}, "eps"), ({"format": "xml"}, "format"), ([1], "JSON object")],
    ids=["bad-eps", "bad-format", "not-object"],
)
def test_malformed_config_file_is_usage_error(tmp_path, capsys, monkeypatch, content, needle):
    cfg = tmp_path / "autoseries.json"
    cfg.write_text(json.dumps(content))
    monkeypatch.setenv("AUTOSERIES_CONFIG", str(cfg))
    code, out, err = run(capsys, "eval", "f", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and needle in err
    assert len(err.strip().splitlines()) == 1


def test_env_precision_bits(capsys, monkeypatch):
    monkeypatch.setenv("AUTOSERIES_PRECISION_BITS", "80")
    code, out, _ = run(capsys, "eval", "f", "6", "1e-16", "--method", "naive")
    assert code == 0
    assert float(json.loads(out)["abs_error_bound"]) <= 1e-16


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_eval_out_file(tmp_path, capsys):
    out_path = tmp_path / "eval.json"
    code, out, _ = run(capsys, "eval", "f", "2", "1e-9", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["series"] == "f"


def test_verify_all_completes_quickly(tmp_path, capsys):
    # whole-registry run at default (per-identity) tolerances
    import time

    out_path = tmp_path / "all.json"
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--all", "--out", str(out_path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0
    doc = ReportDocument.from_json(out_path.read_text())
    assert doc.all_passed
    ids = [r.identity_id for r in doc.records]
    # registry order is preserved, s ascending within an identity
    assert ids == sorted(ids, key=ids.index)
    assert doc.summary["total"] == len(ids) >= 13


def test_consecutive_main_calls_share_no_state(capsys):
    # main reuses one parser per process; no call may leak into the next
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0 and "summary: 35/35 passed" in out
    code, out, _ = run(capsys, "verify", "theorem3")
    assert code == 0
    records = [line for line in out.splitlines() if line.startswith("[")]
    assert len(records) == 3 and all(" theorem3 " in line for line in records)
    assert "summary: 3/3 passed" in out
    code, out, _ = run(capsys, "eval", "f", "2", "1e-8", "--method", "naive")
    assert json.loads(out)["method"] == "naive"
    code, out, _ = run(capsys, "eval", "f", "3", "1e-20")
    assert json.loads(out)["method"] == "functional-equation"
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 2
        code, _, err = run(capsys, "eval", "nosuch", "2")
        assert code == 2 and "unknown series" in err
    assert main(["list"]) == 0
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("s, max_terms", [("1000", 2), ("200", 10)])
def test_eval_f_at_large_s_sums_directly(capsys, s, max_terms):
    # the functional equation needs a truncation depth past s - 2 at every
    # level (none below 1000 at s = 1000); two terms of f itself suffice
    code, out, _ = run(capsys, "eval", "f", s, "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "naive"
    assert payload["terms_used"] <= max_terms
    assert float(payload["abs_error_bound"]) <= 1e-8


def test_setup_request_builds_no_table_and_imports_no_fixed_point():
    # the cheap request a fresh process answers first: no digit-sum table
    # is built and the mpmath summation kernel is never imported
    import subprocess
    import sys

    import autoseries

    code = (
        "import sys, io, contextlib\n"
        "import autoseries.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['eval', 'f', '6', '1e-8']) == 0\n"
        "from autoseries import sequences\n"
        "assert sequences._low_digit_sums.cache_info().currsize == 0\n"
        "assert 'autoseries.fixed_point' not in sys.modules\n"
    )
    src = str(Path(autoseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_python_dash_m_runs_the_command_line(capsys):
    # the same command line, in a fresh process through ``-m``, prints the
    # same report as ``main`` in this one
    import subprocess
    import sys

    import autoseries

    src = str(Path(autoseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "autoseries", "eval", "f", "2", "1e-8"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == json.loads(run(capsys, "eval", "f", "2", "1e-8")[1])
    done = subprocess.run([sys.executable, "-m", "autoseries", "verify", "nope"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "unknown identity" in done.stderr


def _exit_code(capsys, *argv):
    """(exit code, stderr) of a command line, argparse's usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "env", "config"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_term_cap_below_one_is_a_usage_error(capsys, monkeypatch, tmp_path, how, cap):
    # it crashed with a traceback from math.log of a non-positive number
    argv = ["eval", "g", "2", "1e-8"]
    if how == "flag":
        argv += ["--max-terms", cap]
    elif how == "env":
        monkeypatch.setenv("AUTOSERIES_MAX_TERMS", cap)
    else:
        cfg = tmp_path / "autoseries.json"
        cfg.write_text(f'{{"max_terms": {cap}}}')
        argv += ["--config", str(cfg)]
    code, err = _exit_code(capsys, *argv)
    assert code == 2 and f"max_terms must be at least 1, got {cap}" in err


@pytest.mark.parametrize(
    "argv",
    [("eval", "f", "3", "1e-1000"), ("eval", "f", "3", "1e400"), ("eval", "f", "3", "--eps", "1e-1000"),
     ("verify", "lemma1", "--eps", "1e-400"), ("eval", "f", "3", "--config", None)],
    ids=["positional-tiny", "positional-huge", "flag", "verify-flag", "config"],
)
def test_an_eps_past_the_float_range_is_a_usage_error(capsys, tmp_path, argv):
    # 1e-1000 read as 0.0 and was refused as "eps must be positive, got 0.0"
    if argv[-1] is None:
        cfg = tmp_path / "autoseries.json"
        cfg.write_text('{"eps": 1e-1000}')
        argv = argv[:-1] + (str(cfg),)
    code, err = _exit_code(capsys, *argv)
    assert code == 2 and "outside the float range" in err, err
    assert "must be positive" not in err
    # zero is still refused as not positive
    assert _exit_code(capsys, "eval", "f", "3", "0")[0] == 1


def test_a_bound_below_the_normal_float_range_prints_its_digits(capsys):
    # max(|value|, bound) / bound overflowed a float for a subnormal bound,
    # and the command ended in an OverflowError traceback
    code, out, _ = run(capsys, "eval", "f", "3", "1e-310")
    assert code == 0
    payload = json.loads(out)
    bound = Decimal(payload["abs_error_bound"])
    assert 0 < bound <= Decimal("1e-310")
    # 4 digits past those the bound leaves: log10(0.85 / 2.95e-313) < 313
    value = payload["value"]
    assert len(value.removeprefix("0.")) == 4 + 313
    ref = Decimal("0.851013104683688984044948599811267622924")
    assert abs(Decimal(value) - ref) <= bound + Decimal("1e-39")


def test_a_bound_past_the_float_range_never_reads_zero(capsys):
    # at 1,095 working bits the functional equation's row bounds, its final
    # rounding and the unit roundoff underflowed to 0, and so did g's
    # weighted leaf bound: this printed "bound = 0.000000e+00".  Each such
    # part now rounds up, and their total exceeds eps
    code, out, err = run(capsys, "eval", "g", "3", "1e-320", "--format", "text")
    assert (code, out) == (1, "")
    assert err.startswith("error: functional-equation route certified only ")
    assert err.endswith("its bound's parts round up below the normal float range\n")


def test_an_eps_share_that_underflows_is_refused_by_name(capsys):
    # 0.45 eps / J0 rounds to 0, which was refused as the user's eps:
    # "eps must be positive, got 0.0"
    code, out, err = run(capsys, "eval", "f", "3", "1e-323")
    assert (code, out) == (1, "")
    assert "the per-level share 0.45 eps/" in err and "underflows below the float range" in err
    assert "must be positive" not in err
