"""Batch driver: verification runs, dimension tables, invariant listings.

Subcommands:

* ``verify``: for each n in the configured range, check the closed-form
  tables against raw invariant dimensions and the character oracle, run
  the coefficient and rank batteries, replay the full dimension chase,
  and emit a PASS/FAIL report (text, csv, or json). The raw dimensions
  of the tables and oracle stages come from :func:`patterns.pattern_dim`,
  which never lists monomials. The ranks of the battery come from
  :func:`yoneda.map_rank`, which builds no basis: each image is read in
  the target's orbit-sum coordinates at two monomials per orbit, from
  the few source terms that reach them, and each map is computed once
  per n. The remark's sources W(n; 2i, 0, 0) are omega^i in closed form;
  only the two sources with legs are written out on monomials. The
  published coefficients are read the same way, one monomial each,
  without composing whole products. Both batteries read one theta(v),
  built and checked once per n. The chase computes no number:
  :func:`chase.replay` reads the closed-form tables of the tables stage
  and the ranks of the rank battery. ``--print-bases`` uses
  materialised bases. Every invariant
  dimension used is checked against the character oracle.
  Exit code 0 on PASS, 1 on FAIL, 2 on usage or internal error; an
  internal error names the n and the stage (tables, oracle,
  coefficients, ranks, theorem or bases) where it happened. Warnings
  about known discrepancies in the published reference tables are
  attached to the report but never affect the verdict. The csv format
  is a per-check summary that does not echo the configuration, so
  ``--swap-uv`` changes no csv byte, and ``--print-bases`` with csv is
  a usage error.
* ``table``: one closed-form family next to its raw recomputation
  (pattern dimensions).
* ``invariants``: dimension of a single space, the pattern kernel size
  checked against the character oracle (:func:`spaces.checked_dim`);
  only ``--print-bases`` materialises the echelonized basis, itself
  checked against the oracle.

JSON reports are deterministic: two runs with the same configuration
produce byte-identical output. ``verify`` runs the per-n jobs one after
another in this process, in order of n.

Engine layers load on first use: each function below imports what it
runs, so ``--help`` and usage errors load no engine module and
``invariants`` loads only :mod:`equivext.spaces` and its dependencies.
The same holds for :mod:`json`, which only the writers of json and csv
output import, so ``--help`` does not load it. No command loads
:mod:`dataclasses` or :mod:`inspect`: the engine's records are
``NamedTuple``s or ``__slots__`` classes.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .spaces import SpaceDescriptor
    from .yoneda import DistinguishedClass

REPORT_VERSION = "1.0"

TABLE_ORDER = ("h_OP", "h_G", "ext_G_OP", "ext_G_G")
TABLES = TABLE_ORDER + ("d",)


class RunConfig(NamedTuple):
    """The options of one ``verify`` run; :func:`run_verify` rejects a bad one."""

    n_min: int = 2
    n_max: int = 4
    oracle_n_max: int = 8
    format: str = "text"
    output: str | None = None
    check_remark: bool = False
    swap_uv: bool = False
    print_bases: bool = False


def _check_config(cfg: RunConfig) -> None:
    """Raise ``ValueError`` on a config that no verify run accepts."""
    if not (2 <= cfg.n_min <= cfg.n_max):
        raise ValueError("need 2 <= n_min <= n_max")
    if cfg.oracle_n_max < cfg.n_max:
        raise ValueError("oracle_n_max must be at least n_max")
    if cfg.format not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {cfg.format!r}")
    if cfg.format == "csv" and cfg.print_bases:
        raise ValueError("--print-bases needs --format text or json; csv is a per-check summary")


def _family_spaces(family: str, n: int) -> list[SpaceDescriptor]:
    """The spaces of one table family, in degrees k = 0..2n."""
    from .dimformulas import TABLE_FAMILIES
    from .spaces import SpaceDescriptor

    a, b = TABLE_FAMILIES[family]
    return [SpaceDescriptor(n, k, a, b) for k in range(2 * n + 1)]


def _raw_table(family: str, n: int) -> list[int]:
    """Pattern dimensions of one family in degrees 0..2n; d is ext_G_OP + ext_G_G."""
    if family == "d":
        return [x + y for x, y in zip(_raw_table("ext_G_OP", n), _raw_table("ext_G_G", n))]
    from .patterns import pattern_dim

    return [pattern_dim(s) for s in _family_spaces(family, n)]


def _table_entry(family: str, n: int) -> dict:
    """One closed-form table next to its raw pattern dimensions."""
    from .dimformulas import formula_table

    formula = list(formula_table(family, n).dims)
    raw = _raw_table(family, n)
    return {"formula": formula, "raw": raw, "match": formula == raw}


def _check(check_id: str, expected, got, ok: bool, **first) -> dict:
    """One battery check; ``first`` holds the keys that come before ``expected``."""
    status = "PASS" if ok else "FAIL"
    return {"id": check_id, **first, "expected": expected, "got": got, "status": status}


def _coefficient_checks(n: int, theta: DistinguishedClass) -> list[dict]:
    """The published coefficients; ``theta`` is theta(v) at this n."""
    from .spaces import parse_monomial
    from .yoneda import build_class, image_at

    omega, phi_v, phi_u, xi = (build_class(name, n) for name in ("omega", "phi(v)", "phi(u)", "xi"))
    # The published values, each the coefficient of a product x.y at one
    # monomial; the xi.theta one needs the literal table contraction (the
    # other three involve no contraction at all).
    cases = [
        ("theta.omega", theta, omega, "u1^v1^v2|e2", 3, "equivariant"),
        ("theta.phi_v", theta, phi_v, "v1^v2|d1|e2", 3, "equivariant"),
        ("theta.phi_u", theta, phi_u, "u1^v1|d1|e1", 4, "equivariant"),
        ("xi.theta", xi, theta, "u1^v1|e1", 1 - n, "table"),
        ("xi.theta.equivariant", xi, theta, "u1^v1|e2", -1, "equivariant"),
    ]
    out = []
    for check_id, x, y, monomial, expected, pairing in cases:
        m = parse_monomial(monomial)
        got = image_at(x.value, "push", y.space, y.value.coeff, [m], pairing).get(m, 0)
        shown = int(got) if got.denominator == 1 else str(got)
        out.append(_check(check_id, expected, shown, got == expected, monomial=monomial))
    return out


# (id, class, side, source (k, a, b), op, value): the check is "rank op value".
RANK_CASES = (
    ("push-H0", "theta", "push", (0, 0, 0), "==", 1),
    ("push-H2", "theta", "push", (2, 0, 0), "==", 1),
    ("push-ext1-G-OP", "theta", "push", (1, 1, 0), "==", 2),
    ("pull-ext1-G-G", "theta", "pull", (1, 1, 1), ">=", 1),
    ("push-zero-class", "zero", "push", (0, 0, 0), "==", 0),
)


def _rank_checks(n: int, theta: DistinguishedClass, check_remark: bool) -> list[dict]:
    """The rank battery; ``theta`` is theta(v) at this n, or theta(u) under ``--swap-uv``."""
    from .spaces import SpaceDescriptor
    from .yoneda import DistinguishedClass, map_rank, theta_of

    classes = {"theta": theta, "zero": DistinguishedClass("theta(0)", theta_of(n, 0, 0), theta.space)}
    cases = list(RANK_CASES)
    if check_remark:
        cases += [(f"push-H{k}", "theta", "push", (k, 0, 0), "==", 1) for k in range(4, 2 * n, 2)]
    out = []
    for check_id, cls, side, (k, a, b), op, value in cases:
        got = map_rank(classes[cls], side, SpaceDescriptor(n, k, a, b))
        ok = got >= value if op == ">=" else got == value
        out.append(_check(check_id, f"{op} {value}", got, ok))
    return out


def _table_results(n: int) -> tuple[dict[str, dict], bool]:
    """Closed-form tables next to raw dimensions, and the palindrome check."""
    tables = {family: _table_entry(family, n) for family in TABLES}
    palindromes = all(tables[f]["formula"] == tables[f]["formula"][::-1] for f in TABLE_ORDER)
    return tables, palindromes


def _oracle_results(n: int) -> dict:
    """Character-oracle dimensions against pattern ones on every table-family space.

    These hold the rank battery's spaces: each :data:`RANK_CASES` source
    and its target under theta has k <= 3 <= 2n and a family's (a, b).
    """
    from . import characters
    from .patterns import pattern_dim

    matches = [
        characters.invariant_dim(s) == pattern_dim(s)
        for family in TABLE_ORDER
        for s in _family_spaces(family, n)
    ]
    return {"descriptors": len(matches), "all_match": all(matches)}


def _theorem_result(n: int, check_remark: bool, tables: dict, ranks: list[dict]) -> dict:
    """The chase replayed on this n's closed-form tables and rank-battery ranks."""
    from .chase import TheoremFailure, replay

    dims = {family: tables[family]["formula"] for family in TABLE_ORDER}
    # replay raises at the first failed step, so a returned report passed.
    try:
        theorem = replay(n, dims, {c["id"]: c["got"] for c in ranks}, check_remark)
    except TheoremFailure as failure:
        ext1_MM, hom_MM, h_M, steps, status = None, None, [], failure.steps, "FAIL"
    else:
        ext1_MM, hom_MM, h_M = theorem.ext1_MM, theorem.hom_MM, list(theorem.h_M)
        steps, status = theorem.steps, "PASS"
    return {
        "ext1_MM": ext1_MM,
        "hom_MM": hom_MM,
        "h_M": h_M,
        "steps": [s.as_dict() for s in steps],
        "status": status,
    }


def _bases(n: int) -> dict[str, list[str]]:
    from .spaces import invariant_basis

    bases: dict[str, list[str]] = {}
    for family in TABLE_ORDER:
        for s in _family_spaces(family, n):
            basis = invariant_basis(s)
            if basis.dim:
                bases[f"{family}[{s.k}]"] = [v.render() for v in basis.vectors]
    return bases


def _staged(n: int, name: str, run, *args):
    """Return ``run(*args)``; re-raise a failure as an internal error naming n and the stage."""
    try:
        return run(*args)
    except Exception as exc:
        raise RuntimeError(f"n={n}, stage {name}: {exc!r}") from exc


def _verify_one(n: int, cfg: RunConfig) -> dict:
    from .yoneda import build_class

    tables, palindromes = _staged(n, "tables", _table_results, n)
    oracle = _staged(n, "oracle", _oracle_results, n)
    # Both batteries read theta(v), built and checked once per n; under
    # --swap-uv the rank battery reads theta(u) instead.
    theta = _staged(n, "coefficients", build_class, "theta(v)", n)
    coefficients = _staged(n, "coefficients", _coefficient_checks, n, theta)
    side = _staged(n, "ranks", build_class, "theta(u)", n) if cfg.swap_uv else theta
    ranks = _staged(n, "ranks", _rank_checks, n, side, cfg.check_remark)
    result: dict = {
        "n": n,
        "tables": tables,
        "palindromes": palindromes,
        "oracle": oracle,
        "coefficients": coefficients,
        "ranks": ranks,
        "theorem": _staged(n, "theorem", _theorem_result, n, cfg.check_remark, tables, ranks),
    }
    if cfg.print_bases:
        result["bases"] = _staged(n, "bases", _bases, n)

    ok = (
        all(t["match"] for t in result["tables"].values())
        and result["palindromes"]
        and result["oracle"]["all_match"]
        and all(c["status"] == "PASS" for c in result["coefficients"] + result["ranks"])
        and result["theorem"]["status"] == "PASS"
    )
    result["verdict"] = "PASS" if ok else "FAIL"
    return result


def _oracle_extension(n_from: int, n_to: int) -> list[dict]:
    from . import characters, dimformulas

    out = []
    for n in range(n_from, n_to + 1):
        entry: dict = {"n": n}
        match = True
        for family in TABLE_ORDER:
            dims = [characters.invariant_dim(s) for s in _family_spaces(family, n)]
            entry[family] = dims
            match = match and dims == list(dimformulas.formula_table(family, n).dims)
        entry["match_formula"] = match
        out.append(entry)
    return out


def run_verify(cfg: RunConfig) -> dict:
    from . import dimformulas

    _check_config(cfg)
    ns = range(cfg.n_min, cfg.n_max + 1)
    per_n = [_verify_one(n, cfg) for n in ns]

    warnings = [
        {
            "code": "published-coefficient-monomial",
            "n": None,
            "message": (
                "the published coefficient check names the monomial u1^u1|d1|e1, "
                "whose repeated wedge factor makes it identically zero; the "
                "nonzero coefficient lives at u1^v1|d1|e1 and equals 4"
            ),
        },
        {
            "code": "published-pull-pairing",
            "n": None,
            "message": (
                "the published nonvanishing witness for precomposition contracts "
                "legs through the literal delta table, which does not commute "
                "with the group action; the equivariant contraction "
                "(delta - 1/(n+1)) sends the same class to a nonzero invariant "
                "whose coefficient at u1^v1|e1 vanishes, with nonvanishing "
                "visible at u1^v1|e2 (value -1 for every n); the table replay "
                "reproduces the published value 1-n at u1^v1|e1, and every "
                "rank and chase conclusion is unaffected"
            ),
        },
    ]
    for n in ns:
        if n >= 3:
            computed = dimformulas.d_vector(n).render()
            warnings.append(
                {
                    "code": "published-d-tail",
                    "n": n,
                    "message": (
                        f"published reference table lists the two-leg degree vector "
                        f"with tail {dimformulas.PUBLISHED_D_TAIL}; the exact "
                        f"convolution is palindromic with tail "
                        f"{dimformulas.COMPUTED_D_TAIL}, computed {computed}; "
                        f"ranks and chases are unaffected"
                    ),
                }
            )

    oracle_tables = _oracle_extension(cfg.n_max + 1, cfg.oracle_n_max)
    verdict = "PASS" if (
        all(r["verdict"] == "PASS" for r in per_n)
        and all(e["match_formula"] for e in oracle_tables)
    ) else "FAIL"
    return {
        "version": REPORT_VERSION,
        "config": cfg._asdict(),
        "per_n": per_n,
        "oracle_tables": oracle_tables,
        "warnings": warnings,
        "verdict": verdict,
    }


def _verify_text(report: dict) -> str:
    cfg = report["config"]
    lines = [
        f"verify n={cfg['n_min']}..{cfg['n_max']} "
        f"check_remark={str(cfg['check_remark']).lower()} "
        f"swap_uv={str(cfg['swap_uv']).lower()}"
    ]
    for r in report["per_n"]:
        n = r["n"]
        table_ok = all(t["match"] for t in r["tables"].values())
        lines.append(
            f"n={n}: tables {'OK' if table_ok else 'MISMATCH'}, "
            f"oracle {'OK' if r['oracle']['all_match'] else 'MISMATCH'} "
            f"({r['oracle']['descriptors']} spaces), "
            f"coefficients {sum(c['status'] == 'PASS' for c in r['coefficients'])}/"
            f"{len(r['coefficients'])}, "
            f"ranks {sum(c['status'] == 'PASS' for c in r['ranks'])}/{len(r['ranks'])}, "
            f"ext1(M,M)={r['theorem']['ext1_MM']} [{r['theorem']['status']}]"
        )
        for family, t in r["tables"].items():
            mark = "OK" if t["match"] else "MISMATCH"
            formula = "(" + ",".join(map(str, t["formula"])) + ")"
            raw = "(" + ",".join(map(str, t["raw"])) + ")"
            lines.append(f"  {family}: {formula} | {raw} | {mark}")
        if "bases" in r:
            for key, vectors in r["bases"].items():
                lines.append(f"  basis {key}:")
                for v in vectors:
                    lines.append(f"    {v}")
    for e in report["oracle_tables"]:
        lines.append(
            f"oracle n={e['n']}: ext_G_G=("
            + ",".join(map(str, e["ext_G_G"]))
            + f") match_formula={str(e['match_formula']).lower()}"
        )
    for w in report["warnings"]:
        where = f" n={w['n']}" if w["n"] is not None else ""
        lines.append(f"WARN [{w['code']}]{where}: {w['message']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def _verify_csv(report: dict) -> str:
    import json

    rows = ["section,n,id,expected,got,status"]

    def add(section, n, check_id, expected, got, status):
        rows.append(f"{section},{n},{check_id},{expected},{got},{status}")

    for r in report["per_n"]:
        n = r["n"]
        for family, t in r["tables"].items():
            for k, (f, raw) in enumerate(zip(t["formula"], t["raw"])):
                add("table", n, f"{family}[{k}]", f, raw, "PASS" if f == raw else "FAIL")
        add(
            "oracle",
            n,
            "dimensions",
            "match",
            r["oracle"]["descriptors"],
            "PASS" if r["oracle"]["all_match"] else "FAIL",
        )
        for c in r["coefficients"]:
            add("coefficient", n, c["id"], c["expected"], c["got"], c["status"])
        for c in r["ranks"]:
            add("rank", n, c["id"], c["expected"].replace(",", ";"), c["got"], c["status"])
        for s in r["theorem"]["steps"]:
            add("theorem", n, s["id"], "", json.dumps(s["value"]).replace(",", ";"), s["status"])
        add("verdict", n, "per-n", "PASS", r["verdict"], r["verdict"])
    for w in report["warnings"]:
        add("warning", w["n"] if w["n"] is not None else "", w["code"], "", "", "WARN")
    add("verdict", "", "overall", "PASS", report["verdict"], report["verdict"])
    return "\n".join(rows) + "\n"


def _json(payload: dict) -> str:
    """``payload`` as the reports' JSON: two-space indent and a final newline."""
    import json

    return json.dumps(payload, indent=2) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report)
    if fmt == "csv":
        return _verify_csv(report)
    return _verify_text(report)


def cmd_table(which: str, n: int, fmt: str) -> str:
    entry = _table_entry(which, n)
    if fmt == "json":
        return _json({"table": which, "n": n, **entry})
    formula_s = "(" + ",".join(map(str, entry["formula"])) + ")"
    raw_s = "(" + ",".join(map(str, entry["raw"])) + ")"
    mark = "OK" if entry["match"] else "MISMATCH"
    if fmt == "csv":
        return f'table,n,formula,raw,match\n{which},{n},"{formula_s}","{raw_s}",{mark}\n'
    return f"table {which} n={n}\n{formula_s} | {raw_s} | {mark}\n"


def cmd_invariants(n: int, k: int, a: int, b: int, print_bases: bool, fmt: str) -> str:
    from .spaces import SpaceDescriptor, checked_dim, invariant_basis, space_dim

    s = SpaceDescriptor(n, k, a, b)
    vectors = [v.render() for v in invariant_basis(s).vectors] if print_bases else []
    dim = checked_dim(s)
    untested = not s.validated_legs
    if fmt == "json":
        payload = {
            "descriptor": {"n": n, "k": k, "dual_legs": a, "legs": b},
            "space_dim": space_dim(s),
            "dim": dim,
            "untested_legs": untested,
        }
        if print_bases:
            payload["basis"] = vectors
        return _json(payload)
    lines = [f"dim {dim}"]
    if untested:
        lines.append("note: leg counts above 1 are outside the validated paths (untested)")
    return "\n".join(lines + vectors) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equivext",
        description="exact verification of equivariant extension dimension tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("--n-min", type=int)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--oracle-n-max", type=int)
    p_verify.add_argument("--format", choices=("text", "csv", "json"))
    p_verify.add_argument("--output")
    p_verify.add_argument("--check-remark", action="store_true")
    p_verify.add_argument("--swap-uv", action="store_true")
    p_verify.add_argument("--print-bases", action="store_true")
    p_verify.set_defaults(**RunConfig()._asdict())

    p_table = sub.add_parser("table", help="render one dimension table")
    p_table.add_argument("which", choices=TABLES)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--output", default=None)

    p_inv = sub.add_parser("invariants", help="dimension of one invariant subspace")
    p_inv.add_argument("--n", type=int, required=True)
    p_inv.add_argument("--k", type=int, required=True)
    p_inv.add_argument("--dual", type=int, default=0, help="number of dual legs")
    p_inv.add_argument("--rho", type=int, default=0, help="number of plain legs")
    p_inv.add_argument("--print-bases", action="store_true")
    p_inv.add_argument("--format", choices=("text", "json"), default="text")
    p_inv.add_argument("--output", default=None)
    return parser


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to ``output``, or to stdout; an unwritable path is a usage error."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = RunConfig(**{name: getattr(args, name) for name in RunConfig._fields})
            report = run_verify(cfg)
            _emit(render_report(report, cfg.format), cfg.output)
            return 0 if report["verdict"] == "PASS" else 1
        if args.command == "table":
            if args.n < 2:
                raise ValueError("table requires n >= 2")
            _emit(cmd_table(args.which, args.n, args.format), args.output)
            return 0
        # The subparsers are required, so the command is "invariants".
        _emit(
            cmd_invariants(args.n, args.k, args.dual, args.rho, args.print_bases, args.format),
            args.output,
        )
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
