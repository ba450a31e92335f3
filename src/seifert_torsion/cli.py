"""Command line front end.

Exit codes: 0 success, 2 parse or validation failure, 3 domain failure
(for example c1 = 0 where a closed form needs c1 != 0), 4 numeric-window
failure (a zeta kernel asked outside its window, a float result outside the
double range, or a class count or other exact value past 4300 digits).
1 when a batch row raised anything but a SeifertError, a bug: the other
rows still run and stderr ends "internal error in N rows".  Under main(),
also 1 when stdout is closed early (for example piped into head): the rest
of the output is dropped without a traceback.
Files are read as UTF-8 (a batch row that is not gets a ValidationError
record); main() writes UTF-8 to stdout and stderr whatever the locale.
Exact rationals and potentially large exact integers appear in JSON output
as strings, rendered by _exact; the small exact integers m_x,
component_dimension and the homology rank stay JSON ints, bounded by _bounded;
floating-point values stay JSON numbers.

Every output is rendered from the report dict alone.  A text block has one
row per top-level report key, in report order.  The label is the key with
'_' turned into a space, except that k0_deriv0 prints as K0'(0), m_x keeps
its underscore and zbar is skipped.  The nested values have a formatter in
_TEXT; every other value prints with str().  A batch text line is the datum
followed by key=value items for the key tuple its subcommand holds in
_DATA_COMMANDS, with the nested values formatted by _LINE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from .dedekind import (
    adiabatic_eta,
    dedekind_sum_exact,
    dedekind_sum_float,
    validate_dedekind_args,
)
from .errors import (
    ChernZeroWarning,
    DomainError,
    NumericWindowError,
    SeifertError,
    ValidationError,
    brief_int,
    brief_text,
)
from .homology import class_count, first_homology, moduli_from_homology
from .parsing import format_seifert, parse_seifert
from .partition import PartitionInputs, m_exponent, partition_values
from .seifert import SeifertData, chern_number, validate_seifert
from .torsion import (
    isotropy_volume,
    k0_deriv0,
    k0_function,
    scalar_torsion_trivial,
    torsion_prefactor,
    trivial_rep_k0_params,
)
from .zetafunc import hurwitz_zeta, hurwitz_zeta_deriv0, riemann_zeta

_SELFTEST_DATA = ("[0,-1;(2,1),(3,1),(5,1)]", "[1,1]", "[0,2;(3,1),(3,1)]")
_DIGIT_LIMIT = 10**4300  # the smallest integer past Python's default int/str digit limit


def _collect_warnings(sink: list, func, *args, **kwargs):
    """Run func, appending the text of any emitted warnings to sink."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func(*args, **kwargs)
    sink.extend(str(w.message) for w in caught)
    return result


def _parse_and_validate(text: str) -> SeifertData:
    return validate_seifert(parse_seifert(text))


def _bounded(value, name: str):
    """An exact int or Fraction as it is, or NumericWindowError past 4300 digits."""
    if max(abs(value.numerator), value.denominator) >= _DIGIT_LIMIT:
        raise NumericWindowError(f"{name} has more than 4300 digits")
    return value


def _exact(value, name: str) -> str:
    """str() of an exact int or Fraction, or NumericWindowError past 4300 digits."""
    return str(_bounded(value, name))


def _input_block(d: SeifertData) -> dict:
    return {
        "text": format_seifert(d),
        "genus": d.genus,
        "euler": d.euler,
        "pairs": [[a, b] for a, b in d.pairs],
    }


def _homology_block(h1) -> dict:
    factors = [_exact(f, "invariant factor") for f in h1.invariant_factors]
    return {"rank": _bounded(h1.rank, "rank"), "invariant_factors": factors}


def _moduli_block(h1, d: SeifertData, gauge_rank: int) -> dict:
    m = moduli_from_homology(h1, d.genus, gauge_rank)
    return {
        "component_count": _exact(m.component_count, "component count"),
        "component_dimension": _bounded(m.component_dimension, "component dimension"),
        "torsion_factors": [_exact(f, "invariant factor") for f in m.torsion_factors],
    }


def _scalar_torsion_block(d: SeifertData, tr) -> dict:
    euler_char = _exact(2 - 2 * d.genus, "base Euler characteristic")
    symbolic = f"(2π)^{euler_char}/{_exact(d.alpha_product, 'alpha product')}"
    return {"value": tr.scalar_torsion, "symbolic": symbolic}


def _symplectic_volume_block(tr) -> dict:
    return {
        "value": tr.symplectic_volume,
        "radicand": _exact(tr.radicand, "torsion order"),
        "exponent": _exact(Fraction(tr.gauge_rank, 2), "volume exponent"),
    }


def invariant_report(d: SeifertData, gauge_rank: int = 1) -> dict:
    """Full invariant bundle for one datum; requires c1 != 0."""
    warns: list[str] = []
    tr = _collect_warnings(warns, torsion_prefactor, d, gauge_rank)
    h1 = first_homology(d)
    return {
        "input": _input_block(d),
        "gauge_rank": gauge_rank,
        "c1": _exact(chern_number(d), "c1"),
        "torsion_order": _exact(tr.radicand, "torsion order"),
        "homology": _homology_block(h1),
        "eta0": _exact(adiabatic_eta(d, gauge_rank), "eta0"),
        "m_x": _bounded(m_exponent(d, gauge_rank), "m_x"),
        "scalar_torsion": _scalar_torsion_block(d, tr),
        "prefactor": tr.prefactor,
        "volume_coefficient": tr.volume_coefficient,
        "symplectic_volume": _symplectic_volume_block(tr),
        "moduli": _moduli_block(h1, d, gauge_rank),
        "warnings": warns,
    }


def homology_report(d: SeifertData, gauge_rank: int = 1) -> dict:
    """Homology bundle; meaningful for every valid datum, c1 = 0 included."""
    h1 = first_homology(d)
    c1 = chern_number(d)
    return {
        "input": _input_block(d),
        "gauge_rank": gauge_rank,
        "c1": _exact(c1, "c1"),
        "homology": _homology_block(h1),
        "torsion_classes": _exact(class_count(h1.torsion_order(), gauge_rank), "class count"),
        "moduli": _moduli_block(h1, d, gauge_rank) if c1 else None,
        "warnings": [] if c1 else [str(ChernZeroWarning())],
    }


def torsion_report(d: SeifertData, gauge_rank: int = 1) -> dict:
    """Torsion bundle with the K0'(0) cross-check; requires c1 != 0."""
    warns: list[str] = []
    tr = _collect_warnings(warns, torsion_prefactor, d, gauge_rank)
    deriv = k0_deriv0(d)
    c1 = chern_number(d)
    iso = None
    if c1 > 0:
        iv = isotropy_volume(d)
        iso = {"value": iv.value, "radicand": _exact(iv.radicand, "c1")}
    return {
        "input": _input_block(d),
        "gauge_rank": gauge_rank,
        "c1": _exact(c1, "c1"),
        "scalar_torsion": _scalar_torsion_block(d, tr),
        "k0_deriv0": {"numeric": deriv.numeric, "closed_form": deriv.closed_form},
        "prefactor": tr.prefactor,
        "volume_coefficient": tr.volume_coefficient,
        "symplectic_volume": _symplectic_volume_block(tr),
        "isotropy_volume": iso,
        "warnings": warns,
    }


def partition_report(
    d: SeifertData, gauge_rank: int, level: int, cs_values: tuple, grav_phase=None
) -> dict:
    v = partition_values(PartitionInputs(d, gauge_rank, level, cs_values, grav_phase))
    report = {
        "input": _input_block(d),
        "gauge_rank": gauge_rank,
        "level": level,
        "m_x": _bounded(v.m_x, "m_x"),
        "classes": _exact(v.classes, "class count"),
        "phase_factor": {"re": v.phase_factor.real, "im": v.phase_factor.imag},
        "component_magnitude": v.component_magnitude,
        "magnitude": v.magnitude,
        "zbar": {"re": v.zbar.real, "im": v.zbar.imag, "abs": abs(v.zbar)},
        "coherent_bound": v.component_magnitude * v.classes,
    }
    if v.z is not None:
        report["z"] = {"re": v.z.real, "im": v.z.imag, "abs": abs(v.z)}
    return report


def dedekind_report(alpha: int, beta: int) -> dict:
    validate_dedekind_args(alpha, beta)
    exact = dedekind_sum_exact(alpha, beta)
    approx = dedekind_sum_float(alpha, beta)
    return {
        "alpha": alpha,
        "beta": beta,
        "exact": _exact(exact, "Dedekind sum"),
        "float": approx,
        "difference": abs(float(exact) - approx),
    }


def zeta_selftest_report() -> dict:
    """Internal consistency checks for the zeta and torsion kernels."""
    checks = []

    def check(name, residual, tolerance):
        checks.append(
            {
                "name": name,
                "residual": residual,
                "tolerance": tolerance,
                "ok": residual < tolerance,
            }
        )

    check("zeta(0) = -1/2", abs(riemann_zeta(0.0) + 0.5), 1e-12)
    check(
        "zeta'(0) = -log(2 pi)/2",
        abs(hurwitz_zeta_deriv0(1.0) + 0.5 * math.log(2.0 * math.pi)),
        1e-12,
    )
    h = 1e-6
    fd = (riemann_zeta(h) - riemann_zeta(-h)) / (2.0 * h)
    check("zeta'(0) finite difference", abs(fd - hurwitz_zeta_deriv0(1.0)), 1e-7)

    res = max(
        abs(hurwitz_zeta(s, 0.5) - (2.0**s - 1.0) * riemann_zeta(s))
        for s in (-2.0, -1.0, -0.5, 0.0, 0.49, 2.0, 3.0)
    )
    check("zeta(s, 1/2) = (2^s - 1) zeta(s)", res, 1e-9)

    res = max(
        abs(hurwitz_zeta(0.0, t) - (0.5 - t)) for t in (0.1, 0.25, 0.5, 0.75, 1.0)
    )
    check("zeta(0, t) = 1/2 - t", res, 1e-10)

    res = max(
        abs(
            (hurwitz_zeta(h, t) - hurwitz_zeta(-h, t)) / (2.0 * h)
            - hurwitz_zeta_deriv0(t)
        )
        for t in (0.2, 0.5, 0.9, 1.0)
    )
    check("d/ds zeta(s, t) at 0 vs log Gamma", res, 1e-7)

    for text in _SELFTEST_DATA:
        d = _parse_and_validate(text)
        params = trivial_rep_k0_params(d)
        check(
            f"K0(0) = 0 for {text}",
            abs(k0_function(params, d.alphas, 0.0)),
            1e-9,
        )
        deriv = k0_deriv0(d)
        check(
            f"K0'(0) numeric vs closed for {text}",
            abs(deriv.numeric - deriv.closed_form),
            1e-6,
        )
        torsion = scalar_torsion_trivial(d)
        check(
            f"exp(-K0'(0)/2) vs scalar torsion for {text}",
            abs(math.exp(-deriv.closed_form / 2.0) - torsion) / torsion,
            1e-12,
        )

    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def _read_cs_file(path: str) -> tuple:
    """Chern-Simons phases: a JSON array, or whitespace-separated decimals."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read cs file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cs file is not valid UTF-8: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return ()
    if stripped.startswith("["):
        try:
            values = json.loads(stripped, parse_int=float)  # every JSON number a float
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cs file is not valid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise ValidationError("cs file JSON must be an array of numbers")
        # Each check is one C-level pass; only a failed one looks for the first bad entry.
        if not set(map(type, values)) <= {float}:  # true, "1.5", null, an array or an object
            bad = next(v for v in values if type(v) is not float)
            shown = brief_text(json.dumps(bad), str)
            raise ValidationError(f"cs file holds a non-numeric entry: {shown}")
        cs = tuple(values)
    else:
        try:
            cs = tuple(map(float, stripped.split()))
        except ValueError as exc:
            raise ValidationError(f"cs file holds a non-numeric entry: {exc}") from exc
    if not all(map(math.isfinite, cs)):
        bad = next(c for c in cs if not math.isfinite(c))
        raise ValidationError(f"cs file holds a non-finite entry: {bad}")
    return cs


def _json_block(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False)


def _json_line(report: dict) -> str:
    return json.dumps(report, separators=(",", ":"), ensure_ascii=False)


def _complex_text(v: dict) -> str:
    return f"{v['re']!r} + {v['im']!r}i"


def _moduli_text(m) -> str:
    if m is None:
        return "(undefined: c1 = 0)"
    return f"{m['component_count']} component(s) of dimension {m['component_dimension']}"


_TEXT = {
    "input": lambda v: v["text"],
    "homology": lambda h: f"rank {h['rank']}, factors [{', '.join(h['invariant_factors'])}]",
    "scalar_torsion": lambda v: f"{v['value']!r} = {v['symbolic']}",
    "k0_deriv0": lambda v: f"numeric {v['numeric']!r}, closed {v['closed_form']!r}",
    "symplectic_volume": lambda v: f"{v['value']!r} = {v['radicand']}^({v['exponent']})",
    "isotropy_volume": lambda v: "(undefined: c1 <= 0)" if v is None else repr(v["value"]),
    "moduli": _moduli_text,
    "phase_factor": _complex_text,
    "z": _complex_text,
    "warnings": lambda w: "; ".join(w) or "(none)",
}
_LABELS = {"k0_deriv0": "K0'(0)", "m_x": "m_x"}


def _text_block(report: dict) -> str:
    rows = [
        (_LABELS.get(key, key.replace("_", " ")), _TEXT.get(key, str)(value))
        for key, value in report.items()
        if key != "zbar"
    ]
    width = max(len(label) for label, _ in rows)
    return "".join(f"{label:<{width}}  {value}\n" for label, value in rows)


_LINE = {
    "homology": lambda h: f"rank={h['rank']} factors=[{','.join(h['invariant_factors'])}]",
    "scalar_torsion": lambda v: f"scalar_torsion={v['value']!r}",
    "symplectic_volume": lambda v: f"volume={v['value']!r}",
}


def _text_line(report: dict, keys: tuple) -> str:
    items = (_LINE[k](report[k]) if k in _LINE else f"{k}={report[k]}" for k in keys)
    return " ".join([report["input"]["text"], *items]) + "\n"


def _emit(args, out, report: dict, render=_text_block) -> None:
    """Write one report: an indented JSON block, or its text rendering."""
    out.write(_json_block(report) + "\n" if args.format == "json" else render(report))


# subcommand -> (report builder, help text, keys of the batch text line)
_DATA_COMMANDS = {
    "invariants": (
        invariant_report,
        "full invariant bundle (needs c1 != 0)",
        ("c1", "torsion_order", "homology", "eta0", "m_x"),
    ),
    "homology": (
        homology_report,
        "first homology, torsion classes, moduli",
        ("c1", "homology", "torsion_classes"),
    ),
    "torsion": (
        torsion_report,
        "scalar torsion, prefactor, volumes",
        ("c1", "scalar_torsion", "prefactor", "symplectic_volume"),
    ),
}


def _utf8_row(line: str) -> str:
    """A batch row as read with surrogateescape, or ValidationError if it was not UTF-8."""
    try:
        return line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"row is not valid UTF-8: {exc}") from None


def _cmd_data(args, out, err) -> int:
    build, _, line_keys = _DATA_COMMANDS[args.command]
    if args.data is not None:
        _emit(args, out, build(_parse_and_validate(args.data), args.gauge_rank))
        return 0
    try:
        text = Path(args.input).read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValidationError(f"cannot read input file: {exc}") from exc
    internal = 0
    for line in text.splitlines():
        try:
            report = build(_parse_and_validate(_utf8_row(line)), args.gauge_rank)
        except Exception as exc:  # any other exception is a bug: it stops this row only
            internal += not isinstance(exc, SeifertError)
            line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            report = {"input": line, "error": {"type": type(exc).__name__, "message": str(exc)}}
        if args.format == "json":
            out.write(_json_line(report) + "\n")
        elif "error" in report:
            out.write(f"{line.strip() or '(empty)'} error: {report['error']['message']}\n")
        else:
            out.write(_text_line(report, line_keys))
    if internal:
        err.write(f"internal error in {internal} rows\n")
    return 1 if internal else 0


def _cmd_dedekind(args, out, err) -> int:
    _emit(args, out, dedekind_report(args.alpha, args.beta), lambda r: r["exact"] + "\n")
    return 0


def _cmd_partition(args, out, err) -> int:
    d = _parse_and_validate(args.data)
    cs = _read_cs_file(args.cs_file)
    _emit(args, out, partition_report(d, args.gauge_rank, args.level, cs, args.grav_phase))
    return 0


def _selftest_text(report: dict) -> str:
    return "".join(
        f"{c['name']}: residual={c['residual']:.3e}"
        f" tol={c['tolerance']:.0e} {'ok' if c['ok'] else 'FAIL'}\n"
        for c in report["checks"]
    )


def _cmd_selftest(args, out, err) -> int:
    report = zeta_selftest_report()
    _emit(args, out, report, _selftest_text)
    return 0 if report["ok"] else 4


def _int(text: str, name: str = "int") -> int:
    """int(text), or argparse's own "invalid <name> value" (a literal past 4300 digits too)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {name} value: {brief_text(text)}") from None


def _positive_int(text: str) -> int:
    value = _int(text, "_positive_int")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {brief_int(value)}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {brief_text(text)}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {brief_text(text, str)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifert-torsion",
        description="Invariants, torsion, and partition magnitudes of "
        "circle-fibered three-manifolds given by Seifert data.",
        epilog="Seifert data grammar: '[g,n;(a1,b1),...,(aM,bM)]'; "
        "'[g,n]' and '[g,n;]' denote an empty fiber list.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, _) in _DATA_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--data", help="one Seifert datum, e.g. '[0,-1;(2,1),(3,1),(5,1)]'")
        group.add_argument("--input", help="file with one datum per line (batch mode)")
        p.add_argument("--gauge-rank", type=_positive_int, default=1)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(handler=_cmd_data)

    p = sub.add_parser("dedekind", help="Dedekind sum s(alpha, beta)")
    p.add_argument("--alpha", type=_int, required=True)
    p.add_argument("--beta", type=_int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_dedekind)

    p = sub.add_parser("partition", help="partition magnitude at level k")
    p.add_argument("--data", required=True)
    p.add_argument("--level", type=_positive_int, default=1)
    p.add_argument("--gauge-rank", type=_positive_int, default=1)
    p.add_argument(
        "--cs-file",
        required=True,
        help="Chern-Simons phases, one per flat-bundle class (JSON array "
        "or whitespace-separated decimals), in character order",
    )
    p.add_argument("--grav-phase", type=_finite_float, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("zeta-selftest", help="internal zeta/torsion kernel checks")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_selftest)

    return parser


_EXIT_CODES = {ValidationError: 2, DomainError: 3, NumericWindowError: 4}


def run(argv=None, out=None, err=None) -> int:
    """Entry point returning an exit code; streams default to stdout/stderr."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out, err)
    except tuple(_EXIT_CODES) as exc:
        err.write(f"error: {exc}\n")
        return next(code for base, code in _EXIT_CODES.items() if isinstance(exc, base))


def main() -> None:
    for stream in (sys.stdout, sys.stderr):  # reports hold text such as π
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
    except BrokenPipeError:
        # The recipe of the signal module docs: later flushes go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
