"""Command-line surface: figure-level computations emitted as CSV or JSON.

Every command reads a JSON configuration document (validated before any
computation), runs the corresponding library operation over its grid, and
writes rows in deterministic grid order.  Floating-point values are printed
with 17 significant digits so that re-ingesting and re-emitting a file is
byte-identical.

Every command takes --config, --out, --format and --json.  Beyond those:

    eval, jet, polar, gevrey   --model, --tol, --cutoff
    residual                   --cutoff
    curve, covering            nothing more

Exit codes: 0 success, 1 computation error, 2 configuration/schema error or
usage error (such as an option the command does not take), 3 success but
with flagged rows (points inside removed discs).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import sys
from typing import Any

import click
import numpy as np

from . import models as mdl
from .errors import ConfigError, HypothesisViolated, MeandroError, PoleProximity
from .gevrey import divergence_diagnostic, gevrey_fit, smallest_term_truncation
from .geometry import (
    PERFORATION_SCHEMA,
    Disc,
    _build_perforation,
    residual_memberships,
    validated,
)
from .covering import inclusion_check, induced_radii
from .polar import AnnulusSpec, fiber_polar_sum, laurent_coefficients
from .series import evaluate_sums, taylor_jet

_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
    ]
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["meander", "qlog", "zero_sum_pik", "zero_sum_general"]},
                "x": _COMPLEX,
                "c": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 1},
                "lambda": {"type": "number", "exclusiveMinimum": 1},
                "constant": _COMPLEX,
                "poles": {"type": "array", "items": _COMPLEX, "minItems": 1},
                "region_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "perforation": PERFORATION_SCHEMA,
        "eval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "array", "items": _COMPLEX, "minItems": 1},
                "ray": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "theta": {"type": "number"},
                        "theta_turns": {"type": "number"},
                        "t_start": {"type": "number"},
                        "t_stop": {"type": "number"},
                        "t_step": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "jet": {
            "type": "object",
            "required": ["order"],
            "additionalProperties": False,
            "properties": {
                "z0": _COMPLEX,
                "order": {"type": "integer", "minimum": 0},
            },
        },
        "polar": {
            "type": "object",
            "required": ["mode"],
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["laurent", "fiber"]},
                "sheet": {"type": "integer", "minimum": 0},
                "center": _COMPLEX,
                "r": {"type": "number", "exclusiveMinimum": 0},
                "k_min": {"type": "integer"},
                "k_max": {"type": "integer"},
                "omega": _COMPLEX,
                "z": _COMPLEX,
            },
        },
        "gevrey": {
            "type": "object",
            "required": ["order"],
            "additionalProperties": False,
            "properties": {
                "z0": _COMPLEX,
                "order": {"type": "integer", "minimum": 10},
                "window": {
                    "type": "array",
                    "minItems": 2,
                    "maxItems": 2,
                    "items": {"type": "integer"},
                },
                "z_values": {"type": "array", "items": {"type": "number"}},
            },
        },
        "curve": {
            "type": "object",
            "required": ["n"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1, "maximum": 39},
                "x_start": {"type": "number"},
                "x_stop": {"type": "number"},
                "x_count": {"type": "integer", "minimum": 1},
            },
        },
        "residual": {
            "type": "object",
            "required": ["grid"],
            "additionalProperties": False,
            "properties": {
                "grid": {
                    "type": "object",
                    "required": ["re_start", "re_stop", "re_count", "im_start", "im_stop", "im_count"],
                    "additionalProperties": False,
                    "properties": {
                        "re_start": {"type": "number"},
                        "re_stop": {"type": "number"},
                        "re_count": {"type": "integer", "minimum": 1},
                        "im_start": {"type": "number"},
                        "im_stop": {"type": "number"},
                        "im_count": {"type": "integer", "minimum": 1},
                    },
                },
                "margin": {"type": "number", "minimum": 0},
            },
        },
        "covering": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alphas": {"type": "array", "items": {"type": "integer", "minimum": 1, "maximum": 1023}},
                "radii": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1}},
                "moduli": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "angles": {"type": "integer", "minimum": 8},
                "phase": {"type": "number"},
            },
        },
    },
}


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _as_complex(spec: Any) -> complex:
    if isinstance(spec, (int, float)):
        return complex(spec)
    return complex(spec[0], spec[1])


def _poles(specs: list) -> list[complex]:
    if not specs:  # the schema refuses an empty list, so the field is missing
        raise ConfigError("zero_sum_general needs a 'poles' list")
    return [_as_complex(p) for p in specs]


# Each model field: the constructor keyword it sets, its conversion, and its
# default (None: the constructor's own default holds).
_FIELDS = {
    "x": ("x", _as_complex, 0.5),
    "c": ("c", float, None),
    "alpha": ("alpha", float, None),
    "lambda": ("lam", float, None),
    "region_radius": ("region", lambda radius: Disc(0j, radius), None),
    "constant": ("c", _as_complex, 1.0),
    "poles": ("poles", _poles, []),
}

# Each model's constructor and the fields it reads.
_MODELS = {
    "meander": (mdl.MeanderModel, ("x", "c", "alpha", "lambda", "region_radius")),
    "qlog": (mdl.QLogModel, ("x", "c", "alpha", "lambda", "region_radius")),
    "zero_sum_pik": (mdl.ZeroSumPiK, ("c", "alpha", "lambda", "region_radius")),
    "zero_sum_general": (mdl.ZeroSumGeneral, ("constant", "poles", "lambda", "region_radius")),
}


def _refuse_constant(literal: str):
    # Python's json module reads NaN, Infinity and -Infinity; JSON has no such values.
    raise ValueError(f"{literal} is not a JSON number")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_refuse_constant)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validated(config, CONFIG_SCHEMA, "config rejected by schema")


def _section(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"missing '{name}' section")
    return config[name]


def _build_model(config: dict, override: str | None):
    section = dict(config.get("model", {}))
    if override:
        section["name"] = override
    if "name" not in section:
        raise ConfigError("no model selected (config 'model' section or --model)")
    name = section.pop("name")
    if name not in _MODELS:
        raise ConfigError(f"unknown model {name}")
    build, fields = _MODELS[name]
    for field in section:
        if field not in fields:
            raise ConfigError(f"the {name} model reads no field '{field}'")
    kwargs = {}
    for field in fields:
        keyword, convert, default = _FIELDS[field]
        value = section.get(field, default)
        if value is not None:
            kwargs[keyword] = convert(value)
    # The schema admits parameters that a model refuses (|x| >= 1, c > 1).
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} model: {exc}") from exc


def _write_rows(out: str | None, fmt: str, command: str, header: list[str], rows: list[list]):
    if fmt == "json":
        payload = {"command": command, "rows": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if out in (None, "-"):
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_error(as_json: bool, kind: str, exc: Exception):
    # The stream is passed, not err=True: click caches a wrapper of each new
    # sys.stderr (and sys.stdout) keyed by that stream, and the wrapper of a
    # text stream is the stream itself, so a run in-process would keep every
    # stream it ever printed to.
    if as_json:
        click.echo(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    else:
        click.echo(f"error ({kind}): {exc}", file=sys.stderr)


def _finite(ctx, param, value: float) -> float:
    """Reject the NaN and inf that ``click.FloatRange`` lets through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


# Every command takes --config, --out, --format and --json; --model, --tol
# and --cutoff go only to the commands that read them.
_OPTIONS = {
    "config": click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    "model": click.option("--model", "model_name", default=None, help="Override the config model name."),
    "out": click.option("--out", "out_path", default="-", help="Output path ('-' for stdout)."),
    "format": click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv"),
    "tol": click.option(
        "--tol", type=click.FloatRange(min=0, min_open=True), default=1e-10, show_default=True, callback=_finite
    ),
    "cutoff": click.option("--cutoff", type=click.IntRange(min=1), default=10_000, show_default=True),
    "json": click.option("--json", "json_errors", is_flag=True, help="Machine-readable errors on stderr."),
}
_EVERY_COMMAND = ("config", "out", "format", "json")


@click.group()
def main():
    """Certified series summation, polar decomposition and Gevrey diagnostics."""


def _command(name: str, *reads: str):
    """Register a command; ``reads`` names which of "model", "tol" and "cutoff" it takes.

    The decorated function takes the validated config and those options (the
    built model for "model") and returns the header, the rows and the exit
    code, 0 or 3.  A ConfigError exits 2 and any other MeandroError exits 1.
    """

    def register(fn):
        def run(config_path, out_path, out_format, json_errors, model_name=None, **options):
            try:
                config = _load_config(config_path)
                if "model" in reads:
                    options["model"] = _build_model(config, model_name)
                header, rows, code = fn(config, **options)
                _write_rows(out_path, out_format, name, header, rows)
            except ConfigError as exc:
                _emit_error(json_errors, "config", exc)
                code = 2
            except MeandroError as exc:
                _emit_error(json_errors, type(exc).__name__, exc)
                code = 1
            sys.exit(code)

        for key in reversed(_OPTIONS):
            if key in reads or key in _EVERY_COMMAND:
                run = _OPTIONS[key](run)
        main.command(name, help=fn.__doc__)(run)
        return fn

    return register


@_command("eval", "model", "tol", "cutoff")
def cmd_eval(config, model, tol, cutoff):
    """Evaluate the model sum on a point grid or along a ray."""
    section = config.get("eval", {})
    rows: list[list] = []
    flagged = 0
    if "ray" in section:
        ray = section["ray"]
        theta = ray.get("theta")
        if theta is None:
            theta = 2.0 * math.pi * ray.get("theta_turns", math.sqrt(2.0))
        ts = np.arange(ray.get("t_start", 0.0), ray.get("t_stop", 2.0), ray.get("t_step", 0.05))
        points = [t * cmath.exp(1j * theta) for t in ts]
    else:
        points = [_as_complex(p) for p in section.get("points", [])]
        if not points:
            raise ConfigError("eval needs 'points' or 'ray'")

    for z, res in zip(points, evaluate_sums(model, points, tol=tol, max_terms=cutoff)):
        if isinstance(res, PoleProximity):
            rows.append([z.real, z.imag, None, None, None, None, f"pole_proximity:{res.sheet}"])
            flagged += 1
        elif isinstance(res, MeandroError):
            raise res
        else:
            rows.append([z.real, z.imag, res.value.real, res.value.imag, res.tail_bound, res.terms_used, "ok"])
    header = ["z_re", "z_im", "S_re", "S_im", "tail_bound", "terms_used", "status"]
    return header, rows, 3 if flagged else 0


@_command("jet", "model", "tol", "cutoff")
def cmd_jet(config, model, tol, cutoff):
    """Taylor coefficients of the sum at a point."""
    section = _section(config, "jet")
    z0 = _as_complex(section.get("z0", 0.0))
    jet = taylor_jet(model, z0, section["order"], rel_tol=tol, max_terms=cutoff)
    rows = [
        [k, jet.coefficients[k].real, jet.coefficients[k].imag, float(jet.coefficient_tails[k])]
        for k in range(jet.order + 1)
    ]
    return ["k", "a_re", "a_im", "tail_bound"], rows, 0


@_command("polar", "model", "tol", "cutoff")
def cmd_polar(config, model, tol, cutoff):
    """Laurent coefficients of one sheet, or a fiber polar sum."""
    section = _section(config, "polar")
    mode = section["mode"]
    for key in {"laurent": ("sheet", "center", "r"), "fiber": ("omega", "z")}[mode]:
        if key not in section:
            raise ConfigError(f"polar {mode} mode needs '{key}'")
    if mode == "laurent":
        sheet = section["sheet"]
        if sheet < model.n_min or (model.n_max is not None and sheet > model.n_max):
            span = f"from {model.n_min}" if model.n_max is None else f"{model.n_min} to {model.n_max}"
            raise ConfigError(f"the model has no sheet {sheet} (its sheets run {span})")
        k_min, k_max = section.get("k_min", -8), section.get("k_max", 8)
        if k_min > k_max:
            raise ConfigError(f"polar laurent needs k_min <= k_max, got {k_min} > {k_max}")
        ann = AnnulusSpec(_as_complex(section["center"]), section["r"], model.perforation.lam)
        for pole in model.poles(sheet):
            if ann.r < abs(pole - ann.center) < ann.outer:
                raise ConfigError(
                    f"the annulus {ann.r:g} < |z - {ann.center}| < {ann.outer:g} holds the pole "
                    f"{complex(pole)} of sheet {sheet}, so no Laurent expansion exists there"
                )
        expansion = laurent_coefficients(
            lambda zs: model.term_array(sheet, np.asarray(zs, dtype=complex)), ann, k_min=k_min, k_max=k_max
        )
        rows = [
            [k, expansion.coefficient(k).real, expansion.coefficient(k).imag]
            for k in range(expansion.k_min, expansion.k_max + 1)
        ]
        return ["k", "c_re", "c_im"], rows, 0
    om, z = _as_complex(section["omega"]), _as_complex(section["z"])
    try:
        res = fiber_polar_sum(model, om, z, tol=tol, sheet_limit=cutoff)
    except ValueError as exc:  # omega is no pole projection within the cutoff
        raise ConfigError(f"invalid polar fiber: {exc}") from exc
    header = ["omega_re", "omega_im", "z_re", "z_im", "S_re", "S_im", "tail_bound", "sheets_used"]
    row = [om.real, om.imag, z.real, z.imag, res.value.real, res.value.imag, res.tail_bound, res.terms_used]
    return header, [row], 0


@_command("gevrey", "model", "tol", "cutoff")
def cmd_gevrey(config, model, tol, cutoff):
    """Gevrey fit, divergence verdict and smallest-term sweep for a model jet."""
    section = _section(config, "gevrey")
    z0 = _as_complex(section.get("z0", 0.0))
    jet = taylor_jet(model, z0, section["order"], rel_tol=tol, max_terms=cutoff)
    window = tuple(section.get("window", (5, section["order"])))
    fit = gevrey_fit(jet.coefficients, window=window)
    report = divergence_diagnostic(jet.coefficients)
    header = ["z_abs", "m", "T_re", "T_im", "S_re", "S_im", "abs_error",
              "fit_C", "fit_alpha", "fit_r2", "radius_estimate", "verdict"]
    meta = [fit.C, fit.alpha, fit.r_squared, report.radius_estimate, report.verdict.value]
    rows: list[list] = []
    z_values = section.get("z_values", [])
    sums = evaluate_sums(model, [z0 + z_abs for z_abs in z_values], tol=tol, max_terms=cutoff)
    for z_abs, res in zip(z_values, sums):
        trunc = smallest_term_truncation(jet, z0 + z_abs, fit.C, max(fit.alpha, 1e-6))
        if isinstance(res, MeandroError):
            raise res
        s_val = res.value
        rows.append(
            [z_abs, trunc.m, trunc.value.real, trunc.value.imag,
             s_val.real, s_val.imag, abs(s_val - trunc.value), *meta]
        )
    if not rows:
        rows.append([None, None, None, None, None, None, None, *meta])
    return header, rows, 0


@_command("curve")
def cmd_curve(config):
    """Real root branches of the truncated implicit meander equation."""
    section = _section(config, "curve")
    xs = np.linspace(section.get("x_start", 0.0), section.get("x_stop", 0.9), section.get("x_count", 19))
    rows = [[x, i, root] for x, roots in mdl.meander_curve(section["n"], xs) for i, root in enumerate(roots)]
    return ["x", "branch", "z"], rows, 0


@_command("residual", "cutoff")
def cmd_residual(config, cutoff):
    """Residual-set membership verdicts over a grid."""
    perf = _build_perforation(_section(config, "perforation"))  # _load_config validated it
    section = _section(config, "residual")
    g = section["grid"]
    res = np.linspace(g["re_start"], g["re_stop"], g["re_count"])
    ims = np.linspace(g["im_start"], g["im_stop"], g["im_count"])
    points = [complex(a, b) for b in ims for a in res]
    verdicts = residual_memberships(perf, points, cutoff=cutoff, margin=section.get("margin", 0.0))
    rows = []
    for z, verdict in zip(points, verdicts):
        if isinstance(verdict, MeandroError):
            raise verdict
        pole = verdict.pole
        rows.append([z.real, z.imag, verdict.state.value, verdict.sheet,
                     pole.real if pole is not None else None, pole.imag if pole is not None else None])
    return ["z_re", "z_im", "status", "witness_sheet", "pole_re", "pole_im"], rows, 0


@_command("covering")
def cmd_covering(config):
    """Inclusion-check sweep for the ramified covering."""
    section = config.get("covering", {})
    alphas = section.get("alphas", [2, 3])
    radii = section.get("radii", [1e-2, 1e-3])
    moduli = section.get("moduli", [0.2, 0.5, 0.9, 1.0])
    angles = section.get("angles", 360)
    phase = section.get("phase", 0.0)

    def one(a, r, mod) -> list:
        omega = mod * cmath.exp(1j * phase)
        s, rho = induced_radii(r, a)
        try:
            rep = inclusion_check(omega, r, a, angles)
            return [a, r, mod, s, rho, rep.margin_preimage, rep.margin_image, "pass" if rep.passed else "fail"]
        except HypothesisViolated as exc:
            return [a, r, mod, s, rho, None, None, f"hypothesis_violated:{exc}"]

    rows = [one(a, r, mod) for a in alphas for r in radii for mod in moduli]
    return ["alpha", "r", "omega_abs", "s", "rho", "margin_preimage", "margin_image", "status"], rows, 0


if __name__ == "__main__":
    main()
