"""Command-line surface: figure-level computations emitted as CSV or JSON.

Every command reads a JSON configuration document (validated before any
computation), runs the corresponding library operation over its grid, and
writes rows in deterministic grid order.  Floating-point values are printed
with 17 significant digits so that re-ingesting and re-emitting a file is
byte-identical.

Exit codes: 0 success, 1 computation error, 2 configuration/schema error,
3 success but with flagged rows (points inside removed discs).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import sys
from typing import Any, Callable

import click
import numpy as np

from . import models as mdl
from .errors import ConfigError, HypothesisViolated, MeandroError, PoleProximity
from .gevrey import divergence_diagnostic, gevrey_fit, smallest_term_truncation
from .geometry import (
    PERFORATION_SCHEMA,
    _build_perforation,
    residual_memberships,
    schema_violation,
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


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    error = schema_violation(config, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error.message}") from error
    return config


def _build_model(config: dict, override: str | None):
    section = dict(config.get("model", {}))
    if override:
        section["name"] = override
    if "name" not in section:
        raise ConfigError("no model selected (config 'model' section or --model)")
    name = section["name"]
    kwargs = {}
    if "c" in section:
        kwargs["c"] = section["c"]
    if "alpha" in section:
        kwargs["alpha"] = section["alpha"]
    if "lambda" in section:
        kwargs["lam"] = section["lambda"]
    if "region_radius" in section:
        from .geometry import Disc

        kwargs["region"] = Disc(0j, section["region_radius"])
    # The schema admits parameters that a model refuses (|x| >= 1, c > 1).
    try:
        if name == "meander":
            return mdl.MeanderModel(_as_complex(section.get("x", 0.5)), **kwargs)
        if name == "qlog":
            return mdl.QLogModel(_as_complex(section.get("x", 0.5)), **kwargs)
        if name == "zero_sum_pik":
            return mdl.ZeroSumPiK(**kwargs)
        if name == "zero_sum_general":
            poles = [_as_complex(p) for p in section.get("poles", [])]
            if not poles:
                raise ConfigError("zero_sum_general needs a 'poles' list")
            kwargs.pop("c", None), kwargs.pop("alpha", None)
            return mdl.ZeroSumGeneral(_as_complex(section.get("constant", 1.0)), poles,
                                      lam=kwargs.get("lam", 1.5))
    except ValueError as exc:
        raise ConfigError(f"invalid {name} model: {exc}") from exc
    raise ConfigError(f"unknown model {name}")


def _write_rows(out: str | None, fmt: str, command: str, header: list[str], rows: list[list]):
    if fmt == "json":
        payload = {
            "command": command,
            "rows": [dict(zip(header, row)) for row in rows],
        }
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


def _run(ctx_json: bool, body: Callable[[], int]) -> int:
    try:
        return body()
    except ConfigError as exc:
        _emit_error(ctx_json, "config", exc)
        sys.exit(2)
    except MeandroError as exc:
        _emit_error(ctx_json, type(exc).__name__, exc)
        sys.exit(1)


def _emit_error(as_json: bool, kind: str, exc: Exception):
    # The stream is passed, not err=True: click caches a wrapper of each new
    # sys.stderr (and sys.stdout) keyed by that stream, and the wrapper of a
    # text stream is the stream itself, so a run in-process would keep every
    # stream it ever printed to.
    if as_json:
        click.echo(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    else:
        click.echo(f"error ({kind}): {exc}", file=sys.stderr)


_common = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--model", "model_name", default=None, help="Override the config model name."),
    click.option("--out", "out_path", default="-", help="Output path ('-' for stdout)."),
    click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv"),
    click.option("--tol", type=click.FloatRange(min=0, min_open=True), default=1e-10, show_default=True),
    click.option("--cutoff", type=click.IntRange(min=1), default=10_000, show_default=True),
    click.option("--json", "json_errors", is_flag=True, help="Machine-readable errors on stderr."),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Certified series summation, polar decomposition and Gevrey diagnostics."""


@main.command("eval")
@_with_common
def cmd_eval(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Evaluate the model sum on a point grid or along a ray."""

    def body() -> int:
        config = _load_config(config_path)
        model = _build_model(config, model_name)
        section = config.get("eval", {})
        header = ["z_re", "z_im", "S_re", "S_im", "tail_bound", "terms_used", "status"]
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
        _write_rows(out_path, out_format, "eval", header, rows)
        return 3 if flagged else 0

    sys.exit(_run(json_errors, body))


@main.command("jet")
@_with_common
def cmd_jet(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Taylor coefficients of the sum at a point."""

    def body() -> int:
        config = _load_config(config_path)
        model = _build_model(config, model_name)
        section = config.get("jet")
        if section is None:
            raise ConfigError("missing 'jet' section")
        z0 = _as_complex(section.get("z0", 0.0))
        jet = taylor_jet(model, z0, section["order"], rel_tol=min(tol, 1e-10), max_terms=cutoff)
        header = ["k", "a_re", "a_im", "tail_bound"]
        rows = [
            [k, jet.coefficients[k].real, jet.coefficients[k].imag, float(jet.coefficient_tails[k])]
            for k in range(jet.order + 1)
        ]
        _write_rows(out_path, out_format, "jet", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


@main.command("polar")
@_with_common
def cmd_polar(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Laurent coefficients of one sheet, or a fiber polar sum."""

    def body() -> int:
        config = _load_config(config_path)
        model = _build_model(config, model_name)
        section = config.get("polar")
        if section is None:
            raise ConfigError("missing 'polar' section")
        if section["mode"] == "laurent":
            for key in ("sheet", "center", "r"):
                if key not in section:
                    raise ConfigError(f"polar laurent mode needs '{key}'")
            sheet = section["sheet"]
            if sheet < model.n_min or (model.n_max is not None and sheet > model.n_max):
                span = f"from {model.n_min}" if model.n_max is None else f"{model.n_min} to {model.n_max}"
                raise ConfigError(f"the model has no sheet {sheet} (its sheets run {span})")
            k_min, k_max = section.get("k_min", -8), section.get("k_max", 8)
            if k_min > k_max:
                raise ConfigError(f"polar laurent needs k_min <= k_max, got {k_min} > {k_max}")
            ann = AnnulusSpec(_as_complex(section["center"]), section["r"], model.perforation.lam)
            expansion = laurent_coefficients(
                lambda zs: model.term_array(sheet, np.asarray(zs, dtype=complex)), ann, k_min=k_min, k_max=k_max
            )
            header = ["k", "c_re", "c_im"]
            rows = [
                [k, expansion.coefficient(k).real, expansion.coefficient(k).imag]
                for k in range(expansion.k_min, expansion.k_max + 1)
            ]
        else:
            for key in ("omega", "z"):
                if key not in section:
                    raise ConfigError(f"polar fiber mode needs '{key}'")
            om, z = _as_complex(section["omega"]), _as_complex(section["z"])
            try:
                res = fiber_polar_sum(model, om, z, tol=tol, sheet_limit=cutoff)
            except ValueError as exc:  # omega is no pole projection within the cutoff
                raise ConfigError(f"invalid polar fiber: {exc}") from exc
            header = ["omega_re", "omega_im", "z_re", "z_im", "S_re", "S_im", "tail_bound", "sheets_used"]
            rows = [[om.real, om.imag, z.real, z.imag, res.value.real, res.value.imag, res.tail_bound, res.terms_used]]
        _write_rows(out_path, out_format, "polar", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


@main.command("gevrey")
@_with_common
def cmd_gevrey(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Gevrey fit, divergence verdict and smallest-term sweep for a model jet."""

    def body() -> int:
        config = _load_config(config_path)
        model = _build_model(config, model_name)
        section = config.get("gevrey")
        if section is None:
            raise ConfigError("missing 'gevrey' section")
        z0 = _as_complex(section.get("z0", 0.0))
        jet = taylor_jet(model, z0, section["order"], rel_tol=min(tol, 1e-10), max_terms=cutoff)
        window = tuple(section.get("window", (5, section["order"])))
        fit = gevrey_fit(jet.coefficients, window=window)
        report = divergence_diagnostic(jet.coefficients)
        header = [
            "z_abs", "m", "T_re", "T_im", "S_re", "S_im", "abs_error",
            "fit_C", "fit_alpha", "fit_r2", "radius_estimate", "verdict",
        ]
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
        _write_rows(out_path, out_format, "gevrey", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


@main.command("curve")
@_with_common
def cmd_curve(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Real root branches of the truncated implicit meander equation."""

    def body() -> int:
        config = _load_config(config_path)
        section = config.get("curve")
        if section is None:
            raise ConfigError("missing 'curve' section")
        xs = np.linspace(
            section.get("x_start", 0.0), section.get("x_stop", 0.9), section.get("x_count", 19)
        )
        data = mdl.meander_curve(section["n"], xs)
        header = ["x", "branch", "z"]
        rows = [[x, i, root] for x, roots in data for i, root in enumerate(roots)]
        _write_rows(out_path, out_format, "curve", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


@main.command("residual")
@_with_common
def cmd_residual(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Residual-set membership verdicts over a grid."""

    def body() -> int:
        config = _load_config(config_path)
        if "perforation" not in config:
            raise ConfigError("missing 'perforation' section")
        perf = _build_perforation(config["perforation"])  # _load_config validated it
        section = config.get("residual")
        if section is None:
            raise ConfigError("missing 'residual' section")
        g = section["grid"]
        margin = section.get("margin", 0.0)
        res = np.linspace(g["re_start"], g["re_stop"], g["re_count"])
        ims = np.linspace(g["im_start"], g["im_stop"], g["im_count"])
        points = [complex(a, b) for b in ims for a in res]
        rows = []
        for z, verdict in zip(points, residual_memberships(perf, points, cutoff=cutoff, margin=margin)):
            if isinstance(verdict, MeandroError):
                raise verdict
            pole = verdict.pole
            rows.append([
                z.real, z.imag, verdict.state.value,
                verdict.sheet,
                pole.real if pole is not None else None,
                pole.imag if pole is not None else None,
            ])
        header = ["z_re", "z_im", "status", "witness_sheet", "pole_re", "pole_im"]
        _write_rows(out_path, out_format, "residual", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


@main.command("covering")
@_with_common
def cmd_covering(config_path, model_name, out_path, out_format, tol, cutoff, json_errors):
    """Inclusion-check sweep for the ramified covering."""

    def body() -> int:
        config = _load_config(config_path)
        section = config.get("covering", {})
        alphas = section.get("alphas", [2, 3])
        radii = section.get("radii", [1e-2, 1e-3])
        moduli = section.get("moduli", [0.2, 0.5, 0.9, 1.0])
        angles = section.get("angles", 360)
        phase = section.get("phase", 0.0)
        cases = [(a, r, mod) for a in alphas for r in radii for mod in moduli]

        def one(case) -> list:
            a, r, mod = case
            omega = mod * cmath.exp(1j * phase)
            s, rho = induced_radii(r, a)
            try:
                rep = inclusion_check(omega, r, a, angles)
                return [a, r, mod, s, rho, rep.margin_preimage, rep.margin_image,
                        "pass" if rep.passed else "fail"]
            except HypothesisViolated as exc:
                return [a, r, mod, s, rho, None, None, f"hypothesis_violated:{exc}"]

        rows = [one(case) for case in cases]
        header = ["alpha", "r", "omega_abs", "s", "rho", "margin_preimage", "margin_image", "status"]
        _write_rows(out_path, out_format, "covering", header, rows)
        return 0

    sys.exit(_run(json_errors, body))


if __name__ == "__main__":
    main()
