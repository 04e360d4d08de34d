"""Command-line front end.

Subcommands: norms, bound, sample, verify, discrete.  Each reads a single
JSON config file (--config) with strict schema validation (unknown keys
rejected) plus flag overrides (--seed, --samples, --delta, --out,
--format).  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bd
from . import calculus as cal
from . import discrete as dc
from . import samplers as sm
from . import tensor as tn
from . import verify as vf

SCHEMA_VERSION = "1"


class ConfigError(Exception):
    pass


def _check_keys(cfg, allowed, required=()):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _emit(text, out):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(spec):
    if isinstance(spec, list):
        return [float(t) for t in spec]
    _check_keys(spec, {"start", "stop", "step"}, {"start", "stop", "step"})
    return [
        float(t)
        for t in np.arange(spec["start"], spec["stop"] + spec["step"] / 2, spec["step"])
    ]


def _setting(spec):
    _check_keys(
        spec,
        {"tag", "d", "n", "k", "p", "sigma2", "sigma_q", "r0", "L", "sigma", "gamma"},
        {"tag"},
    )
    spec = dict(spec)
    tag = spec.pop("tag")
    d = int(spec.pop("d", 1))
    try:
        if tag == "custom":
            return bd.Setting(d=d, tag=tag, **spec)
        return bd.setting_catalog(tag, d=d, **spec)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _space(spec):
    if "ising" in spec:
        _check_keys(spec, {"ising"})
        ising = spec["ising"]
        _check_keys(ising, {"n", "edges", "fields", "beta"}, {"n", "edges"})
        return dc.ising_space(
            int(ising["n"]),
            [tuple(e) for e in ising["edges"]],
            ising.get("fields"),
            ising.get("beta", 1.0),
        )
    if "uniform_cube" in spec:
        _check_keys(spec, {"uniform_cube"})
        return dc.uniform_cube(int(spec["uniform_cube"]))
    _check_keys(spec, {"alphabets", "joint"}, {"alphabets", "joint"})
    return dc.FiniteProductSpace(spec["alphabets"], np.array(spec["joint"]))


def _function(spec):
    _check_keys(spec, {"nvars", "monomials", "quadratic", "linear"})
    if "quadratic" in spec:
        return cal.PolyFunction.quadratic_form(np.array(spec["quadratic"]))
    if "linear" in spec:
        return cal.PolyFunction.linear(np.array(spec["linear"]))
    return cal.PolyFunction.from_json(spec)


# ---------------------------------------------------------------------------
# subcommands


def cmd_norms(cfg):
    _check_keys(cfg, {"tensor", "function", "point", "orders", "q", "out", "format"})
    q = float(cfg.get("q", 2.0))
    if not (1.0 <= q <= 2.0):
        raise ConfigError("q must lie in [1, 2]")
    rows = []
    if "tensor" in cfg:
        T = tn.SymTensor.from_json(cfg["tensor"])
        rows.append(
            {"order": T.order, "hs": tn.hs_norm(T), "op": tn.op_norm(T, q).value}
        )
    else:
        f = _function(cfg["function"])
        point = np.array(cfg.get("point", [0.0] * f.nvars), dtype=float)
        for order in cfg.get("orders", [1]):
            T = cal.derivative_tensor(f, int(order), point)
            rows.append(
                {"order": int(order), "hs": tn.hs_norm(T), "op": tn.op_norm(T, q).value}
            )
    fmt = cfg.get("format", "json")
    if fmt == "csv":
        text = "order,hs,op\n" + "".join(
            f"{r['order']},{r['hs']!r},{r['op']!r}\n" for r in rows
        )
    else:
        text = json.dumps({"schema_version": SCHEMA_VERSION, "norms": rows}, indent=2) + "\n"
    _emit(text, cfg.get("out"))
    return 0


def cmd_bound(cfg):
    _check_keys(
        cfg,
        {"setting", "K", "grid", "kind", "hs", "op", "EW", "a", "b", "sigma2", "out", "format"},
        {"grid"},
    )
    grid = _grid(cfg["grid"])
    kind = cfg.get("kind", "tail")
    if kind == "tail":
        s = _setting(cfg["setting"])
        K = bd.LevelCoefficients(cfg["K"])
        curve = [bd.tail_bound(s, K, t) for t in grid]
    elif kind == "hw":
        s = _setting(cfg["setting"])
        curve = [bd.hw_bound(s, float(cfg["hs"]), float(cfg["op"]), t) for t in grid]
    elif kind == "chaos":
        curve = [
            bd.chaos_sup_bound(
                cfg["EW"], float(cfg["a"]), float(cfg["b"]), float(cfg["sigma2"]), t
            )
            for t in grid
        ]
    else:
        raise ConfigError(f"unknown bound kind: {kind}")
    fmt = cfg.get("format", "csv")
    if fmt == "json":
        text = (
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "grid": grid, "bound": curve},
                indent=2,
            )
            + "\n"
        )
    else:
        text = "t,bound\n" + "".join(f"{t!r},{b!r}\n" for t, b in zip(grid, curve))
    _emit(text, cfg.get("out"))
    return 0


_MEASURES = {
    "gaussian": lambda m, count, seed: sm.sample_gaussian(int(m["n"]), count, seed),
    "pgen": lambda m, count, seed: sm.sample_pgen(float(m["p"]), int(m["n"]), count, seed),
    "sphere": lambda m, count, seed: sm.sample_sphere(int(m["n"]), count, seed),
    "cone_lp": lambda m, count, seed: sm.sample_cone_lp(
        float(m["p"]), int(m["n"]), count, seed
    ),
    "stiefel": lambda m, count, seed: sm.sample_stiefel(
        int(m["n"]), int(m["k"]), count, seed
    ),
    "grassmann": lambda m, count, seed: sm.sample_grassmann(
        int(m["n"]), int(m["k"]), count, seed
    ),
}


def _batch(measure, count, seed):
    _check_keys(measure, {"tag", "n", "k", "p", "space"}, {"tag"})
    tag = measure["tag"]
    if tag == "finite":
        return sm.sample_finite(_space(measure["space"]), count, seed)
    if tag not in _MEASURES:
        raise ConfigError(f"unknown measure tag: {tag}")
    return _MEASURES[tag](measure, count, seed)


def cmd_sample(cfg):
    _check_keys(
        cfg, {"measure", "count", "seed", "out", "format"}, {"measure", "count", "out"}
    )
    fmt = cfg.get("format", "csv")
    batch = _batch(cfg["measure"], int(cfg["count"]), int(cfg.get("seed", 0)))
    if fmt == "binary":
        batch.to_binary(cfg["out"])
    elif fmt == "csv":
        batch.to_csv(cfg["out"])
    else:
        raise ConfigError("sample format must be 'csv' or 'binary'")
    return 0


def cmd_verify(cfg):
    _check_keys(
        cfg,
        {
            "kind",
            "measure",
            "space",
            "function",
            "setting",
            "K",
            "grid",
            "samples",
            "seed",
            "delta",
            "sigma2",
            "budget",
            "r_values",
            "out",
            "format",
        },
        {"kind"},
    )
    kind = cfg["kind"]
    delta = float(cfg.get("delta", 0.01))
    if not (0.0 < delta < 1.0):
        raise ConfigError("delta must lie in (0, 1)")
    seed = int(cfg.get("seed", 0))
    if kind == "tail":
        s = _setting(cfg["setting"])
        f = _function(cfg["function"])
        grid = _grid(cfg["grid"])
        if "space" in cfg:
            source = _space(cfg["space"])
            K = (
                bd.LevelCoefficients(cfg["K"])
                if "K" in cfg
                else vf.discrete_level_coefficients(
                    lambda x: f.eval(x), source, s.d
                )
            )
        else:
            source = _batch(cfg["measure"], int(cfg.get("samples", 100000)), seed)
            K = (
                bd.LevelCoefficients(cfg["K"])
                if "K" in cfg
                else vf.polynomial_level_coefficients(f, source, s.d)
            )
        report = vf.verify_tail(source, f, s, K, grid, delta)
        fmt = cfg.get("format", "json")
        text = report.to_csv() if fmt == "csv" else report.to_json() + "\n"
        _emit(text, cfg.get("out"))
        return 0 if report.passed else 1
    if kind == "dlsi":
        space = _space(cfg["space"])
        if "sigma2" in cfg:
            sigma2 = float(cfg["sigma2"])
        else:
            sigma2, _ = dc.dlsi_constant(dc.dependence_profile(space))
        ratio, ok = vf.verify_dlsi(
            space, sigma2, search_budget=int(cfg.get("budget", 5)), seed=seed
        )
        text = (
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "sigma2_claimed": sigma2,
                    "max_ratio_found": ratio,
                    "passed": ok,
                },
                indent=2,
            )
            + "\n"
        )
        _emit(text, cfg.get("out"))
        return 0 if ok else 1
    if kind == "exp_moment":
        space = _space(cfg["space"])
        s = _setting(cfg["setting"])
        f = _function(cfg["function"])
        K = bd.LevelCoefficients(cfg["K"])
        cert = bd.exp_moment_certificate(s, K)
        value, ok = vf.verify_exp_moment(space, lambda x: f.eval(x), cert)
        text = (
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "exponent": cert[0],
                    "coefficient": cert[1],
                    "normalized": cert[2],
                    "integral": value,
                    "passed": ok,
                },
                indent=2,
            )
            + "\n"
        )
        _emit(text, cfg.get("out"))
        return 0 if ok else 1
    raise ConfigError(f"unknown verify kind: {kind}")


def cmd_discrete(cfg):
    _check_keys(cfg, {"space", "function", "point", "out", "format"}, {"space"})
    space = _space(cfg["space"])
    profile = dc.dependence_profile(space)
    result = {
        "schema_version": SCHEMA_VERSION,
        "n": space.n,
        "is_product": space.is_product,
        "J": profile.J.tolist(),
        "beta_tilde": profile.beta_tilde,
        "J_opnorm": profile.J_opnorm,
        "alpha1": profile.alpha1,
        "alpha2": profile.alpha2,
    }
    if profile.J_opnorm < 1.0:
        sigma2, at_const = dc.dlsi_constant(profile)
        result["dlsi_sigma2"] = sigma2
        result["at_constant"] = at_const
    if "function" in cfg:
        f = _function(cfg["function"])
        x = tuple(int(v) for v in cfg.get("point", (0,) * space.n))
        table = dc.value_table(lambda y: f.eval(y), space)
        hs = [dc.h_ops(table, space, x, i) for i in range(space.n)]
        result["h"] = [h[0] for h in hs]
        result["h_plus"] = [h[1] for h in hs]
        result["h_minus"] = [h[2] for h in hs]
        result["d"] = dc.d_operator(table, space, x).tolist()
    fmt = cfg.get("format", "json")
    if fmt == "csv":
        lines = ["i,j,J"]
        for i in range(space.n):
            for j in range(space.n):
                lines.append(f"{i},{j},{profile.J[i, j]!r}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(result, indent=2) + "\n"
    _emit(text, cfg.get("out"))
    return 0


_COMMANDS = {
    "norms": cmd_norms,
    "bound": cmd_bound,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "discrete": cmd_discrete,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conclab",
        description="Multilevel concentration bounds: norms, curves, samples, checks.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--out")
        p.add_argument("--format", choices=["csv", "json"])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config)
        for key in ("seed", "samples", "delta", "out", "format"):
            val = getattr(args, key)
            if val is not None:
                cfg[key] = val
        return _COMMANDS[args.command](cfg)
    except (ConfigError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
