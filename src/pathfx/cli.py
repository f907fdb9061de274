"""Command-line interface: ``simulate``, ``estimate``, and ``oracle``.

Exit codes: 0 success, 1 data or runtime failure, 2 argument/config error,
3 estimation-contract violation.  Every command takes ``--seed`` and is
end-to-end deterministic given it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, replace

from .core import (
    DataError,
    Dataset,
    DesignSpec,
    TreatmentPair,
    read_csv,
    recode_pair,
)
from .estimators import (
    BETA_FUNCS,
    BETA_KINDS,
    DEFAULT_DELTA_FOR,
    DELTA_FUNCS,
    DELTA_KINDS,
    EstimateResult,
    EstimationError,
    beta_mr_sequential,
    combine_effect,
    weight_diagnostics,
)
from .glm import Family, GlmError
from .inference import BootstrapSpec, InferenceError, bootstrap
from .nuisance import (
    DEFAULT_CLIP,
    ROLE_MARGINAL,
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1,
    ROLE_PROP_C1_IN_M_RATIO,
    ROLE_PROP_M,
    ModelSpec,
    NuisanceError,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    compute_components,
    fit_nuisances,
)
from .simulation import (
    REGIMES,
    SimulationError,
    SimulationSpec,
    oracle_beta0_mc,
    oracle_delta0_mc,
    run_monte_carlo,
    write_replicates_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3

_FAMILIES = {
    "gaussian": Family.GAUSSIAN,
    "logit": Family.LOGIT,
    "probit": Family.PROBIT,
}

_SCALES = {"diff": "mean_difference", "logrr": "log_risk_ratio"}

_CONFIG_ROLES = (
    ROLE_OUTCOME,
    ROLE_MEDIATOR,
    ROLE_PROP_BASE,
    ROLE_PROP_C1,
    ROLE_PROP_M,
    ROLE_MARGINAL,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1_IN_M_RATIO,
)


class UsageError(ValueError):
    """Configuration problems that map to exit code 2."""


def _fmt(v: float) -> str:
    return "%.10g" % v


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("PATHFX_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"PATHFX_THREADS={env!r} is not an integer") from None
    return 1


# ---------------------------------------------------------------------------
# estimate configuration


@dataclass
class EstimateConfig:
    working_set: WorkingModelSet
    pathway: str = "linear"
    scale: str = "mean_difference"
    stabilize: StabilizeFlags = StabilizeFlags(m_ratio=True, c1_ratio=True)
    clip: tuple[float, float] | None = DEFAULT_CLIP


def default_working_set(d0: int, d1: int) -> WorkingModelSet:
    """Main-effects working models, with the treatment-by-mediator interaction
    in the outcome.  A starting point to inspect (``--print-models``), not to
    trust silently."""
    c0s = ", ".join(f"c0_{j}" for j in range(1, d0 + 1))
    c1s = ", ".join(f"c1_{j}" for j in range(1, d1 + 1))
    models = {
        ROLE_OUTCOME: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e, {c1s}, m, e*m")),
        ROLE_MEDIATOR: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e, {c1s}")),
        ROLE_PROP_BASE: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}")),
        ROLE_PROP_C1: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}, {c1s}")),
        ROLE_PROP_M: ModelSpec(Family.LOGIT, DesignSpec.parse(f"1, {c0s}, {c1s}, m")),
        ROLE_MARGINAL: ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e")),
    }
    for j in range(1, d1 + 1):
        models[c1_mean_role(j)] = ModelSpec(Family.GAUSSIAN, DesignSpec.parse(f"1, {c0s}, e"))
    return WorkingModelSet(models)


def _parse_model_line(role: str, text: str) -> ModelSpec:
    family_name, sep, terms = text.partition(":")
    if not sep:
        raise UsageError(f"model {role!r}: expected 'family: term, term, ...', got {text!r}")
    family_name = family_name.strip().lower()
    if family_name not in _FAMILIES:
        raise UsageError(f"model {role!r}: unknown family {family_name!r}")
    try:
        design = DesignSpec.parse(terms)
    except DataError as exc:
        raise UsageError(f"model {role!r}: {exc}") from exc
    return ModelSpec(_FAMILIES[family_name], design)


def load_config_file(path, d0: int, d1: int, base: EstimateConfig) -> EstimateConfig:
    """Merge a sectioned ``key = value`` config file over the defaults.

    Section ``[models]`` holds ``role = family: term, ...`` lines; section
    ``[estimate]`` holds ``scale``, ``pathway``, ``stabilize`` (comma list of
    base, m_ratio, c1_ratio, or all/none), and ``clip``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    cfg = base
    if parser.has_section("models"):
        models = dict(cfg.working_set.models)
        for role, text in parser.items("models"):
            role = role.strip()
            if role not in _CONFIG_ROLES and not role.startswith("c1_mean_"):
                raise UsageError(f"config: unknown model role {role!r}")
            models[role] = _parse_model_line(role, text)
        cfg = replace(cfg, working_set=WorkingModelSet(models))
    if parser.has_section("estimate"):
        section = parser["estimate"]
        if "scale" in section:
            cfg = replace(cfg, scale=_parse_scale(section["scale"]))
        if "pathway" in section:
            pathway = section["pathway"].strip()
            if pathway not in ("linear", "discrete"):
                raise UsageError(f"config: unknown pathway {pathway!r}")
            cfg = replace(cfg, pathway=pathway)
        if "stabilize" in section:
            cfg = replace(cfg, stabilize=_parse_stabilize(section["stabilize"]))
        if "clip" in section:
            cfg = replace(cfg, clip=_parse_clip(section["clip"]))
    return cfg


def _parse_scale(text: str) -> str:
    text = text.strip().lower()
    if text not in _SCALES:
        raise UsageError(f"unknown scale {text!r}; expected diff or logrr")
    return _SCALES[text]


def _parse_stabilize(text: str) -> StabilizeFlags:
    text = text.strip().lower()
    if text in ("none", ""):
        return StabilizeFlags.all_off()
    if text == "all":
        return StabilizeFlags.all_on()
    parts = {p.strip() for p in text.split(",") if p.strip()}
    unknown = parts - {"base", "m_ratio", "c1_ratio"}
    if unknown:
        raise UsageError(f"unknown stabilization role(s) {sorted(unknown)}")
    return StabilizeFlags(base="base" in parts, m_ratio="m_ratio" in parts, c1_ratio="c1_ratio" in parts)


def _parse_clip(text: str) -> tuple[float, float] | None:
    text = text.strip().lower()
    if text in ("none", "off"):
        return None
    try:
        eps = float(text)
    except ValueError:
        raise UsageError(f"clip must be a probability floor or 'none', got {text!r}") from None
    if not 0.0 < eps < 0.5:
        raise UsageError("clip floor must lie in (0, 0.5)")
    return (eps, 1.0 - eps)


# ---------------------------------------------------------------------------
# estimate command


def _estimates(ds, coding, cfg: EstimateConfig, pairs, weights=None):
    """(beta, delta, effect) of each (estimator, delta estimator) pair, all from
    one fit of the working models, and the components of that fit."""
    fits = fit_nuisances(ds, cfg.working_set, coding, weights=weights, pathway=cfg.pathway)
    comp = compute_components(ds, fits, stabilize=cfg.stabilize, clip=cfg.clip, weights=weights)
    out = []
    for kind, delta_kind in pairs:
        if kind == "mr_seq":
            beta = beta_mr_sequential(ds, cfg.working_set, coding, stabilize=cfg.stabilize,
                                      clip=cfg.clip, weights=weights, comp=comp).value
        else:
            beta = BETA_FUNCS[kind](ds, comp, weights)
        delta = DELTA_FUNCS[delta_kind](ds, comp, weights)
        out.append((beta, delta, combine_effect(beta, delta, cfg.scale)))
    return out, comp


def cmd_estimate(args) -> int:
    dataset = read_csv(args.data, ignore_extra=args.ignore_extra)
    pair = TreatmentPair(comparison=args.comparison, baseline=args.baseline)
    if pair.is_identity and not args.identity_check:
        raise UsageError(
            "comparison equals baseline; pass --identity-check if this is intentional"
        )
    cfg = EstimateConfig(working_set=default_working_set(dataset.d0, dataset.d1))
    if args.config:
        cfg = load_config_file(args.config, dataset.d0, dataset.d1, cfg)
    if args.scale:
        cfg = replace(cfg, scale=_parse_scale(args.scale))
    if args.pathway:
        cfg = replace(cfg, pathway=args.pathway)
    if args.stabilize is not None:
        cfg = replace(cfg, stabilize=_parse_stabilize(args.stabilize))
    if args.clip is not None:
        cfg = replace(cfg, clip=_parse_clip(args.clip))

    kinds = [k.strip() for k in args.estimator.split(",") if k.strip()]
    for k in kinds:
        if k not in BETA_KINDS:
            raise UsageError(f"unknown estimator {k!r}; expected one of {BETA_KINDS}")
    if args.delta and args.delta not in DELTA_KINDS:
        raise UsageError(f"unknown delta estimator {args.delta!r}")

    if args.print_models:
        for role in sorted(cfg.working_set.roles()):
            spec = cfg.working_set[role]
            fam = {v: k for k, v in _FAMILIES.items()}[spec.family]
            print(f"{role} = {fam}: {', '.join(spec.design.labels)}")
        return EXIT_OK

    ds, coding = recode_pair(dataset, pair, allow_identity=args.identity_check)
    threads = _threads(args)
    pairs = [(kind, args.delta or DEFAULT_DELTA_FOR[kind]) for kind in kinds]
    estimates, comp = _estimates(ds, coding, cfg, pairs)
    diagnostics = weight_diagnostics(comp)
    results = [
        EstimateResult(
            kind=kind,
            delta_kind=delta_kind,
            scale=cfg.scale,
            pair=pair,
            beta_hat=beta,
            delta_hat=delta,
            effect=effect,
            n_used=ds.n,
            diagnostics=diagnostics,
        )
        for (kind, delta_kind), (beta, delta, effect) in zip(pairs, estimates)
    ]
    if args.bootstrap != "none":
        spec = BootstrapSpec(
            kind=args.bootstrap, replicates=args.reps, seed=args.seed, ci_level=args.ci_level
        )

        def statistic(data: Dataset, weights):
            return [effect for _, _, effect in _estimates(data, coding, cfg, pairs, weights)[0]]

        point = [effect for _, _, effect in estimates]
        interval = bootstrap(ds, statistic, spec, threads=threads, point=point)
        if interval.errors:
            print(
                f"bootstrap: {interval.n_failed} of {spec.replicates} replicates failed; "
                f"first: {interval.errors[0]}",
                file=sys.stderr,
            )
        for k, result in enumerate(results):
            result.ci_lower = float(interval.lower[k])
            result.ci_upper = float(interval.upper[k])
            result.se = float(interval.se[k])

    _print_estimates(results)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_estimates_csv(results, os.path.join(args.out, "estimates.csv"))
    return EXIT_OK


def _estimate_fields(r: EstimateResult) -> list[str]:
    return [
        r.kind,
        r.delta_kind,
        {"mean_difference": "diff", "log_risk_ratio": "logrr"}[r.scale],
        str(r.pair.comparison),
        str(r.pair.baseline),
        _fmt(r.beta_hat),
        _fmt(r.delta_hat),
        _fmt(r.effect),
        _fmt(r.ci_lower) if r.ci_lower is not None else "",
        _fmt(r.ci_upper) if r.ci_upper is not None else "",
        _fmt(r.se) if r.se is not None else "",
        str(r.n_used),
        _fmt(r.diagnostics.get("max_weight_baseline", float("nan"))),
        str(r.diagnostics.get("clip_count", 0)),
    ]


_ESTIMATE_HEADER = [
    "estimator", "delta_estimator", "scale", "comparison", "baseline",
    "beta_hat", "delta_hat", "effect", "ci_lower", "ci_upper", "se",
    "n_used", "max_weight_baseline", "clip_count",
]


def _print_estimates(results: list[EstimateResult]) -> None:
    rows = [_estimate_fields(r) for r in results]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(_ESTIMATE_HEADER)]
    print("  ".join(h.ljust(w) for h, w in zip(_ESTIMATE_HEADER, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def _write_estimates_csv(results: list[EstimateResult], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ESTIMATE_HEADER)
        for r in results:
            writer.writerow(_estimate_fields(r))


# ---------------------------------------------------------------------------
# simulate command


def cmd_simulate(args) -> int:
    reps = 1000 if args.paper_scale else args.reps
    spec = SimulationSpec(regime=args.regime, n=args.n, replications=reps,
                          seed=args.seed, alpha=args.alpha)
    estimators = tuple(k.strip() for k in args.estimators.split(",") if k.strip())
    stabilize = _parse_stabilize(args.stabilize) if args.stabilize is not None else None
    report = run_monte_carlo(spec, estimators=estimators, threads=_threads(args), stabilize=stabilize)

    header = ["estimator", "mc_mean", "mc_se", "ci_lower", "ci_upper", "t", "reject", "n_ok"]
    rows = [
        [s.kind, _fmt(s.mc_mean), _fmt(s.mc_se), _fmt(s.ci_lower), _fmt(s.ci_upper),
         _fmt(s.t), "yes" if s.reject else "no", str(s.n_ok)]
        for s in report.summaries
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print(f"regime={report.regime} n={report.n} reps={report.replications} "
          f"alpha={report.alpha} target={_fmt(report.hypothesized)}")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    write_replicates_csv(report, os.path.join(out, f"replicates_{report.regime}.csv"))
    write_summary_csv(report, os.path.join(out, f"summary_{report.regime}.csv"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle command


def cmd_oracle(args) -> int:
    if args.draws < 100_000:
        raise UsageError("oracle needs at least 1e5 draws for a stable answer")
    beta = oracle_beta0_mc(args.draws, args.seed)
    delta = oracle_delta0_mc(args.draws, args.seed)
    effect_se = (beta.se**2 + delta.se**2) ** 0.5
    print(f"beta0   {_fmt(beta.value)} (mc se {_fmt(beta.se)})")
    print(f"delta0  {_fmt(delta.value)} (mc se {_fmt(delta.se)})")
    print(f"effect  {_fmt(beta.value - delta.value)} (mc se {_fmt(effect_se)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathfx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic misspecification study")
    sim.add_argument("--regime", required=True, choices=REGIMES)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--paper-scale", action="store_true", help="use 1000 replications")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--estimators", default="mle,a,b,mr")
    sim.add_argument("--stabilize", default=None,
                     help="stabilization roles (comma list of base, m_ratio, c1_ratio; or all/none)")
    sim.add_argument("--out", default=None)
    sim.add_argument("--threads", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the effect from a CSV file")
    est.add_argument("--data", required=True)
    est.add_argument("--comparison", type=int, required=True)
    est.add_argument("--baseline", type=int, required=True)
    est.add_argument("--estimator", default="mr")
    est.add_argument("--delta", default=None, help="override the paired baseline-mean estimator")
    est.add_argument("--scale", default=None, choices=["diff", "logrr"])
    est.add_argument("--pathway", default=None, choices=["linear", "discrete"])
    est.add_argument("--stabilize", default=None)
    est.add_argument("--clip", default=None)
    est.add_argument("--bootstrap", default="none", choices=["none", "nonparametric", "wild_exp1"])
    est.add_argument("--reps", type=int, default=200)
    est.add_argument("--ci-level", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--config", default=None)
    est.add_argument("--identity-check", action="store_true")
    est.add_argument("--ignore-extra", action="store_true")
    est.add_argument("--print-models", action="store_true")
    est.add_argument("--out", default=None)
    est.add_argument("--threads", type=int, default=None)
    est.set_defaults(func=cmd_estimate)

    orc = sub.add_parser("oracle", help="print the target values by counterfactual simulation")
    orc.add_argument("--draws", type=int, required=True)
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (NuisanceError, GlmError, InferenceError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
