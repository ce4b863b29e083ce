"""Command-line front end: simulate, profile, attack, analyze, report.

Every command is deterministic given its flags; all randomness flows from
the --seed value. Output files are written atomically. Settings come only
from flags, spelled in full; simulate and profile render on every core
the process may use (taskset caps them). Exit codes: 0 on success, 1
when an attack ran to completion but ground truth shows at least one key
was not fully recovered, 2 on usage errors, invalid inputs, I/O errors,
or an input too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

import numpy as np

from . import cpa, leakage, recover, sampler, template, traceio
from .errors import CdtLeakError, DomainError, LayoutMismatch, TraceFormatError

_PCT = "{:.12g}%"


def _fmt_pct(p: float) -> str:
    return _PCT.format(100.0 * p)


def _add_common(sub) -> None:
    """Flags of the commands that sample keys and render traces."""
    sub.add_argument("--seed", type=int, default=1, help="master 64-bit seed")
    sub.add_argument("--logn", type=int, default=9, help="ring dimension exponent")
    sub.add_argument("--table", type=str, default=None, help="CDT table file")


def _add_model_flags(sub) -> None:
    """One flag per LeakModel field; the trace geometry is TraceLayout's, not a flag's."""
    for f in dataclasses.fields(leakage.LeakModel):
        sub.add_argument("--" + f.name.replace("_", "-"), type=traceio.CODECS[f.type][1],
                         default=f.default, help=f.metadata.get("help"))


def _table_from(args) -> sampler.GaussCdtTable:
    if args.table is None:
        return sampler.default_table()
    return sampler.load_cdt_table(args.table)


def _setup_from(args):
    tab = _table_from(args)
    params = sampler.SamplerParams(logn=args.logn)
    model = leakage.LeakModel(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(leakage.LeakModel)})
    return tab, params, model, leakage.TraceLayout.for_params(params, tab)


def cmd_simulate(args) -> int:
    tab, params, model, layout = _setup_from(args)
    parts = leakage.campaign_parts(args.seed, params, tab, args.keys)
    md = leakage.campaign_metadata(args.seed, params, model, layout, args.keys)
    n_traces = args.keys * 2 * params.n
    with traceio.staged_files(args.out + ".trc", args.out + ".lbl") as (trc, lbl):
        traces = traceio.TraceWriter(trc, n_traces, layout.trace_length, md)
        labels = traceio.LabelWriter(lbl, n_traces, layout.outer_count, layout.inner_count)
        for part, samples in leakage.render_blocks(parts, model, layout):
            traces.write(samples)
            labels.write(part)
        traces.finish()
        labels.finish()
    print(f"simulated {n_traces} traces of {layout.trace_length} samples")
    print(f"keys: {args.keys} (n={params.n}, f and g)")
    print(f"wrote {args.out}.trc")
    print(f"wrote {args.out}.lbl")
    return 0


def cmd_profile(args) -> int:
    tab, params, model, layout = _setup_from(args)
    parts = leakage.profiling_parts(args.seed, params, tab, args.traces)
    blocks = leakage.render_blocks(parts, model, layout)
    # Each point and its column of the site matrix, in the order of the
    # planted classes: the inner class latches at slot 1. The class bits
    # are the hypotheses: a correlation does not change with the scale
    # of one, so they stand for the weights 0 and 64.
    points = (("inner", 0), ("neg", -1))
    classes = leakage.profiling_classes(args.traces)
    # Each chunk is checked as simulate checks it, before it reaches the moments.
    corrs = cpa.correlation_traces((traceio.check_finite(s) for _, s in blocks), classes)
    pois = [cpa.find_poi(corr) for corr in corrs]
    # Only the POI columns are rendered again, from labels drawn afresh:
    # point i's is column i, and its template is fitted on it and then
    # keeps its sample index.
    parts = leakage.profiling_parts(args.seed, params, tab, args.traces)
    blocks = leakage.render_blocks(parts, model, layout, np.array(pois))
    columns = np.concatenate([samples for _, samples in blocks])
    tpls = [dataclasses.replace(template.build_template(columns, c, i), poi=poi)
            for i, (c, poi) in enumerate(zip(classes, pois))]
    paths = [f"{args.out}.{name}.tpl" for name, _ in points]
    # Both files are renamed into place together, or neither is.
    with traceio.staged_files(*paths) as handles:
        for fh, tpl in zip(handles, tpls):
            fh.write(template.encode_template(tpl))
    sites = layout.site_matrix()
    for (name, col), corr, tpl, path in zip(points, corrs, tpls, paths):
        print(f"{name} poi: {tpl.poi}")
        print(f"{name} expected leak site: {sites[0, col]}")
        print(f"{name} peak corr: {corr[tpl.poi]:.6f}")
        print(f"wrote {path}")
    return 0


def cmd_attack(args) -> int:
    with contextlib.ExitStack() as stack:
        reader = stack.enter_context(traceio.open_trace_set(args.inp + ".trc"))
        params, layout, _, n_keys = leakage.campaign_from_metadata(reader.metadata)
        needed = n_keys * 2 * params.n
        if needed != reader.n_traces:
            raise TraceFormatError(f"campaign metadata: n_keys={n_keys} needs {needed} traces, "
                                   f"the file has {reader.n_traces}")
        labels = None
        if os.path.exists(args.inp + ".lbl"):
            labels = stack.enter_context(traceio.open_label_set(args.inp + ".lbl"))
        paths = [f"{args.templates}.{point}.tpl" for point in ("inner", "neg")]
        templates = [template.load_template(path) for path in paths]
        for path, tpl in zip(paths, templates):
            if tpl.poi >= reader.n_samples:
                raise LayoutMismatch(f"{path}: POI {tpl.poi} lies outside the traces of "
                                     f"{reader.n_samples} samples")
        report = recover.recover_key(reader, *templates, layout, params, labels)
    out = args.out if args.out else args.inp
    recover.save_report(report, out + ".report.txt")
    print(f"classified {report.inner_sites_total} inner and {report.neg_sites_total} sign sites")
    print(f"anomalous outer iterations: {report.anomalous_outer_iterations}")
    print(f"predicted per-coefficient success: {_fmt_pct(report.p_coefficient)}")
    print(f"predicted full-key success: {_fmt_pct(report.p_full_key)}")
    if report.has_labels:
        print(
            f"coefficients correct: {report.coefficients_correct}/{report.coefficients_total}"
        )
        print(f"keys recovered: {report.keys_recovered}/{report.n_keys}")
    else:
        print("no ground truth labels; empirical accuracy unavailable")
    print(f"wrote {out}.report.txt")
    return 1 if report.has_labels and not report.fully_recovered() else 0


def cmd_analyze(args) -> int:
    # (per-site success, overlap area) of each attack point.
    sites = {}
    for point, role in (("inner", "inner"), ("neg", "sign")):
        p = getattr(args, f"p_{point}")
        if p is not None:
            # Success is 1 - A/2 for an overlap area A in [0, 1].
            if not 0.5 <= p <= 1.0:
                raise DomainError(f"--p-{point} must lie in [0.5, 1], got {p!r}")
            sites[point] = (p, 2.0 * (1.0 - p))
        elif args.templates:
            path = f"{args.templates}.{point}.tpl"
            sites[point] = recover.site_success(template.load_template(path))
        else:
            raise DomainError(f"need --p-{point} or a template for the {role} attack point")

    p_coeff = template.per_coefficient_success(
        sites["inner"][0], sites["neg"][0], args.inner, args.outer
    )
    lines = [
        f"overlap {point} area: {area!r} (fraction of total: {0.5 * area!r})"
        for point, (_, area) in sites.items()
    ]
    lines += [f"per-site success {point}: {_fmt_pct(p)}" for point, (p, _) in sites.items()]
    lines.append(f"per-coefficient success: {_fmt_pct(p_coeff)}")
    for n in [args.n] if args.n is not None else [512, 1024]:
        lines.append(f"full-key success (n={n}): {_fmt_pct(template.full_key_success(p_coeff, n))}")
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    report = recover.load_report(args.path)
    print(f"keys: {report.n_keys} (n={report.n}, {report.poly_count} polynomials each)")
    print(f"sites: {report.inner_sites_total} inner, {report.neg_sites_total} sign")
    print(f"anomalous outer iterations: {report.anomalous_outer_iterations}")
    print(f"predicted per-site success inner: {_fmt_pct(report.p_site_inner)}")
    print(f"predicted per-site success neg: {_fmt_pct(report.p_site_neg)}")
    print(f"predicted per-coefficient success: {_fmt_pct(report.p_coefficient)}")
    print(f"predicted full-key success: {_fmt_pct(report.p_full_key)}")
    if report.has_labels:
        print(f"site errors: {report.inner_site_errors} inner, {report.neg_site_errors} sign")
        print(
            f"coefficients correct: {report.coefficients_correct}/{report.coefficients_total}"
        )
        print(f"keys recovered: {report.keys_recovered}/{report.n_keys}")
    else:
        print("no ground truth labels recorded")
    return 0


@functools.cache
def _build_parser():
    # Flags are spelled in full: an abbreviation could silently name another flag.
    parser = argparse.ArgumentParser(
        prog="cdtleak",
        description="Simulate and attack the mask leakage of a CDT Gaussian sampler.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        sub = subs.add_parser(name, help=summary, allow_abbrev=False)
        sub.set_defaults(func=func)
        return sub

    sim = command("simulate", cmd_simulate, "simulate key-generation traces")
    _add_common(sim)
    _add_model_flags(sim)
    sim.add_argument("--keys", type=int, default=1, help="number of keys to generate")
    sim.add_argument("--out", type=str, required=True, help="output prefix")

    prof = command("profile", cmd_profile, "build templates from a profiling campaign")
    _add_common(prof)
    _add_model_flags(prof)
    prof.add_argument("--traces", type=int, default=10000, help="profiling traces")
    prof.add_argument("--out", type=str, required=True, help="template output prefix")

    atk = command("attack", cmd_attack, "recover keys from campaign traces")
    atk.add_argument("--in", dest="inp", type=str, required=True,
                     help="campaign prefix (.trc plus optional .lbl)")
    atk.add_argument("--templates", type=str, required=True,
                     help="template prefix (expects .inner.tpl and .neg.tpl)")
    atk.add_argument("--out", type=str, default=None, help="report prefix")

    ana = command("analyze", cmd_analyze, "success rates from the analytic model")
    ana.add_argument("--p-inner", type=float, default=None,
                     help="per-site success at inner mask sites")
    ana.add_argument("--p-neg", type=float, default=None,
                     help="per-site success at sign mask sites")
    ana.add_argument("--templates", type=str, default=None,
                     help="derive per-site success from template files (prefix)")
    ana.add_argument("--inner", type=int, default=26, help="inner iterations")
    ana.add_argument("--outer", type=int, default=2, help="outer iterations")
    ana.add_argument("--n", type=int, default=None, help="coefficients per polynomial")

    rep = command("report", cmd_report, "print a recovery report")
    rep.add_argument("path", type=str, help="report file")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CdtLeakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
