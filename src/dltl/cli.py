"""Command-line front end: one `dltl` entry point for every module.

Shared conventions:

- every run is a pure function of its flags, so rerunning with identical
  flags (including --seed) produces byte-identical output files;
- --format csv emits a single table with a header row, LF line endings and
  '.' decimal points; --format json pretty-prints one document with sorted
  keys; --out writes to a file, stdout otherwise; a file is written in
  full under a temporary name and then renamed, so a failed call leaves
  no partial file;
- exit codes: 0 on success, 1 on domain errors (invalid values, singular
  kernels, diverging iterations, arithmetic overflow, unreadable files), 2
  on usage errors (unknown flags or subcommands, malformed ranges, missing
  flag combinations); running with no arguments prints usage and exits 2;
- datasets are CSV files with header ``y,x1,...,xd``, one example per row;
  weight files are the JSON documents written by netcore.save_weights;
- the environment variable DLTL_THREADS caps numeric parallelism (it is
  applied at package import, see the package root).

Ranges are written lo:hi:step (inclusive of both endpoints up to step
rounding); lists are comma-separated. Defaults are documented per flag in
--help.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

# The other numerical modules are imported by the handlers that call them,
# so a subcommand loads only what it runs.
from . import meanfield
from .meanfield import GH_NODES, check_nodes
from .netcore import Activation, NetConfig, forward, json_floats, load_weights

__all__ = ["UsageError", "build_parser", "main"]


class UsageError(Exception):
    """Malformed invocation that argparse alone cannot catch; exits 2."""


MAX_RANGE_POINTS = 100_000  # grid points a lo:hi:step range may expand to


@dataclass(frozen=True)
class Emission:
    """One run's output: a table for csv mode, a document for json mode.

    rows may be a one-pass iterable, read only by the csv renderer; its
    cells are plain None, int, float or str values, which csv.writer writes
    as an empty field, str(int) and repr(float). The document may hold
    numpy arrays and scalars, which _json_ready converts. extra_files holds
    (path, header, rows) tables written as CSV in either mode."""

    header: tuple
    rows: Iterable
    document: dict
    extra_files: tuple = field(default=())


# ---------------------------------------------------------------------------
# parsing and rendering helpers


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside [0, 2^64)")
    return value


def parse_range(text: str) -> list[float]:
    """lo:hi:step, inclusive of both endpoints up to step rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"non-numeric range {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"range {text!r} needs finite lo, hi and step")
    if step <= 0 or hi < lo:
        raise UsageError(f"range {text!r} needs step > 0 and hi >= lo")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_RANGE_POINTS:
        raise UsageError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    return [lo + k * step for k in range(int(math.floor(steps)) + 1)]


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"non-numeric list {text!r}") from exc


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"non-integer list {text!r}") from exc


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """CSV with header ``y,x1,...,xd``; returns x of shape (m, d) and y.
    Each row's squared norm x.x and squared label y^2 must be finite."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        expected = ["y"] + [f"x{i}" for i in range(1, len(header))]
        if header != expected:
            raise ValueError(
                f"{path}: header must be y,x1,...,xd, got {','.join(header)}"
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    x, y = data[:, 1:], data[:, 0]
    # every consumer starts from x.x (kernels, norms) or y.y (losses,
    # residuals): a row with an inf or nan entry, or one whose squared norm
    # or squared label overflows, stops here
    with np.errstate(over="ignore", invalid="ignore"):
        checks = (("squared norm", np.sum(x * x, axis=1)), ("squared label", y * y))
    for what, values in checks:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{path}: data row {bad[0] + 1}: {what} {values[bad[0]]:g} is not finite")
    return x, y


def render_csv(header: tuple, rows: Iterable, fh) -> None:
    """Write the table to fh row by row, so the whole text is never held."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        # the list of an all-finite float array holds plain floats already
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()
        return _json_ready(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    return value


def render_json(document: dict, fh) -> None:
    """Write the document to fh with sorted keys and an indent of 2, chunk
    by chunk as json.dump encodes it, so the whole text is never held."""
    json.dump(_json_ready(document), fh, indent=2, sort_keys=True)
    fh.write("\n")


@contextlib.contextmanager
def _open_out(path: str | None):
    """stdout when path is None; otherwise a temporary file next to path,
    renamed over it after the last byte, so a call that fails midway leaves
    neither a partial file nor the temporary one. A path that exists and is
    not a regular file (a pipe, /dev/null) is written in place."""
    if path is None:
        yield sys.stdout
        return
    # newline="" keeps the LF endings byte-exact on every platform
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(emission: Emission, args: argparse.Namespace) -> None:
    with _open_out(args.out) as fh:
        if args.fmt == "csv":
            render_csv(emission.header, emission.rows, fh)
        else:
            render_json(emission.document, fh)
    for path, header, rows in emission.extra_files:
        with _open_out(path) as fh:
            render_csv(header, rows, fh)


def _records(header: tuple, rows) -> list[dict]:
    """The table as JSON records, one per row, keyed by the header."""
    return [dict(zip(header, row)) for row in rows]


def _unflatten(theta: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    sizes = [r * c for r, c in shapes]
    pieces = np.split(theta, np.cumsum(sizes)[:-1])
    return [p.reshape(shape) for p, shape in zip(pieces, shapes)]


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_weights_on(path: str, config: NetConfig, weights: list[np.ndarray], x: np.ndarray) -> None:
    """One forward pass of the weights read from path on the data rows x.
    Weights that drive a layer's activations out of float range stop here,
    with the file and the layer named, before a handler prints nan, inf or
    a later error. So do finite activations whose per-example squared norm
    h.h overflows, as read_dataset rejects such rows: every kernel, loss
    and residual downstream squares them. Data of the wrong width is left
    to the handler's own check, so its message stays the same."""
    if x.shape[1] != config.widths[0]:
        return
    with np.errstate(all="ignore"):
        trace = forward(config, weights, x.T)
        for layer, h in enumerate(trace.h):
            if not np.all(np.isfinite(h)):
                raise ValueError(f"{path}: the activations of layer {layer} are not finite on the data")
        for layer, h in enumerate(trace.h):
            if not np.all(np.isfinite(np.sum(h * h, axis=0))):
                raise ValueError(f"{path}: the squared norm of the activations of layer {layer} overflows on the data")


def _run_phase(args: argparse.Namespace) -> Emission:
    act = Activation.parse(args.act)
    header = ("sigma_w2", "q_inf", "chi1", "phase", "marginal")
    rows, points = [], []
    for sigma_w2 in parse_range(args.sigma_w2):
        p = meanfield.phase_classify(sigma_w2, act, q0=args.q0, tol=args.tol)
        points.append(asdict(p))
        rows.append((p.sigma_w2, p.q_inf, p.chi1, p.phase, int(p.marginal)))
    doc = {"activation": str(act), "q0": args.q0, "points": points}
    return Emission(header, rows, doc)


def _run_lengthmap(args: argparse.Namespace) -> Emission:
    act = Activation.parse(args.act)
    sigma_w2 = args.sigma_w2
    nodes = check_nodes(args.nodes)
    depth = args.depth
    if depth < 1:
        raise ValueError(f"depth {depth} must be >= 1")
    q = float(args.q0)
    rows = [(0, q, meanfield.chi1(sigma_w2, q, act, nodes))]
    for layer in range(1, depth + 1):
        q = meanfield.length_map(q, sigma_w2, act, nodes=nodes)
        rows.append((layer, q, meanfield.chi1(sigma_w2, q, act, nodes)))
    header = ("layer", "q", "chi1")
    doc = {"activation": str(act), "sigma_w2": sigma_w2, "layers": _records(header, rows)}
    return Emission(header, tuple(rows), doc)


def _run_spectrum(args: argparse.Namespace) -> Emission:
    from . import spectra

    depth = args.depth
    if args.analytic:
        spectrum = spectra.product_wishart_spectrum(depth, points=args.points)
        lam = spectrum.lam[::-1]
        rho = spectrum.rho[::-1]
        rows = tuple(zip(lam.tolist(), rho.tolist()))
        doc = {
            "depth": depth,
            "lambda_max": spectrum.lambda_max,
            "mass": spectrum.mass(),
            "mean": spectrum.mean(),
            "points": rows,
        }
        return Emission(("lam", "rho"), rows, doc)

    config = NetConfig(
        widths=(args.width,) * (depth + 2),
        activation=args.act,
        init=args.init,
        sigma_w2=args.sigma_w2,
    )
    eigenvalues = spectra.empirical_spectrum(config, replicates=args.replicates, seed=args.seed)
    lo, hi, bins, value_range = float(eigenvalues[0]), float(eigenvalues[-1]), args.bins, None
    if bins > 0 and hi - lo <= 1e-12 * abs(hi) < math.inf:
        # Eigenvalues within 1e-12 relative of each other are one value spread
        # by rounding, as J J^T = sigma_w^(2L) I for linear orthogonal layers:
        # the bins span |hi|, and the middle one, centered on them, holds all.
        first = lo + 0.5 * (hi - lo) - (bins // 2 + 0.5) * abs(hi) / bins
        value_range = (first, first + abs(hi))
    counts, edges = np.histogram(eigenvalues, bins=bins, range=value_range, density=True)
    rows = tuple(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    doc = {
        "depth": depth,
        "width": args.width,
        "activation": args.act,
        "init": args.init,
        "sigma_w2": args.sigma_w2,
        "replicates": args.replicates,
        "seed": args.seed,
        "bins": [
            {"left": l, "right": r, "density": d} for l, r, d in rows
        ],
    }
    return Emission(("bin_left", "bin_right", "density"), rows, doc)


def _run_lindyn(args: argparse.Namespace) -> Emission:
    from . import lindyn

    svals = parse_float_list(args.svals)
    depth = args.depth
    width = args.width if args.width is not None else len(svals)
    u0 = args.u0
    eta = args.eta
    lindyn._check_start(u0)
    if eta is None and svals:
        # near-optimal rate for the slowest mode; an empty list is left for
        # simulate_deep_linear_gd to reject
        eta = lindyn._opt_rate(max(svals), depth)
    run = lindyn.simulate_deep_linear_gd(
        width,
        depth,
        svals,
        eta,
        seed=args.seed,
        u0=u0,
        tol_loss=args.tol_loss,
        max_steps=args.max_steps,
    )
    rows = tuple(enumerate(run.losses.tolist()))
    doc = {
        "depth": depth,
        "width": width,
        "eta": run.eta,
        "u0": u0,
        "targets": run.targets,
        "steps_to_tol": run.steps_to_tol,
        "losses": run.losses,
        "final_modes": run.u[-1],
        "seed": args.seed,
    }
    return Emission(("step", "loss"), rows, doc)


def _run_path(args: argparse.Namespace) -> Emission:
    from . import landscape

    config_a, weights_a = load_weights(args.weights_a)
    config_b, weights_b = load_weights(args.weights_b)
    if config_a != config_b:
        raise ValueError("the two weight files disagree on the architecture")
    x, y = read_dataset(args.data)
    if args.loss == "logistic" and not np.all(np.abs(y) == 1.0):
        raise ValueError("logistic loss needs labels in {-1, +1}")
    _check_weights_on(args.weights_a, config_a, weights_a, x)
    _check_weights_on(args.weights_b, config_b, weights_b, x)
    trace = landscape.constant_loss_path(
        config_a,
        weights_a,
        weights_b,
        x.T,
        y.reshape(1, -1),
        loss=args.loss,
        epsilon=args.epsilon,
        grid_points=args.grid_points,
        seed=args.seed,
    )
    rows = []
    for index, segment in enumerate(trace.segments):
        for t, loss in zip(segment.t.tolist(), segment.losses.tolist()):
            rows.append((index, segment.name, t, loss))
    doc = {
        "loss": args.loss,
        "meeting_loss": trace.meeting_loss,
        "max_rise": trace.max_rise(),
        "repair_loss_change": trace.repair_loss_change,
        "segments": [
            {
                "name": seg.name,
                "start_loss": seg.start_loss,
                "max_rise": seg.max_rise(),
                "t": seg.t,
                "losses": seg.losses,
            }
            for seg in trace.segments
        ],
    }
    return Emission(("segment_index", "segment", "t", "loss"), tuple(rows), doc)


def _kernel_config(args: argparse.Namespace) -> tuple[NetConfig, list[np.ndarray] | None]:
    if (args.weights is None) == (args.widths is None):
        raise UsageError("pass exactly one of --weights and --widths")
    if args.weights is not None:
        return load_weights(args.weights)
    config = NetConfig(
        widths=tuple(parse_int_list(args.widths)),
        activation=args.act,
        parameterization="ntk",
        sigma_w2=args.sigma_w2,
    )
    return config, None


def _run_ntk_kernel(args: argparse.Namespace) -> Emission:
    from . import ntk

    nodes = check_nodes(args.nodes)
    x, _ = read_dataset(args.data)
    kind = args.kind
    config, weights = _kernel_config(args)
    if x.shape[1] != config.widths[0]:
        raise ValueError(
            f"data dimension {x.shape[1]} != input width {config.widths[0]}"
        )
    columns = x.T
    if kind == "empirical":
        if weights is None:
            raise UsageError("--kind empirical needs --weights")
        _check_weights_on(args.weights, config, weights, x)
        gram = ntk.empirical_ntk(config, weights, columns)
    elif kind == "limiting":
        gram = ntk.limiting_ntk(columns, config, nodes=nodes)
    else:
        gram = ntk.nngp_gram(columns, config, nodes=nodes)
    # read row by row, and only by the csv renderer
    rows = ((i, j, v) for i, row in enumerate(gram.matrix) for j, v in enumerate(row.tolist()))
    doc = {
        "tag": gram.tag,
        "size": gram.size,
        "lambda_min": gram.lambda_min(),
        "matrix": gram.matrix,
    }
    return Emission(("i", "j", "value"), rows, doc)


def _run_ntk_train(args: argparse.Namespace) -> Emission:
    from . import ntk

    nodes = check_nodes(args.nodes)
    config, weights = load_weights(args.weights)
    x, y = read_dataset(args.data)
    times = parse_float_list(args.times)
    if not all(t >= 0 for t in times):
        raise ValueError("times must be nonnegative")
    _check_weights_on(args.weights, config, weights, x)
    kernel = args.kernel.replace("-", "_")
    sol = ntk.linearize(config, weights, x.T, y, args.eta, kernel=kernel, nodes=nodes)
    if args.query is not None:
        x_query = read_dataset(args.query)[0].T
    else:
        x_query = x.T
    rows = []
    snapshots = []
    for t in times:
        pred = ntk.linearized_train(sol, x_query, t)
        f_lin = pred.f_lin.tolist()
        gp_mean = None if pred.gp_mean is None else pred.gp_mean.tolist()
        gp_sd = None if pred.gp_cov is None else np.sqrt(np.clip(np.diag(pred.gp_cov), 0.0, None)).tolist()
        blank = [None] * len(f_lin)
        rows.extend((t, i, *cells) for i, cells in enumerate(zip(f_lin, gp_mean or blank, gp_sd or blank)))
        snapshots.append({"t": t, "f_lin": f_lin, "gp_mean": gp_mean, "gp_sd": gp_sd})
    doc = {"kernel": kernel, "eta": args.eta, "predictions": snapshots}
    return Emission(("t", "index", "f_lin", "gp_mean", "gp_sd"), rows, doc)


def _du_inputs(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    if args.data is not None:
        x, y = read_dataset(args.data)
        columns = x.T
        norms = np.linalg.norm(columns, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("zero input vector cannot be normalized to the sphere")
        return columns / norms, y
    rng = np.random.default_rng(args.seed)
    columns = rng.standard_normal((args.dim, args.train_size))
    columns /= np.linalg.norm(columns, axis=0)
    y = rng.uniform(-0.9, 0.9, size=args.train_size)
    return columns, y


def _run_du_monitor(args: argparse.Namespace) -> Emission:
    from . import ntk

    columns, y = _du_inputs(args)
    traj = ntk.du_convergence_monitor(
        columns,
        y,
        n=args.n,
        eta=args.eta,
        T=args.t_max,
        seed=args.seed,
    )
    envelope = traj.loss[0] * np.exp(-traj.lambda0 * traj.t)
    header = ("t", "loss", "envelope", "lambda_min_h", "max_displacement", "h_drift")
    columns = (traj.t, traj.loss, envelope, traj.lambda_min_h, traj.max_displacement, traj.h_drift)
    rows = tuple(zip(*(c.tolist() for c in columns)))
    doc = {
        "n": args.n,
        "eta": args.eta,
        "lambda0": traj.lambda0,
        "r_prime": traj.r_prime,
        "seed": args.seed,
        "records": _records(header, rows),
    }
    return Emission(header, rows, doc)


def _run_align(args: argparse.Namespace) -> Emission:
    from . import ntk

    x, y = read_dataset(args.data)
    h_inf = ntk.h_infinity_gram(
        x.T,
        method=args.method,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    if args.u0_weights is not None:
        config, weights = load_weights(args.u0_weights)
        _check_weights_on(args.u0_weights, config, weights, x)
        u0 = forward(config, weights, x.T).output.ravel()
    else:
        u0 = np.zeros_like(y)
    report = ntk.alignment(h_inf, y, u0, points=args.points)
    rows = tuple(zip(report.t.tolist(), report.curve.tolist()))
    doc = {
        "eigenvalues": report.eigvals,
        "projections_sq": report.projections**2,
        "t": report.t,
        "curve": report.curve,
    }
    return Emission(("t", "residual"), rows, doc)


def _read_contraction_spec(path: str) -> tuple[wick.ContractionSpec, int]:
    from . import wick

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        allowed = {"m", "depth", "contractions", "inputs"}
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        for key in ("m", "depth"):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
        depth, contractions, inputs = doc["depth"], doc.get("contractions", []), doc.get("inputs", [])
        if type(depth) is not int:
            raise ValueError(f"depth must be an integer, got {depth!r}")
        if not (isinstance(contractions, list) and isinstance(inputs, list)):
            raise ValueError("contractions and inputs must be lists")
        arrays = tuple(json_floats(v, f"input of factor {k}") for k, v in enumerate(inputs, 1))
        spec = wick.ContractionSpec(m=doc["m"], inputs=arrays, contractions=tuple(contractions))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return spec, depth


def _run_wick(args: argparse.Namespace) -> Emission:
    from . import wick

    spec, depth = _read_contraction_spec(args.spec)
    count = wick.exact_correlation(spec, depth)
    header = ("power_of_inv_n", "coefficient", "monomial")
    rows = tuple(
        (term.power_of_inv_n, term.coefficient, wick.render_monomial(term.monomial))
        for term in count.terms
    )
    doc = {
        "m": spec.m,
        "depth": depth,
        "terms": _records(header, rows),
        "leading_exponent": count.leading_exponent,
        "conjectured_exponent": wick.conjecture_exponent(spec),
        "diagram_count": count.diagram_count,
    }
    extra = ()
    if args.mc:
        if args.mc_out is None and args.fmt == "csv":
            raise UsageError("--mc with --format csv needs --mc-out for the table")
        widths = parse_int_list(args.widths)
        report = wick.mc_scaling_check(
            spec, depth, widths, replicates=args.replicates, seed=args.seed
        )
        doc["mc"] = {
            "widths": report.widths,
            "means": report.means,
            "std_errs": report.std_errs,
            "variances": report.variances,
            "exacts": report.exacts,
            "slope_mean": report.slope_mean,
            "slope_variance": report.slope_variance,
            "replicates": args.replicates,
            "seed": args.seed,
        }
        if args.mc_out is not None:
            mc_rows = zip(report.widths, report.means, report.std_errs, report.variances, report.exacts)
            extra = ((args.mc_out, ("width", "mc_mean", "mc_se", "mc_variance", "exact"), mc_rows),)
    return Emission(header, rows, doc, extra_files=extra)


def _run_bounds(args: argparse.Namespace) -> Emission:
    from . import genbounds

    config, weights = load_weights(args.weights)
    x, y = read_dataset(args.data)
    _check_weights_on(args.weights, config, weights, x)
    gamma = args.gamma
    delta = args.delta
    m = y.size
    stats = genbounds.margin_stats(weights, config, (x, y), gamma)
    family = args.family
    reports = {}
    if family in ("bartlett", "all"):
        norms = genbounds.norm_profile(weights)
        reports["bartlett"] = genbounds.bartlett_bound(
            norms,
            float(np.linalg.norm(x)),
            gamma,
            m,
            delta,
            margin_risk=stats.hard_risk,
        )
    if family in ("neyshabur", "all"):
        b_norm = args.b_norm
        if b_norm is None:
            b_norm = float(np.max(np.linalg.norm(x, axis=1)))
        reports["neyshabur"] = genbounds.neyshabur_bound(
            weights, gamma, b_norm, m, delta, margin_stats=stats
        )
    if family in ("pacbayes", "all"):
        sigma = args.sigma
        if sigma <= 0:
            raise ValueError(f"posterior scale sigma = {sigma} must be positive")
        log_var = 2.0 * math.log(sigma)
        try:
            math.exp(-log_var)  # the prior precision 1/sigma^2 that gaussian_kl scales by
        except OverflowError:
            raise ValueError(f"posterior scale --sigma {sigma!r} is too small: 1/sigma^2 overflows") from None
        theta = np.concatenate([w.ravel() for w in weights])
        shapes = [w.shape for w in weights]
        posterior = genbounds.GaussianPosterior(
            mean=theta,
            log_var=np.full(theta.size, log_var),
            prior_mean=np.zeros(theta.size),
            prior_log_var=log_var,
        )

        def zero_one_risk(sample: np.ndarray) -> float:
            scores = forward(config, _unflatten(sample, shapes), x.T).output.ravel()
            return float(np.mean(y * scores < 0.0))

        reports["pacbayes"] = genbounds.pacbayes_mcallester(
            m,
            delta,
            posterior=posterior,
            risk_fn=zero_one_risk,
            samples=genbounds.MC_POSTERIOR_SAMPLES if args.replicates is None else args.replicates,
            seed=args.seed,
        )
    rows = tuple((name, report.bound) for name, report in reports.items())
    report_docs = {name: asdict(report) for name, report in reports.items()}
    doc = report_docs[family] if family != "all" else report_docs
    return Emission(("family", "bound"), rows, doc)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=_seed_value, default=0, help="PRNG seed in [0, 2^64) (default %(default)s)"
    )
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="dltl",
        description="Numerical laboratory for wide-network theory: "
        "signal propagation, Jacobian spectra, deep linear dynamics, "
        "landscape paths, tangent kernels, diagram combinatorics and "
        "generalization bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "phase", parents=[common], help="phase diagram sweep over sigma_w^2"
    )
    p.add_argument("--act", required=True, help="activation (relu, tanh, linear, ...)")
    p.add_argument(
        "--sigma-w2", required=True, help="weight-variance range lo:hi:step"
    )
    p.add_argument("--q0", type=float, default=1.0, help="initial length (default %(default)s)")
    p.add_argument(
        "--tol", type=float, default=1e-6, help="edge classification tolerance (default %(default)s)"
    )
    p.set_defaults(handler=_run_phase)

    p = sub.add_parser(
        "lengthmap", parents=[common], help="iterate the length map layer by layer"
    )
    p.add_argument("--act", required=True)
    p.add_argument("--sigma-w2", type=float, required=True)
    p.add_argument("--q0", type=float, default=1.0, help="initial length (default %(default)s)")
    p.add_argument("--depth", type=int, default=32, help="layers to iterate (default %(default)s)")
    p.add_argument("--nodes", type=int, default=GH_NODES, help="quadrature nodes (default %(default)s)")
    p.set_defaults(handler=_run_lengthmap)

    p = sub.add_parser(
        "spectrum",
        parents=[common],
        help="product-Wishart Jacobian spectrum, analytic or sampled",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--analytic", action="store_true", help="limit density curve")
    mode.add_argument("--empirical", action="store_true", help="sampled eigenvalue histogram")
    p.add_argument("--depth", type=int, default=1, help="number of factors L (default %(default)s)")
    p.add_argument("--points", type=int, default=2001, help="analytic curve points (default %(default)s)")
    p.add_argument("--width", type=int, default=256, help="matrix size for sampling (default %(default)s)")
    p.add_argument("--act", default="linear", help="activation for sampling (default %(default)s)")
    p.add_argument(
        "--init",
        choices=("gaussian", "orthogonal"),
        default="gaussian",
        help="weight init for sampling (default %(default)s)",
    )
    p.add_argument("--sigma-w2", type=float, default=1.0, help="weight variance (default %(default)s)")
    p.add_argument("--replicates", type=int, default=50, help="sampled ensembles (default %(default)s)")
    p.add_argument("--bins", type=int, default=64, help="histogram bins (default %(default)s)")
    p.set_defaults(handler=_run_spectrum)

    p = sub.add_parser(
        "lindyn", parents=[common], help="gradient descent on a deep linear net"
    )
    p.add_argument("--depth", type=int, default=8, help="hidden depth L (default %(default)s)")
    p.add_argument("--svals", default="1.0,0.7", help="target singular values (default %(default)s)")
    p.add_argument("--width", type=int, default=None, help="layer width (default: number of svals)")
    p.add_argument("--u0", type=float, default=0.1, help="initial mode product (default %(default)s)")
    p.add_argument(
        "--eta", type=float, default=None, help="learning rate (default: near-optimal schedule)"
    )
    p.add_argument("--tol-loss", type=float, default=None, help="stop loss (default: 1e-4 sum s^2)")
    p.add_argument("--max-steps", type=int, default=200_000, help="step cap (default %(default)s)")
    p.set_defaults(handler=_run_lindyn)

    p = sub.add_parser(
        "path", parents=[common], help="constant-loss path between two nets"
    )
    p.add_argument("--weights-a", required=True, help="first endpoint weight file")
    p.add_argument("--weights-b", required=True, help="second endpoint weight file")
    p.add_argument("--data", required=True, help="dataset CSV (y,x1,...,xd)")
    p.add_argument(
        "--loss", choices=("square", "logistic"), default="square", help="loss (default %(default)s)"
    )
    p.add_argument("--epsilon", type=float, default=1e-6, help="meeting loss target (default %(default)s)")
    p.add_argument("--grid-points", type=int, default=64, help="points per segment (default %(default)s)")
    p.set_defaults(handler=_run_path)

    p = sub.add_parser(
        "ntk-kernel", parents=[common], help="tangent or nngp gram matrix on a dataset"
    )
    p.add_argument("--data", required=True, help="dataset CSV (y,x1,...,xd); labels ignored")
    p.add_argument(
        "--kind",
        choices=("limiting", "empirical", "nngp"),
        default="limiting",
        help="kernel kind (default %(default)s)",
    )
    p.add_argument("--weights", default=None, help="weight file (required for empirical)")
    p.add_argument("--widths", default=None, help="architecture widths, e.g. 3,32,32,1")
    p.add_argument("--act", default="relu", help="activation with --widths (default %(default)s)")
    p.add_argument("--sigma-w2", type=float, default=2.0, help="weight variance with --widths (default %(default)s)")
    p.add_argument("--nodes", type=int, default=GH_NODES, help="quadrature nodes (default %(default)s)")
    p.set_defaults(handler=_run_ntk_kernel)

    p = sub.add_parser(
        "ntk-train", parents=[common], help="closed-form linearized training"
    )
    p.add_argument("--weights", required=True, help="weight file for f_0 and the kernel")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--query", default=None, help="query dataset CSV (default: train inputs)")
    p.add_argument("--eta", type=float, default=1.0, help="learning rate (default %(default)s)")
    p.add_argument("--times", default="inf", help="comma list of times, inf allowed (default %(default)s)")
    p.add_argument(
        "--kernel",
        choices=("limiting", "empirical", "last-layer"),
        default="limiting",
        help="kernel driving the flow (default %(default)s)",
    )
    p.add_argument("--nodes", type=int, default=GH_NODES, help="quadrature nodes (default %(default)s)")
    p.set_defaults(handler=_run_ntk_train)

    p = sub.add_parser(
        "du-monitor", parents=[common], help="two-layer relu convergence certificate"
    )
    p.add_argument("--data", default=None, help="dataset CSV; inputs are normalized to the sphere")
    p.add_argument("--dim", type=int, default=16, help="synthetic input dimension (default %(default)s)")
    p.add_argument("--train-size", type=int, default=8, help="synthetic examples (default %(default)s)")
    p.add_argument("--n", type=int, default=1024, help="hidden width (default %(default)s)")
    p.add_argument("--eta", type=float, default=0.2, help="step size (default %(default)s)")
    p.add_argument("--t-max", type=float, default=20.0, help="continuous-time horizon (default %(default)s)")
    p.set_defaults(handler=_run_du_monitor)

    p = sub.add_parser(
        "align", parents=[common], help="label alignment with the relu kernel spectrum"
    )
    p.add_argument("--data", required=True, help="dataset CSV (y,x1,...,xd)")
    p.add_argument("--points", type=int, default=200, help="time grid points (default %(default)s)")
    p.add_argument(
        "--method",
        choices=("angle", "mc"),
        default="angle",
        help="kernel evaluation (default %(default)s)",
    )
    p.add_argument("--mc-samples", type=int, default=200_000, help="samples for --method mc (default %(default)s)")
    p.add_argument("--u0-weights", default=None, help="weight file for initial predictions (default: zeros)")
    p.set_defaults(handler=_run_align)

    p = sub.add_parser(
        "wick", parents=[common], help="exact correlation polynomial in 1/n"
    )
    p.add_argument("--spec", required=True, help="JSON file: m, depth, contractions, inputs")
    p.add_argument("--mc", action="store_true", help="add a Monte Carlo width sweep")
    p.add_argument("--widths", default="8,32,128", help="MC widths (default %(default)s)")
    p.add_argument("--replicates", type=int, default=2000, help="MC replicates per width (default %(default)s)")
    p.add_argument("--mc-out", default=None, help="file for the MC comparison CSV")
    p.set_defaults(handler=_run_wick)

    p = sub.add_parser(
        "bounds", parents=[common], help="generalization bound report for a trained net"
    )
    p.add_argument("--weights", required=True, help="weight file")
    p.add_argument("--data", required=True, help="dataset CSV with labels +-1")
    p.add_argument(
        "--family",
        choices=("bartlett", "neyshabur", "pacbayes", "all"),
        default="all",
        help="bound family (default %(default)s)",
    )
    p.add_argument("--gamma", type=float, default=1.0, help="margin (default %(default)s)")
    p.add_argument("--delta", type=float, default=0.05, help="failure probability (default %(default)s)")
    p.add_argument("--b-norm", type=float, default=None, help="input norm cap B (default: max row norm)")
    p.add_argument("--sigma", type=float, default=0.05, help="posterior std for pacbayes (default %(default)s)")
    p.add_argument(
        "--replicates", type=int, default=None, help="posterior samples (default: genbounds.MC_POSTERIOR_SAMPLES)"
    )
    p.set_defaults(handler=_run_bounds)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code is None else int(exc.code)
    try:
        emission = args.handler(args)
        _emit(emission, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RuntimeError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
