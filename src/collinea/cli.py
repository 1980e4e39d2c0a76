"""Command-line front end.

Every command prints one JSON object on stdout and attaches a run manifest
(command, argument vector, configuration hash, toolkit version, SHA-256 of
each input file, wall time) so runs can be diffed and replayed; outputs are
deterministic apart from the timing fields.

Plane arguments accept a file path or the name of a bundled fixture
(e.g. "hall_translation_deleted", with or without ".json").  Every input
file, and a --relabeling literal, is parsed by collinea.plane's json_value
and its integer arrays checked by int_array, so a malformed file is a
ParseError (exit 3) whose message names the file (and the field at
fault); only a --relabeling literal that is not JSON at all is a usage error.

Exit codes: 0 success, 2 usage, 3 unreadable or invalid input (also an
invalid plane under `plane validate`), 4 node limit exceeded, 5 certificate
failure.  `repro` exits 0 whether or not the claim holds; check the "ok"
field.

Search results are shaped here, from each SearchOutcome; `triples` and
`quadruples` share one handler.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import combinations

from . import __version__
from .algebra import RingSpec, field_make
from .classify import certificate_bundle
from .collinear import (
    GenPerm,
    PermGraph,
    closed_form_minimizer,
    count_quadruples,
    count_triples,
    reciprocal_perm,
    recognize_fractional,
)
from .errors import (
    CertificateFailure,
    CollineaError,
    IncompleteSet,
    NodeLimitExceeded,
    ParseError,
    UsageError,
)
from .fixtures import DISTINGUISHED_CLASSES, fixture_bytes, fixture_names
from .mols import diagonal_witness, load_mols, mols_from_plane, plane_from_mols, save_mols
from .plane import (AffinePlane, ProjectivePlane, delete_line, int_array, is_json_int,
                    json_value, load_plane, save_plane, validate)
from .repro import CLAIMS, run_claim
from .search import SearchConfig, min_triples_field, min_triples_plane, min_triples_zn


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits directly with usage text; route it
    # through the package error type so main() can emit the JSON error object
    def error(self, message):
        raise UsageError(message)


# -- input handling ----------------------------------------------------------


def _read_file(path, digests):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    digests[path] = hashlib.sha256(data).hexdigest()
    return data


def _parsed(name, loader, data, **kw):
    """loader(data), with a ParseError's message prefixed by the file's name."""
    try:
        return loader(data, **kw)
    except ParseError as e:
        raise ParseError(f"{name}: {e}") from e


def _load_plane_ref(ref, digests, base=None, strict=True):
    """The plane at ref: a path if one exists, else a fixture name."""
    cands = [ref]
    if base and not os.path.isabs(ref):
        cands.append(os.path.join(base, ref))
    for c in cands:
        if os.path.exists(c):
            data = _read_file(c, digests)
            break
    else:
        name = os.path.basename(ref)
        if name.endswith(".json"):
            name = name[:-5]
        try:
            data = fixture_bytes(name)
        except KeyError:
            raise ParseError(
                f"{ref}: no such file, and no bundled fixture named {name!r} "
                f"(have: {', '.join(fixture_names())})") from None
        digests["fixture:" + name] = hashlib.sha256(data).hexdigest()
    return _parsed(ref, load_plane, data, strict=strict)


def _flat_perm(obj, path, context):
    """The PermGraph of a flat permutation file's JSON array obj, read from
    path, over the field or ring that context() makes once the array is
    checked; a ValueError from either becomes a ParseError naming path."""
    images = int_array(obj, path)
    try:
        return PermGraph(context(), tuple(images))
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def _perm_context(args):
    if args.q is not None:
        return field_make(args.q)
    if args.zn is not None:
        return RingSpec(args.zn)
    raise UsageError("a permutation needs a context: give --q or --zn")


def _load_perm_source(args, digests):
    """The perm under test: a file (flat array or generalized-permutation
    object), or one of the built-in families."""
    picked = [s for s in (args.perm_file, "--g" if args.g else None,
                          "--inv" if args.inv else None) if s]
    if len(picked) != 1:
        raise UsageError("give exactly one of: a perm file, --g, --inv")
    if args.q is not None and args.zn is not None:
        raise UsageError("--q and --zn are mutually exclusive")
    if args.g or args.inv:
        if args.q is None:
            raise UsageError("--g/--inv need --q")
        f = field_make(args.q)
        return reciprocal_perm(f) if args.inv else closed_form_minimizer(f)
    obj = json_value(_read_file(args.perm_file, digests), args.perm_file)
    if isinstance(obj, dict) and "cells" in obj:
        ref = obj.get("plane")
        if not isinstance(ref, str) or not ref:
            raise ParseError(f"{args.perm_file}: field 'plane' must be a non-empty string")
        plane = _affine_or_die(_load_plane_ref(ref, digests, os.path.dirname(args.perm_file)),
                               args.cmd_name)
        try:
            h, v = obj["h_class"], obj["v_class"]
            cells = tuple(int_array(obj["cells"], f"{args.perm_file}: cells"))
        except KeyError as e:
            raise ParseError(f"{args.perm_file}: missing field {e}") from e
        if not (is_json_int(h) and is_json_int(v)):
            raise ParseError(f"{args.perm_file}: h_class and v_class must be integers")
        return GenPerm(plane, h, v, cells)
    return _flat_perm(obj, args.perm_file, lambda: _perm_context(args))


# -- search plumbing ---------------------------------------------------------


def _cfg(args):
    try:
        return SearchConfig(mode=args.mode, parallel_depth=args.parallel_depth,
                            threads=args.threads, node_limit=args.node_limit,
                            upper_bound_seed=args.seed_incumbent)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _config_json(cfg):
    return None if cfg is None else asdict(cfg)


def _search_stats(out):
    """The keys every search result ends with."""
    return {"nodes_expanded": out.nodes_expanded, "prunes": out.prunes,
            "elapsed": round(out.elapsed, 6), "config": _config_json(out.config)}


def _outcome_result(out):
    witnesses = [list(w) for w in out.witnesses]
    res = {"psi": out.psi}
    if witnesses:
        res["witness"] = witnesses[0]
    return {**res, "witnesses": witnesses, **_search_stats(out)}


def _affine_or_die(plane, cmd):
    if not isinstance(plane, AffinePlane):
        raise UsageError(f"{cmd} needs an affine plane "
                         "(use `plane delete-line` on a projective one first)")
    return plane


# -- command handlers: return (result dict, SearchConfig or None, exit code) --


def cmd_psi_field(args, digests):
    cfg = _cfg(args)
    out = min_triples_field(field_make(args.q), cfg)
    return {"q": args.q, **_outcome_result(out)}, cfg, 0


def cmd_psi_zn(args, digests):
    cfg = _cfg(args)
    out = min_triples_zn(args.n, cfg)
    return {"n": args.n, **_outcome_result(out)}, cfg, 0


def cmd_psi_plane(args, digests):
    cfg = _cfg(args)
    ap = _affine_or_die(_load_plane_ref(args.plane, digests), "psi plane")
    if args.all_pairs:
        if args.h is not None or args.v is not None:
            raise UsageError("--all-pairs excludes --h/--v")
        rows = [{"h": h, "v": v, "psi": min_triples_plane(ap, h, v, cfg).psi}
                for h, v in combinations(range(len(ap.parallel_classes)), 2)]
        return {"order": ap.order, "psi_values": sorted({r["psi"] for r in rows}),
                "pairs": rows}, cfg, 0
    h = args.h if args.h is not None else DISTINGUISHED_CLASSES[0]
    v = args.v if args.v is not None else DISTINGUISHED_CLASSES[1]
    out = min_triples_plane(ap, h, v, cfg)
    return {"order": ap.order, "h": h, "v": v, **_outcome_result(out)}, cfg, 0


def cmd_count(args, digests):
    """triples and quadruples: args.counter counts a permutation graph or a
    plane transversal, and the count goes under the command's name."""
    perm = _load_perm_source(args, digests)
    res = {args.cmd_name: args.counter(perm)}
    if isinstance(perm, GenPerm):
        res.update({"order": perm.plane.order, "h_class": perm.h_class,
                    "v_class": perm.v_class, "cells": list(perm.cells)})
    else:
        res["perm"] = list(perm.images)
    return res, None, 0


def cmd_minimizers(args, digests):
    cfg = _cfg(args)
    f = field_make(args.q)
    out = min_triples_field(f, cfg)
    res = {"q": args.q, "psi": out.psi, "count": len(out.witnesses),
           "witnesses": [list(w) for w in out.witnesses]}
    if args.check_fractional:
        params = []
        for w in out.witnesses:
            p = recognize_fractional(PermGraph(f, w))
            params.append(None if p is None else [p.alpha, p.beta, p.gamma])
        res["fractional"] = {"all_recognized": all(p is not None for p in params),
                             "params": params}
    res.update(_search_stats(out))
    return res, cfg, 0


def cmd_certify(args, digests):
    obj = json_value(_read_file(args.perm_file, digests), args.perm_file)
    perm = _flat_perm(obj, args.perm_file, lambda: field_make(args.q))
    bundle = certificate_bundle(perm)
    return {"q": args.q, "perm": list(perm.images), "certificate": bundle}, None, 0


def _artifact(res, args, key, obj):
    if getattr(args, "out", None):
        with open(args.out, "wb") as fh:
            fh.write(json.dumps(obj, indent=1).encode())
        res["written"] = args.out
    else:
        res[key] = obj
    return res


def cmd_mols_from_plane(args, digests):
    ap = _affine_or_die(_load_plane_ref(args.plane, digests), "mols from-plane")
    h = args.h if args.h is not None else DISTINGUISHED_CLASSES[0]
    v = args.v if args.v is not None else DISTINGUISHED_CLASSES[1]
    squares = mols_from_plane(ap, h, v)
    obj = json.loads(save_mols(squares))
    res = {"order": ap.order, "h": h, "v": v, "count": len(obj["squares"])}
    return _artifact(res, args, "mols", obj), None, 0


def cmd_mols_to_plane(args, digests):
    squares = _parsed(args.mols_file, load_mols, _read_file(args.mols_file, digests))
    ap = plane_from_mols(squares)
    res = {"order": ap.order, "points": ap.n_points, "lines": len(ap.lines)}
    return _artifact(res, args, "plane", json.loads(save_plane(ap))), None, 0


def cmd_mols_diag(args, digests):
    squares = _parsed(args.mols_file, load_mols, _read_file(args.mols_file, digests))
    if not squares:
        raise IncompleteSet("no squares given")
    q = squares[0].order
    if args.relabeling is None:
        relab = list(range(q))
    elif os.path.exists(args.relabeling):
        relab = int_array(json_value(_read_file(args.relabeling, digests),
                                     args.relabeling), args.relabeling)
    else:
        try:
            relab = json_value(args.relabeling, "--relabeling")
        except ParseError:
            raise UsageError("--relabeling: give a JSON array or a file "
                             "containing one") from None
        relab = int_array(relab, "--relabeling")
    try:
        hit = diagonal_witness(squares, tuple(relab))
    except ValueError as e:
        raise ParseError(f"--relabeling: {e}") from e
    res = {"order": q, "relabeling": relab}
    if hit is None:
        res["witness"] = None
    else:
        j, k, rows = hit
        res["witness"] = {"square": j, "symbol": k, "rows": list(rows)}
    return res, None, 0


def cmd_plane_validate(args, digests):
    pl = _load_plane_ref(args.plane, digests, strict=False)
    rep = validate(pl)
    res = {"type": "projective" if isinstance(pl, ProjectivePlane) else "affine",
           "order": pl.order, "ok": rep.ok, "failures": list(rep.failures)}
    return res, None, 0 if rep.ok else 3


def cmd_plane_delete(args, digests):
    pl = _load_plane_ref(args.plane, digests)
    if not isinstance(pl, ProjectivePlane):
        raise UsageError("delete-line needs a projective plane")
    ap = delete_line(pl, args.index)
    res = {"order": ap.order, "points": ap.n_points, "deleted_line": args.index}
    return _artifact(res, args, "plane", json.loads(save_plane(ap))), None, 0


def cmd_plane_info(args, digests):
    pl = _load_plane_ref(args.plane, digests)
    res = {"type": "projective" if isinstance(pl, ProjectivePlane) else "affine",
           "order": pl.order, "points": pl.n_points, "lines": len(pl.lines),
           "labels": {str(k): v for k, v in sorted(pl.labels.items())},
           "provenance": pl.provenance}
    if isinstance(pl, AffinePlane):
        res["parallel_classes"] = len(pl.parallel_classes)
    return res, None, 0


def cmd_repro(args, digests):
    if args.claim_id == "all":
        claims = [run_claim(i) for i in sorted(CLAIMS)]
        return {"ok": all(c["ok"] for c in claims), "claims": claims}, None, 0
    try:
        cid = int(args.claim_id)
    except ValueError:
        raise UsageError(f"claim id must be 1..{len(CLAIMS)} or 'all'") from None
    return run_claim(cid), None, 0


# -- output ------------------------------------------------------------------


def _manifest(command, argv, cfg, digests, t0):
    blob = json.dumps(_config_json(cfg), sort_keys=True).encode()
    return {"command": command, "arguments": list(argv),
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "toolkit_version": __version__,
            "input_digests": dict(sorted(digests.items())),
            "wall_time": round(time.perf_counter() - t0, 3)}


# -- wiring ------------------------------------------------------------------


def build_parser():
    search = _Parser(add_help=False)
    search.add_argument("--threads", type=int, default=None,
                        help="worker count (default: all cores)")
    search.add_argument("--parallel-depth", type=int, default=0,
                        help="split the search tree at this prefix depth (0 = sequential)")
    search.add_argument("--node-limit", type=int, default=None,
                        help="abort after this many expanded nodes (exit 4)")
    search.add_argument("--seed-incumbent", type=int, default=None,
                        help="known attainable triple count to start pruning from")
    search.set_defaults(mode="min_value")

    p = _Parser(prog="collinea",
                description="Count and minimize collinear triples in "
                            "permutation graphs over finite fields, Z_n, "
                            "and finite affine planes.")
    sub = p.add_subparsers(metavar="COMMAND")

    psi = sub.add_parser("psi", help="minimum triple count of a structure")
    psis = psi.add_subparsers(metavar="WHAT")
    sp = psis.add_parser("field", parents=[search],
                         help="minimum over all permutations of GF(q)")
    sp.add_argument("q", type=int)
    sp.set_defaults(func=cmd_psi_field, cmd_name="psi field")
    sp = psis.add_parser("zn", parents=[search],
                         help="minimum over all permutations of Z_n")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_psi_zn, cmd_name="psi zn")
    sp = psis.add_parser("plane", parents=[search],
                         help="minimum over transversals of an affine plane")
    sp.add_argument("plane", help="plane file or bundled fixture name")
    sp.add_argument("--h", type=int, default=None, metavar="I",
                    help="row parallel class (default %d)" % DISTINGUISHED_CLASSES[0])
    sp.add_argument("--v", type=int, default=None, metavar="J",
                    help="column parallel class (default %d)" % DISTINGUISHED_CLASSES[1])
    sp.add_argument("--all-pairs", action="store_true",
                    help="sweep every unordered class pair")
    sp.set_defaults(func=cmd_psi_plane, cmd_name="psi plane")

    for name, counter in (("triples", count_triples), ("quadruples", count_quadruples)):
        sp = sub.add_parser(name, help=f"count collinear {name} of one permutation")
        sp.add_argument("perm_file", nargs="?", default=None,
                        help="JSON image array, or a generalized-permutation object")
        sp.add_argument("--g", action="store_true",
                        help="use the built-in closed-form minimizer")
        sp.add_argument("--inv", action="store_true",
                        help="use the reciprocal map x -> x^(q-2)")
        sp.add_argument("--q", type=int, default=None, help="field order")
        sp.add_argument("--zn", type=int, default=None, help="ring modulus")
        sp.set_defaults(func=cmd_count, cmd_name=name, counter=counter)

    sp = sub.add_parser("minimizers", parents=[search],
                        help="every minimum-attaining permutation of GF(q)")
    sp.add_argument("q", type=int)
    sp.add_argument("--check-fractional", action="store_true",
                    help="recognize each witness as a patched fractional map")
    sp.set_defaults(func=cmd_minimizers, cmd_name="minimizers", mode="enumerate_all_min")

    sp = sub.add_parser("certify", help="conic certificate for a claimed minimizer")
    sp.add_argument("perm_file")
    sp.add_argument("--q", type=int, required=True, help="field order")
    sp.set_defaults(func=cmd_certify, cmd_name="certify")

    mols = sub.add_parser("mols", help="mutually orthogonal latin squares")
    molss = mols.add_subparsers(metavar="WHAT")
    sp = molss.add_parser("from-plane", help="full MOLS set from an affine plane")
    sp.add_argument("plane")
    sp.add_argument("--h", type=int, default=None, metavar="I")
    sp.add_argument("--v", type=int, default=None, metavar="J")
    sp.add_argument("--out", default=None, help="write the MOLS file here")
    sp.set_defaults(func=cmd_mols_from_plane, cmd_name="mols from-plane")
    sp = molss.add_parser("to-plane", help="rebuild the affine plane of a full MOLS set")
    sp.add_argument("mols_file")
    sp.add_argument("--out", default=None, help="write the plane file here")
    sp.set_defaults(func=cmd_mols_to_plane, cmd_name="mols to-plane")
    sp = molss.add_parser("diag-witness",
                          help="three-in-a-row witness on a relabeled diagonal")
    sp.add_argument("mols_file")
    sp.add_argument("--relabeling", default=None,
                    help="JSON array or file (default: identity)")
    sp.set_defaults(func=cmd_mols_diag, cmd_name="mols diag-witness")

    plane = sub.add_parser("plane", help="plane file utilities")
    planes = plane.add_subparsers(metavar="WHAT")
    sp = planes.add_parser("validate", help="report every violated plane axiom")
    sp.add_argument("plane")
    sp.set_defaults(func=cmd_plane_validate, cmd_name="plane validate")
    sp = planes.add_parser("delete-line", help="affine plane left by removing one line")
    sp.add_argument("plane")
    sp.add_argument("index", type=int)
    sp.add_argument("--out", default=None, help="write the plane file here")
    sp.set_defaults(func=cmd_plane_delete, cmd_name="plane delete-line")
    sp = planes.add_parser("info", help="summary of a plane file")
    sp.add_argument("plane")
    sp.set_defaults(func=cmd_plane_info, cmd_name="plane info")

    sp = sub.add_parser("repro", help="re-derive one of the numbered claims (or 'all')")
    sp.add_argument("claim_id", metavar="claim-id",
                    help=f"1..{len(CLAIMS)} or 'all'")
    sp.set_defaults(func=cmd_repro, cmd_name="repro")
    return p


def _fail(exc, code, argv, digests, t0):
    obj = {"error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code},
           "manifest": _manifest(argv[0] if argv else "", argv, None, digests, t0)}
    print(json.dumps(obj, indent=1))
    return code


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    t0 = time.perf_counter()
    digests = {}
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("missing subcommand (see --help)")
        res, cfg, code = args.func(args, digests)
    except UsageError as e:
        return _fail(e, 2, argv, digests, t0)
    except NodeLimitExceeded as e:
        return _fail(e, 4, argv, digests, t0)
    except CertificateFailure as e:
        return _fail(e, 5, argv, digests, t0)
    except (CollineaError, OSError, ValueError) as e:
        return _fail(e, 3, argv, digests, t0)
    print(json.dumps({**res, "manifest": _manifest(args.cmd_name, argv, cfg, digests, t0)},
                     indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
