"""Certificate bytes pinned across changes to the producers.

The certificates of ``decompose``, ``pack`` and ``ndt`` on seeded random
multigraphs, without their ``created`` timestamp, together with each
request's exit code and standard output, hash to a digest recorded when
the test was written.  A change that is meant to keep the same answers
must keep the digest; a deliberate change to the answers re-records it
(print ``_pool_digest``) and says so in CHANGES.md.
"""

import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import rigidpack
from rigidpack import cli, format_graph, random_multigraph
from rigidpack.certificates import canonical_json, graph_hash, verify_certificate

from oracles import connected_def
from test_certificates import cli_certificates

PINNED_DIGEST = "d6e166919c89cf7c31f22f85008fcfa823b9bde372359b2cca91a43c1017973c"

REQUESTS = (
    ("decompose", 2, 0),
    ("decompose", 1, 1),
    ("decompose", 1, 2),
    ("decompose", 0, 3),
    ("pack", 1, 1),
    ("pack", 0, 2),
    ("ndt", 1, 2),
)


def _graphs(count=30):
    """``count`` connected multigraphs around the union thresholds,
    n = 6..12.  The pinned digest was recorded on this pool."""
    graphs, seed = [], 0
    while len(graphs) < count:
        n = 6 + seed % 7
        m = 2 * n + seed * 5 % (2 * n)
        G = random_multigraph(n, m, 2, seed=seed)
        seed += 1
        if connected_def(G):
            graphs.append(G)
    return graphs


@functools.lru_cache(maxsize=None)
def _pool_runs():
    """(graph index, G, command, k, l, exit code, stdout, certificate or
    None) for every request on every pool graph."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, G in enumerate(_graphs()):
            gfile = Path(tmp) / f"g{i}.txt"
            gfile.write_text(format_graph(G))
            for command, k, l in REQUESTS:
                out = Path(tmp) / f"g{i}.{command}.{k}.{l}.json"
                argv = [command, str(gfile), "--k", str(k), "--l", str(l), "--out", str(out)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                cert = json.loads(out.read_text()) if out.exists() else None
                runs.append((i, G, command, k, l, code, stdout.getvalue(), cert))
    return tuple(runs)


def _pool_digest() -> str:
    digest = hashlib.sha256()
    for i, _, command, k, l, code, stdout, cert in _pool_runs():
        if cert is not None:
            cert = {key: value for key, value in cert.items() if key != "created"}
        digest.update(json.dumps([i, command, k, l, code, stdout, cert],
                                 sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_certificate_bytes_match_the_pinned_digest():
    assert _pool_digest() == PINNED_DIGEST


def test_builtin_sha256_digests_are_hashlibs():
    # The certificates hash with the interpreter's built-in SHA-256.  On the
    # pool, every graph hash and certificate hash is hashlib's digest.
    for _, G, *_, cert in _pool_runs():
        body = f"{G.n} {G.m}\n" + "".join(f"{u} {v}\n" for u, v in G.edges)
        assert graph_hash(G) == hashlib.sha256(body.encode("ascii")).hexdigest()
        if cert is not None:
            core = {key: value for key, value in cert.items() if key not in ("cert_hash", "created")}
            core = canonical_json(core).encode("utf-8")
            assert cert["cert_hash"] == hashlib.sha256(core).hexdigest()


def test_cli_import_leaves_openssl_unloaded():
    # Start-up is most of a CLI call.  hashlib loads OpenSSL (_hashlib);
    # dataclasses pulls in inspect, ast, dis and tokenize; typing and
    # datetime would serve a few annotations and one timestamp.  Under -S
    # no site hook loads any of them first.  Every module of the package
    # is still loaded: nothing is deferred into a request.
    package = Path(rigidpack.__file__).resolve().parent
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); import rigidpack.cli; "
            "print(' '.join(sorted(sys.modules)))")
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, check=True).stdout.split())
    banned = {"dataclasses", "inspect", "typing", "datetime", "hashlib", "_hashlib"}
    assert not banned & loaded, sorted(banned & loaded)
    modules = {f"rigidpack.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    assert "rigidpack.certificates" in modules and not modules - loaded, sorted(modules - loaded)


def test_union_certificates_verify_without_the_union(monkeypatch):
    # Every decompose, pack and ndt certificate, of the pool and of the CLI
    # cases, verifies with union_rank raising wherever it is imported: a
    # union failure is checked by two matroid ranks at its edge set.
    certs = [(G, cert) for *_, G, cert in cli_certificates()]
    certs += [(G, cert) for _, G, *_, cert in _pool_runs() if cert is not None]
    checked = [(G, c) for G, c in certs if c["command"] in ("decompose", "pack", "ndt")]
    assert {c["payload"]["kind"] for _, c in checked} == {
        "decomposition", "packing", "bounded-cover", "report"}
    assert {"union-cover", "packing"} <= {c["payload"].get("condition") for _, c in checked}

    def union_rank(*args):
        raise AssertionError("the verifier ran union_rank")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidpack" and hasattr(module, "union_rank"):
            monkeypatch.setattr(module, "union_rank", union_rank)
    for G, cert in checked:
        assert verify_certificate(cert, G) == (True, None), cert["payload"]


# The check and gamma certificates, pinned the same way.  Every check
# condition is asked once where it holds and once where it fails, on
# small fixed and seeded graphs; tree-packing also at l = 0.
CHECK_PINNED_DIGEST = "3162a454002ecea41048ce830aebbddc532917e7d30546d3645db3c20c35ca0d"

CHECK_REQUESTS = (
    ("check", "cover", "--k", "1"),
    ("check", "cover", "--k", "2"),
    ("check", "tree-packing", "--l", "0"),
    ("check", "tree-packing", "--l", "1"),
    ("check", "tree-packing", "--l", "2"),
    ("check", "parthm", "--k", "1", "--l", "0"),
    ("check", "parthm", "--k", "1", "--l", "1"),
    ("check", "necessary", "--k", "1", "--l", "0"),
    ("check", "necessary", "--k", "1", "--l", "1"),
    ("check", "pq-connected", "--p", "2", "--q", "1"),
    ("check", "pq-connected", "--p", "3", "--q", "1"),
    ("check", "bracket-partition", "--p", "1", "--q", "1"),
    ("check", "bracket-partition", "--p", "3", "--q", "1"),
    ("check", "kwz", "--k", "1", "--d", "2"),
    ("check", "kwz", "--k", "0", "--d", "3/2"),
    ("gamma", "gamma"),
    ("gamma", "gamma2"),
)


def _check_graphs():
    """K4, a triangle, two disjoint triangles, a 7-vertex Henneberg strip
    and six seeded multigraphs, n = 5..8."""
    from corpus import henneberg_strip, k4, triangle, two_triangles_disjoint

    graphs = [k4(), triangle(), two_triangles_disjoint(), henneberg_strip(7)]
    graphs += [random_multigraph(5 + s % 4, 7 + 2 * s, 2, seed=100 + s) for s in range(6)]
    return graphs


def _check_digest() -> tuple[str, set]:
    """The digest over every check and gamma request, and the (request
    name, exit code) pairs seen."""
    digest, seen = hashlib.sha256(), set()
    with tempfile.TemporaryDirectory() as tmp:
        for i, G in enumerate(_check_graphs()):
            gfile = Path(tmp) / f"g{i}.txt"
            gfile.write_text(format_graph(G))
            for j, (command, name, *options) in enumerate(CHECK_REQUESTS):
                out = Path(tmp) / f"g{i}.{j}.json"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([command, name, str(gfile), *options, "--out", str(out)])
                cert = json.loads(out.read_text()) if out.exists() else None
                if cert is not None:
                    cert = {key: value for key, value in cert.items() if key != "created"}
                seen.add((name, code))
                digest.update(json.dumps([i, j, code, stdout.getvalue(), cert],
                                         sort_keys=True).encode("utf-8"))
    return digest.hexdigest(), seen


def test_check_and_gamma_certificates_match_the_pinned_digest():
    digest, seen = _check_digest()
    for name in {request[1] for request in CHECK_REQUESTS}:
        codes = {code for seen_name, code in seen if seen_name == name}
        assert codes == ({0} if name.startswith("gamma") else {0, 1}), (name, codes)
    assert digest == CHECK_PINNED_DIGEST
