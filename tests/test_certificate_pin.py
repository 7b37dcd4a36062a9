"""Certificate bytes pinned across changes to the producers.

The certificates of ``decompose``, ``pack`` and ``ndt`` on seeded random
multigraphs, without their ``created`` timestamp, together with each
request's exit code and standard output, hash to a digest recorded when
the test was written.  A change that is meant to keep the same answers
must keep the digest; a deliberate change to the answers re-records it
(print ``_pool_digest``) and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

from rigidpack import cli, format_graph, random_multigraph

PINNED_DIGEST = "f3fd9db4c75c8c5822b65f10493c136dd5092144adc8d458dcc2c42b38075d03"

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
    """``count`` connected multigraphs (``decompose`` and ``ndt`` refuse
    disconnected ones) around the union thresholds, n = 6..12."""
    graphs, seed = [], 0
    while len(graphs) < count:
        n = 6 + seed % 7
        m = 2 * n + seed * 5 % (2 * n)
        G = random_multigraph(n, m, 2, seed=seed)
        seed += 1
        if G.is_connected():
            graphs.append(G)
    return graphs


def _pool_digest(tmp_path) -> str:
    digest = hashlib.sha256()
    for i, G in enumerate(_graphs()):
        gfile = tmp_path / f"g{i}.txt"
        gfile.write_text(format_graph(G))
        for command, k, l in REQUESTS:
            out = tmp_path / f"g{i}.{command}.{k}.{l}.json"
            argv = [command, str(gfile), "--k", str(k), "--l", str(l), "--out", str(out)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            cert = json.loads(out.read_text()) if out.exists() else None
            if cert is not None:
                cert.pop("created")
            digest.update(json.dumps([i, command, k, l, code, stdout.getvalue(), cert],
                                     sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_certificate_bytes_match_the_pinned_digest(tmp_path):
    assert _pool_digest(tmp_path) == PINNED_DIGEST
