"""What the test modules share: one Hypothesis profile, one trained corpus
that tests read and never write, and the check of a failing CLI call."""
import contextlib
import io
from types import SimpleNamespace

import pytest
from hypothesis import settings

from glyphspect import cli

# Every fuzz test replays the same examples, keeps no example database and
# has no deadline; each of them sets only its max_examples.
settings.register_profile("glyphspect", derandomize=True, database=None, deadline=None)
settings.load_profile("glyphspect")


def _tree(root):
    """Every path under `root`, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """A `synth --count 2` corpus (`corpus`, `manifest`, `registry`), the
    model a default `train` wrote for it (`model`) and its first glyph
    (`glyph`). A test writes its own inputs under its tmp_path; a manifest
    there names these glyphs by absolute path. The session fails if a test
    changed any of these files."""
    root = tmp_path_factory.mktemp("trained")
    corpus, model = root / "corpus", root / "model.json"
    manifest, registry = corpus / "manifest.csv", corpus / "registry.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(corpus), "--count", "2"]) == 0
        assert cli.main(
            ["train", "--manifest", str(manifest), "--registry", str(registry),
             "--model", str(model)]
        ) == 0
    before = _tree(root)
    yield SimpleNamespace(
        corpus=corpus, manifest=manifest, registry=registry, model=model,
        glyph=sorted(corpus.glob("*.pgm"))[0],
    )
    assert _tree(root) == before, "a test wrote into the shared corpus"


@pytest.fixture
def fails(tmp_path, capsys):
    """The check of one failing call, `fails(argv, code, line)`: main(argv)
    returns `code`, writes nothing to stdout and exactly one line to stderr,
    and leaves the tree under tmp_path as it was. The line is `line`; with
    prefix=True it starts with `line` and the rest is the text of json or
    the csv module. Items of argv may be paths."""
    def check(argv, code, line, prefix=False):
        before = _tree(tmp_path)
        capsys.readouterr()
        assert cli.main([str(arg) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (out, err)
        assert (err.startswith(line) if prefix else err == line + "\n"), err
        assert _tree(tmp_path) == before

    return check
