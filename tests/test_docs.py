"""Tests for the documentation build and docs/README drift guards."""

from __future__ import annotations

import importlib.util
import pathlib
import re
import shlex

import pytest

from repro.experiments import REGISTRY

REPO_ROOT = pathlib.Path(__file__).parent.parent
README = REPO_ROOT / "README.md"


@pytest.fixture(scope="module")
def docs_build():
    """The ``docs/build.py`` module, imported by path (docs/ is not a
    package)."""
    spec = importlib.util.spec_from_file_location(
        "docs_build", REPO_ROOT / "docs" / "build.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsBuild:
    @pytest.fixture(scope="class")
    def built(self, docs_build, tmp_path_factory):
        out = tmp_path_factory.mktemp("site")
        return docs_build.build(out), out

    def test_strict_build_has_zero_warnings(self, built):
        builder, _ = built
        assert builder.warnings == []

    def test_core_pages_generated(self, built):
        _, out = built
        for page in (
            "index.html",
            "architecture.html",
            "equations.html",
            "api/index.html",
            "api/repro.core.delay.html",
            "api/repro.bus.spec.html",
            "api/repro.analysis.bus.html",
        ):
            assert (out / page).is_file(), f"missing {page}"

    def test_equation_page_covers_every_core_callable(self, built, docs_build):
        """The acceptance criterion, asserted directly: every public
        ``repro.core`` callable is linked from the cross-index."""
        _, out = built
        source = (REPO_ROOT / "docs" / "equations.md").read_text()
        for module_name, names in docs_build.core_public_callables().items():
            for name in names:
                assert f"api/{module_name}.html#{name}" in source, (
                    f"equations.md does not cover {module_name}.{name}"
                )

    def test_api_pages_have_anchors_for_all_exports(self, built):
        _, out = built
        page = (out / "api/repro.core.repeater.html").read_text()
        import repro.core.repeater as mod

        for name in mod.__all__:
            assert f'id="{name}"' in page


class TestDocsBuildGuards:
    def test_link_checker_flags_broken_links(self, docs_build):
        builder = docs_build.Builder()
        builder.add_page("a.html", "a", '<a href="missing.html">x</a>')
        builder.check_links()
        assert any("broken link" in w for w in builder.warnings)

    def test_link_checker_flags_missing_anchor(self, docs_build):
        builder = docs_build.Builder()
        builder.add_page("a.html", "a", '<a href="b.html#nope">x</a>')
        builder.add_page("b.html", "b", '<h1 id="yes">b</h1>')
        builder.check_links()
        assert any("missing" in w and "#nope" in w for w in builder.warnings)

    def test_link_checker_accepts_valid_links(self, docs_build):
        builder = docs_build.Builder()
        builder.add_page(
            "sub/a.html", "a", '<a href="../b.html#yes">x</a>'
        )
        builder.add_page("b.html", "b", '<h1 id="yes">b</h1>')
        builder.check_links()
        assert builder.warnings == []

    def test_coverage_check_flags_missing_function(self, docs_build):
        builder = docs_build.Builder()
        docs_build.check_equation_coverage(builder, "an empty page")
        assert any("propagation_delay" in w for w in builder.warnings)

    def test_markdown_table_and_code(self, docs_build):
        html = docs_build.markdown_to_html(
            "# T\n\n| a | b |\n| - | - |\n| 1 | `x` |\n\n```\nraw <tag>\n```\n"
        )
        assert "<table>" in html and "<th>a</th>" in html
        assert "<code>x</code>" in html
        assert "raw &lt;tag&gt;" in html


class TestReadmeRegistryDrift:
    """The README experiment table must match the live registry."""

    def _readme_table_ids(self) -> set[str]:
        text = README.read_text()
        match = re.search(
            r"## Experiment registry(.*?)(?:\n## |\Z)", text, re.DOTALL
        )
        assert match, "README has no 'Experiment registry' section"
        ids = set()
        for line in match.group(1).splitlines():
            cell = re.match(r"\|\s*(EXP-[A-Z0-9]+)\s*\|", line)
            if cell:
                ids.add(cell.group(1))
        return ids

    def test_readme_table_matches_registry(self):
        readme_ids = self._readme_table_ids()
        assert readme_ids == set(REGISTRY), (
            f"README experiment table drifted from the registry: "
            f"missing {sorted(set(REGISTRY) - readme_ids)}, "
            f"stale {sorted(readme_ids - set(REGISTRY))}"
        )

    def test_readme_mentions_docs_build(self):
        text = README.read_text()
        assert "docs/build.py" in text, (
            "README should document the docs-build workflow"
        )


class TestNetlistDocCommands:
    """Every command of ``docs/netlist.md``'s "Command line" block runs."""

    @staticmethod
    def _commands() -> list[list[str]]:
        text = (REPO_ROOT / "docs" / "netlist.md").read_text()
        match = re.search(r"## Command line\s*```\n(.*?)```", text, re.DOTALL)
        assert match, "docs/netlist.md has no 'Command line' block"
        block = match.group(1).replace("\\\n", " ")
        return [
            shlex.split(line) for line in block.splitlines() if line.strip()
        ]

    def test_every_command_exits_zero(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        commands = self._commands()
        assert {tuple(argv[:3]) for argv in commands} == {
            ("python", "-m", "repro")
        }
        # Repository paths resolve from the root; outputs land in tmp_path.
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            args = [
                str(REPO_ROOT / arg) if arg.startswith("tests/") else arg
                for arg in argv[3:]
            ]
            status = main(args)
            err = capsys.readouterr().err
            assert status == 0, f"{shlex.join(argv)}: {err}"
