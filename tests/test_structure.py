"""Design rules read from the package's sources, line by line as grep reads."""
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "poolsim"
PACKAGE_IMPORT = r"(from\s+(\.|poolsim)|import\s+poolsim)"

# (pattern, the only sources with a line that matches it): why
RULES = [
    (r"np\.random\.|default_rng", {"model.py"}),  # only model.substream builds random generators
    (r"^\s+" + PACKAGE_IMPORT, set()),  # no function-level package import
    (r"\.(uniform|gamma|lognormal|normal)\(", set()),  # demand draws go through DemandModel.ppf
    (r"^(from|import)\s+scipy", set()),  # only the functions using scipy import it; simulate never does
    (r"fsum\(.*\.tolist\(\)\)", set()),  # whole-array exact sums go block-wise through exact_sum
    (r"os\.environ|getenv", set()),  # results are a function of (config, seed) alone
    (r"print\(", {"cli.py"}),  # only the command line prints; parsing a config prints nothing
    (r"shape_k\(", {"mechanisms.py"}),  # ppss_rate alone divides the pay rate by the shape
    (r"subsidy_clamp_nonneg", {"config.py"}),  # only parse_config knows the retired key
]


def _lines(path, pattern):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if re.search(pattern, line)]


@pytest.mark.parametrize("pattern, files", RULES)
def test_only_these_sources_match(pattern, files):
    assert {p.name for p in SRC.glob("*.py") if _lines(p, pattern)} == files


# Each module's allowed package imports, lowest layer first; None allows any.
LAYERS = {
    "model": set(),
    "csvio": set(),
    "mechanisms": {"model"},
    "config": {"model"},
    "svgplot": {"csvio"},
    "montecarlo": {"csvio", "mechanisms", "model"},
    "analysis": {"mechanisms", "model", "montecarlo"},
    "engine": {"analysis", "config", "mechanisms", "model"},
    "theorems": {"analysis", "engine", "model"},  # ExperimentConfig alone judges a config
    "cli": None,
    "__init__": None,
}
IMPORT = re.compile(r"^\s*(?:from\s+(?:\.|poolsim\.?)(\w*)\s+import\s+(.*)|import\s+poolsim\.?(\w*))")


def _package_imports(path):
    """The package modules a source imports; `from . import x` counts x,
    and an import this cannot read counts the whole package, "poolsim"."""
    modules = set()
    for line in _lines(path, r"^\s*" + PACKAGE_IMPORT):
        match = IMPORT.match(line)
        if match and (match.group(1) or match.group(3)):
            modules.add(match.group(1) or match.group(3))
        else:
            names = match and match.group(2) and re.findall(r"\w+", match.group(2))
            modules |= set(names or ["poolsim"])
    return modules


@pytest.mark.parametrize("module", [m for m, allowed in LAYERS.items() if allowed is not None])
def test_imports_follow_the_layering(module):
    imports = _package_imports(SRC / f"{module}.py")
    assert imports <= LAYERS[module], imports


def test_layering_names_every_module():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)


def test_tests_name_no_benchmark_path():
    # the tests own their configs (tests/configs/), so the benchmark can
    # change its workloads without changing a test
    paths = json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]
    files = [f for f in (ROOT / "tests").rglob("*") if f.is_file() and "__pycache__" not in f.parts]
    assert paths and not [(f, p) for f in files for p in paths if p.encode() in f.read_bytes()]


@pytest.mark.parametrize("key", ['"lambda"', '"N"'], ids=["lambda", "N"])
def test_platform_key_named_once(key):
    # the two platform keys whose PlatformParams fields have other names
    # (lam, window_N) are spelled only in config's one key table, which
    # parse_config and to_dict both read
    assert sum(len(_lines(p, re.escape(key))) for p in SRC.glob("*.py")) == 1


def test_readme_library_imports_run():
    # README's import block names only what the package exports
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library entry points\n")[1]
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), {})
