"""Tests for the project lint engine (repro.analysis).

One positive + one suppressed case per rule, engine mechanics (syntax
errors, rule selection, CLI driver), and the self-lint gate asserting the
repository's own ``src/`` tree is clean.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_file, lint_paths, main, suppressed_rules

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def lint_snippet(tmp_path, code, name="snippet.py", select=None):
    path = tmp_path / name
    path.write_text(code, encoding="utf-8")
    return lint_file(path, select=select)


def rule_ids(violations):
    return [v.rule for v in violations]


class TestRNG001:
    def test_flags_global_state_call(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "x = np.random.normal(size=3)\n",
        )
        assert rule_ids(violations) == ["RNG001"]
        assert violations[0].line == 2

    def test_flags_legacy_import(self, tmp_path):
        violations = lint_snippet(tmp_path, "from numpy.random import rand\n")
        assert rule_ids(violations) == ["RNG001"]

    def test_allows_generator_api(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal(size=3)\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "x = np.random.normal(size=3)  # repro: noqa[RNG001]\n",
        )
        assert violations == []


class TestEXC001:
    def test_flags_silent_broad_handler(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "try:\n    work()\nexcept Exception:\n    pass\n",
        )
        assert rule_ids(violations) == ["EXC001"]

    def test_flags_bare_except(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "try:\n    work()\nexcept:\n    result = None\n",
        )
        assert rule_ids(violations) == ["EXC001"]

    def test_reraise_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "try:\n    work()\nexcept Exception as exc:\n    raise\n",
        )
        assert violations == []

    def test_routing_through_taxonomy_is_fine(self, tmp_path):
        # The handler does not raise, so only naming a taxonomy type clears it.
        violations = lint_snippet(
            tmp_path,
            "import logging\n"
            "from repro.runtime.errors import GenerationFaultError\n"
            "try:\n    work()\n"
            "except Exception as exc:\n"
            "    logging.warning('%s', GenerationFaultError(str(exc)))\n",
        )
        assert violations == []

    def test_naming_a_type_outside_the_taxonomy_is_flagged(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import logging\n"
            "try:\n    work()\n"
            "except Exception as exc:\n"
            "    logging.warning('%s', ValueError(str(exc)))\n",
        )
        assert rule_ids(violations) == ["EXC001"]

    def test_narrow_handler_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "try:\n    work()\nexcept ValueError:\n    pass\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "try:\n    work()\nexcept Exception:  # repro: noqa[EXC001]\n    pass\n",
        )
        assert violations == []


class TestTEN001:
    def test_flags_data_mutation(self, tmp_path):
        violations = lint_snippet(
            tmp_path, "def f(t):\n    t.data[0] = 1.0\n"
        )
        assert rule_ids(violations) == ["TEN001"]

    def test_flags_grad_assignment(self, tmp_path):
        violations = lint_snippet(
            tmp_path, "def f(t, g):\n    t.grad = g\n"
        )
        assert rule_ids(violations) == ["TEN001"]

    def test_exempt_inside_repro_nn(self, tmp_path):
        nn_dir = tmp_path / "repro" / "nn"
        nn_dir.mkdir(parents=True)
        path = nn_dir / "optim.py"
        path.write_text("def f(t):\n    t.data[0] = 1.0\n", encoding="utf-8")
        assert lint_file(path) == []

    def test_own_attribute_definition_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "class Box:\n    def __init__(self, data):\n        self.data = data\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "def f(t):\n    t.grad[...] = 0.0  # repro: noqa[TEN001]\n",
        )
        assert violations == []


class TestSEED001:
    def test_flags_seedless_entry_point(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def make_data():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.normal(size=4)\n",
        )
        assert rule_ids(violations) == ["SEED001"]

    def test_seed_parameter_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def make_data(seed=0):\n"
            "    return np.random.default_rng(seed).normal(size=4)\n",
        )
        assert violations == []

    def test_self_seed_attribute_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "class M:\n"
            "    def __post_init__(self):\n"
            "        self.rng = np.random.default_rng(self.seed)\n",
        )
        assert violations == []

    def test_flags_module_level_rng(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\nRNG = np.random.default_rng(0)\n",
        )
        assert rule_ids(violations) == ["SEED001"]

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def make_data():\n"
            "    return np.random.default_rng().normal(size=4)  # repro: noqa[SEED001]\n",
        )
        assert violations == []


class TestFLT001:
    def test_flags_tensor_data_comparison(self, tmp_path):
        violations = lint_snippet(
            tmp_path, "def same(a, b):\n    return a.data == b.data\n"
        )
        assert rule_ids(violations) == ["FLT001"]

    def test_flags_numpy_call_comparison(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def f(x, y):\n    return np.abs(x) != y\n",
        )
        assert rule_ids(violations) == ["FLT001"]

    def test_scalar_reduction_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def f(x):\n    return np.sum(x) == 0\n",
        )
        assert violations == []

    def test_ordering_comparison_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def f(x):\n    return np.abs(x) > 0\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "def f(ids):\n"
            "    return np.diff(ids) != 0  # repro: noqa[FLT001]\n",
        )
        assert violations == []


class TestGRD001:
    def test_flags_requires_grad_inside_no_grad(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "from repro import nn\n"
            "def f(x):\n"
            "    with nn.no_grad():\n"
            "        t = nn.Tensor(x, requires_grad=True)\n"
            "    return t\n",
        )
        assert rule_ids(violations) == ["GRD001"]

    def test_flags_attribute_assignment(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "from repro.nn import no_grad\n"
            "def f(t):\n"
            "    with no_grad():\n"
            "        t.requires_grad = True\n",
        )
        assert rule_ids(violations) == ["GRD001"]

    def test_outside_no_grad_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "from repro import nn\n"
            "def f(x):\n"
            "    return nn.Tensor(x, requires_grad=True)\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "from repro import nn\n"
            "def f(x):\n"
            "    with nn.no_grad():\n"
            "        return nn.Tensor(x, requires_grad=True)  # repro: noqa[GRD001]\n",
        )
        assert violations == []


class TestRTY001:
    def _serving_file(self, tmp_path, code):
        package = tmp_path / "repro" / "serving"
        package.mkdir(parents=True)
        path = package / "module.py"
        path.write_text(code, encoding="utf-8")
        return lint_file(path)

    def test_flags_time_sleep_in_serving(self, tmp_path):
        violations = self._serving_file(
            tmp_path,
            "import time\n\n\ndef cool_down():\n    time.sleep(1.0)\n",
        )
        assert rule_ids(violations) == ["RTY001"]
        assert violations[0].line == 5

    def test_flags_wall_clock_read_in_serving(self, tmp_path):
        violations = self._serving_file(
            tmp_path,
            "import time\n\n\ndef now():\n    return time.time()\n",
        )
        assert rule_ids(violations) == ["RTY001"]

    def test_flags_sleep_import_in_serving(self, tmp_path):
        violations = self._serving_file(
            tmp_path, "from time import sleep\n"
        )
        assert rule_ids(violations) == ["RTY001"]

    def test_outside_serving_is_fine(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import time\n\n\ndef cool_down():\n    time.sleep(1.0)\n",
        )
        assert "RTY001" not in rule_ids(violations)

    def test_injectable_contract_is_fine(self, tmp_path):
        violations = self._serving_file(
            tmp_path,
            "import time\n"
            "from repro.runtime.retry import REAL_SLEEP\n"
            "\n"
            "\n"
            "def make(clock=time.monotonic, sleep=REAL_SLEEP):\n"
            "    return clock, sleep\n",
        )
        assert violations == []

    def test_suppressed(self, tmp_path):
        violations = self._serving_file(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    time.sleep(0.1)  # repro: noqa[RTY001]\n",
        )
        assert violations == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        violations = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(violations) == ["E999"]

    def test_blanket_noqa_suppresses_all(self, tmp_path):
        violations = lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "x = np.random.normal(size=3)  # repro: noqa\n",
        )
        assert violations == []

    def test_select_restricts_rules(self, tmp_path):
        code = (
            "import numpy as np\n"
            "x = np.random.normal(size=3)\n"
            "try:\n    work()\nexcept Exception:\n    pass\n"
        )
        assert rule_ids(lint_snippet(tmp_path, code, select=["EXC001"])) == ["EXC001"]
        assert len(lint_snippet(tmp_path, code)) == 2

    def test_suppressed_rules_parsing(self):
        assert suppressed_rules("x = 1") is None
        assert suppressed_rules("x = 1  # repro: noqa") == set()
        assert suppressed_rules("x = 1  # repro: noqa[RNG001, EXC001]") == {
            "RNG001",
            "EXC001",
        }

    def test_violation_format_has_location_and_rule(self, tmp_path):
        violation = lint_snippet(
            tmp_path, "import numpy as np\nx = np.random.rand(3)\n"
        )[0]
        text = violation.format()
        assert "snippet.py:2:" in text and "RNG001" in text

    def test_registry_has_all_documented_rules(self):
        assert {
            "RNG001", "EXC001", "TEN001", "SEED001", "FLT001", "GRD001", "RTY001"
        } <= set(RULES)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nx = np.random.rand(2)\n", encoding="utf-8")

        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out and "dirty.py:2" in out
        assert main(["--list-rules"]) == 0
        assert main([str(dirty), "--select", "NOPE001"]) == 2
        assert main([str(tmp_path / "missing.txt")]) == 2


class TestSelfLint:
    def test_src_tree_is_clean(self):
        violations = lint_paths([SRC_DIR])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_seeded_violation_is_caught_in_src_style_tree(self, tmp_path):
        # End-to-end guard for the CI gate: a violation planted in a tree
        # must surface with rule ID and file:line, and flip the exit code.
        bad = tmp_path / "planted.py"
        bad.write_text(
            "import numpy as np\n\n\ndef entry():\n    np.random.seed(0)\n",
            encoding="utf-8",
        )
        assert main([str(tmp_path)]) == 1
