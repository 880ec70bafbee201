#!/usr/bin/env python3
"""Seeded-violation self-tests for simscope.

Each analysis behavior gets a fixture tree that MUST produce a finding
and a twin that must stay quiet — so a refactor of the analyzer that
silently stops detecting a class of annotation gap fails CI, exactly
like simlint's selftest does for the determinism rules. Run directly or
via ctest (`simscope_selftest`).
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import simscope  # noqa: E402


def run_scope(files, extra_args=None, allowlist=""):
    """Runs simscope.main over a temp tree; returns (exit_code, output)."""
    tmp = tempfile.mkdtemp(prefix="simscope_selftest_")
    try:
        for rel, text in files.items():
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write(text)
        allow_path = os.path.join(tmp, "allow.txt")
        with open(allow_path, "w") as f:
            f.write(allowlist)
        argv = ["--repo-root", tmp, "--allowlist", allow_path,
                "src"] + (extra_args or [])
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = simscope.main(argv)
        except SystemExit as e:
            code = e.code
        return code, buf.getvalue()
    finally:
        shutil.rmtree(tmp)


WIDGET_H = """\
class Widget {
 public:
  Widget();
  void Poke();
  void Prod();

 private:
  int dummy_ = 0;
  int count_ = 0;
  sim::RaceTag race_tag_;
};
"""

TWO_ROOT_CC = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] { count_ = 1; });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] { count_ = 2; });
}
"""


class S1DetectionTest(unittest.TestCase):
    def test_two_context_unannotated_write_fires(self):
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": TWO_ROOT_CC})
        self.assertEqual(code, 1)
        self.assertIn("S1", out)
        self.assertIn("Widget::count_", out)

    def test_single_context_write_is_clean(self):
        one_root = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] { count_ = 1; });
}
void Widget::Prod() {}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": one_root})
        self.assertEqual(code, 0, out)

    def test_annotated_writes_are_clean(self):
        annotated = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    count_ = 1;
  });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    count_ = 2;
  });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": annotated})
        self.assertEqual(code, 0, out)

    def test_one_uncovered_path_still_fires(self):
        # One of the two racing contexts annotated is not enough: the
        # diff is against ALL write paths.
        half = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    count_ = 1;
  });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] { count_ = 2; });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": half})
        self.assertEqual(code, 1)
        self.assertIn("Widget::count_", out)

    def test_entry_annotation_covers_callee_closure(self):
        # An annotation at the region entry covers writes in functions
        # it (transitively) calls — the region-closure coverage model.
        closure = """\
#include "fixture.h"
void Widget::Bump() { count_ += 1; }
void Widget::Poke() {
  sim_->Schedule(10, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    Bump();
  });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    Bump();
  });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": closure})
        self.assertEqual(code, 0, out)

    def test_provenance_chain_names_the_helper(self):
        helper = """\
#include "fixture.h"
void Widget::Bump() { count_ += 1; }
void Widget::Poke() {
  sim_->Schedule(10, [this] { Bump(); });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] { Bump(); });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": helper})
        self.assertEqual(code, 1)
        self.assertIn("Widget::Bump", out)

    def test_receiver_typed_write_resolves_to_owner_class(self):
        # A write through a typed pointer (`w->count_`) must attribute
        # to the pointee's class, not the writer's.
        cross = """\
#include "fixture.h"
class Driver {
 public:
  void Kick(Widget* w);
  void Jolt(Widget* w);
};
void Driver::Kick(Widget* w) {
  sim_->Schedule(10, [w] { w->count_ = 1; });
}
void Driver::Jolt(Widget* w) {
  sim_->Schedule(20, [w] { w->count_ = 2; });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": cross})
        self.assertEqual(code, 1)
        self.assertIn("Widget::count_", out)
        self.assertNotIn("Driver::count_", out)

    def test_racy_field_is_clean(self):
        racy_h = WIDGET_H.replace("int count_ = 0;",
                                  'sim::Racy<int> count_{"Widget.count"};')
        racy_cc = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] { count_ = 1; });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] { count_ = 2; });
}
"""
        code, out = run_scope({"src/fixture.h": racy_h,
                               "src/fixture.cc": racy_cc})
        self.assertEqual(code, 0, out)

    def test_constructor_writes_are_skipped(self):
        # Construction precedes publication; ctor writes cannot race
        # even when the ctor is reachable from several contexts.
        ctor = """\
#include "fixture.h"
Widget::Widget() { count_ = 7; }
Widget MakeWidget() { return Widget(); }
void Widget::Poke() {
  sim_->Schedule(10, [this] { MakeWidget(); });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] { MakeWidget(); });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": ctor})
        self.assertEqual(code, 0, out)

    def test_sync_algorithm_lambda_is_not_a_root(self):
        # A comparator runs synchronously inside its enclosing event; it
        # must not count as a second callback context.
        sync = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] { count_ = 1; });
}
void Widget::Prod() {
  std::sort(v.begin(), v.end(), [this](int a, int b) {
    count_ = a;
    return a < b;
  });
}
"""
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": sync})
        self.assertEqual(code, 0, out)


def helper_returning(return_type, value):
    """Two roots reach a write inside a helper whose return type is
    `return_type`."""
    return f"""\
#include "fixture.h"
{return_type} Widget::Bump() {{
  count_ += 1;
  return {value};
}}
void Widget::Poke() {{
  sim_->Schedule(10, [this] {{ Bump(); }});
}}
void Widget::Prod() {{
  sim_->Schedule(20, [this] {{ Bump(); }});
}}
"""


class ReturnTypeShapeTest(unittest.TestCase):
    """A definition is found whatever its return type ends in; a parser
    that takes `Result<T> F(` for an expression loses F's writes."""

    def assert_bump_is_seen(self, return_type, value):
        code, out = run_scope({"src/fixture.h": WIDGET_H,
                               "src/fixture.cc": helper_returning(
                                   return_type, value)})
        self.assertEqual(code, 1, out)
        self.assertIn("Widget::count_", out)
        self.assertIn("Widget::Bump", out)

    def test_template_return_type_is_a_definition(self):
        self.assert_bump_is_seen("Result<std::pair<int, int>>", "{}")

    def test_pointer_return_type_is_a_definition(self):
        self.assert_bump_is_seen("const Widget*", "this")

    def test_reference_return_type_is_a_definition(self):
        self.assert_bump_is_seen("Widget&", "*this")


class SuppressionTest(unittest.TestCase):
    def test_inline_allow_with_reason_suppresses(self):
        h = WIDGET_H.replace(
            "  int count_ = 0;",
            "  // simscope:allow(S1): adjudicated by the epoch guard\n"
            "  int count_ = 0;")
        code, out = run_scope({"src/fixture.h": h,
                               "src/fixture.cc": TWO_ROOT_CC})
        self.assertEqual(code, 0, out)

    def test_inline_allow_without_reason_is_a_violation(self):
        h = WIDGET_H.replace(
            "  int count_ = 0;",
            "  // simscope:allow(S1)\n"
            "  int count_ = 0;")
        code, out = run_scope({"src/fixture.h": h,
                               "src/fixture.cc": TWO_ROOT_CC})
        self.assertEqual(code, 1)
        self.assertIn("without a reason", out)

    def test_stale_inline_allow_is_a_violation(self):
        # The allow sits on a line with nothing to suppress.
        h = WIDGET_H.replace(
            "  int dummy_ = 0;",
            "  // simscope:allow(S1): nothing here needs this\n"
            "  int dummy_ = 0;")
        annotated = TWO_ROOT_CC.replace(
            "[this] { count_ = 1; }",
            "[this] {\n    DPDPU_SIM_ACCESS(race_tag_, \"Widget\", 0,\n"
            "                     sim::AccessKind::kCommutativeWrite);\n"
            "    count_ = 1;\n  }").replace(
            "[this] { count_ = 2; }",
            "[this] {\n    DPDPU_SIM_ACCESS(race_tag_, \"Widget\", 0,\n"
            "                     sim::AccessKind::kCommutativeWrite);\n"
            "    count_ = 2;\n  }")
        code, out = run_scope({"src/fixture.h": h,
                               "src/fixture.cc": annotated})
        self.assertEqual(code, 1)
        self.assertIn("suppresses nothing", out)

    def test_allowlist_entry_suppresses(self):
        code, out = run_scope(
            {"src/fixture.h": WIDGET_H, "src/fixture.cc": TWO_ROOT_CC},
            allowlist="src/fixture.h S1:Widget::count_ epoch guard "
                      "adjudicates the interleavings\n")
        self.assertEqual(code, 0, out)

    def test_stale_allowlist_entry_is_a_violation(self):
        one_root = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] { count_ = 1; });
}
void Widget::Prod() {}
"""
        code, out = run_scope(
            {"src/fixture.h": WIDGET_H, "src/fixture.cc": one_root},
            allowlist="src/fixture.h S1:Widget::count_ was racy once\n")
        self.assertEqual(code, 1)
        self.assertIn("stale", out.lower())

    def test_allowlist_entry_without_reason_is_rejected(self):
        code, out = run_scope(
            {"src/fixture.h": WIDGET_H, "src/fixture.cc": TWO_ROOT_CC},
            allowlist="src/fixture.h S1:Widget::count_\n")
        self.assertNotEqual(code, 0)


ANNOTATED_CC = """\
#include "fixture.h"
void Widget::Poke() {
  sim_->Schedule(10, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    count_ = 1;
  });
}
void Widget::Prod() {
  sim_->Schedule(20, [this] {
    DPDPU_SIM_ACCESS(race_tag_, "Widget", 0,
                     sim::AccessKind::kCommutativeWrite);
    count_ = 2;
  });
}
"""


class XcheckTest(unittest.TestCase):
    def run_xcheck(self, observed_lines, allowlist=""):
        tmp = tempfile.mkdtemp(prefix="simscope_cov_")
        try:
            cov = os.path.join(tmp, "coverage.txt")
            with open(cov, "w") as f:
                f.write("".join(line + "\n" for line in observed_lines))
            return run_scope({"src/fixture.h": WIDGET_H,
                              "src/fixture.cc": ANNOTATED_CC},
                             extra_args=["--xcheck", "--coverage", cov],
                             allowlist=allowlist)
        finally:
            shutil.rmtree(tmp)

    def test_dead_annotation_fires_s2(self):
        code, out = self.run_xcheck([])
        self.assertEqual(code, 1)
        self.assertIn("S2", out)
        self.assertIn("Widget", out)

    def test_observed_annotation_is_clean(self):
        code, out = self.run_xcheck(["Widget"])
        self.assertEqual(code, 0, out)

    def test_s2_allowlist_entry_suppresses(self):
        code, out = self.run_xcheck(
            [],
            allowlist="src/fixture.cc S2:Widget only exercised by the "
                      "hardware-in-the-loop rig\n")
        self.assertEqual(code, 0, out)

    def test_missing_coverage_file_is_an_error(self):
        code, out = run_scope(
            {"src/fixture.h": WIDGET_H, "src/fixture.cc": ANNOTATED_CC},
            extra_args=["--xcheck", "--coverage", "/nonexistent/cov.txt"])
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
