#!/usr/bin/env python3
"""Self-test for am_lint.py (registered as ctest `lint.am_lint_selftest`).

Every rule gets at least one fixture that must pass and one seeded
violation that must fail, so a lint rule that silently stops matching
breaks CI instead of rotting. The final test runs the real checker over
the real repository and requires it clean — the same gate the dedicated
CI job applies, but reachable via plain `ctest`.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import am_lint  # noqa: E402

REPO = Path(__file__).resolve().parent.parent


def rules(found):
    return [rule for _, rule, _ in found]


class StripperTest(unittest.TestCase):
    def test_strips_comments_and_strings(self):
        text = 'int a; // rename(x, y)\nconst char* s = "rename(a,b)";\n'
        code = am_lint.strip_comments_and_strings(text)
        self.assertNotIn("rename", code)
        self.assertEqual(text.count("\n"), code.count("\n"))

    def test_keeps_strings_when_asked(self):
        text = 'f("%f"); /* %g */'
        code = am_lint.strip_comments_and_strings(text, keep_strings=True)
        self.assertIn('"%f"', code)
        self.assertNotIn("%g", code)

    def test_digit_separator_is_not_a_char_literal(self):
        text = "int n = get(20'000);\nrename(p, q);\nchar c = 'x';\n"
        code = am_lint.strip_comments_and_strings(text)
        self.assertIn("20'000", code)
        self.assertNotIn("x", code)
        self.assertEqual(rules(am_lint.check_raw_rename("f.cpp", text)),
                         ["AM001"])

    def test_block_comment_preserves_line_numbers(self):
        text = "a\n/* x\ny */\nrename(p, q);\n"
        code = am_lint.strip_comments_and_strings(text)
        self.assertEqual(am_lint.check_raw_rename("f.cpp", text)[0][0], 4)
        self.assertEqual(text.count("\n"), code.count("\n"))


class RawRenameTest(unittest.TestCase):
    def test_passes_clean_file(self):
        ok = "void f() { am::atomic_write_file(path, body); }\n"
        self.assertEqual(am_lint.check_raw_rename("src/x.cpp", ok), [])

    def test_passes_comment_mention(self):
        ok = "// the store uses tmp+rename(2) via atomic_file\nint x;\n"
        self.assertEqual(am_lint.check_raw_rename("src/x.cpp", ok), [])

    def test_fails_raw_rename(self):
        bad = "void f() { std::filesystem::rename(tmp, path); }\n"
        self.assertEqual(rules(am_lint.check_raw_rename("src/x.cpp", bad)),
                         ["AM001"])

    def test_fails_renameat(self):
        bad = "void f() { ::renameat(a, b, c, d); }\n"
        self.assertEqual(rules(am_lint.check_raw_rename("src/x.cpp", bad)),
                         ["AM001"])

    def test_allows_atomic_file_itself(self):
        bad = "void f() { std::rename(tmp, path); }\n"
        self.assertEqual(
            am_lint.check_raw_rename("src/common/atomic_file.cpp", bad), [])


class DeterminismTest(unittest.TestCase):
    def test_passes_deterministic_code(self):
        ok = ("#include \"common/rng.hpp\"\n"
              "void f() { am::Rng rng(seed); sim_time += latency; }\n"
              "double access_time(int x);\n")
        self.assertEqual(am_lint.check_determinism("src/sim/x.cpp", ok), [])

    def test_fails_each_forbidden_source(self):
        for bad, what in [
            ("int r = std::rand();", "rand"),
            ("std::random_device rd;", "random_device"),
            ("auto t = std::chrono::system_clock::now();", "system_clock"),
            ("auto t = std::chrono::steady_clock::now();", "steady_clock"),
            ("time_t t = time(nullptr);", "time()"),
            ("clock_gettime(CLOCK_MONOTONIC, &ts);", "clock_gettime"),
        ]:
            found = am_lint.check_determinism("src/model/x.cpp", bad)
            self.assertEqual(rules(found), ["AM002"], msg=what)


class HexfloatTest(unittest.TestCase):
    OK = ('static const char* k = "%a";\n'
          'std::snprintf(buf, sizeof(buf), "%a", v);\n'
          'out += std::to_string(count);\n')

    def test_passes_hexfloat_file(self):
        self.assertEqual(am_lint.check_hexfloat("src/x.cpp", self.OK), [])

    def test_fails_decimal_printf(self):
        bad = self.OK + 'std::snprintf(buf, sizeof(buf), "%.17g", v);\n'
        self.assertEqual(rules(am_lint.check_hexfloat("src/x.cpp", bad)),
                         ["AM003"])

    def test_fails_setprecision(self):
        bad = self.OK + "out << std::setprecision(17) << v;\n"
        self.assertEqual(rules(am_lint.check_hexfloat("src/x.cpp", bad)),
                         ["AM003"])

    def test_fails_when_helpers_vanish(self):
        found = am_lint.check_hexfloat("src/x.cpp", "int x;\n")
        self.assertEqual(rules(found), ["AM003"])

    FORMAT = ('#include "common/line_doc.hpp"\n'
              'doc.row("cost", lease.cost);\n')

    def test_passes_format_file_through_the_codec(self):
        self.assertEqual(am_lint.check_hexfloat("src/x.cpp", self.FORMAT,
                                                codec=False), [])

    def test_fails_format_file_printing_decimal(self):
        bad = self.FORMAT + 'std::snprintf(buf, sizeof(buf), "%f", v);\n'
        self.assertEqual(rules(am_lint.check_hexfloat("src/x.cpp", bad,
                                                      codec=False)),
                         ["AM003"])

    def test_fails_format_file_without_the_codec(self):
        bad = 'doc.row("cost", lease.cost);\n'
        self.assertEqual(rules(am_lint.check_hexfloat("src/x.cpp", bad,
                                                      codec=False)),
                         ["AM003"])


MACHINE_FIXTURE = """
struct MachineConfig {
  std::string name = "X";
  std::uint32_t nodes = 1;
  double frequency_ghz = 2.6;
  SetHash set_hash = SetHash::kMask;
  std::uint32_t total() const { return nodes * 2; }
};
"""


def fingerprint_fixture(mixes):
    body = "".join(f"      .mix(m.{f})\n" for f in mixes)
    return ("std::string machine_fingerprint(const sim::MachineConfig& m) {\n"
            "  Fingerprint fp;\n  fp.mix(kResultEpoch)\n" + body +
            "      ;\n  return fp.hex();\n}\n")


class FingerprintCoverageTest(unittest.TestCase):
    FULL = ["name", "nodes", "frequency_ghz", "set_hash"]

    def test_passes_full_coverage(self):
        store = fingerprint_fixture(self.FULL)
        self.assertEqual(
            am_lint.check_fingerprint_coverage(MACHINE_FIXTURE, store), [])

    def test_fails_unmixed_knob(self):
        store = fingerprint_fixture(["name", "nodes", "set_hash"])
        found = am_lint.check_fingerprint_coverage(MACHINE_FIXTURE, store)
        self.assertEqual(rules(found), ["AM004"])
        self.assertIn("frequency_ghz", found[0][2])

    def test_fails_unmixed_set_hash(self):
        # The set-index hash changes placement, so it must key the
        # store — dropping its mix is an AM004 violation.
        store = fingerprint_fixture(["name", "nodes", "frequency_ghz"])
        found = am_lint.check_fingerprint_coverage(MACHINE_FIXTURE, store)
        self.assertEqual(rules(found), ["AM004"])
        self.assertIn("set_hash", found[0][2])

    def test_methods_are_not_fields(self):
        fields = am_lint.machine_config_fields(MACHINE_FIXTURE)
        self.assertEqual(fields, ["name", "nodes", "frequency_ghz",
                                  "set_hash"])

    def test_parses_real_machine_hpp(self):
        fields = am_lint.machine_config_fields(
            (REPO / "src/sim/machine.hpp").read_text())
        for expect in ("name", "l1", "dram", "mem_backend", "set_hash",
                       "prefetcher", "mem_bandwidth_bytes_per_sec"):
            self.assertIn(expect, fields)
        self.assertNotIn("total_sockets", fields)


PROBE_CONFIG_FIXTURE = """
struct ProbeConfig {
  std::uint64_t array_bytes = 8 * 1024;  // each array
  /// Passes over the arrays.
  std::uint32_t passes = 3;
  void validate() const;
};
"""


def probe_name_fixture(fields):
    reads = " + ".join(f"std::to_string(c.{f})" for f in fields) or '""'
    return ("namespace {\n"
            "std::string probe_name(const ProbeConfig& c) {\n"
            f"  return \"calib \" + {reads};\n"
            "}\n"
            "}  // namespace\n"
            "Result run() { return run_probe(probe_name(config)); }\n")


class ProbeKeyCoverageTest(unittest.TestCase):
    def check(self, fields):
        return am_lint.check_probe_key_coverage(
            PROBE_CONFIG_FIXTURE, "ProbeConfig", probe_name_fixture(fields),
            "probe_name", "c")

    def test_passes_full_coverage(self):
        self.assertEqual(self.check(["array_bytes", "passes"]), [])

    def test_fails_unread_field(self):
        found = self.check(["array_bytes"])
        self.assertEqual(rules(found), ["AM007"])
        self.assertIn("ProbeConfig.passes", found[0][2])

    def test_a_comment_or_call_site_does_not_count(self):
        # The field named in a comment, and the function named at a call
        # site, are not the definition reading it.
        impl = ("// reads c.passes\n" + probe_name_fixture(["array_bytes"]) +
                "void g() { probe_name(c.passes); }\n")
        found = am_lint.check_probe_key_coverage(
            PROBE_CONFIG_FIXTURE, "ProbeConfig", impl, "probe_name", "c")
        self.assertEqual(rules(found), ["AM007"])

    def test_fails_when_the_function_is_gone(self):
        found = am_lint.check_probe_key_coverage(
            PROBE_CONFIG_FIXTURE, "ProbeConfig", "int x;\n", "probe_name",
            "c")
        self.assertEqual(rules(found), ["AM007"])
        self.assertIn("could not find", found[0][2])

    def test_parses_the_real_configs(self):
        for header, struct, impl, func, _ in am_lint.PROBE_KEY_COVERAGE:
            self.assertTrue(
                am_lint.struct_fields((REPO / header).read_text(), struct),
                struct)
            code = am_lint.strip_comments_and_strings(
                (REPO / impl).read_text())
            self.assertIsNotNone(am_lint.function_body(code, func), func)


class SyscallReturnTest(unittest.TestCase):
    def test_passes_consumed_and_void_cast(self):
        ok = ("void f() {\n"
              "  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,\n"
              "                   sizeof(one)) != 0)\n"
              "    throw_errno(\"setsockopt\");\n"
              "  (void)::close(fd);\n"
              "  while (waitpid(pid, &ws, 0) < 0 && errno == EINTR) {\n"
              "  }\n"
              "}\n")
        self.assertEqual(am_lint.check_syscall_returns("src/x.cpp", ok), [])

    def test_passes_method_named_like_syscall(self):
        ok = "void Socket::close() { sock.close(); other->kill(); }\n"
        self.assertEqual(am_lint.check_syscall_returns("src/x.cpp", ok), [])

    def test_fails_bare_syscall_statement(self):
        bad = "void f() {\n  ::close(fd);\n}\n"
        found = am_lint.check_syscall_returns("src/x.cpp", bad)
        self.assertEqual(rules(found), ["AM005"])
        self.assertEqual(found[0][0], 2)

    def test_fails_bare_setsockopt_multiline(self):
        bad = ("void f() {\n"
               "  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO,\n"
               "               &tv, sizeof(tv));\n"
               "}\n")
        self.assertEqual(rules(am_lint.check_syscall_returns("x.cpp", bad)),
                         ["AM005"])


class WorkerContractTest(unittest.TestCase):
    ENTRY = ("int run_worker_entry(int argc, char** argv, const std::string& n,\n"
             "                     const WorkerBody& body) {\n"
             "  try {\n"
             "    if (bad) { return 1; }\n"
             "    return body(cli, flags);\n"
             "  } catch (const std::invalid_argument& e) {\n"
             "    return kWorkerExitUsage;\n"
             "  } catch (const std::exception& e) {\n"
             "    return kWorkerExitRunFailed;\n"
             "  }\n"
             "}\n")

    def test_passes_the_shared_entry(self):
        self.assertEqual(
            am_lint.check_worker_contract("src/measure/lease.cpp",
                                          self.ENTRY), [])

    def test_passes_comparisons_and_comments(self):
        ok = ("// a copy would `return kWorkerExitUsage;`\n"
              "if (status.code == kWorkerExitUsage) abort = true;\n"
              "return am::measure::kWorkerExitOk;\n")
        self.assertEqual(
            am_lint.check_worker_contract("examples/x.cpp", ok), [])

    def test_fails_a_copied_contract(self):
        bad = ("int main(int argc, char** argv) {\n"
               "  try {\n"
               "    return run(argc, argv);\n"
               "  } catch (const std::invalid_argument& e) {\n"
               "    return am::measure::kWorkerExitUsage;\n"
               "  } catch (const std::exception& e) {\n"
               "    return measure::kWorkerExitRunFailed;\n"
               "  }\n"
               "}\n")
        found = am_lint.check_worker_contract("examples/x.cpp", bad)
        self.assertEqual([(line, rule) for line, rule, _ in found],
                         [(5, "AM006"), (7, "AM006")])

    def test_fails_a_return_in_a_body_passed_to_the_entry(self):
        bad = ("int main(int argc, char** argv) {\n"
               "  return run_worker_entry(argc, argv, \"x\",\n"
               "                          [](const Cli& c, const F& f) {\n"
               "    return kWorkerExitUsage;\n"
               "  });\n"
               "}\n")
        found = am_lint.check_worker_contract("bench/x.cpp", bad)
        self.assertEqual([(line, rule) for line, rule, _ in found],
                         [(4, "AM006")])

    def test_fails_a_return_after_the_entry(self):
        bad = self.ENTRY + "int other() { return kWorkerExitUsage; }\n"
        found = am_lint.check_worker_contract("src/measure/lease.cpp", bad)
        self.assertEqual([(line, rule) for line, rule, _ in found],
                         [(12, "AM006")])


class WholeRepoTest(unittest.TestCase):
    def test_repo_is_clean(self):
        violations = am_lint.lint_repo(REPO)
        self.assertEqual(
            violations, [],
            msg="\n".join(f"{p}:{l}: {r}: {m}" for p, l, r, m in violations))

    def test_seeded_violation_is_caught(self):
        # End-to-end proof the repo driver actually reports: lint a copy
        # of the tree layout where one file has a seeded violation.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src/common").mkdir(parents=True)
            shutil.copy(REPO / "src/common/socket.cpp",
                        root / "src/common/socket.cpp")
            bad = root / "src/common/subprocess.cpp"
            bad.write_text("void f() {\n  ::kill(pid, SIGKILL);\n}\n")
            found = am_lint.lint_repo(root)
            self.assertEqual([(p, l, r) for p, l, r, _ in found],
                             [("src/common/subprocess.cpp", 2, "AM005")])


if __name__ == "__main__":
    unittest.main()
