// Golden digest of the semantic analyzer's output. Every report the
// analyzer hands out is rendered field by field — syntactic verdict,
// each diagnostic (severity, code, line, column, pass id, message,
// fix-it), the error trace, the entry resource summary and the lowered
// circuit's digest — and the renderings are hashed. The digests were
// recorded before the front end and the fact tables were reworked for
// speed; any change to what the analyzer reports moves them.
//
// Two inputs are pinned: every pass report of perfbench's eval shape at
// two seeds (the generated programs the pipeline really analyzes), and
// the analyzer corpus (gold programs plus the fuzz sweep's corrupted
// sources) under three analyzer configurations.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "agents/semantic_agent.hpp"
#include "agents/topology.hpp"
#include "common/rng.hpp"

#include "analyzer_corpus.hpp"

namespace qcgen {
namespace {

using agents::SemanticAnalyzerAgent;
using agents::StaticReport;

void append_report(const StaticReport& report, std::string& out) {
  out += report.syntactic_ok ? "ok" : "bad";
  for (const qasm::Diagnostic& d : report.diagnostics) {
    out += " {";
    out += d.severity == qasm::Severity::kError ? "E " : "W ";
    out += qasm::diag_code_name(d.code);
    out += " " + std::to_string(d.line) + ":" + std::to_string(d.column) +
           " " + d.pass_id + " '" + d.message + "'";
    if (d.fixit.has_value()) {
      out += " fix " + std::to_string(d.fixit->line_begin) + "-" +
             std::to_string(d.fixit->line_end) + " '" +
             d.fixit->replacement + "' '" + d.fixit->guard + "'";
    }
    out += "}";
  }
  out += " trace '" + report.error_trace + "'";
  const qasm::analysis::ResourceSummary& r = report.resources;
  out += " res " + std::to_string(r.computed) + " " +
         std::to_string(r.qubits) + " " + std::to_string(r.qubits_used) +
         " " + std::to_string(r.gate_count) + " " +
         std::to_string(r.t_count) + " " + std::to_string(r.ccx_count) + " " +
         std::to_string(r.rotation_count) + " " +
         std::to_string(r.two_qubit_count) + " " +
         std::to_string(r.non_clifford_count) + " " +
         std::to_string(r.measure_count) + " " + std::to_string(r.depth) +
         " " + std::to_string(r.t_depth);
  for (const qasm::analysis::TwoQubitPair& pair : r.two_qubit_pairs) {
    out += " " + std::to_string(pair.a) + "-" + std::to_string(pair.b) + "x" +
           std::to_string(pair.count);
  }
  out += " circuit " + std::to_string(report.circuit.has_value()) + " " +
         std::to_string(report.circuit_digest) + "\n";
}

/// Compares `digest` with `recorded`; on a mismatch writes the rendered
/// reports to the test temp dir so the first differing line can be
/// found with diff.
void expect_digest(const std::string& lines, std::uint64_t recorded,
                   const char* name) {
  const std::uint64_t digest = fnv1a64(lines);
  if (digest == recorded) return;
  const std::string path = testing::TempDir() + name + ".txt";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fwrite(lines.data(), 1, lines.size(), out);
    std::fclose(out);
  }
  ADD_FAILURE() << name << " digest " << digest << " != recorded " << recorded
                << "; reports written to " << path;
}

TEST(AnalyzerGolden, EvalShapePassReportsMatchRecordedDigest) {
  std::string lines;
  std::size_t reports = 0;
  for (const std::uint64_t seed : {2025ULL, 7ULL}) {
    testing_support::run_eval_shape(seed, [&](const eval::Trial& trial) {
      ASSERT_NE(trial.result, nullptr);
      for (const agents::PassTrace& pass : trial.result->trace) {
        ASSERT_NE(pass.report, nullptr);
        lines += std::to_string(trial.case_idx) + "/" +
                 std::to_string(trial.sample_idx) + "/" +
                 std::to_string(pass.pass) + " ";
        append_report(*pass.report, lines);
        ++reports;
      }
    });
  }
  std::printf("%zu pass reports, digest %llu\n", reports,
              static_cast<unsigned long long>(fnv1a64(lines)));
  expect_digest(lines, 15418023208809498185ULL, "analyzer_golden_eval");
}

TEST(AnalyzerGolden, CorpusReportsMatchRecordedDigest) {
  SemanticAnalyzerAgent::Options core;
  core.analysis.abstract_lints = false;
  SemanticAnalyzerAgent::Options device;
  device.analysis.topology =
      agents::coupling_map(agents::DeviceTopology::grid(5, 5));
  const std::vector<SemanticAnalyzerAgent> analyzers = {
      SemanticAnalyzerAgent(), SemanticAnalyzerAgent(core),
      SemanticAnalyzerAgent(device)};
  const std::vector<std::string> sources = testing_support::golden_sources();
  std::string lines;
  for (const std::string& source : sources) {
    for (const SemanticAnalyzerAgent& analyzer : analyzers) {
      append_report(*analyzer.analyze(source), lines);
    }
  }
  std::printf("%zu sources, digest %llu\n", sources.size(),
              static_cast<unsigned long long>(fnv1a64(lines)));
  expect_digest(lines, 12711258950948238653ULL, "analyzer_golden_corpus");
}

}  // namespace
}  // namespace qcgen
