// Tests for device topologies, the three agents and the pipeline.

#include <gtest/gtest.h>

#include "agents/codegen_agent.hpp"
#include "agents/pipeline.hpp"
#include "agents/qec_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/topology.hpp"
#include "common/error.hpp"
#include "llm/templates.hpp"
#include "qasm/builder.hpp"
#include "qasm/printer.hpp"
#include "sim/statevector.hpp"

namespace qcgen::agents {
namespace {

TEST(Topology, LinearChain) {
  const DeviceTopology t = DeviceTopology::linear(5);
  EXPECT_EQ(t.num_qubits(), 5u);
  EXPECT_EQ(t.edges().size(), 4u);
  EXPECT_TRUE(t.is_connected());
  EXPECT_TRUE(t.are_coupled(1, 2));
  EXPECT_FALSE(t.are_coupled(0, 4));
  EXPECT_EQ(t.max_surface_code_distance(), 0);
}

TEST(Topology, CouplingMapExportMatchesDevice) {
  const DeviceTopology t = DeviceTopology::linear(4);
  const qasm::lint::CouplingMap map = coupling_map(t);
  EXPECT_EQ(map.name, t.name());
  EXPECT_EQ(map.num_qubits, 4u);
  EXPECT_EQ(map.edges.size(), t.edges().size());
  EXPECT_TRUE(map.adjacent(1, 2));
  EXPECT_TRUE(map.adjacent(2, 1));
  EXPECT_FALSE(map.adjacent(0, 3));
}

TEST(Topology, GridStructure) {
  const DeviceTopology t = DeviceTopology::grid(3, 4);
  EXPECT_EQ(t.num_qubits(), 12u);
  // Edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(t.edges().size(), 17u);
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.degree(0), 2u);   // corner
  EXPECT_EQ(t.degree(5), 4u);   // interior
}

TEST(Topology, GridSurfaceCodeCapacity) {
  EXPECT_EQ(DeviceTopology::grid(4, 4).max_surface_code_distance(), 0);
  EXPECT_EQ(DeviceTopology::grid(5, 5).max_surface_code_distance(), 3);
  EXPECT_EQ(DeviceTopology::grid(9, 9).max_surface_code_distance(), 5);
  EXPECT_EQ(DeviceTopology::grid(13, 13).max_surface_code_distance(), 7);
}

TEST(Topology, HeavyHexDegreeCap) {
  const DeviceTopology t = DeviceTopology::heavy_hex(2, 2);
  EXPECT_TRUE(t.is_connected());
  // Heavy-hex property: maximum degree 3.
  for (std::size_t q = 0; q < t.num_qubits(); ++q) {
    EXPECT_LE(t.degree(q), 3u) << "qubit " << q;
  }
}

TEST(Topology, BrisbaneShape) {
  const DeviceTopology t = DeviceTopology::ibm_brisbane();
  EXPECT_EQ(t.kind(), TopologyKind::kHeavyHex);
  EXPECT_NEAR(static_cast<double>(t.num_qubits()), 127.0, 5.0);
  EXPECT_TRUE(t.is_connected());
  EXPECT_FALSE(t.noise().is_ideal());
}

TEST(Topology, FullyConnected) {
  const DeviceTopology t = DeviceTopology::fully_connected(6);
  EXPECT_EQ(t.edges().size(), 15u);
  EXPECT_EQ(t.degree(3), 5u);
  EXPECT_GE(t.max_surface_code_distance(), 0);
}

TEST(TechniqueConfig, LabelsAndPresets) {
  using llm::ModelProfile;
  EXPECT_EQ(TechniqueConfig::base(ModelProfile::kStarCoder3B).label(), "base");
  EXPECT_EQ(TechniqueConfig::fine_tuned_only(ModelProfile::kStarCoder3B).label(),
            "ft");
  EXPECT_EQ(TechniqueConfig::with_rag(ModelProfile::kStarCoder3B).label(),
            "ft+rag");
  EXPECT_EQ(TechniqueConfig::with_cot(ModelProfile::kStarCoder3B).label(),
            "ft+cot");
  EXPECT_EQ(TechniqueConfig::with_scot(ModelProfile::kStarCoder3B).label(),
            "ft+scot");
  EXPECT_EQ(TechniqueConfig::with_multipass(ModelProfile::kStarCoder3B, 3)
                .label(),
            "ft+mp3");
}

TEST(CodeGenAgent, GeneratesParsableTextForStrongModels) {
  TechniqueConfig config = TechniqueConfig::base(llm::ModelProfile::kGranite20B);
  CodeGenAgent agent(config, 3);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kBellPair;
  int parse_ok = 0;
  for (int i = 0; i < 40; ++i) {
    const auto result = agent.generate(task, 0);
    if (qasm::parse(result.source).ok()) ++parse_ok;
  }
  EXPECT_GT(parse_ok, 30);
}

TEST(CodeGenAgent, RagStoresOnlyBuiltWhenEnabled) {
  CodeGenAgent plain(TechniqueConfig::fine_tuned_only(
                         llm::ModelProfile::kStarCoder3B),
                     5);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kGrover;
  const auto no_rag = plain.generate(task, 0);
  EXPECT_EQ(no_rag.retrieval.api_hits, 0u);

  CodeGenAgent ragged(TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B),
                      5);
  const auto with_rag = ragged.generate(task, 0);
  EXPECT_GT(with_rag.retrieval.api_hits, 0u);
}

TEST(CodeGenAgent, RejectsZeroPasses) {
  TechniqueConfig config;
  config.max_passes = 0;
  EXPECT_THROW(CodeGenAgent(config, 1), InvalidArgumentError);
}

TEST(SemanticAgent, AnalyzeSeparatesGoodAndBad) {
  const SemanticAnalyzerAgent agent;
  const auto good = agent.analyze(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }");
  EXPECT_TRUE(good->syntactic_ok);
  ASSERT_TRUE(good->circuit.has_value());
  EXPECT_EQ(good->circuit->num_qubits(), 2u);

  const auto bad = agent.analyze("circuit main(q: 1) { frobnicate q[0]; }");
  EXPECT_FALSE(bad->syntactic_ok);
  EXPECT_FALSE(bad->error_trace.empty());
  EXPECT_FALSE(bad->circuit.has_value());
}

/// A report whose lowered circuit is `circuit`, as analyze() builds it.
StaticReport lowered(const sim::Circuit& circuit) {
  StaticReport report;
  report.syntactic_ok = true;
  report.circuit = circuit;
  report.circuit_digest = circuit_digest(circuit);
  return report;
}

TEST(SemanticAgent, BehaviorCheckAgainstReference) {
  const SemanticAnalyzerAgent agent;
  const sim::Circuit bell = sim::circuits::bell_pair();
  const sim::Distribution reference = sim::exact_distribution(bell);
  const auto match = agent.check_behavior(lowered(bell), reference);
  EXPECT_TRUE(match.matches);
  EXPECT_NEAR(match.tvd, 0.0, 1e-9);

  const sim::Circuit ghz = sim::circuits::ghz(2);
  sim::Circuit wrong(2, 2);
  wrong.x(0);
  wrong.measure_all();
  const auto mismatch = agent.check_behavior(lowered(wrong), reference);
  EXPECT_FALSE(mismatch.matches);
  EXPECT_GT(mismatch.tvd, 0.5);
}

TEST(SemanticAgent, EmptyReferenceNeverMatches) {
  const SemanticAnalyzerAgent agent;
  const auto report = agent.check_behavior(
      lowered(sim::circuits::bell_pair()), sim::Distribution{});
  EXPECT_TRUE(report.checked);
  EXPECT_FALSE(report.matches);
}

TEST(SemanticAgent, OptionValidation) {
  SemanticAnalyzerAgent::Options options;
  options.tvd_threshold = 0.0;
  EXPECT_THROW(SemanticAnalyzerAgent{options}, InvalidArgumentError);
}

TEST(QecAgent, InfeasibleOnLinearDevice) {
  const QecDecoderAgent agent;
  const QecPlan plan = agent.plan_for(DeviceTopology::linear(20));
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("linear"), std::string::npos);
}

TEST(QecAgent, FeasiblePlanOnGrid) {
  DeviceTopology grid = DeviceTopology::grid(5, 5);
  grid.set_noise(sim::NoiseModel::ibm_brisbane());
  QecDecoderAgent::Options options;
  options.trials = 400;
  const QecDecoderAgent agent(options);
  const QecPlan plan = agent.plan_for(grid);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.distance, 3);
  EXPECT_GT(plan.synthesis_cost, 0.0);
  EXPECT_LE(plan.effective_noise.depolarizing_2q,
            plan.physical_noise.depolarizing_2q);
  auto [z_dec, x_dec] = QecDecoderAgent::build_decoders(plan);
  EXPECT_EQ(z_dec->stabilizer_type(), qec::PauliType::kZ);
  EXPECT_EQ(x_dec->stabilizer_type(), qec::PauliType::kX);
}

TEST(QecAgent, HeavyHexCostsMoreThanGrid) {
  QecDecoderAgent::Options options;
  options.trials = 400;
  const QecDecoderAgent agent(options);
  DeviceTopology grid = DeviceTopology::grid(9, 9);
  grid.set_noise(sim::NoiseModel::ibm_brisbane());
  DeviceTopology hex = DeviceTopology::ibm_brisbane();
  const QecPlan grid_plan = agent.plan_for(grid);
  const QecPlan hex_plan = agent.plan_for(hex);
  ASSERT_TRUE(grid_plan.feasible);
  ASSERT_TRUE(hex_plan.feasible);
  EXPECT_GT(hex_plan.synthesis_cost, grid_plan.synthesis_cost);
}

TEST(QecAgent, OptionValidation) {
  QecDecoderAgent::Options options;
  options.target_distance = 4;
  EXPECT_THROW(QecDecoderAgent{options}, InvalidArgumentError);
  options.target_distance = 3;
  options.trials = 10;
  EXPECT_THROW(QecDecoderAgent{options}, InvalidArgumentError);
}

TEST(QecAgent, BuildDecodersRejectsInfeasiblePlan) {
  QecPlan plan;
  plan.feasible = false;
  EXPECT_THROW(QecDecoderAgent::build_decoders(plan), InvalidArgumentError);
}

TEST(Pipeline, PerfectModelSucceedsFirstPass) {
  TechniqueConfig config = TechniqueConfig::base(llm::ModelProfile::kGranite20B);
  MultiAgentPipeline pipeline(config, SemanticAnalyzerAgent::Options(),
                              std::nullopt, std::nullopt, 23);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kBellPair;
  const sim::Distribution reference =
      sim::exact_distribution(sim::circuits::bell_pair());
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result = pipeline.run(task, reference, 0);
    EXPECT_EQ(result.trace.size(), static_cast<std::size_t>(result.passes_used));
    if (result.semantic_ok) ++successes;
  }
  EXPECT_GT(successes, 12);
}

TEST(Pipeline, StaticOnlyModeWithoutReference) {
  TechniqueConfig config =
      TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B);
  MultiAgentPipeline pipeline(config, SemanticAnalyzerAgent::Options(),
                              std::nullopt, std::nullopt, 29);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kGhz;
  task.params = {{"n", 3}};
  const auto result = pipeline.run(task, sim::Distribution{}, 0);
  // With no reference, semantic verdict mirrors syntactic validity.
  EXPECT_EQ(result.semantic_ok, result.syntactic_ok);
}

TEST(Pipeline, MultiPassUsesExtraPassesOnlyOnFailure) {
  TechniqueConfig config =
      TechniqueConfig::with_multipass(llm::ModelProfile::kStarCoder3B, 4);
  MultiAgentPipeline pipeline(config, SemanticAnalyzerAgent::Options(),
                              std::nullopt, std::nullopt, 31);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kSuperposition;
  task.params = {{"n", 2}};
  llm::TaskSpec spec = task;
  const sim::Distribution reference = sim::exact_distribution(
      qasm::build_circuit(llm::gold_program(spec)));
  for (int i = 0; i < 10; ++i) {
    const auto result = pipeline.run(task, reference, 0);
    EXPECT_GE(result.passes_used, 1);
    EXPECT_LE(result.passes_used, 4);
    if (result.semantic_ok && result.passes_used < 4) {
      EXPECT_TRUE(result.trace.back().semantic_ok);
    }
  }
}

TEST(Pipeline, QecStageRunsOnlyOnSemanticSuccess) {
  TechniqueConfig config = TechniqueConfig::base(llm::ModelProfile::kGranite20B);
  QecDecoderAgent::Options qec_options;
  qec_options.trials = 400;
  DeviceTopology device = DeviceTopology::grid(5, 5);
  device.set_noise(sim::NoiseModel::ibm_brisbane());
  MultiAgentPipeline pipeline(config, SemanticAnalyzerAgent::Options(),
                              qec_options, device, 37);
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kBellPair;
  const sim::Distribution reference =
      sim::exact_distribution(sim::circuits::bell_pair());
  bool saw_qec = false;
  for (int i = 0; i < 20 && !saw_qec; ++i) {
    const auto result = pipeline.run(task, reference, 0);
    if (result.semantic_ok) {
      ASSERT_TRUE(result.qec.has_value());
      EXPECT_TRUE(result.qec->feasible);
      saw_qec = true;
    } else {
      EXPECT_FALSE(result.qec.has_value());
    }
  }
  EXPECT_TRUE(saw_qec);
}

}  // namespace
}  // namespace qcgen::agents
