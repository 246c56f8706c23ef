#include "qasm/analysis/resources.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "qasm/lint/abstract/interpreter.hpp"

namespace qcgen::qasm::analysis {

namespace {

using lint::CircuitFacts;
using lint::FlatOp;
using lint::QubitEvent;
using lint::abstract::AbstractFacts;
using lint::abstract::OpFact;

/// Reachability of one flat op: kUnreachable ops are excluded outright,
/// kRun ops count in both bounds, kMaybe only in the upper bound.
OpFact::Reach op_reach(const FlatOp& op, const OpFact* fact) {
  if (fact != nullptr) return fact->reach;
  return op.guarded() ? OpFact::Reach::kMaybe : OpFact::Reach::kRun;
}

/// True for ops that execute something: gates, in-range measures and
/// resets, and effective measure_all. Barriers and ineffective
/// measure_all (num_clbits < num_qubits, mirroring ProgramFacts) are
/// not executable.
bool executable(const FlatOp& op, const CircuitDecl& circ) {
  if (std::holds_alternative<BarrierStmt>(*op.stmt)) return false;
  if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
    return circ.num_clbits >= circ.num_qubits;
  }
  return true;
}

/// In-range guard clbit indices of an op's if-chain.
std::vector<std::size_t> guard_clbits(const FlatOp& op,
                                      const CircuitDecl& circ) {
  std::vector<std::size_t> out;
  for (const IfStmt* guard : op.guards) {
    if (guard->clbit.index < circ.num_clbits) out.push_back(guard->clbit.index);
  }
  return out;
}

struct Schedule {
  std::size_t depth = 0;
  std::size_t t_depth = 0;
  /// 1-based ASAP layer per op (0 = unscheduled).
  std::vector<std::size_t> layer;
};

/// Forward ASAP interval scheduling over the flat op list. When
/// `include_maybe` is false only certainly-reachable ops are placed
/// (the lower bound of the depth interval).
Schedule schedule_asap(const CircuitFacts& facts,
                       const std::vector<OpFact::Reach>& reach,
                       bool include_maybe) {
  const CircuitDecl& circ = *facts.circuit;
  Schedule out;
  out.layer.assign(facts.ops.size(), 0);
  std::vector<std::size_t> qubit_level(circ.num_qubits, 0);
  std::vector<std::size_t> clbit_level(circ.num_clbits, 0);
  std::vector<std::size_t> t_level(circ.num_qubits, 0);
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    if (reach[i] == OpFact::Reach::kUnreachable) continue;
    if (!include_maybe && reach[i] == OpFact::Reach::kMaybe) continue;
    const FlatOp& op = facts.ops[i];
    if (std::holds_alternative<BarrierStmt>(*op.stmt)) {
      // Synchronise every qubit clock without occupying a layer.
      std::size_t sync = 0;
      std::size_t t_sync = 0;
      for (std::size_t q = 0; q < circ.num_qubits; ++q) {
        sync = std::max(sync, qubit_level[q]);
        t_sync = std::max(t_sync, t_level[q]);
      }
      std::fill(qubit_level.begin(), qubit_level.end(), sync);
      std::fill(t_level.begin(), t_level.end(), t_sync);
      continue;
    }
    if (!executable(op, circ)) continue;
    std::vector<std::size_t> qubits;
    if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
      qubits.resize(circ.num_qubits);
      for (std::size_t q = 0; q < circ.num_qubits; ++q) qubits[q] = q;
    } else {
      qubits = qubit_operands(op, circ);
      std::sort(qubits.begin(), qubits.end());
      qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());
    }
    if (qubits.empty()) continue;  // every operand out of range
    std::size_t ready = 0;
    std::size_t t_in = 0;
    for (const std::size_t q : qubits) {
      ready = std::max(ready, qubit_level[q]);
      t_in = std::max(t_in, t_level[q]);
    }
    for (const std::size_t c : guard_clbits(op, circ)) {
      ready = std::max(ready, clbit_level[c]);
    }
    const std::size_t layer = ready + 1;
    out.layer[i] = layer;
    out.depth = std::max(out.depth, layer);
    const bool is_t = op.gate == sim::GateKind::kT ||
                      op.gate == sim::GateKind::kTdg;
    const std::size_t t_out = t_in + (is_t ? 1 : 0);
    out.t_depth = std::max(out.t_depth, t_out);
    for (const std::size_t q : qubits) {
      qubit_level[q] = layer;
      t_level[q] = t_out;
    }
    if (const auto* measure = std::get_if<MeasureStmt>(op.stmt)) {
      if (measure->clbit.index < circ.num_clbits) {
        clbit_level[measure->clbit.index] = layer;
      }
    } else if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
      for (std::size_t q = 0; q < circ.num_qubits; ++q) clbit_level[q] = layer;
    }
  }
  return out;
}

/// Reverse (ALAP) pass mirroring schedule_asap against its depth:
/// every scheduled op lands on the latest layer that still meets each
/// operand's next use. Unscheduled ops keep layer 0.
std::vector<std::size_t> schedule_alap(const CircuitFacts& facts,
                                       const Schedule& asap) {
  const CircuitDecl& circ = *facts.circuit;
  std::vector<std::size_t> alap(facts.ops.size(), 0);
  std::vector<std::size_t> qubit_deadline(circ.num_qubits, asap.depth + 1);
  std::vector<std::size_t> clbit_deadline(circ.num_clbits, asap.depth + 1);
  for (std::size_t r = facts.ops.size(); r > 0; --r) {
    const std::size_t i = r - 1;
    const FlatOp& op = facts.ops[i];
    if (std::holds_alternative<BarrierStmt>(*op.stmt)) {
      std::size_t sync = asap.depth + 1;
      for (std::size_t q = 0; q < circ.num_qubits; ++q) {
        sync = std::min(sync, qubit_deadline[q]);
      }
      std::fill(qubit_deadline.begin(), qubit_deadline.end(), sync);
      continue;
    }
    if (asap.layer[i] == 0) continue;
    std::vector<std::size_t> qubits;
    if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
      qubits.resize(circ.num_qubits);
      for (std::size_t q = 0; q < circ.num_qubits; ++q) qubits[q] = q;
    } else {
      qubits = qubit_operands(op, circ);
    }
    std::size_t deadline = asap.depth + 1;
    for (const std::size_t q : qubits) {
      deadline = std::min(deadline, qubit_deadline[q]);
    }
    if (const auto* measure = std::get_if<MeasureStmt>(op.stmt)) {
      if (measure->clbit.index < circ.num_clbits) {
        deadline = std::min(deadline, clbit_deadline[measure->clbit.index]);
      }
    } else if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
      for (std::size_t q = 0; q < circ.num_qubits; ++q) {
        deadline = std::min(deadline, clbit_deadline[q]);
      }
    }
    // ALAP never schedules before ASAP (deadline >= asap+1 by
    // construction on well-formed schedules; clamp defensively).
    const std::size_t layer = std::max(deadline - 1, asap.layer[i]);
    alap[i] = layer;
    for (const std::size_t q : qubits) qubit_deadline[q] = layer;
    for (const std::size_t c : guard_clbits(op, circ)) {
      clbit_deadline[c] = std::min(clbit_deadline[c], layer);
    }
  }
  return alap;
}

void count_op(CircuitResources& res, const FlatOp& op, const CircuitDecl& circ,
              bool certain) {
  res.total_ops.add(certain);
  if (const auto* gate = std::get_if<GateStmt>(op.stmt)) {
    res.gate_count.add(certain);
    const std::optional<sim::GateKind> kind = op.gate;
    const std::string name =
        kind ? std::string(sim::gate_name(*kind)) : gate->name;
    res.histogram[name].add(certain);
    if (!kind) return;
    const sim::GateInfo& info = sim::gate_info(*kind);
    if (*kind == sim::GateKind::kT || *kind == sim::GateKind::kTdg) {
      res.t_count.add(certain);
    }
    if (*kind == sim::GateKind::kCCX) res.ccx_count.add(certain);
    if (!info.clifford) {
      res.non_clifford_count.add(certain);
      if (info.num_params > 0) res.rotation_count.add(certain);
    }
    if (info.num_qubits == 2) res.two_qubit_count.add(certain);
    if (info.num_qubits == 3) res.multi_qubit_count.add(certain);
  } else if (std::holds_alternative<MeasureStmt>(*op.stmt)) {
    const auto* measure = std::get_if<MeasureStmt>(op.stmt);
    if (measure->qubit.index < circ.num_qubits) res.measure_count.add(certain);
  } else if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
    for (std::size_t q = 0; q < circ.num_qubits; ++q) {
      res.measure_count.add(certain);
    }
  } else if (std::holds_alternative<ResetStmt>(*op.stmt)) {
    const auto* reset = std::get_if<ResetStmt>(op.stmt);
    if (reset->qubit.index < circ.num_qubits) res.reset_count.add(certain);
  }
}

void compute_lifetimes(CircuitResources& res, const CircuitFacts& facts) {
  const CircuitDecl& circ = *facts.circuit;
  res.qubits.assign(circ.num_qubits, QubitLifetime{});
  for (std::size_t q = 0; q < circ.num_qubits; ++q) {
    QubitLifetime& life = res.qubits[q];
    std::size_t prev_layer = 0;
    for (const QubitEvent& event : facts.qubit_events[q]) {
      if (event.kind == QubitEvent::Kind::kBarrier) continue;
      if (!res.ops[event.op].counted) continue;  // unreachable / ineffective
      const FlatOp& op = facts.ops[event.op];
      if (!life.used) {
        life.used = true;
        life.first_op = event.op;
        life.first_layer = res.ops[event.op].asap_layer;
      }
      life.last_op = event.op;
      life.last_layer = res.ops[event.op].asap_layer;
      if (event.kind == QubitEvent::Kind::kMeasure) life.measured = true;
      life.released = event.kind == QubitEvent::Kind::kReset &&
                      !op.guarded() && res.ops[event.op].certain;
      if (life.released) life.release_op = event.op;
      const std::size_t layer = res.ops[event.op].asap_layer;
      if (layer > 0) {
        if (prev_layer > 0 && layer > prev_layer) {
          life.max_idle_gap =
              std::max(life.max_idle_gap, layer - prev_layer - 1);
        }
        if (layer != prev_layer) ++life.active_layers;
        prev_layer = layer;
      }
    }
    if (life.used) {
      ++res.qubits_used;
      const std::size_t span = life.last_layer >= life.first_layer
                                   ? life.last_layer - life.first_layer + 1
                                   : 0;
      life.idle_layers =
          span > life.active_layers ? span - life.active_layers : 0;
      if (life.measured) {
        life.role = QubitLifetime::Role::kData;
      } else if (life.released) {
        life.role = QubitLifetime::Role::kAncillaReleased;
      } else {
        life.role = QubitLifetime::Role::kAncillaDirty;
      }
    }
  }
}

CircuitResources compute_circuit(const CircuitFacts& facts,
                                 const lint::abstract::CircuitAbstractFacts*
                                     abstract_facts) {
  CircuitResources res;
  res.circuit = facts.circuit;
  if (!facts.analyzable) return res;
  res.computed = true;
  const CircuitDecl& circ = *facts.circuit;

  // Reachability verdict per op (kMaybe for guarded ops when the
  // abstract interpreter did not run or skipped the circuit).
  std::vector<OpFact::Reach> reach(facts.ops.size(), OpFact::Reach::kRun);
  const bool have_abstract =
      abstract_facts != nullptr && abstract_facts->computed &&
      abstract_facts->ops.size() == facts.ops.size();
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    reach[i] = op_reach(facts.ops[i],
                        have_abstract ? &abstract_facts->ops[i] : nullptr);
  }

  // Counts.
  res.ops.assign(facts.ops.size(), OpResource{});
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    const FlatOp& op = facts.ops[i];
    if (reach[i] == OpFact::Reach::kUnreachable) continue;
    if (!executable(op, circ)) continue;
    res.ops[i].counted = true;
    res.ops[i].certain = reach[i] == OpFact::Reach::kRun;
    count_op(res, op, circ, res.ops[i].certain);
  }

  // Depth interval: upper-bound schedule places kRun + kMaybe ops, the
  // lower bound re-schedules with only the certain ops.
  const Schedule upper = schedule_asap(facts, reach, true);
  res.depth.max = upper.depth;
  res.t_depth.max = upper.t_depth;
  const bool has_maybe =
      std::any_of(reach.begin(), reach.end(), [](OpFact::Reach r) {
        return r == OpFact::Reach::kMaybe;
      });
  if (has_maybe) {
    const Schedule lower = schedule_asap(facts, reach, false);
    res.depth.min = lower.depth;
    res.t_depth.min = lower.t_depth;
  } else {
    res.depth.min = upper.depth;
    res.t_depth.min = upper.t_depth;
  }

  const std::vector<std::size_t> alap = schedule_alap(facts, upper);
  res.layer_width.assign(upper.depth + 1, 0);
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    res.ops[i].asap_layer = upper.layer[i];
    res.ops[i].alap_layer = alap[i];
    if (upper.layer[i] > 0) ++res.layer_width[upper.layer[i]];
  }

  compute_lifetimes(res, facts);

  // Coupled-pair census for the routing model.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> pairs;
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    if (!res.ops[i].counted) continue;
    const std::optional<sim::GateKind> kind = facts.ops[i].gate;
    if (!kind || sim::gate_info(*kind).num_qubits != 2) continue;
    std::vector<std::size_t> qs = qubit_operands(facts.ops[i], circ);
    if (qs.size() != 2 || qs[0] == qs[1]) continue;
    ++pairs[{std::min(qs[0], qs[1]), std::max(qs[0], qs[1])}];
  }
  res.two_qubit_pairs.reserve(pairs.size());
  for (const auto& [pair, count] : pairs) {
    res.two_qubit_pairs.push_back(TwoQubitPair{pair.first, pair.second, count});
  }
  return res;
}

}  // namespace

ResourceFacts ResourceFacts::compute(const lint::ProgramFacts& facts,
                                     const AbstractFacts* abstract,
                                     ResourceFacts* reachability_free) {
  require(reachability_free == nullptr ||
              reachability_free->circuits.size() == facts.circuits.size(),
          "ResourceFacts::compute: reachability-free facts of another program");
  ResourceFacts out;
  out.circuits.reserve(facts.circuits.size());
  for (std::size_t ci = 0; ci < facts.circuits.size(); ++ci) {
    const lint::abstract::CircuitAbstractFacts* acf =
        abstract != nullptr && ci < abstract->circuits.size()
            ? &abstract->circuits[ci]
            : nullptr;
    // The interpreter gives every unguarded op kRun, the same verdict
    // as no abstract facts at all, so only a circuit with a guarded op
    // can cost differently with reachability.
    if (reachability_free != nullptr &&
        (acf == nullptr || !facts.circuits[ci].has_guarded_op)) {
      out.circuits.push_back(std::move(reachability_free->circuits[ci]));
    } else {
      out.circuits.push_back(compute_circuit(facts.circuits[ci], acf));
    }
  }
  return out;
}

ResourceSummary summarize(const CircuitResources& resources) {
  ResourceSummary out;
  if (!resources.computed) return out;
  out.computed = true;
  out.qubits = resources.circuit->num_qubits;
  out.qubits_used = resources.qubits_used;
  out.gate_count = resources.gate_count.max;
  out.t_count = resources.t_count.max;
  out.ccx_count = resources.ccx_count.max;
  out.rotation_count = resources.rotation_count.max;
  out.two_qubit_count = resources.two_qubit_count.max;
  out.non_clifford_count = resources.non_clifford_count.max;
  out.measure_count = resources.measure_count.max;
  out.depth = resources.depth.max;
  out.t_depth = resources.t_depth.max;
  out.two_qubit_pairs = resources.two_qubit_pairs;
  return out;
}

ResourceSummary summarize_entry(const lint::ProgramFacts& facts,
                                const ResourceFacts& resources) {
  const CircuitDecl* entry =
      facts.program != nullptr ? facts.program->entry() : nullptr;
  for (std::size_t ci = 0; ci < facts.circuits.size(); ++ci) {
    if (facts.circuits[ci].circuit == entry) {
      return summarize(resources.circuits[ci]);
    }
  }
  return {};
}

ResourceSummary summarize_entry(const Program& program) {
  const lint::ProgramFacts facts = lint::ProgramFacts::compute(program);
  return summarize_entry(facts, ResourceFacts::compute(facts));
}

}  // namespace qcgen::qasm::analysis
