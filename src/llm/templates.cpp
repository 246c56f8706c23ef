#include "llm/templates.hpp"

#include <bit>
#include <cmath>

#include "common/cache/cache.hpp"
#include "common/error.hpp"
#include "qasm/printer.hpp"

namespace qcgen::llm {

using qasm::CircuitDecl;
using qasm::Expr;
using qasm::ExprPtr;
using qasm::GateStmt;
using qasm::IfStmt;
using qasm::Import;
using qasm::Program;
using qasm::RegRef;
using qasm::Stmt;

qasm::Stmt make_gate(std::string name, const std::vector<std::size_t>& qubits,
                     const std::vector<double>& params,
                     const std::string& qreg) {
  GateStmt g;
  g.name = std::move(name);
  for (double p : params) g.params.push_back(Expr::make_number(p));
  for (std::size_t q : qubits) g.operands.push_back(RegRef{qreg, q, 0});
  return Stmt{std::move(g)};
}

qasm::Stmt make_pi_gate(std::string name, const std::vector<std::size_t>& qubits,
                        std::vector<ExprPtr> params,
                        const std::string& qreg) {
  GateStmt g;
  g.name = std::move(name);
  g.params = std::move(params);
  for (std::size_t q : qubits) g.operands.push_back(RegRef{qreg, q, 0});
  return Stmt{std::move(g)};
}

qasm::Stmt make_measure(std::size_t qubit, std::size_t clbit) {
  return Stmt{qasm::MeasureStmt{RegRef{"q", qubit, 0}, RegRef{"c", clbit, 0}, 0}};
}

qasm::Stmt make_measure_all() { return Stmt{qasm::MeasureAllStmt{0}}; }

qasm::Stmt make_barrier() { return Stmt{qasm::BarrierStmt{0}}; }

qasm::Stmt make_if(std::size_t clbit, bool value, Stmt body) {
  auto node = std::make_shared<IfStmt>();
  node->clbit = RegRef{"c", clbit, 0};
  node->value = value;
  node->body = std::move(body);
  return Stmt{std::move(node)};
}

ExprPtr pi_fraction(int num, int den) {
  require(den != 0, "pi_fraction: zero denominator");
  ExprPtr e = Expr::make_pi();
  if (num != 1) {
    e = Expr::make_binary(Expr::Kind::kMul,
                          Expr::make_number(static_cast<double>(std::abs(num))),
                          std::move(e));
  }
  if (den != 1) {
    e = Expr::make_binary(Expr::Kind::kDiv, std::move(e),
                          Expr::make_number(static_cast<double>(den)));
  }
  if (num < 0) e = Expr::make_unary(Expr::Kind::kNeg, std::move(e));
  return e;
}

namespace {

Program wrap(std::size_t num_qubits, std::size_t num_clbits,
             std::vector<Stmt> body) {
  Program prog;
  prog.imports.push_back(Import{"qiskit", 1});
  prog.imports.push_back(Import{"qiskit.circuit", 2});
  CircuitDecl decl;
  decl.name = "main";
  decl.num_qubits = num_qubits;
  decl.num_clbits = num_clbits;
  decl.body = std::move(body);
  prog.circuits.push_back(std::move(decl));
  return prog;
}

std::vector<Stmt> qft_body(int n, bool inverse) {
  std::vector<Stmt> body;
  if (!inverse) {
    for (int j = n - 1; j >= 0; --j) {
      body.push_back(make_gate("h", {static_cast<std::size_t>(j)}));
      for (int k = j - 1; k >= 0; --k) {
        body.push_back(make_pi_gate(
            "cp",
            {static_cast<std::size_t>(k), static_cast<std::size_t>(j)},
            {pi_fraction(1, 1 << (j - k))}));
      }
    }
    for (int q = 0; q < n / 2; ++q) {
      body.push_back(make_gate("swap", {static_cast<std::size_t>(q),
                                        static_cast<std::size_t>(n - 1 - q)}));
    }
  } else {
    for (int q = 0; q < n / 2; ++q) {
      body.push_back(make_gate("swap", {static_cast<std::size_t>(q),
                                        static_cast<std::size_t>(n - 1 - q)}));
    }
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < j; ++k) {
        body.push_back(make_pi_gate(
            "cp",
            {static_cast<std::size_t>(k), static_cast<std::size_t>(j)},
            {pi_fraction(-1, 1 << (j - k))}));
      }
      body.push_back(make_gate("h", {static_cast<std::size_t>(j)}));
    }
  }
  return body;
}

void append(std::vector<Stmt>& dst, std::vector<Stmt> src) {
  for (auto& s : src) dst.push_back(std::move(s));
}

}  // namespace

Program gold_program(const TaskSpec& task) {
  std::vector<Stmt> body;
  switch (task.algorithm) {
    case AlgorithmId::kBellPair: {
      body.push_back(make_gate("h", {0}));
      body.push_back(make_gate("cx", {0, 1}));
      body.push_back(make_measure_all());
      return wrap(2, 2, std::move(body));
    }
    case AlgorithmId::kGhz: {
      const int n = task.iparam("n", 3);
      require(n >= 2 && n <= 8, "ghz template: n in 2..8");
      body.push_back(make_gate("h", {0}));
      for (int q = 1; q < n; ++q) {
        body.push_back(make_gate("cx", {static_cast<std::size_t>(q - 1),
                                        static_cast<std::size_t>(q)}));
      }
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kSuperposition:
    case AlgorithmId::kRandomNumber: {
      const int n = task.iparam("n", 3);
      require(n >= 1 && n <= 10, "superposition template: n in 1..10");
      for (int q = 0; q < n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kSingleQubitRotation: {
      const double theta = task.param("theta", 0.7);
      body.push_back(make_gate("ry", {0}, {theta}));
      body.push_back(make_measure(0, 0));
      return wrap(1, 1, std::move(body));
    }
    case AlgorithmId::kBitflipEncoding: {
      const bool one = task.iparam("value", 0) != 0;
      if (one) body.push_back(make_gate("x", {0}));
      body.push_back(make_gate("cx", {0, 1}));
      body.push_back(make_gate("cx", {0, 2}));
      body.push_back(make_measure_all());
      return wrap(3, 3, std::move(body));
    }
    case AlgorithmId::kSwapTest: {
      const double t1 = task.param("theta1", 0.5);
      const double t2 = task.param("theta2", 0.5);
      body.push_back(make_gate("ry", {1}, {t1}));
      body.push_back(make_gate("ry", {2}, {t2}));
      body.push_back(make_gate("h", {0}));
      body.push_back(make_gate("cswap", {0, 1, 2}));
      body.push_back(make_gate("h", {0}));
      body.push_back(make_measure(0, 0));
      return wrap(3, 1, std::move(body));
    }
    case AlgorithmId::kPhaseKickback: {
      body.push_back(make_gate("x", {1}));
      body.push_back(make_gate("h", {1}));
      body.push_back(make_gate("h", {0}));
      body.push_back(make_gate("cx", {0, 1}));
      body.push_back(make_gate("h", {0}));
      body.push_back(make_measure(0, 0));
      return wrap(2, 1, std::move(body));
    }
    case AlgorithmId::kDeutschJozsa: {
      const int n = task.iparam("n", 3);
      const bool constant = task.iparam("constant", 1) != 0;
      require(n >= 1 && n <= 6, "deutsch_jozsa template: n in 1..6");
      const auto anc = static_cast<std::size_t>(n);
      body.push_back(make_gate("x", {anc}));
      for (int q = 0; q <= n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      body.push_back(make_barrier());
      if (!constant) {
        for (int q = 0; q < n; ++q) {
          body.push_back(make_gate("cx", {static_cast<std::size_t>(q), anc}));
        }
      }
      body.push_back(make_barrier());
      for (int q = 0; q < n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      for (int q = 0; q < n; ++q) {
        body.push_back(make_measure(static_cast<std::size_t>(q),
                                    static_cast<std::size_t>(q)));
      }
      return wrap(static_cast<std::size_t>(n + 1), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kBernsteinVazirani: {
      const int n = task.iparam("n", 3);
      const int secret = task.iparam("secret", 5);
      require(n >= 1 && n <= 6, "bernstein_vazirani template: n in 1..6");
      require(secret >= 0 && secret < (1 << n), "bv: secret out of range");
      const auto anc = static_cast<std::size_t>(n);
      body.push_back(make_gate("x", {anc}));
      for (int q = 0; q <= n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      body.push_back(make_barrier());
      for (int q = 0; q < n; ++q) {
        if ((secret >> q) & 1) {
          body.push_back(make_gate("cx", {static_cast<std::size_t>(q), anc}));
        }
      }
      body.push_back(make_barrier());
      for (int q = 0; q < n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      for (int q = 0; q < n; ++q) {
        body.push_back(make_measure(static_cast<std::size_t>(q),
                                    static_cast<std::size_t>(q)));
      }
      return wrap(static_cast<std::size_t>(n + 1), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kGrover: {
      const int n = task.iparam("n", 2);
      const int marked = task.iparam("marked", 3);
      const int iterations = task.iparam("iterations", 1);
      require(n >= 2 && n <= 3, "grover template: n in 2..3");
      require(marked >= 0 && marked < (1 << n), "grover: marked range");
      const auto mcz = [&](std::vector<Stmt>& b) {
        if (n == 2) {
          b.push_back(make_gate("cz", {0, 1}));
        } else {
          b.push_back(make_gate("h", {2}));
          b.push_back(make_gate("ccx", {0, 1, 2}));
          b.push_back(make_gate("h", {2}));
        }
      };
      for (int q = 0; q < n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      for (int it = 0; it < iterations; ++it) {
        for (int q = 0; q < n; ++q) {
          if (!((marked >> q) & 1)) {
            body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
          }
        }
        mcz(body);
        for (int q = 0; q < n; ++q) {
          if (!((marked >> q) & 1)) {
            body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
          }
        }
        for (int q = 0; q < n; ++q) {
          body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
        }
        for (int q = 0; q < n; ++q) {
          body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
        }
        mcz(body);
        for (int q = 0; q < n; ++q) {
          body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
        }
        for (int q = 0; q < n; ++q) {
          body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
        }
      }
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kQft: {
      const int n = task.iparam("n", 3);
      const int input = task.iparam("input", 1);
      require(n >= 1 && n <= 6, "qft template: n in 1..6");
      require(input >= 0 && input < (1 << n), "qft: input out of range");
      for (int q = 0; q < n; ++q) {
        if ((input >> q) & 1) {
          body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
        }
      }
      append(body, qft_body(n, /*inverse=*/false));
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kInverseQft: {
      const int n = task.iparam("n", 3);
      const int input = task.iparam("input", 1);
      require(n >= 1 && n <= 6, "inverse_qft template: n in 1..6");
      for (int q = 0; q < n; ++q) {
        if ((input >> q) & 1) {
          body.push_back(make_gate("x", {static_cast<std::size_t>(q)}));
        }
      }
      append(body, qft_body(n, /*inverse=*/false));
      body.push_back(make_barrier());
      append(body, qft_body(n, /*inverse=*/true));
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kShorPeriodFinding: {
      // Counting register q0..q2, work register q3..q6 initialised to 1.
      // U: y -> 7y mod 15 = complement(rotate-right(y)); U^2: y -> 4y
      // mod 15 = rotate-left-2; U^4 = identity.
      body.push_back(make_gate("x", {3}));
      for (std::size_t q : {0, 1, 2}) {
        body.push_back(make_gate("h", {q}));
      }
      body.push_back(make_barrier());
      // Controlled-U on counting bit 0.
      body.push_back(make_gate("cswap", {0, 5, 6}));
      body.push_back(make_gate("cswap", {0, 4, 5}));
      body.push_back(make_gate("cswap", {0, 3, 4}));
      for (std::size_t w : {3, 4, 5, 6}) {
        body.push_back(make_gate("cx", {0, w}));
      }
      // Controlled-U^2 on counting bit 1.
      body.push_back(make_gate("cswap", {1, 3, 5}));
      body.push_back(make_gate("cswap", {1, 4, 6}));
      // Controlled-U^4 on counting bit 2 is the identity.
      body.push_back(make_barrier());
      // Inverse QFT over the counting register.
      append(body, qft_body(3, /*inverse=*/true));
      for (std::size_t q : {0, 1, 2}) {
        body.push_back(make_measure(q, q));
      }
      return wrap(7, 3, std::move(body));
    }
    case AlgorithmId::kTeleportation: {
      const double theta = task.param("theta", 1.1);
      body.push_back(make_gate("ry", {0}, {theta}));
      body.push_back(make_gate("h", {1}));
      body.push_back(make_gate("cx", {1, 2}));
      body.push_back(make_barrier());
      body.push_back(make_gate("cx", {0, 1}));
      body.push_back(make_gate("h", {0}));
      body.push_back(make_measure(0, 0));
      body.push_back(make_measure(1, 1));
      body.push_back(make_if(1, true, make_gate("x", {2})));
      body.push_back(make_if(0, true, make_gate("z", {2})));
      body.push_back(make_measure(2, 2));
      return wrap(3, 3, std::move(body));
    }
    case AlgorithmId::kQuantumWalk: {
      const int steps = task.iparam("steps", 2);
      require(steps >= 1 && steps <= 6, "quantum_walk template: steps 1..6");
      // Coin q0, position q1..q2 (4-site cycle).
      body.push_back(make_gate("h", {0}));
      body.push_back(make_gate("s", {0}));
      for (int s = 0; s < steps; ++s) {
        body.push_back(make_gate("h", {0}));
        body.push_back(make_gate("ccx", {0, 1, 2}));
        body.push_back(make_gate("cx", {0, 1}));
        body.push_back(make_gate("x", {0}));
        body.push_back(make_gate("x", {1}));
        body.push_back(make_gate("ccx", {0, 1, 2}));
        body.push_back(make_gate("x", {1}));
        body.push_back(make_gate("cx", {0, 1}));
        body.push_back(make_gate("x", {0}));
      }
      body.push_back(make_measure_all());
      return wrap(3, 3, std::move(body));
    }
    case AlgorithmId::kQuantumAnnealing: {
      const int n = task.iparam("n", 3);
      const int steps = task.iparam("steps", 3);
      require(n >= 2 && n <= 6, "annealing template: n in 2..6");
      require(steps >= 1 && steps <= 8, "annealing template: steps 1..8");
      for (int q = 0; q < n; ++q) {
        body.push_back(make_gate("h", {static_cast<std::size_t>(q)}));
      }
      for (int s = 0; s < steps; ++s) {
        const double frac = static_cast<double>(s + 1) / steps;
        const double gamma = 1.6 * frac;
        const double beta = 1.2 * (1.0 - frac) + 0.05;
        for (int q = 0; q + 1 < n; ++q) {
          body.push_back(make_gate("rzz",
                                   {static_cast<std::size_t>(q),
                                    static_cast<std::size_t>(q + 1)},
                                   {gamma}));
        }
        for (int q = 0; q < n; ++q) {
          body.push_back(
              make_gate("rx", {static_cast<std::size_t>(q)}, {beta}));
        }
      }
      body.push_back(make_measure_all());
      return wrap(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                  std::move(body));
    }
    case AlgorithmId::kGhzParityOracle: {
      const int n = task.iparam("n", 3);
      require(n >= 2 && n <= 6, "ghz_parity_oracle template: n in 2..6");
      body.push_back(make_gate("h", {0}));
      for (int q = 1; q < n; ++q) {
        body.push_back(make_gate("cx", {static_cast<std::size_t>(q - 1),
                                        static_cast<std::size_t>(q)}));
      }
      body.push_back(make_barrier());
      body.push_back(make_gate("z", {static_cast<std::size_t>(n - 1)}));
      body.push_back(make_barrier());
      for (int q = n - 1; q >= 1; --q) {
        body.push_back(make_gate("cx", {static_cast<std::size_t>(q - 1),
                                        static_cast<std::size_t>(q)}));
      }
      body.push_back(make_gate("h", {0}));
      body.push_back(make_measure(0, 0));
      return wrap(static_cast<std::size_t>(n), 1, std::move(body));
    }
  }
  throw InvalidArgumentError("gold_program: unknown algorithm");
}

std::uint64_t task_digest(const TaskSpec& task) noexcept {
  cache::KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(task.algorithm));
  hasher.mix(static_cast<std::uint64_t>(task.params.size()));
  for (const auto& [name, value] : task.params) {
    // The raw bit pattern: KeyHasher::mix(double) folds -0.0 into 0.0.
    hasher.mix(name).mix(std::bit_cast<std::uint64_t>(value));
  }
  return hasher.digest();
}

std::shared_ptr<const GoldProgram> shared_gold(const TaskSpec& task) {
  static cache::Cache<GoldProgram> table(cache::CacheOptions{});
  return table.get_or_compute(task_digest(task), [&] {
    Program program = gold_program(task);
    std::string source = qasm::print_program(program);
    return GoldProgram{std::move(program), std::move(source)};
  });
}

}  // namespace qcgen::llm
