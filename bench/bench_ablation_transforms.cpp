// Ablation G — the optional compiler phases (Transformation: the `cse` and
// `rebalance_reductions` passes; Clustering: the `mac_fusion` pass) and
// their effect on operation counts, schedule length and tile energy. Each
// cell is an engine job (unlimited span, Pdef 3) whose result
// engine::check_result allocates and executes on the 5-ALU tile.
//
// Every cell is pinned via bench::Gate: executed operations, schedule
// cycles, reconfigurations and the (integer-valued) energy model are all
// deterministic, so the pins are reproduction values. They also encode
// the harness's headline reading as assertions: rebalancing shortens the
// naive addition chains' schedules and MAC fusion removes executed
// operations (and energy) on every MAC-bearing workload.
#include <cstdio>

#include "bench_common.hpp"
#include "engine/check.hpp"
#include "engine/engine.hpp"
#include "util/table.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"

using namespace mpsched;

namespace {

Dfg long_dot_product(std::size_t terms) {
  // A deliberately naive (chain-form) dot product: what a frontend without
  // reassociation would emit. terms muls + a (terms-1)-link addition chain.
  Dfg g("naive-dot" + std::to_string(terms));
  const ColorId a = g.intern_color("a");
  const ColorId c = g.intern_color("c");
  std::vector<NodeId> products;
  for (std::size_t i = 0; i < terms; ++i) products.push_back(g.add_node(c));
  NodeId acc = g.add_node(a);
  g.add_edge(products[0], acc);
  g.add_edge(products[1], acc);
  for (std::size_t i = 2; i < terms; ++i) {
    const NodeId next = g.add_node(a);
    g.add_edge(acc, next);
    g.add_edge(products[i], next);
    acc = next;
  }
  return g;
}

}  // namespace

int main() {
  bench::banner("Ablation G — optional compiler phases (transform / cluster)",
                "Pdef=3, 5-ALU tile; ops = executed operations, E = energy model");

  struct Workload {
    const char* name;
    Dfg dfg;
  };
  std::vector<Workload> cases;
  cases.push_back({"naive-dot16", long_dot_product(16)});
  cases.push_back({"naive-dot32", long_dot_product(32)});
  cases.push_back({"FIR16", workloads::fir_filter(16)});
  cases.push_back({"5DFT", workloads::winograd_dft5()});
  cases.push_back({"matmul3", workloads::matmul(3)});

  // Pinned reproduction cells, row order = cases × modes
  // {none, transform, cluster, both}: {ops, cycles, reconfigs, energy}.
  struct Expected {
    long long ops, cycles, reconfigs;
    double energy;
  };
  const Expected expected[] = {
      {31, 16, 6, 55}, {31, 9, 7, 59}, {16, 16, 2, 24}, {23, 11, 7, 51},  // naive-dot16
      {63, 32, 6, 87}, {63, 17, 7, 91}, {32, 32, 2, 40}, {47, 19, 7, 75}, // naive-dot32
      {31, 9, 7, 59},  {31, 9, 7, 59}, {23, 11, 7, 51}, {23, 11, 7, 51},  // FIR16
      {44, 10, 10, 84}, {44, 10, 10, 84}, {40, 11, 7, 68}, {40, 11, 7, 68}, // 5DFT
      {45, 10, 7, 73}, {45, 10, 7, 73}, {27, 7, 7, 55}, {27, 7, 7, 55},   // matmul3
  };

  engine::Engine eng;
  bench::Gate gate("ablation_transforms");
  TextTable t({"workload", "phases", "ops", "cycles", "reconfigs", "energy"});
  std::size_t row = 0;
  for (const auto& w : cases) {
    struct Mode {
      const char* label;
      std::vector<std::string> transforms;
    };
    long long none_cycles = 0, none_ops = 0;
    double none_energy = 0;
    for (const Mode& mode :
         {Mode{"none", {}}, Mode{"transform", {"cse", "rebalance_reductions"}},
          Mode{"cluster", {"mac_fusion"}},
          Mode{"both", {"cse", "rebalance_reductions", "mac_fusion"}}}) {
      engine::Job job;
      job.dfg = w.dfg;
      job.transforms = mode.transforms;
      job.select.pattern_count = 3;
      job.select.span_limit = std::nullopt;
      const engine::JobResult r = eng.run(job);
      const engine::ResultCheck check = engine::check_result(job, r);
      if (!check.error.empty() || !check.execution.ok) {
        std::printf("%s/%s failed: %s%s\n", w.name, mode.label, check.error.c_str(),
                    check.execution.error.c_str());
        return 1;
      }
      const Expected& e = expected[row++];
      const std::string cell = std::string(w.name) + "/" + mode.label + " ";
      gate.check_eq(e.ops, static_cast<long long>(check.execution.operations), cell + "ops");
      gate.check_eq(e.cycles, static_cast<long long>(r.cycles), cell + "cycles");
      gate.check_eq(e.reconfigs, static_cast<long long>(check.execution.reconfigurations),
                    cell + "reconfigurations");
      gate.check(e.energy == check.execution.energy,
                 cell + "energy: paper=" + std::to_string(e.energy) +
                     " measured=" + std::to_string(check.execution.energy));

      if (std::string(mode.label) == "none") {
        none_cycles = static_cast<long long>(r.cycles);
        none_ops = static_cast<long long>(check.execution.operations);
        none_energy = check.execution.energy;
      } else if (std::string(mode.label) == "transform" &&
                 std::string(w.name).starts_with("naive-dot")) {
        gate.check(static_cast<long long>(r.cycles) < none_cycles,
                   cell + "rebalancing shortens the naive addition chain");
      } else if (std::string(mode.label) == "cluster") {
        gate.check(static_cast<long long>(check.execution.operations) <= none_ops,
                   cell + "MAC fusion never adds executed operations");
        gate.check(check.execution.energy <= none_energy,
                   cell + "MAC fusion never adds energy");
      }

      t.add(w.name, mode.label, check.execution.operations, r.cycles,
            check.execution.reconfigurations, check.execution.energy);
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nReading: rebalancing turns O(n) addition chains into O(log n) trees —\n"
              "the dominant win on naive frontend output; MAC fusion removes executed\n"
              "operations (energy) and can shorten schedules when the multiplier\n"
              "pressure, not the adder pressure, binds.\n");
  return gate.finish("ablation G — transform/cluster per-cell pins");
}
