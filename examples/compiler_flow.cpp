// The full Montium compiler flow (paper §1): Transformation → Clustering →
// Scheduling (pattern selection + multi-pattern scheduling) → Allocation,
// on an FIR filter kernel. The engine runs the job; engine::check_result
// re-checks its schedule and binds it to the tile's ALUs. Then a look at
// how Pdef trades cycles against configuration-store use.
#include <cstdio>

#include "engine/check.hpp"
#include "engine/engine.hpp"
#include "sched/gantt.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/kernels.hpp"

using namespace mpsched;

int main() {
  const Dfg dfg = workloads::fir_filter(16);
  std::printf("Workload: %s (%zu operations)\n\n", dfg.name().c_str(), dfg.node_count());

  engine::Engine eng;
  // The compiler flow selects from antichains of any span.
  auto job_for = [&dfg](std::size_t pdef) {
    engine::Job job;
    job.dfg = dfg;
    job.select.pattern_count = pdef;
    job.select.span_limit = std::nullopt;
    return job;
  };

  // One fully-reported run.
  const engine::Job job = job_for(3);
  const engine::JobResult r = eng.run(job);
  const engine::ResultCheck check = engine::check_result(job, r);
  if (!check.error.empty() || !check.execution.ok) {
    std::printf("compilation failed: %s%s\n", check.error.c_str(),
                check.execution.error.c_str());
    return 1;
  }
  std::printf("scheduling: patterns {%s} -> %zu cycles\n", join(r.patterns, ", ").c_str(),
              r.cycles);
  std::printf("allocation: %zu ALU reconfigurations\n", check.allocation.reconfigurations);
  std::printf("execution:  %s\n\n", check.execution.to_string().c_str());
  std::printf("ALU Gantt chart (rows = physical ALUs, '.' = idle, function kept):\n%s\n",
              render_gantt(check.dfg, check.allocation).c_str());

  // Pdef sweep: the design space a Montium programmer actually navigates.
  std::printf("Pdef sweep on the same kernel:\n");
  TextTable t({"Pdef", "cycles", "store entries", "reconfigs", "energy"});
  for (std::size_t pdef = 1; pdef <= 6; ++pdef) {
    const engine::Job sweep = job_for(pdef);
    const engine::JobResult rs = eng.run(sweep);
    const engine::ResultCheck cs = engine::check_result(sweep, rs);
    if (!cs.error.empty() || !cs.execution.ok) {
      std::printf("Pdef=%zu failed: %s%s\n", pdef, cs.error.c_str(),
                  cs.execution.error.c_str());
      return 1;
    }
    t.add(pdef, rs.cycles, cs.execution.distinct_patterns, cs.execution.reconfigurations,
          cs.execution.energy);
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
