#include "workloads/corpus.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/registry.hpp"
#include "util/strings.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace mpsched::workloads {

namespace {

using Args = std::vector<std::size_t>;

struct ParsedSpec {
  std::string name;
  Args args;
};

ParsedSpec parse_spec(const std::string& spec) {
  const std::string_view s = trim(spec);
  const std::size_t open = s.find('(');
  ParsedSpec out;
  if (open == std::string_view::npos) {
    out.name = std::string(s);
    return out;
  }
  if (s.empty() || s.back() != ')')
    throw std::invalid_argument("workload spec '" + spec + "': missing ')'");
  out.name = std::string(trim(s.substr(0, open)));
  const std::string_view arg_list = s.substr(open + 1, s.size() - open - 2);
  if (!trim(arg_list).empty()) {
    for (const std::string& tok : split(arg_list, ','))
      out.args.push_back(parse_size(trim(tok)));
  }
  return out;
}

/// One spec generator: `name` followed by `params` (empty when it takes no
/// arguments) is its usage string, and `params` fixes its arity.
struct Generator {
  std::string_view name;
  std::string_view params;
  Dfg (*build)(const Args& args);
};

constexpr Generator kGenerators[] = {
    {"paper_3dft", "", [](const Args&) { return paper_3dft(); }},        // Fig. 2, 24 nodes
    {"small_example", "", [](const Args&) { return small_example(); }},  // Fig. 4, 5 nodes
    {"dft3", "", [](const Args&) { return winograd_dft3(); }},           // Winograd 3-point
    {"dft5", "", [](const Args&) { return winograd_dft5(); }},           // Winograd 5-point
    {"fft", "(n)", [](const Args& a) { return radix2_fft(a[0]); }},      // n a power of two
    {"direct_dft", "(n)", [](const Args& a) { return direct_dft(a[0]); }},
    {"fir", "(taps)", [](const Args& a) { return fir_filter(a[0]); }},
    {"iir", "(sections)", [](const Args& a) { return iir_biquad_cascade(a[0]); }},  // biquads
    {"matmul", "(n)", [](const Args& a) { return matmul(a[0]); }},                  // n×n
    {"dct8", "", [](const Args&) { return dct8(); }},                               // Loeffler
    {"horner", "(degree)", [](const Args& a) { return horner(a[0]); }},
    {"bitonic", "(n)", [](const Args& a) { return bitonic_sort(a[0]); }},  // n a power of two
    {"stencil5", "(width,height)", [](const Args& a) { return stencil5(a[0], a[1]); }},
    // Seeded random DAGs in their default shapes.
    {"layered", "(seed)", [](const Args& a) { return random_layered_dag(a[0]); }},
    {"series_parallel", "(seed)", [](const Args& a) { return random_series_parallel(a[0]); }},
    {"expr_tree", "(seed)", [](const Args& a) { return random_expression_tree(a[0]); }},
};

Dfg build(const ParsedSpec& p) {
  const Generator* g = find_entry(kGenerators, p.name);
  if (g == nullptr) throw std::invalid_argument("unknown workload '" + p.name + "'");
  const std::size_t arity =
      g->params.empty() ? 0 : 1 + std::count(g->params.begin(), g->params.end(), ',');
  if (p.args.size() != arity) {
    std::string message = "workload '" + p.name + "' expects ";
    message.append(g->params.empty() ? "no arguments" : g->params);
    throw std::invalid_argument(message);
  }
  return g->build(p.args);
}

}  // namespace

Dfg make_workload(const std::string& spec) {
  Dfg dfg = build(parse_spec(spec));
  // Name the graph after its spec so results and cache keys are
  // self-describing regardless of what the generator called it.
  dfg.set_name(std::string(trim(spec)));
  return dfg;
}

bool is_valid_workload(const std::string& spec) {
  try {
    build(parse_spec(spec));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> workload_usage() {
  std::vector<std::string> usage;
  for (const Generator& g : kGenerators) usage.emplace_back(g.name).append(g.params);
  return usage;
}

std::vector<std::string> demo_corpus_specs() {
  // Duplicates are intentional: fir(28) three times and paper_3dft twice
  // model the real harness corpus, where the same graphs recur. fir(28)
  // (28 parallel multiplies feeding an adder tree) is the heavy job —
  // a couple hundred thousand antichains — heavy enough that
  // deduplication and root sharding both matter, light enough for the
  // ASan CI leg.
  return {
      "fir(28)", "paper_3dft", "bitonic(8)", "fir(28)",
      "dct8",    "layered(42)", "fir(28)",   "paper_3dft",
  };
}

const std::vector<CorpusGroup>& corpus_groups() {
  // Sized for the tournament harness: every group stays small enough that
  // the exhaustive backend — C(21, Pdef) scheduler runs per graph — is
  // feasible on every member, including under ASan in CI.
  static const std::vector<CorpusGroup> groups = {
      {"paper",
       "the paper's graphs: Fig. 2 3-point DFT, Fig. 4 example, Winograd DFTs",
       {"paper_3dft", "small_example", "dft3", "dft5"}},
      {"dft",
       "scalable DFT family: radix-2 FFTs and direct DFTs",
       {"fft(4)", "fft(8)", "direct_dft(3)", "direct_dft(4)"}},
      {"kernels",
       "compiler-flow DSP kernels: filters, transforms, reductions",
       {"fir(12)", "iir(3)", "matmul(3)", "dct8", "horner(10)", "bitonic(8)",
        "stencil5(3,3)"}},
      {"random",
       "seeded DAG families: layered, series-parallel, expression trees",
       {"layered(7)", "layered(21)", "series_parallel(11)",
        "series_parallel(12)", "expr_tree(5)", "expr_tree(9)"}},
      {"smoke",
       "small cross-section for CI smoke runs",
       {"small_example", "dft3", "fir(8)", "layered(7)", "expr_tree(5)"}},
  };
  return groups;
}

const CorpusGroup& corpus_group(const std::string& name) {
  return get_entry(corpus_groups(), "corpus group", name);
}

}  // namespace mpsched::workloads
