// Helpers shared by the mpsched_* CLI tools: bounds-checked numeric
// flags and the pipeline flags, with diagnostics that name the flag.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/transform.hpp"
#include "sched/backend.hpp"
#include "util/strings.hpp"

namespace mpsched::cli {

/// Consumes the value of argv flag `flag` at position i (advancing i);
/// a flag at the end of the line is a usage error (diagnostic + exit 2).
inline std::string flag_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) {
    std::printf("error: %s needs a value\n", flag.c_str());
    std::exit(2);
  }
  return argv[++i];
}

/// Caps for the cache-trim flags, shared by mpsched_batch and
/// mpsched_client so both tools accept the same range.
inline constexpr std::size_t kMaxTrimAgeSeconds = std::size_t{1} << 40;
inline constexpr std::size_t kMaxTrimBytes = std::size_t{1} << 50;

/// Bounds-checked numeric flag: junk, negative, or overflowing values
/// fail with a diagnostic naming the flag — never UB or a wraparound.
inline std::size_t size_flag(const std::string& flag, const std::string& value,
                             std::size_t max) {
  try {
    return parse_size(value, max);
  } catch (const std::exception& e) {
    throw std::invalid_argument(flag + ": " + e.what());
  }
}

/// Parses a --transforms value: a comma-separated stack of registered
/// transform names; "none" (or an empty value) clears the stack. Every
/// name is validated against the registry (throws std::invalid_argument
/// naming the offending pass), shared by mpsched_batch and mpsched_client.
inline std::vector<std::string> transforms_flag(const std::string& value) {
  std::vector<std::string> names;
  if (trim(value).empty() || trim(value) == "none") return names;
  for (const std::string& tok : split(value, ',')) {
    std::string name{trim(tok)};
    get_transform(name);  // throws on unknown names
    names.push_back(std::move(name));
  }
  return names;
}

/// Validates a --backend value against the registry (throws
/// std::invalid_argument listing the known backends).
inline std::string backend_flag(const std::string& value) {
  get_backend(value);
  return value;
}

}  // namespace mpsched::cli
