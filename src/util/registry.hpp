// Name lookup over a registry: a constant table of entries, each with a
// `name` field (the transform passes, the scheduler backends, the workload
// generators and the corpus groups). Each registry's public find/get/names
// functions forward here, so all of them find, list and reject names alike.
// An enum's wire names are such a table too, of WireName {name, value}
// entries, read both ways by name_of and value_of.
#pragma once

#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace mpsched {

/// The entry of `table` called `name`; nullptr when there is none.
template <typename Table>
auto find_entry(const Table& table, std::string_view name) -> decltype(&*std::begin(table)) {
  for (const auto& entry : table)
    if (entry.name == name) return &entry;
  return nullptr;
}

/// One entry of an enum's wire-name table.
template <typename Enum>
struct WireName {
  const char* name;
  Enum value;
};

/// The name `table` gives `value`: the first entry holding it, or the
/// first entry's name when none does (every value has an entry).
template <typename Table, typename Value>
const char* name_of(const Table& table, Value value) {
  for (const auto& entry : table)
    if (entry.value == value) return entry.name;
  return std::begin(table)->name;
}

/// The value of `table`'s entry called `name`; throws
/// std::invalid_argument "<unknown> '<name>'" when there is none.
template <typename Table>
auto value_of(const Table& table, std::string_view name, std::string_view unknown) {
  if (const auto* entry = find_entry(table, name)) return entry->value;
  throw std::invalid_argument(std::string(unknown).append(" '").append(name).append("'"));
}

/// The names of `table`'s entries, in table order.
template <typename Table>
std::vector<std::string> entry_names(const Table& table) {
  std::vector<std::string> names;
  for (const auto& entry : table) names.emplace_back(entry.name);
  return names;
}

/// Like find_entry, but throws std::invalid_argument
/// "unknown <kind> '<name>' (known: <names>)" when there is no such entry.
template <typename Table>
auto get_entry(const Table& table, std::string_view kind, std::string_view name)
    -> decltype(*std::begin(table)) {
  if (const auto* entry = find_entry(table, name)) return *entry;
  std::string message = "unknown ";
  message.append(kind).append(" '").append(name).append("' (known: ");
  message.append(join(entry_names(table), ", ")).append(")");
  throw std::invalid_argument(message);
}

}  // namespace mpsched
