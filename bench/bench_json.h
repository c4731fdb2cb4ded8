// The BENCH_*.json trajectory format that tools/bench_guard.py reads: a JSON
// array, one {"name", "unit", "value"} object per line, values as %.6g.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace aw4a::bench {

struct Entry {
  std::string name;
  std::string unit;
  double value = 0.0;
};

inline void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", entries[i].value);
    out << "  {\"name\": \"" << entries[i].name << "\", \"unit\": \"" << entries[i].unit
        << "\", \"value\": " << value << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace aw4a::bench
