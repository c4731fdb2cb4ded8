// The BENCH_*.json trajectory format that tools/bench_guard.py reads: a JSON
// array, one {"name", "unit", "value", "host"} object per line, values as
// %.6g. "host" stamps each number with the machine that measured it (nproc,
// CPU model, compiler, build type): numbers from different stamps are
// different trajectories.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifndef AW4A_BENCH_BUILD_TYPE
#define AW4A_BENCH_BUILD_TYPE "unknown"
#endif

namespace aw4a::bench {

struct Entry {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// "<nproc>x <CPU model>, <compiler>, <build type>", JSON-string safe.
inline std::string host_stamp() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    break;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string stamp = std::to_string(std::thread::hardware_concurrency()) + "x " + model + ", " +
                      compiler + ", " + AW4A_BENCH_BUILD_TYPE;
  std::string safe;
  for (const char c : stamp) {
    if (c == '"' || c == '\\') safe += '\\';
    safe += c;
  }
  return safe;
}

inline void write_json(const std::string& path, const std::vector<Entry>& entries) {
  const std::string host = host_stamp();
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", entries[i].value);
    out << "  {\"name\": \"" << entries[i].name << "\", \"unit\": \"" << entries[i].unit
        << "\", \"value\": " << value << ", \"host\": \"" << host << "\"}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace aw4a::bench
