// perfbench: runs one rep of one workload and prints its result as one
// JSON line on stdout.  run.py builds this and drives the reps; by hand:
//
//   perfbench --workload tower_noisy|fattree_mono|fattree_sharded
//             --seed N [--trace] [--spans-out FILE]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "alloc_hook.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += '"' + k + "\":" + fmt(v);
  }
  return out + '}';
}

int usage() {
  std::fputs(
      "usage: perfbench --workload NAME --seed N [--trace] [--spans-out FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      o.traced = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--spans-out" && has_value) {
      o.spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  if (o.traced) perfbench::heap::enable();

  perfbench::Result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  const auto span = [](const std::map<std::string, double>& m) {
    return object(m, num);
  };
  std::string line = "{";
  line += "\"workload\":\"" + o.workload + "\"";
  line += ",\"seed\":" + std::to_string(o.seed);
  line += ",\"traced\":" + std::string(o.traced ? "true" : "false");
  line += ",\"threads\":" + std::to_string(r.threads);
  line += ",\"compiler\":\"" + std::string(kCompiler) + "\"";
  line += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  line += ",\"flows\":" + std::to_string(r.flows);
  line += ",\"ok_flows\":" + std::to_string(r.ok_flows);
  line += ",\"setup_s\":" + num(r.setup_s);
  line += ",\"traffic_s\":" + num(r.traffic_s);
  line += ",\"verified_bytes\":" + std::to_string(r.verified_bytes);
  line += ",\"app_MBps\":" +
          num(static_cast<double>(r.verified_bytes) / r.traffic_s / 1e6);
  line += ",\"peak_rss_MB\":" +
          num(static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6);
  line += ",\"virt_goodput_Mbps\":" + num(r.virt_goodput_mbps);
  line += ",\"fct_virt_ms_p50\":" + num(r.fct_virt_ms_p50);
  line += ",\"fct_virt_ms_p99\":" + num(r.fct_virt_ms_p99);
  line += ",\"counts\":" + object(r.counts, count);
  line += ",\"layers\":" + object(r.layers, num);
  line += ",\"spans\":" + object(r.spans, span);
  line += "}\n";
  std::fputs(line.c_str(), stdout);
  return 0;
}
