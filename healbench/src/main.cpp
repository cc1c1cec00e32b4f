// healbench: one run of one workload.
//
//   healbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--out-dir DIR]
//
// Prints report lines (prefixed '#'), one `info` JSON line, and as its last
// line the result object {"correct", "attempted", "failed", "metrics"}:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. Exit code 0 when the run completed (correct or not), 1 when a
// metric is not finite, 2 on bad arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string json_number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "healbench: %s\nusage: healbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir DIR] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/healbench-work",
                        out_dir = ".bench_build/healbench-out";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoll(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--work-dir") work_dir = v;
      else if (a == "--out-dir") out_dir = v;
      else return usage(("unknown flag " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  healbench::RunOptions opt;
  if (!healbench::find_workload(workload, healbench::Scale::kFull, &opt.workload))
    return usage("unknown workload");
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1))
    return usage("--seed, --seconds and --trace are required");
  opt.seed = static_cast<uint64_t>(seed);
  opt.seconds = seconds;
  opt.work_dir = work_dir + "/" + workload + "-" + std::to_string(seed) + (trace ? "-t" : "");
  opt.out_dir = out_dir;

  healbench::RunResult r = trace ? healbench::run_traced(opt) : healbench::run_e2e(opt);
  for (const healbench::Metric& m : r.metrics)
    if (!std::isfinite(m.value)) {
      std::cerr << "healbench: metric " << m.name << " is not finite\n";
      return 1;
    }

  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  for (const std::string& f : r.failures) std::cout << "# FAILED CHECK: " << f << "\n";
  std::cout << "{\"info\":{\"workload\":\"" << workload << "\",\"seed\":" << seed
            << ",\"seconds\":" << json_number(seconds) << ",\"trace\":" << trace
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"workers\":" << healbench::bench_workers() << ",\"build_type\":\""
            << HEALBENCH_BUILD_TYPE << "\",\"compiler\":\"" << HEALBENCH_COMPILER
            << "\",\"replay_crcs\":[";
  for (size_t i = 0; i < r.replay_crcs.size(); ++i)
    std::cout << (i ? "," : "") << r.replay_crcs[i];
  std::cout << "],\"service_crc\":" << r.service_crc << "}}\n";

  std::cout << "{\"correct\":" << (r.correct ? "true" : "false") << ",\"attempted\":" << r.attempted
            << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  for (const healbench::Metric& m : r.metrics) {
    std::cout << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << json_number(m.value)
              << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
