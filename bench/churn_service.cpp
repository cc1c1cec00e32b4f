// Sustained-churn driver for the healer service (ROADMAP: "Sustained-churn
// healer service"; docs/EXPERIMENTS.md § R6): a long-lived fg::HealerService
// ingesting a continuous seeded insert/delete stream against a large sparse
// substrate (n >= 10^6 at the defaults), each wave healed as it fills, with
// the sampled certificate guardrail on. Reports steady-state throughput and
// per-wave repair latency percentiles; the tracked rows land in
// BENCH_repair_path.json via bench/repair_path.cpp, which runs the same
// driver (bench/churn_common.h).
//
// Flags (all optional):
//   --nodes N          substrate size              (default 1048576)
//   --ops N            stream length               (default 2000000)
//   --wave N           deletions per repair wave   (default 64)
//   --certify-every K  guardrail sampling period   (default 256; 0 = off)
//   --plan-workers N / --commit-workers N / --break-workers N
//   --seed S
//   --cert-stream P    tee sampled certificates to file P (fgcheck input —
//                      the CI service-loop audit re-validates it)
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "churn_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace fg;

  ChurnDriverConfig cfg;
  cfg.service.certify_every = 256;
  std::string cert_path;
  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](const char* flag) -> int64_t {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (!std::strcmp(argv[i], "--nodes")) {
      cfg.nodes = static_cast<int>(next_int("--nodes"));
    } else if (!std::strcmp(argv[i], "--ops")) {
      cfg.ops = next_int("--ops");
    } else if (!std::strcmp(argv[i], "--wave")) {
      cfg.service.wave_size = static_cast<int>(next_int("--wave"));
    } else if (!std::strcmp(argv[i], "--certify-every")) {
      cfg.service.certify_every = static_cast<int>(next_int("--certify-every"));
    } else if (!std::strcmp(argv[i], "--plan-workers")) {
      cfg.service.plan_workers = static_cast<int>(next_int("--plan-workers"));
    } else if (!std::strcmp(argv[i], "--commit-workers")) {
      cfg.service.commit_workers = static_cast<int>(next_int("--commit-workers"));
    } else if (!std::strcmp(argv[i], "--break-workers")) {
      cfg.service.break_workers = static_cast<int>(next_int("--break-workers"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = static_cast<uint64_t>(next_int("--seed"));
    } else if (!std::strcmp(argv[i], "--cert-stream")) {
      if (i + 1 >= argc) {
        std::cerr << "--cert-stream needs a path\n";
        std::exit(2);
      }
      cert_path = argv[++i];
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      std::exit(2);
    }
  }

  std::ofstream cert_file;
  if (!cert_path.empty()) {
    cert_file.open(cert_path);
    if (!cert_file) {
      std::cerr << "cannot open " << cert_path << "\n";
      std::exit(2);
    }
  }

  std::cout << "--- R6: sustained-churn healer service (n=" << cfg.nodes
            << ", ops=" << cfg.ops << ", wave=" << cfg.service.wave_size
            << ", certify_every=" << cfg.service.certify_every << ") ---\n\n";

  int64_t alerts = 0;
  ChurnDriverResult r = run_churn_driver(
      cfg, cert_file.is_open() ? &cert_file : nullptr,
      [&alerts](int64_t wave, const std::string& diagnostic) {
        ++alerts;
        std::cerr << "ALERT: wave " << wave << ": certificate rejected: "
                  << diagnostic << "\n";
      });

  char buf[64];
  Table t{"metric", "value"};
  auto row = [&](const char* name, double v, const char* fmt = "%.2f") {
    std::snprintf(buf, sizeof buf, fmt, v);
    t.add(name, buf);
  };
  row("build_ms", r.build_ms);
  row("elapsed_ms", r.elapsed_ms);
  row("ops_per_sec", r.ops_per_sec, "%.0f");
  row("repair_p50_ms", r.p50_ms, "%.3f");
  row("repair_p99_ms", r.p99_ms, "%.3f");
  row("waves", static_cast<double>(r.stats.waves), "%.0f");
  row("inserts", static_cast<double>(r.stats.inserts), "%.0f");
  row("deletes", static_cast<double>(r.stats.deletes), "%.0f");
  row("stale_replans", static_cast<double>(r.stats.stale_replans), "%.0f");
  row("certified_waves", static_cast<double>(r.stats.certified_waves), "%.0f");
  row("cert_rejections", static_cast<double>(r.stats.cert_rejections), "%.0f");
  t.print(std::cout);

  if (!cert_path.empty())
    std::cout << "\nwrote " << r.stats.certified_waves
              << " sampled certificates to " << cert_path
              << " (validate: fgcheck " << cert_path << ")\n";
  return alerts == 0 && r.stats.cert_rejections == 0 ? 0 : 1;
}
