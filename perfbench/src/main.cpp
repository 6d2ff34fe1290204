// nvffbench: runs one benchmark workload in this process and prints the raw
// measurement document (one JSON line) on stdout. run.py builds this
// program, runs it in a fresh per-run directory and derives the metrics.
//
//   nvffbench --workload mc-power-cycle|paper-tables|powerfail-checkpointed
//             --seed N --seconds S --trace 0|1 --threads N
//   nvffbench --record-mc-classes FIRST-LAST --threads N
//
// The second form prints the mc-power-cycle outcome classes per seed, the
// content of perfbench/expected/mc_classes.json.
//
// Checkpoints and sockets are written below the current directory.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nvffbench: %s\nusage: nvffbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --threads N\n",
               why);
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string recordRange;
  RunContext ctx;
  bool haveSeed = false, haveSeconds = false, haveTrace = false, haveThreads = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--record-mc-classes") {
      recordRange = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      haveSeconds = *end == '\0' && ctx.seconds > 0.0;
    } else if (flag == "--trace") {
      haveTrace = value == "0" || value == "1";
      ctx.traced = value == "1";
    } else if (flag == "--threads") {
      ctx.threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      haveThreads = *end == '\0' && ctx.threads >= 1 && ctx.threads <= 4;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!recordRange.empty()) {
    unsigned long long first = 0, last = 0;
    if (!haveThreads || std::sscanf(recordRange.c_str(), "%llu-%llu", &first, &last) != 2 ||
        first > last)
      usage("--record-mc-classes needs FIRST-LAST and --threads");
    std::printf("%s\n", record_mc_classes(first, last, ctx.threads).text().c_str());
    return 0;
  }
  if (!haveSeed || !haveSeconds || !haveTrace || !haveThreads)
    usage("--seed, --seconds, --trace and --threads need valid values");

  // The flow logs one info line per benchmark; keep stderr for failures.
  nvff::set_log_level(nvff::LogLevel::Warn);
  try {
    JsonObj doc;
    if (workload == "mc-power-cycle")
      doc = run_mc_power_cycle(ctx);
    else if (workload == "paper-tables")
      doc = run_paper_tables(ctx);
    else if (workload == "powerfail-checkpointed")
      doc = run_powerfail_checkpointed(ctx);
    else
      usage(("unknown workload " + workload).c_str());
    doc.str("workload", workload)
        .raw("seed", std::to_string(ctx.seed))
        .integer("threads", ctx.threads)
        .num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", doc.text().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nvffbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
