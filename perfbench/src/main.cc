// The repo benchmark's entry point. Runs one workload and prints, as the
// last line of stdout, one JSON object with `correct`, `attempted`, `failed`
// and the metrics (end-to-end ones, or per-layer ones with --trace 1):
//
//   perfbench --workload stream-mnist2|serve-heart|batch-mnist2
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// perfbench/run.py builds this binary from source and forwards its args.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream-mnist2|serve-heart|batch-mnist2 --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  if (options.workload == "stream-mnist2") {
    perfbench::RunStreamMnist2(options, report);
  } else if (options.workload == "serve-heart") {
    perfbench::RunServeHeart(options, report);
  } else if (options.workload == "batch-mnist2") {
    perfbench::RunBatchMnist2(options, report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
