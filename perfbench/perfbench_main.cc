// Benchmark binary: one workload per process, so peak RSS and the registry
// belong to that workload alone.
//
//   perfbench --workload serve_warm|serve_ingest|train --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Prints a human report, then as its last line the JSON result object
// (correct, attempted, failed, metrics). Exits 1 when any output check
// fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Result result;
  int rc = 2;
  if (args.workload == "serve_warm") {
    rc = perfbench::RunServe(args, /*ingest=*/false, &result);
  } else if (args.workload == "serve_ingest") {
    rc = perfbench::RunServe(args, /*ingest=*/true, &result);
  } else if (args.workload == "train") {
    rc = perfbench::RunTrain(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  result.Print(args.trace);
  return result.correct() ? 0 : 1;
}
