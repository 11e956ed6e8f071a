// Publish memory: how much a whole Query 1 publish adds to the process's
// peak resident set, per plan shape (DESIGN.md §10 "Handing over
// results").
//
// Peak RSS only rises, so each shape runs in a process of its own: the
// bench re-executes itself with `--shape NAME` for unified, greedy and
// fully partitioned. A child generates the database, reads VmHWM (the
// database-only peak), publishes the view once into a sink that discards
// the document, reads VmHWM again and reports the difference. It then
// re-executes each component's SQL alone and reports what its result
// batch holds (the allocator's bytes in use after the execution, minus
// before) next to the wire bytes a whole bind of it produces.
//
// Environment: SILK_SCALE_A (default 0.025) sets the database scale.
// Writes BENCH_publish_memory.json; no baseline gates it.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <streambuf>
#include <string>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/tuple_stream.h"
#include "silkroute/queries.h"

namespace silkroute::bench {
namespace {

struct Shape {
  const char* name;
  core::PlanStrategy strategy;
};
constexpr Shape kShapes[] = {
    {"unified", core::PlanStrategy::kUnified},
    {"greedy", core::PlanStrategy::kGreedy},
    {"partitioned", core::PlanStrategy::kFullyPartitioned},
};

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

/// Bytes the allocator has handed out and not taken back.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Discards everything written to it.
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// One shape in this process: prints "shape <name> <fields...>" and one
/// "component" line per component query.
int RunShape(const Shape& shape, double scale) {
  auto db = MakeDatabase(scale);
  const double db_mb = PeakRssMb();

  core::Publisher publisher(db.get());
  core::PublishOptions options;
  options.strategy = shape.strategy;
  options.document_element = "suppliers";
  NullBuffer null_buffer;
  std::ostream sink(&null_buffer);
  auto result =
      publisher.Publish(std::string(core::Query1Rxl()), options, &sink);
  if (!result.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double publish_mb = PeakRssMb();
  const core::PlanMetrics& m = result->metrics;
  std::printf("shape %s %.4f %.2f %.2f %zu %zu %zu\n", shape.name, scale,
              db_mb, publish_mb - db_mb, m.num_streams, m.rows,
              m.wire_bytes);

  // The publish ran every component once, so whatever the engine builds
  // lazily and keeps is in place before the batches are measured.
  for (size_t i = 0; i < m.sql.size(); ++i) {
    engine::QueryExecutor executor(db.get());
    const size_t before = HeapInUse();
    auto rows = executor.ExecuteRows(m.sql[i], 0, nullptr);
    const size_t held = HeapInUse() - before;
    if (!rows.ok()) {
      std::fprintf(stderr, "component %zu failed: %s\n", i,
                   rows.status().ToString().c_str());
      return 1;
    }
    const size_t num_rows = rows->size();
    engine::TupleStream whole(std::move(rows).value());
    std::printf("component %s %zu %zu %zu %zu\n", shape.name, i, num_rows,
                held, whole.wire_bytes());
  }
  return 0;
}

int Main(int argc, char** argv) {
  const double scale = EnvScale("SILK_SCALE_A", 0.025);
  if (argc == 3 && std::strcmp(argv[1], "--shape") == 0) {
    for (const Shape& shape : kShapes) {
      if (std::strcmp(argv[2], shape.name) == 0) {
        return RunShape(shape, scale);
      }
    }
    std::fprintf(stderr, "unknown shape '%s'\n", argv[2]);
    return 2;
  }

  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "cannot find this program's path\n");
    return 1;
  }
  self[len] = '\0';

  BenchReport report("publish_memory");
  std::printf("%s", Header("Query 1 publish: peak RSS over the database's "
                           "(scale " + std::to_string(scale) + ")"));
  std::printf("%-12s %10s %12s %8s %8s %12s\n", "shape", "db_mb",
              "publish_mb", "streams", "rows", "wire_bytes");
  std::string components;
  for (const Shape& shape : kShapes) {
    const std::string command =
        std::string("'") + self + "' --shape " + shape.name;
    FILE* child = popen(command.c_str(), "r");
    if (child == nullptr) {
      std::fprintf(stderr, "cannot run '%s'\n", command.c_str());
      return 1;
    }
    char line[512];
    while (std::fgets(line, sizeof(line), child) != nullptr) {
      char name[32];
      double row_scale, db_mb, delta_mb;
      size_t streams, rows, wire, index, held;
      if (std::sscanf(line, "shape %31s %lf %lf %lf %zu %zu %zu", name,
                      &row_scale, &db_mb, &delta_mb, &streams, &rows,
                      &wire) == 7) {
        std::printf("%-12s %10.2f %12.2f %8zu %8zu %12zu\n", name, db_mb,
                    delta_mb, streams, rows, wire);
        report.Add(name, {{"scale", row_scale},
                          {"db_hwm_mb", db_mb},
                          {"publish_delta_mb", delta_mb},
                          {"streams", static_cast<double>(streams)},
                          {"rows", static_cast<double>(rows)},
                          {"wire_bytes", static_cast<double>(wire)}});
      } else if (std::sscanf(line, "component %31s %zu %zu %zu %zu", name,
                             &index, &rows, &held, &wire) == 5) {
        char text[160];
        std::snprintf(text, sizeof(text), "%-12s %4zu %9zu %12zu %12zu\n",
                      name, index, rows, held, wire);
        components += text;
        report.Add(std::string(name) + "/" + std::to_string(index),
                   {{"rows", static_cast<double>(rows)},
                    {"held_bytes", static_cast<double>(held)},
                    {"wire_bytes", static_cast<double>(wire)}});
      }
    }
    if (pclose(child) != 0) {
      std::fprintf(stderr, "shape %s failed\n", shape.name);
      return 1;
    }
  }
  std::printf("%s", Header("Per component: batch bytes held vs wire bytes"));
  std::printf("%-12s %4s %9s %12s %12s\n", "shape", "#", "rows",
              "held_bytes", "wire_bytes");
  std::printf("%s", components.c_str());
  return 0;
}

}  // namespace
}  // namespace silkroute::bench

int main(int argc, char** argv) {
  return silkroute::bench::Main(argc, argv);
}
