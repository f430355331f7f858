// SQL2Template + clustering inspection tool.
//
// Shows how raw statements collapse into templates (including the paper's
// semantic-equivalence examples), then clusters the per-template arrival
// traces of a generated log with Descender and prints the cluster map.
//
//   ./sql_templates

#include <cstdio>

#include "cluster/descender.h"
#include "common/table_printer.h"
#include "sql/templater.h"
#include "trace/extractor.h"
#include "workloads/query_log.h"

using namespace dbaugur;

int main() {
  // --- Part 1: templating on the paper's own examples.
  const char* statements[] = {
      "SELECT * FROM Stu WHERE id=5 and age>21 and height<180",
      "SELECT * FROM Stu WHERE id=77 and age>30 and height<200",
      "SELECT a, b FROM foo",
      "SELECT b, a FROM foo",
      "SELECT * FROM A JOIN B on A.id=B.id",
      "SELECT * FROM B JOIN A on B.id=A.id",
      "SELECT * FROM t WHERE id IN (1, 2, 3)",
      "SELECT * FROM t WHERE id IN (9)",
  };
  std::printf("-- SQL2Template --\n");
  sql::TemplateRegistry registry;
  for (const char* s : statements) {
    auto id = registry.Record(s);
    if (!id.ok()) {
      std::fprintf(stderr, "template failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
    std::printf("  [T%zu] %s\n", *id, s);
  }
  std::printf("\n%zu statements -> %zu templates:\n", std::size(statements),
              registry.size());
  for (size_t id = 0; id < registry.size(); ++id) {
    std::printf("  T%zu (x%lld): %s\n", id,
                static_cast<long long>(registry.count(id)),
                registry.template_text(id).c_str());
  }

  // --- Part 2: template traces from a generated log, clustered with DTW.
  std::printf("\n-- Trace clustering --\n");
  workloads::QueryLogOptions lopts;
  lopts.days = 2;
  lopts.seed = 21;
  auto log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  trace::ExtractionOptions eopts;
  eopts.interval_seconds = 600;
  trace::TraceExtractor extractor(eopts);
  if (Status st = extractor.IngestLog(log); !st.ok()) {
    std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
    return 1;
  }
  auto traces = extractor.TemplateTraces();
  if (!traces.ok()) {
    std::fprintf(stderr, "traces: %s\n", traces.status().ToString().c_str());
    return 1;
  }
  cluster::DescenderOptions copts;
  copts.radius = 6.0;
  copts.min_size = 2;
  copts.dtw.window = 6;
  cluster::Descender desc(copts);
  if (Status st = desc.AddTraces(*traces); !st.ok()) {
    std::fprintf(stderr, "cluster: %s\n", st.ToString().c_str());
    return 1;
  }

  TablePrinter table({"template", "cluster", "core", "share"});
  for (size_t i = 0; i < desc.trace_count(); ++i) {
    auto share = desc.TraceProportion(i);
    table.AddRow({extractor.registry().template_text(i).substr(0, 52),
                  std::to_string(desc.label(i)), desc.is_core(i) ? "yes" : "no",
                  share.ok() ? TablePrinter::Fmt(*share, 2) : "?"});
  }
  table.Print();
  std::printf(
      "\n%zu templates -> %zu clusters (%zu dense); note the ticket price and\n"
      "seats-left lookups land together despite their time shift — the DTW\n"
      "win over lock-step distances.\n",
      desc.trace_count(), desc.cluster_count(), desc.density_cluster_count());
  const dtw::PruningStats& st = desc.pruning_stats();
  std::printf(
      "candidate pairs: %lld rejected by LB_Kim, %lld by LB_Keogh, %lld full "
      "DTW\n",
      static_cast<long long>(st.kim_rejections),
      static_cast<long long>(st.keogh_rejections),
      static_cast<long long>(st.full_dtw));
  return 0;
}
