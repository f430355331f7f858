#include "replay.h"

#include <cmath>
#include <cstring>
#include <random>

#include "cluster/descender.h"
#include "common/math_utils.h"
#include "core/dbaugur.h"
#include "ensemble/presets.h"
#include "serve/retrainer.h"
#include "serve/snapshot.h"

namespace perfbench {

namespace serve = dbaugur::serve;
namespace ts = dbaugur::ts;

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

serve::TraceBinner BinnerFrom(const BinMap& bins, int64_t interval) {
  serve::TraceBinner b(interval);
  for (const auto& [id, per_bin] : bins) {
    for (const auto& [bin, count] : per_bin) b.FoldBin(id, bin, count);
  }
  return b;
}

/// The retrain path's median/MAD clamp, which has no public entry point.
void Winsorize(std::vector<ts::Series>* traces, double k) {
  if (k <= 0.0) return;
  for (ts::Series& t : *traces) {
    std::vector<double>& vals = t.mutable_values();
    double med = dbaugur::Median(vals);
    std::vector<double> dev;
    dev.reserve(vals.size());
    for (double v : vals) dev.push_back(std::abs(v - med));
    double mad = dbaugur::Median(std::move(dev));
    if (!(mad > 0.0)) continue;
    double radius = k * 1.4826 * mad;
    for (double& v : vals) v = std::min(std::max(v, med - radius), med + radius);
  }
}

}  // namespace

std::string CompareSnapshots(const serve::ServiceSnapshot& a,
                             const serve::ServiceSnapshot& b) {
  if (a.generation != b.generation) return "generation";
  if (a.trace_names != b.trace_names) return "trace names";
  if (a.trace_cluster != b.trace_cluster) return "trace cluster ids";
  if (a.trace_proportion.size() != b.trace_proportion.size()) {
    return "trace proportion count";
  }
  for (size_t i = 0; i < a.trace_proportion.size(); ++i) {
    if (!SameBits(a.trace_proportion[i], b.trace_proportion[i])) {
      return "proportion of trace " + a.trace_names[i];
    }
  }
  if (a.clusters.size() != b.clusters.size()) return "cluster count";
  for (size_t r = 0; r < a.clusters.size(); ++r) {
    const serve::SnapshotCluster& x = a.clusters[r];
    const serve::SnapshotCluster& y = b.clusters[r];
    if (x.cluster_id != y.cluster_id || x.member_count != y.member_count ||
        x.model_kind != y.model_kind || x.degraded != y.degraded ||
        !SameBits(x.volume, y.volume) || !SameBits(x.next_value, y.next_value)) {
      return "cluster rank " + std::to_string(r);
    }
  }
  return "";
}

ReplayResult ReplayShard(const ReplayInput& in, SpanRecorder* spans,
                         int64_t parent, int64_t cycle, int64_t shard,
                         dbaugur::ThreadPool* fit_pool) {
  ReplayResult r;
  const serve::ServeOptions& o = *in.options;
  const serve::RetrainerOptions ro{o.bin_interval_seconds, o.min_bins, o.seed,
                                   o.winsorize_k, o.divergence_multiple};

  // Drain + Fold: the cycle's events, queued in an ingestor configured like
  // the shard's, folded into the history the shard held before the cycle.
  {
    serve::TraceIngestor ingest(serve::IngestorOptions{
        std::max<size_t>(in.events.size(), 1), o.max_templates,
        o.max_lateness_seconds, o.min_timestamp_seconds, o.max_timestamp_seconds});
    for (const serve::TraceEvent& e : in.events) ingest.Offer(e);
    serve::Retrainer fold(o.pipeline, ro);
    fold.InstallState(BinnerFrom(in.before, o.bin_interval_seconds), 0);
    {
      ScopedSpan span(spans, "serve.drain_fold", parent, cycle, shard);
      std::vector<serve::TraceEvent> drained;
      ingest.Drain(&drained);
      fold.Fold(drained);
    }
    r.fold_matches = fold.binner().bins() == in.after;
  }

  // Whole rebuild, which must reproduce what the service published.
  serve::Retrainer retrainer(o.pipeline, ro);
  retrainer.InstallState(BinnerFrom(in.after, o.bin_interval_seconds),
                         in.cycles_before);
  {
    int64_t id = spans->Begin("serve.rebuild", parent, cycle, shard);
    auto snap = retrainer.Rebuild(in.generation, in.last_good.get(), fit_pool);
    spans->End(id);
    if (!snap.ok()) {
      r.mismatch = "rebuild failed: " + snap.status().ToString();
    } else if (*snap == nullptr) {
      r.mismatch = "rebuild skipped for lack of data";
    } else {
      r.mismatch = CompareSnapshots(**snap, *in.published);
    }
    r.reproduced = r.mismatch.empty();
  }

  // The same rebuild, stage by stage through public calls.
  ScopedSpan stages(spans, "serve.rebuild.stages", parent, cycle, shard);
  std::vector<ts::Series> traces;
  {
    ScopedSpan span(spans, "serve.materialize", stages.id(), cycle, shard);
    auto t = retrainer.binner().Traces();
    if (t.ok()) traces = std::move(t).value();
  }
  if (traces.empty()) return r;
  r.history_bins = retrainer.binner().bin_count();
  r.traces = traces.size();
  std::vector<std::string> names;
  names.reserve(traces.size());
  for (const ts::Series& t : traces) names.push_back(t.name());
  Winsorize(&traces, o.winsorize_k);

  std::mt19937_64 seeds(o.seed);
  seeds.discard(in.cycles_before);
  dbaugur::core::DBAugurOptions opts = o.pipeline;
  opts.forecaster.seed = seeds();
  opts.tolerate_fit_failures = true;

  dbaugur::core::TrainedState state;
  std::vector<dbaugur::cluster::ClusterInfo> top;
  {
    ScopedSpan build(spans, "core.build", stages.id(), cycle, shard);
    state.descender = std::make_unique<dbaugur::cluster::Descender>(opts.clustering);
    {
      ScopedSpan span(spans, "cluster.add_traces", build.id(), cycle, shard);
      if (!state.descender->AddTraces(traces).ok()) return r;
    }
    state.trace_cluster.resize(traces.size());
    state.trace_proportion.resize(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
      state.trace_cluster[i] = state.descender->label(i);
      auto prop = state.descender->TraceProportion(i);
      state.trace_proportion[i] = prop.ok() ? *prop : 0.0;
    }
    {
      ScopedSpan span(spans, "cluster.representatives", build.id(), cycle, shard);
      top = state.descender->TopKClusters(opts.top_k);
      state.forecasts.resize(top.size());
      for (size_t rank = 0; rank < top.size(); ++rank) {
        auto rep = state.descender->ClusterRepresentative(top[rank].id);
        if (!rep.ok()) return r;
        dbaugur::core::ClusterForecast& cf = state.forecasts[rank];
        cf.cluster_id = top[rank].id;
        cf.volume = top[rank].volume;
        cf.member_count = top[rank].members.size();
        cf.representative = std::move(rep).value();
      }
    }
    // Same lane policy as the service: fits run on the worker's fit pool
    // when the pipeline is multi-threaded, serially otherwise.
    auto fit_one = [&](size_t rank) {
      ScopedSpan span(spans, "ensemble.fit", build.id(), cycle, shard);
      dbaugur::core::ClusterForecast& cf = state.forecasts[rank];
      auto model = dbaugur::ensemble::MakeDBAugur(opts.forecaster, opts.delta);
      if (!model.ok()) {
        cf.fit_status = model.status();
        return;
      }
      cf.fit_status = (*model)->Fit(cf.representative.values());
      if (cf.fit_status.ok()) cf.model = std::move(model).value();
    };
    if (fit_pool != nullptr) {
      fit_pool->ParallelFor(top.size(), 1, [&](size_t begin, size_t end) {
        for (size_t rank = begin; rank < end; ++rank) fit_one(rank);
      });
    } else {
      for (size_t rank = 0; rank < top.size(); ++rank) fit_one(rank);
    }
  }
  r.pairs = static_cast<int64_t>(traces.size()) *
            (static_cast<int64_t>(traces.size()) - 1) / 2;
  r.pruning = state.descender->pruning_stats();
  r.clusters = state.descender->cluster_count();
  double top_volume = 0.0, all_volume = 0.0;
  for (const auto& c : top) top_volume += c.volume;
  for (const auto& c : state.descender->TopKClusters(r.clusters)) all_volume += c.volume;
  r.topk_volume_share = all_volume > 0.0 ? top_volume / all_volume : 0.0;
  if (!state.forecasts.empty()) r.rank0 = state.forecasts[0].representative;

  for (const dbaugur::core::ClusterForecast& cf : state.forecasts) {
    if (cf.model == nullptr) continue;
    ScopedSpan span(spans, "models.predict", stages.id(), cycle, shard);
    (void)dbaugur::core::NextClusterValue(cf, opts.forecaster.window);
  }
  serve::SnapshotFallback fb;
  fb.opts = &opts;
  fb.last_good = (in.last_good != nullptr && in.last_good->trained())
                     ? in.last_good.get()
                     : nullptr;
  fb.divergence_multiple = o.divergence_multiple;
  {
    ScopedSpan span(spans, "serve.snapshot", stages.id(), cycle, shard);
    auto snap = serve::MakeSnapshot(std::move(state), names, opts.forecaster.window,
                                    in.generation, fb);
    r.stages_reproduced = snap.ok() && CompareSnapshots(**snap, *in.published).empty();
  }
  r.traces_values = std::move(traces);
  return r;
}

}  // namespace perfbench
