#include "core/dbaugur.h"

#include <algorithm>
#include <optional>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "ensemble/presets.h"

namespace dbaugur::core {

Status DBAugurSystem::IngestQueryLog(
    const std::vector<trace::LogEntry>& entries) {
  if (!extractor_initialized_) {
    extractor_ = trace::TraceExtractor(opts_.extraction);
    extractor_initialized_ = true;
  }
  return extractor_.IngestLog(entries);
}

void DBAugurSystem::AddResourceTrace(ts::Series series) {
  resource_traces_.push_back(std::move(series));
}

StatusOr<TrainedState> BuildTrainedState(const DBAugurOptions& opts,
                                         const std::vector<ts::Series>& traces,
                                         ThreadPool* fit_pool,
                                         const CancelToken* cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    return CancelledStatus(*cancel, "DBAugur: training");
  }
  if (traces.empty()) {
    return Status::FailedPrecondition("DBAugur: no workload traces ingested");
  }
  size_t len = traces[0].size();
  for (const auto& t : traces) {
    if (t.size() != len) {
      return Status::InvalidArgument(
          "DBAugur: trace length mismatch between query and resource traces "
          "(bin resource samples at the same interval over the same range)");
    }
  }

  TrainedState state;
  // 1. Cluster with Descender. The sweep and the fits share one pool: the
  // caller's (the sharded service's one fit pool, so the spawn/join cost is
  // amortized across every shard build), else one built for this call.
  state.descender = std::make_unique<cluster::Descender>(opts.clustering);
  std::optional<ThreadPool> own_pool;
  ThreadPool* pool = fit_pool;
  if (pool == nullptr) pool = &own_pool.emplace(opts.clustering.threads);
  DBAUGUR_RETURN_IF_ERROR(state.descender->AddTraces(traces, pool));
  state.trace_cluster.resize(traces.size());
  state.trace_proportion.resize(traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    state.trace_cluster[i] = state.descender->label(i);
    auto prop = state.descender->TraceProportion(i);
    if (!prop.ok()) return prop.status();
    state.trace_proportion[i] = *prop;
  }
  // Clustering is the first long stage: re-check between it and the fits so
  // a deadline passing mid-cluster stops the build before any model trains.
  if (cancel != nullptr && cancel->cancelled()) {
    return CancelledStatus(*cancel, "DBAugur: training");
  }

  // 2. Fit one DBAugur ensemble per top-K cluster on its average trace.
  // Representatives and the K ensembles are built serially; the fits then
  // run as one task per (member, cluster) pair.
  std::vector<cluster::ClusterInfo> top = state.descender->TopKClusters(opts.top_k);
  const size_t clusters = top.size();
  state.forecasts.resize(clusters);
  std::vector<std::unique_ptr<ensemble::TimeSensitiveEnsemble>> models(clusters);
  size_t members = 0;
  for (size_t rank = 0; rank < clusters; ++rank) {
    auto rep = state.descender->ClusterRepresentative(top[rank].id);
    if (!rep.ok()) return rep.status();
    ClusterForecast& cf = state.forecasts[rank];
    cf.cluster_id = top[rank].id;
    cf.volume = top[rank].volume;
    cf.member_count = top[rank].members.size();
    cf.representative = std::move(rep).value();
    auto model = ensemble::MakeDBAugur(opts.forecaster, opts.delta);
    if (!model.ok()) {
      cf.fit_status = model.status();
      continue;
    }
    models[rank] = std::move(model).value();
    members = std::max(members, models[rank]->member_count());
  }
  // Task t fits member t / K of cluster t mod K. ParallelFor claims indices
  // in order, so every cluster's WFGAN starts before any TCN and the short
  // fits fill the lanes the long ones leave idle. This relies on the preset
  // listing its members from most to least expensive. Each member owns an
  // RNG seeded at construction and members share no mutable state, so the
  // results are bit-identical at any lane count and on any pool.
  const size_t tasks = clusters * members;
  std::vector<Status> member_status(tasks);
  auto fit_member = [&](size_t t) {
    // Member-fit-granularity cancellation: a latched token skips every task
    // not yet started. Fits mid-flight finish their member — cancellation is
    // cooperative, and a single member fit is the polling quantum.
    if (cancel != nullptr && cancel->cancelled()) {
      member_status[t] = Status::Cancelled("fit skipped: build cancelled");
      return;
    }
    if (DBAUGUR_FAULT_POINT("core.fit.member")) {
      member_status[t] = Status::Internal("injected member fit failure");
      return;
    }
    const size_t rank = t % clusters;
    const size_t member = t / clusters;
    ensemble::TimeSensitiveEnsemble* model = models[rank].get();
    if (model == nullptr || member >= model->member_count()) return;
    member_status[t] =
        model->FitMember(member, state.forecasts[rank].representative.values());
  };
  pool->ParallelFor(tasks, 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) fit_member(t);
  });
  // A cancellation observed during the fits outranks tolerate_fit_failures:
  // the caller asked the build to stop, so it must not publish a snapshot
  // built from whatever subset of members happened to finish.
  if (cancel != nullptr && cancel->cancelled()) {
    return CancelledStatus(*cancel, "DBAugur: training");
  }
  // A cluster's status is its first failing member's, in member order — what
  // a sequential Fit returns. Any failed member leaves the cluster unmodelled.
  for (size_t rank = 0; rank < clusters; ++rank) {
    ClusterForecast& cf = state.forecasts[rank];
    if (models[rank] == nullptr) continue;
    for (size_t member = 0; member < members && cf.fit_status.ok(); ++member) {
      cf.fit_status = member_status[member * clusters + rank];
    }
    if (cf.fit_status.ok()) cf.fit_status = models[rank]->FinishFit();
    if (cf.fit_status.ok()) cf.model = std::move(models[rank]);
  }
  if (!opts.tolerate_fit_failures) {
    for (const ClusterForecast& cf : state.forecasts) {
      if (!cf.fit_status.ok()) return cf.fit_status;
    }
  }
  return state;
}

StatusOr<double> NextClusterValue(const ClusterForecast& cf, size_t window) {
  if (cf.representative.size() < window) {
    return Status::FailedPrecondition(
        "DBAugur: representative shorter than window");
  }
  const auto& vals = cf.representative.values();
  std::vector<double> w(vals.end() - static_cast<ptrdiff_t>(window),
                        vals.end());
  return cf.model->Predict(w);
}

Status DBAugurSystem::Train() {
  // Materialize the workload collection W = W(Q) ∪ W(R).
  std::vector<ts::Series> traces;
  trace_refs_.clear();
  if (extractor_.entry_count() > 0) {
    auto templates = extractor_.TemplateTraces();
    if (!templates.ok()) return templates.status();
    for (size_t id = 0; id < templates->size(); ++id) {
      trace_refs_.push_back({TraceRef::Kind::kQueryTemplate, id,
                             extractor_.registry().template_text(id)});
      traces.push_back(std::move((*templates)[id]));
    }
  }
  for (size_t r = 0; r < resource_traces_.size(); ++r) {
    trace_refs_.push_back(
        {TraceRef::Kind::kResource, r, resource_traces_[r].name()});
    traces.push_back(resource_traces_[r]);
  }
  auto state = BuildTrainedState(opts_, traces);
  if (!state.ok()) return state.status();
  descender_ = std::move(state->descender);
  forecasts_ = std::move(state->forecasts);
  trace_cluster_ = std::move(state->trace_cluster);
  trace_proportion_ = std::move(state->trace_proportion);
  trained_ = true;
  return Status::OK();
}

dtw::PruningStats DBAugurSystem::clustering_pruning_stats() const {
  return descender_ ? descender_->pruning_stats() : dtw::PruningStats();
}

StatusOr<double> DBAugurSystem::ForecastCluster(size_t rank) const {
  if (!trained_) return Status::FailedPrecondition("DBAugur: Train not called");
  if (rank >= forecasts_.size()) {
    return Status::OutOfRange("DBAugur: cluster rank out of range");
  }
  return NextClusterValue(forecasts_[rank], opts_.forecaster.window);
}

StatusOr<double> DBAugurSystem::ForecastTrace(size_t trace_index) const {
  if (!trained_) return Status::FailedPrecondition("DBAugur: Train not called");
  if (trace_index >= trace_cluster_.size()) {
    return Status::OutOfRange("DBAugur: trace index out of range");
  }
  int cid = trace_cluster_[trace_index];
  for (size_t rank = 0; rank < forecasts_.size(); ++rank) {
    if (forecasts_[rank].cluster_id == cid) {
      auto cluster_pred = ForecastCluster(rank);
      if (!cluster_pred.ok()) return cluster_pred.status();
      // The representative is the cluster *average*; scale to the cluster
      // total, then to this trace via its volume proportion.
      double total = *cluster_pred *
                     static_cast<double>(forecasts_[rank].member_count);
      return total * trace_proportion_[trace_index];
    }
  }
  return Status::NotFound(
      "DBAugur: trace's cluster is outside the forecasted top-K");
}

}  // namespace dbaugur::core
