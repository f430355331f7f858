#include "core/dbaugur.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "ensemble/presets.h"

namespace dbaugur::core {

namespace {

// One (member, cluster) fit, resumable one epoch at a time. Only the lane
// holding a job touches it; lanes hand jobs over through FitQueue's mutex.
struct FitJob {
  ensemble::TimeSensitiveEnsemble* model = nullptr;
  size_t member = 0;
  const std::vector<double>* series = nullptr;
  size_t steps = 0;  // the member's FitSteps()
  size_t done = 0;   // steps run so far
  Status status;
};

// The fit stage's ready set. Each lane steps one job at a time and keeps it
// after a step unless a ready job outranks it; the job it gives up is
// suspended before it goes back, so at most one job per lane holds
// workspaces. The ranking reads only member indices and steps left, never a
// clock, and each job runs its own steps in order on its own model, so the
// results do not depend on the lane count or the interleaving.
class FitQueue {
 public:
  static constexpr size_t kNoJob = SIZE_MAX;

  FitQueue(std::vector<FitJob>* jobs, std::vector<size_t> ready)
      : jobs_(*jobs), ready_(std::move(ready)) {}

  /// The job the calling lane steps next, or kNoJob when none is left.
  /// `held` is the job the lane just stepped, or kNoJob if it has none.
  size_t Next(size_t held) DBAUGUR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto best = ready_.end();
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (best == ready_.end() || Before(*it, *best)) best = it;
    }
    if (best == ready_.end()) return held;
    if (held != kNoJob && !Outranks(*best, held)) return held;
    const size_t next = *best;
    if (held == kNoJob) {
      *best = ready_.back();
      ready_.pop_back();
    } else {
      jobs_[held].model->SuspendMemberFit(jobs_[held].member);
      *best = held;
    }
    return next;
  }

 private:
  // A lower member index outranks: the preset lists its most expensive
  // member first. Within a member, strictly more steps left outranks.
  bool Outranks(size_t a, size_t b) const {
    const FitJob& x = jobs_[a];
    const FitJob& y = jobs_[b];
    if (x.member != y.member) return x.member < y.member;
    return x.steps - x.done > y.steps - y.done;
  }
  // Total order for picking among ready jobs: rank, then job index, so one
  // lane starts the jobs in index order.
  bool Before(size_t a, size_t b) const {
    return Outranks(a, b) || (!Outranks(b, a) && a < b);
  }

  std::vector<FitJob>& jobs_;
  Mutex mu_;
  std::vector<size_t> ready_ DBAUGUR_GUARDED_BY(mu_);
};

}  // namespace

Status DBAugurSystem::IngestQueryLog(
    const std::vector<trace::LogEntry>& entries) {
  return extractor_.IngestLog(entries);
}

void DBAugurSystem::AddResourceTrace(ts::Series series) {
  resource_traces_.push_back(std::move(series));
}

StatusOr<TrainedState> BuildTrainedState(const DBAugurOptions& opts,
                                         std::vector<ts::Series> traces,
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
  const size_t n = traces.size();
  DBAUGUR_RETURN_IF_ERROR(state.descender->AddTraces(std::move(traces), pool));
  state.trace_cluster.resize(n);
  state.trace_proportion.resize(n);
  for (size_t i = 0; i < n; ++i) {
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
  // run as one resumable job per (member, cluster) pair.
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
  // Job j fits member j / K of cluster j mod K, one epoch per step.
  // min(lanes, jobs) lane loops share one FitQueue: every WFGAN ranks before
  // any TCN (the preset lists members from most to least expensive), and a
  // job takes over the lane of a same-member job with fewer epochs left, so
  // K > lanes WFGANs share the lanes instead of the last one starting alone.
  // Each member owns an RNG seeded at construction and members share no
  // mutable state, so the results are bit-identical at any lane count and on
  // any pool.
  std::vector<FitJob> jobs(clusters * members);
  std::vector<size_t> ready;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const size_t rank = j % clusters;
    FitJob& job = jobs[j];
    job.model = models[rank].get();
    job.member = j / clusters;
    if (job.model == nullptr || job.member >= job.model->member_count()) {
      continue;
    }
    job.series = &state.forecasts[rank].representative.values();
    job.steps = job.model->member(job.member).FitSteps();
    ready.push_back(j);
  }
  FitQueue queue(&jobs, std::move(ready));
  auto lane = [&](size_t, size_t) {
    size_t j = FitQueue::kNoJob;
    while ((j = queue.Next(j)) != FitQueue::kNoJob) {
      // Epoch-granularity cancellation: a latched token stops every lane
      // before its next step. A step mid-flight finishes its epoch.
      if (cancel != nullptr && cancel->cancelled()) return;
      FitJob& job = jobs[j];
      if (job.done == 0 && DBAUGUR_FAULT_POINT("core.fit.member")) {
        job.status = Status::Internal("injected member fit failure");
        j = FitQueue::kNoJob;
        continue;
      }
      job.status = job.model->FitMemberStep(job.member, job.done, *job.series);
      if (!job.status.ok() || ++job.done == job.steps) j = FitQueue::kNoJob;
    }
  };
  pool->ParallelFor(std::min(pool->size(), jobs.size()), 1, lane);
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
      cf.fit_status = jobs[member * clusters + rank].status;
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

StatusOr<double> PredictNextValue(const ensemble::TimeSensitiveEnsemble& model,
                                  const ts::Series& representative,
                                  size_t window) {
  if (representative.size() < window) {
    return Status::FailedPrecondition(
        "DBAugur: representative shorter than window");
  }
  const auto& vals = representative.values();
  std::vector<double> w(vals.end() - static_cast<ptrdiff_t>(window),
                        vals.end());
  return model.Predict(w);
}

StatusOr<double> NextClusterValue(const ClusterForecast& cf, size_t window) {
  // A cluster kept past a failed fit (tolerate_fit_failures) has no model;
  // why it has none is its answer.
  if (cf.model == nullptr) {
    if (!cf.fit_status.ok()) return cf.fit_status;
    return Status::FailedPrecondition("DBAugur: cluster has no model");
  }
  return PredictNextValue(*cf.model, cf.representative, window);
}

Status DBAugurSystem::Train() {
  // Materialize the workload collection W = W(Q) ∪ W(R). The refs and the
  // state are committed together, so a failed Train keeps describing the
  // traces of the last one that succeeded.
  std::vector<ts::Series> traces;
  std::vector<TraceRef> refs;
  if (extractor_.entry_count() > 0) {
    auto templates = extractor_.TemplateTraces();
    if (!templates.ok()) return templates.status();
    for (size_t id = 0; id < templates->size(); ++id) {
      refs.push_back({TraceRef::Kind::kQueryTemplate, id,
                      extractor_.registry().template_text(id)});
      traces.push_back(std::move((*templates)[id]));
    }
  }
  for (size_t r = 0; r < resource_traces_.size(); ++r) {
    refs.push_back({TraceRef::Kind::kResource, r, resource_traces_[r].name()});
    traces.push_back(resource_traces_[r]);
  }
  auto state = BuildTrainedState(opts_, std::move(traces));
  if (!state.ok()) return state.status();
  state_ = std::move(state).value();
  trace_refs_ = std::move(refs);
  return Status::OK();
}

dtw::PruningStats DBAugurSystem::clustering_pruning_stats() const {
  return state_.descender ? state_.descender->pruning_stats()
                          : dtw::PruningStats();
}

StatusOr<double> DBAugurSystem::ForecastCluster(size_t rank) const {
  if (!state_.descender) {
    return Status::FailedPrecondition("DBAugur: Train not called");
  }
  if (rank >= state_.forecasts.size()) {
    return Status::OutOfRange("DBAugur: cluster rank out of range");
  }
  return NextClusterValue(state_.forecasts[rank], opts_.forecaster.window);
}

StatusOr<double> DBAugurSystem::ForecastTrace(size_t trace_index) const {
  if (!state_.descender) {
    return Status::FailedPrecondition("DBAugur: Train not called");
  }
  if (trace_index >= state_.trace_cluster.size()) {
    return Status::OutOfRange("DBAugur: trace index out of range");
  }
  int cid = state_.trace_cluster[trace_index];
  for (size_t rank = 0; rank < state_.forecasts.size(); ++rank) {
    const ClusterForecast& cf = state_.forecasts[rank];
    if (cf.cluster_id == cid) {
      auto cluster_pred = ForecastCluster(rank);
      if (!cluster_pred.ok()) return cluster_pred.status();
      // The representative is the cluster *average*; scale to the cluster
      // total, then to this trace via its volume proportion.
      double total = *cluster_pred * static_cast<double>(cf.member_count);
      return total * state_.trace_proportion[trace_index];
    }
  }
  return Status::NotFound(
      "DBAugur: trace's cluster is outside the forecasted top-K");
}

}  // namespace dbaugur::core
