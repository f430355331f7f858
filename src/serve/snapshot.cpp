#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "ensemble/presets.h"

namespace dbaugur::serve {

namespace {
constexpr uint32_t kSnapshotMagic = 0xDBA65E01;
// v2 added per-cluster model_kind + degraded flag/reason.
constexpr uint32_t kSnapshotVersion = 2;

// Smallest encodings of the records DeserializeSnapshot reads by count (a Str
// or Bytes is a U32 length plus its bytes). Counts come from untrusted input,
// so each is bounded by the records the reader can still supply before
// anything is sized by it.
constexpr size_t kMinTraceRecordBytes = 4 + 4 + 8;  // name, cluster, share
constexpr size_t kMinClusterRecordBytes =
    4 + 8 + 8 + 8 + 8 + 4 + 8 +  // id, volume, members, start, interval,
                                 // representative name and length
    8 + 1 + 1 + 4 + 4;           // next value, kind, degraded, reason, model

// Constructs an untrained model of the given preset kind.
StatusOr<std::unique_ptr<ensemble::TimeSensitiveEnsemble>> BuildByKind(
    const core::DBAugurOptions& opts, SnapshotCluster::ModelKind kind) {
  switch (kind) {
    case SnapshotCluster::ModelKind::kEnsemble:
      return ensemble::MakeDBAugur(opts.forecaster, opts.delta);
    case SnapshotCluster::ModelKind::kKernelBaseline:
      return ensemble::MakeKernelBaseline(opts.forecaster);
  }
  return Status::InvalidArgument("serve: unknown snapshot model kind");
}

// Clones a trained ensemble via its lossless state round-trip. The source may
// belong to an immutable published snapshot, so it is never mutated.
StatusOr<std::unique_ptr<ensemble::TimeSensitiveEnsemble>> CloneModel(
    const core::DBAugurOptions& opts, SnapshotCluster::ModelKind kind,
    const ensemble::TimeSensitiveEnsemble& src) {
  auto state = src.SaveState();
  if (!state.ok()) return state.status();
  auto clone = BuildByKind(opts, kind);
  if (!clone.ok()) return clone.status();
  DBAUGUR_RETURN_IF_ERROR((*clone)->LoadState(*state));
  return std::move(clone).value();
}

// A forecast is sane when finite and within `multiple` observed spans beyond
// the representative's min/max (multiple <= 0 checks finiteness only).
bool ForecastSane(double value, const ts::Series& representative,
                  double multiple) {
  if (!std::isfinite(value)) return false;
  if (multiple <= 0.0) return true;
  const auto& vals = representative.values();
  if (vals.empty()) return true;
  auto [lo_it, hi_it] = std::minmax_element(vals.begin(), vals.end());
  double lo = *lo_it, hi = *hi_it;
  double span = hi - lo;
  if (!(span > 0.0)) span = std::max(1.0, std::abs(hi));
  return value >= lo - multiple * span && value <= hi + multiple * span;
}
}  // namespace

StatusOr<double> ServiceSnapshot::ForecastCluster(size_t rank) const {
  if (!trained()) {
    return Status::FailedPrecondition("serve: no trained snapshot published");
  }
  if (rank >= clusters.size()) {
    return Status::OutOfRange("serve: cluster rank out of range");
  }
  return clusters[rank].next_value;
}

StatusOr<double> ServiceSnapshot::ForecastTrace(size_t trace_index) const {
  if (!trained()) {
    return Status::FailedPrecondition("serve: no trained snapshot published");
  }
  if (trace_index >= trace_cluster.size()) {
    return Status::OutOfRange("serve: trace index out of range");
  }
  int cid = trace_cluster[trace_index];
  for (const SnapshotCluster& c : clusters) {
    if (c.cluster_id == cid) {
      double total = c.next_value * static_cast<double>(c.member_count);
      return total * trace_proportion[trace_index];
    }
  }
  return Status::NotFound(
      "serve: trace's cluster is outside the forecasted top-K");
}

namespace {
// The `last_good` cluster (may be null) that shares the most member
// templates, by trace name, with cluster `cluster_id` of `snap`; ties go to
// the larger volume, which comes first. Null when none shares one or has a
// model. Never matched by cluster id (see MakeSnapshot).
const SnapshotCluster* MatchLastGood(const ServiceSnapshot* last_good,
                                     const ServiceSnapshot& snap,
                                     int cluster_id) {
  if (last_good == nullptr) return nullptr;
  std::unordered_set<std::string_view> members;
  for (size_t i = 0; i < snap.trace_names.size(); ++i) {
    if (snap.trace_cluster[i] == cluster_id) {
      members.insert(snap.trace_names[i]);
    }
  }
  std::unordered_map<int, size_t> shared;  // last-good cluster id -> members
  for (size_t i = 0; i < last_good->trace_names.size(); ++i) {
    if (members.count(last_good->trace_names[i]) != 0) {
      ++shared[last_good->trace_cluster[i]];
    }
  }
  const SnapshotCluster* best = nullptr;
  size_t best_shared = 0;
  for (const SnapshotCluster& prev : last_good->clusters) {
    auto it = shared.find(prev.cluster_id);
    if (prev.model == nullptr || it == shared.end()) continue;
    if (it->second > best_shared) {
      best = &prev;
      best_shared = it->second;
    }
  }
  return best;
}

// Fills `sc` with a fallback model for a cluster whose fresh fit failed or
// diverged: first the model of its MatchLastGood cluster (cloned, then
// revalidated on the new representative), else a freshly fit
// kernel-regression baseline. `snap` is the snapshot being built (its trace
// tables name `sc`'s members); `cause` describes the failure.
Status ApplyFallback(const SnapshotFallback& fb, size_t window,
                     const ServiceSnapshot& snap, const std::string& cause,
                     SnapshotCluster* sc) {
  sc->degraded = true;
  const SnapshotCluster* prev =
      MatchLastGood(fb.last_good, snap, sc->cluster_id);
  if (prev != nullptr) {
    // An unclonable or (on the new data) insane last-good falls through to KR.
    auto clone = CloneModel(*fb.opts, prev->model_kind, *prev->model);
    if (clone.ok()) {
      auto next = core::PredictNextValue(**clone, sc->representative, window);
      if (next.ok() &&
          ForecastSane(*next, sc->representative, fb.divergence_multiple)) {
        sc->model = std::move(clone).value();
        sc->model_kind = prev->model_kind;
        sc->next_value = *next;
        sc->degraded_reason =
            cause + "; serving last-good generation " +
            std::to_string(fb.last_good->generation) + " model";
        return Status::OK();
      }
    }
  }
  auto baseline = ensemble::MakeKernelBaseline(fb.opts->forecaster);
  if (!baseline.ok()) return baseline.status();
  DBAUGUR_RETURN_IF_ERROR((*baseline)->Fit(sc->representative.values()));
  auto next = core::PredictNextValue(**baseline, sc->representative, window);
  if (!next.ok()) return next.status();
  if (!std::isfinite(*next)) {
    return Status::Internal(
        "serve: kernel baseline produced a non-finite forecast");
  }
  sc->model = std::move(baseline).value();
  sc->model_kind = SnapshotCluster::ModelKind::kKernelBaseline;
  sc->next_value = *next;
  sc->degraded_reason = cause + "; serving kernel-regression baseline";
  return Status::OK();
}
}  // namespace

StatusOr<std::shared_ptr<const ServiceSnapshot>> MakeSnapshot(
    core::TrainedState state, const std::vector<std::string>& trace_names,
    size_t window, uint64_t generation, const SnapshotFallback& fallback) {
  DBAUGUR_CHECK(fallback.opts != nullptr,
                "MakeSnapshot needs the pipeline options for its fallbacks");
  auto snap = std::make_shared<ServiceSnapshot>();
  snap->generation = generation;
  snap->trace_names = trace_names;
  snap->trace_cluster = std::move(state.trace_cluster);
  snap->trace_proportion = std::move(state.trace_proportion);
  snap->clusters.reserve(state.forecasts.size());
  for (core::ClusterForecast& cf : state.forecasts) {
    SnapshotCluster sc;
    sc.cluster_id = cf.cluster_id;
    sc.volume = cf.volume;
    sc.member_count = cf.member_count;
    sc.representative = std::move(cf.representative);
    std::string cause;
    if (!cf.fit_status.ok()) {
      cause = std::string("fit failed: ") + cf.fit_status.message();
    } else {
      auto next = core::PredictNextValue(*cf.model, sc.representative, window);
      if (!next.ok()) {
        cause = std::string("forecast failed: ") + next.status().message();
      } else if (DBAUGUR_FAULT_POINT("serve.retrain.diverge")) {
        cause = "forecast diverged (injected)";
      } else if (!ForecastSane(*next, sc.representative,
                               fallback.divergence_multiple)) {
        cause = "forecast diverged: " + std::to_string(*next) +
                " outside sane range of representative";
      } else {
        sc.next_value = *next;
        sc.model = std::move(cf.model);
        snap->clusters.push_back(std::move(sc));
        continue;
      }
    }
    DBAUGUR_RETURN_IF_ERROR(ApplyFallback(fallback, window, *snap, cause, &sc));
    DBAUGUR_WARN("serve: cluster " << sc.cluster_id << " degraded ("
                                   << sc.degraded_reason << ")");
    snap->clusters.push_back(std::move(sc));
  }
  return std::shared_ptr<const ServiceSnapshot>(std::move(snap));
}

Status SerializeSnapshot(const ServiceSnapshot& snap, BufWriter* w) {
  w->U32(kSnapshotMagic);
  w->U32(kSnapshotVersion);
  w->U64(snap.generation);
  w->U64(snap.trace_names.size());
  for (size_t i = 0; i < snap.trace_names.size(); ++i) {
    w->Str(snap.trace_names[i]);
    w->I32(snap.trace_cluster[i]);
    w->F64(snap.trace_proportion[i]);
  }
  w->U64(snap.clusters.size());
  for (const SnapshotCluster& c : snap.clusters) {
    w->I32(c.cluster_id);
    w->F64(c.volume);
    w->U64(c.member_count);
    w->I64(c.representative.start());
    w->I64(c.representative.interval_seconds());
    w->Str(c.representative.name());
    w->U64(c.representative.size());
    for (double v : c.representative.values()) w->F64(v);
    w->F64(c.next_value);
    w->U8(static_cast<uint8_t>(c.model_kind));
    w->U8(c.degraded ? 1 : 0);
    w->Str(c.degraded_reason);
    auto model_state = c.model->SaveState();
    if (!model_state.ok()) return model_state.status();
    w->Bytes(*model_state);
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const ServiceSnapshot>> DeserializeSnapshot(
    const core::DBAugurOptions& opts, BufReader* r) {
  auto corrupt = [] {
    return Status::InvalidArgument("serve: truncated or corrupt snapshot");
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r->U32(&magic) || !r->U32(&version)) return corrupt();
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("serve: bad snapshot magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("serve: unsupported snapshot version");
  }
  auto snap = std::make_shared<ServiceSnapshot>();
  uint64_t traces = 0;
  if (!r->U64(&snap->generation) || !r->U64(&traces)) return corrupt();
  if (traces > r->remaining() / kMinTraceRecordBytes) return corrupt();
  snap->trace_names.reserve(traces);
  snap->trace_cluster.reserve(traces);
  snap->trace_proportion.reserve(traces);
  for (uint64_t i = 0; i < traces; ++i) {
    std::string name;
    int32_t cid = 0;
    double prop = 0.0;
    if (!r->Str(&name) || !r->I32(&cid) || !r->F64(&prop)) return corrupt();
    snap->trace_names.push_back(std::move(name));
    snap->trace_cluster.push_back(cid);
    snap->trace_proportion.push_back(prop);
  }
  uint64_t n_clusters = 0;
  if (!r->U64(&n_clusters)) return corrupt();
  if (n_clusters > r->remaining() / kMinClusterRecordBytes) return corrupt();
  snap->clusters.reserve(n_clusters);
  for (uint64_t i = 0; i < n_clusters; ++i) {
    SnapshotCluster c;
    int32_t cid = 0;
    uint64_t members = 0;
    int64_t start = 0;
    int64_t interval = 0;
    std::string rep_name;
    uint64_t rep_len = 0;
    if (!r->I32(&cid) || !r->F64(&c.volume) || !r->U64(&members) ||
        !r->I64(&start) || !r->I64(&interval) || !r->Str(&rep_name) ||
        !r->U64(&rep_len)) {
      return corrupt();
    }
    c.cluster_id = cid;
    c.member_count = members;
    if (rep_len > r->remaining() / sizeof(double)) return corrupt();
    std::vector<double> rep_values(rep_len);
    for (uint64_t j = 0; j < rep_len; ++j) {
      if (!r->F64(&rep_values[j])) return corrupt();
    }
    c.representative = ts::Series(start, interval, std::move(rep_values),
                                  std::move(rep_name));
    uint8_t kind = 0;
    uint8_t degraded = 0;
    std::vector<uint8_t> model_state;
    if (!r->F64(&c.next_value) || !r->U8(&kind) || !r->U8(&degraded) ||
        !r->Str(&c.degraded_reason) || !r->Bytes(&model_state)) {
      return corrupt();
    }
    if (kind > static_cast<uint8_t>(SnapshotCluster::ModelKind::kKernelBaseline) ||
        degraded > 1) {
      return corrupt();
    }
    c.model_kind = static_cast<SnapshotCluster::ModelKind>(kind);
    c.degraded = degraded == 1;
    auto model = BuildByKind(opts, c.model_kind);
    if (!model.ok()) return model.status();
    DBAUGUR_RETURN_IF_ERROR((*model)->LoadState(model_state));
    c.model = std::move(model).value();

    // Prove the restore: the rebuilt model must reproduce the forecast that
    // was being served when the snapshot was taken, bit for bit.
    auto recomputed = core::PredictNextValue(*c.model, c.representative,
                                             opts.forecaster.window);
    if (!recomputed.ok()) return recomputed.status();
    if (*recomputed != c.next_value) {
      return Status::InvalidArgument(
          "serve: restored ensemble does not reproduce the saved forecast");
    }
    snap->clusters.push_back(std::move(c));
  }
  return std::shared_ptr<const ServiceSnapshot>(std::move(snap));
}

}  // namespace dbaugur::serve
