#include "chaos/oracle.h"

#include <cmath>
#include <string>

#include "common/hashing.h"

namespace dbaugur::chaos {

namespace {

// Independent floor division (do not share the production helper: the whole
// point of a differential oracle is two implementations of the contract).
int64_t RefFloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

Status Mismatch(const std::string& what) {
  return Status::Internal("differential mismatch: " + what);
}

}  // namespace

ReferenceResult RunSequentialReference(
    const std::vector<serve::TraceEvent>& events,
    const ReferenceOptions& opts) {
  ReferenceResult r;
  int64_t max_ts = 0;
  bool any_accepted = false;
  for (const serve::TraceEvent& e : events) {
    ++r.offered;
    if (e.template_id >= opts.max_templates) {
      ++r.drops.template_id;
      continue;
    }
    if (!std::isfinite(e.count)) {
      ++r.drops.nonfinite;
      continue;
    }
    if (e.count < 0.0) {
      ++r.drops.negative;
      continue;
    }
    if (opts.min_timestamp_seconds >= 0 &&
        e.timestamp < opts.min_timestamp_seconds) {
      ++r.drops.pre_epoch;
      continue;
    }
    if (opts.max_timestamp_seconds >= 0 &&
        e.timestamp > opts.max_timestamp_seconds) {
      ++r.drops.future;
      continue;
    }
    if (opts.max_lateness_seconds >= 0 && any_accepted) {
      // Overflow-aware cutoff, mirrored from the contract: a wrapped
      // subtraction means nothing can be stale.
      int64_t cutoff = 0;
      if (!__builtin_sub_overflow(max_ts, opts.max_lateness_seconds,
                                  &cutoff) &&
          e.timestamp < cutoff) {
        ++r.drops.stale;
        continue;
      }
    }
    ++r.accepted;
    if (!any_accepted || e.timestamp > max_ts) max_ts = e.timestamp;
    any_accepted = true;
    int64_t bin = RefFloorDiv(e.timestamp, opts.interval_seconds);
    r.bins[e.template_id][bin] += e.count;
    if (!r.any) {
      r.any = true;
      r.min_bin = r.max_bin = bin;
    } else {
      if (bin < r.min_bin) r.min_bin = bin;
      if (bin > r.max_bin) r.max_bin = bin;
    }
  }
  return r;
}

Status CompareIngest(const ReferenceResult& ref,
                     const serve::TraceIngestor& ingestor,
                     const serve::TraceBinner& binner) {
  const serve::IngestDropStats got = ingestor.drop_stats();
  if (got.full != 0 || ref.drops.full != 0) {
    return Mismatch("queue-full drops in a differential run (production " +
                    std::to_string(got.full) +
                    ") — drain cadence too slow for the queue capacity");
  }
  if (ingestor.accepted() != ref.accepted) {
    return Mismatch("accepted " + std::to_string(ingestor.accepted()) +
                    " != reference " + std::to_string(ref.accepted));
  }
  auto check_drop = [&](const char* name, uint64_t got_n,
                        uint64_t want) -> Status {
    if (got_n != want) {
      return Mismatch(std::string("drop[") + name + "] " +
                      std::to_string(got_n) + " != reference " +
                      std::to_string(want));
    }
    return Status::OK();
  };
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("template_id", got.template_id, ref.drops.template_id));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("nonfinite", got.nonfinite, ref.drops.nonfinite));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("negative", got.negative, ref.drops.negative));
  DBAUGUR_RETURN_IF_ERROR(check_drop("stale", got.stale, ref.drops.stale));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("pre_epoch", got.pre_epoch, ref.drops.pre_epoch));
  DBAUGUR_RETURN_IF_ERROR(check_drop("future", got.future, ref.drops.future));

  if (!ref.any) {
    if (binner.template_count() != 0) {
      return Mismatch("binner holds " +
                      std::to_string(binner.template_count()) +
                      " templates, reference accepted nothing");
    }
    return Status::OK();
  }
  auto traces = binner.Traces();
  if (!traces.ok()) {
    return Mismatch("binner refuses to materialize: " +
                    traces.status().message());
  }
  if (traces->size() != ref.bins.size()) {
    return Mismatch("binner has " + std::to_string(traces->size()) +
                    " templates, reference " +
                    std::to_string(ref.bins.size()));
  }
  const size_t len = static_cast<size_t>(ref.max_bin - ref.min_bin + 1);
  // Both sides iterate template ids in ascending order (std::map).
  size_t i = 0;
  for (const auto& [tid, tbins] : ref.bins) {
    const ts::Series& got_trace = (*traces)[i++];
    const std::string want_name = "template" + std::to_string(tid);
    if (got_trace.name() != want_name) {
      return Mismatch("trace " + std::to_string(i - 1) + " named '" +
                      got_trace.name() + "', reference '" + want_name + "'");
    }
    if (got_trace.size() != len ||
        got_trace.start() != ref.min_bin * binner.interval_seconds()) {
      return Mismatch(want_name + ": shape/start differs (got " +
                      std::to_string(got_trace.size()) + " bins from " +
                      std::to_string(got_trace.start()) + ")");
    }
    for (size_t b = 0; b < len; ++b) {
      const auto it = tbins.find(ref.min_bin + static_cast<int64_t>(b));
      const double want = it == tbins.end() ? 0.0 : it->second;
      if (got_trace[b] != want) {
        return Mismatch(want_name + " bin " + std::to_string(b) + ": " +
                        std::to_string(got_trace[b]) + " != reference " +
                        std::to_string(want));
      }
    }
  }
  return Status::OK();
}

Status CheckIngestConservation(uint64_t offered,
                               const serve::TraceIngestor& ingestor) {
  const uint64_t accepted = ingestor.accepted();
  const uint64_t dropped = ingestor.drop_stats().total();
  if (accepted + dropped != offered) {
    return Mismatch("conservation: accepted " + std::to_string(accepted) +
                    " + dropped " + std::to_string(dropped) +
                    " != offered " + std::to_string(offered));
  }
  return Status::OK();
}

Status CompareShardedIngest(const ReferenceResult& ref,
                            const std::vector<ShardIngestView>& shards) {
  uint64_t accepted = 0;
  serve::IngestDropStats drops;
  std::map<uint32_t, std::map<int64_t, double>> merged;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardIngestView& v = shards[s];
    accepted += v.accepted;
    drops += v.drops;
    for (const auto& [tmpl, bins] : v.bins) {
      const size_t owner = ShardOfKey(tmpl, shards.size());
      if (owner != s) {
        return Mismatch("template " + std::to_string(tmpl) +
                        " binned on shard " + std::to_string(s) +
                        ", the routing hash names shard " +
                        std::to_string(owner));
      }
      if (!merged.emplace(tmpl, bins).second) {
        return Mismatch("template " + std::to_string(tmpl) +
                        " binned on more than one shard");
      }
    }
  }
  if (drops.full != 0 || ref.drops.full != 0) {
    return Mismatch("queue-full drops in a sharded differential run (" +
                    std::to_string(drops.full) +
                    ") — drain cadence too slow for the queue capacity");
  }
  if (ref.drops.stale != 0 || drops.stale != 0) {
    return Mismatch(
        "stale drops in a sharded differential run (reference " +
        std::to_string(ref.drops.stale) + ", shards " +
        std::to_string(drops.stale) +
        ") — per-shard lateness watermarks make exact equality undefined");
  }
  if (accepted != ref.accepted) {
    return Mismatch("sharded accepted sum " + std::to_string(accepted) +
                    " != reference " + std::to_string(ref.accepted));
  }
  auto check_drop = [](const char* name, uint64_t got_n,
                       uint64_t want) -> Status {
    if (got_n != want) {
      return Mismatch(std::string("sharded drop[") + name + "] sum " +
                      std::to_string(got_n) + " != reference " +
                      std::to_string(want));
    }
    return Status::OK();
  };
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("template_id", drops.template_id, ref.drops.template_id));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("nonfinite", drops.nonfinite, ref.drops.nonfinite));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("negative", drops.negative, ref.drops.negative));
  DBAUGUR_RETURN_IF_ERROR(
      check_drop("pre_epoch", drops.pre_epoch, ref.drops.pre_epoch));
  DBAUGUR_RETURN_IF_ERROR(check_drop("future", drops.future, ref.drops.future));
  if (merged != ref.bins) {
    // Name the first diverging template for the repro hunt.
    for (const auto& [tmpl, bins] : ref.bins) {
      auto it = merged.find(tmpl);
      if (it == merged.end()) {
        return Mismatch("template " + std::to_string(tmpl) +
                        " in the reference but on no shard");
      }
      if (it->second != bins) {
        return Mismatch("template " + std::to_string(tmpl) +
                        " binned history diverges between its shard and the "
                        "reference");
      }
    }
    return Mismatch("sharded union holds " + std::to_string(merged.size()) +
                    " templates, reference " + std::to_string(ref.bins.size()));
  }
  return Status::OK();
}

Status CheckSnapshotFinite(const serve::ServiceSnapshot& snap) {
  for (size_t c = 0; c < snap.clusters.size(); ++c) {
    const serve::SnapshotCluster& cl = snap.clusters[c];
    if (!std::isfinite(cl.next_value)) {
      return Status::Internal("snapshot cluster rank " + std::to_string(c) +
                              " forecast is not finite");
    }
    if (!std::isfinite(cl.volume)) {
      return Status::Internal("snapshot cluster rank " + std::to_string(c) +
                              " volume is not finite");
    }
    for (size_t v = 0; v < cl.representative.size(); ++v) {
      if (!std::isfinite(cl.representative[v])) {
        return Status::Internal("snapshot cluster rank " + std::to_string(c) +
                                " representative[" + std::to_string(v) +
                                "] is not finite");
      }
    }
  }
  for (size_t t = 0; t < snap.trace_proportion.size(); ++t) {
    const double p = snap.trace_proportion[t];
    if (!std::isfinite(p) || p < 0.0 || p > 1.0 + 1e-9) {
      return Status::Internal("snapshot trace proportion " +
                              std::to_string(t) + " out of [0,1]: " +
                              std::to_string(p));
    }
  }
  return Status::OK();
}

}  // namespace dbaugur::chaos
