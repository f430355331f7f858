#include "cluster/descender.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/contracts.h"

namespace dbaugur::cluster {

namespace {

// A pair the endpoint grid hands to the batch sweep: the earlier row and its
// 3·len doubles (distance values, lower envelope, upper envelope).
struct Candidate {
  size_t row;
  const double* data;
};

// Endpoint grid for the batch sweep: hands each new row the earlier rows
// whose pair with it passes LB_Kim, the cascade's first tier, without
// touching the rest.
//
// LB_Kim reads only the first and last distance values. The grid buckets
// rows on square cells of side h, a hair above ρ, keyed by
// (⌊first/h⌋, ⌊last/h⌋). In IEEE arithmetic LB_Kim = √(Δfirst² + Δlast²) ≥
// max(|Δfirst|, |Δlast|) whenever those squares stay out of the subnormal
// range, so a pair with either gap above ρ is a pair LB_Kim rejects; any
// pair within ρ on both lies in the same or an adjacent cell even after
// rounding, so a row visits only its 3×3 neighbourhood. There it decides
// LB_Kim exactly and without a square root: the sum Δfirst² + Δlast² is the
// one dtw::LbKim roots, and √s > ρ holds exactly when s exceeds
// dtw::SquaredRadiusThreshold(ρ). (One-value traces take LbKim's max form,
// |Δfirst| > ρ.)
//
// Rows whose cell cannot be computed that exactly — non-finite endpoints, or
// |v/h| so large that rounding could shift ⌊v/h⌋ by more than a cell — go
// on a scan-all list: they are compared with every row, and every row with
// them, through dtw::LbKim itself. A radius too small (or infinite) for the
// argument above puts every row there, so exactness never depends on the
// data's range.
//
// Next to each bucketed row's endpoints the grid keeps a copy of its arena
// slice in the same (cell, row) order, so the rows one query visits sit
// together in memory; candidates point into that copy, and scan-all rows
// into the arena.
class EndpointGrid {
 public:
  /// Indexes rows [0, n) of `arena`, which holds 3·len doubles per row: the
  /// distance values, then the lower and the upper envelope.
  EndpointGrid(std::span<const double> arena, size_t len, size_t n,
               double radius)
      : arena_(arena),
        len_(len),
        radius_(radius),
        threshold_(dtw::SquaredRadiusThreshold(radius)),
        cell_(n, kScanAll) {
    ends_.reserve(2 * n);
    for (size_t r = 0; r < n; ++r) {
      ends_.push_back(Row(r)[0]);
      ends_.push_back(Row(r)[len - 1]);
    }
    const double h = radius * (1.0 + kCellMargin);
    const bool usable = radius >= kMinGridRadius && std::isfinite(h);
    std::vector<std::pair<uint64_t, size_t>> entries;
    for (size_t r = 0; r < n; ++r) {
      if (!usable) {
        scan_all_.push_back(r);
        continue;
      }
      const double qf = ends_[2 * r] / h;
      const double ql = ends_[2 * r + 1] / h;
      // Written so that NaN quotients fail too.
      if (!(std::fabs(qf) <= kMaxCell) || !(std::fabs(ql) <= kMaxCell)) {
        scan_all_.push_back(r);
        continue;
      }
      cell_[r] = CellKey(static_cast<int64_t>(std::floor(qf)),
                         static_cast<int64_t>(std::floor(ql)));
      entries.emplace_back(cell_[r], r);
    }
    // By cell, then by row: each cell's rows ascend.
    std::sort(entries.begin(), entries.end());
    rows_.reserve(entries.size());
    sorted_ends_.reserve(2 * entries.size());
    sorted_rows_.resize(3 * len * entries.size());
    for (size_t t = 0; t < entries.size(); ++t) {
      const auto [key, r] = entries[t];
      if (t == 0 || key != cell_keys_.back()) {
        cell_keys_.push_back(key);
        cell_start_.push_back(t);
      }
      rows_.push_back(r);
      sorted_ends_.push_back(ends_[2 * r]);
      sorted_ends_.push_back(ends_[2 * r + 1]);
      const double* row = Row(r);
      std::copy(row, row + 3 * len, sorted_rows_.begin() + 3 * len * t);
    }
    cell_start_.push_back(entries.size());
  }

  /// Appends to `out` every j < gi whose pair with row gi passes LB_Kim,
  /// with a pointer to row j's values and envelope. The other gi pairs are
  /// exactly the pairs the cascade's LB_Kim tier rejects. Order is
  /// unspecified.
  void Candidates(size_t gi, std::vector<Candidate>* out) const {
    // The cascade's LB_Kim tier itself, for pairs with a scan-all row: it
    // rejects when the bound exceeds ρ (so a NaN bound passes).
    const std::span<const double> query = Ends(gi);
    auto scan = [&](size_t j) {
      if (!(dtw::LbKim(query, Ends(j)) > radius_)) {
        out->push_back({j, Row(j)});
      }
    };
    if (cell_[gi] == kScanAll) {
      for (size_t j = 0; j < gi; ++j) scan(j);
      return;
    }
    const int64_t kf = static_cast<int64_t>(cell_[gi] >> 32) - kKeyOffset;
    const int64_t kl =
        static_cast<int64_t>(cell_[gi] & 0xffffffffU) - kKeyOffset;
    for (int64_t dkf = -1; dkf <= 1; ++dkf) {
      // Cells (kf + dkf, kl - 1 .. kl + 1) are adjacent in key order.
      const uint64_t last_key = CellKey(kf + dkf, kl + 1);
      for (auto c = static_cast<size_t>(
               std::lower_bound(cell_keys_.begin(), cell_keys_.end(),
                                CellKey(kf + dkf, kl - 1)) -
               cell_keys_.begin());
           c < cell_keys_.size() && cell_keys_[c] <= last_key; ++c) {
        AppendCell(gi, c, out);
      }
    }
    for (size_t j : scan_all_) {
      if (j >= gi) break;
      scan(j);
    }
  }

 private:
  // Below this radius a gap just above ρ could square into the subnormal
  // range, where √(Δ²) may round below Δ.
  static constexpr double kMinGridRadius = 0x1p-500;
  // h = ρ · (1 + kCellMargin). The margin absorbs the rounding of the gap
  // and of both quotients while |v/h| ≤ kMaxCell.
  static constexpr double kCellMargin = 0x1p-20;
  static constexpr double kMaxCell = 0x1p30;
  // Cell indices lie in [-2^30 - 1, 2^30 + 1]; the offset packs a pair of
  // them into one order-preserving 64-bit key.
  static constexpr int64_t kKeyOffset = int64_t{1} << 31;
  static constexpr uint64_t kScanAll = std::numeric_limits<uint64_t>::max();

  static uint64_t CellKey(int64_t kf, int64_t kl) {
    return (static_cast<uint64_t>(kf + kKeyOffset) << 32) |
           static_cast<uint64_t>(kl + kKeyOffset);
  }
  const double* Row(size_t r) const { return arena_.data() + 3 * len_ * r; }
  // LB_Kim reads front and back; for one-value traces both are the same
  // value and the bound takes its single-cell form.
  std::span<const double> Ends(size_t r) const {
    return {ends_.data() + 2 * r, std::min<size_t>(len_, 2)};
  }

  // Appends cell c's rows below gi that pass LB_Kim against row gi, in one
  // branch-free pass: about half the rows of a neighbouring cell fail,
  // unpredictably.
  void AppendCell(size_t gi, size_t c, std::vector<Candidate>* out) const {
    const size_t first = cell_start_[c];
    // A cell's rows ascend, so those below gi are a prefix of it.
    const auto last = static_cast<size_t>(
        std::lower_bound(rows_.begin() + static_cast<ptrdiff_t>(first),
                         rows_.begin() + static_cast<ptrdiff_t>(
                                             cell_start_[c + 1]),
                         gi) -
        rows_.begin());
    const double f = ends_[2 * gi];
    const double l = ends_[2 * gi + 1];
    size_t kept = out->size();
    out->resize(kept + (last - first));
    Candidate* dst = out->data();
    for (size_t t = first; t < last; ++t) {
      dst[kept] = {rows_[t], sorted_rows_.data() + 3 * len_ * t};
      const double df = f - sorted_ends_[2 * t];
      const double dl = l - sorted_ends_[2 * t + 1];
      const bool rejected =
          len_ == 1 ? std::fabs(df) > radius_ : df * df + dl * dl > threshold_;
      kept += static_cast<size_t>(!rejected);
    }
    out->resize(kept);
  }

  std::span<const double> arena_;
  size_t len_;
  double radius_;
  double threshold_;               // SquaredRadiusThreshold(radius_)
  std::vector<double> ends_;       // by row: first, last value
  std::vector<uint64_t> cell_;     // by row; kScanAll if listed
  std::vector<size_t> scan_all_;   // ascending
  // Bucketed rows in (cell key, row) order, with their endpoints and a copy
  // of their arena slices, and where each cell starts.
  std::vector<size_t> rows_;
  std::vector<double> sorted_ends_;
  std::vector<double> sorted_rows_;
  std::vector<uint64_t> cell_keys_;
  std::vector<size_t> cell_start_;  // one past the last cell: rows_.size()
};

double Volume(const ts::Series& trace) {
  double vol = 0.0;
  for (double v : trace.values()) vol += v;
  return vol;
}

}  // namespace

Descender::Descender(const DescenderOptions& opts) : opts_(opts) {
  DBAUGUR_CHECK_GE(opts.radius, 0.0,
                   "Descender: neighborhood radius must be non-negative");
  DBAUGUR_CHECK_GE(opts.threads, size_t{1},
                   "Descender: thread count must be at least 1");
}

void Descender::AppendRow(const ts::Series& trace) {
  const std::vector<double>& v = trace.values();
  const size_t len = v.size();
  row_len_ = len;
  const size_t base = arena_.size();
  arena_.resize(base + 3 * len);
  const std::span<double> row(arena_.data() + base, 3 * len);
  const std::span<double> values = row.first(len);
  if (opts_.znormalize) {
    double mean = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(len);
    double var = 0.0;
    for (double x : v) var += (x - mean) * (x - mean);
    double sd = std::sqrt(var / static_cast<double>(len));
    if (sd <= 0.0) sd = 1.0;
    for (size_t i = 0; i < len; ++i) values[i] = (v[i] - mean) / sd;
  } else {
    std::copy(v.begin(), v.end(), values.begin());
  }
  dtw::BuildEnvelope(values, opts_.dtw.window, row.subspan(len, len),
                     row.subspan(2 * len, len));
}

StatusOr<size_t> Descender::AddTrace(ts::Series trace) {
  if (trace.empty()) return Status::InvalidArgument("Descender: empty trace");
  if (!traces_.empty() && trace.size() != traces_[0].size()) {
    return Status::InvalidArgument("Descender: trace length mismatch");
  }
  // The new row is the query. The exact cascade (LB_Kim -> LB_Keogh ->
  // early-abandoning DTW) decides its pair with every row below it.
  const size_t idx = traces_.size();
  AppendRow(trace);
  const std::span<const double> query = DistanceRow(idx);
  dtw::CascadingDtw cascade(opts_.dtw);
  std::vector<size_t> nbrs;
  for (size_t i = 0; i < idx; ++i) {
    auto within = cascade.WithinRadius(query, DistanceRow(i), EnvelopeRow(i),
                                       opts_.radius);
    if (!within.ok()) {
      arena_.resize(3 * row_len_ * idx);
      return within.status();
    }
    if (*within) nbrs.push_back(i);
  }
  stats_ += cascade.stats();
  volumes_.push_back(Volume(trace));
  traces_.push_back(std::move(trace));
  adjacency_.push_back(std::move(nbrs));
  for (size_t n : adjacency_[idx]) adjacency_[n].push_back(idx);
  Relabel();
  return idx;
}

Status Descender::AddTraces(std::vector<ts::Series> traces, ThreadPool* pool) {
  // Atomic validation: reject the whole batch up front so a bad trace in the
  // middle cannot leave the clustering half-updated.
  size_t len = traces_.empty()
                   ? (traces.empty() ? 0 : traces[0].size())
                   : traces_[0].size();
  for (const auto& t : traces) {
    if (t.empty()) return Status::InvalidArgument("Descender: empty trace");
    if (t.size() != len) {
      return Status::InvalidArgument("Descender: trace length mismatch");
    }
  }
  const size_t old_n = traces_.size();
  const size_t batch = traces.size();

  // Write every new row (distance values + envelope) into the arena up
  // front; the sweep then reads it concurrently without any mutation.
  arena_.reserve(3 * len * (old_n + batch));
  for (auto& t : traces) {
    AppendRow(t);
    volumes_.push_back(Volume(t));
    traces_.push_back(std::move(t));
    adjacency_.emplace_back();
  }
  const EndpointGrid grid(arena_, len, traces_.size(), opts_.radius);

  // Half-matrix sweep: row bi decides every pair (old_n + bi, j) for
  // j < old_n + bi exactly once. The grid hands it the pairs that pass
  // LB_Kim, and the rest are counted as the LB_Kim rejections they are.
  // The pairs handed over take the cascade's remaining tiers with the
  // symmetric two-sided LB_Keogh (both envelopes are available, unlike the
  // incremental path), decided on sums with the kernel and threshold
  // resolved here, then DTW. Rows write disjoint slots, so any schedule
  // yields the same result; the merge below runs in index order regardless.
  const dtw::LbKeoghSumKernel keogh = dtw::ActiveLbKeoghSum();
  const double threshold = dtw::SquaredRadiusThreshold(opts_.radius);
  std::vector<std::vector<size_t>> row_nbrs(batch);
  std::vector<dtw::PruningStats> row_stats(batch);
  std::vector<Status> row_status(batch);
  auto sweep_rows = [&](size_t row_begin, size_t row_end) {
    std::vector<Candidate> cand;
    for (size_t bi = row_begin; bi < row_end; ++bi) {
      const size_t gi = old_n + bi;
      const double* q = DistanceRow(gi).data();
      cand.clear();
      grid.Candidates(gi, &cand);
      dtw::PruningStats& st = row_stats[bi];
      st.kim_rejections = static_cast<int64_t>(gi - cand.size());
      for (const Candidate& c : cand) {
        const double* v = c.data;
        if (dtw::KeoghSumsReject(keogh(q, v + len, v + 2 * len, len),
                                 threshold, [&] {
                                   return keogh(v, q + len, q + 2 * len, len);
                                 })) {
          ++st.keogh_rejections;
          continue;
        }
        ++st.full_dtw;
        auto d = dtw::DtwDistance(std::span<const double>(q, len),
                                  std::span<const double>(v, len), opts_.dtw,
                                  opts_.radius);
        if (!d.ok()) {
          row_status[bi] = d.status();
          break;
        }
        if (*d <= opts_.radius) row_nbrs[bi].push_back(c.row);
      }
      std::sort(row_nbrs[bi].begin(), row_nbrs[bi].end());
    }
  };
  // A lane claims up to 16 rows at a time and reuses its candidate buffer
  // across them. A row's cost grows with its index, so a small batch keeps
  // about eight claims per lane to spread its costly last rows.
  const size_t lanes = pool != nullptr ? pool->size() : opts_.threads;
  const size_t rows_per_claim = std::clamp<size_t>(batch / (8 * lanes), 1, 16);
  if (pool != nullptr) {
    pool->ParallelFor(batch, rows_per_claim, sweep_rows);
  } else {
    ThreadPool own(opts_.threads);
    own.ParallelFor(batch, rows_per_claim, sweep_rows);
  }
  for (const Status& st : row_status) {
    if (!st.ok()) {
      // Roll the appended per-trace state back so a failure stays atomic.
      traces_.resize(old_n);
      arena_.resize(3 * len * old_n);
      volumes_.resize(old_n);
      adjacency_.resize(old_n);
      return st;
    }
  }

  // Deterministic merge in index order: each new row's list is its sorted
  // sweep hits (only later rows link back to it, after this step), and the
  // symmetric back-fill appends strictly increasing indices — exactly the
  // lists the sequential AddTrace loop produces, so Relabel's BFS emits
  // identical labels.
  for (size_t bi = 0; bi < batch; ++bi) {
    const size_t gi = old_n + bi;
    adjacency_[gi] = row_nbrs[bi];
    for (size_t j : adjacency_[gi]) adjacency_[j].push_back(gi);
    stats_ += row_stats[bi];
  }
  Relabel();
  return Status::OK();
}

void Descender::Relabel() {
  size_t n = traces_.size();
  core_.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    core_[i] = adjacency_[i].size() + 1 >= opts_.min_size;
  }
  labels_.assign(n, -1);
  int next = 0;
  // BFS from each unlabeled core: density-reachable expansion.
  for (size_t seed = 0; seed < n; ++seed) {
    if (!core_[seed] || labels_[seed] != -1) continue;
    int cid = next++;
    std::deque<size_t> frontier{seed};
    labels_[seed] = cid;
    while (!frontier.empty()) {
      size_t cur = frontier.front();
      frontier.pop_front();
      for (size_t nb : adjacency_[cur]) {
        if (labels_[nb] == -1) {
          labels_[nb] = cid;  // border or core, first cluster wins
          if (core_[nb]) frontier.push_back(nb);
        }
      }
    }
  }
  // Remaining noise traces become singleton clusters (paper's online rule).
  for (size_t i = 0; i < n; ++i) {
    if (labels_[i] == -1) labels_[i] = next++;
  }
  cluster_volumes_.assign(static_cast<size_t>(next), 0.0);
  cluster_sizes_.assign(static_cast<size_t>(next), 0);
  for (size_t i = 0; i < n; ++i) {
    const auto c = static_cast<size_t>(labels_[i]);
    cluster_volumes_[c] += volumes_[i];
    ++cluster_sizes_[c];
  }
}

size_t Descender::density_cluster_count() const {
  std::vector<bool> has_core(cluster_count(), false);
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (core_[i]) has_core[static_cast<size_t>(labels_[i])] = true;
  }
  return static_cast<size_t>(
      std::count(has_core.begin(), has_core.end(), true));
}

std::vector<ClusterInfo> Descender::TopKClusters(size_t k) const {
  std::vector<ClusterInfo> infos(cluster_count());
  for (size_t c = 0; c < infos.size(); ++c) {
    infos[c].id = static_cast<int>(c);
    infos[c].volume = cluster_volumes_[c];
    infos[c].members.reserve(cluster_sizes_[c]);
  }
  for (size_t i = 0; i < labels_.size(); ++i) {
    infos[static_cast<size_t>(labels_[i])].members.push_back(i);
  }
  for (auto& info : infos) {
    info.singleton_outlier =
        info.members.size() == 1 && !core_[info.members[0]];
  }
  std::sort(infos.begin(), infos.end(),
            [](const ClusterInfo& a, const ClusterInfo& b) {
              return a.volume > b.volume;
            });
  if (infos.size() > k) infos.resize(k);
  return infos;
}

StatusOr<ts::Series> Descender::ClusterRepresentative(int cluster_id) const {
  std::vector<ts::Series> members;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == cluster_id) members.push_back(traces_[i]);
  }
  if (members.empty()) {
    return Status::NotFound("Descender: no such cluster");
  }
  auto avg = ts::Series::Average(members);
  if (!avg.ok()) return avg.status();
  avg->set_name("cluster_" + std::to_string(cluster_id));
  return avg;
}

StatusOr<double> Descender::TraceProportion(size_t i) const {
  if (i >= traces_.size()) return Status::OutOfRange("Descender: bad index");
  const auto c = static_cast<size_t>(labels_[i]);
  if (cluster_volumes_[c] <= 0.0) {
    // Zero-volume cluster: split evenly among members.
    return 1.0 / static_cast<double>(cluster_sizes_[c]);
  }
  return volumes_[i] / cluster_volumes_[c];
}

}  // namespace dbaugur::cluster
