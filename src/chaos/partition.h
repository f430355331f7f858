// Relabel-invariant comparison of cluster partitions.
//
// Two clusterings of the same traces are equivalent when they induce the
// same partition, even if the integer labels differ. The chaos differential
// oracle uses this one comparator so "same partition" means the same thing
// everywhere.

#pragma once

#include <string>
#include <vector>

namespace dbaugur::chaos {

/// True iff `a` and `b` describe the same partition up to a relabeling —
/// i.e. there is a bijection f with f(a[i]) == b[i] for every i. Sizes must
/// match. On failure, when `mismatch` is non-null it receives a one-line
/// description of the first witness found (size mismatch, or a pair of
/// indices the two partitions disagree about).
bool PartitionsEquivalent(const std::vector<int>& a, const std::vector<int>& b,
                          std::string* mismatch = nullptr);

}  // namespace dbaugur::chaos
