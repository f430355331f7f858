// Parameter (de)serialization in the lossless float64 form that system
// snapshots (serve/) use, so a restored service reproduces bit-identical
// forecasts. Layout: magic, tensor count, then per tensor rows, cols and
// its values. Corrupt magic / count / shape / truncation are all rejected
// with InvalidArgument before any parameter is written.
//
// Table II's "Storage" column is not a serialized size: StorageBytes is
// the arithmetic size of a compact float32 encoding of the same tensors.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "nn/layer.h"

namespace dbaugur::nn {

/// Serializes all parameters as float64 — lossless round trip.
std::vector<uint8_t> SerializeParamsF64(const std::vector<Param>& params);

/// Restores parameter values from a SerializeParamsF64 buffer. The parameter
/// list must have the same tensors in the same order. The whole buffer is
/// validated first: on error no parameter has changed.
Status DeserializeParams(const std::vector<uint8_t>& buffer,
                         std::vector<Param>& params);

/// Storage footprint in bytes with 4-byte values: 8 header bytes, then
/// 8 + 4 * size per tensor.
int64_t StorageBytes(const std::vector<Param>& params);

}  // namespace dbaugur::nn
