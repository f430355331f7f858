// Parameter (de)serialization. Two on-wire widths share one header layout
// (magic, tensor count, per-tensor rows/cols) and one validation path:
//
//   * float32 — the compact form Table II's "Storage" column measures,
//   * float64 — lossless, used by system snapshots (serve/) so a restored
//     service reproduces bit-identical forecasts.
//
// DeserializeParams dispatches on the magic, so either buffer restores into
// the same parameter list; corrupt magic / count / shape / truncation are all
// rejected with InvalidArgument before any parameter is written.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "nn/layer.h"

namespace dbaugur::nn {

/// Serializes all parameters (values only) as float32 — compact, lossy.
std::vector<uint8_t> SerializeParams(const std::vector<Param>& params);

/// Serializes all parameters as float64 — lossless round trip.
std::vector<uint8_t> SerializeParamsF64(const std::vector<Param>& params);

/// Restores parameter values from a buffer produced by either serializer.
/// The parameter list must have the same tensors in the same order. The
/// whole buffer is validated first: on error no parameter has changed.
Status DeserializeParams(const std::vector<uint8_t>& buffer,
                         std::vector<Param>& params);

/// Storage footprint in bytes of the serialized float32 form.
int64_t StorageBytes(const std::vector<Param>& params);

}  // namespace dbaugur::nn
