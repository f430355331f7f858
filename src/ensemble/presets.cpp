#include "ensemble/presets.h"

#include "models/factory.h"

namespace dbaugur::ensemble {

namespace {
StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> Build(
    const models::ForecasterOptions& opts, const EnsembleOptions& ens,
    const std::vector<std::string>& names) {
  auto out = std::make_unique<TimeSensitiveEnsemble>(ens);
  for (const auto& name : names) {
    auto m = models::MakeForecaster(name, opts);
    if (!m.ok()) return m.status();
    out->AddMember(std::move(m).value());
  }
  return out;
}
}  // namespace

StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeDBAugur(
    const models::ForecasterOptions& opts, double delta) {
  EnsembleOptions ens;
  ens.delta = delta;
  ens.dynamic = true;
  return Build(opts, ens, {"WFGAN", "TCN", "MLP"});
}

StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeQB5000(
    const models::ForecasterOptions& opts) {
  EnsembleOptions ens;
  ens.dynamic = false;
  return Build(opts, ens, {"LR", "LSTM", "KR"});
}

StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeKernelBaseline(
    const models::ForecasterOptions& opts) {
  EnsembleOptions ens;
  ens.dynamic = false;  // a single member always has weight 1
  return Build(opts, ens, {"KR"});
}

}  // namespace dbaugur::ensemble
